import random

import pytest
from hypothesis import settings

from unitri import Ring, UniTriWindow

# every property test runs derandomized, with no per-example deadline
settings.register_profile("unitri", max_examples=150, deadline=None, derandomize=True)
settings.load_profile("unitri")


@pytest.fixture
def f3():
    return Ring.prime_field(3)


@pytest.fixture
def f5():
    return Ring.prime_field(5)


@pytest.fixture
def f7():
    return Ring.prime_field(7)


@pytest.fixture
def f9():
    return Ring.ext_field(3, 2)


@pytest.fixture
def z27():
    return Ring.integers_mod(3, 3)


def rand_elem(ring, rng):
    return ring.decode(rng.randrange(ring.order))


def rand_window(ring, n, rng, density=0.7):
    entries = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < density:
                entries[(i, j)] = rand_elem(ring, rng)
    return UniTriWindow(ring, n, entries)


def rng(seed=12345):
    return random.Random(seed)
