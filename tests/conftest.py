import faulthandler
import os
import random
import sys

import pytest
from hypothesis import settings

from unitri import Ring, UniTriWindow

# every property test runs derandomized, with no per-example deadline
settings.register_profile("unitri", max_examples=150, deadline=None, derandomize=True)
settings.load_profile("unitri")

# no test takes a tenth of this; a hung one (say, a closure that never ends
# under a broken product) dumps every thread's traceback and ends the run
TEST_TIME_LIMIT_S = 120
_run_stderr = []    # a copy of the run's stderr, which per-test capture leaves alone


def pytest_configure(config):
    _run_stderr.append(os.dup(sys.stderr.fileno()))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True, file=_run_stderr[0])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


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
