import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import unitri
from unitri import (
    Word, closure_order, commutator, elementary, embed_word,
    four_syllable_matrix, free_closure_log_index, identity, is_periodic,
    lower_central, mat_mul, membership, periodic_generators,
    read_word_length, truncate, two_periodic_image_order,
    two_periodic_log_order,
)

from conftest import rng


def rand_word(p, r, max_syll=6):
    sylls = []
    letter = r.choice("xy")
    for _ in range(r.randrange(1, max_syll + 1)):
        sylls.append((letter, r.randrange(1, p)))
        letter = "y" if letter == "x" else "x"
    return Word(p, sylls)


def test_word_parse_format_roundtrip():
    w = Word.parse("x^2 y x y^2", 3)
    assert w.format() == "x^2 y x y^2"
    assert Word.parse(w.format(), 3) == w
    assert Word(3).format() == "1"


def test_word_reduction():
    assert Word(3, [("x", 1), ("x", 2)]).syllables == ()
    assert Word(3, [("x", 1), ("y", 0), ("x", 1)]).syllables == (("x", 2),)
    w = Word.parse("x y", 3) * Word.parse("y^2 x", 3)
    assert w.syllables == (("x", 2),)


def test_word_inverse():
    r = rng(50)
    for _ in range(100):
        w = rand_word(5, r)
        assert (w * w.inverse()).syllables == ()


def test_generators_shape(f3):
    s, t = periodic_generators(f3, 6)
    assert s.positions() == {(1, 2), (3, 4), (5, 6)}
    assert t.positions() == {(2, 3), (4, 5)}
    assert embed_word(Word.parse("x", 3), 6) == s
    assert embed_word(Word(3), 6).is_identity()


def test_embedding_is_homomorphism():
    r = rng(51)
    for _ in range(500):
        w1, w2 = rand_word(3, r), rand_word(3, r)
        lhs = embed_word(w1 * w2, 10)
        rhs = mat_mul(embed_word(w1, 10), embed_word(w2, 10))
        assert lhs == rhs


def test_images_are_2_periodic():
    r = rng(52)
    for _ in range(200):
        w = rand_word(3, r)
        assert is_periodic(embed_word(w, 10), 2)


def test_image_xy_entries(f3):
    # oracle: direct product s * t
    s, t = periodic_generators(f3, 6)
    prod = mat_mul(s, t)
    img = embed_word(Word.parse("x y", 3), 6)
    assert img == prod
    assert img.get(1, 2) == f3.one
    assert img.get(2, 3) == f3.one
    assert img.get(1, 3) == f3.one
    assert img.get(3, 4) == f3.one


def test_four_syllable_template_all_tuples(f3):
    # every exponent tuple, window 8: template equals the actual product
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    w = Word(3, [("x", a), ("y", b), ("x", c), ("y", d)])
                    assert four_syllable_matrix(f3, a, b, c, d, 8) == \
                        embed_word(w, 8), (a, b, c, d)


def test_four_syllable_first_row_values(f3):
    m = four_syllable_matrix(f3, 1, 1, 1, 1, 8)
    assert m.get(1, 2) == f3.elem(2)   # a + c
    assert m.get(1, 3) == f3.zero      # ab + cd + ad = 3
    assert m.get(1, 4) == f3.one       # abc
    assert m.get(1, 5) == f3.one       # abcd


def test_four_syllable_degenerate(f3):
    s, t = periodic_generators(f3, 6)
    assert four_syllable_matrix(f3, 1, 0, 1, 0, 6) == mat_mul(s, s)  # s^(a+c)
    assert four_syllable_matrix(f3, 2, 0, 2, 0, 6) == s              # s^4 = s
    assert four_syllable_matrix(f3, 0, 1, 0, 1, 6) == mat_mul(t, t)


def test_read_length_cases():
    w = Word.parse("x y x y", 3)
    img = embed_word(w, 8)
    row1 = max(j for (i, j), _ in img.items() if i == 1)
    row2 = max(j for (i, j), _ in img.items() if i == 2)
    assert (row1, row2) == (5, 5)
    assert read_word_length(img) == (2, "i")

    w2 = Word.parse("y x y", 3)  # leading x exponent zero
    assert read_word_length(embed_word(w2, 8)) == (2, "ii")

    w3 = Word.parse("y^2 x^2", 3)  # both outer exponents zero
    assert read_word_length(embed_word(w3, 8)) == (2, "iii")


def test_read_length_longer_words():
    r = rng(53)
    for _ in range(100):
        w = rand_word(5, r, max_syll=4)
        sylls = list(w.syllables)
        if not sylls:
            continue
        # pad to x-first, y-last shape to get the case-(i) pattern
        if sylls[0][0] == "x" and sylls[-1][0] == "y":
            l = len(sylls) // 2
            img = embed_word(w, 2 * l + 4)
            assert read_word_length(img) == (l, "i")


def test_read_length_rejects_non_images(f3):
    with pytest.raises(ValueError):
        read_word_length(elementary(f3, 6, 1, 2))  # empty second row
    with pytest.raises(ValueError):
        read_word_length(identity(f3, 6))
    # pattern (1,2l),(2,2l) arises for words ending in x; not recognised
    w = Word.parse("x y x", 3)
    with pytest.raises(ValueError):
        read_word_length(embed_word(w, 8))


def test_read_length_window_guard():
    w = Word.parse("x y x y x y", 3)  # l = 3, needs window >= 8
    with pytest.raises(ValueError):
        read_word_length(embed_word(w, 7))


def test_index_formulas():
    assert free_closure_log_index(5) == 6
    assert free_closure_log_index(4) == 4
    assert [two_periodic_log_order(n) for n in (2, 3, 4)] == [1, 3, 5]


def test_closure_matches_log_index(f3):
    for n in range(3, 7):
        s, t = periodic_generators(f3, n)
        assert closure_order([s, t]) == 3 ** free_closure_log_index(n)


def test_two_periodic_enumeration_small():
    for n in range(3, 7):
        assert two_periodic_image_order(n, 3) == 3 ** two_periodic_log_order(n)
    assert two_periodic_image_order(3, 5) == 5 ** 3


def test_two_periodic_orbit_count_to_window_200():
    # one free value per shift-by-2 orbit of positions: every window runs
    start = time.perf_counter()
    for n in range(2, 201):
        for p in (3, 5, 7):
            assert two_periodic_image_order(n, p) == p ** two_periodic_log_order(n), (n, p)
    assert time.perf_counter() - start < 1.0


def test_two_periodic_fills_are_periodic(f3):
    # spot check the parametrization: random first-two-row fills are periodic
    from unitri import UniTriWindow
    r = rng(54)
    n = 7
    for _ in range(100):
        row1 = [r.randrange(3) for _ in range(n - 1)]
        row2 = [r.randrange(3) for _ in range(n - 2)]
        entries = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                gap = j - i
                val = row1[gap - 1] if i % 2 == 1 else row2[gap - 1]
                entries[(i, j)] = val
        assert is_periodic(UniTriWindow(f3, n, entries), 2)


def test_truncation_compatibility():
    w = Word.parse("x y^2 x^2 y", 3)
    assert truncate(embed_word(w, 10), 6) == embed_word(w, 6)


def test_filtration_compatibility():
    # images of nested commutators land in the matching lower-central layer
    r = rng(55)
    for d in (2, 3):
        for _ in range(60):
            words = [rand_word(3, r) for _ in range(d)]
            w = words[0]
            for nxt in words[1:]:
                w = w.commutator(nxt)
            img = embed_word(w, 12)
            assert membership(img, lower_central(d, window=12))
    # words with a nonzero exponent sum stay outside the derived layer
    for _ in range(60):
        w = rand_word(3, r)
        sx, sy = w.exponent_sums()
        if sx or sy:
            assert not membership(embed_word(w, 12), lower_central(2, window=12))


def test_exponent_sums_appear_on_superdiagonals(f3):
    r = rng(56)
    for _ in range(100):
        w = rand_word(3, r)
        sx, sy = w.exponent_sums()
        img = embed_word(w, 8)
        assert img.get(1, 2) == f3.elem(sx)
        assert img.get(2, 3) == f3.elem(sy)


def test_commutator_image_matches_matrix_commutator():
    r = rng(57)
    for _ in range(100):
        w1, w2 = rand_word(3, r), rand_word(3, r)
        lhs = embed_word(w1.commutator(w2), 9)
        rhs = commutator(embed_word(w1, 9), embed_word(w2, 9))
        assert lhs == rhs


def test_enumeration_oracle_needs_no_numpy():
    src = str(Path(unitri.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; sys.modules['numpy'] = None\n"
            "import unitri\n"
            "assert unitri.two_periodic_image_order(5, 3) == 3 ** 7\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
