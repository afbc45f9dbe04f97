import pytest
from hypothesis import given, strategies as st

from unitri import (
    CentralAut, DiagonalAut, ExtremalAut, FieldAut, Flip, InnerAut, Ring,
    UniTriWindow, apply, commutator, elementary, elementary_factorization,
    evaluate_generator_word, extend_generator_map, frobenius,
    generator_images, identity, is_homomorphism, mat_mul, scalar_central,
)
from unitri.rings import TABLE_MAX_ORDER, RingElem

from conftest import rand_window, rng


def test_flip_generator_images(f3):
    assert apply(Flip(), elementary(f3, 4, 1, 2)) == elementary(f3, 4, 3, 4)
    assert apply(Flip(), elementary(f3, 4, 2, 3)) == elementary(f3, 4, 2, 3)
    a = f3.elem(2)
    assert apply(Flip(), elementary(f3, 5, 2, 3, a)) == elementary(f3, 5, 3, 4, a)


def test_flip_is_involution(f3, f9):
    r = rng(60)
    for ring in (f3, f9):
        for n in (4, 5):
            for _ in range(100):
                x = rand_window(ring, n, r)
                assert apply(Flip(), apply(Flip(), x)) == x


def test_flip_closed_form_matches_extension(f3):
    ext = extend_generator_map(generator_images(Flip(), f3, 5), f3, 5)
    r = rng(61)
    for _ in range(100):
        x = rand_window(f3, 5, r)
        assert ext(x) == apply(Flip(), x)


def test_field_automorphism(f9):
    alpha = f9.gen()
    x = elementary(f9, 4, 1, 2, alpha)
    got = apply(FieldAut(1), x)
    assert got == elementary(f9, 4, 1, 2, frobenius(alpha))
    # order f: applying twice returns the element
    assert apply(FieldAut(1), got) == x
    prime_x = elementary(Ring.prime_field(5), 4, 1, 2, 3)
    assert apply(FieldAut(1), prime_x) == prime_x


def test_diagonal_scales_entries(f5):
    aut = DiagonalAut((1, 2, 3, 4))
    x = UniTriWindow(f5, 4, {(1, 2): 1, (2, 4): 1, (1, 4): 2})
    got = apply(aut, x)
    d = [f5.elem(v) for v in (1, 2, 3, 4)]
    assert got.get(1, 2) == d[0] * d[1].inv()
    assert got.get(2, 4) == d[1] * d[3].inv()
    assert got.get(1, 4) == f5.elem(2) * d[0] * d[3].inv()


def test_diagonal_classes_distinct_n3_q5(f5):
    # maps are determined by (d1/d2, d2/d3); all 16 unit classes differ
    seen = set()
    for d1 in range(1, 5):
        for d2 in range(1, 5):
            aut = DiagonalAut((d1, d2, 1))
            sig = (apply(aut, elementary(f5, 3, 1, 2)).get(1, 2).val,
                   apply(aut, elementary(f5, 3, 2, 3)).get(2, 3).val)
            seen.add(sig)
    assert len(seen) == 16


def test_inner_is_conjugation(f3):
    r = rng(62)
    for _ in range(50):
        g = rand_window(f3, 5, r)
        x = rand_window(f3, 5, r)
        from unitri import conjugate
        assert apply(InnerAut(g), x) == conjugate(g, x)


def test_central_map_example(f3):
    aut = scalar_central(f3, 2, 2)  # lam = multiplication by 2, r = 2
    x = elementary(f3, 5, 2, 3)
    got = apply(aut, x)
    assert got == UniTriWindow(f3, 5, {(2, 3): 1, (1, 5): 2})
    # entries away from row r are untouched
    y = elementary(f3, 5, 3, 4)
    assert apply(aut, y) == y


def test_central_maps_over_z27_reduce_mod_27(z27):
    # pinned: lam acts on Z/27 itself, so (1, 5) picks up x_23 * b mod 27, not mod 3
    vals = {(1, 2): 7, (2, 3): 13, (3, 4): 22, (1, 4): 5, (2, 5): 26, (1, 5): 3}
    x = UniTriWindow(z27, 5, vals)
    for b, corner, image in ((1, 16, 11), (4, 1, 17), (10, 25, 2), (26, 17, 16)):
        aut = scalar_central(z27, 2, b)
        assert aut.lam == ((b,),)
        assert apply(aut, x) == UniTriWindow(z27, 5, {**vals, (1, 5): corner})
        assert aut.generator_image(z27, 5, 2, z27.elem(11)) == \
            UniTriWindow(z27, 5, {(2, 3): 11, (1, 5): image})
    assert apply(CentralAut(3, ((19,),)), x) == UniTriWindow(z27, 5, {**vals, (1, 5): 16})

def test_central_r_range(f3):
    with pytest.raises(ValueError):
        apply(scalar_central(f3, 1, 1), identity(f3, 5))
    with pytest.raises(ValueError):
        apply(scalar_central(f3, 4, 1), identity(f3, 5))


def test_central_maps_have_order_p_and_commute(f3, f9):
    r = rng(63)
    for ring in (f3, f9):
        a1 = scalar_central(ring, 2, 1)
        a2 = scalar_central(ring, 3, ring.elem(2))
        for _ in range(50):
            x = rand_window(ring, 5, r)
            y = x
            for _ in range(ring.p):
                y = apply(a1, y)
            assert y == x
            assert apply(a1, apply(a2, x)) == apply(a2, apply(a1, x))


def test_factorization_roundtrip(f3, f9):
    r = rng(64)
    for ring in (f3, f9):
        for _ in range(200):
            x = rand_window(ring, 4, r)
            word = elementary_factorization(x)
            assert evaluate_generator_word(ring, 4, word) == x


def test_factorization_examples(f3):
    assert elementary_factorization(elementary(f3, 3, 1, 2)) == [(1, f3.one)]
    word = elementary_factorization(elementary(f3, 3, 1, 3))
    assert evaluate_generator_word(f3, 3, word) == elementary(f3, 3, 1, 3)
    # commutator identity: the expansion uses rows 1 and 2 only
    assert {r for r, _ in word} == {1, 2}


def test_extremal_images(f3):
    n = 5
    aut = ExtremalAut(1, "first")
    imgs = generator_images(aut, f3, n)
    assert imgs[(1, 0)] == UniTriWindow(f3, n, {(1, 2): 1, (2, n): 1})
    assert imgs[(2, 0)] == elementary(f3, n, 2, 3)
    last = generator_images(ExtremalAut(2, "last"), f3, n)
    assert last[(n - 1, 0)] == UniTriWindow(f3, n, {(n - 1, n): 1, (1, n - 1): 2})


def test_extremal_application_fixes_relations(f3):
    # the extension sends 1 + a e_12 to the p-th-power-compatible image
    n = 4
    ext = extend_generator_map(generator_images(ExtremalAut(1, "first"), f3, n), f3, n)
    g = elementary(f3, n, 1, 2)
    img = ext(g)
    cube = mat_mul(mat_mul(img, img), img)
    assert cube.is_identity()  # order p preserved
    x = ext(elementary(f3, n, 1, 2, 2))
    assert x == mat_mul(img, img)


def test_all_kinds_pass_harness():
    cases = [(4, Ring.prime_field(3)), (5, Ring.prime_field(3)),
             (4, Ring.ext_field(3, 2))]
    for n, ring in cases:
        g = UniTriWindow(ring, n, {(1, 2): 1, (2, n): 1})
        kinds = [Flip(), FieldAut(1), DiagonalAut(tuple([1, 2] * n)[:n]),
                 InnerAut(g), scalar_central(ring, 2, 1),
                 ExtremalAut(1, "first"), ExtremalAut(1, "last")]
        for aut in kinds:
            imgs = generator_images(aut, ring, n)
            assert is_homomorphism(imgs, ring, n, pairs=80), (n, ring, aut)


def test_harness_rejects_bad_table(f3):
    n = 4
    imgs = generator_images(Flip(), f3, n)
    imgs = {key: elementary(f3, n, key[0], key[0] + 1) for key in imgs}
    # identity on generators is fine; now poison one image
    imgs[(1, 0)] = UniTriWindow(f3, n, {(1, 2): 1, (1, 3): 1})
    assert not is_homomorphism(imgs, f3, n, pairs=200)


def test_harness_rejects_non_bijective_table(f3):
    n = 4
    imgs = {key: identity(f3, n) for key in generator_images(Flip(), f3, n)}
    # collapsing map is trivially multiplicative but not bijective
    assert not is_homomorphism(imgs, f3, n, pairs=10)


@pytest.mark.parametrize("c, bijective", [(3, False), (4, True)])
def test_harness_reduces_z9_coordinates_mod_p(c, bijective):
    # x -> diag(c, 1, 1) x diag(c, 1, 1)^-1 scales row 1 by c: multiplicative for
    # every c, bijective for a unit; a coordinate 3 is 0 over F_3, not a pivot
    z9, n = Ring.integers_mod(3, 2), 3
    imgs = {(1, 0): UniTriWindow(z9, n, {(1, 2): c}), (2, 0): elementary(z9, n, 2, 3)}
    assert is_homomorphism(imgs, z9, n, pairs=50) is bijective


def _reference_factorization(x):
    """elementary_factorization on RingElem arithmetic, as an oracle."""
    ring, n = x.ring, x.n
    y = dict(x.items())
    factors = []
    for j in range(2, n + 1):
        for i in range(j - 1, 0, -1):
            a = y.get((i, j))
            if a is None or a.is_zero():
                continue
            factors.append((i, j, a))
            for k in range(1, i):
                prev = y.get((k, i))
                if prev is not None and not prev.is_zero():
                    y[(k, j)] = y.get((k, j), ring.zero) - prev * a
            y[(i, j)] = ring.zero

    def expand(i, j, a):
        if j == i + 1:
            return [(i, a)]
        u, v = expand(i, j - 1, a), [(j - 1, ring.one)]
        return [(r, -b) for r, b in reversed(u)] + [(r, -b) for r, b in reversed(v)] + u + v
    return [letter for i, j, a in reversed(factors) for letter in expand(i, j, a)]


FACTOR_RINGS = {"F_5": Ring.prime_field(5), "F_9": Ring.ext_field(3, 2),
                "F_3^5": Ring.ext_field(3, 5), "Z/27": Ring.integers_mod(3, 3),
                "F_257^2": Ring.ext_field(257, 2)}
assert FACTOR_RINGS["F_257^2"].order > TABLE_MAX_ORDER


@given(data=st.data(), name=st.sampled_from(sorted(FACTOR_RINGS)), n=st.integers(1, 7))
def test_factorization_on_codes_matches_ring_elements(data, name, n):
    ring = FACTOR_RINGS[name]
    cells = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    codes = data.draw(st.lists(st.integers(0, ring.order - 1), min_size=len(cells),
                               max_size=len(cells)))
    x = UniTriWindow(ring, n, {pos: ring.decode(c) for pos, c in zip(cells, codes)})
    word = elementary_factorization(x)
    assert word == _reference_factorization(x)
    assert evaluate_generator_word(ring, n, word) == x
    assert all(type(a) is RingElem and a.ring == ring and not a.is_zero() for _, a in word)


def test_central_against_commutator_centrality(f3):
    # the added corner entry is central: images differ by central factors
    n = 5
    aut = scalar_central(f3, 2, 1)
    r = rng(65)
    for _ in range(50):
        x = rand_window(f3, n, r)
        delta = mat_mul(apply(aut, x), x.inv())
        assert set(delta.positions()) <= {(1, n)}
        for g in (elementary(f3, n, i, i + 1) for i in range(1, n)):
            assert commutator(delta, g).is_identity()


def _rank_mod_p(rows, p):
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [v * inv % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                c = mat[r][col]
                mat[r] = [(v - c * w) % p for v, w in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_central_extremal_group_order_at_n5_q9():
    # the central and extremal maps generate an elementary abelian group;
    # counting independent generators at n = 5 over F_9 gives order
    # 3^12 = 9^(f(n-3)+2), matching the classical count
    ring = Ring.ext_field(3, 2)
    n = 5
    f = ring.f
    gens = []
    for r in (2, 3):
        for j in range(f):
            for k in range(f):
                lam = tuple(tuple(1 if (a, b) == (k, j) else 0 for b in range(f))
                            for a in range(f))
                gens.append(CentralAut(r, lam))
    for side in ("first", "last"):
        for a in ring.basis_elems():
            gens.append(ExtremalAut(a, side))
    assert len(gens) == f * f * (n - 3) + 2 * f

    probes = [(rp, a) for rp in range(1, n) for a in ring.basis_elems()]
    corner_positions = [(1, n), (2, n), (1, n - 1)]
    rows = []
    for aut in gens:
        ext = extend_generator_map(generator_images(aut, ring, n), ring, n)
        vec = []
        for rp, a in probes:
            g = elementary(ring, n, rp, rp + 1, a)
            delta = mat_mul(ext(g), g.inv())
            assert set(delta.positions()) <= set(corner_positions)
            for pos in corner_positions:
                vec.extend(ring.coords(delta.get(*pos)))
        rows.append(vec)
    assert _rank_mod_p(rows, 3) == len(gens)
    observed_order = 3 ** len(gens)
    assert observed_order == 9 ** (f * (n - 3) + 2)


def test_extremal_maps_have_order_p_and_commute_with_central(f3):
    n = 5
    ex = ExtremalAut(1, "first")
    ce = scalar_central(f3, 2, 1)
    r = rng(66)
    for _ in range(20):
        x = rand_window(f3, n, r)
        y = x
        for _ in range(3):
            y = apply(ex, y)
        assert y == x
        assert apply(ex, apply(ce, x)) == apply(ce, apply(ex, x))


EXTENSION_RINGS = {"F_5": Ring.prime_field(5), "F_9": Ring.ext_field(3, 2),
                   "Z/9": Ring.integers_mod(3, 2)}


@given(name=st.sampled_from(sorted(EXTENSION_RINGS)), n=st.integers(2, 6),
       r=st.randoms(use_true_random=False))
def test_extension_multiplies_images_along_the_factorization(name, n, r):
    # random tables, almost never homomorphisms: the extension must still be
    # the product, over the decoded letters (k, a) of the factorization, of
    # the basis images images[(k, c)] raised to the coordinates of a
    ring = EXTENSION_RINGS[name]
    images = {(k, c): rand_window(ring, n, r) for k in range(1, n) for c in range(ring.f)}
    x = rand_window(ring, n, r)
    want = identity(ring, n)
    for k, a in elementary_factorization(x):
        for c, mult in enumerate(ring.coords(a)):
            for _ in range(mult):
                want = mat_mul(want, images[(k, c)])
    assert extend_generator_map(images, ring, n)(x) == want
