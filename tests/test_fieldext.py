import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from unitri import (
    EmbeddingContext, PartitionDiagram, Ring, UniTriWindow, centralizer_solve,
    closure_order, commutator, elementary, extend_scalars, extension_image_ratio,
    identity, mat_mul, regular_rep, restrict_scalars,
    restricted_image_log_order, sandwich_bounds, subgroup_generators,
    valuation,
)
from unitri.autos import random_window
from unitri.fieldext import _centralizer_rows
from unitri.rings import row_reduce

from conftest import rand_window, rng


@pytest.fixture
def ctx2():
    return EmbeddingContext(3, 2)


@pytest.fixture
def ctx3():
    return EmbeddingContext(3, 3)


def test_restriction_identity_and_block(ctx2):
    F9 = ctx2.ring_q
    assert restrict_scalars(ctx2, identity(F9, 3)).is_identity()
    x = elementary(F9, 2, 1, 2, F9.gen())
    got = restrict_scalars(ctx2, x)
    # regular rep of x is [[0,2],[1,0]] in the power basis
    assert got == UniTriWindow(ctx2.ring_p, 4, {(1, 4): 2, (2, 3): 1})


def test_restriction_is_injective_homomorphism(ctx2, ctx3):
    r = rng(80)
    for ctx in (ctx2, ctx3):
        seen = set()
        for _ in range(500):
            x = rand_window(ctx.ring_q, 3, r)
            y = rand_window(ctx.ring_q, 3, r)
            assert restrict_scalars(ctx, mat_mul(x, y)) == \
                mat_mul(restrict_scalars(ctx, x), restrict_scalars(ctx, y))
            seen.add(restrict_scalars(ctx, x).key())
            if x.is_identity():
                continue
            assert not restrict_scalars(ctx, x).is_identity()


def test_extension_then_restriction_is_kronecker(ctx2):
    F3 = ctx2.ring_p
    x = elementary(F3, 2, 1, 2)
    back = restrict_scalars(ctx2, extend_scalars(ctx2, x))
    assert back == UniTriWindow(F3, 4, {(1, 3): 1, (2, 4): 1})
    r = rng(81)
    for _ in range(100):
        x = rand_window(F3, 3, r)
        kron = restrict_scalars(ctx2, extend_scalars(ctx2, x))
        for (i, j), v in x.items():
            for b in range(2):
                assert kron.get((i - 1) * 2 + b + 1, (j - 1) * 2 + b + 1) == \
                    ctx2.ring_p.elem(v.val)


def test_block_image_index(ctx2):
    # 9 regular-representation matrices inside the 81 2x2 matrices over F_3
    images = {regular_rep(e) for e in ctx2.ring_q.elements()}
    assert len(images) == 9
    assert 3 ** 4 // len(images) == 3 ** (2 * 2 - 2)


def test_valuation_relation(ctx2, ctx3):
    r = rng(82)
    for ctx in (ctx2, ctx3):
        m = 12 // ctx.f
        for _ in range(200):
            x = rand_window(ctx.ring_q, m, r, density=0.5)
            v = valuation(x)
            vp = valuation(restrict_scalars(ctx, x))
            if x.is_identity():
                assert vp == m * ctx.f
                continue
            assert ctx.f * v <= vp < ctx.f * (v + 1)
            # the preimage characterization of the congruence filtration
            for k in range(1, m + 1):
                assert (vp >= k * ctx.f) == (v >= k)


def test_image_log_order_against_enumeration(ctx2):
    # brute force: the window-n image only depends on source columns up to
    # ceil(n/f), so enumerating that small source group is exhaustive
    from unitri import closure_elements
    F9 = ctx2.ring_q
    for n in range(2, 7):
        r_full = max(-(-n // 2), 2)
        gens = [elementary(F9, r_full, i, i + 1, a)
                for i in range(1, r_full) for a in F9.basis_elems()]
        elems = set()
        for x in closure_elements(gens):
            big = restrict_scalars(ctx2, x)
            elems.add(tuple(sorted(
                (pos, v.val) for pos, v in big.items() if pos[1] <= n)))
        assert len(elems) == 3 ** restricted_image_log_order(ctx2, n), n


def test_sandwich_bounds_hold(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        for n in range(2, 1001):
            lo, hi = sandwich_bounds(ctx.f, n)
            e = restricted_image_log_order(ctx, n)
            ratio = Fraction(2 * e, n * (n - 1))
            assert lo <= ratio <= hi
        assert abs(lo - Fraction(1, ctx.f)) < Fraction(1, 100)
        assert abs(hi - Fraction(1, ctx.f)) < Fraction(1, 100)


def test_extension_image_ratio():
    assert extension_image_ratio(2) == Fraction(1, 2)
    assert extension_image_ratio(3) == Fraction(1, 3)


def test_centralizer_of_identity_is_everything(f3):
    dim, basis = centralizer_solve([identity(f3, 4)], f3, 4)
    assert dim == 6
    assert len(basis) == 6


def test_centralizer_lemma_upper_right_corner(ctx2):
    # restricted generators of G_3(9) inside G_6(3)
    F9, F3 = ctx2.ring_q, ctx2.ring_p
    gens9 = [elementary(F9, 3, i, i + 1, a)
             for i in (1, 2) for a in F9.basis_elems()]
    gens = [restrict_scalars(ctx2, g) for g in gens9]
    dim, basis = centralizer_solve(gens, F3, 6)
    assert dim == 4
    want = {(1, 5), (1, 6), (2, 5), (2, 6)}
    got = set()
    for b in basis:
        got |= b.positions()
    assert got == want
    # verification pass: every basis window commutes with every generator
    for b in basis:
        for g in gens:
            assert commutator(b, g).is_identity()
    # and the generated subgroup is the full expected corner group
    assert closure_order(basis) == 3 ** 4


def test_centralizer_of_partition_is_orthogonal(f3):
    mu = PartitionDiagram(5, [(3, 4)])
    gens = subgroup_generators(mu, f3, 5)
    dim, basis = centralizer_solve(gens, f3, 5)
    perp = mu.orthogonal()
    want = {(i, j) for i in range(1, 6) for j in range(i + 1, 6)
            if perp.has_square(i, j)}
    assert dim == len(want) == 7
    got = set()
    for b in basis:
        got |= b.positions()
    assert got <= want
    assert closure_order(basis) == 3 ** 7


def test_centralizer_solution_space_is_group(f9):
    gens = [elementary(f9, 4, 1, 2, f9.gen())]
    dim, basis = centralizer_solve(gens, f9, 4)
    for b in basis:
        for g in gens:
            assert commutator(b, g).is_identity()
    # basis vectors span over F_q; scaling by the field basis generates the
    # centralizer as a group (order q^dim)
    group_gens = [UniTriWindow(f9, 4, {pos: a * v for pos, v in b.items()})
                  for b in basis for a in f9.basis_elems()]
    assert closure_order(group_gens) == f9.order ** dim


CENTRALIZER_RINGS = {"F_3": Ring.prime_field(3), "F_5": Ring.prime_field(5),
                     "F_9": Ring.ext_field(3, 2)}


@given(name=st.sampled_from(sorted(CENTRALIZER_RINGS)), n=st.integers(2, 5),
       ngens=st.integers(1, 3), seed=st.integers(0, 2 ** 32))
def test_centralizer_of_random_windows(name, n, ngens, seed):
    # random windows are not elementary, so one row holds both the y_jk and
    # the -y_ij terms
    ring = CENTRALIZER_RINGS[name]
    r = random.Random(seed)
    gens = [random_window(ring, n, r) for _ in range(ngens)]
    dim, basis = centralizer_solve(gens, ring, n)
    assert len(basis) == dim
    for b in basis:
        for g in gens:
            assert mat_mul(b, g) == mat_mul(g, b)
    if name == "F_3" and n <= 4:
        # x y - y x is linear in x, so exactly 3^dim windows commute
        positions = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        count = 0
        for codes in product(range(3), repeat=len(positions)):
            x = UniTriWindow.from_codes(ring, n, {p: c for p, c in zip(positions, codes) if c})
            count += all(mat_mul(x, g) == mat_mul(g, x) for g in gens)
        assert count == 3 ** dim


@st.composite
def mixed_generators(draw):
    """A ring, a window and generators mixing elementary ones (repeated,
    scalar multiples, multiples of each F_q basis element) with sparse and
    dense windows."""
    ring = CENTRALIZER_RINGS[draw(st.sampled_from(sorted(CENTRALIZER_RINGS)))]
    n = draw(st.integers(2, 7))
    positions = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    gens = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("elementary", "elementary", "repeat", "sparse", "dense")))
        if kind == "repeat" and gens:
            gens.append(draw(st.sampled_from(gens)))
        elif kind == "sparse":
            picked = draw(st.lists(st.sampled_from(positions), min_size=min(2, len(positions)),
                                   max_size=3, unique=True))
            gens.append(UniTriWindow.from_codes(
                ring, n, {pos: draw(st.integers(1, ring.order - 1)) for pos in picked}))
        elif kind == "dense":
            gens.append(random_window(ring, n, random.Random(draw(st.integers(0, 2 ** 32)))))
        else:
            i, j = draw(st.sampled_from(positions))
            a = draw(st.sampled_from(ring.basis_elems())) * draw(st.integers(1, ring.p - 1))
            gens.append(elementary(ring, n, i, j, a))
    return ring, n, gens


def _full_rows(gens, ring, n):
    """Every row of every generator's system, from the definition: entry (i, k)
    of x y - y x holds x_is with coefficient y_sk and x_rk with -y_ir."""
    index = {pos: t for t, pos in enumerate(
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))}
    rows = []
    for y in gens:
        for i, k in index:
            row = {}
            for s in range(i + 1, k):
                row[index[(i, s)]] = y.get(s, k)
                row[index[(s, k)]] = -y.get(i, s)
            rows.append({c: ring.encode(v) for c, v in row.items() if not v.is_zero()})
    return rows


@given(mixed_generators())
def test_centralizer_shortcut_rows_keep_the_nullspace(case):
    # one-term rows are yielded once per column and single-entry generators
    # as their two index ranges; the row space, so the nullspace, is unchanged
    ring, n, gens = case
    shortcut = list(_centralizer_rows(gens, ring, n))
    assert row_reduce(shortcut, ring) == row_reduce(_full_rows(gens, ring, n), ring)
    one_term = [next(iter(row)) for row in shortcut if len(row) == 1]
    assert len(one_term) == len(set(one_term))


def test_centralizer_rejects_zmod(z27):
    with pytest.raises(ValueError):
        centralizer_solve([identity(z27, 3)], z27, 3)


def test_context_serializes_basis(ctx2):
    js = ctx2.to_json()
    assert js["basis"] == [[1, 0], [0, 1]]
    assert js["modulus"] == [1, 0, 1]


def test_custom_basis_changes_image():
    plain = EmbeddingContext(3, 2)
    skew = EmbeddingContext(3, 2, basis=[(1, 0), (1, 1)])
    x = elementary(plain.ring_q, 2, 1, 2, plain.ring_q.gen())
    x2 = elementary(skew.ring_q, 2, 1, 2, skew.ring_q.gen())
    assert restrict_scalars(plain, x) != restrict_scalars(skew, x2)


def test_extension_is_injective_homomorphism(ctx2):
    F3 = ctx2.ring_p
    r = rng(83)
    for _ in range(500):
        x, y = rand_window(F3, 4, r), rand_window(F3, 4, r)
        assert extend_scalars(ctx2, mat_mul(x, y)) == \
            mat_mul(extend_scalars(ctx2, x), extend_scalars(ctx2, y))
        if not x.is_identity():
            assert not extend_scalars(ctx2, x).is_identity()


def test_extension_image_order_is_prime_group_order(ctx2):
    # the window-n image of the scalar extension is a copy of the prime
    # group: count distinct images of all of G_3(3) inside G_3(9)
    from unitri import closure_elements
    F3 = ctx2.ring_p
    gens = [elementary(F3, 3, i, i + 1) for i in (1, 2)]
    images = {extend_scalars(ctx2, x).key() for x in closure_elements(gens)}
    assert len(images) == 3 ** 3
