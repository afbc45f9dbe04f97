"""Acceptance criteria, one test per criterion.

Each test pins the stated values or tolerances exactly, measures its own
runtime against the stated budget, and prints a single pass line (visible
with pytest -s or -v).
"""

import time
from fractions import Fraction

from unitri import (
    AlphaTarget, DiagonalAut, EmbeddingContext, ExtremalAut,
    FieldAut, Flip, InnerAut, Partition, PartitionDiagram, Ring, Tail,
    UniTriWindow,
    apply, centralizer_solve, closure_order, commutator, commutator_with_group,
    dim_sequence_padic, dim_sequence_partition, derived_series, elementary,
    embed_word, four_syllable_matrix, free_closure_log_index,
    generator, generator_images, generator_matrix, ideal_partition_log_order,
    identity, invert, is_homomorphism, lower_central, mat_inv, mat_mul,
    membership, monotone_normalize, partition_for_alpha, periodic_generators,
    rectangular, regular_rep, restrict_scalars, restricted_image_log_order,
    sandwich_bounds, scalar_central, series_matrix, subgroup_generators,
    two_periodic_image_order, two_periodic_log_order, u_membership,
    v_valuation, valuation, Word,
)
from unitri.matrices import closure_dense

from conftest import rand_window, rng

PI_PARTS = [0, 0, 1, 2, 1, 2, 2, 3, 3, 3, 4, 3, 4, 5, 5, 5, 5, 6, 6]
E3_PARTS = [0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1]


def _report(num, label, t0, limit):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"criterion {num:02d} PASS ({elapsed:.2f}s): {label}")


def test_criterion_01_pi_inv_table():
    t0 = time.perf_counter()
    mu = partition_for_alpha(AlphaTarget.named("pi-inv"), 20)
    assert mu.parts == PI_PARTS
    assert mu.count_upto(20) == 60
    seq = dim_sequence_partition(mu, 20)
    assert seq.last() == Fraction(6, 19)
    assert f"{float(seq.last()):.6f}".startswith("0.315789")
    _report(1, "pi-inv partition table, count 60, a_20 = 6/19", t0, 1.0)


def test_criterion_02_e_minus3_table():
    t0 = time.perf_counter()
    mu = partition_for_alpha(AlphaTarget.named("e-3"), 20)
    assert mu.parts == E3_PARTS
    assert mu.count_upto(20) == 9
    assert dim_sequence_partition(mu, 20).last() == Fraction(9, 190)
    _report(2, "e^-3 partition table, count 9, a_20 = 9/190", t0, 1.0)


def test_criterion_03_monotone_normalization():
    t0 = time.perf_counter()
    out = monotone_normalize(Partition(PI_PARTS))
    runs = []
    for h in out.parts:
        if runs and runs[-1][0] == h:
            runs[-1][1] += 1
        else:
            runs.append([h, 1])
    assert runs == [[0, 2], [1, 2], [2, 3], [3, 4], [4, 2], [5, 4], [6, 2]]
    assert out.is_normal()
    seven22 = partition_for_alpha(AlphaTarget.exact(Fraction(7, 22)), 20)
    assert seven22.parts == PI_PARTS
    _report(3, "run-form 0^2,1^2,2^3,3^4,4^2,5^4,6^2 normal; 7/22 agrees", t0, 5.0)


def test_criterion_04_convergence_bound():
    t0 = time.perf_counter()
    targets = [AlphaTarget.exact(Fraction(1, 2)),
               AlphaTarget.exact(Fraction(7, 22)),
               AlphaTarget.named("pi-inv")]
    for alpha in targets:
        b = 0
        for n in range(2, 10_001):
            m = n * (n - 1) // 2
            b = alpha.floor_times(m)
            a_num, a_den = 2 * b, n * (n - 1)
            # a_n <= alpha < a_n + 2/(n(n-1)), certified on both rational ends
            assert Fraction(a_num, a_den) <= alpha.lo
            assert alpha.hi < Fraction(a_num + 2, a_den)
        gap = alpha.hi - Fraction(2 * b, 10_000 * 9_999)
        assert gap < Fraction(2, 10 ** 8)
    _report(4, "floor bounds exact to n = 10^4; |a - alpha| < 2e-8", t0, 10.0)


def test_criterion_05_lower_central_and_derived_dimensions():
    t0 = time.perf_counter()
    N = 1000
    for d in range(1, 6):
        seq = dim_sequence_partition(lower_central(d, window=N), N)
        for n in range(max(d, 2), N + 1):
            assert seq.a(n) == Fraction((n + 1 - d) * (n - d), n * (n - 1))
        assert 1 - seq.a(N) < Fraction(1, 100)
    for d in range(1, 5):
        off = 2 ** (d - 1)
        seq = dim_sequence_partition(derived_series(d, window=N), N)
        for n in range(max(off, 2), N + 1):
            assert seq.a(n) == Fraction((n + 1 - off) * (n - off), n * (n - 1))
        if d <= 3:
            assert 1 - seq.a(N) < Fraction(1, 100)
        else:
            # offset 8 gives the exact gap 13944/999000, which is above
            # 1/100, so the gap is pinned exactly instead of bounded
            assert 1 - seq.a(N) == Fraction(13944, 999000)
    _report(5, "lower-central/derived sequences exact; tail gaps pinned", t0, 10.0)


def test_criterion_06_free_product_orders_and_closed_form():
    t0 = time.perf_counter()
    f3 = Ring.prime_field(3)
    for n in range(3, 9):
        s, t = periodic_generators(f3, n)
        assert closure_order([s, t], cap=2_000_000) == \
            3 ** free_closure_log_index(n), n
    for n in range(3, 9):
        assert two_periodic_image_order(n, 3) == 3 ** two_periodic_log_order(n), n
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    w = Word(3, [("x", a), ("y", b), ("x", c), ("y", d)])
                    assert four_syllable_matrix(f3, a, b, c, d, 8) == \
                        embed_word(w, 8)
    _report(6, "free-product indices 3^xi_n and 3^(2n-3), n = 3..8; "
               "closed form on all 81 tuples", t0, 120.0)


def test_criterion_07_nottingham():
    t0 = time.perf_counter()
    r = rng(700)
    for ring in (Ring.prime_field(5), Ring.ext_field(3, 2)):
        for _ in range(100):
            from unitri import SeriesAut, compose
            u = SeriesAut(ring, [ring.decode(r.randrange(ring.order))
                                 for _ in range(11)])
            v = SeriesAut(ring, [ring.decode(r.randrange(ring.order))
                                 for _ in range(11)])
            assert series_matrix(compose(u, v), 12) == \
                mat_mul(series_matrix(u, 12), series_matrix(v, 12))
        from unitri import generator as series_generator
        coeffs = ring.basis_elems() if ring.kind == "ext" else [ring.one]
        for depth in range(1, 5):
            for a in coeffs:
                assert generator_matrix(ring, depth, a, 12) == \
                    series_matrix(series_generator(ring, depth, a, 12), 12)
    f101 = Ring.prime_field(101)
    vinv = invert(generator(f101, 1, 1, 7))
    assert [c.val for c in vinv.coeffs[:5]] == \
        [(-1) % 101, 2, (-5) % 101, 14, (-42) % 101]
    sq = mat_mul(series_matrix(generator(f101, 1, 1, 8), 8),
                 series_matrix(generator(f101, 1, 1, 8), 8))
    assert [sq.get(1, j).val for j in range(2, 5)] == [2, 2, 1]
    assert [sq.get(2, j).val for j in range(3, 9)] == [4, 8, 10, 8, 4, 1]
    _report(7, "embedding multiplicative (q = 5, 9, window 12); closed form "
               "r <= 4; reversion -1,2,-5,14,-42 mod 101; palindrome rows", t0, 30.0)


def test_criterion_08_centralizer_lemma():
    t0 = time.perf_counter()
    ctx = EmbeddingContext(3, 2)
    gens = [restrict_scalars(ctx, elementary(ctx.ring_q, 3, i, i + 1, a))
            for i in (1, 2) for a in ctx.ring_q.basis_elems()]
    dim, basis = centralizer_solve(gens, ctx.ring_p, 6)
    assert dim == 4
    got = set()
    for b in basis:
        got |= b.positions()
    assert got == {(1, 5), (1, 6), (2, 5), (2, 6)}
    for b in basis:
        for g in gens:
            assert commutator(b, g).is_identity()

    f3 = ctx.ring_p
    mu = PartitionDiagram(5, [(3, 4)])
    dim2, basis2 = centralizer_solve(subgroup_generators(mu, f3, 5), f3, 5)
    perp = mu.orthogonal()
    want = {(i, j) for i in range(1, 6) for j in range(i + 1, 6)
            if perp.has_square(i, j)}
    assert dim2 == len(want) == 7
    got2 = set()
    for b in basis2:
        got2 |= b.positions()
    assert got2 <= want
    assert closure_order(basis2) == 3 ** 7
    _report(8, "centralizer in G_6(3) is the upper-right 2x2 corner (log 4); "
               "C(P_(3,4)) in G_5(3) matches the orthogonal diagram", t0, 10.0)


def _materialize(mu, ring, n):
    gens = subgroup_generators(mu, ring, n)
    if not gens:
        ops, _ = closure_dense([identity(ring, n)])
        return ops, {ops.identity}
    return closure_dense(gens)


def test_criterion_09_partition_oracles_window5():
    t0 = time.perf_counter()
    f3 = Ring.prime_field(3)
    n = 5
    elem_gens = [elementary(f3, n, i, i + 1) for i in range(1, n)]

    def stable(mu):
        ops, elems = _materialize(mu, f3, n)
        for g in elem_gens:
            ge, gi = ops.encode(g), ops.encode(mat_inv(g))
            if {ops.mul(ops.mul(ge, x), gi) for x in elems} != elems:
                return False
        return True

    # is_normal against conjugation on tail-total families
    for mu, want in ((lower_central(2, window=n), True),
                     (rectangular(2, 2), True),
                     (PartitionDiagram(n, [(3, 4)]), False),
                     (Partition([1, 1, 1, 1], Tail.const(1)), True)):
        assert mu.is_normal() == want
        assert stable(mu) == want

    # bracket against BFS commutator closure
    for mu in (lower_central(1, window=n), lower_central(2, window=n),
               rectangular(2, 2)):
        comms = [commutator(a, b)
                 for a in subgroup_generators(mu, f3, n) for b in elem_gens]
        comms = [c for c in comms if not c.is_identity()]
        order = closure_order(comms) if comms else 1
        assert order == 3 ** commutator_with_group(mu).count_upto(n)

    # normal core of a single square: conjugate intersection collapses
    mu = PartitionDiagram(n, [(3, 4)])
    assert mu.normal_core() == Partition([0, 0, 0, 0])
    ops, current = _materialize(mu, f3, n)
    enc = [(ops.encode(g), ops.encode(mat_inv(g))) for g in elem_gens]
    changed = True
    while changed:
        changed = False
        for g, gi in enc:
            keep = {x for x in current if ops.mul(ops.mul(g, x), gi) in current}
            if keep != current:
                current, changed = keep, True
    assert current == {ops.identity}

    # rectangular(2,2) materializes to an abelian subgroup
    ops, elems = _materialize(rectangular(2, 2), f3, n)
    elems = list(elems)
    assert len(elems) == 81
    for i, a in enumerate(elems):
        for b in elems[i + 1:]:
            assert ops.mul(a, b) == ops.mul(b, a)
    _report(9, "normality, bracket, core and abelian oracles agree in G_5(3)",
            t0, 120.0)


def test_criterion_10_field_extension():
    t0 = time.perf_counter()
    r = rng(1000)
    for f in (2, 3):
        ctx = EmbeddingContext(3, f)
        m = 12 // f
        for _ in range(200):
            x = rand_window(ctx.ring_q, m, r, density=0.5)
            v = valuation(x)
            vp = valuation(restrict_scalars(ctx, x))
            if x.is_identity():
                assert vp == m * f
                continue
            assert f * v <= vp < f * (v + 1)
            for k in range(1, m + 1):
                assert (vp >= k * f) == (v >= k)
        for n in range(2, 1001):
            lo, hi = sandwich_bounds(f, n)
            ratio = Fraction(2 * restricted_image_log_order(ctx, n), n * (n - 1))
            assert lo <= ratio <= hi
        lo, hi = sandwich_bounds(f, 1000)
        assert abs(lo - Fraction(1, f)) < Fraction(1, 100)
        assert abs(hi - Fraction(1, f)) < Fraction(1, 100)
    ctx2 = EmbeddingContext(3, 2)
    images = {regular_rep(e) for e in ctx2.ring_q.elements()}
    assert len(images) == 9 and 81 // len(images) == 3 ** (2 * 2 - 2)
    _report(10, "valuation relation (f = 2, 3); sandwich bounds to 10^3; "
                "per-block index 3^2", t0, 30.0)


def test_criterion_11_automorphisms():
    t0 = time.perf_counter()
    cases = [(4, Ring.prime_field(3)), (5, Ring.prime_field(3)),
             (4, Ring.ext_field(3, 2))]
    for n, ring in cases:
        g = UniTriWindow(ring, n, {(1, 2): 1, (2, n): 1})
        kinds = [Flip(), FieldAut(1), DiagonalAut(tuple([1, 2] * n)[:n]),
                 InnerAut(g), scalar_central(ring, 2, 1),
                 ExtremalAut(1, "first"), ExtremalAut(1, "last")]
        for aut in kinds:
            assert is_homomorphism(generator_images(aut, ring, n), ring, n,
                                   pairs=500), (n, ring, aut)
    f3 = Ring.prime_field(3)
    r = rng(1100)
    a1, a2 = scalar_central(f3, 2, 1), scalar_central(f3, 3, 2)
    for _ in range(60):
        x = rand_window(f3, 5, r)
        assert apply(Flip(), apply(Flip(), x)) == x
        y = x
        for _ in range(3):
            y = apply(a1, y)
        assert y == x
        assert apply(a1, apply(a2, x)) == apply(a2, apply(a1, x))
    _report(11, "all six kinds pass the harness at (4,3), (5,3), (4,9); "
                "flip involutive; central maps order p, commuting", t0, 120.0)


def test_criterion_12_padic():
    t0 = time.perf_counter()
    z27 = Ring.integers_mod(3, 3)
    r = rng(1200)
    for _ in range(500):
        x = rand_window(z27, 3, r)
        for n in (1, 2, 3):
            assert u_membership(x, n, n) == (v_valuation(x) >= n)
    res = ideal_partition_log_order(PartitionDiagram(3, [(1, 2)]), 1, 3, 3)
    assert res.log_order == 2 and res.verified and res.method == "closure"
    mu = partition_for_alpha(AlphaTarget.named("pi-inv"), 12)
    rep1 = dim_sequence_padic(mu, 1, 12, 3)
    rep0 = dim_sequence_padic(mu, 0, 12, 3)
    assert rep1.discrepancy_flag and not rep0.discrepancy_flag
    assert dim_sequence_padic(lower_central(2), 1, 12, 3).discrepancy_flag
    assert not dim_sequence_padic(rectangular(2, 2), 1, 12, 3).discrepancy_flag
    assert "claimed_zero_limit_discrepancy,1" in rep1.to_csv()
    _report(12, "U_n(n) = V_n on 500 samples; ideal order verified; "
                "zero-limit discrepancy flagged for k >= 1", t0, 60.0)
