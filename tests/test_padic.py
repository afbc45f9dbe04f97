from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from unitri import (
    AlphaTarget, Partition, PartitionDiagram, Ring, Tail, UniTriWindow,
    closure_elements, closure_order, conjugate, dim_sequence_padic, elementary,
    ideal_partition_generators, ideal_partition_log_order, lower_central,
    mat_mul, partition_for_alpha, rect_closure, rectangular,
    reduce_window_level, u_membership, v_valuation,
)
from unitri.padic import TRIVIAL

from conftest import rand_window, rng


def test_u_membership_basics(z27):
    ident = UniTriWindow(z27, 3, {})
    assert u_membership(ident, 3, 3)
    x = UniTriWindow(z27, 3, {(1, 2): 3})
    assert u_membership(x, 2, 1)
    assert not u_membership(x, 2, 2)
    with pytest.raises(ValueError):
        u_membership(x, 2, 4)  # undetectable beyond the level
    with pytest.raises(ValueError):
        u_membership(x, 5, 1)


def test_v_valuation_examples(z27):
    assert v_valuation(UniTriWindow(z27, 3, {(1, 2): 3})) == 1
    assert v_valuation(UniTriWindow(z27, 3, {(1, 2): 9})) == 2
    assert v_valuation(UniTriWindow(z27, 3, {(2, 3): 9, (1, 3): 9})) == 2
    assert v_valuation(UniTriWindow(z27, 3, {})) == 3


def test_diagonal_membership_equals_valuation(z27):
    r = rng(90)
    for _ in range(500):
        x = rand_window(z27, 3, r)
        for n in (1, 2, 3):
            assert u_membership(x, n, n) == (v_valuation(x) >= n)


def test_nested_filtration(z27):
    r = rng(91)
    for _ in range(200):
        x = rand_window(z27, 3, r)
        if u_membership(x, 3, 3):
            assert u_membership(x, 2, 2)


def test_reduction_is_homomorphism(z27):
    r = rng(92)
    for _ in range(500):
        x, y = rand_window(z27, 3, r), rand_window(z27, 3, r)
        lhs = reduce_window_level(mat_mul(x, y), 2, 2)
        rhs = mat_mul(reduce_window_level(x, 2, 2), reduce_window_level(y, 2, 2))
        assert lhs == rhs
    with pytest.raises(ValueError):
        reduce_window_level(rand_window(z27, 3, r), 3, 5)


def test_coset_count_formula():
    # |U_n(k) mod V_m| = p^((m-k) n(n-1)/2) * p^(m (M - n(n-1)/2)) at p=3
    # checked by exhaustive enumeration of G_m(Z/p^m) for (n,k,m)=(2,1,3)
    z27 = Ring.integers_mod(3, 3)
    count = 0
    total = 0
    for a in range(27):
        for b in range(27):
            for c in range(27):
                x = UniTriWindow(z27, 3, {(1, 2): a, (1, 3): b, (2, 3): c})
                total += 1
                if u_membership(x, 2, 1):
                    count += 1
    assert total == 27 ** 3
    assert count == 3 ** ((3 - 1) * 1) * 3 ** (3 * (3 - 1))


def test_ideal_partition_single_square():
    res = ideal_partition_log_order(PartitionDiagram(3, [(1, 2)]), 1, 3, 3)
    assert res.log_order == 2
    assert res.verified and res.method == "closure"
    # oracle: the cyclic group {1 + 3m e_12 mod 27}
    z27 = Ring.integers_mod(3, 3)
    gens = ideal_partition_generators(PartitionDiagram(3, [(1, 2)]), 1, 3, 3)
    assert closure_order(gens) == 9


def test_ideal_partition_k0_full_level():
    mu = PartitionDiagram(3, [(1, 2), (2, 3), (1, 3)])
    res = ideal_partition_log_order(mu, 0, 3, 3)
    assert res.log_order == 3 * 3  # n digits per square
    assert res.verified


def test_ideal_partition_empty():
    res = ideal_partition_log_order(PartitionDiagram(3, []), 1, 3, 3)
    assert res.log_order == 0 and res.verified


def test_ideal_partition_formula_fallback():
    mu = lower_central(1, window=8)
    res = ideal_partition_log_order(mu, 1, 8, 3, cap=1000)
    assert res.method == "formula" and not res.verified
    assert res.log_order == (8 - 1) * mu.count_upto(8)


@st.composite
def ideal_cases(draw):
    """A rectangle-closed diagram of window <= 5 (a tailed partition or the
    closure of random squares), with 0 <= k < n <= 5, p and the cap."""
    window = draw(st.integers(2, 5))
    tail = draw(st.sampled_from([Tail.empty(), Tail.const(draw(st.integers(1, window))),
                                 Tail.affine(draw(st.integers(1, window + 1)))]))
    if draw(st.booleans()):
        mu = Partition([draw(st.integers(0, j - 1)) for j in range(2, window + 1)], tail)
    else:
        raw = draw(st.sets(st.tuples(st.integers(1, window - 1), st.integers(2, window)),
                           max_size=6))
        mu = rect_closure({(r, c) for (r, c) in raw if r < c}, window, tail)
    n = draw(st.integers(2, 5))
    k = draw(st.integers(0, n - 1))
    return mu, k, n, draw(st.sampled_from([3, 5])), draw(st.sampled_from([50, 2000]))


@given(ideal_cases())
def test_ideal_log_order_against_the_supported_set_scan(case):
    # oracle: enumerate H, check every element against S (supported on mu,
    # divisible by p^k), count; the library relies on H <= S instead
    mu, k, n, p, cap = case
    res = ideal_partition_log_order(mu, k, n, p, cap)
    predicted = (n - k) * mu.count_upto(n)
    if p ** predicted > cap:
        assert (res.log_order, res.verified, res.method) == (predicted, False, "formula")
        return
    gens = ideal_partition_generators(mu, k, n, p)
    elems = closure_elements(gens, cap=cap) if gens else [UniTriWindow(Ring.integers_mod(p, n), n)]
    assert all(mu.has_square(i, j) and c.val % p ** k == 0
               for x in elems for (i, j), c in x.items())
    assert len(elems) == p ** res.log_order == p ** predicted
    # the empty diagram's image is the identity: no closure runs for it
    assert res.verified and res.method == ("trivial" if predicted == 0 else "closure")


def test_supported_set_conjugation(f3):
    # normal mu: conjugates of the generators stay supported and divisible
    p = 3
    n = 4
    ring = Ring.integers_mod(p, n)
    elem_gens = [elementary(ring, n, i, i + 1) for i in range(1, n)]
    mu_normal = lower_central(2, window=n)
    for g in ideal_partition_generators(mu_normal, 1, n, p):
        for h in elem_gens:
            conj = conjugate(h, g)
            for (i, j), v in conj.items():
                assert mu_normal.has_square(i, j)
                assert v.val % p == 0
    # non-normal mu: exhibit a violating conjugate
    mu_bad = PartitionDiagram(n, [(3, 4)])
    g = ideal_partition_generators(mu_bad, 1, n, p)[0]
    h = elementary(ring, n, 2, 3)
    conj = conjugate(h, g)
    assert any(not mu_bad.has_square(i, j) for (i, j), _ in conj.items())


def test_dim_sequence_padic_k0_tracks_alpha():
    mu = partition_for_alpha(AlphaTarget.exact(Fraction(1, 2)), 10)
    rep = dim_sequence_padic(mu, 0, 10, 3)
    for n, _, t, _ in rep.rows():
        assert t == Fraction(2 * mu.count_upto(n), n * (n - 1))
    assert not rep.discrepancy_flag


def test_dim_sequence_padic_flags():
    mu = partition_for_alpha(AlphaTarget.named("pi-inv"), 12)
    assert dim_sequence_padic(mu, 1, 12, 3).discrepancy_flag
    assert not dim_sequence_padic(mu, 0, 12, 3).discrepancy_flag
    # density-zero families decay and are not flagged
    assert not dim_sequence_padic(rectangular(2, 2), 1, 12, 3).discrepancy_flag
    single = PartitionDiagram(3, [(1, 2)])
    assert not dim_sequence_padic(single, 1, 12, 3).discrepancy_flag
    # affine-tailed diagrams keep positive density and are flagged
    assert dim_sequence_padic(lower_central(2), 1, 12, 3).discrepancy_flag


def test_dim_sequence_padic_values():
    mu = PartitionDiagram(3, [(1, 2)])
    rep = dim_sequence_padic(mu, 1, 6, 3)
    for n, log_order, t, ver in rep.rows():
        want = Fraction(2 * (n - 1) * 1, n * n * (n - 1)) if n >= 2 else 0
        assert t == want and log_order == n - 1
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "n,log_order,a_n_num,a_n_den,decimal,verified"
    assert "claimed_zero_limit_discrepancy,0" in csv
    # k = 3: windows n <= k hold the trivial record, the rest (n - k)|mu|_n
    mu = rectangular(2, 2)
    rep = dim_sequence_padic(mu, 3, 7, 3)
    assert all(res is TRIVIAL for res in rep.results[:2])
    assert all(res.method != "trivial" for res in rep.results[2:])
    for n, log_order, t, _ in rep.rows():
        assert log_order == max(n - 3, 0) * mu.count_upto(n)
        assert t == Fraction(2 * log_order, n * n * (n - 1))
