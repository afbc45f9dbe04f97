import pytest
from hypothesis import given, strategies as st

from unitri import (
    Ring, SeriesAut, compose, elementary, first_row_determined, generator,
    generator_matrix, identity_series, invert, lower_central, mat_inv,
    mat_mul, membership, series_from_first_row, series_matrix, valuation,
)

from conftest import rand_elem, rng


def rand_series(ring, degree, r):
    return SeriesAut(ring, [rand_elem(ring, r) for _ in range(degree - 1)])


def test_identity_is_neutral(f5):
    e1 = generator(f5, 1, 1, 6)
    ident = identity_series(f5, 6)
    assert compose(e1, ident) == e1
    assert compose(ident, e1) == e1


def test_depth_one_generator(f5):
    e1 = generator(f5, 1, 1, 5)
    assert e1.coeff(2) == f5.one
    assert all(e1.coeff(j).is_zero() for j in (3, 4, 5))


def test_generator_range_check(f5):
    with pytest.raises(ValueError):
        generator(f5, 4, 1, 3)


def test_compose_by_substitution_oracle(f5):
    # substitute t + t^2 into itself by hand: t + 2t^2 + 2t^3 + t^4
    e1 = generator(f5, 1, 1, 5)
    assert compose(e1, e1) == SeriesAut(f5, [2, 2, 1, 0])

    # generic oracle: naive polynomial substitution mod t^(N+1), over F_9 and
    # over F_257^2, whose arithmetic is polynomial (above TABLE_MAX_ORDER)
    r = rng(40)
    N = 8
    for ring in (Ring.ext_field(3, 2), Ring.ext_field(257, 2)):
        for _ in range(50):
            u, v = rand_series(ring, N, r), rand_series(ring, N, r)
            upoly, vpoly = u.poly(), v.poly()
            naive = [ring.zero] * (N + 1)
            cur = list(vpoly)  # (tv)^k, starting at k = 1
            for k in range(1, N + 1):
                for d in range(N + 1):
                    naive[d] = naive[d] + upoly[k] * cur[d]
                nxt = [ring.zero] * (N + 1)
                for a in range(N + 1):
                    if not cur[a].is_zero():
                        for b in range(N + 1 - a):
                            nxt[a + b] = nxt[a + b] + cur[a] * vpoly[b]
                cur = nxt
            assert compose(u, v).poly()[2:] == naive[2: N + 1]


def test_inversion_catalan_over_f101():
    f101 = Ring.prime_field(101)
    e1 = generator(f101, 1, 1, 7)
    vinv = invert(e1)
    # signed Catalan numbers 1,1,2,5,14,42 with alternating signs
    want = [(-1) % 101, 2, (-5) % 101, 14, (-42) % 101, 132 % 101]
    assert [c.val for c in vinv.coeffs] == want
    assert compose(e1, vinv) == identity_series(f101, 7)
    assert compose(vinv, e1) == identity_series(f101, 7)


def test_inversion_roundtrip_random(f9):
    r = rng(41)
    for _ in range(200):
        u = rand_series(f9, 9, r)
        assert compose(u, invert(u)) == identity_series(f9, 9)


def test_matrix_rows_are_pascal(f5):
    f101 = Ring.prime_field(101)
    m = series_matrix(generator(f101, 1, 1, 6), 6)
    assert [m.get(1, j).val for j in range(2, 5)] == [1, 0, 0]
    assert [m.get(2, j).val for j in range(3, 6)] == [2, 1, 0]
    assert [m.get(3, j).val for j in range(4, 7)] == [3, 3, 1]
    assert series_matrix(identity_series(f5, 5), 5).is_identity()


def test_row_palindrome_square():
    f101 = Ring.prime_field(101)
    m = series_matrix(generator(f101, 1, 1, 8), 8)
    sq = mat_mul(m, m)
    assert [sq.get(1, j).val for j in range(2, 5)] == [2, 2, 1]
    assert [sq.get(2, j).val for j in range(3, 9)] == [4, 8, 10, 8, 4, 1]


def test_matrix_map_is_multiplicative(f5, f9):
    r = rng(42)
    for ring in (f5, f9):
        for _ in range(100):
            u, v = rand_series(ring, 12, r), rand_series(ring, 12, r)
            lhs = series_matrix(compose(u, v), 12)
            rhs = mat_mul(series_matrix(u, 12), series_matrix(v, 12))
            assert lhs == rhs


def test_generator_matrix_closed_form(f5, f9):
    for ring in (f5, f9):
        coeffs = ring.basis_elems() if ring.kind == "ext" else [ring.one]
        for rdepth in range(1, 5):
            for a in coeffs:
                for m in (6, 9, 12):
                    direct = generator_matrix(ring, rdepth, a, m)
                    via = series_matrix(generator(ring, rdepth, a, m), m)
                    assert direct == via


def test_generator_matrix_displayed_g2():
    f101 = Ring.prime_field(101)
    g2 = generator_matrix(f101, 2, 1, 9)
    assert [g2.get(1, j).val for j in range(2, 6)] == [0, 1, 0, 0]
    assert [g2.get(2, j).val for j in range(3, 9)] == [0, 2, 0, 1, 0, 0]
    assert [g2.get(3, j).val for j in range(4, 10)] == [0, 3, 0, 3, 0, 1]


def test_generator_matrix_trivialities(f9):
    assert generator_matrix(f9, 3, 0, 8).is_identity()
    g1 = generator_matrix(f9, 1, f9.gen(), 4)
    assert g1.get(2, 4) == f9.gen() * f9.gen()


def test_embedded_inverse_matches_series_inverse(f5):
    # matrix inverse of the window equals the window of the reversed series
    r = rng(43)
    for _ in range(50):
        u = rand_series(f5, 10, r)
        assert mat_inv(series_matrix(u, 10)) == series_matrix(invert(u), 10)


def test_first_row_membership(f5):
    r = rng(44)
    for _ in range(50):
        u = rand_series(f5, 8, r)
        assert first_row_determined(series_matrix(u, 8))
    assert not first_row_determined(elementary(f5, 4, 2, 3))
    assert first_row_determined(series_matrix(identity_series(f5, 4), 4))
    assert series_from_first_row(series_matrix(u, 8)) == SeriesAut(f5, u.coeffs[:7])


def test_depth_matches_valuation(f9):
    r = rng(45)
    for depth in (1, 2, 3, 5):
        coeffs = [f9.zero] * (depth - 1) + [f9.one] + \
            [rand_elem(f9, r) for _ in range(10 - depth)]
        u = SeriesAut(f9, coeffs)
        assert valuation(series_matrix(u, 10)) == depth
    # and conversely random series: valuation = first nonzero coefficient depth
    for _ in range(100):
        u = rand_series(f9, 10, r)
        m = series_matrix(u, 10)
        depth = next((j - 1 for j in range(2, 11) if not u.coeff(j).is_zero()), 10)
        assert valuation(m) == min(depth, 10)


def test_embedded_generators_line_up_with_lower_central(f5):
    for rdepth in range(1, 5):
        g = generator_matrix(f5, rdepth, 2, 10)
        assert membership(g, lower_central(rdepth, window=10))
        if rdepth > 1:
            assert not membership(g, lower_central(rdepth + 1, window=10))


def test_series_degree_guard(f5):
    u = generator(f5, 1, 1, 5)
    with pytest.raises(ValueError):
        series_matrix(u, 6)


def test_series_json_roundtrip(f9):
    u = SeriesAut(f9, [f9.gen(), f9.zero, f9.one])
    assert SeriesAut.from_json(u.to_json()) == u


def _reversion_by_coefficients(u):
    """Reference reversion: coefficient k of v cancels coefficient k of u * v."""
    ring, N = u.ring, u.degree
    coeffs = [ring.zero] * (N - 1)
    for k in range(2, N + 1):
        err = compose(u, SeriesAut(ring, coeffs)).coeff(k)
        coeffs[k - 2] = -err
    return SeriesAut(ring, coeffs)


@given(data=st.data(), p_f=st.sampled_from([(5, 1), (3, 2)]), degree=st.integers(1, 12))
def test_inversion_matches_coefficient_reversion(data, p_f, degree):
    p, f = p_f
    ring = Ring.prime_field(p) if f == 1 else Ring.ext_field(p, f)
    u = SeriesAut(ring, [ring.decode(data.draw(st.integers(0, ring.order - 1)))
                         for _ in range(degree - 1)])
    assert invert(u) == _reversion_by_coefficients(u)


def _naive_power(u, i, m):
    """Coefficients of t^0..t^m in (t u)^i, by repeated RingElem products."""
    ring, tu = u.ring, u.poly()
    power = [ring.one] + [ring.zero] * m
    for _ in range(i):
        power = [sum((power[k] * tu[d - k] for k in range(d) if d - k < len(tu)), ring.zero)
                 for d in range(m + 1)]
    return power


SERIES_RINGS = {"F5": (5, 1), "F9": (3, 2), "F3^5": (3, 5), "F257^2": (257, 2)}


@given(data=st.data(), name=st.sampled_from(sorted(SERIES_RINGS)), degree=st.integers(1, 10))
def test_matrix_rows_are_naive_powers(data, name, degree):
    # F_257^2 lies above TABLE_MAX_ORDER, so its rows take the polynomial path
    p, f = SERIES_RINGS[name]
    ring = Ring.prime_field(p) if f == 1 else Ring.ext_field(p, f)
    code = st.one_of(st.just(0), st.integers(0, ring.order - 1))
    u = SeriesAut(ring, [ring.decode(data.draw(code)) for _ in range(degree - 1)])
    m = data.draw(st.integers(1, degree))
    for n in (m, degree):
        x = series_matrix(u, n)
        assert x.n == n
        for i in range(1, n + 1):
            row = [x.get(i, j) if j > i else ring.elem(int(j == i)) for j in range(n + 1)]
            assert row == _naive_power(u, i, n)


@given(data=st.data(), p_f=st.sampled_from([(5, 1), (3, 2)]), degree=st.integers(1, 40))
def test_inverse_matrix_is_matrix_of_inverse(data, p_f, degree):
    # invert solves for row 1 of the quotient alone; the whole inverse of the
    # window must still be the window of that series
    p, f = p_f
    ring = Ring.prime_field(p) if f == 1 else Ring.ext_field(p, f)
    code = st.one_of(st.just(0), st.integers(0, ring.order - 1))
    u = SeriesAut(ring, [ring.decode(data.draw(code)) for _ in range(degree - 1)])
    assert series_matrix(invert(u), degree) == mat_inv(series_matrix(u, degree))
