import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from unitri import (
    AlphaTarget, AmbiguousFloorError, DimSequence, Partition, Ring,
    dim_sequence_group, dim_sequence_partition, derived_series, exact_log,
    lower_central, monotone_normalize, partition_for_alpha, rect_closure,
)
from unitri.freeprod import periodic_generators
from unitri.hausdorff import EXP_MINUS_3_DIGITS, NAMED_TARGETS, PI_INV_DIGITS

PI_PARTS = [0, 0, 1, 2, 1, 2, 2, 3, 3, 3, 4, 3, 4, 5, 5, 5, 5, 6, 6]
E3_PARTS = [0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1]


def test_named_digit_strings_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 80
    for digits, value in ((PI_INV_DIGITS, 1 / mpmath.mp.pi),
                          (EXP_MINUS_3_DIGITS, mpmath.mp.e ** -3)):
        frac = len(digits.split(".")[1])
        truncated = int(mpmath.floor(value * mpmath.mpf(10) ** frac))
        assert digits == f"0.{str(truncated).rjust(frac, '0')}"


def test_pi_inv_table():
    mu = partition_for_alpha(AlphaTarget.named("pi-inv"), 20)
    assert mu.parts == PI_PARTS
    assert mu.count_upto(20) == 60
    seq = dim_sequence_partition(mu, 20)
    assert seq.last() == Fraction(6, 19)
    assert seq.a(4) == Fraction(1, 6)


def test_e_minus_3_table():
    mu = partition_for_alpha(AlphaTarget.named("e-3"), 20)
    assert mu.parts == E3_PARTS
    assert mu.count_upto(20) == 9
    assert dim_sequence_partition(mu, 20).last() == Fraction(9, 190)


def test_seven_over_22_matches_pi_inv_up_to_20():
    assert partition_for_alpha(AlphaTarget.exact(Fraction(7, 22)), 20).parts == PI_PARTS


def test_alpha_extremes():
    zeros = partition_for_alpha(AlphaTarget.exact(0), 12)
    assert all(h == 0 for h in zeros.parts)
    full = partition_for_alpha(AlphaTarget.exact(1), 12)
    assert full.parts == [n - 1 for n in range(2, 13)]


def test_alpha_out_of_range():
    with pytest.raises(ValueError):
        AlphaTarget.exact(Fraction(3, 2))


def test_alpha_half_parts():
    mu = partition_for_alpha(AlphaTarget.exact(Fraction(1, 2)), 6)
    assert mu.parts == [0, 1, 2, 2, 2]


def test_floor_guard_detects_short_decimals():
    # 0.5 given to one digit: alpha*m hits integers, floors disagree
    coarse = AlphaTarget.decimal("0.5")
    with pytest.raises(AmbiguousFloorError):
        for n in range(2, 50):
            coarse.floor_times(n * (n - 1) // 2)


def test_convergence_bound_exact():
    # b_n <= alpha m < b_n + 2 certified with rational endpoints
    for alpha in (AlphaTarget.exact(Fraction(1, 2)),
                  AlphaTarget.exact(Fraction(7, 22)),
                  AlphaTarget.named("pi-inv")):
        for n in range(2, 400):
            m = n * (n - 1) // 2
            b = alpha.floor_times(m)
            assert b <= alpha.lo * m
            assert alpha.hi * m < b + 1
            a_n = Fraction(2 * b, n * (n - 1))
            assert a_n <= alpha.lo and alpha.hi < a_n + Fraction(2, n * (n - 1))


def test_parse_forms():
    assert AlphaTarget.parse("1/2").lo == Fraction(1, 2)
    assert AlphaTarget.parse("0.125").lo == Fraction(1, 8)
    assert AlphaTarget.parse("const:pi-inv").label == "pi-inv"
    assert AlphaTarget.parse("e-3").label == "e-3"


def test_monotone_normalize_pi_example():
    mu = Partition(PI_PARTS)
    out = monotone_normalize(mu)
    assert out.parts == sorted(PI_PARTS)
    runs = []
    for h in out.parts:
        if runs and runs[-1][0] == h:
            runs[-1][1] += 1
        else:
            runs.append([h, 1])
    assert runs == [[0, 2], [1, 2], [2, 3], [3, 4], [4, 2], [5, 4], [6, 2]]
    assert out.is_normal()
    assert sorted(out.parts) == sorted(mu.parts)
    assert out.count_upto(20) == mu.count_upto(20)


def test_monotone_normalize_trivia():
    assert monotone_normalize(Partition([0, 1, 2])).parts == [0, 1, 2]
    assert monotone_normalize(Partition([1, 0])).parts == [0, 1]


def test_monotone_normalize_always_fits_valid_partitions():
    # column bounds cap the number of parts exceeding any value, so the
    # sorted rearrangement of a valid partition always fits its columns
    import random
    r = random.Random(31)
    for _ in range(200):
        parts = [r.randint(0, j - 1) for j in range(2, r.randint(4, 12))]
        out = monotone_normalize(Partition(parts))
        assert sorted(parts) == out.parts
        assert out.is_normal()


def test_dim_sequence_lower_central_formula():
    for d in range(1, 6):
        seq = dim_sequence_partition(lower_central(d, window=40), 40)
        for n in range(2, 41):
            want = Fraction((n + 1 - d) * (n - d), n * (n - 1)) if n >= d else \
                Fraction(max((n + 1 - d) * (n - d), 0), n * (n - 1))
            if n >= d:
                assert seq.a(n) == want


def test_dim_sequence_full_is_one():
    seq = dim_sequence_partition(lower_central(1), 30)
    assert all(t == 1 for t in seq)


def test_dim_sequence_even_gap_diagram():
    # oracle: closed-form count of even-gap squares up to column n
    mu = rect_closure([(i, j) for i in range(1, 31) for j in range(i + 2, 32, 2)], 31)
    seq = dim_sequence_partition(mu, 31)
    for n in range(2, 32):
        count = sum(1 for i in range(1, n) for j in range(i + 2, n + 1, 2))
        assert seq.a(n) == Fraction(2 * count, n * (n - 1))
    assert abs(seq.a(31) - Fraction(1, 2)) < Fraction(1, 15)


def test_dim_sequence_group_free_product():
    f3 = Ring.prime_field(3)

    def gens(n):
        return list(periodic_generators(f3, n))

    seq = dim_sequence_group(gens, 7, p=3)
    for n in range(2, 8):
        xi = n - 2 + (n + 1) // 2
        assert seq.a(n) == Fraction(2 * xi, n * (n - 1))


def test_dim_sequence_group_full():
    f3 = Ring.prime_field(3)
    from unitri import elementary

    def gens(n):
        return [elementary(f3, n, i, i + 1) for i in range(1, n)]

    seq = dim_sequence_group(gens, 5, p=3)
    assert all(t == 1 for t in seq)


def test_exact_log():
    assert exact_log(729, 3) == 6
    with pytest.raises(ValueError):
        exact_log(12, 3)


def test_finitely_determined_bound():
    # log orders of 2-row-determined families stay under d(2n-d-1)/2
    f3 = Ring.prime_field(3)
    from unitri import closure_order
    for n in range(3, 8):
        order = closure_order(list(periodic_generators(f3, n)))
        assert exact_log(order, 3) <= 2 * (2 * n - 3) // 2


def test_limit_estimate_rules():
    flat = DimSequence([Fraction(1, 2)] * 60)
    assert flat.limit_estimate() == Fraction(1, 2)
    short = DimSequence([Fraction(1, 2)] * 10)
    assert short.limit_estimate() is None
    drift = DimSequence([Fraction(k, 2 * k + 100) for k in range(1, 80)])
    assert drift.limit_estimate() is None  # monotone but spread too wide


def test_csv_and_json_rationals():
    seq = dim_sequence_partition(lower_central(2), 6)
    csv = seq.to_csv()
    assert csv.splitlines()[0] == "n,a_n_num,a_n_den,decimal"
    assert ",1,3," in csv  # a_3 = 1/3 as num/den columns


def test_derived_series_sequence():
    for d in (2, 3, 4):
        off = 2 ** (d - 1)
        seq = dim_sequence_partition(derived_series(d, window=50), 50)
        for n in range(off, 51):
            assert seq.a(n) == Fraction((n + 1 - off) * (n - off), n * (n - 1))


@pytest.mark.parametrize("name", ["pi-inv", "e-3"])
def test_named_digits_settle_every_floor_to_a_million(name):
    # alpha lies in [lo, lo + 1) / 10^60; b_n = floor(alpha n(n-1)/2) is
    # settled when both ends give the same floor and alpha n(n-1)/2 keeps
    # the 1e-30 margin from an integer that floor_times demands
    frac = NAMED_TARGETS[name].split(".")[1]
    assert len(frac) == 60
    lo, den, margin = int(frac), 10 ** 60, 10 ** 30
    unsettled, parts, prev = [], [], 0
    for n in range(2, 10 ** 6 + 1):
        m = n * (n - 1) // 2
        q, r = divmod(lo * m, den)
        if not ((lo + 1) * m // den == q and margin <= r <= den - margin):
            unsettled.append(n)
        parts.append(q - prev)
        prev = q
    assert unsettled == []
    # the public constructor reads the same floors at every n
    assert partition_for_alpha(AlphaTarget.named(name), 10 ** 6).parts == parts


def test_pi_inv_partition_at_a_million_budget():
    # N = 10^6 is the documented range of the named targets; the integer
    # floors build it in about 2 s on a 2-core host
    start = time.perf_counter()
    mu = partition_for_alpha(AlphaTarget.named("pi-inv"), 10 ** 6)
    assert time.perf_counter() - start <= 5.0
    assert len(mu.parts) == 10 ** 6 - 1


def fraction_floor_times(lo: Fraction, hi: Fraction, m: int) -> int:
    """floor_times written on Fractions: the reference for the integer form."""
    lo_f = (lo.numerator * m) // lo.denominator
    if lo != hi:
        hi_f = (hi.numerator * m) // hi.denominator
        if lo_f != hi_f:
            raise AmbiguousFloorError(
                f"floor of alpha*{m} is ambiguous at this precision")
        margin = Fraction(1, 10 ** 30)
        frac = lo * m - lo_f
        if frac != 0 and (frac < margin or 1 - frac < margin):
            raise AmbiguousFloorError(
                f"alpha*{m} is within 1e-30 of an integer")
    return lo_f


def floor_outcome(floor, *args):
    try:
        return floor(*args)
    except AmbiguousFloorError as exc:
        return "AmbiguousFloorError", str(exc)


exact_targets = st.integers(1, 10 ** 20).flatmap(
    lambda b: st.integers(0, b).map(lambda a: AlphaTarget.exact(Fraction(a, b))))
decimal_targets = st.text("0123456789", min_size=1, max_size=70).map(
    lambda digits: AlphaTarget.decimal("0." + digits))


@st.composite
def near_integer_cases(draw):
    # a decimal whose alpha * m lies within a few m / 10^k of an integer j,
    # where the 1e-30 guard, not the floor, decides
    k, m = draw(st.integers(1, 70)), draw(st.integers(1, 10 ** 15))
    j = draw(st.integers(0, m))
    num = -(-j * 10 ** k // m) + draw(st.integers(-2, 2))
    assume(0 <= num < 10 ** k)
    return AlphaTarget.decimal(f"0.{num:0{k}d}"), m


@given(st.one_of(st.tuples(exact_targets | decimal_targets, st.integers(0, 10 ** 15)),
                 near_integer_cases()))
def test_integer_floor_matches_the_fraction_floor(case):
    alpha, m = case
    assert floor_outcome(alpha.floor_times, m) == \
        floor_outcome(fraction_floor_times, alpha.lo, alpha.hi, m)


@pytest.mark.parametrize("digits, want", [
    ("0" * 29 + "1" + "0" * 30, 0),  # alpha = 1e-30 exactly: not within
    (f"{10 ** 30 - 1:060d}", None),
    ("9" * 30 + "0" * 30, 0),  # alpha = 1 - 1e-30 exactly: not within
    ("9" * 30 + "0" * 29 + "1", None),
], ids=["1e-30", "below-1e-30", "1-1e-30", "above-1-1e-30"])
def test_floor_guard_is_strict_at_1e_30(digits, want):
    alpha = AlphaTarget.decimal("0." + digits)
    got = floor_outcome(alpha.floor_times, 1)
    assert got == floor_outcome(fraction_floor_times, alpha.lo, alpha.hi, 1)
    assert got == (want if want is not None else
                   ("AmbiguousFloorError", "alpha*1 is within 1e-30 of an integer"))
