from fractions import Fraction

import pytest

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
    js = seq.to_json()
    assert js["terms"][1]["num"] == "1" and js["terms"][1]["den"] == "3"


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
    unsettled = []
    for n in range(2, 10 ** 6 + 1):
        m = n * (n - 1) // 2
        q, r = divmod(lo * m, den)
        if not ((lo + 1) * m // den == q and margin <= r <= den - margin):
            unsettled.append(n)
    assert unsettled == []
    alpha = AlphaTarget.named(name)
    for n in range(2, 10 ** 6 + 1, 9973):
        m = n * (n - 1) // 2
        assert alpha.floor_times(m) == lo * m // den
