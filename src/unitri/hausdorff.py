"""Exact-rational dimension sequences along the principal filtration.

For a closed subgroup H the sequence a_n = log|H_n| / log|G_n| is computed
as exact fractions; a limit estimate is attached only when the data shows
one.  The constructive direction builds, for any target alpha in [0, 1], a
partition whose sequence converges to alpha via the floor construction
b_n = floor(alpha n(n-1)/2), mu_n = b_n - b_{n-1}.
"""

from __future__ import annotations

from fractions import Fraction

from .matrices import closure_order, DEFAULT_CLOSURE_CAP
from .partitions import Partition, PartitionDiagram, Tail

# Leading 60 decimal digits, truncated (not rounded); enough that every
# floor b_n with n <= 10^6 is determined by the digit prefix alone.
PI_INV_DIGITS = "0.318309886183790671537767526745028724068919291480912897495334"
EXP_MINUS_3_DIGITS = "0.049787068367863942979342415650061776631699592188423215567627"

NAMED_TARGETS = {
    "pi-inv": PI_INV_DIGITS,
    "e-3": EXP_MINUS_3_DIGITS,
}


class AmbiguousFloorError(ValueError):
    """A truncated decimal target cannot resolve a floor unambiguously."""


class AlphaTarget:
    """A dimension target in [0, 1]: exact rational or guarded decimal.

    Truncated decimals carry lower and upper rational bounds; every floor is
    computed from both ends and must agree, otherwise the target does not
    hold enough digits for the requested range.
    """

    def __init__(self, lo: Fraction, hi: Fraction, label: str):
        if not (0 <= lo <= hi <= 1):
            raise ValueError("alpha must lie in [0, 1]")
        self.lo = lo
        self.hi = hi
        self.label = label

    @staticmethod
    def exact(value) -> "AlphaTarget":
        fr = Fraction(value)
        return AlphaTarget(fr, fr, str(fr))

    @staticmethod
    def decimal(digits: str, label: str | None = None) -> "AlphaTarget":
        digits = digits.strip()
        if "." not in digits:
            return AlphaTarget.exact(Fraction(int(digits)))
        whole, frac = digits.split(".")
        den = 10 ** len(frac)
        num = int(whole or "0") * den + int(frac)
        return AlphaTarget(Fraction(num, den), Fraction(num + 1, den),
                           label or digits)

    @staticmethod
    def named(name: str) -> "AlphaTarget":
        if name not in NAMED_TARGETS:
            raise ValueError(f"unknown named target {name!r}; "
                             f"have {sorted(NAMED_TARGETS)}")
        return AlphaTarget.decimal(NAMED_TARGETS[name], label=name)

    @staticmethod
    def parse(text: str) -> "AlphaTarget":
        text = text.strip()
        if text.startswith("const:"):
            text = text[6:]
        if text in NAMED_TARGETS:
            return AlphaTarget.named(text)
        if "/" in text:
            num, den = text.split("/")
            return AlphaTarget.exact(Fraction(int(num), int(den)))
        return AlphaTarget.exact(Fraction(text))

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def floor_times(self, m: int) -> int:
        """floor(alpha * m), guarded against truncation ambiguity."""
        lo_f = (self.lo.numerator * m) // self.lo.denominator
        if not self.is_exact:
            hi_f = (self.hi.numerator * m) // self.hi.denominator
            if lo_f != hi_f:
                raise AmbiguousFloorError(
                    f"floor of alpha*{m} is ambiguous at this precision")
            # the guard from the construction: alpha*m must sit clearly
            # between integers when alpha is only known to finite precision
            margin = Fraction(1, 10 ** 30)
            frac = self.lo * m - lo_f
            if frac != 0 and (frac < margin or 1 - frac < margin):
                raise AmbiguousFloorError(
                    f"alpha*{m} is within 1e-30 of an integer")
        return lo_f

    def gap_above(self, value: Fraction) -> Fraction:
        """Upper bound for |alpha - value| when value <= alpha."""
        return self.hi - value

    def __repr__(self):
        return f"AlphaTarget({self.label})"


class DimSequence:
    """Sequence a_n of exact rationals, indexed from n = 2."""

    def __init__(self, terms, source: str = ""):
        self.terms = [Fraction(t) for t in terms]
        self.source = source
        if any(not 0 <= t <= 1 for t in self.terms):
            raise ValueError("dimension terms must lie in [0, 1]")

    def a(self, n: int) -> Fraction:
        return self.terms[n - 2]

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def last(self) -> Fraction:
        return self.terms[-1]

    def limit_estimate(self, window: int = 50, tol=Fraction(1, 10 ** 9)):
        """The last term, when the trailing terms are monotone and their
        spread is below tol; otherwise None.  Raw data is never overridden."""
        if len(self.terms) < window:
            return None
        tail = self.terms[-window:]
        inc = all(a <= b for a, b in zip(tail, tail[1:]))
        dec = all(a >= b for a, b in zip(tail, tail[1:]))
        if (inc or dec) and abs(tail[-1] - tail[0]) <= tol:
            return tail[-1]
        return None

    def rows(self):
        for idx, t in enumerate(self.terms):
            yield idx + 2, t

    def to_csv(self) -> str:
        lines = ["n,a_n_num,a_n_den,decimal"]
        for n, t in self.rows():
            lines.append(f"{n},{t.numerator},{t.denominator},{float(t):.12g}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        est = self.limit_estimate()
        return {
            "source": self.source,
            "terms": [{"n": n, "num": str(t.numerator), "den": str(t.denominator),
                       "decimal": f"{float(t):.12g}"} for n, t in self.rows()],
            "limit_estimate": None if est is None else
            {"num": str(est.numerator), "den": str(est.denominator)},
        }


def partition_for_alpha(alpha: AlphaTarget, N: int) -> Partition:
    """Windowed partition whose dimension sequence tracks alpha.

    Parts are the increments of b_n = floor(alpha n(n-1)/2); each lies in
    [0, n-1], so the heights always fit their columns.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    parts = []
    prev = 0
    for n in range(2, N + 1):
        b = alpha.floor_times(n * (n - 1) // 2)
        part = b - prev
        if not 0 <= part <= n - 1:
            raise AssertionError(f"part {part} out of range at column {n}")
        parts.append(part)
        prev = b
    return Partition(parts)


def dim_sequence_partition(mu: PartitionDiagram, N: int) -> DimSequence:
    """a_n = 2 |mu|_n / (n(n-1)) for n = 2..N."""
    if N < 2:
        raise ValueError("N must be >= 2")
    terms = [Fraction(2 * mu.count_upto(n), n * (n - 1)) for n in range(2, N + 1)]
    return DimSequence(terms, source=f"partition window {mu.window}")


def monotone_normalize(mu: Partition) -> Partition:
    """Sort parts into non-decreasing order, shifting bulging squares right.

    Preserves the multiset of parts, hence every prefix count at the final
    column; the result carries a constant tail at the last part, making it a
    normal partition whenever the sorted parts fit their columns.
    """
    parts = sorted(mu.parts)
    for idx, h in enumerate(parts):
        if h > idx + 1:
            raise ValueError("not normalizable by rearrangement: "
                             f"part {h} exceeds column bound at column {idx + 2}")
    tail = Tail.const(parts[-1]) if parts and parts[-1] else Tail.empty()
    return Partition(parts, tail)


def exact_log(order: int, p: int) -> int:
    """e with order = p^e; error if the order is not a pure p power."""
    e = 0
    while order % p == 0:
        order //= p
        e += 1
    if order != 1:
        raise ValueError("group order is not a power of p")
    return e


def dim_sequence_group(gens_factory, N: int, p: int, f: int = 1,
                       cap: int = DEFAULT_CLOSURE_CAP) -> DimSequence:
    """a_n from BFS closure orders of a windowed generator family.

    gens_factory(n) must return the generators truncated to window n; orders
    are p powers, logged base p and rescaled by 1/f for base-q reporting.
    """
    terms = []
    for n in range(2, N + 1):
        order = closure_order(gens_factory(n), cap=cap)
        e = exact_log(order, p)
        terms.append(Fraction(2 * e, f * n * (n - 1)))
    return DimSequence(terms, source="closure enumeration")
