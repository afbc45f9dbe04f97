"""Reference arithmetic for the benchmark's output checks.

Nothing here calls into `unitri`: values are read off library objects as
plain data (`.val`, `.items()`, JSON reports) and recomputed with the small
routines below, so a check never reuses the code it is checking.
"""

from __future__ import annotations

from fractions import Fraction

# 1/pi and e^-3 truncated to 70 decimals, taken from mpmath at 80 digits.
PI_INV_70 = "0.3183098861837906715377675267450287240689192914809128974953346881177935"
E_MINUS_3_70 = "0.0497870683678639429793424156500617766316995921884232155676277276060606"


class CheckFailed(AssertionError):
    """An output disagrees with its independent recomputation."""


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


# -- coefficient rings --

class RefRing:
    """F_p, F_p[x]/(m) with m monic (low degree first) or Z/p^k."""

    def __init__(self, p, f=1, k=1, modulus=()):
        self.p, self.f, self.k = p, f, k
        self.modulus = tuple(modulus)
        self.ext = f > 1
        self.mod = p ** k
        self.zero = (0,) * f if self.ext else 0
        self.one = (1,) + (0,) * (f - 1) if self.ext else 1

    @staticmethod
    def from_json(d):
        """Ring descriptor as it appears in unitri JSON reports."""
        if "k" in d:
            return RefRing(d["p"], k=d["k"])
        return RefRing(d["p"], d.get("f", 1), modulus=d.get("modulus", ()))

    def add(self, a, b):
        if self.ext:
            return tuple((x + y) % self.p for x, y in zip(a, b))
        return (a + b) % self.mod

    def mul(self, a, b):
        if not self.ext:
            return a * b % self.mod
        p, f, m = self.p, self.f, self.modulus
        prod = [0] * (2 * f - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for d in range(2 * f - 2, f - 1, -1):
            c = prod[d] % p
            if c:
                for i in range(f):
                    prod[d - f + i] -= c * m[i]
        return tuple(c % p for c in prod[:f])

    def parse(self, text):
        """A value as printed by unitri: "c0,c1,..." or an integer."""
        if self.ext:
            vec = [int(t) % self.p for t in str(text).split(",")]
            return tuple(vec + [0] * (self.f - len(vec)))
        return int(text) % self.mod


def ring_of(lib_ring):
    return RefRing.from_json(lib_ring.to_json())


# -- dense unitriangular matrices, 0-based lists of ring values --

def identity(R, n):
    return [[R.one if i == j else R.zero for j in range(n)] for i in range(n)]


def dense(R, window):
    """A unitri window (anything with .n and .items()) as a dense matrix."""
    a = identity(R, window.n)
    for (i, j), v in window.items():
        a[i - 1][j - 1] = v.val
    return a


def from_entries(R, n, entries):
    """Dense matrix from [[i, j, value-text], ...] as in unitri JSON."""
    a = identity(R, n)
    for i, j, v in entries:
        a[i - 1][j - 1] = R.parse(v)
    return a


def matmul(R, a, b):
    n = len(a)
    out = identity(R, n)
    for i in range(n):
        for k in range(i + 1, n):
            acc = R.add(a[i][k], b[i][k])
            for j in range(i + 1, k):
                if a[i][j] != R.zero and b[j][k] != R.zero:
                    acc = R.add(acc, R.mul(a[i][j], b[j][k]))
            out[i][k] = acc
    return out


def elementary_word(R, n, word):
    """Product of superdiagonal generators 1 + a e_(r, r+1), read from .val."""
    out = identity(R, n)
    for r, a in word:
        # right multiplication by 1 + a e_(r,r+1) adds a * column r to column r+1
        for i in range(r):
            if out[i][r - 1] != R.zero:
                out[i][r] = R.add(out[i][r], R.mul(out[i][r - 1], a.val))
    return out


def leading_agreement(a, b):
    """Largest m such that a and b agree on their leading m x m blocks."""
    n = len(a)
    for m in range(2, n + 1):
        if any(a[i][m - 1] != b[i][m - 1] for i in range(m - 1)):
            return m - 1
    return n


# -- truncated power series over a RefRing, dense coefficient lists --

def poly_mul(R, a, b, N):
    out = [R.zero] * (N + 1)
    for i, x in enumerate(a[: N + 1]):
        if x != R.zero:
            for j, y in enumerate(b[: N + 1 - i]):
                if y != R.zero:
                    out[i + j] = R.add(out[i + j], R.mul(x, y))
    return out


def substitute(R, outer, inner, N):
    """outer(inner(t)) mod t^(N+1); inner has no constant term."""
    out = [R.zero] * (N + 1)
    power = [R.one] + [R.zero] * N
    for c in outer[: N + 1]:
        if c != R.zero:
            out = [R.add(x, R.mul(c, y)) for x, y in zip(out, power)]
        power = poly_mul(R, power, inner, N)
    return out


def series_rows(R, coeffs, m):
    """Window-m matrix whose row i holds (t + sum c_j t^j)^i."""
    base = [R.zero, R.one] + list(coeffs[: m - 1])
    base += [R.zero] * (m + 1 - len(base))
    a = identity(R, m)
    power = base
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            a[i - 1][j - 1] = power[j]
        power = poly_mul(R, power, base, m)
    return a


# -- partitions: heights h_2..h_w plus a tail, columns queried anywhere --

class RefPartition:
    """Top-segment columns; tail is ("empty", 0), ("const", d) or ("affine", c0)."""

    def __init__(self, parts, tail=("empty", 0)):
        self.parts = list(parts)
        self.window = max(len(self.parts) + 1, 2)
        self.tail = tail

    def h(self, j):
        if j <= self.window:
            return self.parts[j - 2] if j >= 2 else 0
        kind, v = self.tail
        if kind == "const":
            return v
        if kind == "affine":
            return max(j - v, 0)
        return 0

    def count(self, n):
        return sum(self.h(j) for j in range(2, n + 1))

    def text(self):
        runs = []
        for h in self.parts:
            if runs and runs[-1][0] == h:
                runs[-1][1] += 1
            else:
                runs.append([h, 1])
        body = ",".join(f"{h}^{c}" if c > 1 else str(h) for h, c in runs)
        kind, v = self.tail
        return f"({body})" if kind == "empty" else f"({body}|tail={kind}:{v})"


def alpha_bounds(target):
    """(lo, hi) rational bounds of a dim/normalize target."""
    digits = {"pi-inv": PI_INV_70, "e-3": E_MINUS_3_70}.get(target)
    if digits is None:
        a, b = target.split("/")
        fr = Fraction(int(a), int(b))
        return fr, fr
    frac = digits.split(".")[1]
    lo = Fraction(int(frac), 10 ** len(frac))
    return lo, lo + Fraction(1, 10 ** len(frac))


def alpha_parts(target, N):
    """Increments of b_n = floor(alpha n(n-1)/2), n = 2..N, from both bounds."""
    lo, hi = alpha_bounds(target)
    parts, prev = [], 0
    for n in range(2, N + 1):
        m = n * (n - 1) // 2
        b = lo.numerator * m // lo.denominator
        expect(b == hi.numerator * m // hi.denominator,
               f"reference bounds disagree on floor at n={n}")
        parts.append(b - prev)
        prev = b
    return parts


def family_partition(spec):
    """The families the benchmark draws, as name:args in CLI syntax."""
    name, _, args = spec.partition(":")
    vals = [int(a) for a in args.split(",")]
    if name in ("lower-central", "derived"):
        d = vals[0] if name == "lower-central" else 2 ** (vals[0] - 1)
        w = max(d, 2)
        return RefPartition([max(j - d, 0) for j in range(2, w + 1)], ("affine", d))
    if name == "rectangular":
        c, d = vals
        return RefPartition([0] * c, ("const", d))
    raise ValueError(f"no reference for family {spec!r}")


def columns(col_fn, upto):
    """{j: frozenset(rows)} for j = 2..upto from a column function."""
    return {j: frozenset(col_fn(j)) for j in range(2, upto + 1)}


def lib_columns(diagram, upto):
    """The same map read from a unitri diagram through has_square."""
    return {j: frozenset(i for i in range(1, j) if diagram.has_square(i, j))
            for j in range(2, upto + 1)}
