"""Truncated power-series automorphisms t -> t + sum a_j t^j of F_q[[t]].

These are the Nottingham-group elements.  Composition acts on the right:
u * v means "apply u, then v", so the matrix embedding below is a
homomorphism.  Row i of the embedded matrix lists the coefficients of
(t u)^i, which is why images are determined by their first row.

Those power rows are the one kernel of this module: series_matrix builds
them on ring codes (Ring.ops) once per series, at its truncation
degree, and keeps them on the series.  compose substitutes t v into t u by
reading the rows of v's matrix, and invert solves for the first row of
the inverse of u's matrix alone.  first_row_determined asks whether a
window is the matrix of its own first row; for u's matrix that holds by
construction, so a report checks u against its inverse by multiplying the
two matrices.
"""

from __future__ import annotations

from math import comb

from .matrices import UniTriWindow, _inv_rows, truncate
from .rings import Ring, RingElem


class SeriesAut:
    """t + a_2 t^2 + ... + a_N t^N modulo t^(N+1); a_1 = 1 implicitly.

    Keeps its degree-N matrix once series_matrix has built it.
    """

    __slots__ = ("ring", "coeffs", "_mat")

    def __init__(self, ring: Ring, coeffs):
        if not ring.is_field:
            raise ValueError("series automorphisms need field coefficients")
        self.ring = ring
        self.coeffs = tuple(ring.elem(c) for c in coeffs)
        self._mat = None

    @property
    def degree(self) -> int:
        return len(self.coeffs) + 1

    def coeff(self, j: int) -> RingElem:
        """Coefficient of t^j; j = 1 gives 1."""
        if j == 1:
            return self.ring.one
        if 2 <= j <= self.degree:
            return self.coeffs[j - 2]
        raise ValueError(f"coefficient {j} beyond truncation degree {self.degree}")

    def poly(self):
        """Dense [0, 1, a_2, ..., a_N] coefficient list for t*u."""
        zero = self.ring.zero
        return [zero, self.ring.one] + list(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, SeriesAut) and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.degree, tuple(c.code for c in self.coeffs)))

    def __repr__(self):
        terms = ["t"]
        for j, c in enumerate(self.coeffs, start=2):
            if not c.is_zero():
                terms.append(f"({c!r})t^{j}")
        return " + ".join(terms) + f" (mod t^{self.degree + 1})"

    def __mul__(self, other):
        return compose(self, other)

    def inv(self):
        return invert(self)

    def to_json(self):
        return {"q": self.ring.to_json(),
                "coeffs": [self.ring.format_value(c) for c in self.coeffs]}

    @staticmethod
    def from_json(d) -> "SeriesAut":
        ring = Ring.from_json(d["q"])
        return SeriesAut(ring, [ring.elem(c) for c in d["coeffs"]])


def identity_series(ring: Ring, degree: int) -> SeriesAut:
    return SeriesAut(ring, [0] * (degree - 1))


def generator(ring: Ring, r: int, alpha, degree: int) -> SeriesAut:
    """t -> t + alpha t^(r+1), the depth-r generator."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if r + 1 > degree:
        raise ValueError(f"generator degree {r + 1} exceeds truncation {degree}")
    coeffs = [ring.zero] * (degree - 1)
    coeffs[r - 1] = ring.elem(alpha)
    return SeriesAut(ring, coeffs)


def compose(u: SeriesAut, v: SeriesAut) -> SeriesAut:
    """Apply u, then v: substitute t*v for t in the series of t*u.

    The result is sum_k a_k (t v)^k with a_1 = 1, and (t v)^k is row k of
    v's matrix, whose diagonal entry 1 is the coefficient of t^k.
    """
    if u.ring != v.ring:
        raise ValueError("mismatched coefficient fields")
    if u.degree != v.degree:
        raise ValueError("mismatched truncation degrees")
    ring, N = u.ring, u.degree
    coeffs = {j: c.code for j, c in enumerate(u.coeffs, 2) if c.code}
    coeffs[1] = 1
    acc = {}
    ring.ops.addrows(acc, coeffs, series_matrix(v, N).rows())
    out = ring.ops.clean(acc)
    return SeriesAut(ring, [ring.decode(out.get(j, 0)) for j in range(2, N + 1)])


def invert(u: SeriesAut) -> SeriesAut:
    """Series reversion: the unique v with u * v = identity.

    The matrix embedding is a homomorphism and a series is the first row of
    its image, so v is the first row of the inverse of the degree-N window,
    and only that row is solved for.
    """
    return series_from_first_row(_inv_rows(series_matrix(u, u.degree), (1,)))


def series_matrix(u: SeriesAut, m: int) -> UniTriWindow:
    """The matrix with row i holding the coefficients of (t u)^i.

    Requires truncation degree >= m; the result window is m.  The map is
    multiplicative: series_matrix(u * v) = series_matrix(u) * series_matrix(v).
    The degree-N matrix is built once per series and kept on it; a smaller
    window is its truncation.
    """
    if u.degree < m:
        raise ValueError(f"series degree {u.degree} too small for window {m}")
    if u._mat is None:
        u._mat = _power_rows(u)
    return u._mat if m == u.degree else truncate(u._mat, m)


def _power_rows(u: SeriesAut) -> UniTriWindow:
    """The degree-N matrix of u on codes: row i is row i - 1 times t u, mod t^(N+1).

    With (t u)^(i-1) = sum_k c_k t^k and t^(m-1) t u = e_m + shifted[m],
    (t u)^i is the row update of the coefficients c_k put at column k + 1;
    its diagonal entry, 1 at column i, is dropped.
    """
    ring, N = u.ring, u.degree
    addrows, clean = ring.ops.addrows, ring.ops.clean
    tail = [(j, c.code) for j, c in enumerate(u.coeffs, 2) if c.code]
    shifted = {}
    for m in range(1, N + 1):
        s = {m - 1 + j: a for j, a in tail if m - 1 + j <= N}
        if s:
            shifted[m] = s
    rows, prev = {}, {}
    for i in range(1, N + 1):
        coeffs = {k + 1: c for k, c in prev.items() if k < N}
        coeffs[i] = 1
        acc = {}
        addrows(acc, coeffs, shifted)
        del acc[i]
        prev = clean(acc)
        if prev:
            rows[i] = prev
    return UniTriWindow.from_rows(ring, N, rows)


def generator_matrix(ring: Ring, r: int, alpha, m: int) -> UniTriWindow:
    """Closed form for the embedded depth-r generator.

    Entry (i, j) is binom(i, (j-i)/r) alpha^((j-i)/r) whenever r divides
    j - i; binomial vanishing cuts the support at j <= i(r+1), which matches
    the row expansion of (t + alpha t^(r+1))^i.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    alpha = ring.elem(alpha)
    p = ring.p
    entries = {}
    if not alpha.is_zero():
        for i in range(1, m + 1):
            apow = ring.one
            for k in range(1, i + 1):
                j = i + r * k
                if j > m:
                    break
                apow = apow * alpha
                c = comb(i, k) % p
                if c:
                    entries[(i, j)] = apow * c
    return UniTriWindow(ring, m, entries)


def series_from_first_row(x: UniTriWindow) -> SeriesAut:
    """The series read off the first row of a window."""
    return SeriesAut(x.ring, [x.get(1, j) for j in range(2, x.n + 1)])


def first_row_determined(x: UniTriWindow) -> bool:
    """True iff x is the embedded image of the series in its own first row."""
    return x == series_matrix(series_from_first_row(x), x.n)
