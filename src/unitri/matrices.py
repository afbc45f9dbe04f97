"""Windowed upper unitriangular matrices over a coefficient ring.

A window of size n is the image of an infinite-group element under
truncation to its leading n x n block.  Entries are stored sparsely as
ring codes (Ring.encode), decoded only at the API boundary; the diagonal is
implicitly 1.  Group closure enumeration runs on dense keys of the same
codes, one per strictly upper position: a bytes string when the ring's codes
fit in a byte, a tuple otherwise.  A product x y costs O(nnz(y) n) ring
operations.

Division has one kernel, _rdiv, the right quotient (1 + b) x^-1 by sparse
back-substitution: mat_inv is the quotient of the identity, a conjugate
g x g^-1 the quotient of g x, and a commutator (y x)^-1 (x y), a left
quotient, the anti-transpose (flip, which reverses products) of a right
one.  distance computes no product: truncation is a homomorphism, so it
reads the first column in which two windows differ.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress

from .rings import Ring, RingElem

DEFAULT_CLOSURE_CAP = 2_000_000
# DenseOps keeps at most this many right-factor plans, and starts over when full
MAX_PLANS = 4096


class ClosureCapExceeded(RuntimeError):
    """Raised when a BFS closure grows past its cap; carries the partial count."""

    def __init__(self, partial_count):
        super().__init__(f"closure exceeds cap (partial count {partial_count})")
        self.partial_count = partial_count


class UniTriWindow:
    """n x n upper unitriangular matrix; absent entries are zero.

    Holds a dict from position to nonzero code, which from_codes and codes
    build and read inside the package; get, items, to_json and repr decode.
    """

    __slots__ = ("ring", "n", "_e", "_key")

    def __init__(self, ring: Ring, n: int, entries=None):
        if n < 1:
            raise ValueError("window size must be >= 1")
        self.ring = ring
        self.n = n
        e = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for (i, j), v in items:
                if not (1 <= i < j <= n):
                    raise ValueError(f"entry position {(i, j)} outside window")
                c = ring.elem(v).code
                if c:
                    e[(i, j)] = c
        self._e = e
        self._key = None

    @classmethod
    def from_codes(cls, ring: Ring, n: int, codes: dict) -> "UniTriWindow":
        """The window on codes, position -> nonzero code, taken unchecked."""
        x = object.__new__(cls)
        x.ring, x.n, x._e, x._key = ring, n, codes, None
        return x

    def codes(self) -> dict:
        """The dict from position to nonzero code; do not modify it."""
        return self._e

    def get(self, i: int, j: int) -> RingElem:
        return self.ring.decode(self._e.get((i, j), 0))

    def items(self):
        return [(pos, self.ring.decode(c)) for pos, c in self._e.items()]

    def positions(self):
        return set(self._e)

    def is_identity(self) -> bool:
        return not self._e

    def key(self):
        if self._key is None:
            self._key = tuple(sorted(self._e.items()))
        return self._key

    def __eq__(self, other):
        return (isinstance(other, UniTriWindow) and self.ring == other.ring
                and self.n == other.n and self._e == other._e)

    def __hash__(self):
        return hash((self.n, self.key()))

    def __mul__(self, other):
        return mat_mul(self, other)

    def inv(self):
        return mat_inv(self)

    def __repr__(self):
        ent = ", ".join(f"({i},{j})={v!r}" for (i, j), v in sorted(self.items()))
        return f"<{self.n}x{self.n} over {self.ring!r}: 1 + [{ent}]>"

    def to_json(self) -> dict:
        return {
            "ring": self.ring.to_json(),
            "n": self.n,
            "entries": [[i, j, self.ring.format_value(v)]
                        for (i, j), v in sorted(self.items())],
        }

    @staticmethod
    def from_json(d: dict) -> "UniTriWindow":
        ring = Ring.from_json(d["ring"])
        return UniTriWindow(ring, d["n"], {(i, j): v for i, j, v in d["entries"]})


def identity(ring: Ring, n: int) -> UniTriWindow:
    return UniTriWindow(ring, n)


def elementary(ring: Ring, n: int, i: int, j: int, a=1) -> UniTriWindow:
    return UniTriWindow(ring, n, {(i, j): a})


def mat_mul(x: UniTriWindow, y: UniTriWindow) -> UniTriWindow:
    _check_pair(x, y)
    add, mul = x.ring.ops.add, x.ring.ops.mul
    out = dict(x._e)
    for pos, v in y._e.items():
        out[pos] = add(out.get(pos, 0), v)
    by_row = {}
    for (j, k), v in y._e.items():
        by_row.setdefault(j, []).append((k, v))
    for (i, j), xv in x._e.items():
        for k, yv in by_row.get(j, ()):
            out[(i, k)] = add(out.get((i, k), 0), mul(xv, yv))
    return UniTriWindow.from_codes(x.ring, x.n, {pos: c for pos, c in out.items() if c})


def _rdiv(b: dict, x: UniTriWindow, rows=None) -> UniTriWindow:
    """The right quotient (1 + b) x^-1, by sparse back-substitution.

    b maps positions to codes of a strictly upper offset.  Row i of the
    quotient y solves y_i x = e_i + b_i, so y_ik = -(x_ik - b_ik +
    sum_{i<j<k} y_ij x_jk).  Each row takes its columns in increasing order
    from a heap that holds only the columns receiving a contribution, so an
    elementary x with b empty costs O(1) and full windows O(n^3) ring
    operations.  rows, when given, names the only rows to compute.
    """
    add, neg, mul = x.ring.ops.add, x.ring.ops.neg, x.ring.ops.mul
    by_row = {}
    for (j, k), v in x._e.items():
        by_row.setdefault(j, []).append((k, v))
    seed = {}
    for (i, k), v in b.items():
        seed.setdefault(i, []).append((k, v))
    if rows is None:
        rows = list(by_row) + [i for i in seed if i not in by_row]
    out = {}
    for i in rows:
        acc = dict(by_row.get(i, ()))
        for k, v in seed.get(i, ()):
            acc[k] = add(acc.get(k, 0), neg(v))
        pending = list(acc)
        heapify(pending)
        while pending:
            k = heappop(pending)
            c = acc.pop(k)
            if not c:
                continue
            y = out[(i, k)] = neg(c)
            for m, xv in by_row.get(k, ()):
                if m not in acc:
                    heappush(pending, m)
                acc[m] = add(acc.get(m, 0), mul(y, xv))
    return UniTriWindow.from_codes(x.ring, x.n, out)


def mat_inv(x: UniTriWindow) -> UniTriWindow:
    """The inverse of x: the right quotient of the identity by x."""
    return _rdiv({}, x)


def flip(x: UniTriWindow) -> UniTriWindow:
    """The anti-transpose (i, j) -> (n+1-j, n+1-i); flip(x y) = flip(y) flip(x)."""
    m = x.n + 1
    return UniTriWindow.from_codes(x.ring, x.n,
                                   {(m - j, m - i): c for (i, j), c in x._e.items()})


def commutator(x: UniTriWindow, y: UniTriWindow) -> UniTriWindow:
    """[x, y] = x^-1 y^-1 x y = (y x)^-1 (x y), a left quotient taken as a
    right quotient of the flipped products."""
    _check_pair(x, y)
    return flip(_rdiv(flip(mat_mul(x, y))._e, flip(mat_mul(y, x))))


def conjugate(g: UniTriWindow, x: UniTriWindow) -> UniTriWindow:
    """g x g^-1."""
    return _rdiv(mat_mul(g, x)._e, g)


def valuation(x: UniTriWindow) -> int:
    """Largest m with identity leading m x m block; n for the identity window.

    The sentinel n means "at least n": the element is indistinguishable from
    the identity at this truncation.
    """
    if not x._e:
        return x.n
    return min(j for (_, j) in x._e) - 1


def distance(x: UniTriWindow, y: UniTriWindow) -> Fraction:
    """The ultrametric d(x, y) = p^-valuation(x^-1 y).

    Truncation is a homomorphism, so x^-1 y is the identity on the leading
    m x m block exactly when x and y agree there: valuation(x^-1 y) + 1 is
    the least column where x and y differ, and n when they are equal.
    """
    _check_pair(x, y)
    diff = x._e.items() ^ y._e.items()
    v = min(pos[1] for pos, _ in diff) - 1 if diff else x.n
    return Fraction(1, x.ring.p) ** v


def truncate(x: UniTriWindow, m: int) -> UniTriWindow:
    if m > x.n:
        raise ValueError("cannot truncate to a larger window")
    if m < 1:
        raise ValueError("window size must be >= 1")
    return UniTriWindow.from_codes(x.ring, m, {pos: c for pos, c in x._e.items() if pos[1] <= m})


def extend(x: UniTriWindow, m: int) -> UniTriWindow:
    """Pad with zero entries to a larger window (a section of truncation)."""
    if m < x.n:
        raise ValueError("cannot extend to a smaller window")
    return UniTriWindow.from_codes(x.ring, m, dict(x._e))


def shift(x: UniTriWindow, d: int) -> UniTriWindow:
    """Delete the first d rows and columns."""
    if not 0 <= d < x.n:
        raise ValueError("shift amount must satisfy 0 <= d < n")
    return UniTriWindow.from_codes(x.ring, x.n - d,
                                   {(i - d, j - d): c for (i, j), c in x._e.items() if i > d})


def is_periodic(x: UniTriWindow, d: int) -> bool:
    """x equals its d-fold shift wherever both squares lie in the window."""
    if not 1 <= d < x.n:
        raise ValueError("period must satisfy 1 <= d < n")
    m = x.n - d
    e = x._e
    return all(e.get((i, j), 0) == e.get((i + d, j + d), 0)
               for i in range(1, m + 1) for j in range(i + 1, m + 1))


def _check_pair(x, y):
    if x.ring != y.ring:
        raise ValueError("mismatched ring descriptors")
    if x.n != y.n:
        raise ValueError("mismatched window sizes")


# -- dense representation for closure enumeration --

class DenseOps:
    """Flat-key calculus for all strictly upper positions of one window.

    An element is the sequence of ring codes over the fixed position list:
    a bytes string when ring.order <= 256, so that every code fits in a
    byte, and a tuple of ints above that.  The identity is the zero key, and
    encode/decode scatter and gather a window's codes.  A product x y costs
    O(nnz(y) n) ring operations, O(n) for an elementary y, and the scan of
    y's nonzeros is paid once per distinct y: the instance keeps a plan for
    each right factor it has seen (at most MAX_PLANS).  Construction is
    O(n^3); ring arithmetic is Ring.ops, built once per field, so no table
    build.
    """

    def __init__(self, ring: Ring, n: int):
        self.ring = ring
        self.n = n
        self.positions = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        self.index = {pos: t for t, pos in enumerate(self.positions)}
        self._add, self._mul = ring.ops.add, ring.ops.mul
        # (mutable, packed) key containers, picked once for the ring
        self._build, self._pack = (bytearray, bytes) if ring.order <= 256 else (list, tuple)
        self.identity = self._pack([0] * len(self.positions))
        # per right-factor position (j, k): (index of (i, k), index of (i, j)), i < j
        self.right = [tuple((self.index[(i, k)], self.index[(i, j)]) for i in range(1, j))
                      for (j, k) in self.positions]
        self._plans = {}  # right factor key -> its plan in mul

    def encode(self, x: UniTriWindow):
        if x.n != self.n or x.ring != self.ring:
            raise ValueError("window/ring mismatch")
        return self._pack([x._e.get(pos, 0) for pos in self.positions])

    def decode(self, t) -> UniTriWindow:
        return UniTriWindow.from_codes(self.ring, self.n,
                                       {pos: c for pos, c in zip(self.positions, t) if c})

    def mul(self, x, y):
        """x y as offsets from the identity: X + Y + X Y, driven by y's nonzeros.

        The first product with a given y compiles its plan, the
        (t, y[t], right[t]) of each nonzero t, and later products with that
        y reuse it.
        """
        plan = self._plans.get(y)
        if plan is None:
            if len(self._plans) >= MAX_PLANS:
                self._plans.clear()
            plan = self._plans[y] = [(t, y[t], self.right[t])
                                     for t in compress(range(len(y)), y)]
        add, mul = self._add, self._mul
        out = self._build(x)
        for t, yv, pairs in plan:
            out[t] = add(out[t], yv)
            for ik, ij in pairs:
                xs = x[ij]
                if xs:
                    out[ik] = add(out[ik], mul(xs, yv))
        return self._pack(out)

    def inv(self, x):
        return self.encode(mat_inv(self.decode(x)))


def closure_dense(gens, cap=DEFAULT_CLOSURE_CAP):
    """BFS closure; returns (DenseOps, set of dense keys)."""
    if not gens:
        raise ValueError("need at least one generator")
    ops = DenseOps(gens[0].ring, gens[0].n)
    enc_gens = [ops.encode(g) for g in gens]  # raises on a window/ring mismatch
    seen = {ops.identity}
    frontier = [ops.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in enc_gens:
                y = ops.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) > cap:
                        raise ClosureCapExceeded(len(seen))
        frontier = nxt
    return ops, seen


def closure_order(gens, cap=DEFAULT_CLOSURE_CAP) -> int:
    """Order of the subgroup generated inside the window's finite quotient."""
    _, seen = closure_dense(gens, cap)
    return len(seen)


def closure_elements(gens, cap=DEFAULT_CLOSURE_CAP):
    ops, seen = closure_dense(gens, cap)
    return [ops.decode(t) for t in seen]
