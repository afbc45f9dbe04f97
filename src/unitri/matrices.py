"""Windowed upper unitriangular matrices over a coefficient ring.

A window of size n is the image of an infinite-group element under
truncation to its leading n x n block.  Entries are stored sparsely; the
diagonal is implicitly 1.  Group closure enumeration runs on dense integer
tuples, where a product x y costs O(nnz(y) n) ring operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .rings import Ring, RingElem

DEFAULT_CLOSURE_CAP = 2_000_000
CANCEL_POLL_INTERVAL = 10_000


class ClosureCapExceeded(RuntimeError):
    """Raised when a BFS closure grows past its cap; carries the partial count."""

    def __init__(self, partial_count):
        super().__init__(f"closure exceeds cap (partial count {partial_count})")
        self.partial_count = partial_count


class ClosureCancelled(RuntimeError):
    pass


class UniTriWindow:
    """n x n upper unitriangular matrix; absent entries are zero."""

    __slots__ = ("ring", "n", "_e", "_key")

    def __init__(self, ring: Ring, n: int, entries=None):
        if n < 1:
            raise ValueError("window size must be >= 1")
        self.ring = ring
        self.n = n
        e = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for key, v in items:
                i, j = key
                if not (1 <= i < j <= n):
                    raise ValueError(f"entry position {(i, j)} outside window")
                v = ring.elem(v)
                if not v.is_zero():
                    e[(i, j)] = v
        self._e = e
        self._key = None

    def get(self, i: int, j: int) -> RingElem:
        return self._e.get((i, j), self.ring.zero)

    def items(self):
        return self._e.items()

    def positions(self):
        return set(self._e)

    def is_identity(self) -> bool:
        return not self._e

    def key(self):
        if self._key is None:
            enc = self.ring.encode
            self._key = tuple(sorted((pos, enc(v)) for pos, v in self._e.items()))
        return self._key

    def __eq__(self, other):
        return (isinstance(other, UniTriWindow) and self.ring == other.ring
                and self.n == other.n and self.key() == other.key())

    def __hash__(self):
        return hash((self.n, self.key()))

    def __mul__(self, other):
        return mat_mul(self, other)

    def inv(self):
        return mat_inv(self)

    def __repr__(self):
        ent = ", ".join(f"({i},{j})={v!r}" for (i, j), v in sorted(self._e.items()))
        return f"<{self.n}x{self.n} over {self.ring!r}: 1 + [{ent}]>"

    def to_json(self) -> dict:
        return {
            "ring": self.ring.to_json(),
            "n": self.n,
            "entries": [[i, j, self.ring.format_value(v)]
                        for (i, j), v in sorted(self._e.items())],
        }

    @staticmethod
    def from_json(d: dict) -> "UniTriWindow":
        ring = Ring.from_json(d["ring"])
        return UniTriWindow(ring, d["n"],
                            {(i, j): ring.elem(v) for i, j, v in d["entries"]})


def identity(ring: Ring, n: int) -> UniTriWindow:
    return UniTriWindow(ring, n)


def elementary(ring: Ring, n: int, i: int, j: int, a=1) -> UniTriWindow:
    return UniTriWindow(ring, n, {(i, j): a})


def mat_mul(x: UniTriWindow, y: UniTriWindow) -> UniTriWindow:
    _check_pair(x, y)
    out = dict(x._e)
    for pos, v in y._e.items():
        cur = out.get(pos)
        out[pos] = v if cur is None else cur + v
    by_row = {}
    for (j, k), v in y._e.items():
        by_row.setdefault(j, []).append((k, v))
    for (i, j), xv in x._e.items():
        row = by_row.get(j)
        if row:
            for k, yv in row:
                add = xv * yv
                cur = out.get((i, k))
                out[(i, k)] = add if cur is None else cur + add
    return UniTriWindow(x.ring, x.n, out)


def mat_inv(x: UniTriWindow) -> UniTriWindow:
    """The inverse y of x, by sparse back-substitution.

    Row i of y solves y_i x = e_i, so y_ik = -(x_ik + sum_{i<j<k} y_ij x_jk).
    Each row takes its columns in increasing order from a heap that holds
    only the columns receiving a contribution, so an elementary window
    costs O(1) and a full window O(n^3) ring operations.
    """
    by_row = {}
    for (j, k), v in x._e.items():
        by_row.setdefault(j, []).append((k, v))
    out = {}
    for i, row in by_row.items():
        acc = dict(row)
        pending = list(acc)
        heapify(pending)
        while pending:
            k = heappop(pending)
            y = -acc.pop(k)
            if y.is_zero():
                continue
            out[(i, k)] = y
            for m, xv in by_row.get(k, ()):
                cur = acc.get(m)
                if cur is None:
                    acc[m] = y * xv
                    heappush(pending, m)
                else:
                    acc[m] = cur + y * xv
    return UniTriWindow(x.ring, x.n, out)


def commutator(x: UniTriWindow, y: UniTriWindow) -> UniTriWindow:
    _check_pair(x, y)
    return mat_mul(mat_mul(mat_inv(x), mat_inv(y)), mat_mul(x, y))


def conjugate(g: UniTriWindow, x: UniTriWindow) -> UniTriWindow:
    """g x g^-1."""
    return mat_mul(mat_mul(g, x), mat_inv(g))


def valuation(x: UniTriWindow) -> int:
    """Largest m with identity leading m x m block; n for the identity window.

    The sentinel n means "at least n": the element is indistinguishable from
    the identity at this truncation.
    """
    if not x._e:
        return x.n
    return min(j for (_, j) in x._e) - 1


@dataclass(frozen=True)
class MetricConfig:
    """Ultrametric scale d(x, y) = epsilon^valuation(x^-1 y)."""

    epsilon: Fraction

    def __post_init__(self):
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must lie in (0, 1)")


def distance(x: UniTriWindow, y: UniTriWindow, metric: MetricConfig | None = None) -> Fraction:
    _check_pair(x, y)
    eps = metric.epsilon if metric else Fraction(1, x.ring.p)
    return eps ** valuation(mat_mul(mat_inv(x), y))


def truncate(x: UniTriWindow, m: int) -> UniTriWindow:
    if m > x.n:
        raise ValueError("cannot truncate to a larger window")
    return UniTriWindow(x.ring, m, {pos: v for pos, v in x._e.items() if pos[1] <= m})


def extend(x: UniTriWindow, m: int) -> UniTriWindow:
    """Pad with zero entries to a larger window (a section of truncation)."""
    if m < x.n:
        raise ValueError("cannot extend to a smaller window")
    return UniTriWindow(x.ring, m, dict(x._e))


def shift(x: UniTriWindow, d: int) -> UniTriWindow:
    """Delete the first d rows and columns."""
    if not 0 <= d < x.n:
        raise ValueError("shift amount must satisfy 0 <= d < n")
    return UniTriWindow(x.ring, x.n - d,
                        {(i - d, j - d): v for (i, j), v in x._e.items() if i > d})


def is_periodic(x: UniTriWindow, d: int) -> bool:
    """x equals its d-fold shift wherever both squares lie in the window."""
    if not 1 <= d < x.n:
        raise ValueError("period must satisfy 1 <= d < n")
    m = x.n - d
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            if x.get(i, j) != x.get(i + d, j + d):
                return False
    return True


def _check_pair(x, y):
    if x.ring != y.ring:
        raise ValueError("mismatched ring descriptors")
    if x.n != y.n:
        raise ValueError("mismatched window sizes")


# -- dense representation for closure enumeration --

class DenseOps:
    """Flat-tuple calculus for all strictly upper positions of one window.

    Elements are tuples of ring-encoded ints over the fixed position list;
    the identity is the zero tuple.  A product x y costs O(nnz(y) n) ring
    operations, O(n) for an elementary y.  Construction is O(n^3); ring
    arithmetic is Ring.int_ops, built once per field, so no table build.
    """

    def __init__(self, ring: Ring, n: int):
        self.ring = ring
        self.n = n
        self.positions = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        self.index = {pos: t for t, pos in enumerate(self.positions)}
        self._add, self._mul = ring.int_ops()
        self.identity = (0,) * len(self.positions)
        # per right-factor position (j, k): (index of (i, k), index of (i, j)), i < j
        self.right = [tuple((self.index[(i, k)], self.index[(i, j)]) for i in range(1, j))
                      for (j, k) in self.positions]

    def encode(self, x: UniTriWindow) -> tuple:
        if x.n != self.n or x.ring != self.ring:
            raise ValueError("window/ring mismatch")
        enc = self.ring.encode
        out = [0] * len(self.positions)
        for pos, v in x.items():
            out[self.index[pos]] = enc(v)
        return tuple(out)

    def decode(self, t: tuple) -> UniTriWindow:
        dec = self.ring.decode
        return UniTriWindow(self.ring, self.n,
                            {pos: dec(c) for pos, c in zip(self.positions, t) if c})

    def mul(self, x: tuple, y: tuple) -> tuple:
        """x y as offsets from the identity: X + Y + X Y, driven by y's nonzeros."""
        add, mul, right = self._add, self._mul, self.right
        out = list(x)
        for t, yv in enumerate(y):
            if yv:
                out[t] = add(out[t], yv)
                for ik, ij in right[t]:
                    xs = x[ij]
                    if xs:
                        out[ik] = add(out[ik], mul(xs, yv))
        return tuple(out)

    def inv(self, x: tuple) -> tuple:
        return self.encode(mat_inv(self.decode(x)))


def closure_dense(gens, cap=DEFAULT_CLOSURE_CAP, poll=None):
    """BFS closure; returns (DenseOps, set of dense keys)."""
    if not gens:
        raise ValueError("need at least one generator")
    ops = DenseOps(gens[0].ring, gens[0].n)
    enc_gens = [ops.encode(g) for g in gens]  # raises on a window/ring mismatch
    seen = {ops.identity}
    frontier = [ops.identity]
    steps = 0
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
                steps += 1
                if poll is not None and steps % CANCEL_POLL_INTERVAL == 0:
                    if poll():
                        raise ClosureCancelled("closure enumeration cancelled")
        frontier = nxt
    return ops, seen


def closure_order(gens, cap=DEFAULT_CLOSURE_CAP, poll=None) -> int:
    """Order of the subgroup generated inside the window's finite quotient."""
    _, seen = closure_dense(gens, cap, poll)
    return len(seen)


def closure_elements(gens, cap=DEFAULT_CLOSURE_CAP):
    ops, seen = closure_dense(gens, cap)
    return [ops.decode(t) for t in seen]
