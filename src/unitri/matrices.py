"""Windowed upper unitriangular matrices over a coefficient ring.

A window of size n is the image of an infinite-group element under
truncation to its leading n x n block.  Entries are stored by rows as ring
codes (Ring.encode), {i: {j: code}} with no empty row and no zero code, and
decoded only at the API boundary; the diagonal is implicitly 1.  Group
closure enumeration runs on dense keys of the same codes, one per strictly
upper position: a bytes string when the ring's codes fit in a byte, a tuple
otherwise.

Every kernel builds its result one row at a time through the row update of
Ring.ops, which adds c (e_j + row j) for each coefficient c at column j: row
i of the product x y is y_i plus that update over x_i with the rows of y, so
a product costs O(nnz(y) n) ring operations.  Division has one kernel, the
left quotient (1 + a)^-1 (1 + b), solved bottom-up, z_i = b_i - a_i -
sum_j a_ij z_j: the same update as a product, with no heap.  mat_inv is the
left quotient of the identity and a commutator (y x)^-1 (x y) that of x y
by y x; a conjugate g x g^-1 is a right quotient, the flip of the left
quotient of the flips (flip, the anti-transpose, reverses products).  Only
series reversion, which needs the first row of an inverse alone, solves
rows by back-substitution with a heap of pending columns.  distance
computes no product: truncation is a homomorphism, so it reads the first
column in which two windows differ.
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

    Holds its rows, {i: {j: nonzero code}} with no empty row, which
    from_rows and rows build and read inside the package; codes and
    from_codes give the same entries as a dict from position to code.  get,
    items and repr decode, and to_json prints each entry from its code
    (Ring.format_code).
    """

    __slots__ = ("ring", "n", "_rows", "_key")

    def __init__(self, ring: Ring, n: int, entries=None):
        if n < 1:
            raise ValueError("window size must be >= 1")
        self.ring = ring
        self.n = n
        rows = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for (i, j), v in items:
                if not (1 <= i < j <= n):
                    raise ValueError(f"entry position {(i, j)} outside window")
                c = ring.elem(v).code
                if c:
                    row = rows.get(i)
                    if row is None:
                        rows[i] = {j: c}
                    else:
                        row[j] = c
        self._rows = rows
        self._key = None

    @classmethod
    def from_rows(cls, ring: Ring, n: int, rows: dict) -> "UniTriWindow":
        """The window on rows, {i: {j: nonzero code}} with no empty row, taken
        unchecked and kept, not copied."""
        x = object.__new__(cls)
        x.ring, x.n, x._rows, x._key = ring, n, rows, None
        return x

    @classmethod
    def from_codes(cls, ring: Ring, n: int, codes: dict) -> "UniTriWindow":
        """The window on codes, position -> code, taken unchecked; zero codes
        are dropped."""
        x = object.__new__(cls)
        x.ring, x.n, x._rows, x._key = ring, n, _gather(codes.items()), None
        return x

    def rows(self) -> dict:
        """The rows {i: {j: nonzero code}}; do not modify them."""
        return self._rows

    def codes(self) -> dict:
        """A new dict from position to nonzero code."""
        return {(i, j): c for i, row in self._rows.items() for j, c in row.items()}

    def get(self, i: int, j: int) -> RingElem:
        row = self._rows.get(i)
        return self.ring.decode(row.get(j, 0) if row else 0)

    def items(self):
        decode = self.ring.decode
        return [((i, j), decode(c)) for i, row in self._rows.items() for j, c in row.items()]

    def positions(self):
        return {(i, j) for i, row in self._rows.items() for j in row}

    def is_identity(self) -> bool:
        return not self._rows

    def key(self):
        if self._key is None:
            rows = self._rows
            self._key = tuple(((i, j), c) for i in sorted(rows)
                              for j, c in sorted(rows[i].items()))
        return self._key

    def __eq__(self, other):
        return (isinstance(other, UniTriWindow) and self.ring == other.ring
                and self.n == other.n and self._rows == other._rows)

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
        return {"ring": self.ring.to_json(), "n": self.n, "entries": self.json_entries()}

    def json_entries(self) -> list:
        """The JSON entries [i, j, printed value], by position."""
        fmt, rows, out = self.ring.format_code, self._rows, []
        for i in sorted(rows):
            row = rows[i]
            for j in sorted(row):
                out.append([i, j, fmt(row[j])])
        return out

    @staticmethod
    def from_json(d: dict) -> "UniTriWindow":
        ring = Ring.from_json(d["ring"])
        return UniTriWindow(ring, d["n"], {(i, j): v for i, j, v in d["entries"]})


def _gather(items) -> dict:
    """The rows of the (position, code) pairs items, zero codes dropped; a
    run of pairs in one row, as in row-major order, looks up its row once."""
    rows, last = {}, None
    for (i, j), c in items:
        if c:
            if i != last:
                row = rows.get(i)
                if row is None:
                    row = rows[i] = {}
                last = i
            row[j] = c
    return rows


def identity(ring: Ring, n: int) -> UniTriWindow:
    return UniTriWindow(ring, n)


def elementary(ring: Ring, n: int, i: int, j: int, a=1) -> UniTriWindow:
    return UniTriWindow(ring, n, {(i, j): a})


def _mul(ops, x: dict, y: dict) -> dict:
    """The rows of (1 + x)(1 + y): row i is y_i + sum_j x_ij (e_j + y_j)."""
    addrows, clean = ops.addrows, ops.clean
    out = dict(y)
    for i, xi in x.items():
        yi = y.get(i)
        acc = dict(yi) if yi else {}
        addrows(acc, xi, y)
        row = clean(acc)
        if row:
            out[i] = row
        elif yi:
            del out[i]
    return out


def _lquo(ops, a: dict, b: dict) -> dict:
    """The rows of the left quotient (1 + a)^-1 (1 + b).

    Row i of z solves z_i + sum_j a_ij (e_j + z_j) = b_i, and only rows j > i
    enter it, so the rows of a are solved bottom-up, each by one row update
    over a_i; a row that a lacks is b's.
    """
    addrows, clean = ops.addrows, ops.clean
    out = dict(b)
    for i in sorted(a, reverse=True):
        bi = b.get(i)
        acc = dict(bi) if bi else {}
        addrows(acc, a[i], out, True)
        row = clean(acc)
        if row:
            out[i] = row
        elif bi:
            del out[i]
    return out


def _flip(rows: dict, n: int) -> dict:
    """The rows of the anti-transpose (i, j) -> (n+1-j, n+1-i)."""
    m, out = n + 1, {}
    for i, row in rows.items():
        mi = m - i
        for j, c in row.items():
            r = out.get(m - j)
            if r is None:
                out[m - j] = {mi: c}
            else:
                r[mi] = c
    return out


def _rquo(ops, b: dict, a: dict, n: int) -> dict:
    """The rows of the right quotient (1 + b)(1 + a)^-1, the flip of the left
    quotient of the flips, as flip reverses products."""
    return _flip(_lquo(ops, _flip(a, n), _flip(b, n)), n)


def _inv_rows(x: UniTriWindow, rows) -> UniTriWindow:
    """The named rows of x^-1, the rest zero, by sparse back-substitution.

    Row i of y = x^-1 solves (e_i + y_i) x = e_i, so y_ik = -(x_ik +
    sum_{i<j<k} y_ij x_jk).  Each row takes its columns in increasing order
    from a heap that holds only the columns receiving a contribution, and
    the row update adds y_ik (e_k + x_k), which also cancels column k; so a
    row costs O(nnz) ring operations in the rows it reaches, not O(n^3).
    """
    ops = x.ring.ops
    neg, addrows = ops.neg, ops.addrows
    xr = x._rows
    out = {}
    for i in rows:
        acc = dict(xr.get(i, ()))
        pending = list(acc)
        heapify(pending)
        yi = {}
        while pending:
            k = heappop(pending)
            c = neg(acc[k])
            if c:
                yi[k] = c
                xk = xr.get(k)
                if xk:
                    for m in xk:
                        if m not in acc:
                            heappush(pending, m)
                addrows(acc, {k: c}, xr)
        if yi:
            out[i] = yi
    return UniTriWindow.from_rows(x.ring, x.n, out)


def mat_mul(x: UniTriWindow, y: UniTriWindow) -> UniTriWindow:
    _check_pair(x, y)
    return UniTriWindow.from_rows(x.ring, x.n, _mul(x.ring.ops, x._rows, y._rows))


def mat_inv(x: UniTriWindow) -> UniTriWindow:
    """The inverse of x: the left quotient of the identity by x."""
    return UniTriWindow.from_rows(x.ring, x.n, _lquo(x.ring.ops, x._rows, {}))


def flip(x: UniTriWindow) -> UniTriWindow:
    """The anti-transpose (i, j) -> (n+1-j, n+1-i); flip(x y) = flip(y) flip(x)."""
    return UniTriWindow.from_rows(x.ring, x.n, _flip(x._rows, x.n))


def commutator(x: UniTriWindow, y: UniTriWindow) -> UniTriWindow:
    """[x, y] = x^-1 y^-1 x y = (y x)^-1 (x y), the left quotient of x y by y x."""
    _check_pair(x, y)
    ops, xr, yr = x.ring.ops, x._rows, y._rows
    return UniTriWindow.from_rows(x.ring, x.n, _lquo(ops, _mul(ops, yr, xr), _mul(ops, xr, yr)))


def conjugate(g: UniTriWindow, x: UniTriWindow) -> UniTriWindow:
    """g x g^-1, the right quotient of g x by g."""
    _check_pair(g, x)
    ops, gr = g.ring.ops, g._rows
    return UniTriWindow.from_rows(g.ring, g.n, _rquo(ops, _mul(ops, gr, x._rows), gr, g.n))


def valuation(x: UniTriWindow) -> int:
    """Largest m with identity leading m x m block; n for the identity window.

    The sentinel n means "at least n": the element is indistinguishable from
    the identity at this truncation.
    """
    if not x._rows:
        return x.n
    return min(min(row) for row in x._rows.values()) - 1


def distance(x: UniTriWindow, y: UniTriWindow) -> Fraction:
    """The ultrametric d(x, y) = p^-valuation(x^-1 y).

    Truncation is a homomorphism, so x^-1 y is the identity on the leading
    m x m block exactly when x and y agree there: valuation(x^-1 y) + 1 is
    the least column where x and y differ, and n when they are equal.
    """
    _check_pair(x, y)
    xr, yr = x._rows, y._rows
    v = x.n
    for i in xr.keys() | yr.keys():
        xi, yi = xr.get(i, {}), yr.get(i, {})
        if xi != yi:
            v = min(v, min(j for j, _ in xi.items() ^ yi.items()) - 1)
    return Fraction(1, x.ring.p) ** v


def truncate(x: UniTriWindow, m: int) -> UniTriWindow:
    if m > x.n:
        raise ValueError("cannot truncate to a larger window")
    if m < 1:
        raise ValueError("window size must be >= 1")
    if m == x.n:
        return x
    out = {}
    for i, row in x._rows.items():
        if i < m:
            kept = {j: c for j, c in row.items() if j <= m}
            if kept:
                out[i] = kept
    return UniTriWindow.from_rows(x.ring, m, out)


def extend(x: UniTriWindow, m: int) -> UniTriWindow:
    """Pad with zero entries to a larger window (a section of truncation)."""
    if m < x.n:
        raise ValueError("cannot extend to a smaller window")
    return UniTriWindow.from_rows(x.ring, m, x._rows)


def shift(x: UniTriWindow, d: int) -> UniTriWindow:
    """Delete the first d rows and columns."""
    if not 0 <= d < x.n:
        raise ValueError("shift amount must satisfy 0 <= d < n")
    return UniTriWindow.from_rows(x.ring, x.n - d,
                                  {i - d: {j - d: c for j, c in row.items()}
                                   for i, row in x._rows.items() if i > d})


def is_periodic(x: UniTriWindow, d: int) -> bool:
    """x equals its d-fold shift wherever both squares lie in the window.

    Reads the stored entries only: an entry in the leading (n-d)-block must
    reappear d steps down the diagonal, and an entry below row d must
    appear d steps up it.
    """
    if not 1 <= d < x.n:
        raise ValueError("period must satisfy 1 <= d < n")
    m = x.n - d
    rows, empty = x._rows, {}
    for i, row in rows.items():
        down, up = rows.get(i + d, empty), rows.get(i - d, empty)
        for j, c in row.items():
            if j <= m and down.get(j + d) != c:
                return False
            if i > d and up.get(j - d) != c:
                return False
    return True


def _check_pair(x, y):
    if x.ring is not y.ring and x.ring != y.ring:
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
        # (i, j) sits at offset[i] + j; row i spans offset[i] + i + 1 .. offset[i] + n
        self.offset = [(i - 1) * n - i * (i - 1) // 2 - i - 1 for i in range(n + 1)]
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
        out, offset = self._build(self.identity), self.offset
        for i, row in x._rows.items():
            o = offset[i]
            for j, c in row.items():
                out[o + j] = c
        return self._pack(out)

    def decode(self, t) -> UniTriWindow:
        return UniTriWindow.from_rows(self.ring, self.n,
                                      _gather(compress(zip(self.positions, t), t)))

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
