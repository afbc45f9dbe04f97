"""Partition diagrams and partition subgroups.

A diagram is a set of strictly upper squares closed under completing the
rectangle: (i,j) and (j,k) present force (i,k).  Read by columns, the rule
says that a column holding row j holds all of column j, so column k depends
only on the columns to its left.  The subgroup a diagram carves out consists
of all matrices supported on its squares.  Finite windows carry a tail
descriptor for the columns beyond the window:

    empty        no squares beyond the window
    const(d)     every later column is the top segment of height d
    affine(c0)   column j is the top segment of height j - c0

Every named family in scope (lower central and derived series, congruence
levels, rectangular and staircase subgroups) is expressible this way.
Operations whose true result has no expressible tail return a windowed
diagram flagged tail_exact=False; asking such a diagram about columns beyond
its window raises TailUndetermined rather than guessing.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from itertools import accumulate

from .matrices import UniTriWindow, _rquo

EMPTY = "empty"
CONST = "const"
AFFINE = "affine"


class TailUndetermined(ValueError):
    pass


@dataclass(frozen=True)
class Tail:
    kind: str
    value: int = 0

    @staticmethod
    def empty() -> "Tail":
        return Tail(EMPTY)

    @staticmethod
    def const(d: int) -> "Tail":
        if d < 0:
            raise ValueError("constant tail height must be >= 0")
        return Tail(EMPTY) if d == 0 else Tail(CONST, d)

    @staticmethod
    def affine(c0: int) -> "Tail":
        if c0 < 1:
            raise ValueError("affine tail offset must be >= 1")
        return Tail(AFFINE, c0)

    @staticmethod
    def named(kind: str, value: int = 0) -> "Tail":
        """Tail of a kind spelt empty, const (or constant) or affine."""
        if kind == EMPTY:
            return Tail.empty()
        if kind in (CONST, "constant"):
            return Tail.const(value)
        if kind == AFFINE:
            return Tail.affine(value)
        raise ValueError(f"unknown tail kind {kind!r}")

    def height(self, j: int) -> int:
        """Column height for a column beyond the window."""
        if self.kind == AFFINE:
            return max(j - self.value, 0)
        return self.value

    def _key(self):
        # orders tails by their eventual heights: empty, const(d) by d, then
        # affine(c0) by decreasing c0
        return self.kind == AFFINE, -self.value if self.kind == AFFINE else self.value

    def to_json(self):
        if self.kind == EMPTY:
            return {"kind": "empty"}
        if self.kind == CONST:
            return {"kind": "const", "d": self.value}
        return {"kind": "affine", "c0": self.value}

    @staticmethod
    def from_json(d) -> "Tail":
        if d is None:
            return Tail.empty()
        kind = d["kind"]
        return Tail.named(kind, d.get("c0" if kind == AFFINE else "d", 0))


TAIL_EMPTY = Tail.empty()


class _IntSet:
    """Finite or upward-cofinite set of positive integers."""

    __slots__ = ("finite", "from_")

    def __init__(self, finite=(), from_=None):
        self.from_ = from_
        self.finite = frozenset(i for i in finite if from_ is None or i < from_)

    def __contains__(self, i):
        return i in self.finite or (self.from_ is not None and i >= self.from_)

    def is_empty(self):
        return not self.finite and self.from_ is None

    def max_finite(self):
        return max(self.finite) if self.finite else 0

    def suffix_start(self):
        """Least s with self == [s, oo), or None if not an exact suffix."""
        if self.from_ is None:
            return None
        s = self.from_
        while s - 1 in self.finite:
            s -= 1
        if any(i < s for i in self.finite):
            return None
        return s


def sum_range(lo: int, hi: int) -> int:
    """Sum of the integers in [max(lo, 0), hi]."""
    lo = max(lo, 0)
    if hi < lo:
        return 0
    return (hi * (hi + 1) - (lo - 1) * lo) // 2


def _square_columns(squares, window: int):
    """Row sets of columns 2..window holding the given squares."""
    if window < 2:
        raise ValueError("window must be >= 2")
    cols = [set() for _ in range(window - 1)]
    for r, c in squares:
        r, c = int(r), int(c)
        if not 1 <= r < c <= window:
            raise ValueError(f"square {(r, c)} needs 1 <= i < j <= {window}")
        cols[c - 2].add(r)
    return cols


def _close(cols):
    """Rectangle closure of column row sets, in place.

    Column k takes in column j for each row j >= 2 it holds.  The columns to
    its left are already closed when k is reached, so the rows it takes in
    bring nothing further, and one pass in column order closes the diagram.
    """
    for rows in cols:
        for j in [j for j in rows if j >= 2]:
            rows |= cols[j - 2]
    return cols


class PartitionDiagram:
    """Rectangle-closed square set on a window, plus a tail descriptor.

    Each windowed column j is stored as its height h_j, the length of its
    longest top segment 1..h_j, together with any rows it holds below that
    segment.  A partition is a diagram with no such rows.  Closure, the
    lattice, materialize, is_subset, orthogonal and centre work on the row
    set of each column; the square set is only a derived view.
    """

    def __init__(self, window: int, squares, tail: Tail = TAIL_EMPTY,
                 tail_exact: bool = True):
        cols = _square_columns(squares, window)
        for k, rows in enumerate(cols, 2):
            for j in rows:
                missing = cols[j - 2] - rows if j >= 2 else ()
                if missing:
                    i = min(missing)
                    raise ValueError(f"square set not rectangle closed: "
                                     f"{(i, j)} and {(j, k)} need {(i, k)}")
        self._store_columns(cols, tail, tail_exact)

    @staticmethod
    def _from_columns(cols, tail: Tail = TAIL_EMPTY,
                      tail_exact: bool = True) -> "PartitionDiagram":
        """Diagram whose column j holds the rows cols[j - 2]; cols must be closed."""
        diagram = PartitionDiagram.__new__(PartitionDiagram)
        diagram._store_columns(cols, tail, tail_exact)
        return diagram

    def _store_columns(self, cols, tail, tail_exact):
        heights = []
        below = {}
        for j, rows in enumerate(cols, 2):
            h = 0
            while h + 1 in rows:
                h += 1
            heights.append(h)
            if len(rows) > h:
                below[j] = frozenset(r for r in rows if r > h)
        self._store(len(cols) + 1, heights, below, tail, tail_exact)

    def _store(self, window, heights, below, tail, tail_exact):
        if tail.kind == CONST and tail.value > window:
            raise ValueError("constant tail height exceeds window")
        if tail.kind == AFFINE and tail.value > window + 1:
            raise ValueError("affine tail offset exceeds window + 1")
        self.window = window
        self.tail = tail
        self.tail_exact = bool(tail_exact)
        self._heights = tuple(heights)   # h_j at index j - 2, j = 2..window
        self._below = below              # column -> rows under its top segment
        self._squares = None
        self._prefix = None
        self._canon = None

    # -- basic queries --

    @property
    def squares(self) -> frozenset:
        """The squares inside the window, built on first use."""
        if self._squares is None:
            self._squares = frozenset((i, j) for j, rows in enumerate(self._columns(), 2)
                                      for i in rows)
        return self._squares

    def _height(self, j: int) -> int:
        return self._heights[j - 2] if 2 <= j <= self.window else 0

    def column(self, j: int):
        """Set of rows present in column j (tail-aware)."""
        if j <= self.window:
            return set(range(1, self._height(j) + 1)).union(self._below.get(j, ()))
        self._need_tail(f"column {j}")
        return set(range(1, self.tail.height(j) + 1))

    def _columns(self, w: int | None = None):
        """Row set of each column 2..w (the window by default), tail columns included."""
        return [self.column(j) for j in range(2, (w or self.window) + 1)]

    def has_square(self, i: int, j: int) -> bool:
        if j <= self.window:
            return 1 <= i <= self._height(j) or i in self._below.get(j, ())
        self._need_tail(f"square {(i, j)}")
        return 1 <= i <= self.tail.height(j)

    def count_upto(self, n: int) -> int:
        """Number of squares in columns 2..n."""
        if n < 2:
            return 0
        if self._prefix is None:
            self._prefix = [0, 0, *accumulate(
                h + len(self._below.get(j, ())) for j, h in enumerate(self._heights, 2))]
        if n <= self.window:
            return self._prefix[n]
        self._need_tail("count beyond the window")
        total = self._prefix[-1]
        t = self.tail
        if t.kind == CONST:
            total += t.value * (n - self.window)
        elif t.kind == AFFINE:
            total += sum_range(self.window + 1 - t.value, n - t.value)
        return total

    def quotient_order(self, n: int, q: int) -> int:
        """Order of the image of the partition subgroup in the window-n quotient."""
        return q ** self.count_upto(n)

    def is_partition(self) -> bool:
        """Every windowed column is a full top segment."""
        return not self._below

    def heights(self):
        """Column heights for j = 2..window; error if not a partition."""
        if not self.is_partition():
            raise ValueError("diagram is not a partition")
        return list(self._heights)

    def rows_used(self) -> _IntSet:
        rows = set(range(1, max(self._heights) + 1)).union(*self._below.values())
        t = self.tail
        if t.kind == AFFINE:
            return _IntSet(rows, from_=1)
        return _IntSet(rows | set(range(1, t.value + 1)))

    def cols_used(self) -> _IntSet:
        cols = {j for j, h in enumerate(self._heights, 2) if h}.union(self._below)
        t = self.tail
        if t.kind == CONST:
            return _IntSet(cols, from_=self.window + 1)
        if t.kind == AFFINE:
            return _IntSet(cols, from_=max(self.window + 1, t.value + 1))
        return _IntSet(cols)

    def _need_tail(self, what):
        if not self.tail_exact:
            raise TailUndetermined(f"{what} lies beyond an undetermined tail")

    # -- canonical form, equality --

    def _canonical(self):
        if self._canon is None:
            w, t = self.window, self.tail
            if self.tail_exact:
                # drop trailing columns that the tail already describes
                while (w > 2 and w not in self._below
                       and self._heights[w - 2] == t.height(w)
                       and not (t.kind == AFFINE and t.value > w)):
                    w -= 1
            below = tuple(sorted((j, tuple(sorted(rows)))
                                 for j, rows in self._below.items() if j <= w))
            self._canon = (w, self._heights[:w - 1], below, t, self.tail_exact)
        return self._canon

    def __eq__(self, other):
        return (isinstance(other, PartitionDiagram)
                and self._canonical() == other._canonical())

    def __hash__(self):
        return hash(self._canonical())

    def __repr__(self):
        w, _, _, t, exact = self._canonical()
        sq = sorted(s for s in self.squares if s[1] <= w)
        tail = "" if t.kind == EMPTY else f", tail={t.kind}:{t.value}"
        flag = "" if exact else ", tail undetermined"
        return f"<diagram window {w}, squares {sq}{tail}{flag}>"

    def materialize(self, w: int) -> "PartitionDiagram":
        """Re-window to w >= window, filling tail columns explicitly."""
        if w < self.window:
            raise ValueError("materialize only enlarges the window")
        if w == self.window:
            return self
        # appending top-segment columns cannot break closure
        return PartitionDiagram._from_columns(self._columns(w), self.tail)

    def cut(self, n: int) -> "PartitionDiagram":
        """The squares in columns 2..max(n, 2), with an empty tail; a column
        takes in only columns to its left, so the cut stays closed."""
        return PartitionDiagram._from_columns(self._columns(max(n, 2)))

    def is_subset(self, other: "PartitionDiagram") -> bool:
        w = _combine_window(self, other)
        return (all(a <= b for a, b in zip(self._columns(w), other._columns(w)))
                and self.tail._key() <= other.tail._key())

    # -- structure --

    def max_subpartition(self) -> "Partition":
        """The unique maximal subpartition: longest full top segments."""
        return Partition(self._heights, self.tail, tail_exact=self.tail_exact)

    def orthogonal(self) -> "PartitionDiagram":
        """Squares (k,l) with k never a column index and l never a row index.

        Carrier of the centralizer of the partition subgroup.  Computed on an
        enlarged window; flagged windowed-only when the true continuation is
        not a top-segment family.
        """
        self._need_tail("orthogonal")
        return self._keep_unused(_FULL, 2 * self.window)

    def centre(self) -> "PartitionDiagram":
        """Intersection with the orthogonal diagram: support of Z(P_mu)."""
        self._need_tail("centre")
        return self._keep_unused(self, self.window)

    def _keep_unused(self, base: "PartitionDiagram", w: int) -> "PartitionDiagram":
        """Squares (i,j) of base, i never a column index of self and j never a
        row index, on a window of at least w.  Filtering a closed diagram by
        rows and columns keeps it closed."""
        bad_rows = self.cols_used()
        bad_cols = self.rows_used()
        w = max(w, bad_rows.max_finite() + 1, bad_cols.max_finite() + 1)
        cols = [set() if j in bad_cols else {i for i in base.column(j) if i not in bad_rows}
                for j in range(2, w + 1)]
        return PartitionDiagram._from_columns(cols, *_filtered_tail(base.tail, bad_rows,
                                                                    bad_cols, w))

    def normal_core(self) -> "Partition":
        """Largest normal partition subgroup contained in this one.

        Column j receives the largest height h such that rows 1..h are
        present in every column k >= j; the infimum runs through the tail.
        """
        self._need_tail("normal core")
        parts = []
        run = self.tail.height(self.window + 1)
        for h in reversed(self._heights):
            run = min(run, h)
            parts.append(run)
        parts.reverse()
        return Partition(parts, self.tail)

    def normal_closure(self) -> "Partition":
        """Smallest normal partition subgroup containing this one.

        Adds every square weakly covered by a present square, i.e. all (i,j)
        with i <= r and j >= c for some present (r,c).
        """
        self._need_tail("normal closure")
        rowmax = [max(self._below[j]) if j in self._below else h
                  for j, h in enumerate(self._heights, 2)]
        parts = list(accumulate(rowmax, max))
        run = parts[-1]
        t = self.tail
        if t.kind == AFFINE:
            # the running maximum holds until the tail reaches it at column run + c0
            parts += [run] * (run + t.value - self.window)
            return Partition(parts, t)
        return Partition(parts, Tail.const(max(run, t.value)))

    def is_normal(self) -> bool:
        """Partition with non-decreasing heights, tail included."""
        self._need_tail("normality")
        if not self.is_partition():
            return False
        hs = (*self._heights, self.tail.height(self.window + 1))
        return all(a <= b for a, b in zip(hs, hs[1:]))

    def is_open(self) -> bool:
        """All sufficiently late columns full: affine tail with offset 1."""
        self._need_tail("openness")
        return self.tail.kind == AFFINE and self.tail.value == 1

    def __or__(self, other):
        return lattice_union(self, other)

    def __and__(self, other):
        return lattice_intersect(self, other)

    def to_json(self):
        return {"window": self.window,
                "squares": sorted([r, c] for (r, c) in self.squares),
                "tail": self.tail.to_json(),
                "exact": self.tail_exact}

    @staticmethod
    def from_json(d) -> "PartitionDiagram":
        if "parts" in d:
            return Partition(d["parts"], Tail.from_json(d.get("tail")))
        return PartitionDiagram(d["window"], [tuple(s) for s in d["squares"]],
                                Tail.from_json(d.get("tail")), d.get("exact", True))


class Partition(PartitionDiagram):
    """Diagram whose columns are full top segments, stored as their heights.

    parts[j - 2] is the height of column j; full top segments are closed
    under completing the rectangle, so the parts need only range checks.
    """

    def __init__(self, parts, tail: Tail = TAIL_EMPTY, tail_exact: bool = True):
        parts = [int(h) for h in parts]
        for j, h in enumerate(parts, 2):
            if not 0 <= h <= j - 1:
                raise ValueError(f"part {h} out of range for column {j}")
        self._store(max(len(parts) + 1, 2), parts or [0], {}, tail, tail_exact)

    @property
    def parts(self):
        return self.heights()


# every strictly upper square: the diagram that orthogonal() filters
_FULL = Partition([1], Tail.affine(1))


def _filtered_tail(t: Tail, bad_rows: _IntSet, bad_cols: _IntSet, w: int):
    """Tail of {(i,j) : i <= h_t(j), i ok, j ok} for columns beyond w."""
    if t.kind == EMPTY:
        return TAIL_EMPTY, True
    if bad_cols.from_ is not None:
        return TAIL_EMPTY, bad_cols.from_ <= w + 1
    if bad_rows.is_empty():
        return t, True
    if t.kind == CONST:
        inside = sorted(r for r in range(1, t.value + 1) if r in bad_rows)
        if not inside:
            return t, True
        if inside == list(range(inside[0], t.value + 1)):
            return Tail.const(inside[0] - 1), True
        return TAIL_EMPTY, False
    s = bad_rows.suffix_start()
    if s is not None:
        return Tail.const(s - 1), True
    return TAIL_EMPTY, False


def rect_closure(squares, window: int, tail: Tail = TAIL_EMPTY) -> PartitionDiagram:
    """Least rectangle-closed superset within the window; idempotent."""
    return PartitionDiagram._from_columns(_close(_square_columns(squares, window)), tail)


def _combine_window(m1: PartitionDiagram, m2: PartitionDiagram) -> int:
    # mixed const/affine tails agree with a pure tail past the crossover
    w = max(m1.window, m2.window)
    for a, b in ((m1.tail, m2.tail), (m2.tail, m1.tail)):
        if a.kind == CONST and b.kind == AFFINE:
            w = max(w, a.value + b.value)
    return w


def _operands(m1: PartitionDiagram, m2: PartitionDiagram, pick):
    """Both operands' columns on a common window, and the tail pick(t1, t2).

    With an undetermined tail on either side the result keeps only the
    smaller window, with an undetermined empty tail.
    """
    if m1.tail_exact and m2.tail_exact:
        w, tail, exact = _combine_window(m1, m2), pick(m1.tail, m2.tail, key=Tail._key), True
    else:
        w, tail, exact = min(m1.window, m2.window), TAIL_EMPTY, False
    return m1._columns(w), m2._columns(w), tail, exact


def lattice_union(m1: PartitionDiagram, m2: PartitionDiagram) -> PartitionDiagram:
    """Smallest diagram containing both: column union then rectangle completion."""
    c1, c2, tail, exact = _operands(m1, m2, max)
    return PartitionDiagram._from_columns(_close([a | b for a, b in zip(c1, c2)]),
                                          tail, exact)


def lattice_intersect(m1: PartitionDiagram, m2: PartitionDiagram) -> PartitionDiagram:
    """Largest diagram inside both: column intersection, closed as it stands."""
    c1, c2, tail, exact = _operands(m1, m2, min)
    return PartitionDiagram._from_columns([a & b for a, b in zip(c1, c2)], tail, exact)


# -- named families --

def lower_central(d: int, window: int | None = None) -> Partition:
    """Support of the d-th term of the lower central series (d >= 1)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    w = max(window or 0, d, 2)
    return Partition([max(j - d, 0) for j in range(2, w + 1)], Tail.affine(d))


def derived_series(d: int, window: int | None = None) -> Partition:
    """Support of the d-th derived subgroup (d >= 1): lower central with
    offset 2^(d-1)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return lower_central(2 ** (d - 1), window)


def congruence_level(c: int, window: int | None = None) -> Partition:
    """Identity leading c x c block: the c-th principal congruence subgroup."""
    if c < 1:
        raise ValueError("c must be >= 1")
    w = max(window or 0, c, 2)
    return Partition([j - 1 if j > c else 0 for j in range(2, w + 1)], Tail.affine(1))


def rectangular(c: int, d: int) -> Partition:
    """Heights 0 through column c+1, then constant d, with 0 < d <= c."""
    if not 0 < d <= c:
        raise ValueError("rectangular family needs 0 < d <= c")
    return Partition([0] * c, Tail.const(d))


def staircase(blocks) -> Partition:
    """Cross-block squares of a block-diagonal splitting.

    Heights step up at each block boundary.  The final listed block is
    treated as extending indefinitely, which matches the windowed content.
    """
    blocks = [int(b) for b in blocks]
    if not blocks or any(b < 1 for b in blocks):
        raise ValueError("blocks must be positive")
    starts = [1]
    for b in blocks:
        starts.append(starts[-1] + b)
    total = starts[-1] - 1
    parts = []
    for j in range(2, total + 1):
        blk = max(i for i, s in enumerate(starts[:-1]) if s <= j)
        parts.append(starts[blk] - 1)
    tail = Tail.const(starts[-2] - 1) if len(blocks) > 1 else TAIL_EMPTY
    return Partition(parts, tail)


def family(kind: str, *args) -> PartitionDiagram:
    """Dispatch by family name, mainly for the CLI."""
    table = {
        "lower-central": (lower_central, "d[,window]"),
        "derived": (derived_series, "d[,window]"),
        "level": (congruence_level, "c[,window]"),
        "rectangular": (rectangular, "c,d"),
        "staircase": (lambda *a: staircase(a), "b1,b2,..."),
    }
    if kind not in table:
        raise ValueError(f"unknown family {kind!r}; have {sorted(table)}")
    fn, usage = table[kind]
    try:
        inspect.signature(fn).bind(*args)
    except TypeError:
        raise ValueError(f"family {kind!r} takes arguments {kind}:{usage}, "
                         f"got {len(args)}") from None
    return fn(*args)


# -- normal-subgroup calculus --

def commutator_with_group(mu: Partition) -> Partition:
    """[P_mu, G] for normal mu: keep exactly the strictly covered squares.

    On heights this reads m'_j = max(m_{j-1}, m_j - 1): corner squares are
    deleted.  Iterating from the full diagram walks the lower central series.
    """
    _require_normal(mu)
    t = mu.tail
    hs = [0, *mu.parts, t.height(mu.window + 1)]
    parts = [max(prev, h - 1) for prev, h in zip(hs, hs[1:])]
    return Partition(parts, Tail.affine(t.value + 1) if t.kind == AFFINE else t)


def centre_preimage(mu: Partition) -> Partition:
    """Preimage of the centre of G/P_mu: squares all of whose strictly
    covered squares lie in mu.  On heights: min(m_j + 1, m_{j+1}, j - 1)."""
    _require_normal(mu)
    t = mu.tail
    hs = [*mu.parts, t.height(mu.window + 1)]
    parts = [min(h + 1, nxt, j - 1) for j, (h, nxt) in enumerate(zip(hs, hs[1:]), 2)]
    return Partition(parts, Tail.affine(max(t.value - 1, 1)) if t.kind == AFFINE else t)


def _require_normal(mu):
    if not isinstance(mu, PartitionDiagram) or not mu.is_normal():
        raise ValueError("operation requires a normal partition")


# -- matrices against diagrams --

def membership(x: UniTriWindow, mu: PartitionDiagram) -> bool:
    """True iff every nonzero entry of x lies on a square of mu."""
    has = mu.has_square
    return all(has(i, j) for i, row in x.rows().items() for j in row)


def subgroup_generators(mu: PartitionDiagram, ring, n: int):
    """Elementary generators 1 + a e_(r,c) over a coefficient basis, one per
    square of mu inside window n."""
    coeffs = [a.code for a in ring.basis_elems()]
    gens = []
    for j in range(2, n + 1):
        for i in sorted(mu.column(j)):
            gens.extend(UniTriWindow.from_rows(ring, n, {i: {j: a}}) for a in coeffs)
    return gens


def string_decompose(x: UniTriWindow, blocks):
    """Split x = p * s with s the block-diagonal part and p supported on the
    cross-block staircase; the decomposition is unique."""
    blocks = [int(b) for b in blocks]
    if sum(blocks) != x.n:
        raise ValueError("block sizes must sum to the window size")
    starts = [1]
    for b in blocks:
        starts.append(starts[-1] + b)

    def blk(i):
        return max(t for t, s in enumerate(starts) if s <= i)

    s_entries = {pos: v for pos, v in x.items() if blk(pos[0]) == blk(pos[1])}
    s = UniTriWindow(x.ring, x.n, s_entries)
    p = UniTriWindow.from_rows(x.ring, x.n, _rquo(x.ring.ops, x.rows(), s.rows(), x.n))
    return p, s


# -- text and JSON formats --

def format_partition(mu: Partition) -> str:
    """Run-length text form, e.g. (0^2,1^2,2^3|tail=const:2)."""
    runs = []
    for h in mu.parts:
        if runs and runs[-1][0] == h:
            runs[-1][1] += 1
        else:
            runs.append([h, 1])
    body = ",".join(f"{h}^{c}" if c > 1 else str(h) for h, c in runs)
    t = mu.tail
    if t.kind == EMPTY:
        return f"({body})"
    return f"({body}|tail={t.kind}:{t.value})"


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError("partition text must be parenthesised")
    inner = text[1:-1]
    tail = TAIL_EMPTY
    if "|" in inner:
        inner, tail_text = inner.split("|", 1)
        if not tail_text.startswith("tail="):
            raise ValueError("expected |tail=kind:value")
        kind, _, val = tail_text[5:].partition(":")
        tail = Tail.named(kind, 0 if kind == EMPTY else int(val))
    parts = []
    inner = inner.strip()
    if inner:
        for tok in inner.split(","):
            tok = tok.strip()
            if "^" in tok:
                h, c = tok.split("^")
                if int(c) < 1:
                    raise ValueError(f"run count must be >= 1 in {tok!r}")
                parts.extend([int(h)] * int(c))
            else:
                parts.append(int(tok))
    return Partition(parts, tail)


def parse_squares(text: str):
    """Square list like "(3,4) (1,2)" or "(3,4);(1,2)"."""
    out = []
    for tok in text.replace(";", " ").split(")"):
        tok = tok.strip().lstrip(",").strip().lstrip("(")
        if not tok:
            continue
        r, c = (int(t) for t in tok.split(","))
        if not 1 <= r < c:
            raise ValueError(f"square {(r, c)} needs 1 <= i < j")
        out.append((r, c))
    if not out:
        raise ValueError(f"no squares in {text!r}")
    return out
