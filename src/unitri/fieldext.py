"""Scalar restriction and extension between windows over F_q and F_p.

Restriction replaces each entry by its regular representation block, an
injective continuous homomorphism landing f times deeper in the filtration;
extension includes prime-field entries into the bigger field.  The linear
centralizer solver realizes C(.) inside a window: commuting with a fixed
element is a linear condition on the strictly upper entries.
"""

from __future__ import annotations

from fractions import Fraction

from .matrices import UniTriWindow
from .rings import Ring, regular_rep, row_reduce


class EmbeddingContext:
    """Fixed (p, f) pair with the extension field's basis pinned down.

    The restriction map depends on the basis choice; contexts with different
    bases give conjugate but unequal images, so the basis is serialized with
    every output.
    """

    def __init__(self, p: int, f: int, modulus=None, basis=None):
        self.ring_q = Ring.ext_field(p, f, modulus, basis)
        self.ring_p = Ring.prime_field(p)
        self.p = p
        self.f = f

    def to_json(self):
        return self.ring_q.to_json()

    def __repr__(self):
        return f"EmbeddingContext(p={self.p}, f={self.f})"


def restrict_scalars(ctx: EmbeddingContext, x: UniTriWindow) -> UniTriWindow:
    """Window n over F_q -> window n*f over F_p, blockwise regular rep."""
    if x.ring != ctx.ring_q:
        raise ValueError("element not over the context's extension field")
    f = ctx.f
    entries = {}
    for (i, j), v in x.items():
        block = regular_rep(v)
        for bi in range(f):
            for bj in range(f):
                c = block[bi][bj]
                if c:
                    entries[((i - 1) * f + bi + 1, (j - 1) * f + bj + 1)] = c
    return UniTriWindow(ctx.ring_p, x.n * f, entries)


def extend_scalars(ctx: EmbeddingContext, x: UniTriWindow) -> UniTriWindow:
    """Entrywise inclusion F_p -> F_q on the same window."""
    if x.ring != ctx.ring_p:
        raise ValueError("element not over the context's prime field")
    # the F_p code c is the constant vector (c, 0, ..., 0), whose F_q code is c
    return UniTriWindow.from_rows(ctx.ring_q, x.n, x.rows())


def restricted_image_log_order(ctx: EmbeddingContext, n: int) -> int:
    """Exact log_p of the restricted image in the window-n quotient over F_p.

    With n = r f + s: the full blocks contribute f r(r-1)/2 and any partial
    block column determines its extension entry completely, adding f r more.
    """
    r, s = divmod(n, ctx.f)
    e = ctx.f * (r * (r - 1) // 2)
    if s >= 1:
        e += ctx.f * r
    return e


def sandwich_bounds(f: int, n: int):
    """Rational bounds enclosing the restricted image's dimension ratio."""
    r = n // f
    den = n * (n - 1)
    return Fraction(f * r * (r - 1), den), Fraction(f * r * (r + 1), den)


def extension_image_ratio(f: int) -> Fraction:
    """log_q of the prime-subfield image over log_q of the window group."""
    return Fraction(1, f)


# -- linear centralizer solver --

def _solve_nullspace(rows, positions, ring):
    """Nullspace basis of a sparse linear system over a field ring, on codes:
    rows are an iterable of dicts from column index into positions to code.
    Returns (dimension, basis), one dict positions -> code per free column."""
    neg = ring.ops.neg
    reduced, pivots = row_reduce(rows, ring)
    pivot_cols = set(pivots)
    basis = {c: {positions[c]: 1} for c in range(len(positions)) if c not in pivot_cols}
    for row, col in zip(reduced, pivots):
        for c, v in row.items():
            if c != col:
                basis[c][positions[col]] = neg(v)
    return len(basis), list(basis.values())


def _centralizer_rows(gens, ring: Ring, n: int):
    """The rows of the stacked systems [x, y] = 0, as dicts from column to
    code, column off[i] + j standing for x_ij; one generator at a time, so
    memory stays with the pivots.

    A one-term row says x_c = 0 whatever its coefficient, so each such
    column is yielded once, as {c: 1}.  A generator with one nonzero y_ab
    gives only one-term rows: column a above the diagonal (x_ia, i < a) and
    row b right of it (x_bk, k > b).  It is read as those two ranges, and a
    range already zeroed is skipped, so the full group costs O(n^2).
    """
    off = [(i - 1) * n - i * (i - 1) // 2 - i - 1 for i in range(n + 1)]  # x_ij: off[i] + j
    neg = ring.ops.neg
    zeroed, cols_done, rows_done = set(), set(), set()

    def zero(cols):
        for c in cols:
            if c not in zeroed:
                zeroed.add(c)
                yield {c: 1}

    for y in gens:
        rows = y.rows()
        if len(rows) == 1:
            (a, row), = rows.items()
            if len(row) == 1:
                b, = row
                if a not in cols_done:
                    cols_done.add(a)
                    yield from zero(off[i] + a for i in range(1, a))
                if b not in rows_done:
                    rows_done.add(b)
                    yield from zero(off[b] + k for k in range(b + 1, n + 1))
                continue
        system = {}
        for a, row in rows.items():
            for b, c in row.items():
                for i in range(1, a):
                    system.setdefault((i, b), {})[off[i] + a] = c
                c = neg(c)
                for k in range(b + 1, n + 1):
                    system.setdefault((a, k), {})[off[b] + k] = c
        for row in system.values():
            if len(row) > 1:
                yield row
            else:
                yield from zero(row)


def centralizer_solve(gens, ring: Ring, n: int):
    """Centralizer of a generator set inside the window group.

    Entry (i, k) of x y - y x is sum_j x_ij y_jk - y_ij x_jk, linear in the
    strictly upper entries of x, so the centralizer is the nullspace of the
    stacked systems.  Each nonzero y_ab puts y_ab at x_ia in row (i, b) for
    i < a and -y_ab at x_bk in row (a, k) for k > b, and no two terms share a
    row and column.  Returns (log_q order, basis windows); each basis window
    commutes with all generators, and together they span the solution set.
    """
    if not ring.is_field:
        raise ValueError("centralizer solver needs field coefficients")
    if any(y.ring != ring or y.n != n for y in gens):
        raise ValueError("generator window/ring mismatch")
    positions = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    dim, basis = _solve_nullspace(_centralizer_rows(gens, ring, n), positions, ring)
    return dim, [UniTriWindow.from_codes(ring, n, vec) for vec in basis]
