"""Scalar restriction and extension between windows over F_q and F_p.

Restriction replaces each entry by its regular representation block, an
injective continuous homomorphism landing f times deeper in the filtration;
extension includes prime-field entries into the bigger field.  The linear
centralizer solver realizes C(.) inside a window: commuting with a fixed
element is a linear condition on the strictly upper entries, x_ij being
the column i (n+1) + j; a column forced to zero is one byte of a mask.
"""

from __future__ import annotations

from fractions import Fraction

from .matrices import UniTriWindow, _gather
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

def _solve_nullspace(rows, columns, ring):
    """Nullspace basis of a sparse linear system over a field ring, on codes:
    rows are an iterable of dicts column -> code, over the column ids in
    columns.  Returns (dimension, basis), one dict column -> code per free
    column."""
    neg = ring.ops.neg
    reduced, pivots = row_reduce(rows, ring)
    pivot_cols = set(pivots)
    basis = {c: {c: 1} for c in columns if c not in pivot_cols}
    for row, col in zip(reduced, pivots):
        for c, v in row.items():
            if c != col:
                basis[c][col] = neg(v)
    return len(basis), list(basis.values())


def _centralizer_system(gens, ring: Ring, n: int):
    """The stacked systems [x, y] = 0, with x_ij the column i (n+1) + j:
    (zeroed, rows), a bytearray with 1 at each column that a one-term row
    sets to zero, and the rows of two or more terms, as dicts column ->
    code, with the zeroed columns dropped.

    A generator with one nonzero y_ab gives only one-term rows: column a
    above the diagonal (x_ia, i < a) and row b right of it (x_bk, k > b).
    It is read as those two ranges, each set once, so the full group costs
    O(n^2).
    """
    m = n + 1
    neg = ring.ops.neg
    zeroed = bytearray(m * m)
    cols_done, rows_done = set(), set()
    coupled = []
    for y in gens:
        rows = y.rows()
        if len(rows) == 1:
            (a, row), = rows.items()
            if len(row) == 1:
                b, = row
                if a not in cols_done:
                    cols_done.add(a)
                    zeroed[m + a:a * m:m] = b"\1" * (a - 1)
                if b not in rows_done:
                    rows_done.add(b)
                    zeroed[b * m + b + 1:b * m + m] = b"\1" * (n - b)
                continue
        system = {}
        for a, row in rows.items():
            for b, c in row.items():
                for i in range(1, a):
                    system.setdefault((i, b), {})[i * m + a] = c
                c = neg(c)
                for k in range(b + 1, m):
                    system.setdefault((a, k), {})[b * m + k] = c
        for row in system.values():
            if len(row) > 1:
                coupled.append(row)
            else:
                zeroed[next(iter(row))] = 1
    return zeroed, [{c: v for c, v in row.items() if not zeroed[c]} for row in coupled]


def centralizer_solve(gens, ring: Ring, n: int):
    """Centralizer of a generator set inside the window group.

    Entry (i, k) of x y - y x is sum_j x_ij y_jk - y_ij x_jk, linear in the
    strictly upper entries of x, so the centralizer is the nullspace of the
    stacked systems.  Each nonzero y_ab puts y_ab at x_ia in row (i, b) for
    i < a and -y_ab at x_bk in row (a, k) for k > b, and no two terms share a
    row and column.  The unknown x_ij is the column i (n+1) + j; the columns
    that one-term rows zero are only marked, row_reduce sees the rows of two
    or more terms, and each basis vector becomes the rows of its window.
    Returns (log_q order, basis windows); each basis window commutes with
    all generators, and together they span the solution set.
    """
    if not ring.is_field:
        raise ValueError("centralizer solver needs field coefficients")
    if any(y.ring != ring or y.n != n for y in gens):
        raise ValueError("generator window/ring mismatch")
    m = n + 1
    zeroed, rows = _centralizer_system(gens, ring, n)
    columns = (c for i in range(1, n) for c in range(i * m + i + 1, i * m + m) if not zeroed[c])
    dim, basis = _solve_nullspace(rows, columns, ring)
    basis_rows = [_gather((divmod(c, m), v) for c, v in vec.items()) for vec in basis]
    return dim, [UniTriWindow.from_rows(ring, n, r) for r in basis_rows]
