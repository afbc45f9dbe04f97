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
    return UniTriWindow.from_codes(ctx.ring_q, x.n, dict(x.codes()))


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
    positions = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    off = [(i - 1) * n - i * (i - 1) // 2 - i - 1 for i in range(n + 1)]  # x_ij: off[i] + j
    neg = ring.ops.neg
    if any(y.ring != ring or y.n != n for y in gens):
        raise ValueError("generator window/ring mismatch")

    def rows():     # one generator's rows at a time, so memory stays with the pivots
        for y in gens:
            system = {}
            for (a, b), c in y.codes().items():
                for i in range(1, a):
                    system.setdefault((i, b), {})[off[i] + a] = c
                c = neg(c)
                for k in range(b + 1, n + 1):
                    system.setdefault((a, k), {})[off[b] + k] = c
            yield from system.values()
    dim, basis = _solve_nullspace(rows(), positions, ring)
    return dim, [UniTriWindow.from_codes(ring, n, vec) for vec in basis]
