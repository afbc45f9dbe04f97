"""Exact coefficient arithmetic: F_p, F_q = F_p[x]/(m(x)), and Z/p^k.

Ring descriptors are immutable and shareable.  An element is its code
(Ring.encode): the residue on F_p and Z/p^k, and on F_q the base-p number
whose digits are the coefficient vector.  Each ring has one set of code
operations, Ring.ops (add, neg, mul, inv), which RingElem's operators, the
window layer and row_reduce all use; .val is a read-only view of the code.
Every ring has a basis over its prime ring: the descriptor's basis on F_q,
used by the regular representation and the field-extension embeddings, and
(1,) on F_p and Z/p^k.

Extension fields of order at most TABLE_MAX_ORDER run their code
operations through exp/log/Zech tables of a primitive element, built once
per (p, modulus) in O(q) and kept in a small LRU cache; larger fields use
polynomial arithmetic modulo m(x).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from operator import getitem, mul as _imul

MAX_EXTENSION_DEGREE = 8
MAX_PRIME = 2**31 - 1
TABLE_MAX_ORDER = 2**16
TABLE_CACHE_FIELDS = 8

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 2^31 cap."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- polynomials over F_p as coefficient tuples, low degree first --

def _ptrim(v):
    i = len(v)
    while i > 0 and v[i - 1] == 0:
        i -= 1
    return tuple(v[:i])


def _padd(a, b, p):
    n = max(len(a), len(b))
    return _ptrim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                   for i in range(n)])


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        c = a[-1]
        if c:
            off = len(a) - 1 - dm
            for i in range(dm):
                a[off + i] = (a[off + i] - c * m[i]) % p
        a.pop()
    return _ptrim(a)


def _pmulmod(a, b, m, p):
    return _pmod(_pmul(a, b, p), m, p)


def _ppowmod(a, e, m, p):
    r = (1,)
    while e:
        if e & 1:
            r = _pmulmod(r, a, m, p)
        a = _pmulmod(a, a, m, p)
        e >>= 1
    return r


def _pgcd(a, b, p):
    while b:
        # make b monic before reducing
        inv = pow(b[-1], -1, p)
        b = tuple(c * inv % p for c in b)
        a, b = b, _pmod(a, b, p)
    return a


def _prime_factors(n: int) -> list:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def is_irreducible(poly, p: int) -> bool:
    """Rabin irreducibility test for a monic polynomial over F_p."""
    poly = tuple(c % p for c in poly)
    f = len(poly) - 1
    if f < 1 or poly[-1] != 1:
        return False
    if f == 1:
        return True
    if poly[0] == 0:
        return False            # x divides poly
    x = (0, 1)
    # x^(p^f) == x mod poly
    t = x
    for _ in range(f):
        t = _ppowmod(t, p, poly, p)
    if _padd(t, tuple(-c % p for c in x), p):
        return False
    # gcd(x^(p^(f/r)) - x, poly) == 1 for prime divisors r of f
    for r in _prime_factors(f):
        t = x
        for _ in range(f // r):
            t = _ppowmod(t, p, poly, p)
        g = _pgcd(poly, _padd(t, tuple(-c % p for c in x), p), p)
        if len(g) - 1 > 0:
            return False
    return True


def default_modulus(p: int, f: int) -> tuple:
    """Lexicographically least monic irreducible of degree f over F_p.

    Candidates are ordered by their low-to-high coefficient vector, so the
    choice is deterministic and reproducible across runs.
    """
    if f == 1:
        return (0, 1)
    coeffs = [0] * f
    while True:
        cand = tuple(coeffs) + (1,)
        if is_irreducible(cand, p):
            return cand
        i = f - 1
        while i >= 0 and coeffs[i] == p - 1:
            coeffs[i] = 0
            i -= 1
        if i < 0:
            raise ValueError(f"no irreducible of degree {f} over F_{p}")
        coeffs[i] += 1


class FieldTables:
    """exp/log/Zech tables of F_p[x]/(m) on codes, for a primitive element g.

    A code is the base-p number whose digits are the coefficient vector, as
    in Ring.encode.  exp[i] is the code of g^i, stored twice over (length
    2(q-1)) so that a sum of two logs needs no reduction; log[c] is the
    exponent of the nonzero code c; zech[n] is log(1 + g^n), or -1 where
    1 + g^n = 0.  zech has length q-1, so zech[log b - log a] wraps negative
    differences mod q-1 by plain indexing.  All three are 4-byte arrays.
    add, neg, mul and inv are the field's code operations; -1 is
    g^((q-1)/2), so a negation adds (q-1)/2 to the log.
    """

    __slots__ = ("exp", "log", "zech", "add", "neg", "mul")

    def __init__(self, p: int, modulus: tuple):
        f = len(modulus) - 1
        n = p ** f - 1
        g = _primitive_element(p, modulus, n)
        # multiply-by-g is F_p-linear.  cols[j][d] packs the vector d * g * x^j
        # into an int, `width` bits per coefficient, so that one int sum adds
        # f such vectors coefficient-wise without carries.
        width = (f * (p - 1)).bit_length()
        mask = (1 << width) - 1
        shifts = range(0, f * width, width)
        cols, xj = [], (1,)
        for _ in range(f):
            gx = _pmulmod(g, xj, modulus, p)
            cols.append([sum(d * c % p << sh for c, sh in zip(gx, shifts))
                         for d in range(p)])
            xj = _pmulmod(xj, (0, 1), modulus, p)
        pw = [p ** k for k in range(f)]
        exp = array("i", [0]) * (2 * n)
        log = array("i", [0]) * (n + 1)
        v = [1] + [0] * (f - 1)
        for i in range(n):
            c = sum(map(_imul, v, pw))
            exp[i] = exp[i + n] = c
            log[c] = i
            s = sum(map(getitem, cols, v))
            v = [(s >> sh & mask) % p for sh in shifts]
        zech = array("i", [0]) * n
        for i in range(n):
            c = exp[i]
            c1 = c - c % p + (c + 1) % p        # adds 1 to the constant digit
            zech[i] = log[c1] if c1 else -1
        self.exp, self.log, self.zech = exp, log, zech

        def add(a, b, _e=exp, _l=log, _z=zech):
            if not a:
                return b
            if not b:
                return a
            la = _l[a]
            z = _z[_l[b] - la]
            return _e[la + z] if z >= 0 else 0

        def neg(a, _e=exp, _l=log, _h=n // 2):
            return _e[_l[a] + _h] if a else 0

        def mul(a, b, _e=exp, _l=log):
            return _e[_l[a] + _l[b]] if a and b else 0
        self.add, self.neg, self.mul = add, neg, mul

    def inv(self, c: int) -> int:
        if not c:
            raise ZeroDivisionError("not invertible")
        return self.exp[len(self.zech) - self.log[c]]


class _ModOps:
    """Code operations of F_p and Z/p^k, where a code is its residue mod m."""

    __slots__ = ("add", "neg", "mul", "inv")

    def __init__(self, m: int):
        def add(a, b, _m=m):
            return (a + b) % _m

        def neg(a, _m=m):
            return -a % _m

        def mul(a, b, _m=m):
            return a * b % _m

        def inv(a, _m=m):
            try:
                return pow(a, -1, _m)
            except ValueError:
                raise ZeroDivisionError("not invertible") from None
        self.add, self.neg, self.mul, self.inv = add, neg, mul, inv


class _PolyOps:
    """Code operations of an extension field above TABLE_MAX_ORDER: the
    digits of a code are added coefficient-wise and multiplied mod m(x)."""

    __slots__ = ("p", "f", "modulus")

    def __init__(self, p: int, modulus: tuple):
        self.p, self.f, self.modulus = p, len(modulus) - 1, modulus

    def add(self, a, b):
        p, f = self.p, self.f
        return _code([(u + v) % p for u, v in zip(_digits(a, p, f), _digits(b, p, f))], p)

    def neg(self, a):
        return _code([-u % self.p for u in _digits(a, self.p, self.f)], self.p)

    def mul(self, a, b):
        p, f = self.p, self.f
        return _code(_pmulmod(_digits(a, p, f), _digits(b, p, f), self.modulus, p), p)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("not invertible")
        p, f = self.p, self.f
        return _code(_ppowmod(_digits(a, p, f), p ** f - 2, self.modulus, p), p)


def _digits(code: int, p: int, f: int) -> tuple:
    """The coefficient vector, low degree first, of an extension-field code."""
    out = []
    for _ in range(f):
        code, d = divmod(code, p)
        out.append(d)
    return tuple(out)


def _code(vec, p: int) -> int:
    """The code of a reduced coefficient vector: its base-p digits."""
    c = 0
    for d in reversed(vec):
        c = c * p + d
    return c


def _primitive_element(p, modulus, n):
    """The nonconstant g of least code whose multiplicative order is n."""
    checks = [n // r for r in _prime_factors(n)]
    for c in range(p, n + 1):
        g = []
        while c:
            g.append(c % p)
            c //= p
        g = tuple(g)
        if all(_ppowmod(g, e, modulus, p) != (1,) for e in checks):
            return g
    raise ValueError(f"{modulus} is not irreducible over F_{p}")


@lru_cache(maxsize=TABLE_CACHE_FIELDS)
def field_tables(p: int, modulus: tuple) -> FieldTables:
    """The cached tables of F_p[x]/(modulus); the basis plays no part."""
    return FieldTables(p, modulus)


@dataclass(frozen=True)
class Ring:
    """Descriptor of a coefficient ring: F_p, F_{p^f}, or Z/p^k.

    Every ring has a basis over its prime ring: the descriptor's basis for
    an extension field, the one-element basis (1,) for F_p and Z/p^k.
    """

    kind: str           # "prime" | "ext" | "zmod"
    p: int
    f: int = 1
    k: int = 1
    modulus: tuple = ()              # ext only, low-to-high, monic
    basis: tuple = ()                # ext only, rows are coordinate vectors
    _basis_inv: tuple = field(default=(), repr=False, compare=False)

    # -- constructors --

    @staticmethod
    def prime_field(p: int) -> "Ring":
        _check_p(p)
        return Ring("prime", p)

    @staticmethod
    def ext_field(p: int, f: int, modulus=None, basis=None) -> "Ring":
        _check_p(p)
        if not 2 <= f <= MAX_EXTENSION_DEGREE:
            raise ValueError(f"extension degree must be in [2, {MAX_EXTENSION_DEGREE}]")
        if modulus is None:
            modulus = default_modulus(p, f)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != f + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree f")
        if not is_irreducible(modulus, p):
            raise ValueError("modulus is not irreducible over F_p")
        if basis is None:
            basis = tuple(tuple(1 if i == j else 0 for i in range(f)) for j in range(f))
        else:
            basis = tuple(tuple(c % p for c in b) for b in basis)
            if len(basis) != f or any(len(b) != f for b in basis):
                raise ValueError("basis must consist of f coordinate vectors")
        # reduce [B^T | I]; B^T has rank f exactly when the pivots are 0..f-1
        rows, pivots = row_reduce(
            [[basis[j][i] for j in range(f)] + [int(i == j) for j in range(f)]
             for i in range(f)], Ring.prime_field(p))
        if pivots != list(range(f)):
            raise ValueError("basis vectors are linearly dependent")
        binv = tuple(tuple(row[f:]) for row in rows)
        return Ring("ext", p, f=f, modulus=modulus, basis=basis, _basis_inv=binv)

    @staticmethod
    def integers_mod(p: int, k: int) -> "Ring":
        _check_p(p)
        if k < 1:
            raise ValueError("k must be >= 1")
        return Ring("zmod", p, k=k)

    # -- basic data --

    @property
    def order(self) -> int:
        return self.p ** (self.f * self.k)      # f = 1 or k = 1 on every ring

    @property
    def is_field(self) -> bool:
        return self.kind in ("prime", "ext")

    def __repr__(self):
        if self.kind == "prime":
            return f"F_{self.p}"
        if self.kind == "ext":
            return f"F_{self.p}^{self.f}"
        return f"Z/{self.p}^{self.k}"

    # -- element construction --

    def elem(self, value) -> "RingElem":
        """The element of value: an int (a constant), a coefficient vector
        or a comma-separated string of one, or an element of this ring."""
        if isinstance(value, RingElem):
            if value.ring is not self and value.ring != self:
                raise ValueError("element belongs to a different ring")
            return value
        if self.kind != "ext":
            if isinstance(value, str):
                value = int(value)
            return RingElem(self, value % self.order)
        if isinstance(value, int):
            value = (value,)
        elif isinstance(value, str):
            value = tuple(int(t) for t in value.split(","))
        vec = [c % self.p for c in value]
        if len(vec) > self.f:
            raise ValueError("coefficient vector too long")
        return RingElem(self, _code(vec, self.p))

    @property
    def zero(self) -> "RingElem":
        return RingElem(self, 0)

    @property
    def one(self) -> "RingElem":
        return RingElem(self, 1)

    def gen(self) -> "RingElem":
        """The residue of x in F_p[x]/(m); error for non-extension rings."""
        if self.kind != "ext":
            raise ValueError("gen() only defined for extension fields")
        return self.elem((0, 1))

    def elements(self):
        """Iterate over all ring elements, in code order (for small rings)."""
        return (RingElem(self, c) for c in range(self.order))

    # -- codes: an element is its code --

    def encode(self, x: "RingElem") -> int:
        """The code of x: the residue on F_p and Z/p^k, on F_q the base-p
        number whose digits are the coefficient vector."""
        return x.code

    def decode(self, code: int) -> "RingElem":
        return RingElem(self, code)

    @cached_property
    def ops(self):
        """The ring's code operations add, neg, mul and inv, built on first
        use: the cached field tables up to TABLE_MAX_ORDER, residues mod the
        order on F_p and Z/p^k, polynomial arithmetic above the cap."""
        if self.kind != "ext":
            return _ModOps(self.order)
        return self.tables() or _PolyOps(self.p, self.modulus)

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("ops", None)          # rebuilt on first use after unpickling
        return state

    def tables(self) -> FieldTables | None:
        """The cached exp/log/Zech tables of an extension field of order at
        most TABLE_MAX_ORDER; None for larger fields and other rings."""
        if self.kind == "ext" and self.p ** self.f <= TABLE_MAX_ORDER:
            return field_tables(self.p, self.modulus)
        return None

    def int_ops(self):
        """(add, mul) of Ring.ops, for callers outside the package."""
        return self.ops.add, self.ops.mul

    # -- basis coordinates --

    def coords(self, x: "RingElem") -> tuple:
        """Coordinates of x in the ring's basis."""
        if self.kind != "ext":
            return (x.code,)
        p = self.p
        vec = _digits(x.code, p, self.f)
        return tuple(sum(map(_imul, row, vec)) % p for row in self._basis_inv)

    def from_coords(self, coords) -> "RingElem":
        if self.kind != "ext":
            return self.elem(coords[0])
        vec = [0] * self.f
        for c, b in zip(coords, self.basis):
            for i in range(self.f):
                vec[i] = (vec[i] + c * b[i]) % self.p
        return RingElem(self, _code(vec, self.p))

    def basis_elems(self):
        if self.kind != "ext":
            return [self.one]
        return [self.elem(b) for b in self.basis]

    # -- serialization --

    def to_json(self) -> dict:
        if self.kind == "zmod":
            return {"p": self.p, "k": self.k}
        d = {"p": self.p, "f": self.f}
        if self.kind == "ext":
            d["modulus"] = list(self.modulus)
            d["basis"] = [list(b) for b in self.basis]
        return d

    @staticmethod
    def from_json(d: dict) -> "Ring":
        if "k" in d:
            return Ring.integers_mod(d["p"], d["k"])
        f = d.get("f", 1)
        if f == 1:
            return Ring.prime_field(d["p"])
        return Ring.ext_field(d["p"], f, d.get("modulus"), d.get("basis"))

    def format_value(self, x: "RingElem") -> str:
        if self.kind == "ext":
            return ",".join(map(str, x.val))
        return str(x.code)


def _check_p(p):
    if p == 2:
        raise ValueError("p must be odd")
    if p > MAX_PRIME:
        raise ValueError(f"p exceeds cap {MAX_PRIME}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


class RingElem:
    """An element of a Ring: the ring and the element's code, nothing else.

    Every operation runs on codes through the ring's code operations.  .val
    is a read-only view: the residue on F_p and Z/p^k, the coefficient tuple
    on F_q.
    """

    __slots__ = ("ring", "code")

    def __init__(self, ring: Ring, code: int):
        self.ring = ring
        self.code = code

    @property
    def val(self):
        ring = self.ring
        if ring.kind == "ext":
            return _digits(self.code, ring.p, ring.f)
        return self.code

    def _coerce(self, other):
        if isinstance(other, RingElem):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("mismatched ring descriptors")
            return other
        return self.ring.elem(other)

    def __add__(self, other):
        ring = self.ring
        return RingElem(ring, ring.ops.add(self.code, self._coerce(other).code))

    __radd__ = __add__

    def __neg__(self):
        ring = self.ring
        return RingElem(ring, ring.ops.neg(self.code))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        ring = self.ring
        return RingElem(ring, ring.ops.mul(self.code, self._coerce(other).code))

    __rmul__ = __mul__

    def inv(self) -> "RingElem":
        ring = self.ring
        return RingElem(ring, ring.ops.inv(self.code))

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        r = self.ring.one
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def is_zero(self) -> bool:
        return not self.code

    def is_unit(self) -> bool:
        if self.ring.kind == "zmod":
            return self.code % self.ring.p != 0
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.elem(other)
        return (isinstance(other, RingElem) and self.code == other.code
                and (self.ring is other.ring or self.ring == other.ring))

    def __hash__(self):
        return hash(self.code)

    def __repr__(self):
        return self.ring.format_value(self)


def frobenius(x: RingElem) -> RingElem:
    """x -> x^p on an extension field; fixes exactly the prime subfield."""
    if x.ring.kind != "ext":
        raise ValueError("frobenius requires an extension-field element")
    return x ** x.ring.p


def regular_rep(x: RingElem) -> tuple:
    """Matrix of left multiplication by x in the ring's basis, over the prime
    ring: f x f over F_p on F_q, and 1 x 1, the code itself, on F_p and
    Z/p^k.

    Column j holds the coordinates of x * basis_j; the map is an injective
    ring homomorphism, with x in the prime ring mapping to x * identity.
    """
    ring = x.ring
    cols = [ring.coords(x * b) for b in ring.basis_elems()]
    return tuple(zip(*cols))


def row_reduce(rows, ring: Ring):
    """Gauss-Jordan elimination over a field ring, the package's one
    elimination: basis inverses, abelianized invertibility, nullspaces.

    rows are an iterable of dicts column -> code, or a list of equal-length
    code sequences (turned into dicts and back); they are not modified.
    Returns (rows, pivot_cols) in that form: the nonzero rows of the unique
    reduced row echelon form by increasing pivot column, and those columns.
    A row is reduced only at the pivot columns it holds, in increasing order
    from a heap (reducing at c brings in columns above c only); then the
    pivot rows are cleared of later pivots, last first.  A one-term row at
    a pivot column whose row is that term alone reduces to zero and is
    skipped uncopied.
    """
    if isinstance(rows, list) and rows and not isinstance(rows[0], dict):
        red, pivots = row_reduce([dict(enumerate(r)) for r in rows], ring)
        return [[r.get(c, 0) for c in range(len(rows[0]))] for r in red], pivots
    if not ring.is_field:
        raise ValueError("row reduction needs field coefficients")
    add, neg, mul, inv = ring.ops.add, ring.ops.neg, ring.ops.mul, ring.ops.inv
    tails = {}      # pivot column -> the pivot row past its leading 1

    def reduce(row):
        pending = [c for c in row if c in tails]
        heapify(pending)
        while pending:
            col = heappop(pending)
            c = neg(row.pop(col))
            if c:
                for m, w in tails[col].items():
                    if m not in row and m in tails:
                        heappush(pending, m)
                    row[m] = add(row.get(m, 0), mul(c, w))
        return {m: v for m, v in row.items() if v}

    for r in rows:
        if len(r) == 1 and not tails.get(next(iter(r)), True):
            continue
        row = reduce(dict(r))
        if row:
            col = min(row)
            s = inv(row.pop(col))
            tails[col] = {m: mul(v, s) for m, v in row.items()}
    pivots = sorted(tails)
    for col in reversed(pivots):
        tails[col] = reduce(tails[col])
    return [{col: 1, **tails[col]} for col in pivots], pivots
