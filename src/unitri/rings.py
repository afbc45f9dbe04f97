"""Exact coefficient arithmetic: F_p, F_q = F_p[x]/(m(x)), and Z/p^k.

Ring descriptors are immutable and shareable; elements are thin wrappers
around canonical residues (ints) or coefficient vectors (tuples) with the
usual operators.  Extension fields carry an explicit F_p-basis, used by the
regular representation and by the field-extension embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MAX_EXTENSION_DEGREE = 8
MAX_PRIME = 2**31 - 1

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


def is_irreducible(poly, p: int) -> bool:
    """Rabin irreducibility test for a monic polynomial over F_p."""
    poly = tuple(c % p for c in poly)
    f = len(poly) - 1
    if f < 1 or poly[-1] != 1:
        return False
    if f == 1:
        return True
    x = (0, 1)
    # x^(p^f) == x mod poly
    t = x
    for _ in range(f):
        t = _ppowmod(t, p, poly, p)
    if _padd(t, tuple(-c % p for c in x), p):
        return False
    # gcd(x^(p^(f/r)) - x, poly) == 1 for prime divisors r of f
    for r in {d for d in range(2, f + 1) if f % d == 0 and is_prime(d)}:
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


def _mat_inv_modp(rows, p):
    """Invert a small square matrix over F_p; None if singular."""
    n = len(rows)
    a = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % p), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], -1, p)
        a[col] = [v * inv % p for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                c = a[r][col]
                a[r] = [(v - c * w) % p for v, w in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


@dataclass(frozen=True)
class Ring:
    """Descriptor of a coefficient ring: F_p, F_{p^f}, or Z/p^k."""

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
        binv = _mat_inv_modp([[basis[j][i] for j in range(f)] for i in range(f)], p)
        if binv is None:
            raise ValueError("basis vectors are linearly dependent")
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
        if self.kind == "prime":
            return self.p
        if self.kind == "ext":
            return self.p ** self.f
        return self.p ** self.k

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
        if isinstance(value, RingElem):
            if value.ring != self:
                raise ValueError("element belongs to a different ring")
            return value
        if self.kind == "ext":
            if isinstance(value, int):
                value = (value,)
            if isinstance(value, str):
                value = tuple(int(t) for t in value.split(","))
            vec = tuple(c % self.p for c in value)
            if len(vec) > self.f:
                raise ValueError("coefficient vector too long")
            vec = vec + (0,) * (self.f - len(vec))
            return RingElem(self, vec)
        if isinstance(value, str):
            value = int(value)
        return RingElem(self, value % self.order)

    @property
    def zero(self) -> "RingElem":
        return self.elem(0)

    @property
    def one(self) -> "RingElem":
        return self.elem(1)

    def gen(self) -> "RingElem":
        """The residue of x in F_p[x]/(m); error for non-extension rings."""
        if self.kind != "ext":
            raise ValueError("gen() only defined for extension fields")
        return self.elem((0, 1))

    def elements(self):
        """Iterate over all ring elements (intended for small rings)."""
        if self.kind == "ext":
            def rec(i, cur):
                if i == self.f:
                    yield RingElem(self, tuple(cur))
                    return
                for c in range(self.p):
                    cur.append(c)
                    yield from rec(i + 1, cur)
                    cur.pop()
            yield from rec(0, [])
        else:
            for v in range(self.order):
                yield RingElem(self, v)

    # -- raw-value arithmetic (values are ints or coefficient tuples) --

    def _add(self, a, b):
        if self.kind == "ext":
            return tuple((x + y) % self.p for x, y in zip(a, b))
        return (a + b) % self.order

    def _neg(self, a):
        if self.kind == "ext":
            return tuple(-x % self.p for x in a)
        return -a % self.order

    def _mul(self, a, b):
        if self.kind == "ext":
            prod = _pmod(_pmul(a, b, self.p), self.modulus, self.p)
            return prod + (0,) * (self.f - len(prod))
        return (a * b) % self.order

    def _inv(self, a):
        if self.kind == "ext":
            if not any(a):
                raise ZeroDivisionError("not invertible")
            out = _ppowmod(_ptrim(a), self.order - 2, self.modulus, self.p)
            return out + (0,) * (self.f - len(out))
        try:
            return pow(a, -1, self.order)
        except ValueError:
            raise ZeroDivisionError("not invertible") from None

    # -- integer encoding, used by the dense closure machinery --

    def encode(self, x: "RingElem") -> int:
        if self.kind == "ext":
            v = 0
            for c in reversed(x.val):
                v = v * self.p + c
            return v
        return x.val

    def decode(self, code: int) -> "RingElem":
        if self.kind == "ext":
            vec = []
            for _ in range(self.f):
                vec.append(code % self.p)
                code //= self.p
            return RingElem(self, tuple(vec))
        return RingElem(self, code % self.order)

    def int_ops(self):
        """(add, mul) callables on encoded ints; table based for small rings."""
        q = self.order
        if self.kind != "ext":
            def add(a, b, _m=q):
                return (a + b) % _m

            def mul(a, b, _m=q):
                return (a * b) % _m
            return add, mul
        if q <= 4096:
            els = [self.decode(i) for i in range(q)]
            addt = tuple(tuple(self.encode(a + b) for b in els) for a in els)
            mult = tuple(tuple(self.encode(a * b) for b in els) for a in els)

            def add(a, b, _t=addt):
                return _t[a][b]

            def mul(a, b, _t=mult):
                return _t[a][b]
            return add, mul

        def add(a, b):
            return self.encode(self.decode(a) + self.decode(b))

        def mul(a, b):
            return self.encode(self.decode(a) * self.decode(b))
        return add, mul

    # -- basis coordinates (extension fields) --

    def coords(self, x: "RingElem") -> tuple:
        """Coordinates of x in the descriptor's basis."""
        if self.kind != "ext":
            raise ValueError("coords() only defined for extension fields")
        p = self.p
        return tuple(sum(r * v for r, v in zip(row, x.val)) % p for row in self._basis_inv)

    def from_coords(self, coords) -> "RingElem":
        if self.kind != "ext":
            raise ValueError("from_coords() only defined for extension fields")
        vec = [0] * self.f
        for c, b in zip(coords, self.basis):
            for i in range(self.f):
                vec[i] = (vec[i] + c * b[i]) % self.p
        return RingElem(self, tuple(vec))

    def basis_elems(self):
        if self.kind != "ext":
            raise ValueError("basis_elems() only defined for extension fields")
        return [RingElem(self, b) for b in self.basis]

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
            return ",".join(str(c) for c in x.val)
        return str(x.val)


def _check_p(p):
    if p == 2:
        raise ValueError("p must be odd")
    if p > MAX_PRIME:
        raise ValueError(f"p exceeds cap {MAX_PRIME}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


class RingElem:
    """An element of a Ring, kept in canonical form."""

    __slots__ = ("ring", "val")

    def __init__(self, ring: Ring, val):
        self.ring = ring
        self.val = val

    def _coerce(self, other):
        if isinstance(other, RingElem):
            if other.ring != self.ring:
                raise ValueError("mismatched ring descriptors")
            return other
        return self.ring.elem(other)

    def __add__(self, other):
        other = self._coerce(other)
        return RingElem(self.ring, self.ring._add(self.val, other.val))

    __radd__ = __add__

    def __neg__(self):
        return RingElem(self.ring, self.ring._neg(self.val))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return RingElem(self.ring, self.ring._mul(self.val, other.val))

    __rmul__ = __mul__

    def inv(self) -> "RingElem":
        return RingElem(self.ring, self.ring._inv(self.val))

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
        if self.ring.kind == "ext":
            return not any(self.val)
        return self.val == 0

    def is_unit(self) -> bool:
        if self.ring.kind == "zmod":
            return self.val % self.ring.p != 0
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.elem(other)
        return isinstance(other, RingElem) and self.ring == other.ring and self.val == other.val

    def __hash__(self):
        return hash((self.ring.kind, self.ring.p, self.ring.f, self.ring.k, self.val))

    def __repr__(self):
        return self.ring.format_value(self)


def frobenius(x: RingElem) -> RingElem:
    """x -> x^p on an extension field; fixes exactly the prime subfield."""
    if x.ring.kind != "ext":
        raise ValueError("frobenius requires an extension-field element")
    return x ** x.ring.p


def regular_rep(x: RingElem) -> tuple:
    """f x f matrix over F_p of left multiplication by x in the fixed basis.

    Column j holds the coordinates of x * basis_j; the map is an injective
    ring homomorphism, with x in F_p mapping to x * identity.
    """
    ring = x.ring
    if ring.kind != "ext":
        raise ValueError("regular_rep requires an extension-field element")
    cols = [ring.coords(x * b) for b in ring.basis_elems()]
    return tuple(tuple(cols[j][i] for j in range(ring.f)) for i in range(ring.f))
