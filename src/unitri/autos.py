"""Generating automorphisms of the finite window groups.

Six kinds: the antidiagonal flip, field automorphisms, diagonal and inner
conjugation, central maps (adding a multiple of the corner entry) and
extremal maps.  Each kind is a frozen descriptor whose generator_image and
apply methods give its minimal-generator images and its action.  Extremal
maps are specified only by generator images and are extended through the
canonical elementary factorization; a verification harness checks
multiplicativity on random pairs and bijectivity on the abelianization.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul

from .matrices import DenseOps, UniTriWindow, conjugate, elementary, flip, identity, \
    mat_inv, mat_mul
from .rings import Ring, frobenius, regular_rep, row_reduce


@dataclass(frozen=True)
class Flip:
    """The antidiagonal symmetry: 1 + a e_(r,r+1) -> 1 + a e_(n-r,n-r+1).

    Realized on arbitrary elements as x -> D flip(x^-1) D^-1 with D the
    alternating sign diagonal; the literal entry flip alone reverses
    products, the inverse and the sign conjugation restore a homomorphism.
    """

    def generator_image(self, ring, n, r, a):
        return elementary(ring, n, n - r, n - r + 1, a)

    def apply(self, x):
        # flip keeps the parity of i + j, so the signs may follow it
        return UniTriWindow(x.ring, x.n, {(i, j): -v if (i + j) % 2 else v
                                          for (i, j), v in flip(mat_inv(x)).items()})


@dataclass(frozen=True)
class FieldAut:
    power: int = 1

    def _frob(self, v):
        for _ in range(self.power % v.ring.f):
            v = frobenius(v)
        return v

    def generator_image(self, ring, n, r, a):
        return elementary(ring, n, r, r + 1, self._frob(a))

    def apply(self, x):
        return UniTriWindow(x.ring, x.n, {pos: self._frob(v) for pos, v in x.items()})


@dataclass(frozen=True)
class DiagonalAut:
    diag: tuple  # n unit ring elements

    def generator_image(self, ring, n, r, a):
        d = [ring.elem(v) for v in self.diag]
        return elementary(ring, n, r, r + 1, d[r - 1] * d[r].inv() * a)

    def apply(self, x):
        d = [x.ring.elem(v) for v in self.diag]
        if len(d) != x.n or any(not v.is_unit() for v in d):
            raise ValueError("diagonal must hold n units")
        return UniTriWindow(x.ring, x.n, {(i, j): d[i - 1] * d[j - 1].inv() * v
                                          for (i, j), v in x.items()})


@dataclass(frozen=True)
class InnerAut:
    g: UniTriWindow

    def generator_image(self, ring, n, r, a):
        return conjugate(self.g, elementary(ring, n, r, r + 1, a))

    def apply(self, x):
        return conjugate(self.g, x)


@dataclass(frozen=True)
class CentralAut:
    """x -> x (1 + lam(x_(r,r+1)) e_(1,n)); lam is F_p-linear on the basis."""

    r: int
    lam: tuple  # f x f matrix over F_p acting on basis coordinates

    def _check(self, n):
        if not 2 <= self.r <= n - 2:
            raise ValueError("central map with r in {1, n-1} is inner; use InnerAut")

    def _lam(self, ring, a):
        coords = ring.coords(a)
        return ring.from_coords([sum(map(mul, row, coords)) for row in self.lam])

    def generator_image(self, ring, n, r, a):
        self._check(n)
        if r != self.r:
            return elementary(ring, n, r, r + 1, a)
        return UniTriWindow(ring, n, {(r, r + 1): a, (1, n): self._lam(ring, a)})

    def apply(self, x):
        self._check(x.n)
        z = self._lam(x.ring, x.get(self.r, self.r + 1))
        return mat_mul(x, UniTriWindow(x.ring, x.n, {(1, x.n): z}))


@dataclass(frozen=True)
class ExtremalAut:
    """Generator-image map touching only one end of the superdiagonal.

    side "first": 1 + a e_(1,2) -> 1 + a e_(1,2) + a b e_(2,n)
    side "last":  1 + a e_(n-1,n) -> 1 + a e_(n-1,n) + a b e_(1,n-1)
    No closed form on general elements is assumed; application goes through
    the elementary factorization.
    """

    b: object
    side: str = "first"

    def generator_image(self, ring, n, r, a):
        b = ring.elem(self.b)
        if self.side == "first" and r == 1:
            return UniTriWindow(ring, n, {(1, 2): a, (2, n): a * b})
        if self.side == "last" and r == n - 1:
            return UniTriWindow(ring, n, {(n - 1, n): a, (1, n - 1): a * b})
        return elementary(ring, n, r, r + 1, a)

    def apply(self, x):
        return extend_generator_map(generator_images(self, x.ring, x.n), x.ring, x.n)(x)


def scalar_central(ring: Ring, r: int, b) -> CentralAut:
    """Central map with lam = multiplication by b."""
    return CentralAut(r, regular_rep(ring.elem(b)))


def generator_images(aut, ring: Ring, n: int) -> dict:
    """Images of the minimal generators 1 + a e_(r,r+1), a over the basis.

    Keys are (r, c) with c the basis index; the table is what the extension
    machinery and the homomorphism harness consume.
    """
    return {(r, c): aut.generator_image(ring, n, r, a)
            for r in range(1, n) for c, a in enumerate(ring.basis_elems())}


def apply(aut, x: UniTriWindow) -> UniTriWindow:
    """Apply an automorphism to a window element."""
    return aut.apply(x)


# -- canonical factorization into superdiagonal generators --

def elementary_factorization(x: UniTriWindow):
    """Word in the minimal generators, pairs (r, a), evaluating back to x.

    x is the product of its column factors 1 + sum_i x_ij e_(i,j) for j from
    n down to 2, and the elementary factors of one column commute.  Factors
    off the superdiagonal are expanded recursively, on codes, through the
    exact commutator identity 1 + a e_(i,j) = [1 + a e_(i,j-1), 1 + e_(j-1,j)].
    """
    decode = x.ring.decode
    return [(r, decode(b)) for r, b in _code_word(x)]


def _code_word(x: UniTriWindow):
    """The letters of elementary_factorization(x) as (r, code) pairs."""
    e, neg = x.codes(), x.ring.ops.neg
    for i, j in sorted(e, key=lambda pos: (-pos[1], pos[0])):
        yield from _superdiagonal_word(i, j, e[(i, j)], neg)


def _superdiagonal_word(i, j, a, neg):
    if j == i + 1:
        return [(i, a)]
    u = _superdiagonal_word(i, j - 1, a, neg)
    return [(r, neg(b)) for r, b in reversed(u)] + [(j - 1, neg(1))] + u + [(j - 1, 1)]


def evaluate_generator_word(ring: Ring, n: int, word) -> UniTriWindow:
    out = identity(ring, n)
    for (r, a) in word:
        out = mat_mul(out, elementary(ring, n, r, r + 1, a))
    return out


def extend_generator_map(images: dict, ring: Ring, n: int):
    """Extension of a generator-image table along the factorization.

    Returns a callable that walks the (r, code) letters of the factorization
    and multiplies their images on dense keys; a letter's image, the product
    of the table's basis images by the letter's coordinates, is built once.
    Well defined as a homomorphism only when the table actually is one,
    which is what is_homomorphism checks.
    """
    ops = DenseOps(ring, n)
    table = {key: ops.encode(img) for key, img in images.items()}
    letter_images = {}

    def letter_image(r, code):
        img = ops.identity
        for c, mult in enumerate(ring.coords(ring.decode(code))):
            for _ in range(mult):
                img = ops.mul(img, table[(r, c)])
        return img

    def extended(x: UniTriWindow) -> UniTriWindow:
        acc = ops.identity
        for letter in _code_word(x):
            img = letter_images.get(letter)
            if img is None:
                img = letter_images[letter] = letter_image(*letter)
            acc = ops.mul(acc, img)
        return ops.decode(acc)

    return extended


def abelianized_matrix(images: dict, ring: Ring, n: int):
    """Matrix of the induced map on G/[G,G] over F_p, basis-indexed: column (r, c)
    holds the image of 1 + b_c e_(r,r+1) on the superdiagonal, reduced mod p."""
    p = ring.p
    cols = [[v % p for rr in range(1, n) for v in ring.coords(images[(r, c)].get(rr, rr + 1))]
            for r in range(1, n) for c in range(ring.f)]
    return [list(row) for row in zip(*cols)]


def random_window(ring: Ring, n: int, rng: random.Random) -> UniTriWindow:
    """Random window element for verification harnesses: each entry is a
    uniform code with probability 0.7 and zero otherwise."""
    codes = {}
    order = ring.order
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.7:
                codes[(i, j)] = rng.randrange(order)
    return UniTriWindow.from_codes(ring, n, {pos: c for pos, c in codes.items() if c})


def is_homomorphism(images: dict, ring: Ring, n: int, pairs: int = 500,
                    seed: int = 20259) -> bool:
    """Verify a generator-image table extends to an automorphism.

    Multiplicativity is sampled on random pairs through the factorization
    extension; bijectivity reduces to invertibility of the induced map on
    the abelianization (images then generate modulo the Frattini subgroup).
    """
    ext = extend_generator_map(images, ring, n)
    rng = random.Random(seed)
    for _ in range(pairs):
        x = random_window(ring, n, rng)
        y = random_window(ring, n, rng)
        if ext(mat_mul(x, y)) != mat_mul(ext(x), ext(y)):
            return False
    mat = abelianized_matrix(images, ring, n)
    return len(row_reduce(mat, Ring.prime_field(ring.p))[1]) == len(mat)
