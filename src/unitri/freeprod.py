"""Words in C_p * C_p and their embedding by 2-periodic staircase matrices.

The two free factors map to the matrices with ones on the odd-start and
even-start superdiagonal pairs; images are 2-periodic and determined by
their first two rows, which lets the word length be read back off.
"""

from __future__ import annotations

from .matrices import UniTriWindow, identity, mat_mul
from .rings import Ring

LETTERS = ("x", "y")


class Word:
    """Reduced word in <x> * <y> with exponents in [1, p)."""

    __slots__ = ("p", "syllables")

    def __init__(self, p: int, syllables=()):
        self.p = p
        reduced = []
        for letter, exp in syllables:
            if letter not in LETTERS:
                raise ValueError(f"unknown letter {letter!r}")
            exp %= p
            if exp == 0:
                continue
            if reduced and reduced[-1][0] == letter:
                merged = (reduced[-1][1] + exp) % p
                reduced.pop()
                if merged:
                    reduced.append((letter, merged))
            else:
                reduced.append((letter, exp))
        self.syllables = tuple(reduced)

    @staticmethod
    def parse(text: str, p: int) -> "Word":
        sylls = []
        for tok in text.split():
            if "^" in tok:
                letter, exp = tok.split("^")
                sylls.append((letter, int(exp)))
            else:
                sylls.append((tok, 1))
        return Word(p, sylls)

    def format(self) -> str:
        if not self.syllables:
            return "1"
        return " ".join(l if e == 1 else f"{l}^{e}" for l, e in self.syllables)

    def __mul__(self, other: "Word") -> "Word":
        if self.p != other.p:
            raise ValueError("words over different primes")
        return Word(self.p, self.syllables + other.syllables)

    def inverse(self) -> "Word":
        return Word(self.p, [(l, -e) for l, e in reversed(self.syllables)])

    def commutator(self, other: "Word") -> "Word":
        return self.inverse() * other.inverse() * self * other

    def exponent_sums(self):
        sums = {"x": 0, "y": 0}
        for l, e in self.syllables:
            sums[l] = (sums[l] + e) % self.p
        return sums["x"], sums["y"]

    def __eq__(self, other):
        return (isinstance(other, Word) and self.p == other.p
                and self.syllables == other.syllables)

    def __hash__(self):
        return hash((self.p, self.syllables))

    def __repr__(self):
        return f"Word({self.format()!r}, p={self.p})"


def periodic_generators(ring: Ring, n: int):
    """The 2-periodic staircase pair truncated to window n.

    First: ones at (2k-1, 2k).  Second: ones at (2k, 2k+1).
    """
    return _staircase_power(ring, n, 1, 1), _staircase_power(ring, n, 0, 1)


def _staircase_power(ring: Ring, n: int, parity: int, e) -> UniTriWindow:
    # disjoint superdiagonal blocks, so the power is entrywise
    return UniTriWindow(ring, n, {(i, i + 1): e for i in range(1, n)
                                  if i % 2 == parity})


def embed_word(w: Word, n: int) -> UniTriWindow:
    """Image of a reduced word under the staircase embedding over F_p, window n."""
    ring = Ring.prime_field(w.p)
    out = identity(ring, n)
    for letter, exp in w.syllables:
        parity = 1 if letter == "x" else 0
        out = mat_mul(out, _staircase_power(ring, n, parity, exp))
    return out


def four_syllable_matrix(ring: Ring, a, b, c, d, n: int) -> UniTriWindow:
    """Closed form for x^a y^b x^c y^d under the embedding.

    Each period contributes a + c and b + d on the two superdiagonals and the
    monomial pattern (ab+cd+ad, abc, abcd; bc, bcd) on the next gaps.
    """
    a, b, c, d = (ring.elem(v) for v in (a, b, c, d))
    vals_odd = [a + c, a * b + c * d + a * d, a * b * c, a * b * c * d]
    vals_even = [b + d, b * c, b * c * d]
    entries = {}
    k = 1
    while 2 * k - 1 < n:
        row = 2 * k - 1
        for off, v in enumerate(vals_odd):
            col = 2 * k + off
            if col <= n and not v.is_zero():
                entries[(row, col)] = v
        row = 2 * k
        if row < n:
            for off, v in enumerate(vals_even):
                col = 2 * k + 1 + off
                if col <= n and not v.is_zero():
                    entries[(row, col)] = v
        k += 1
    return UniTriWindow(ring, n, entries)


def read_word_length(x: UniTriWindow):
    """Recover the word length from the last nonzero squares of rows 1 and 2.

    Returns (l, case) with case in {"i", "ii", "iii"}; raises ValueError when
    the column pattern matches none of the three recognised shapes or the
    window is too small to contain it.
    """
    row1 = [j for (i, j) in x.positions() if i == 1]
    row2 = [j for (i, j) in x.positions() if i == 2]
    if not row1 or not row2:
        raise ValueError("not a recognized word image: empty leading row")
    j1, j2 = max(row1), max(row2)
    if j1 == j2 and j1 % 2 == 1:
        l, case = (j1 - 1) // 2, "i"
    elif j2 == j1 + 2 and j1 % 2 == 1:
        l, case = (j2 - 1) // 2, "ii"
    elif j2 == j1 + 2 and j1 % 2 == 0:
        l, case = j2 // 2, "iii"
    else:
        raise ValueError(f"not a recognized word image: columns {(j1, j2)}")
    if 2 * l + 2 > x.n:
        raise ValueError(f"window {x.n} too small to certify length {l}")
    return l, case


def free_closure_log_index(n: int) -> int:
    """log_p of the closed free-product image in the window-n quotient."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return n - 2 + (n + 1) // 2


def two_periodic_log_order(n: int) -> int:
    """log_p of the full 2-periodic subgroup image in the window-n quotient."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return 2 * n - 3


def two_periodic_image_order(n: int, p: int) -> int:
    """Count the 2-periodic fills of window n by their shift orbits.

    Shifting by 2 along the diagonal maps position (i, j) to (i + 2, j + 2),
    so its orbits are the classes {(j - i, i mod 2)}.  A 2-periodic fill
    takes one free value per orbit, and the values of different orbits are
    independent, so the fills number p to the count of orbits.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    orbits = {(j - i, i % 2) for i in range(1, n) for j in range(i + 1, n + 1)}
    return p ** len(orbits)
