"""Truncated-integer windows: subgroups of matrices over Z/p^k.

The doubly indexed congruence subgroups ask for p^k-divisible entries in a
leading block; the diagonal members (window n, divisibility p^n) form the
filtration every dimension sequence here is measured against.  Ideal
partition subgroups are generated by 1 + p^k e_(i,j) over the squares of a
diagram, and a BFS count equal to the digit formula verifies their order.
Each order is an IdealOrderResult naming how it was found: "closure" when
the BFS ran, "formula" past the cap, and "trivial" when the image is the
identity (no square in the window, or n <= k).  A dimension sequence is
the list of these records, with a flag comparing it against the claimed
zero limit, which positive-density diagrams visibly contradict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .hausdorff import exact_log
from .matrices import UniTriWindow, closure_dense, elementary
from .partitions import PartitionDiagram
from .rings import Ring

DEFAULT_IDEAL_CLOSURE_CAP = 200_000


def level(x: UniTriWindow) -> int:
    if x.ring.kind != "zmod":
        raise ValueError("not a truncated-integer window")
    return x.ring.k


def u_membership(x: UniTriWindow, n: int, k: int) -> bool:
    """Entries of the leading n x n block all divisible by p^k."""
    if k > level(x):
        raise ValueError(f"divisibility by p^{k} undetectable at level {level(x)}")
    if n > x.n:
        raise ValueError("block exceeds the window")
    pk = x.ring.p ** k
    return all(c % pk == 0 for i, row in x.rows().items() if i < n
               for j, c in row.items() if j <= n)


def v_valuation(x: UniTriWindow) -> int:
    """Largest n <= min(window, level) with p^n dividing the leading n-block."""
    top = min(x.n, level(x))
    val = 0
    for n in range(1, top + 1):
        if u_membership(x, n, n):
            val = n
        else:
            break
    return val


def reduce_window_level(x: UniTriWindow, n: int, k: int) -> UniTriWindow:
    """Truncate to window n and reduce entries mod p^k; a homomorphism."""
    if k > level(x):
        raise ValueError("cannot lift to a finer level")
    if n > x.n:
        raise ValueError("cannot enlarge the window")
    ring = Ring.integers_mod(x.ring.p, k)
    pk, rows = ring.order, {}
    for i, row in x.rows().items():
        if i < n:
            kept = {j: r for j, c in row.items() if j <= n and (r := c % pk)}
            if kept:
                rows[i] = kept
    return UniTriWindow.from_rows(ring, n, rows)


def ideal_partition_generators(mu: PartitionDiagram, k: int, n: int, p: int):
    """Generators 1 + p^k e_(i,j) over the squares of mu, in G_n(Z/p^n)."""
    ring = Ring.integers_mod(p, n)
    pk = p ** k
    gens = []
    for j in range(2, n + 1):
        for i in sorted(mu.column(j)):
            gens.append(elementary(ring, n, i, j, pk))
    return gens


@dataclass(frozen=True)
class IdealOrderResult:
    log_order: int
    verified: bool
    method: str  # "closure", "formula" or "trivial"


# the identity image: no closure runs, and its order is exact
TRIVIAL = IdealOrderResult(0, True, "trivial")


def ideal_partition_log_order(mu: PartitionDiagram, k: int, n: int, p: int,
                              cap: int = DEFAULT_IDEAL_CLOSURE_CAP) -> IdealOrderResult:
    """log_p order of the ideal partition subgroup's image at level n.

    The digit count predicts (n - k) per square: S, the matrices supported
    on mu with entries divisible by p^k, has order p^((n - k)|mu|_n), and it
    is a group because mu is rectangle closed.  The generators lie in S by
    construction, so H is a subgroup of S, and the BFS count |H| = |S| is
    all it takes to verify H = S.  The BFS runs when p^predicted <= cap;
    as |H| <= |S| it then never passes the cap.  Past the cap the formula
    value is returned unverified, and a diagram with no square in window n
    gives the trivial record.
    """
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    count = mu.count_upto(n)
    predicted = (n - k) * count
    if count == 0:
        return TRIVIAL
    if p ** predicted <= cap:
        _, seen = closure_dense(ideal_partition_generators(mu, k, n, p), cap=cap)
        e = exact_log(len(seen), p)
        return IdealOrderResult(e, e == predicted, "closure")
    return IdealOrderResult(predicted, False, "formula")


@dataclass
class PadicDimReport:
    results: list        # IdealOrderResult per window, from n = 2
    discrepancy_flag: bool

    def rows(self):
        """(n, log_order, a_n, verified) with a_n = log_order / (n^2 (n-1) / 2)."""
        for n, res in enumerate(self.results, start=2):
            yield n, res.log_order, Fraction(2 * res.log_order, n * n * (n - 1)), res.verified

    def to_csv(self) -> str:
        lines = ["n,log_order,a_n_num,a_n_den,decimal,verified"]
        for n, log_order, a_n, ver in self.rows():
            lines.append(f"{n},{log_order},{a_n.numerator},{a_n.denominator},"
                         f"{float(a_n):.12g},{int(ver)}")
        lines.append(f"# claimed_zero_limit_discrepancy,{int(self.discrepancy_flag)}")
        return "\n".join(lines) + "\n"


def dim_sequence_padic(mu: PartitionDiagram, k: int, N: int, p: int,
                       cap: int = DEFAULT_IDEAL_CLOSURE_CAP) -> PadicDimReport:
    """a_n = log_p|image| / log_p|G_n(Z/p^n)| for n = 2..N, exact.

    Windows n <= k see the identity image and get the trivial record.  For
    a proper ideal (k >= 1) the claimed limit of zero is flagged whenever
    the computed sequence is not visibly decaying: positive-density diagrams
    keep a_n near their density instead.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    rep = PadicDimReport([TRIVIAL if k >= n else ideal_partition_log_order(mu, k, n, p, cap)
                          for n in range(2, N + 1)], False)
    if k >= 1 and N >= 4:
        terms = [a_n for _, _, a_n, _ in rep.rows()]
        rep.discrepancy_flag = terms[-1] > 0 and terms[-1] * 10 >= terms[N // 2 - 2] * 9
    return rep
