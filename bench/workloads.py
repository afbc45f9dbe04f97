"""Seeded job streams for the three workloads.

A workload is an endless sequence of rounds.  Round k is generated from
(seed, workload, k) alone, so the traced pass can replay round 0 exactly.
Every round has the same composition of job classes and sizes; the seed
only changes the inputs inside each class (rationals, partitions, random
windows, words, series).  That keeps the cost of a round steady across
seeds while no two seeds share inputs.

A job is prepare (untimed: build library inputs from plain data), run
(timed: one CLI invocation through unitri.cli.main, or one public-API
call) and check (untimed: compare the output with reference.py).
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import reference as ref
from reference import expect

# key -> (p, f, k): the coefficient rings the jobs draw from
RINGS = {
    "q3": (3, 1, 1), "q5": (5, 1, 1), "q7": (7, 1, 1), "q9": (3, 2, 1),
    "q243": (3, 5, 1), "q6561": (3, 8, 1), "z27": (3, 1, 3),
}
ELEM_RINGS = ("q5", "q9", "q243", "q6561", "z27")
ELEM_SIZES = (8, 12, 16)
DIM_LADDER = (100, 200, 500, 1000, 2000)
STAIRCASE_SIZES = (5, 6, 7, 8)
PADIC_CAP = 2000        # closure verifies a padic row only up to this order
FIELDEXT_LADDER = (25, 60, 100, 200)
# (p, f, window): the ladder, and six of similar cost that with the autos-verify
# jobs make up the element-arith 90th-percentile group
FIELDEXT_SLOTS = ((3, 2, 25), (3, 3, 100), (3, 2, 200), (3, 2, 60), (5, 2, 60), (7, 2, 60),
                  (5, 3, 60), (3, 4, 60), (3, 3, 70))


def ring_order(key):
    p, f, k = RINGS[key]
    return p ** (f * k)


class JobError(RuntimeError):
    """A job ended without a usable output (non-zero exit)."""


class Job:
    __slots__ = ("label", "run", "check", "prepare", "sweep")

    def __init__(self, label, run, check, prepare=None, sweep=None):
        self.label = label
        self.run = run
        self.check = check
        self.prepare = prepare or (lambda env: None)
        self.sweep = sweep


class Env:
    """The imported library plus rings built once per import."""

    def __init__(self, u, cli):
        self.u = u
        self.cli = cli
        self._rings = {}

    def ring(self, key):
        if key not in self._rings:
            p, f, k = RINGS[key]
            Ring = self.u.Ring
            self._rings[key] = (Ring.ext_field(p, f) if f > 1 else
                                Ring.integers_mod(p, k) if k > 1 else
                                Ring.prime_field(p))
        return self._rings[key]

    def partition(self, rp):
        kind, v = rp.tail
        Tail = self.u.Tail
        tail = Tail.const(v) if kind == "const" else Tail.affine(v) if kind == "affine" \
            else Tail.empty()
        return self.u.Partition(rp.parts, tail)

    def window(self, key, n, entries):
        R = self.ring(key)
        return self.u.UniTriWindow(R, n, {pos: R.elem(v) for pos, v in entries.items()})


def run_cli(env, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = env.cli.main(list(argv))
    if code != 0:
        raise JobError(f"unitri {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def cli_job(argv, check, sweep=None):
    return Job(f"cli.{argv[0]}", lambda env, st: run_cli(env, argv),
               lambda env, st, out: check(out), sweep=sweep)


def frac_text(fr):
    return f"{fr.numerator}/{fr.denominator}"


# ---------------------------------------------------------------- partition-calculus

def rational(rng):
    b = rng.randint(20, 97)
    return f"{max(1, round(b * rng.uniform(0.2, 0.3)))}/{b}"


def check_dim(out, fmt, mu, N):
    if fmt == "json":
        rep = json.loads(out)
        rows = rep["rows"]
        expect(len(rows) == N - 1, "dim row count")
        count = 0
        for n, row in zip(range(2, N + 1), rows):
            count += mu.h(n)
            a = Fraction(2 * count, n * (n - 1))
            expect(row["n"] == n and row["count"] == count, f"dim count at n={n}")
            expect(row["a_n"] == frac_text(a), f"dim a_n at n={n}")
            expect(abs(float(row["decimal"]) - float(a)) <= 1e-9, f"dim decimal at n={n}")
            if n <= mu.window:
                expect(row.get("mu_n") == mu.h(n), f"dim mu_n at n={n}")
        expect(rep["count_at_N"] == count, "dim count_at_N")
        return
    lines = out.rstrip("\n").split("\n")
    expect(lines[0] == "n,a_n_num,a_n_den,decimal" and len(lines) == N + 1, "dim csv shape")
    count = 0
    for n, line in zip(range(2, N + 1), lines[1:]):
        count += mu.h(n)
        a = Fraction(2 * count, n * (n - 1))
        cells = line.split(",")
        expect(cells[:3] == [str(n), str(a.numerator), str(a.denominator)],
               f"dim csv row n={n}")
    expect(lines[-1] == f"# count_at_{N},{count}", "dim csv count_at_N")


def dim_job(N, fmt, alpha=None, family=None):
    argv = ["dim", "--N", str(N), "--format", fmt]
    argv += ["--alpha", alpha] if alpha else ["--family", family]

    def check(out):
        mu = ref.family_partition(family) if family else \
            ref.RefPartition(ref.alpha_parts(alpha, N))
        check_dim(out, fmt, mu, N)
    return cli_job(argv, check, sweep=f"dim.N{N}" if N in DIM_LADDER else None)


def normalize_job(alpha, N):
    def check(out):
        rep = json.loads(out)
        parts = ref.alpha_parts(alpha, N)
        expect(rep["input_parts"] == parts, "normalize input parts")
        srt = sorted(parts)
        tail = ("const", srt[-1]) if srt[-1] else ("empty", 0)
        expect(rep["normalized"] == ref.RefPartition(srt, tail).text(), "normalized text")
        expect(rep["is_normal"] is True, "normalized partition not normal")
    return cli_job(["normalize", "--alpha", alpha, "--N", str(N), "--format", "json"], check)


def random_partition(rng, w):
    parts = [rng.randint(0, j - 1) for j in range(2, w + 1)]
    kind = rng.choice(("empty", "const", "affine"))
    tail = (kind, 0) if kind == "empty" else \
        (kind, rng.randint(1, w)) if kind == "const" else (kind, rng.randint(1, w + 1))
    return ref.RefPartition(parts, tail)


def random_normal_partition(rng, w):
    parts, h = [], 0
    for j in range(2, w + 1):
        h = min(j - 1, h + rng.choice((0, 0, 1, 1, 2)))
        parts.append(h)
    last = parts[-1]
    if rng.random() < 0.5:
        tail = ("const", rng.randint(max(last, 1), w))
    else:
        tail = ("affine", rng.randint(1, w + 1 - last))
    return ref.RefPartition(parts, tail)


def _rows_used_bound(mu):
    """Largest row holding a square; None when every row is used."""
    kind, v = mu.tail
    if kind == "affine":
        return None
    return max(max(mu.parts, default=0), v if kind == "const" else 0)


def _orth_col(mu, l):
    top = _rows_used_bound(mu)
    if top is None or l <= top:
        return set()
    return {k for k in range(1, l) if mu.h(k) == 0}


def _tail_inf(mu):
    kind, v = mu.tail
    return v if kind == "const" else max(mu.window + 1 - v, 0) if kind == "affine" else 0


def _core_col(mu, j):
    if j > mu.window:
        return set(range(1, mu.h(j) + 1))
    c = min([mu.h(k) for k in range(j, mu.window + 1)] + [_tail_inf(mu)])
    return set(range(1, c + 1))


def _commutator_col(mu, k):
    return {i for i in range(1, k)
            if any(i <= mu.h(j) for j in range(i + 1, k)) or i <= mu.h(k) - 1}


def _preimage_col(mu, k):
    far = k + mu.window + 8
    return {i for i in range(1, k)
            if i <= mu.h(k) + 1 and all(i <= mu.h(l) for l in range(k + 1, far))}


DIAGRAM_OPS = {
    "orthogonal": (lambda d: d.orthogonal(), lambda mu: lambda j: _orth_col(mu, j)),
    "centre": (lambda d: d.centre(),
               lambda mu: lambda j: set(range(1, mu.h(j) + 1)) & _orth_col(mu, j)),
    "normal_core": (lambda d: d.normal_core(), lambda mu: lambda j: _core_col(mu, j)),
    "normal_closure": (lambda d: d.normal_closure(),
                       lambda mu: lambda j: set(range(1, max(mu.h(k) for k in range(2, j + 1)) + 1))),
}


def _check_columns(result, col_fn, what):
    upto = result.window + 6 if result.tail_exact else result.window
    expect(ref.lib_columns(result, upto) == ref.columns(col_fn, upto), f"{what} squares")


def diagram_job(op, mu):
    call, expected = DIAGRAM_OPS[op]
    return Job(f"lib.{op}", lambda env, d: call(d),
               lambda env, d, res: _check_columns(res, expected(mu), op),
               prepare=lambda env: env.partition(mu))


def lattice_job(op, m1, m2):
    pick = min if op == "lattice_intersect" else max
    return Job(f"lib.{op}", lambda env, st: getattr(env.u, op)(*st),
               lambda env, st, res: _check_columns(
                   res, lambda j: set(range(1, pick(m1.h(j), m2.h(j)) + 1)), op),
               prepare=lambda env: (env.partition(m1), env.partition(m2)))


def normal_op_job(op, mu):
    col = _commutator_col if op == "commutator_with_group" else _preimage_col
    return Job(f"lib.{op}", lambda env, d: getattr(env.u, op)(d),
               lambda env, d, res: _check_columns(res, lambda k: col(mu, k), op),
               prepare=lambda env: env.partition(mu))


def format_job(mu):
    def run(env, d):
        text = env.u.format_partition(d)
        return text, env.u.parse_partition(text)

    def check(env, d, out):
        text, back = out
        expect(text == mu.text(), "format_partition text")
        expect(list(back.parts) == mu.parts, "parse_partition parts")
        expect((back.tail.kind, back.tail.value) == mu.tail, "parse_partition tail")
    return Job("lib.format_parse", run, check, prepare=lambda env: env.partition(mu))


def partition_round(rng):
    # Sizes are fixed per slot and the seed draws only contents, so every
    # round has the same cost profile.  The slots are grouped so that the
    # median and the 90th percentile of job latency fall inside a group of
    # jobs of similar cost instead of on the gap between two classes.
    a, b = random_partition(rng, 20), random_partition(rng, 24)
    n1, n2 = random_normal_partition(rng, 20), random_normal_partition(rng, 24)
    d_lc, d_der, c = rng.randint(1, 4), rng.randint(1, 3), rng.randint(2, 6)
    lc, der, rect = f"lower-central:{d_lc}", f"derived:{d_der}", \
        f"rectangular:{c},{rng.randint(1, c)}"
    jobs = [  # sub-millisecond diagram calculus and N = 100 reports
        diagram_job("orthogonal", a), diagram_job("centre", a), format_job(a),
        diagram_job("orthogonal", b), diagram_job("normal_core", b),
        diagram_job("normal_closure", b), lattice_job("lattice_union", a, b),
        lattice_job("lattice_intersect", a, b), normal_op_job("commutator_with_group", n1),
        normal_op_job("centre_preimage", n2),
        dim_job(100, "json", alpha="pi-inv"), dim_job(100, "csv", alpha="e-3"),
        dim_job(100, "json", family=der), dim_job(100, "csv", family=lc),
        dim_job(100, "json", family=rect)]
    # the median group: seeded rationals at N = 200
    jobs += [dim_job(200, "json", alpha=rational(rng)) for _ in range(8)]
    jobs += [normalize_job(rational(rng), 200) for _ in range(2)]
    jobs += [dim_job(200, "csv", alpha="pi-inv"), dim_job(500, "json", alpha="e-3"),
             dim_job(500, "csv", alpha="pi-inv"), normalize_job("e-3", 500),
             dim_job(1000, "csv", family=der), dim_job(2000, "json", family=lc),
             dim_job(2000, "csv", family=rect)]
    # the 90th-percentile group, then the two slowest reports
    jobs += [dim_job(800, "json", alpha="pi-inv"), normalize_job("pi-inv", 800),
             dim_job(1200, "csv", alpha="e-3"), dim_job(1400, "json", alpha="e-3"),
             dim_job(1500, "csv", alpha="e-3"), normalize_job("e-3", 2000),
             dim_job(1000, "json", alpha="pi-inv"), dim_job(2000, "json", alpha="e-3")]
    return jobs


def partition_warmup(rng):
    mu = random_partition(rng, 7)
    return [dim_job(30, "json", alpha="pi-inv"), dim_job(30, "csv", family="derived:2"),
            normalize_job("e-3", 30), diagram_job("orthogonal", mu), format_job(mu),
            normal_op_job("commutator_with_group", random_normal_partition(rng, 7))]


# ---------------------------------------------------------------- group-orders

def heights_with_count(rng, n, c, first=0):
    """Heights h_2..h_n, h_j <= j - 1, with exactly c squares."""
    parts = [first] + [0] * (n - 2)
    left = c - first
    while left:
        j = rng.randint(2, n)
        if parts[j - 2] < j - 1:
            parts[j - 2] += 1
            left -= 1
    return parts


def staircase_job(n):
    def prepare(env):
        return env.u.periodic_generators(env.ring("q3"), n)

    def check(env, gens, order):
        # closed form of the free-product image: log_3 index n - 2 + ceil(n/2)
        expect(order == 3 ** (n - 2 + (n + 1) // 2), f"staircase order at n={n}")
    return Job("lib.closure_order.staircase", lambda env, gens: env.u.closure_order(gens),
               check, prepare, sweep=f"closure.n{n}")


def closure_job(rng, key, n, c):
    parts = heights_with_count(rng, n, c)

    def run(env, st):
        mu, R = st
        return env.u.closure_order(env.u.subgroup_generators(mu, R, n))

    def check(env, st, order):
        expect(order == ring_order(key) ** c, f"partition subgroup order over {key}")
    return Job("lib.closure_order.partition", run, check,
               prepare=lambda env: (env.partition(ref.RefPartition(parts)), env.ring(key)))


def elements_job(rng, key, n, c):
    parts = heights_with_count(rng, n, c)

    def run(env, st):
        mu, R = st
        els = env.u.closure_elements(env.u.subgroup_generators(mu, R, n))
        return els, [env.u.membership(x, mu) for x in els]

    def check(env, st, out):
        els, flags = out
        want = ring_order(key) ** c
        keys = {tuple(sorted((pos, v.val) for pos, v in x.items())) for x in els}
        expect(len(els) == want and len(keys) == want, "closure_elements count")
        expect(all(i <= parts[j - 2] for x in els for (i, j), _ in x.items()),
               "closure element outside the partition")
        expect(all(flags), "membership oracle rejected a closure element")
    return Job("lib.closure_elements", run, check,
               prepare=lambda env: (env.partition(ref.RefPartition(parts)), env.ring(key)))


def dimseq_group_job(rng):
    N = 6
    parts = heights_with_count(rng, N, 6, first=1)

    def run(env, st):
        mu, R = st
        return env.u.dim_sequence_group(
            lambda n: env.u.subgroup_generators(mu, R, n), N, 3).terms

    def check(env, st, terms):
        mu = ref.RefPartition(parts)
        want = [Fraction(2 * mu.count(n), n * (n - 1)) for n in range(2, N + 1)]
        expect(list(terms) == want, "dim_sequence_group terms")
    return Job("lib.dim_sequence_group", run, check,
               prepare=lambda env: (env.partition(ref.RefPartition(parts)), env.ring("q3")))


def padic_job(rng, p, k, N):
    mu = ref.RefPartition([rng.randint(0, 1) for _ in range(3)], ("const", 1))

    def check(out):
        rows = json.loads(out)["rows"]
        expect(len(rows) == N - 1, "padic row count")
        for n, row in zip(range(2, N + 1), rows):
            count = mu.count(n)
            log = (n - k) * count if k < n else 0
            expect(row["n"] == n and row["log_order"] == log, f"padic log order at n={n}")
            expect(row["a_n"] == frac_text(Fraction(2 * log, n * n * (n - 1))),
                   f"padic a_n at n={n}")
            closable = k >= n or count == 0 or p ** log <= PADIC_CAP
            expect(row["verified"] is closable, f"padic verified flag at n={n}")
    argv = ["padic", "--p", str(p), "--k", str(k), "--partition", mu.text(),
            "--N", str(N), "--cap", str(PADIC_CAP), "--format", "json"]
    return cli_job(argv, check)


def centralizer_job(rng, key, w):
    p, f, _ = RINGS[key]
    mu = ref.RefPartition(heights_with_count(rng, w, w))

    def check(out):
        rep = json.loads(out)
        squares = {(i, j) for j in range(2, w + 1) for i in range(1, mu.h(j) + 1)}
        rows = {i for i, _ in squares}
        cols = {j for _, j in squares}
        # x commutes with 1 + a e_(i,j), a != 0, iff column i and row j of x vanish
        orth = {(r, c) for c in range(2, w + 1) for r in range(1, c)
                if c not in rows and r not in cols}
        basis = rep["basis"]
        expect(rep["log_order"] == len(orth) == len(basis), "centralizer dimension")
        for vec in basis:
            expect(vec and {(i, j) for i, j, _ in vec} <= orth,
                   "centralizer basis vector does not commute")
    argv = ["centralizer", "--p", str(p), "--f", str(f), "--window", str(w),
            "--partition", mu.text(), "--format", "json"]
    return cli_job(argv, check)


# (ring, window, squares); the last five are the 90th-percentile group
# together with the n = 7 staircase
CLOSURE_SPECS = (("q3", 4, 3), ("q5", 4, 3), ("q9", 4, 3), ("q3", 5, 5),
                 ("q3", 6, 6), ("q5", 6, 5), ("q9", 5, 4)) + (("q3", 7, 8),) * 5
ELEMENT_SPECS = (("q3", 5, 4), ("q5", 4, 3), ("q9", 4, 2))
# centralizer (ring, window): three cheap ones, the median group, one large
CENTRALIZER_SLOTS = ((("q3", 6), ("q5", 6), ("q9", 6)) + (("q3", 10),) * 3
                     + (("q5", 10),) * 3 + (("q9", 8),) * 2 + (("q9", 12),))


def group_round(rng):
    jobs = [staircase_job(n) for n in STAIRCASE_SIZES]
    jobs += [closure_job(rng, *spec) for spec in CLOSURE_SPECS]
    jobs += [elements_job(rng, *spec) for spec in ELEMENT_SPECS]
    jobs.append(dimseq_group_job(rng))
    jobs += [padic_job(rng, p, k, N) for p, k, N in ((3, 0, 9), (3, 1, 13), (5, 0, 13),
                                                      (5, 1, 9))]
    jobs += [centralizer_job(rng, key, w) for key, w in CENTRALIZER_SLOTS]
    return jobs


def group_warmup(rng):
    return [staircase_job(4), closure_job(rng, "q3", 4, 2), elements_job(rng, "q3", 4, 2),
            padic_job(rng, 3, 1, 6), centralizer_job(rng, "q3", 5)]


# ---------------------------------------------------------------- element-arith

def random_entries(rng, key, n):
    """Uniform values on every strictly upper position (zeros included), so
    that the cost of an operation depends on n and the ring, not the draw."""
    p, f, k = RINGS[key]
    def val():
        return tuple(rng.randrange(p) for _ in range(f)) if f > 1 else rng.randrange(p ** k)
    return {(i, j): val() for i in range(1, n + 1) for j in range(i + 1, n + 1)}


def _refring(env, key):
    return ref.ring_of(env.ring(key))


def _check_mul(R, x, y, z):
    return ref.matmul(R, ref.dense(R, x), ref.dense(R, y)) == ref.dense(R, z)


def _check_inv(R, x, y, z):
    return ref.matmul(R, ref.dense(R, x), ref.dense(R, z)) == ref.identity(R, x.n)


def _check_commutator(R, x, y, z):
    # [x, y] = x^-1 y^-1 x y, so y x [x, y] = x y
    dx, dy = ref.dense(R, x), ref.dense(R, y)
    return ref.matmul(R, ref.matmul(R, dy, dx), ref.dense(R, z)) == ref.matmul(R, dx, dy)


def _check_conjugate(R, g, x, z):
    # z = g x g^-1, so z g = g x
    dg = ref.dense(R, g)
    return ref.matmul(R, ref.dense(R, z), dg) == ref.matmul(R, dg, ref.dense(R, x))


MAT_CHECKS = {"mat_mul": _check_mul, "mat_inv": _check_inv,
              "commutator": _check_commutator, "conjugate": _check_conjugate}


def mat_job(rng, op, key, n):
    ex, ey = random_entries(rng, key, n), random_entries(rng, key, n)

    def run(env, st):
        x, y = st
        return env.u.mat_inv(x) if op == "mat_inv" else getattr(env.u, op)(x, y)

    def check(env, st, z):
        expect(MAT_CHECKS[op](_refring(env, key), st[0], st[1], z), f"{op} over {key} n={n}")
    return Job(f"lib.{op}", run, check,
               prepare=lambda env: (env.window(key, n, ex), env.window(key, n, ey)),
               sweep=f"elem.{key}.n{n}")


def distance_job(rng, key, n):
    ex = random_entries(rng, key, n)
    m = rng.randint(1, n - 1)
    ey = {pos: v for pos, v in ex.items() if pos[1] <= m}
    ey.update({pos: v for pos, v in random_entries(rng, key, n).items() if pos[1] > m})

    def check(env, st, d):
        R = _refring(env, key)
        v = ref.leading_agreement(ref.dense(R, st[0]), ref.dense(R, st[1]))
        expect(d == Fraction(1, RINGS[key][0]) ** v, f"distance over {key} n={n}")
    return Job("lib.distance", lambda env, st: env.u.distance(*st), check,
               prepare=lambda env: (env.window(key, n, ex), env.window(key, n, ey)),
               sweep=f"elem.{key}.n{n}")


def factorization_job(rng, key, n=8):
    ex = random_entries(rng, key, n)

    def run(env, x):
        word = env.u.elementary_factorization(x)
        return word, env.u.evaluate_generator_word(x.ring, n, word)

    def check(env, x, out):
        word, back = out
        R = _refring(env, key)
        want = ref.dense(R, x)
        expect(ref.elementary_word(R, n, word) == want, f"factorization word over {key}")
        expect(ref.dense(R, back) == want, f"factorization round trip over {key}")
    return Job("lib.factorization", run, check,
               prepare=lambda env: env.window(key, n, ex), sweep=f"elem.{key}.n{n}")


def restrict_job(rng, key, n):
    p, f, _ = RINGS[key]
    ex = random_entries(rng, key, n)

    def prepare(env):
        return env.u.EmbeddingContext(p, f), env.window(key, n, ex)

    def check(env, st, z):
        ctx, x = st
        expect(all(b == tuple(int(i == j) for i in range(f))
                   for j, b in enumerate(ctx.ring_q.basis)), "power basis expected")
        Rq, Rp = _refring(env, key), ref.RefRing(p)
        want = ref.identity(Rp, n * f)
        for (i, j), v in x.items():
            for bj in range(f):
                col = Rq.mul(v.val, tuple(int(t == bj) for t in range(f)))
                for bi in range(f):
                    want[(i - 1) * f + bi][(j - 1) * f + bj] = col[bi]
        expect(z.n == n * f and ref.dense(Rp, z) == want, f"restrict_scalars over {key}")
    return Job("lib.restrict_scalars", lambda env, st: env.u.restrict_scalars(*st), check,
               prepare, sweep=f"elem.{key}.n{n}")


def autos_job(p, f, w):
    def check(out):
        rep = json.loads(out)
        expect(rep["failures"] == 0 and all(c["pass"] for c in rep["checks"]),
               f"autos-verify failures over F_{p}^{f} window {w}")
    return cli_job(["autos-verify", "--p", str(p), "--f", str(f), "--window", str(w),
                    "--format", "json"], check)


def nottingham_job(rng, key, w):
    p, f, _ = RINGS[key]
    coeffs = [",".join(str(rng.randrange(p)) for _ in range(f)) for _ in range(w - 1)]
    series = json.dumps({"q": {"p": p, "f": f}, "coeffs": coeffs})

    def check(out):
        rep = json.loads(out)
        R = ref.RefRing.from_json(rep["series"]["q"])
        u = [R.parse(c) for c in coeffs]
        v = [R.parse(c) for c in rep["inverse_coeffs"]]
        expect(len(v) == w - 1, "inverse length")
        ident = [R.zero, R.one] + [R.zero] * (w - 1)
        expect(ref.substitute(R, [R.zero, R.one] + u, [R.zero, R.one] + v, w) == ident,
               "compose(u, invert(u)) is not the identity")
        mu = ref.series_rows(R, u, w)
        expect(ref.from_entries(R, w, rep["matrix"]["entries"]) == mu, "series_matrix rows")
        expect(ref.matmul(R, mu, ref.series_rows(R, v, w)) == ref.identity(R, w),
               "series_matrix(invert(u)) is not the inverse matrix")
        expect(rep["first_row_determined"] is True, "first row not determining")
    return cli_job(["nottingham", "--series", series, "--window", str(w),
                    "--format", "json"], check)


def word_job(rng, p, w):
    # x^a1 y^b1 ... x^al y^bl: case i has a1, bl != 0, case ii a1 = 0,
    # case iii a1 = bl = 0; words ending in x have no readable length
    length = (w - 2) // 2
    case = rng.choice(("i", "ii", "iii"))
    sylls = [(l, rng.randint(1, p - 1)) for _ in range(length) for l in "xy"]
    sylls = sylls[1:] if case == "ii" else sylls[1:-1] if case == "iii" else sylls
    text = " ".join(l if e == 1 else f"{l}^{e}" for l, e in sylls)

    def check(out):
        rep = json.loads(out)
        R = ref.RefRing(p)
        want = ref.identity(R, w)
        for l, e in sylls:
            step = ref.identity(R, w)
            for i in range(1 if l == "x" else 2, w, 2):
                step[i - 1][i] = e
            want = ref.matmul(R, want, step)
        expect((rep["length"], rep["case"]) == (length, case), "word length read back")
        expect(ref.from_entries(R, w, rep["matrix"]["entries"]) == want, "word matrix")
    return cli_job(["word", "--p", str(p), "--window", str(w), "--format", "json", text],
                   check)


def fieldext_job(p, f, w):
    def check(out):
        rep = json.loads(out)
        r, s = divmod(w, f)
        # F_q entries above the block diagonal, f coordinates each; the partial
        # last block column still determines its entries
        e = f * sum(1 for I in range(1, r + 1) for J in range(I + 1, r + 1 + (s > 0)))
        den = w * (w - 1)
        expect(rep["image_log_order_p"] == e, "fieldext image log order")
        expect(rep["image_ratio"] == frac_text(Fraction(2 * e, den)), "fieldext ratio")
        expect(rep["sandwich_low"] == frac_text(Fraction(f * r * (r - 1), den))
               and rep["sandwich_high"] == frac_text(Fraction(f * r * (r + 1), den)),
               "fieldext sandwich bounds")
        expect(rep["sandwich_holds"] is True and rep["valuation_relation_holds"] is True,
               "fieldext relations")
        expect(rep["extension_image_ratio"] == frac_text(Fraction(1, f)), "extension ratio")
    return cli_job(["fieldext", "--p", str(p), "--f", str(f), "--window", str(w),
                    "--format", "json"], check,
                   sweep=f"fieldext.w{w}" if w in FIELDEXT_LADDER else None)


AUTOS_SPECS = ((3, 1, 4), (3, 1, 6), (5, 1, 5), (3, 2, 4), (3, 5, 4))
NOTTINGHAM_SLOTS = (("q5", 8), ("q7", 12), ("q9", 16), ("q5", 20), ("q7", 20), ("q9", 20),
                    ("q5", 24), ("q9", 30))
WORD_SLOTS = ((3, 8), (5, 10), (7, 12), (3, 14), (5, 16), (7, 16), (3, 12), (5, 8))


def element_round(rng):
    jobs = []
    for key in ELEM_RINGS:
        for n in ELEM_SIZES:
            jobs += [mat_job(rng, op, key, n) for op in MAT_CHECKS]
            jobs.append(distance_job(rng, key, n))
            if RINGS[key][1] > 1:
                jobs.append(restrict_job(rng, key, n))
        jobs.append(factorization_job(rng, key))
    jobs += [autos_job(*spec) for spec in AUTOS_SPECS]
    jobs += [nottingham_job(rng, key, w) for key, w in NOTTINGHAM_SLOTS]
    jobs += [word_job(rng, p, w) for p, w in WORD_SLOTS]
    jobs += [fieldext_job(*spec) for spec in FIELDEXT_SLOTS]
    return jobs


def element_warmup(rng):
    return [mat_job(rng, "mat_mul", key, 4) for key in ELEM_RINGS] + [
        factorization_job(rng, "q5", 4), restrict_job(rng, "q9", 4), autos_job(3, 1, 4),
        nottingham_job(rng, "q5", 6), word_job(rng, 3, 6), fieldext_job(3, 2, 10)]


class Workload:
    """A round generator plus what its traced pass must show.

    spans: span names that must fire; edges: (caller, callee) span pairs that
    must occur, one per import-time binding the workload depends on;
    dominant: layers allowed to hold the most self time; closure_share: the
    least share of the matrices layer's self time spent in closure spans.
    """

    def __init__(self, name, make_round, make_warmup, spans, edges, dominant,
                 closure_share=0.0):
        self.name = name
        self._round = make_round
        self._warmup = make_warmup
        self.spans = spans
        self.edges = edges
        self.dominant = dominant
        self.closure_share = closure_share

    def round(self, seed, k):
        return self._round(random.Random(f"{self.name}:{seed}:{k}"))

    def warmup(self, seed):
        return self._warmup(random.Random(f"{self.name}:{seed}:warmup"))


WORKLOADS = {w.name: w for w in (
    Workload(
        "partition-calculus", partition_round, partition_warmup,
        spans=("cli.main", "cli.dim", "cli.normalize", "hausdorff.partition_for_alpha",
               "hausdorff.floor_times", "hausdorff.dim_sequence_partition",
               "hausdorff.monotone_normalize", "partitions.construct",
               "partitions.count_upto", "partitions.orthogonal", "partitions.centre",
               "partitions.normal_core", "partitions.normal_closure",
               "partitions.lattice_union", "partitions.lattice_intersect",
               "partitions.commutator_with_group", "partitions.centre_preimage",
               "partitions.format_partition", "partitions.parse_partition"),
        edges=(("cli.main", "cli.dim"), ("cli.dim", "hausdorff.partition_for_alpha"),
               ("hausdorff.partition_for_alpha", "partitions.construct")),
        dominant=("partitions", "hausdorff")),
    Workload(
        "group-orders", group_round, group_warmup,
        spans=("matrices.closure_dense", "matrices.closure_order",
               "matrices.closure_elements", "matrices.dense_mul", "matrices.dense_init",
               "partitions.subgroup_generators", "partitions.membership",
               "hausdorff.dim_sequence_group", "padic.dim_sequence_padic",
               "padic.ideal_partition_log_order", "fieldext.centralizer_solve",
               "cli.padic", "cli.centralizer"),
        edges=(("hausdorff.dim_sequence_group", "matrices.closure_order"),
               ("padic.ideal_partition_log_order", "matrices.closure_dense"),
               ("cli.main", "cli.padic"), ("cli.main", "cli.centralizer")),
        dominant=("matrices",), closure_share=0.5),
    Workload(
        "element-arith", element_round, element_warmup,
        spans=("matrices.mat_mul", "matrices.mat_inv", "matrices.commutator",
               "matrices.conjugate", "matrices.distance", "matrices.dense_mul",
               "matrices.dense_init", "autos.elementary_factorization",
               "autos.evaluate_generator_word", "autos.is_homomorphism",
               "autos.extend_generator_map", "fieldext.restrict_scalars", "series.compose",
               "series.invert", "series.series_matrix", "freeprod.embed_word",
               "freeprod.read_word_length", "cli.autos-verify", "cli.nottingham",
               "cli.word", "cli.fieldext"),
        edges=(("autos.is_homomorphism", "matrices.mat_mul"),
               ("autos.extend_generator_map", "matrices.dense_init"),
               ("autos.evaluate_generator_word", "matrices.mat_mul")),
        dominant=("matrices", "series", "autos", "fieldext")),
)}
