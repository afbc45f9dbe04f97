"""unitri benchmark: seeded closed-loop job workloads, checked and timed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src.  One client runs one job at a time (closed loop, no threads): the
next job starts only when the previous one has finished.  Rounds of jobs
run until S seconds of job time (at reference speed, see speed.py) have
passed and at least MIN_JOBS jobs in MIN_ROUNDS rounds ran; only whole
rounds run, so every run has the same job mix.

--trace 0 prints the end-to-end metrics; --trace 1 also replays round 0
with span tracing installed, runs the rings probes, and prints the
per-layer metrics.  The last line of stdout is one JSON object; metric
names and units come from BENCHMARK.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from probes import ring_probes
from speed import Speed
from tracing import CLOSURE_SPANS, LAYERS, Tracer, layer_self
from workloads import WORKLOADS, Env

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPS = 3
MIN_JOBS = 100
MIN_ROUNDS = 3
TAIL_LADDER = (99.9, 99, 90, 50)
HARD_STOP_S = 110        # start no new round after this much wall time


def fail(msg, code=2):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


def fresh_env():
    """Import unitri from ./src afresh (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "unitri" or m.startswith("unitri.")]:
        del sys.modules[name]
    u = importlib.import_module("unitri")
    cli = importlib.import_module("unitri.cli")
    if Path(u.__file__).resolve().parent != SRC / "unitri":
        fail(f"imported unitri from {u.__file__}, not from {SRC}")
    return Env(u, cli)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, job, err):
        self.attempted += 1
        if err is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{job.label}: {type(err).__name__}: {err}")


def check(env, job, state, out, err, tally):
    if err is None:
        try:
            job.check(env, state, out)
        except Exception as exc:
            err = exc
    tally.record(job, err)
    return err is None


def timed_run(env, job, state, speed=None, runner=None):
    """Time job.run; returns (raw s, scaled s, output, exception or None).

    With a `speed`, the heap is collected and the host speed calibrated
    around the call; without one (warm-up) the scaled time is the raw time.
    """
    if speed is not None:
        gc.collect()    # start every job on a collected heap: less run-to-run jitter
        speed.mark()
    out = err = None
    t0 = perf_counter()
    try:
        out = runner(job.run, env, state) if runner else job.run(env, state)
    except (Exception, SystemExit) as exc:  # a failing job is a result, not a crash
        err = exc
    raw = perf_counter() - t0
    return raw, raw if speed is None else speed.scaled(raw), out, err


def attempt(env, job, tally, speed=None):
    """Prepare, time and check one job; returns (raw s, scaled s, ok)."""
    state = job.prepare(env)
    raw, scaled, out, err = timed_run(env, job, state, speed)
    return raw, scaled, check(env, job, state, out, err, tally)


def setup(wl, seed, tally, speed):
    """Import, job-list generation and warm-up, SETUP_REPS times; median s."""
    times = []
    for _ in range(SETUP_REPS):
        speed.mark()
        t0 = perf_counter()
        env = fresh_env()
        first = wl.round(seed, 0)
        for job in wl.warmup(seed):
            attempt(env, job, tally)
        times.append(speed.scaled(perf_counter() - t0))
    return env, first, statistics.median(times)


def timed_pass(env, wl, seed, seconds, first, tally, speed):
    """Whole rounds until `seconds` of job time, MIN_JOBS jobs and MIN_ROUNDS rounds."""
    records = []         # (job, raw s, scaled s, ok)
    round_busy = []      # scaled seconds per round
    start = perf_counter()
    k = 0
    busy = 0.0
    while ((busy < seconds or len(records) < MIN_JOBS or k < MIN_ROUNDS)
           and perf_counter() - start < HARD_STOP_S):
        jobs = first if k == 0 else wl.round(seed, k)
        t = 0.0
        for job in jobs:
            raw, scaled, ok = attempt(env, job, tally, speed)
            records.append((job, raw, scaled, ok))
            t += scaled
        round_busy.append(t)
        busy += t
        k += 1
    return records, round_busy


def tail(latencies):
    """(percentile, value) at the highest ladder percentile with >= 10 jobs beyond."""
    lat = sorted(latencies)
    n = len(lat)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, lat[rank - 1]
    return 50, lat[math.ceil(n / 2) - 1]


def end_to_end(lat, ok, setup_s):
    pct, tail_s = tail(lat)
    return {
        "jobs_per_s": ok / sum(lat),
        "job_p50_ms": statistics.median(lat) * 1e3,
        "job_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
        "failed_ratio": (len(lat) - ok) / len(lat),
    }, pct


def traced_round(env, wl, seed, tally, speed):
    """Replay round 0 under the tracer; checks run after it is removed.

    Returns (tracer, scaled busy s, raw busy s)."""
    jobs = wl.round(seed, 0)
    states = [job.prepare(env) for job in jobs]
    tracer = Tracer()
    tracer.install()
    outs = []
    raw_busy = scaled_busy = 0.0
    try:
        for job, state in zip(jobs, states):
            raw, scaled, out, err = timed_run(env, job, state, speed, tracer.job)
            raw_busy += raw
            scaled_busy += scaled
            outs.append((out, err))
    finally:
        tracer.uninstall()
    for job, state, (out, err) in zip(jobs, states, outs):
        check(env, job, state, out, err, tally)
    return tracer, scaled_busy, raw_busy


def verify_trace(wl, tracer, summary):
    """Every declared span and edge fired; the named layers dominate."""
    missing = [s for s in wl.spans if s not in summary]
    if missing:
        fail(f"declared spans never fired on {wl.name}: {missing}", 3)
    names = tracer.names
    edges = {(names[tracer.span_name[p]], names[tracer.span_name[i]])
             for i, p in enumerate(tracer.parent) if p >= 0}
    absent = [e for e in wl.edges if e not in edges]
    if absent:
        fail(f"expected caller -> callee spans missing on {wl.name}: {absent}", 3)
    layers = layer_self(summary)
    layers.pop("bench", None)
    top = max(layers, key=layers.get)
    if top not in wl.dominant:
        fail(f"layer with most self time on {wl.name} is {top}, expected one of "
             f"{wl.dominant}: {sorted(layers.items(), key=lambda kv: -kv[1])}", 3)
    if wl.closure_share:
        closure = sum(summary[n][1] for n in summary
                      if n in CLOSURE_SPANS or n.startswith("matrices.dense_"))
        if closure < wl.closure_share * layers["matrices"]:
            fail(f"closure spans hold {closure:.3f}s of {layers['matrices']:.3f}s "
                 f"matrices self time on {wl.name}", 3)
    return layers


def per_layer(tracer, summary, layers, records, overhead, probes, factor):
    """Per-layer metrics; span times are scaled to reference speed by `factor`."""

    def calls(name):
        return summary.get(name, (0, 0.0, 0.0))[0]

    def own(name):
        return summary.get(name, (0, 0.0, 0.0))[1] * factor

    m = {}
    n_closure = calls("matrices.closure_dense")
    closure_total = summary.get("matrices.closure_dense", (0, 0.0, 0.0))[2] * factor
    elements = tracer.closure_elements
    m["matrices.closure.self_s"] = sum(own(n) for n in CLOSURE_SPANS)
    m["matrices.closure.calls"] = n_closure
    m["matrices.closure.elements"] = elements
    m["matrices.closure.elements_per_s"] = elements / closure_total if closure_total else 0
    m["matrices.closure.cap_hit_ratio"] = tracer.closure_cap_hits / n_closure if n_closure else 0
    m["matrices.closure.bytes_per_element"] = tracer.closure_bytes / elements if elements else 0
    for op in ("dense_mul", "mat_mul", "mat_inv"):
        m[f"matrices.{op}.calls"] = calls(f"matrices.{op}")
        m[f"matrices.{op}.self_s"] = own(f"matrices.{op}")
    m["partitions.construct.self_s"] = own("partitions.construct")
    m["partitions.count_upto.calls"] = calls("partitions.count_upto")
    m["partitions.count_upto.self_s"] = own("partitions.count_upto")
    m["partitions.diagram_ops.self_s"] = (layers.get("partitions", 0.0) * factor
                                          - own("partitions.construct")
                                          - own("partitions.count_upto"))
    for fn in ("partition_for_alpha", "dim_sequence_partition", "monotone_normalize",
               "dim_sequence_group"):
        m[f"hausdorff.{fn}.self_s"] = own(f"hausdorff.{fn}")
    m["hausdorff.floor_times.calls"] = calls("hausdorff.floor_times")
    m["series.compose.calls"] = calls("series.compose")
    for fn in ("compose", "invert", "series_matrix"):
        m[f"series.{fn}.self_s"] = own(f"series.{fn}")
    for fn in ("embed_word", "read_word_length"):
        m[f"freeprod.{fn}.self_s"] = own(f"freeprod.{fn}")
    for fn in ("is_homomorphism", "elementary_factorization", "extend_generator_map"):
        m[f"autos.{fn}.self_s"] = own(f"autos.{fn}")
    m["autos.elementary_factorization.calls"] = calls("autos.elementary_factorization")
    m["fieldext.restrict_scalars.calls"] = calls("fieldext.restrict_scalars")
    m["fieldext.restrict_scalars.self_s"] = own("fieldext.restrict_scalars")
    m["fieldext.centralizer_solve.self_s"] = own("fieldext.centralizer_solve")
    m["padic.ideal_partition_log_order.calls"] = calls("padic.ideal_partition_log_order")
    m["padic.ideal_partition_log_order.self_s"] = own("padic.ideal_partition_log_order")
    m["padic.verified_ratio"] = (tracer.padic_verified / tracer.padic_results
                                 if tracer.padic_results else 0)
    m["cli.main.self_s"] = own("cli.main")
    for sub in ("dim", "normalize", "word", "nottingham", "centralizer", "autos-verify",
                "padic", "fieldext"):
        m[f"cli.{sub}.self_s"] = own(f"cli.{sub}")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layers.get(layer, 0.0) * factor
    m["trace.overhead_ratio"] = overhead
    m.update(probes)
    by_sweep = {}
    for job, _, latency, _ in records:
        if job.sweep:
            by_sweep.setdefault(job.sweep, []).append(latency)
    for key, lat in by_sweep.items():
        m[f"sweep.{key}.p50_ms"] = statistics.median(lat) * 1e3
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "unitri" / "__init__.py").is_file():
        fail(f"no unitri sources under {SRC}; run from a source checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        fail(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")

    tally = Tally()
    speed = Speed()
    env, first, setup_s = setup(wl, args.seed, tally, speed)
    records, round_busy = timed_pass(env, wl, args.seed, args.seconds, first, tally, speed)
    ok = sum(1 for r in records if r[3])
    e2e, pct = end_to_end([r[2] for r in records], ok, setup_s)
    raw, _ = end_to_end([r[1] for r in records], ok, setup_s)

    print(f"workload {wl.name}  seed {args.seed}  jobs {len(records)} in "
          f"{len(round_busy)} rounds, closed loop, 1 client")
    print("  times at reference speed (bench/speed.py); raw wall figures in brackets")
    print(f"  jobs_per_s    {e2e['jobs_per_s']:.4f} jobs/s  [{raw['jobs_per_s']:.4f}]")
    print(f"  job_p50_ms    {e2e['job_p50_ms']:.3f} ms  [{raw['job_p50_ms']:.3f}]")
    print(f"  job_tail_ms   {e2e['job_tail_ms']:.3f} ms  [{raw['job_tail_ms']:.3f}]  "
          f"(p{pct:g} of {len(records)} jobs)")
    print(f"  peak_rss_mb   {e2e['peak_rss_mb']:.1f} MB")
    print(f"  setup_s       {setup_s:.4f} s  (median of {SETUP_REPS})")
    print(f"  failed_ratio  {e2e['failed_ratio']:.4f}  ({tally.failed} of {tally.attempted} "
          "attempted, warm-up included)")
    for line in tally.errors:
        print(f"  failure: {line}")

    if args.trace:
        speed.mark()
        t0 = perf_counter()
        probes = ring_probes(env, args.seed)
        raw_s = perf_counter() - t0
        probe_factor = speed.scaled(raw_s) / raw_s
        probes = {k: v * probe_factor for k, v in probes.items()}
        tracer, traced_busy, traced_raw = traced_round(env, wl, args.seed, tally, speed)
        summary = tracer.summary()
        layers = verify_trace(wl, tracer, summary)
        computed = per_layer(tracer, summary, layers, records, traced_busy / round_busy[0],
                             probes, traced_busy / traced_raw)
        wanted = spec["per_layer"]
        print(f"traced replay of round 0: {traced_busy:.3f} s against "
              f"{round_busy[0]:.3f} s untraced, {len(tracer.span_name)} spans")
        for layer, s in sorted(layer_self(summary).items(), key=lambda kv: -kv[1]):
            print(f"  self {layer:<12} {s:.4f} s (raw)")
    else:
        computed = e2e
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted
               if m["name"] not in computed and not m["name"].startswith("sweep.")]
    if missing:
        fail(f"BENCHMARK.json names metrics this run does not compute: {missing}", 3)
    # a sweep class with no jobs in this workload reads 0, as unused spans do
    metrics = {m["name"]: {"value": computed.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
