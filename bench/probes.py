"""Kernel probes for the coefficient layer, run outside the timed passes.

They time RingElem add/mul, the encoded-int mul returned by Ring.int_ops,
and the int_ops set-up itself (the q^2 tables for q <= 4096), over the
ring ladder F_5, F_9, F_3^5, F_3^8 and Z/27.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

PROBE_RINGS = ("q5", "q9", "q243", "q6561", "z27")
MIN_SAMPLE_S = 0.02


def _ns_per_op(fn, ops, reps=3):
    """Median ns per op over reps samples of at least MIN_SAMPLE_S each."""
    t0 = perf_counter()
    fn()
    loops = max(1, int(MIN_SAMPLE_S / max(perf_counter() - t0, 1e-9)) + 1)
    samples = []
    for _ in range(reps):
        t0 = perf_counter()
        for _ in range(loops):
            fn()
        samples.append((perf_counter() - t0) / (loops * ops) * 1e9)
    return statistics.median(samples)


def _setup_ms(ring):
    """(median ms of ring.int_ops(), the (add, mul) pair it returned)."""
    samples = []
    while len(samples) < 3:
        t0 = perf_counter()
        ops = ring.int_ops()
        samples.append((perf_counter() - t0) * 1e3)
        if samples[-1] > 100:   # table builds this slow are steady; time once
            break
    return statistics.median(samples), ops


def ring_probes(env, seed):
    rng = random.Random(f"probes:{seed}")
    out = {}
    for key in PROBE_RINGS:
        R = env.ring(key)
        q = R.order
        els = [R.decode(rng.randrange(1, q)) for _ in range(256)]
        pairs = list(zip(els, els[1:] + els[:1]))
        out[f"rings.elem_mul_ns.{key}"] = _ns_per_op(lambda: [a * b for a, b in pairs], 256)
        out[f"rings.elem_add_ns.{key}"] = _ns_per_op(lambda: [a + b for a, b in pairs], 256)
        out[f"rings.int_ops_setup_ms.{key}"], (_, mul) = _setup_ms(R)
        codes = [(R.encode(a), R.encode(b)) for a, b in pairs]
        out[f"rings.int_mul_ns.{key}"] = _ns_per_op(lambda: [mul(a, b) for a, b in codes], 256)
    return out
