"""Run one workload job in this (fresh) interpreter and print one JSON line.

    python3 perfbench/worker.py <workload> <seed> <trace 0|1> <spawn time>

run.py starts this with PYTHONHASHSEED=0 and PYTHONPATH=src from the root of
the checkout.  <spawn time> is the parent's time.monotonic() just before the
process was started; on Linux that clock is shared by all processes, so
setup_s covers interpreter start-up, imports, input generation and model
construction, up to the first timed operation.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time

import workloads
from exactstar.scalars import MultiIndex, RootSum
from tracer import LAYERS, Tracer

MICRO_REPEATS = {"multiindex": 4000, "gr": 3000, "rootsum": 30}


def micro_batches(tracer: Tracer, inputs: dict, rng: random.Random) -> dict:
    """Ops per second of scalar work on this job's own indices and coefficients."""
    by_len: dict[int, list] = {}
    for idx in inputs["indices"]:
        by_len.setdefault(len(idx), []).append(idx)
    groups = list(by_len.values())
    index_pairs = []
    for _ in range(64):
        group = rng.choice(groups)
        index_pairs.append((rng.choice(group), rng.choice(group)))
    coeffs = inputs["coeffs"]
    gr_pairs = [(rng.choice(coeffs), rng.choice(coeffs)) for _ in range(64)]
    squares = [rng.choice(coeffs).abs_squared() for _ in range(64)]

    def multiindex():
        for k in range(MICRO_REPEATS["multiindex"]):
            x, y = index_pairs[k % 64]
            i, j = MultiIndex(x), MultiIndex(y)
            i + j
            i.minus(j)
        return 4 * MICRO_REPEATS["multiindex"]

    def gr():
        for k in range(MICRO_REPEATS["gr"]):
            a, b = gr_pairs[k % 64]
            a * b
            a + b
            a - b
            a.abs_squared()
        return 4 * MICRO_REPEATS["gr"]

    def rootsum():
        for k in range(MICRO_REPEATS["rootsum"]):
            r = RootSum.sqrt_rational(squares[k % 64])
            s = RootSum.sqrt_rational(squares[(k + 1) % 64])
            (r * s + r).bracket()
        return 4 * MICRO_REPEATS["rootsum"]

    out = {}
    for name, batch in (("multiindex", multiindex), ("gr", gr), ("rootsum", rootsum)):
        with tracer.span("scalars." + name):
            start = time.perf_counter()
            ops = batch()
            out[f"scalars.{name}_ops_per_s"] = ops / (time.perf_counter() - start)
    return out


def layer_metrics(tracer: Tracer, run: workloads.Run) -> dict:
    by_name, self_s, spans_of = tracer.busy()
    c = tracer.counts
    rc = run.counts

    def mean(name, scale=1.0):
        return by_name[name] / spans_of[name] * scale if spans_of[name] else 0.0

    weight_calls = c["cone.weight"]
    weight_distinct = tracer.distinct_count("cone.weight")
    m = {
        "cone.pair_s": by_name["cone.pair"],
        "cone.pair_calls": c["cone.pair"],
        "cone.pairs_distinct": tracer.distinct_count("cone.pair"),
        "cone.constants_nonzero": c["cone.pair_nonzero"],
        "cone.oracle_s": by_name["cone.oracle"],
        "cone.oracle_mismatches": rc["cone.oracle_mismatches"],
        "cone.weight_s": by_name["cone.weight"],
        "cone.weight_calls": weight_calls,
        "cone.weight_distinct_ratio": weight_distinct / weight_calls if weight_calls else 0.0,
        "cone.weight_nonzero_ratio": (c["cone.weight_nonzero"] / weight_distinct
                                      if weight_distinct else 0.0),
        "cone.reduce_s": by_name["cone.reduce"],
        "models.laurent_special_s": by_name["models.laurent_special"],
        "seminorms.check_s": by_name["seminorms.check"],
        "seminorms.h_calls": c["seminorms.h"],
        "seminorms.h_cells": c["seminorms.h_cells"],
        "seminorms.mode_exact": rc["seminorms.mode_exact"],
        "seminorms.mode_interval": rc["seminorms.mode_interval"],
        "seminorms.mode_rootsum": rc["seminorms.mode_rootsum"],
        "seminorms.violations": rc["seminorms.violations"],
        "algebra.multiply_s": by_name["algebra.multiply"],
        "algebra.multiply_calls": c["algebra.multiply"],
        "algebra.product_terms": c["algebra.product_terms"],
        "gns.rep_closed_s": by_name["gns.rep_closed"],
        "gns.rep_product_s": by_name["gns.rep_product"],
        "gns.positivity_s": by_name["gns.positivity"],
        "gns.representation_s": by_name["gns.representation"],
        "gns.route_mismatches": rc["gns.route_mismatches"],
        "su1n.automorphism_s": by_name["su1n.automorphism"],
        "su1n.pullback_s": by_name["su1n.pullback"],
        "su1n.pullback_calls": c["su1n.pullback"],
        "cli.startup_s": mean("cli.startup"),
        "cli.product_ms": mean("cli.product", 1e3),
        "cli.seminorm_ms": mean("cli.seminorm", 1e3),
        "cli.gns_rep_ms": mean("cli.gns_rep", 1e3),
        "cli.check_ms": mean("cli.check", 1e3),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    return m


def main(argv: list[str]) -> int:
    workload, seed, trace, spawn_t = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    job = workloads.JOBS[workload]
    rng = random.Random(f"{workload}:{seed}")
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    run = workloads.Run(tracer)
    inputs = job(rng, run)
    end = time.monotonic()
    result = {
        "setup_s": run.first_start - spawn_t,
        "job_s": end - run.first_start,
        "latencies_ms": run.latencies_ms,
        "digests": run.digests,
        "failed_ops": run.failed_ops,
        "notes": run.notes,
    }
    if tracer is not None:
        layers = micro_batches(tracer, inputs, random.Random(f"micro:{workload}:{seed}"))
        tracer.uninstall()
        layers.update(layer_metrics(tracer, run))
        result["layers"] = layers
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = max(own, children) / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
