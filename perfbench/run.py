"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The seeded job of the workload (see
workloads.py) runs again and again, each time in a fresh interpreter started
with PYTHONHASHSEED=0, until --seconds have passed and at least MIN_OPS
operations and MIN_REPS jobs are done (with --trace 1: MIN_TRACED_REPS traced
jobs).  A fresh interpreter per job matters:
the structure-constant, weight, reduction and pullback caches live for the
whole process, so a second job in one process would measure another program.

With --trace 0 the result holds the end-to-end metrics.  Shared virtual
machines run in speed phases (on a 2-vCPU Intel Xeon VM a fixed Fraction loop
took 48 to 112 ms from one second to the next), so the timings are taken where
the phases disturb them least: job_s is the fastest job of the run, and op_p50_ms / op_p90_ms
are percentiles over the job's operations, each taken at its fastest run
(every job repeats the same operations).  setup_s and peak_rss_mb are medians
over the jobs.  With --trace 1 traced and untraced jobs alternate; the result
holds the per-layer metrics (medians over the traced jobs) and
trace.overhead_ratio (fastest traced job over fastest untraced job), and the
counts named in EXACT_COUNTS must repeat exactly across the traced jobs.

An operation fails when it raises, when an independent route disagrees, or
when its digest differs from the other jobs of the run or from the digest
recorded in baseline.json for this seed.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"

MIN_OPS = 100
MIN_REPS = 3
MIN_TRACED_REPS = 2
DEADLINE_S = 150.0  # no job starts after this, so a run ends well within 180 s

# Per-layer counts that depend only on the seed; two traced jobs must agree.
EXACT_COUNTS = (
    "cone.pairs_distinct",
    "cone.constants_nonzero",
    "cone.weight_calls",
    "cone.weight_nonzero_ratio",
    "seminorms.h_cells",
    "algebra.product_terms",
    "su1n.pullback_calls",
)


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    """One job in a fresh interpreter; its JSON record, or an error record."""
    spawn_t = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed),
         "1" if trace else "0", repr(spawn_t)],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"job did not finish within {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"worker exited {proc.returncode}: {err.strip()[-2000:]}"}
    return json.loads(out.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def recorded_digests(workload: str, seed: int) -> list[str] | None:
    if not BASELINE.exists():
        return None
    with open(BASELINE, encoding="utf-8") as fh:
        data = json.load(fh)
    recorded = data.get("digests", {}).get(workload, {}).get(str(seed))
    return recorded.split() if recorded is not None else None


def failed_ops(job: dict, first: list[str], reference: list[str] | None) -> set[int]:
    """Operations of one job that failed in the job, or whose digest differs
    from the run's first job or from the recorded one."""
    bad = set(job["failed_ops"])
    for i, d in enumerate(job["digests"]):
        if i >= len(first) or d != first[i]:
            bad.add(i)
        if reference is not None and (i >= len(reference) or d != reference[i]):
            bad.add(i)
    return bad


def measure(workload: str, seed: int, seconds: float, trace: bool,
            check_recorded: bool = True) -> dict:
    """Run jobs until the time is up; aggregate them into one result."""
    env = worker_env()
    # compile the package once, so that no job pays for writing bytecode
    subprocess.run([sys.executable, "-c", "import exactstar.cli"], cwd=ROOT, env=env,
                   check=True)
    reference = recorded_digests(workload, seed) if check_recorded else None
    jobs: list[dict] = []
    broken: list[str] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        plain = [j for j in jobs if not j["traced"]]
        traced = [j for j in jobs if j["traced"]]
        ops = sum(len(j["latencies_ms"]) for j in plain)
        if trace:  # latencies come from untraced runs; one job serves as reference
            enough = elapsed >= seconds and len(traced) >= MIN_TRACED_REPS and plain
        else:
            enough = elapsed >= seconds and ops >= MIN_OPS and len(plain) >= MIN_REPS
        if enough or elapsed + longest > DEADLINE_S:
            break
        want_trace = trace and len(traced) < len(plain)
        t0 = time.monotonic()
        rec = run_worker(workload, seed, want_trace, timeout=DEADLINE_S + 20 - elapsed)
        longest = max(longest, time.monotonic() - t0)
        if "error" in rec:
            broken.append(rec["error"])
            break
        rec["traced"] = want_trace
        jobs.append(rec)

    first = jobs[0]["digests"] if jobs else []
    attempted = sum(len(j["digests"]) for j in jobs) + len(broken)
    failed = sum(len(failed_ops(j, first, reference)) for j in jobs) + len(broken)
    for note in [n for j in jobs for n in j["notes"][:3]] + broken:
        print(f"  failure: {note}")

    plain = [j for j in jobs if not j["traced"]]
    traced = [j for j in jobs if j["traced"]]
    # every job repeats the same operations; the fastest run of each one is
    # the least disturbed by other load on the host
    lat = [min(xs) for xs in zip(*(j["latencies_ms"] for j in plain))]
    result = {
        "workload": workload,
        "seed": seed,
        "jobs": len(plain),
        "traced_jobs": len(traced),
        "attempted": max(attempted, 1),
        "failed": failed,
        "op_samples": len(lat),
        "digest_recorded": reference is not None,
        "digests": first,
        "consistent_counts": True,
    }
    if len(plain) >= 1 and len(lat) >= 2:
        result["end_to_end"] = {
            "job_s": min(j["job_s"] for j in plain),
            "op_p50_ms": percentile(lat, 50),
            "op_p90_ms": percentile(lat, 90),
            "setup_s": statistics.median(j["setup_s"] for j in plain),
            "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in plain),
        }
    if traced and plain:
        layers = {}
        for k in traced[0]["layers"]:
            values = [j["layers"][k] for j in traced]
            layers[k] = values[0] if len(set(values)) == 1 else statistics.median(values)
        layers["trace.overhead_ratio"] = (
            min(j["job_s"] for j in traced) / result["end_to_end"]["job_s"])
        for name in EXACT_COUNTS:
            values = {j["layers"][name] for j in traced}
            if len(values) != 1:
                result["consistent_counts"] = False
                print(f"  exact count {name} differs between traced jobs: {sorted(values)}")
        result["per_layer"] = layers
    result["correct"] = (failed == 0 and not broken and result["consistent_counts"]
                         and "end_to_end" in result and (not trace or "per_layer" in result))
    return result


def host_info() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"python {sys.version.split()[0]}, nproc {len(os.sched_getaffinity(0))}, "
            f"load average {load}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "exactstar" / "__init__.py").is_file():
        print(f"error: no exactstar sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(names)}",
              file=sys.stderr)
        return 2

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {host_info()}")
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(ROOT / ".perfbench_work", ignore_errors=True)
    if "end_to_end" not in res:
        print("error: no job finished", file=sys.stderr)
        return 1

    e2e = res["end_to_end"]
    print(f"# jobs {res['jobs']} (+{res['traced_jobs']} traced), operations "
          f"{res['op_samples']}, fail_ratio {res['failed'] / res['attempted']:.4f}, "
          f"digest {'checked against baseline.json' if res['digest_recorded'] else 'not recorded for this seed'}")
    for name, value in e2e.items():
        print(f"# {name} = {value:.6g}")
    if args.trace:
        wanted = bench["per_layer"]
        values = res.get("per_layer", {})
    else:
        wanted = bench["end_to_end"]
        values = e2e
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
