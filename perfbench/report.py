"""Every workload in one command: end-to-end table, optional per-layer table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace] [--record]

Runs each workload of BENCHMARK.json the way run.py does (same jobs, same
aggregation) and prints job_s, op_p50_ms, op_p90_ms with their sample count,
setup_s, peak_rss_mb and fail_ratio per workload.  --trace adds a traced run
per workload and prints the per-layer metrics.  --record runs the default and
the held-out seed, traced and untraced, and writes baseline.json: the digests
that later runs of those seeds must reproduce, and every metric as measured
here, as the baseline that later changes are compared with.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run

SEEDS = {"default": 11, "held_out": 4099}


def table(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in rows)


def end_to_end_rows(results: dict) -> list[list[str]]:
    rows = [["workload", "job_s", "op_p50_ms", "op_p90_ms", "ops x jobs", "setup_s",
             "peak_rss_mb", "fail_ratio"]]
    for name, res in results.items():
        e = res.get("end_to_end")
        if e is None:
            rows.append([name] + ["-"] * 6 + ["1"])
            continue
        rows.append([name, f"{e['job_s']:.4f}", f"{e['op_p50_ms']:.3f}", f"{e['op_p90_ms']:.3f}",
                     f"{res['op_samples']} x {res['jobs']}", f"{e['setup_s']:.4f}",
                     f"{e['peak_rss_mb']:.1f}", f"{res['failed'] / res['attempted']:.4f}"])
    return rows


def per_layer_rows(results: dict, names: list[str]) -> list[list[str]]:
    rows = [["metric"] + list(results)]
    for metric in names:
        rows.append([metric] + [f"{res.get('per_layer', {}).get(metric, float('nan')):.6g}"
                                for res in results.values()])
    return rows


def main(argv: list[str] | None = None) -> int:
    bench = run.spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=SEEDS["default"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(SEEDS.values()) if args.record else [args.seed]
    trace = args.trace or args.record
    baseline = {"seeds": SEEDS, "host": run.host_info(), "run_seconds": args.seconds,
                "digests": {}, "results": {}}
    ok = True
    try:
        for seed in seeds:
            print(f"# seed {seed}: {run.host_info()}", flush=True)
            plain, traced = {}, {}
            for name in workloads:
                plain[name] = run.measure(name, seed, args.seconds, False,
                                          check_recorded=not args.record)
                if trace:
                    traced[name] = run.measure(name, seed, args.seconds, True,
                                               check_recorded=not args.record)
                    plain[name]["per_layer"] = traced[name].get("per_layer", {})
                    ok &= traced[name]["correct"]
                    if traced[name]["digests"] != plain[name]["digests"]:
                        print(f"  {name}: traced digests differ from untraced ones")
                        ok = False
                ok &= plain[name]["correct"]
            print(table(end_to_end_rows(plain)), flush=True)
            if trace:
                print(table(per_layer_rows(plain, [m["name"] for m in bench["per_layer"]])))
            for name, res in plain.items():
                baseline["digests"].setdefault(name, {})[str(seed)] = " ".join(res["digests"])
                baseline["results"].setdefault(name, {})[str(seed)] = {
                    k: res.get(k) for k in ("jobs", "op_samples", "attempted", "failed",
                                            "end_to_end", "per_layer")}
    finally:
        shutil.rmtree(run.ROOT / ".perfbench_work", ignore_errors=True)
    if args.record:
        if not ok:
            print("not recording: a run failed", file=sys.stderr)
            return 1
        with open(run.BASELINE, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {run.BASELINE}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
