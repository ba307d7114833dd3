"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 bench/spread.py --workloads closed_sweep,auto_fallback --seeds 1-10
    python3 bench/spread.py --seeds 1-10 --out bench/BENCH_seed.json --label seed

Runs the command of BENCHMARK.json once per workload and seed, one run at a
time, for run_seconds each.  For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread: the
distance between the quartiles as a share of the median.  A spread above a
third of the metric's bound is marked "WIDE", above the bound "OVER"
(setup_s excepted: only its median is compared between runs).  --out
writes the values as one point of the BENCH trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import srcpath


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=srcpath.ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    meta = json.loads(lines[-2])["meta"] if len(lines) > 1 else {}
    return result, meta


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None, help="comma list; default: all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default=None, help="write a BENCH trajectory point here")
    ap.add_argument("--label", default=None)
    args = ap.parse_args(argv)

    with open(os.path.join(srcpath.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    point = {"label": args.label, "python": platform.python_version(),
             "nproc": len(os.sched_getaffinity(0)), "run_seconds": bench["run_seconds"],
             "seeds": seeds, "workloads": {}}
    for workload in names:
        values, metas = {}, []
        for seed in seeds:
            result, meta = run_once(bench, workload, seed)
            metas.append(meta)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), file=sys.stderr, flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            flag = ""
            if name in bounds and name != "setup_s":
                flag = "OVER" if spread > bounds[name] else ("WIDE" if spread > bounds[name] / 3 else "ok")
            print(f"{workload:18s} {name:28s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:7.4f}  bound {bounds.get(name, '-')}  {flag}")
        point["workloads"][workload] = rows
        point["git_sha"] = metas[0].get("git_sha", "unknown") if metas else "unknown"
        point.setdefault("samples", {})[workload] = [m.get("samples") for m in metas]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(point, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
