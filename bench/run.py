"""Benchmark entry point: one workload, one seed, timed end to end or traced.

Usage (from the repository root):

    python3 bench/run.py --workload closed_sweep --seed 1 --seconds 35 --trace 0

Workloads (inputs and the reason for each are in `workloads.py`):
closed_sweep, auto_fallback, engine_crosscheck.

Each batch runs in a fresh worker process (`worker.py`), one after another,
single-threaded: a closed loop with one caller.  Batches repeat on the same
inputs until --seconds have passed (at least MIN_BATCHES of them).  Set-up
is timed in every worker and in SETUP_RUNS extra set-up-only workers, after
one uncounted warm-up that compiles the byte code.

--trace 0 prints the end-to-end metrics.  Each instance's time is scaled to
a nominal host speed by the host-speed slices timed around it (see
`hostspeed.py`: the shared host drifts by 10-50% over minutes, the library
with it), then its median over the batches is taken.  value_ms_p50 and
value_ms_p90 are percentiles over those instance times; wall_s is their sum
plus the batch's median time outside them; setup_s is scaled the same way.
The raw, unscaled times are kept in the results file.

--trace 1 alternates untraced and traced batches and prints the per-layer
metrics (raw times): medians over the traced batches for times, and
counts, which must repeat exactly.  bench.trace_overhead_s is the traced
batch time minus the untraced one.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the Python
version, nproc, git sha and sample counts, also written to
.bench_run/results/.  Exit code 0: every value correct; 1: a wrong value or
a count that did not repeat; 2: the run could not be made (no library
source, a worker crashed, the time limit was reached).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import srcpath
from hostspeed import NOMINAL_S, median_slice, near_slice
from metrics import END_TO_END, PER_LAYER, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKDIR = ".bench_run"  # results, spans and corpus files, under the repository root
MIN_BATCHES = 2
SETUP_RUNS = 10
TIME_LIMIT_S = 170.0  # the whole run, so that it ends within 180 s


class RunError(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, tiny: bool = False):
        self.base = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
        if tiny:
            self.base.append("--tiny")
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k not in ("HKB_CONFIG", "PYTHONPATH")}

    def spawn(self, *extra) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunError("time limit reached")
        try:
            proc = subprocess.run(self.base + list(extra), cwd=srcpath.ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise RunError("time limit reached inside a worker") from exc
        if proc.returncode != 0:
            raise RunError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summarize(batches, setups, errors):
    """Totals over batches, and the per-batch counts that must repeat."""
    first = batches[0]
    for b in batches:
        errors.extend(b["errors"])
        if (b["attempted"], b["failed"], b["refused"]) != (first["attempted"], first["failed"], first["refused"]):
            errors.append("outcome counts differ between batches of one seed")
    return {
        "correct": all(b["correct"] for b in batches) and not errors,
        "attempted": sum(b["attempted"] for b in batches),
        "failed": sum(b["failed"] for b in batches),
        "ok_frac": (first["attempted"] - first["failed"] - first["refused"]) / first["attempted"],
        "setup_s": statistics.median(
            b["setup_s"] * NOMINAL_S / median_slice(b["setup_slices"]) for b in setups + batches),
    }


def run_plain(runner, seconds):
    runner.spawn("--mode", "setup")  # warm-up: byte-code compile, file cache
    setups = [runner.spawn("--mode", "setup") for _ in range(SETUP_RUNS)]
    batches = []
    start = time.monotonic()
    while len(batches) < MIN_BATCHES or time.monotonic() - start < seconds:
        batches.append(runner.spawn("--mode", "plain"))
        if not batches[-1]["correct"]:
            break
    errors = []
    s = summarize(batches, setups, errors)
    per_inst = per_instance(batches)
    metrics = {
        "wall_s": batch_time(batches),
        "value_ms_p50": statistics.median(per_inst),
        "value_ms_p90": percentile(per_inst, 90),
        "peak_rss_mb": statistics.median(b["rss_mb"] for b in batches),
        "ok_frac": s["ok_frac"],
        "setup_s": s["setup_s"],
    }
    samples = {"batches": len(batches), "setups": len(setups) + len(batches),
               "instances": len(per_inst)}
    raw = {"wall_s": batch_time(batches, scaled=False),
           "setup_s": statistics.median(b["setup_s"] for b in setups + batches),
           "slice_s": statistics.median(median_slice(b["slices"]) for b in batches)}
    return s, metrics, samples, errors, raw


def per_instance(batches, scaled=True):
    """Each instance's median time (ms) over the batches, scaled to the
    nominal host speed by the slices taken around it (hostspeed.py)."""
    def scale(b, a, e):
        return NOMINAL_S / near_slice(b["slices"], a, e) if scaled else 1.0

    return [statistics.median(ts) for ts in zip(*(
        [v * scale(b, a, e) for v, (a, e) in zip(b["values_ms"], b["intervals"])] for b in batches))]


def batch_time(batches, scaled=True):
    """Time to finish one batch: the sum of each instance's median time, plus
    the median time a batch spends outside the instances (loop, corpus
    loading, report output)."""
    outside = statistics.median(
        (b["wall_s"] - sum(b["values_ms"]) / 1000.0) * (NOMINAL_S / median_slice(b["slices"]) if scaled else 1.0)
        for b in batches)
    return sum(per_instance(batches, scaled)) / 1000.0 + outside


def run_traced(runner, seconds):
    runner.spawn("--mode", "setup")
    plain, traced = [], []
    start = time.monotonic()
    while not traced or time.monotonic() - start < seconds:
        if len(plain) <= len(traced):
            plain.append(runner.spawn("--mode", "plain"))
        else:
            traced.append(runner.spawn("--mode", "trace", *(() if traced else ("--alloc",))))
    errors = []
    s = summarize(plain + traced, [], errors)
    metrics = {}
    layers = [b["layers"] for b in traced]
    for name, (_, kind) in PER_LAYER.items():
        if name == "bench.trace_overhead_s":
            metrics[name] = batch_time(traced) - batch_time(plain)
        elif name == "closedform.peak_alloc_mb":
            metrics[name] = layers[0][name]  # measured once, in the first traced batch
        elif kind == "count":
            if any(layer[name] != layers[0][name] for layer in layers):
                errors.append(f"count {name} did not repeat: {[layer[name] for layer in layers]}")
            metrics[name] = layers[0][name]
        else:
            metrics[name] = statistics.median(layer[name] for layer in layers)
    samples = {"batches": len(plain), "traced_batches": len(traced),
               "instances": len(traced[0]["values_ms"])}
    s["correct"] = s["correct"] and not errors
    raw = {"slice_s": statistics.median(median_slice(b["slices"]) for b in plain + traced)}
    return s, metrics, samples, errors, raw


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(srcpath.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-check size")
    args = ap.parse_args(argv)
    srcpath.require_src()

    runner = Runner(args.workload, args.seed, args.tiny)
    try:
        if args.trace:
            s, values, samples, errors, raw = run_traced(runner, args.seconds)
        else:
            s, values, samples, errors, raw = run_plain(runner, args.seconds)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    table = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": s["correct"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, (unit, _) in table.items()},
    }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "samples": samples,
        "raw": raw,
        "errors": errors[:5],
    }
    results_dir = os.path.join(srcpath.ROOT, WORKDIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1, sort_keys=True)
    for err in errors[:5]:
        print(f"error: {err}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if s["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
