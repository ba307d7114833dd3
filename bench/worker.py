"""One batch of one workload, in a fresh process.

Usage (from the repository root; `run.py` starts it):

    python3 bench/worker.py --workload closed_sweep --seed 1 --mode plain

Modes: "setup" only sets up; "plain" sets up and runs the batch untraced;
"trace" runs it with spans around the library's layers, samples
`phi_recursive` and (with --alloc) measures the closed form's peak traced
allocation.  The process prints one JSON object on standard output: the
raw times, the host-speed slices (hostspeed.py), the check's outcome and,
traced, the per-layer metrics.  `run.py` turns these into the results.

The batch is a closed loop: one caller, one instance at a time, workers=1.
Every value is checked (see `workloads.py`); a wrong value sets "correct"
to false.  --tiny runs the small self-check size; --corrupt adds one to the
first reference value, so the check must fire.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import statistics
import time
from collections import defaultdict
from contextlib import redirect_stdout

import srcpath

PHI_SAMPLES = 16  # phi_recursive calls per closed instance, spread over 1..Vr
SETUP_SLICES = 5  # host-speed slices before and after set-up
ALLOC_MAX_Q = 40000  # tracemalloc slows the closed form some 30-fold: probe q <= this
WORKDIR = ".bench_run"  # relative to the repository root, where run.py starts workers


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "trace"), default="plain")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--alloc", action="store_true")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    srcpath.require_src()
    os.makedirs(WORKDIR, exist_ok=True)
    from hostspeed import HostClock

    setup_clock = HostClock()
    for _ in range(SETUP_SLICES):
        setup_clock.tick(force=True)
    t0 = time.perf_counter()
    import hkbinomial
    from hkbinomial import parse_binomial

    import workloads as W

    insts = W.build(args.workload, args.seed, args.tiny)
    fs = [parse_binomial(inst.text, inst.p) for inst in insts]
    corpus = None
    if args.workload == "engine_crosscheck":
        corpus = os.path.join(WORKDIR, f"corpus-{args.workload}-{args.seed}-{os.getpid()}.jsonl")
        with open(corpus, "w", encoding="utf-8") as fh:
            for inst in insts:
                fh.write(json.dumps({"poly": inst.text, "p": inst.p, "n": inst.n}) + "\n")
    setup_s = time.perf_counter() - t0
    srcpath.check_imported(hkbinomial)
    for _ in range(SETUP_SLICES):
        setup_clock.tick(force=True)

    out = {"setup_s": setup_s, "setup_slices": setup_clock.slices}
    if args.mode != "setup":
        from tracing import Tracer

        tracer = Tracer()
        clock = HostClock()
        if corpus is None:
            batch = run_values(insts, fs, clock, tracer if args.mode == "trace" else None)
        else:
            batch = run_cli(corpus, insts, fs, clock, tracer, full_trace=args.mode == "trace")
            os.remove(corpus)
        out["slices"] = clock.slices
        out["intervals"] = batch["intervals"]
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out.update(check(insts, fs, batch, args.corrupt))
        out["wall_s"] = batch["wall_s"]
        out["values_ms"] = batch["values_ms"]
        if args.mode == "trace":
            alloc_mb = alloc_probe(insts, fs, batch) if args.alloc else None
            if corpus is not None:
                phi_probe(tracer, insts, fs, closed_instances(batch))
            out["layers"] = layer_metrics(tracer.spans, insts, alloc_mb)
            tracer.write(os.path.join(WORKDIR, f"spans-{args.workload}-{args.seed}.jsonl"))
    print(json.dumps(out))


# ---------------------------------------------------------------------------
# batches


def hk_info(args, kwargs, rep):
    info = {"mode": kwargs.get("engine", "auto")}
    if rep is not None:
        info["engine"] = rep.engine
        info["notes"] = len(rep.guard_notes)
    return info


def run_values(insts, fs, clock, tracer):
    """closed_sweep and auto_fallback: auto-mode hk on each instance."""
    from hkbinomial import HKError, hk

    if tracer is not None:
        interpose_layers(tracer, {})
    outcomes, engines, intervals = [], [], []
    probe_s = 0.0
    start = time.perf_counter()
    for k, (inst, f) in enumerate(zip(insts, fs)):
        clock.tick()
        t = time.perf_counter()
        try:
            if tracer is None:
                rep = hk(f, inst.p, inst.n)
            else:
                tracer.instance = k
                rep = tracer.call("engines.hk", hk, f, inst.p, inst.n, info=hk_info)
            outcomes.append(rep.value)
            engines.append(rep.engine)
        except HKError as exc:
            outcomes.append(exc)
            engines.append(None)
        intervals.append((t, time.perf_counter()))
        if tracer is not None and engines[-1] == "closed":
            probe_s += phi_probe(tracer, insts, fs, [k])  # next to the instance: same host speed
    wall = time.perf_counter() - start - clock.spent - probe_s
    clock.tick(force=True)
    if tracer is not None:
        tracer.restore()
    return {"outcomes": outcomes, "engines": engines, "wall_s": wall, "intervals": intervals,
            "values_ms": [(b - a) * 1000.0 for a, b in intervals]}


def run_cli(corpus, insts, fs, clock, tracer, full_trace):
    """engine_crosscheck: `hkb check` on the corpus, in process.

    Untraced, `engines.hk` is wrapped to time each call, and the host-speed
    slice runs between calls (the three engine calls of an instance add up
    to its time)."""
    from hkbinomial import cli, engines

    index = {(f, inst.p, inst.n): k for k, (inst, f) in enumerate(zip(insts, fs))}
    per_instance = [0.0] * len(insts)
    intervals = [None] * len(insts)
    hk = engines.hk

    def timed_hk(f, p, n, **kwargs):
        clock.tick()
        k = index[(f, p, n)]
        t = time.perf_counter()
        try:
            return hk(f, p, n, **kwargs)
        finally:
            end = time.perf_counter()
            per_instance[k] += end - t
            intervals[k] = (intervals[k][0] if intervals[k] else t, end)

    if full_trace:
        interpose_layers(tracer, index)
    else:
        engines.hk = timed_hk
    argv = ["check", "--corpus", corpus, "--format", "json", "--workers", "1"]
    buf = io.StringIO()
    clock.tick(force=True)
    start = time.perf_counter()
    spent = clock.spent
    try:
        with redirect_stdout(buf):
            code = tracer.call("cli.run", cli.run, argv) if full_trace else cli.run(argv)
    finally:
        engines.hk = hk
        tracer.restore()
    wall = time.perf_counter() - start - (clock.spent - spent)
    clock.tick(force=True)
    if full_trace:
        for span in tracer.spans:
            if span.name == "engines.hk" and span.instance >= 0:
                k = span.instance
                per_instance[k] += span.dur
                intervals[k] = (intervals[k][0] if intervals[k] else span.start, span.end)
    return {
        "intervals": intervals,
        "code": code,
        "report": json.loads(buf.getvalue()) if buf.getvalue() else None,
        "wall_s": wall,
        "values_ms": [t * 1000.0 for t in per_instance],
    }


def interpose_layers(tracer, index):
    """Spans around each public function where the library calls it."""
    from hkbinomial import cli, closedform, engines

    tracer.interpose(engines, "classify", "classify.classify")
    tracer.interpose(closedform, "classify", "classify.classify")
    tracer.interpose(
        closedform, "mmax_params", "mmax.mmax_params",
        info=lambda a, k, r: {"top_value": r[-1].top_value} if r else {},
    )
    tracer.interpose(closedform, "g_chain", "closedform.g_chain")
    tracer.interpose(
        engines, "hk_closed_form_tables", "closedform.hk_closed_form_tables",
        info=lambda a, k, r: {"q": a[1] ** a[2]},
    )
    tracer.interpose(
        engines, "hk_direct_count", "keycheck.hk_direct_count",
        info=lambda a, k, r: {"monomials": a[1].q ** a[0].m},
    )
    tracer.interpose(
        engines, "hk_oracle_report", "oracle.hk_oracle_report",
        info=lambda a, k, r: {"nodes": r.nodes, "merges": r.merges} if r else {},
    )
    tracer.interpose(engines, "parse_binomial", "algebra.parse_binomial")
    tracer.interpose(
        engines, "hk", "engines.hk", info=hk_info,
        instance_of=lambda f, p, n, **kw: index.get((f, p, n), -1),
    )
    tracer.interpose(cli, "load_corpus", "engines.load_corpus")
    tracer.interpose(cli, "cross_check", "engines.cross_check")


# ---------------------------------------------------------------------------
# correctness


def check(insts, fs, batch, corrupt):
    """Compare every value with its reference.  A typed ResourceError on an
    instance beyond every budget is a refusal (it lowers ok_frac); any other
    HKError is a failure; a wrong value makes the batch incorrect.

    With corrupt, the first pinned reference (or, when the workload pins
    none, the first hk_1dim one) is off by one, so the check must fire."""
    from hkbinomial import HKError, ResourceError, hk_1dim

    pinned = [k for k, inst in enumerate(insts) if inst.expected is not None]
    target = (pinned or [k for k, inst in enumerate(insts) if inst.m == 2] or [-1])[0] if corrupt else -1

    def reference(k):
        inst = insts[k]
        ref = inst.expected if inst.expected is not None else hk_1dim(fs[k], inst.p, inst.n)[0]
        return ref + (k == target)

    errors = []
    refused = failed = 0
    if "outcomes" in batch:
        for k, (inst, got) in enumerate(zip(insts, batch["outcomes"])):
            if isinstance(got, ResourceError) and inst.refusable:
                refused += 1
            elif isinstance(got, HKError):
                failed += 1
                errors.append(f"{inst.text} p={inst.p} n={inst.n}: {type(got).__name__}: {got}")
            elif got != reference(k):
                errors.append(f"{inst.text} p={inst.p} n={inst.n}: got {got}")
    else:
        report = batch["report"]
        if batch["code"] != 0 or report is None or report.get("all_agree") is not True:
            errors.append(f"hkb check exit code {batch['code']}, all_agree not true")
            failed = len(insts) if batch["code"] not in (0, 1) else 0
        entries = report["data"] if report else []
        if len(entries) != len(insts):
            errors.append(f"{len(entries)} report entries for {len(insts)} instances")
        for k, (inst, entry) in enumerate(zip(insts, entries)):
            if (entry["p"], entry["n"]) != (inst.p, inst.n) or len(entry["values"]) < 2:
                errors.append(f"entry {entry} does not match {inst.text} p={inst.p} n={inst.n}")
            elif inst.m == 2 and any(int(v) != reference(k) for v in entry["values"].values()):
                errors.append(f"{inst.text} p={inst.p} n={inst.n}: {entry['values']} != {reference(k)}")
    return {"correct": not errors, "errors": errors[:5], "attempted": len(insts),
            "failed": failed, "refused": refused}


# ---------------------------------------------------------------------------
# traced-run probes and per-layer metrics


def closed_instances(batch):
    """Indices of the instances the closed engine answered."""
    if "engines" in batch:
        return [k for k, used in enumerate(batch["engines"]) if used == "closed"]
    return [k for k, e in enumerate(batch["report"]["data"]) if "closed" in e["values"]]


def phi_probe(tracer, insts, fs, indices) -> float:
    """phi_recursive at PHI_SAMPLES scan bounds spread over 1..Vr, for each
    instance the closed engine answered; one span per instance, so that the
    span's own cost is spread over the calls.  Returns the seconds spent."""
    from hkbinomial import classify, mmax_params, phi_recursive

    def sweep(cls, p, n, bounds):
        for M in bounds:
            phi_recursive(M, cls, p, n)

    start = time.perf_counter()
    for k in indices:
        inst, f = insts[k], fs[k]
        cls = classify(f)
        top = mmax_params(cls, inst.p, inst.n)[-1].top_value
        bounds = sorted({1 + (top - 1) * i // (PHI_SAMPLES - 1) for i in range(PHI_SAMPLES)})
        tracer.instance = k
        tracer.call("closedform.phi_recursive", sweep, cls, inst.p, inst.n, bounds,
                    info=lambda a, kw, r: {"calls": len(a[3])})
    return time.perf_counter() - start


def alloc_probe(insts, fs, batch):
    """Peak traced allocation of the closed form on the largest instance it
    answers with q <= ALLOC_MAX_Q (largest q, then largest m)."""
    import tracemalloc

    from hkbinomial import HKError, hk_closed_form_tables

    best = None
    for k in closed_instances(batch):
        key = (insts[k].p ** insts[k].n, insts[k].m)
        if key[0] > ALLOC_MAX_Q:
            continue
        if best is None or key > best[0]:
            best = (key, k)
    if best is None:
        return 0.0
    inst, f = insts[best[1]], fs[best[1]]
    tracemalloc.start()
    try:
        hk_closed_form_tables(f, inst.p, inst.n)
    except HKError:
        pass
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 2**20


def loglog_slope(points):
    xs = [math.log(q) for q, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def layer_metrics(spans, insts, alloc_mb):
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.dur
    by = defaultdict(list)
    for i, s in enumerate(spans):
        by[s.name].append(i)

    def ok(name):
        return [i for i in by[name] if spans[i].outcome == "ok"]

    def total(idx):
        return sum(spans[i].dur for i in idx)

    def mean(idx):
        return total(idx) / len(idx) if idx else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    closed_all = by["closedform.hk_closed_form_tables"]
    closed_ok = ok("closedform.hk_closed_form_tables")
    closed_ok_set = set(closed_ok)
    rejected = [i for i in closed_all if spans[i].outcome in ("NotApplicableError", "FormulaDomainError")]
    hk_all = by["engines.hk"]
    auto = [i for i in hk_all if spans[i].info.get("mode") == "auto"]
    explicit = [i for i in hk_all if spans[i].info.get("mode") != "auto"]
    direct = ok("keycheck.hk_direct_count")
    oracle = ok("oracle.hk_oracle_report")
    monomials = sum(spans[i].info["monomials"] for i in direct)
    nodes = sum(spans[i].info["nodes"] for i in oracle)
    phi_evals = sum(
        spans[i].info["top_value"] for i in ok("mmax.mmax_params") if spans[i].parent in closed_ok_set
    )
    phi_spans = ok("closedform.phi_recursive")
    phi_s = ratio(total(phi_spans), sum(spans[i].info["calls"] for i in phi_spans))
    closed_s = total(closed_ok)

    groups = defaultdict(list)
    for i in closed_ok:
        s = spans[i]
        if s.instance >= 0 and s.dur > 0:
            groups[insts[s.instance].group].append((s.info["q"], s.dur))
    slopes = [loglog_slope(pts) for pts in groups.values() if len({q for q, _ in pts}) >= 3]

    return {
        "classify.classify_us": mean(by["classify.classify"]) * 1e6,
        "mmax.mmax_params_us": mean(by["mmax.mmax_params"]) * 1e6,
        "closedform.g_chain_us": mean(by["closedform.g_chain"]) * 1e6,
        "closedform.phi_us": phi_s * 1e6,
        "closedform.phi_evals": phi_evals,
        "closedform.closed_s": closed_s,
        # derived: what the closed form spends outside the parts timed above
        "closedform.fold_s": closed_s - sum(child[i] for i in closed_ok) - phi_evals * phi_s,
        "closedform.q_exponent": statistics.median(slopes) if slopes else 0.0,
        "closedform.peak_alloc_mb": alloc_mb or 0.0,
        "closedform.reject_us": mean(rejected) * 1e6,
        "closedform.closed_ms": total(closed_all) * 1e3,
        "closedform.applicable_frac": ratio(len(closed_ok), len(closed_all)),
        "engines.report_s": sum(spans[i].dur - child[i] for i in hk_all),
        "engines.closed_frac": ratio(sum(spans[i].info.get("engine") == "closed" for i in auto), len(auto)),
        "engines.fallbacks": sum(spans[i].info.get("notes", 0) for i in hk_all),
        "engines.resource_errors": sum(spans[i].outcome == "ResourceError" for i in hk_all),
        "engines.skipped": sum(spans[i].outcome != "ok" for i in explicit),
        "engines.load_corpus_ms": total(by["engines.load_corpus"]) * 1e3,
        "engines.cross_check_s": total(by["engines.cross_check"]),
        "keycheck.monomials": monomials,
        "keycheck.direct_s": total(direct),
        "keycheck.direct_ms": total(direct) * 1e3,
        "keycheck.ns_per_monomial": ratio(total(direct), monomials) * 1e9,
        "oracle.oracle_ms": total(oracle) * 1e3,
        "oracle.nodes": nodes,
        "oracle.merges": sum(spans[i].info["merges"] for i in oracle),
        "oracle.us_per_node": ratio(total(oracle), nodes) * 1e6,
        "algebra.parse_us": mean(by["algebra.parse_binomial"]) * 1e6,
        "cli.run_s": total(by["cli.run"]),
        "cli.overhead_s": sum(spans[i].dur - child[i] for i in by["cli.run"]),
        "bench.spans": len(spans),
    }


if __name__ == "__main__":
    main()
