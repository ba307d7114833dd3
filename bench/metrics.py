"""Names, units and kinds of every metric the benchmark prints.

kind "count": a count, or a ratio of counts; it must repeat exactly between
runs of the same seed.  kind "time" and "memory": measured, reported as a
median.  `BENCHMARK.json` lists the same names; `selfcheck.py` compares them.
"""

WORKLOADS = ("closed_sweep", "auto_fallback", "engine_crosscheck")

END_TO_END = {
    # Times are scaled to the nominal host speed (hostspeed.py); run.py has the details.
    "wall_s": ("s", "time"),  # one batch: sum of the instances' median times, plus the rest
    "value_ms_p50": ("ms", "time"),  # percentiles over the instances' median times
    "value_ms_p90": ("ms", "time"),
    "peak_rss_mb": ("MB", "memory"),  # peak resident memory of a batch process, median
    "ok_frac": ("ratio", "count"),  # 1 - fail_frac: instances answered over attempted
    "setup_s": ("s", "time"),  # import, input generation and parsing, median over processes
}

PER_LAYER = {
    "classify.classify_us": ("us", "time"),
    "mmax.mmax_params_us": ("us", "time"),
    "closedform.g_chain_us": ("us", "time"),
    "closedform.phi_us": ("us", "time"),
    "closedform.phi_evals": ("count", "count"),
    "closedform.closed_s": ("s", "time"),
    "closedform.fold_s": ("s", "time"),
    "closedform.q_exponent": ("slope", "time"),
    "closedform.peak_alloc_mb": ("MB", "memory"),
    "closedform.reject_us": ("us", "time"),
    "closedform.closed_ms": ("ms", "time"),
    "closedform.applicable_frac": ("ratio", "count"),
    "engines.report_s": ("s", "time"),
    "engines.closed_frac": ("ratio", "count"),
    "engines.fallbacks": ("count", "count"),
    "engines.resource_errors": ("count", "count"),
    "engines.skipped": ("count", "count"),
    "engines.load_corpus_ms": ("ms", "time"),
    "engines.cross_check_s": ("s", "time"),
    "keycheck.monomials": ("count", "count"),
    "keycheck.direct_s": ("s", "time"),
    "keycheck.direct_ms": ("ms", "time"),
    "keycheck.ns_per_monomial": ("ns", "time"),
    "oracle.oracle_ms": ("ms", "time"),
    "oracle.nodes": ("count", "count"),
    "oracle.merges": ("count", "count"),
    "oracle.us_per_node": ("us", "time"),
    "algebra.parse_us": ("us", "time"),
    "cli.run_s": ("s", "time"),
    "cli.overhead_s": ("s", "time"),
    "bench.spans": ("count", "count"),
    "bench.trace_overhead_s": ("s", "time"),
}
