"""Fast self-check of the benchmark (about half a minute).

Usage (from the repository root):  python3 bench/selfcheck.py

For each workload, at the tiny size: runs the traced benchmark twice and
asserts that every count metric, and the attempted and failed totals, repeat
exactly; runs the untraced benchmark once and asserts that its result line
has exactly the promised keys and metrics; runs one batch with a corrupted
pinned value and asserts that the correctness check fires.  Also asserts
that BENCHMARK.json names the metrics this benchmark prints.  Exits 1 on
the first failed assertion.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import srcpath
from metrics import END_TO_END, PER_LAYER, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def run(*args):
    proc = subprocess.run([sys.executable, *args], cwd=srcpath.ROOT, capture_output=True,
                          text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def bench(workload, trace):
    code, lines = run(os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
                      "--seconds", "0", "--trace", str(trace), "--tiny")
    assert code == 0 and lines, f"{workload} trace {trace}: exit {code}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload}: incorrect at the tiny size"
    table = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(table), f"{workload}: metric names differ"
    for name, m in result["metrics"].items():
        assert m == {"value": m["value"], "unit": table[name][0]}, (name, m)
    return result


def main():
    with open(os.path.join(srcpath.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (u, _) in END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (u, _) in PER_LAYER.items()}

    for workload in WORKLOADS:
        first, second = bench(workload, 1), bench(workload, 1)
        for key in ("attempted", "failed"):
            assert first[key] == second[key], (workload, key, first[key], second[key])
        for name, (_, kind) in PER_LAYER.items():
            if kind == "count":
                a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                assert a == b, f"{workload}: count {name} did not repeat: {a} != {b}"
        plain = bench(workload, 0)
        assert 0 < plain["metrics"]["ok_frac"]["value"] <= 1

        code, lines = run(os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", "7",
                          "--tiny", "--corrupt")
        assert code == 0 and json.loads(lines[-1])["correct"] is False, \
            f"{workload}: a corrupted reference value went unnoticed"
        print(f"{workload}: counts repeat, result format holds, corrupted value caught")
    print("selfcheck passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as exc:
        print(f"selfcheck FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
