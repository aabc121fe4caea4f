#!/usr/bin/env python3
"""Fast self-test of the benchmark: every workload at x <= 1e5.

    python3 perfbench/selftest.py

Passes when the golden-check path counts a wrong total, an exception and a
nonzero CLI exit as failed jobs; when every workload, untraced and traced,
runs with no failed job and a consistent span tree; when every end-to-end
metric is positive; when BENCHMARK.json lists exactly these workloads and
metrics; and when every per-module metric reads nonzero on each
workload that layers.LAYERS marks it as moving.  Takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import run  # noqa: E402
from layers import LAYERS  # noqa: E402


def check_golden_path() -> list[str]:
    job = jobs.workload("count", tiny=True).jobs[0]
    bad_cli = jobs.Job("bad-cli", lambda: jobs.cli_json(["count", "1", "0", "0", "1e3"]), 0, True)

    def boom() -> int:
        raise ArithmeticError("boom")

    cases = {
        "right golden": (job, False),
        "wrong golden": (dataclasses.replace(job, golden=job.golden + 1), True),
        "exception": (dataclasses.replace(job, run=boom), True),
        "nonzero CLI exit": (bad_cli, True),
    }
    problems = []
    for what, (j, should_fail) in cases.items():
        _, error = jobs.run_job(j)
        if (error is not None) != should_fail:
            problems.append(f"golden check: {what} gave error={error!r}")
    return problems


def check_manifest(printed: dict[int, set]) -> list[str]:
    """BENCHMARK.json must list exactly the workloads run.py accepts and the
    metrics, with units, that it printed: end-to-end with --trace 0 and
    per-layer with --trace 1."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, expected, listed in (
        ("workloads", set(run.WORKLOADS), {m["name"] for m in manifest["workloads"]}),
        ("end_to_end", printed[0], {(m["name"], m["unit"]) for m in manifest["end_to_end"]}),
        ("per_layer", printed[1], {(m["name"], m["unit"]) for m in manifest["per_layer"]}),
    ):
        if listed != expected:
            problems.append(f"BENCHMARK.json {key}: {sorted(listed ^ expected)} differ")
    return problems


def check_workload(name: str, trace: int, printed: dict[int, set]) -> list[str]:
    result, lines = run.measure(name, seed=1, seconds=0.2, trace=trace, tiny=True)
    printed[trace] |= {(k, v["unit"]) for k, v in result["metrics"].items()}
    where = f"{name} trace={trace}"
    problems = [f"{where}: {line}" for line in lines if line.startswith("failed job")]
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        for metric, _unit, _better, moves in LAYERS:
            if name in moves and not metrics.get(metric):
                problems.append(f"{where}: {metric} reads {metrics.get(metric)}")
    else:
        problems += [f"{where}: {k} = {v}" for k, v in metrics.items() if not v > 0]
    return problems


def main() -> int:
    t0 = time.perf_counter()
    problems = check_golden_path()
    printed: dict[int, set] = {0: set(), 1: set()}
    for name in run.WORKLOADS:
        for trace in (0, 1):
            problems += check_workload(name, trace, printed)
    problems += check_manifest(printed)
    for p in problems:
        print("FAIL", p)
    print(f"selftest: {len(problems)} problems, {time.perf_counter() - t0:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
