#!/usr/bin/env python3
"""The cdtlab benchmark.

    python3 perfbench/run.py --workload count --seed 1 --seconds 25 --trace 0

Runs one workload (count, sifted, bridge, count-w2) in a fresh process,
checks every job against its golden total, and prints the metrics.  The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 they are the per-module ones from a traced run.  See
perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from jobs import WORKLOADS
from layers import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "cdtlab"
PROBES = 4  # extra fresh processes timed to the end of set-up
DEADLINE_S = 170.0  # every process of the run is killed after this
TAIL_BEYOND = 10  # the tail percentile is the highest with this many jobs above it
SELF_TIME_TOLERANCE_S = 1e-6


def child_env() -> dict:
    """The environment of every timed process: no on-disk prime cache."""
    env = dict(os.environ)
    env.pop("CDTLAB_CACHE_DIR", None)
    return env


def run_child(argv: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run loop.py to the end; return the seconds from launch to its
    "ready" line and the stdout lines after it.  The process is killed at
    `deadline` (a perf_counter value) and always waited for."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "loop.py"), *argv],
        stdout=subprocess.PIPE,
        env=child_env(),
        text=True,
    )
    timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise RuntimeError(f"workload process {' '.join(argv)} failed (exit {proc.returncode})")
    return ready, rest.strip().splitlines()


def tail(walls: list[float]) -> tuple[float, float, int]:
    """Wall time at the highest percentile with TAIL_BEYOND jobs beyond it:
    (seconds, percentile, jobs beyond).  When that percentile would not be
    above the median, there are too few jobs for a tail: the maximum."""
    s = sorted(walls)
    if len(s) <= 2 * TAIL_BEYOND + 1:
        return s[-1], 100.0, 0
    k = len(s) - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / len(s), TAIL_BEYOND


def host_record(seed: int, versions: dict, cache_cleared: bool) -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    model = None
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((idx / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = r.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "affinity": sorted(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        **versions,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "cdtlab_cache_dir_cleared": cache_cleared,
    }


def end_to_end(records: list[dict], setup: list[float], out: dict) -> tuple[dict, list[str]]:
    walls = [r["wall"] for r in records]
    t, pct, beyond = tail(walls)
    metrics = {
        "job_s": (statistics.median(walls), "s"),
        "job_s_tail": (t, "s"),
        "cpu_s_per_job": (statistics.median(r["cpu"] for r in records), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": ((out["maxrss_kb"] + out["children_maxrss_kb"]) / 1024, "MB"),
    }
    notes = [
        f"job_s: median of {len(walls)} jobs",
        f"job_s_tail: p{pct:.1f} of {len(walls)} jobs, {beyond} beyond"
        + ("" if beyond else " (too few jobs for a tail above the median: maximum)"),
        f"setup_s: median of {len(setup)} fresh processes: "
        + ", ".join(f"{s:.3f}" for s in setup),
        "peak_rss_mb: peak RSS of the workload process plus its largest reaped child",
    ]
    return metrics, notes


def measure(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> tuple[dict, list[str]]:
    """Run one workload and return (result, report lines)."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    argv += ["--trace", str(trace)] + (["--tiny"] if tiny else [])
    deadline = time.perf_counter() + DEADLINE_S
    setup = []
    if not (trace or tiny):
        for _ in range(PROBES):
            setup.append(run_child(["--workload", workload, "--probe"], deadline)[0])
    ready, lines = run_child(argv, deadline)
    if not lines:
        raise RuntimeError("workload process printed no result")
    out = json.loads(lines[-1])
    records = out["records"]
    failed = [r for r in records if r["error"]]
    attempted = len(records)
    cache_cleared = out["cache_dir"] is None
    correct = not failed and cache_cleared
    lines = [
        f"workload {workload}: {attempted} jobs, {len(failed)} failed, "
        f"fail_ratio {len(failed) / attempted:.4f}"
    ]
    lines += [f"failed job: {r['error']}" for r in failed[:10]]
    if trace:
        units = {name: unit for name, unit, *_ in LAYERS}
        metrics = {k: (v, units[k]) for k, v in out["layers"].items()}
        ok_tree = out["self_time_gap_s"] <= SELF_TIME_TOLERANCE_S and out["overlapping_spans"] == 0
        correct = correct and ok_tree
        lines.append(
            f"trace: {out['spans']} spans; per-job self times sum to job time within "
            f"{out['self_time_gap_s']:.2e} s; overlapping spans {out['overlapping_spans']}"
        )
        lines.append(
            f"tracing overhead: traced job_s {out['layers']['trace.job_s']:.4f} s minus untraced "
            f"{out['layers']['trace.job_s'] - out['layers']['trace.overhead_s']:.4f} s = "
            f"{out['layers']['trace.overhead_s']:+.4f} s"
        )
        if workload == "count-w2":
            lines.append(
                "note: spans recorded inside forked pool workers are lost; per-module figures "
                "are the parent's spans plus the children's rusage (chebotarev.pool.*)"
            )
    else:
        metrics, notes = end_to_end(records, setup + [ready], out)
        lines += notes
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    lines.append("host " + json.dumps(host_record(seed, out["versions"], cache_cleared)))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"error: cdtlab sources not found under {SRC.parent}", file=sys.stderr)
        return 2
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
