"""One workload in a fresh process: set up, print "ready", run the jobs.

Started by run.py; prints one JSON record as its last stdout line.  The
client is a closed loop: one job at a time, back to back, with no
concurrency beyond the workload's own `workers`.  Jobs run in whole
passes (every job once, in the seed's order), as many as bring the run
nearest to `--seconds`, so each run weighs every job equally.

With --probe the process stops after "ready": run.py times a few of these
to measure set-up.  With --trace 1 it runs one untraced pass, then traced
passes, and reports per-module metrics instead of job timings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import jobs  # noqa: E402

HARD_LIMIT_S = 120.0  # no new job starts after this, however slow the code
OUT_DIR = ROOT / ".perfbench_out"


def setup(wl: jobs.Workload):
    """What a user pays before the first job: the import, the class lists
    and the first prime table."""
    import cdtlab.cli  # noqa: F401
    from cdtlab import chebotarev, quadforms

    for D in wl.discriminants:
        quadforms.class_representatives(D)
    return chebotarev.prime_table(wl.x)


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def time_job(job: jobs.Job, tracer=None, job_nid: int = 0) -> dict:
    c0, k0 = time.process_time(), children_cpu()
    t0 = time.perf_counter()
    frame = tracer.open(job_nid) if tracer else None
    value, error = jobs.run_job(job)
    if tracer:
        tracer.close(frame)
    wall = time.perf_counter() - t0
    kids = children_cpu() - k0
    return {
        "job": job.name,
        "wall": wall,
        "cpu": time.process_time() - c0 + kids,
        "children_cpu": kids,
        "value": value,
        "error": error,
        "lattice": job.lattice,
    }


def run_passes(wl, seed, seconds, first_pass, t0, t_origin, **trace) -> list[dict]:
    """Whole passes, at least one, while the run started at `t0` is
    nearer to `seconds` long after one more pass than before it.

    Rounding to the nearest whole pass keeps the pass count, and so the
    job mix, the same from run to run unless a pass time changes a lot.
    """
    records: list[dict] = []
    p = first_pass
    while True:
        t_pass = time.perf_counter()
        for job in wl.order(seed, p):
            if time.perf_counter() - t_origin > HARD_LIMIT_S:
                return records
            records.append(time_job(job, **trace))
        p += 1
        now = time.perf_counter()
        if now - t0 + (now - t_pass) / 2 > seconds:
            return records


def cache_round_trip(table) -> dict:
    """Save and reload the workload's prime table in a temporary directory
    of the benchmark's own; the reloaded flags must be identical."""
    import numpy as np

    from cdtlab.arith import PrimeCache

    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        path = Path(tmp) / "primes.pche"
        t0 = time.perf_counter()
        table.save(path)
        t1 = time.perf_counter()
        loaded = PrimeCache.load(path)
        t2 = time.perf_counter()
        if loaded.limit != table.limit or not np.array_equal(loaded.flags, table.flags):
            raise RuntimeError("prime cache round trip changed the table")
        return {
            "arith.cache.save_s": t1 - t0,
            "arith.cache.load_s": t2 - t1,
            "arith.cache.bytes": path.stat().st_size,
        }
    finally:
        shutil.rmtree(tmp)


def traced_run(wl, args, t_origin, tracer, installed) -> dict:
    import layers
    import tracer as tracing

    table = setup(wl)
    print("ready", flush=True)
    tracing.uninstall(installed)
    extra = cache_round_trip(table)
    extra["chebotarev.table_bytes"] = table.flags.nbytes
    t0 = time.perf_counter()
    untraced = run_passes(wl, args.seed, 0.0, 0, t0, t_origin)
    tracing.install(tracer)
    tracer.set_scope("jobs")
    job_nid = tracer.intern("bench.job")
    traced = run_passes(
        wl, args.seed, args.seconds, 1, t0, t_origin, tracer=tracer, job_nid=job_nid
    )
    gap, overlaps = tracer.check_roots("bench.job")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"{wl.name}.spans.npz")
    return {
        "records": untraced + traced,
        "layers": layers.compute(tracer, traced, untraced, wl.workers, extra),
        "self_time_gap_s": gap,
        "overlapping_spans": overlaps,
        "spans": len(tracer.start),
    }


def main(argv=None) -> int:
    t_origin = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)
    wl = jobs.workload(args.workload, args.tiny)

    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        out = traced_run(wl, args, t_origin, tracer, tracing.install(tracer))
    else:
        setup(wl)
        print("ready", flush=True)
        if args.probe:
            return 0
        t0 = time.perf_counter()
        out = {"records": run_passes(wl, args.seed, args.seconds, 0, t0, t_origin)}
    import numpy
    import scipy

    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["children_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    out["cache_dir"] = os.environ.get("CDTLAB_CACHE_DIR")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
