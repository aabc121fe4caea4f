"""Workload definitions: the jobs each workload runs and their golden totals.

Every job returns one exact integer and is checked against a golden value
taken from the acceptance criteria (full scale) or from a brute-force
cross-checked run of the seed code (tiny scale, used by the self-test).
The seed of a run only permutes job order, so every job stays checkable.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

# The 15 reduced forms of D in {-23, -47, -71} with their lattice totals
# (points (u, v) with f(u, v) prime and <= x) at x = 1e7 and at x = 1e5.
COUNT_GOLDEN = {
    (1, 1, 6): (442270, 6270),
    (2, -1, 3): (443090, 6402),
    (2, 1, 3): (443090, 6402),
    (1, 1, 12): (265774, 3754),
    (2, -1, 6): (265944, 3824),
    (2, 1, 6): (265944, 3824),
    (3, -1, 4): (265932, 3856),
    (3, 1, 4): (265932, 3856),
    (1, 1, 18): (189474, 2666),
    (2, -1, 9): (189734, 2760),
    (2, 1, 9): (189734, 2760),
    (3, -1, 6): (189828, 2736),
    (3, 1, 6): (189828, 2736),
    (4, -3, 5): (189928, 2760),
    (4, 3, 5): (189928, 2760),
}

# Prime-ideal counts pi_C(x) of the three classes of D = -23 at 1e6 / 1e4.
BRIDGE_GOLDEN = {(1, 1, 6): (26151, 400), (2, -1, 3): (26155, 408), (2, 1, 3): (26155, 408)}

# (x, golden) pairs, full scale first.
EXPERIMENT = (("1e7", 346600), ("1e5", 5120))  # coprime lattice total of (1,0,1), P = 15015
SIEVED = ((3e6, 35940), (3e4, 522))  # sieved_sum_S lattice total of (1,1,6), P = 105


class JobFailed(Exception):
    pass


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], int]
    golden: int
    lattice: bool  # the returned value is a lattice total (feeds hit_ratio)


@dataclass(frozen=True)
class Workload:
    name: str
    x: int  # prime-table size the jobs need; part of set-up
    discriminants: tuple[int, ...]  # class lists built during set-up
    workers: int
    jobs: tuple[Job, ...]

    def order(self, seed: int, pass_no: int) -> list[Job]:
        """The jobs of one pass in the seed's order."""
        jobs = list(self.jobs)
        random.Random(f"{seed}/{pass_no}").shuffle(jobs)
        return jobs


def cli_json(argv: list[str]) -> dict:
    """Run `cdtlab <argv>` in-process and parse its JSON output."""
    from cdtlab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise JobFailed(f"cdtlab {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def _count_job(form, x: str, workers: int) -> Callable[[], int]:
    argv = ["count", *map(str, form), x] + (["--workers", str(workers)] if workers > 1 else [])
    return lambda: cli_json(argv)["lattice_points"]


def _experiment_job(x: str) -> Callable[[], int]:
    argv = ["experiment", "1", "0", "1", "--modulus", "15015", "--x", x]

    def run() -> int:
        lhs = cli_json(argv)["lhs"]
        total = lhs * 4  # stab_order(-4) = 4 units
        if total != int(total):
            raise JobFailed(f"lhs {lhs} is not a quarter of an integer")
        return int(total)

    return run


def _sieved_job(x: float) -> Callable[[], int]:
    def run() -> int:
        from cdtlab import betasieve, chebotarev, densities, quadforms

        P = densities.SievingModulus.from_int(105)
        w = betasieve.beta_sieve_weights(
            betasieve.SieveSpec(z=8.0, R=1e10, kind="upper", support=P.prime_factors)
        )
        # raises if the sum-of-A and per-point evaluation orders disagree
        return chebotarev.sieved_sum_S(quadforms.Form(1, 1, 6), w, w, P, x)["lattice_total"]

    return run


def _bridge_job(form, x: float) -> Callable[[], int]:
    def run() -> int:
        from cdtlab import chebotarev, quadforms

        return chebotarev.bridge_check(quadforms.Form(*form), x)["pi"]

    return run


def workload(name: str, tiny: bool = False) -> Workload:
    """The named workload at full scale, or at x <= 1e5 for the self-test."""
    k = 1 if tiny else 0
    if name in ("count", "count-w2"):
        workers = 2 if name == "count-w2" else 1
        x = "1e5" if tiny else "1e7"
        jobs = tuple(
            Job(f"count{f}", _count_job(f, x, workers), gold[k], True)
            for f, gold in COUNT_GOLDEN.items()
        )
        return Workload(name, int(float(x)), (-23, -47, -71), workers, jobs)
    if name == "sifted":
        (x_exp, g_exp), (x_sieve, g_sieve) = EXPERIMENT[k], SIEVED[k]
        jobs = (
            Job("experiment(1,0,1)", _experiment_job(x_exp), g_exp, True),
            Job("sieved_sum_S(1,1,6)", _sieved_job(x_sieve), g_sieve, True),
        )
        return Workload(name, int(max(float(x_exp), x_sieve)), (-4, -23), 1, jobs)
    if name == "bridge":
        x = 1e4 if tiny else 1e6
        jobs = tuple(
            Job(f"bridge{f}", _bridge_job(f, x), gold[k], False)
            for f, gold in BRIDGE_GOLDEN.items()
        )
        return Workload(name, int(x), (-23,), 1, jobs)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("count", "sifted", "bridge", "count-w2")


def run_job(job: Job) -> tuple[int | None, str | None]:
    """Run one job; return (value, error).  Any exception, nonzero CLI exit
    or golden mismatch is a failure and the caller carries on."""
    try:
        value = job.run()
    except Exception as exc:  # a failed job is recorded, not fatal
        return None, f"{job.name}: {type(exc).__name__}: {exc}"
    if value != job.golden:
        return value, f"{job.name}: got {value}, golden {job.golden}"
    return value, None
