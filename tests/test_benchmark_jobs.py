"""Every benchmark job runs at tiny scale and matches its golden total, so a
flag or parameter that a job still uses cannot be removed from cdtlab
without failing here, before a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"


def load_jobs():
    spec = importlib.util.spec_from_file_location("perfbench_jobs", JOBS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


jobs = load_jobs()


@pytest.mark.parametrize("name", jobs.WORKLOADS)
def test_tiny_workload_jobs_pass(name):
    errors = [jobs.run_job(job)[1] for job in jobs.workload(name, tiny=True).jobs]
    assert [e for e in errors if e is not None] == []
