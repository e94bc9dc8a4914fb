"""Every benchmark workload builds and answers against the program.

``twistbench/workloads.py`` calls twistlab names (``basis_element``,
``hh_e_complex``, the CLI's ``main``, ...) that nothing else in the test
suite ties to the benchmark. This test loads it read-only, and for each
workload draws the seed-1 plan, builds its jobs as ``twistbench/run.py``
does (``TWISTLAB_BUDGET`` removed, CLI output under a scratch directory)
and runs each job once through its own answer check. A name the
benchmark still calls, once deleted or renamed, fails here.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import twistlab
import twistlab.cli  # noqa: F401  (workloads call tl.cli.main)

WORKLOADS = Path(__file__).resolve().parent.parent / "twistbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("twistbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["bar-Q", "bar-Fp", "quiver-sweep",
                                  "census-classify"])
def test_workload_jobs_pass_their_checks(workloads, name, tmp_path, monkeypatch):
    assert sorted(workloads.WORKLOADS) == sorted(
        ["bar-Q", "bar-Fp", "quiver-sweep", "census-classify"])
    monkeypatch.delenv("TWISTLAB_BUDGET", raising=False)
    draw, make = workloads.WORKLOADS[name]
    jobs = make(twistlab, draw(random.Random(1)), str(tmp_path))
    assert jobs
    for job in jobs:
        job.check(job.run())
