"""Unit 0 of each benchmark workload, run and judged by the benchmark's own code.

perfbench/workloads.py defines what the benchmark runs and how it checks the
output; running one unit of each here means that a change the benchmark
would refuse, for wrong outputs or for failed operations, fails this suite
first.  The package is the one already imported: `load_package()` imports it
afresh, dropping wlasso from sys.modules under the other tests.
"""
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import wlasso.cli
import wlasso.convolution
import wlasso.model
import wlasso.solver

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
PKG = SimpleNamespace(
    cli=wlasso.cli, model=wlasso.model, convolution=wlasso.convolution, solver=wlasso.solver
)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_unit_zero_passes_its_check(name):
    workload = workloads.WORKLOADS[name]
    output = workload.run_unit(PKG, 0, 0)
    verdict = workload.check(PKG, output, 0)
    assert verdict.problems == []
    assert verdict.attempted > 0 and verdict.failed == 0
