import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from firstloss import pareto

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def test_bench_tracing_wraps_names_that_exist():
    # traced() looks up every name of LAYERS in its firstloss.<layer> module,
    # so a deleted or renamed one breaks every traced benchmark run
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"firstloss.{layer}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"firstloss.{layer} lacks {missing}"
    with tracing.traced(tracing.Tracer()):
        pass


def test_bench_reads_names_that_exist():
    # bench/run.py records pareto.default_workers(); bench/workloads.py
    # counts Frontier.failures
    assert isinstance(pareto.default_workers(), int)
    failures = {field.name: field for field in dataclasses.fields(pareto.Frontier)}["failures"]
    assert failures.default == ()


@pytest.fixture(scope="module")
def workloads():
    # registered before it runs, as its dataclasses look their module up
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["lattice", "frontier"])
def test_bench_pass_matches_its_reference(workloads, name):
    # the bench reads the scan and the frontier through their fields: one
    # pass of each workload passes the bench's own checks
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
    reference = workloads.load_reference(workload)
    assert reference is not None
    check = workload.check(workload.run_pass(), reference)
    assert (check.attempted > 0, check.failed) == (True, 0), check.notes
