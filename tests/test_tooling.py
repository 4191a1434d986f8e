import dataclasses
import importlib
import importlib.util
from pathlib import Path

from firstloss import pareto

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
