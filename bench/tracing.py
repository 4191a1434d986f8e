"""Timing spans around the public functions of each firstloss layer.

``traced(tracer)`` replaces each listed function, in every loaded
``firstloss`` module that holds it by name, with a wrapper that records a
span (name, start, end, parent) and restores the originals on exit.  The
hot spans (a frontier pass makes about two million of them) are folded into
per-name totals as they close; spans of ``KEPT`` names are also kept one by
one.  A span's self time is its duration minus the time of its child spans.

Run the traced code in one process (``FIRSTLOSS_WORKERS=1``): a forked pool
worker would record its spans in its own copy of the tracer.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import sys
import time
from contextlib import contextmanager
from functools import wraps

# layer module -> its public functions on the fee chain
LAYERS = {
    "market": ("partial_power_expectation",),
    "concavify": ("build_envelope",),
    "wealth": ("solve_y_star", "solve_from_envelope", "budget", "moments", "sharpe_ratio"),
    "valuation": ("evaluate_fee", "manager_value", "investor_value"),
    "quadrature": ("integrate",),
    "pareto": ("grid_scan", "sweep_frontier", "solve_fbpo"),
    "selection": ("run_pipeline", "preferred_fee"),
    "cli": ("main", "cmd_value"),
}
KEPT = frozenset({
    "bench.pass", "valuation.evaluate_fee", "pareto.grid_scan", "pareto.sweep_frontier",
    "pareto.solve_fbpo", "selection.run_pipeline", "selection.preferred_fee", "cli.main", "cli.cmd_value",
})


class Tracer:
    """Spans of one traced pass, held in memory."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}        # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []            # (id, parent_id, name, start_s, end_s) of KEPT names
        self.integrand_points = 0
        self._stack: list[list] = []            # open spans: [id, start_s, child_s]
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        keep = name in KEPT

        @wraps(fn)
        def traced_fn(*args, **kwargs):
            frame = [next(ids), clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[2]
                parent = 0
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][0]
                if keep:
                    spans.append((frame[0], parent, name, frame[1], end))

        return traced_fn

    def wrap_integrate(self, fn):
        """``integrate`` with its integrand counted per node and timed as a
        span of the module that defined it."""
        tracer = self

        def integrate(f, *args, **kwargs):
            layer = f.__module__.rpartition(".")[2]
            timed = tracer.wrap(f"{layer}.integrand", f)

            def counted(x):
                tracer.integrand_points += len(x)
                return timed(x)

            return fn(counted, *args, **kwargs)

        return self.wrap("quadrature.integrate", wraps(fn)(integrate))

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, prefix: str) -> float:
        return sum(st[2] for name, st in self.stats.items() if name.startswith(prefix))


@contextmanager
def traced(tracer: Tracer):
    patches = []
    try:
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"firstloss.{layer}")
            for fname in names:
                orig = getattr(module, fname)
                wrapper = (tracer.wrap_integrate(orig) if fname == "integrate"
                           else tracer.wrap(f"{layer}.{fname}", orig))
                for mod_name, mod in list(sys.modules.items()):
                    if (mod_name == "firstloss" or mod_name.startswith("firstloss.")) \
                            and getattr(mod, fname, None) is orig:
                        setattr(mod, fname, wrapper)
                        patches.append((mod, fname, orig))
        yield tracer
    finally:
        for mod, fname, orig in reversed(patches):
            setattr(mod, fname, orig)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass; 0 where the layer did not run."""
    names = {span[0]: span[2] for span in t.spans}
    fbpo = [end - start for _, _, name, start, end in t.spans if name == "pareto.solve_fbpo"]
    evals_in_fbpo = sum(1 for _, parent, name, _, _ in t.spans
                        if name == "valuation.evaluate_fee" and names.get(parent) == "pareto.solve_fbpo")
    ppe, evals = "market.partial_power_expectation", "valuation.evaluate_fee"
    solves = t.calls("wealth.solve_from_envelope")
    return {
        "market.ppe_calls": t.calls(ppe),
        "market.ppe_us_per_call": 1e6 * _ratio(t.total_s(ppe), t.calls(ppe)),
        "market.self_s": t.self_s("market."),
        "concavify.envelope_calls": t.calls("concavify.build_envelope"),
        "concavify.self_s": t.self_s("concavify."),
        "wealth.solve_calls": solves,
        "wealth.budget_evals": t.calls("wealth.budget"),
        "wealth.budget_evals_per_solve": _ratio(t.calls("wealth.budget"), solves),
        "wealth.moments_calls": t.calls("wealth.moments"),
        "wealth.self_s": t.self_s("wealth."),
        "valuation.evaluate_calls": t.calls(evals),
        "valuation.evaluate_us_per_call": 1e6 * _ratio(t.total_s(evals), t.calls(evals)),
        "valuation.investor_value_self_s": t.self_s("valuation.investor_value") + t.self_s("valuation.integrand"),
        "valuation.self_s": t.self_s("valuation."),
        "quadrature.integrate_calls": t.calls("quadrature.integrate"),
        "quadrature.integrand_points": t.integrand_points,
        "quadrature.self_s": t.self_s("quadrature."),
        "pareto.grid_scan_s": t.total_s("pareto.grid_scan"),
        "pareto.fbpo_calls": len(fbpo),
        "pareto.fbpo_p50_s": statistics.median(fbpo) if fbpo else 0.0,
        "pareto.evals_per_level": _ratio(evals_in_fbpo, len(fbpo)),
        "pareto.self_s": t.self_s("pareto."),
        "selection.pipeline_calls": t.calls("selection.run_pipeline"),
        "selection.self_s": t.self_s("selection."),
    }
