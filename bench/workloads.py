"""Seeded inputs, one timed pass, and output checks for each workload.

Every call into the program goes through an attribute of the ``firstloss``
package or of one of its modules at call time, so that the span wrappers of
``tracing`` see it.  ``firstloss`` must be importable before this module is
imported; ``run.py`` puts the checkout's ``src`` first on ``sys.path``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import firstloss
from firstloss.pareto import GridSteps

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Tolerances of the frozen-reference checks: the value gate of the batched
# engine (relative 1e-10), and the frontier's feasibility and improvement
# margins (a better phi_I than the reference passes).
REL_TOL = 1e-10
FEAS_TOL = 1e-8
PHI_I_TOL = 1e-9
SEED_TOL = 1e-12          # the solver's own margin for "not below the lattice seed"
MONOTONE_TOL = 1e-12

BASE_R, BASE_GAMMA = 0.02, 0.40
HARA_A = 0.3
B_BASE = 0.65
# published fees of the tests, (m, alpha, c) as fractions, with b_M
PUBLISHED_FEES = (((0.0, 0.20, 0.0), 0.65), ((0.05, 0.355, 0.26), 0.65), ((0.048, 0.50, 0.30), 2.5))

clock = time.perf_counter


@dataclass
class PassResult:
    """One pass over a workload's inputs: its wall time, the latency and the
    start (on the ``perf_counter`` clock) of each request it made, the fees it
    evaluated, and what the program returned."""

    seconds: float
    requests: list[float]
    fees: int
    output: object
    starts: list[float] = field(default_factory=list)


@dataclass
class CheckResult:
    attempted: int
    failed: int
    notes: list[str] = field(default_factory=list)


def _close(value: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Elementwise agreement at REL_TOL; NaN agrees only with NaN."""
    both_nan = np.isnan(value) & np.isnan(ref)
    with np.errstate(invalid="ignore"):
        near = np.abs(value - ref) <= REL_TOL * np.abs(ref)
    return both_nan | near


class Workload:
    """What the workloads share: their seed, and the per-layer metrics a pass
    reports beyond its spans, 0 where no frontier is solved."""

    name = ""
    fee_results_per_pass = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def trace_extras(self, result: PassResult) -> dict[str, float]:
        return {"pareto.level_failures": 0, "pareto.refine_win_ratio": 0.0}


class Lattice(Workload):
    """``grid_scan`` over the full fee box at dm=0.005, dalpha=0.02, dc=0.02.

    4,400 fees, a scan of about 1.8 s on two workers, so that a run repeats
    it a dozen times or more.
    """

    name = "lattice"
    steps = GridSteps(dm=0.005, dalpha=0.02, dc=0.02)

    def __init__(self, seed: int) -> None:
        # the base market at the default seed, else (r, gamma) uniform over
        # the `sensitivity` ranges; the lattice's cost barely depends on them
        super().__init__(seed)
        if seed == DEFAULT_SEED:
            self.market = firstloss.MarketParams(r=BASE_R, gamma=BASE_GAMMA)
        else:
            rng = np.random.default_rng([seed, 1])
            self.market = firstloss.MarketParams(r=float(rng.uniform(-0.02, 0.06)),
                                                 gamma=float(rng.uniform(0.30, 0.70)))
        self.manager = firstloss.HaraParams(a=HARA_A, b=B_BASE)
        self.investor = firstloss.HaraParams(a=HARA_A, b=B_BASE)
        self.shape = (len(self.steps.m_grid()), len(self.steps.alpha_grid()), len(self.steps.c_grid()))
        self.n_fees = int(np.prod(self.shape))

    def describe(self) -> str:
        return (f"lattice {self.shape[0]}x{self.shape[1]}x{self.shape[2]} = {self.n_fees} fees, "
                f"r={self.market.r:.6f} gamma={self.market.gamma:.6f}")

    def run_pass(self) -> PassResult:
        t0 = clock()
        scan = firstloss.grid_scan(self.market, self.manager, self.investor, self.steps)
        seconds = clock() - t0
        return PassResult(seconds=seconds, requests=[seconds], fees=len(scan.fees), output=scan, starts=[t0])

    def reference_arrays(self, scan) -> dict[str, np.ndarray]:
        return {
            "fees": np.asarray(scan.fees, dtype=float),
            "phi_M": scan.phi_M, "phi_I": scan.phi_I, "sharpe": scan.sharpe,
            "case": np.asarray(scan.case), "feasible": scan.feasible,
        }

    def check(self, result: PassResult, reference) -> CheckResult:
        if result.output is None:
            return CheckResult(self.n_fees, self.n_fees, ["scan raised"])
        scan = result.output
        bad = np.zeros(len(scan.fees), dtype=bool)
        notes = []
        values = np.stack([scan.phi_M, scan.phi_I, scan.sharpe])
        nonfinite = scan.feasible & ~np.isfinite(values).all(axis=0)
        bad |= nonfinite
        # phi_M falls in c along every (m, alpha) slice
        phi_m = np.where(scan.feasible, scan.phi_M, np.nan).reshape(self.shape)
        with np.errstate(invalid="ignore"):
            rise = np.diff(phi_m, axis=2) > MONOTONE_TOL * np.maximum(1.0, np.abs(phi_m[:, :, :-1]))
        rising = np.zeros(self.shape, dtype=bool)
        rising[:, :, 1:] = rise
        bad |= rising.ravel()
        if nonfinite.any() or rise.any():
            notes.append(f"{int(nonfinite.sum())} non-finite cells, {int(rise.sum())} rises of phi_M in c")
        if reference is not None:
            mismatch = ~np.all(np.asarray(scan.fees) == reference["fees"], axis=1)
            for key in ("phi_M", "phi_I", "sharpe"):
                mismatch |= ~_close(getattr(scan, key), reference[key])
            mismatch |= np.asarray(scan.case) != reference["case"]
            mismatch |= scan.feasible != reference["feasible"]
            bad |= mismatch
            if mismatch.any():
                notes.append(f"{int(mismatch.sum())} cells differ from the reference")
        return CheckResult(len(scan.fees), int(bad.sum()), notes)

    def summary(self, result: PassResult) -> list[str]:
        scan = result.output
        best = int(np.argmax(np.where(scan.feasible, scan.sharpe, -np.inf)))
        m, a, c = (100 * x for x in scan.fees[best])
        return [f"lattice best SR {scan.sharpe[best]:.6f} at ({m:.2f}%, {a:.2f}%, {c:.2f}%) (information only)"]


class Frontier(Workload):
    """Two cold ``run_pipeline`` cells, as ``sensitivity --axis ba`` runs them,
    on the coarse lattice dm=0.0125, dalpha=0.025, dc=0.025 with n_phi=16."""

    name = "frontier"
    steps = GridSteps(dm=0.0125, dalpha=0.025, dc=0.025, n_phi=16)
    cells = ((0.65, 0.65), (2.5, 0.65))
    fee_results_per_pass = len(cells)

    def __init__(self, seed: int) -> None:
        # The base market at every seed.  The SLSQP work per level is chaotic
        # in the market: a seeded (r, gamma) draw, even within 1/8 of the
        # sensitivity ranges around the base case, moved the time of a pass
        # by +-20% from seed to seed, more than the regressions this
        # benchmark must resolve.
        super().__init__(seed)
        self.market = firstloss.MarketParams(r=BASE_R, gamma=BASE_GAMMA)
        self.lattice_fees = len(self.steps.m_grid()) * len(self.steps.alpha_grid()) * len(self.steps.c_grid())
        self.levels = self.steps.n_phi + 1

    def describe(self) -> str:
        return (f"frontier cells (b_M, b_I) = {list(self.cells)}, {self.lattice_fees} lattice fees and "
                f"{self.levels} levels per cell, r={self.market.r:.6f} gamma={self.market.gamma:.6f}")

    def run_pass(self) -> PassResult:
        requests, results, starts = [], [], []
        for b_m, b_i in self.cells:
            manager = firstloss.HaraParams(a=HARA_A, b=b_m)
            investor = firstloss.HaraParams(a=HARA_A, b=b_i)
            t0 = clock()
            results.append(firstloss.run_pipeline(self.market, manager, investor, self.steps))
            requests.append(clock() - t0)
            starts.append(t0)
        return PassResult(seconds=sum(requests), requests=requests,
                          fees=self.lattice_fees * len(self.cells), output=results, starts=starts)

    def reference_doc(self, results) -> dict:
        doc = {}
        for (b_m, b_i), res in zip(self.cells, results):
            doc[f"{b_m},{b_i}"] = {
                "phi_min": [p.phi_min for p in res.frontier.points],
                "phi_I": [p.phi_I for p in res.frontier.points],
            }
        return doc

    def check(self, result: PassResult, reference) -> CheckResult:
        per_pass = (self.levels + 1) * len(self.cells)       # every level, and each cell's selection
        if result.output is None:
            return CheckResult(per_pass, per_pass, ["pipeline raised"])
        failed, notes = 0, []
        for (b_m, b_i), res in zip(self.cells, result.output):
            frontier, label = res.frontier, f"cell ({b_m}, {b_i})"
            ref = None if reference is None else reference[f"{b_m},{b_i}"]
            failed += len(frontier.failures)
            failed += max(0, self.levels - len(frontier.points) - len(frontier.failures))
            if frontier.failures:
                notes.append(f"{label}: {len(frontier.failures)} failed levels: {frontier.failures[:2]}")
            if ref is not None and len(ref["phi_min"]) != len(frontier.points):
                notes.append(f"{label}: {len(frontier.points)} points, reference has {len(ref['phi_min'])}")
                ref = None
                failed += self.levels
            for i, p in enumerate(frontier.points):
                feas_tol = FEAS_TOL * max(1.0, abs(p.phi_min))
                ok = all(math.isfinite(v) for v in (p.phi_min, p.phi_M, p.phi_I, p.sharpe))
                ok = ok and p.phi_M >= p.phi_min - feas_tol and p.phi_I >= p.seed_phi_I - SEED_TOL
                if ref is not None:
                    ok = ok and abs(p.phi_min - ref["phi_min"][i]) <= REL_TOL * abs(ref["phi_min"][i])
                    ok = ok and p.phi_I >= ref["phi_I"][i] - PHI_I_TOL
                if not ok:
                    failed += 1
                    notes.append(f"{label}: level {i} phi_min={p.phi_min!r} phi_M={p.phi_M!r} "
                                 f"phi_I={p.phi_I!r} seed_phi_I={p.seed_phi_I!r}")
            best_sr = max((p.sharpe for p in frontier.points), default=math.nan)
            if res.preferred.sharpe != best_sr:
                failed += 1
                notes.append(f"{label}: preferred SR {res.preferred.sharpe!r} is not the frontier max {best_sr!r}")
        return CheckResult(per_pass, failed, notes)

    def trace_extras(self, result: PassResult) -> dict[str, float]:
        points = [p for res in result.output for p in res.frontier.points]
        return {
            "pareto.level_failures": sum(len(res.frontier.failures) for res in result.output),
            "pareto.refine_win_ratio": sum(p.phi_I > p.seed_phi_I for p in points) / max(1, len(points)),
        }

    def summary(self, result: PassResult) -> list[str]:
        lines = []
        for (b_m, b_i), res in zip(self.cells, result.output):
            pref = res.preferred
            lines.append(f"cell ({b_m}, {b_i}): preferred fee {pref.fee} SR {pref.sharpe:.6f} (information only)")
        return lines


WORKLOADS = {w.name: w for w in (Lattice, Frontier)}


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / (f"{name}.json" if name == Frontier.name else f"{name}.npz")


def load_reference(workload):
    """The frozen outputs a run is compared with, or None where no check applies.

    The lattice is checked at the default seed only; the frontier's inputs
    do not depend on the seed, so it is checked at every seed.
    """
    if workload.seed != DEFAULT_SEED and workload.name == Lattice.name:
        return None
    path = reference_path(workload.name)
    if workload.name == Frontier.name:
        return json.loads(path.read_text())
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def warm_up() -> None:
    """Evaluate the published fees once, one per case A, B and C: the first
    calls pay for lazy imports and caches, which a user pays once per process."""
    market = firstloss.MarketParams(r=BASE_R, gamma=BASE_GAMMA)
    investor = firstloss.HaraParams(a=HARA_A, b=B_BASE)
    for fee, b_m in PUBLISHED_FEES:
        firstloss.evaluate_fee(firstloss.FeeStructure(*fee), market, firstloss.HaraParams(a=HARA_A, b=b_m), investor)


def setup_reference(fee: tuple[float, float, float]) -> tuple[float, float]:
    """(phi_M, phi_I) of a fee of the default-seed lattice, which runs the base case."""
    with np.load(reference_path(Lattice.name), allow_pickle=False) as data:
        (row,) = np.flatnonzero(np.all(data["fees"] == fee, axis=1))
        return float(data["phi_M"][row]), float(data["phi_I"][row])
