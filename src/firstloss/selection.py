"""Preferred-fee selection on the Pareto frontier, sensitivity sweeps, and
the constant-mix benchmark."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .contract import FeeStructure, InputError, NumericalError, error_message, investor_payoff, manager_payoff
from .market import MarketParams
from .pareto import Frontier, GridSteps, sweep_frontier
from .preferences import HaraParams, hara_utility
from .quadrature import integrate
from .valuation import _INV_SQRT_2PI, _W_CUTOFF, evaluate_fee


class SelectionError(InputError):
    pass


@dataclass(frozen=True)
class PreferredFee:
    fee: FeeStructure | None
    sharpe: float
    phi_M: float
    phi_I: float
    phi_min: float
    provenance: str
    found: bool = True


def _sharpe_max(points, provenance: str) -> PreferredFee:
    """The point with the highest fund Sharpe ratio; ties resolve toward the
    smaller reservation level, so reruns are stable."""
    best = max(points, key=lambda p: (p.sharpe, -p.phi_min))
    return PreferredFee(fee=best.fee, sharpe=best.sharpe, phi_M=best.phi_M, phi_I=best.phi_I,
                        phi_min=best.phi_min, provenance=provenance)


def preferred_fee(frontier: Frontier) -> PreferredFee:
    """Frontier point with the highest fund Sharpe ratio (_sharpe_max)."""
    usable = [p for p in frontier.points if math.isfinite(p.sharpe)]
    if not usable:
        raise SelectionError("empty frontier")
    return _sharpe_max(usable, "sharpe-max over frontier")


def constrained_preferred_fee(
    frontier: Frontier,
    market: MarketParams,
    manager: HaraParams,
    investor: HaraParams,
    floor_fee: FeeStructure,
) -> PreferredFee:
    """Sharpe maximization restricted to frontier points that keep the
    manager at least as well off as under a traditional floor fee (c = 0).

    An empty restriction is a result, not an error: no first-loss scheme on
    the frontier improves on the floor for the manager.
    """
    if floor_fee.c != 0.0:
        raise SelectionError(f"floor fee must have c = 0 (got {floor_fee})")
    floor_val = evaluate_fee(floor_fee, market, manager, investor).phi_M
    eligible = [p for p in frontier.points if math.isfinite(p.sharpe) and p.phi_M >= floor_val - 1e-12]
    if not eligible:
        return PreferredFee(
            fee=None, sharpe=math.nan, phi_M=floor_val, phi_I=math.nan, phi_min=math.nan,
            provenance=f"no frontier point clears the floor phi_M={floor_val:.6f}", found=False,
        )
    return _sharpe_max(eligible, f"sharpe-max over frontier with floor phi_M>={floor_val:.6f}")


@dataclass(frozen=True)
class PipelineResult:
    frontier: Frontier
    preferred: PreferredFee


def run_pipeline(
    market: MarketParams,
    manager: HaraParams,
    investor: HaraParams,
    steps: GridSteps = GridSteps(),
) -> PipelineResult:
    """The frontier of steps (sweep_frontier, which scans its lattice) and
    its Sharpe-preferred fee."""
    frontier = sweep_frontier(market, manager, investor, steps)
    return PipelineResult(frontier=frontier, preferred=preferred_fee(frontier))


@dataclass(frozen=True)
class SweepCell:
    label: str
    preferred: PreferredFee | None
    error: str = ""


def sensitivity_sweep(
    axis: str,
    values,
    market: MarketParams,
    manager: HaraParams,
    investor: HaraParams,
    steps: GridSteps = GridSteps(),
) -> list[SweepCell]:
    """Rerun the full pipeline per grid value of one model parameter.

    axis: 'ba' (values are (b_M, b_I) pairs), 'r', or 'gamma'.  Each cell is
    a cold run; a cell's typed error (an InputError or a NumericalError) is
    recorded in that cell and the sweep continues.  Any other error
    propagates.
    Every cell's parameters are checked before the first run, so a bad
    value fails the sweep at once.
    """
    if axis not in ("ba", "r", "gamma"):
        raise SelectionError(f"unknown sensitivity axis {axis!r}")
    inputs = []
    for value in values:
        mkt, man, inv = market, manager, investor
        if axis == "ba":
            b_m, b_i = value
            man, inv = replace(manager, b=b_m), replace(investor, b=b_i)
            label = f"bM={b_m},bI={b_i}"
        else:
            mkt = replace(market, **{axis: float(value)})
            label = f"{axis}={value}"
        inputs.append((label, mkt, man, inv))
    cells: list[SweepCell] = []
    for label, mkt, man, inv in inputs:
        try:
            result = run_pipeline(mkt, man, inv, steps)
            cells.append(SweepCell(label=label, preferred=result.preferred))
        except (InputError, NumericalError) as exc:
            cells.append(SweepCell(label=label, preferred=None, error=f"{type(exc).__name__}: {error_message(exc)}"))
    return cells


@dataclass(frozen=True)
class ConstantMixResult:
    pi: float
    sharpe: float
    phi_M: float
    phi_I: float
    degenerate: bool = False


def constant_mix_benchmark(
    pi: float,
    market: MarketParams,
    fee: FeeStructure,
    manager: HaraParams,
    investor: HaraParams,
) -> ConstantMixResult:
    """Fund metrics when a fraction pi of wealth rides the risky asset.

    V_T is lognormal, so the Sharpe ratio is closed form; expected utilities
    integrate the fee-split payoffs against the normal density, with panel
    edges at the payoff kinks.  pi = 0 is a riskless fund: zero variance,
    Sharpe reported as NaN with the degenerate flag set.
    """
    if market.sigma is None:
        raise SelectionError("constant-mix benchmark needs sigma in the market parameters")
    if not 0.0 <= pi <= 1.0:
        raise SelectionError(f"risky fraction must be in [0, 1] (got {pi})")
    r, sig, T, v0 = market.r, market.sigma, market.horizon_T, market.v0
    growth = (r + pi * sig * market.gamma - 0.5 * (pi * sig) ** 2) * T
    vol = pi * sig * math.sqrt(T)

    if pi == 0.0:
        v_T = v0 * math.exp(r * T)
        return ConstantMixResult(
            pi=pi, sharpe=math.nan,
            phi_M=hara_utility(manager, manager_payoff(fee, v0, v_T)),
            phi_I=hara_utility(investor, investor_payoff(fee, v0, v_T)),
            degenerate=True,
        )

    mean_v = v0 * math.exp((r + pi * sig * market.gamma) * T)
    second = v0 * v0 * math.exp(2.0 * (r + pi * sig * market.gamma) * T + vol * vol)
    var = second - mean_v * mean_v
    sharpe = (mean_v - v0 * (1.0 + r)) / math.sqrt(var)

    # panel edges where the payoff maps change slope
    kinks = []
    for v_kink in ((1.0 + fee.m - fee.c) * v0, (1.0 + fee.m) * v0):
        if v_kink > 0:
            kinks.append((math.log(v_kink / v0) - growth) / vol)

    def integrand(payoff, hara):
        def f(w: np.ndarray) -> np.ndarray:
            fund_value = v0 * np.exp(growth + vol * w)
            return hara_utility(hara, payoff(fee, v0, fund_value)) * np.exp(-0.5 * w * w) * _INV_SQRT_2PI
        return f

    phi_m = integrate(integrand(manager_payoff, manager), -_W_CUTOFF, _W_CUTOFF, breakpoints=kinks)
    phi_i = integrate(integrand(investor_payoff, investor), -_W_CUTOFF, _W_CUTOFF, breakpoints=kinks)
    return ConstantMixResult(pi=pi, sharpe=sharpe, phi_M=phi_m, phi_I=phi_i)
