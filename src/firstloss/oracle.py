"""Independent verification engine: seeded Monte Carlo estimators and
brute-force scalar maximization.

Every closed form in the wealth and valuation modules has a counterpart
here that bypasses the analytic route entirely: utilities are evaluated on
simulated kernels through the raw payoff maps, and the pointwise dual
problem is maximized by grid search plus golden-section refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concavify import ConcaveEnvelope, envelope_eval
from .contract import FeeStructure
from .market import MarketParams
from .preferences import HaraParams
from .wealth import OptimalWealthSolution, terminal_value_array

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_STREAMS = 8    # independent child streams per estimate; they bound peak memory


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n: int
    seed: int

    def covers(self, target: float, n_sigmas: float = 4.0) -> bool:
        return abs(self.mean - target) <= n_sigmas * self.std_error


def _stream_sizes(n: int) -> list[int]:
    base, extra = divmod(n, _STREAMS)
    return [base + (1 if i < extra else 0) for i in range(_STREAMS)]


def _mc_mean(market: MarketParams, seed: int, n: int, value_of_z) -> McEstimate:
    """Pooled mean/variance over independent child streams of one seed;
    deterministic for fixed (seed, n)."""
    if n < 1_000:
        raise OracleError(f"need n >= 1000 draws (got {n})")
    children = np.random.SeedSequence(seed).spawn(_STREAMS)
    total = 0
    mean = 0.0
    m2 = 0.0
    for child, size in zip(children, _stream_sizes(n)):
        rng = np.random.default_rng(child)
        w = rng.standard_normal(size) * math.sqrt(market.horizon_T)
        z = np.exp(-market.log_drift - market.gamma * w)
        vals = value_of_z(z)
        c_n = vals.size
        c_mean = float(vals.mean())
        c_m2 = float(((vals - c_mean) ** 2).sum())
        delta = c_mean - mean
        new_total = total + c_n
        m2 += c_m2 + delta * delta * total * c_n / new_total
        mean += delta * c_n / new_total
        total = new_total
    variance = m2 / (total - 1)
    return McEstimate(mean=mean, std_error=math.sqrt(variance / total), n=total, seed=seed)


def mc_budget(
    sol: OptimalWealthSolution,
    market: MarketParams,
    seed: int,
    n: int,
) -> McEstimate:
    """Monte Carlo E[Z V(Z)]; should cover v0 when the budget binds."""
    return _mc_mean(market, seed, n, lambda z: z * terminal_value_array(sol, z))


def mc_value(
    sol: OptimalWealthSolution,
    fee: FeeStructure,
    manager: HaraParams,
    investor: HaraParams,
    market: MarketParams,
    party: str,
    seed: int,
    n: int,
) -> McEstimate:
    """Monte Carlo expected utility of one party at the optimal fund value."""
    if party not in ("M", "I"):
        raise OracleError(f"party must be 'M' or 'I' (got {party!r})")
    hara = manager if party == "M" else investor
    v0 = market.v0

    def value_of_z(z: np.ndarray) -> np.ndarray:
        v = terminal_value_array(sol, z)
        pay = _payoff_array(fee, v0, v, party)
        return (pay + hara.a) ** (1.0 - hara.b) / (1.0 - hara.b)

    return _mc_mean(market, seed, n, value_of_z)


def _payoff_array(fee: FeeStructure, v0: float, v: np.ndarray, party: str) -> np.ndarray:
    # vectorized mirror of the scalar payoff maps (cross-checked in tests)
    net = v - fee.m * v0
    mgr = np.where(
        net < (1.0 - fee.c) * v0,
        v0 * (fee.m - fee.c),
        np.where(net < v0, v - v0, fee.m * v0 + fee.alpha * (v - (1.0 + fee.m) * v0)),
    )
    return mgr if party == "M" else v - mgr


def _envelope_values(env: ConcaveEnvelope, v: np.ndarray) -> np.ndarray:
    # vectorized envelope, independent of the branch table under test
    p = env.hara
    pay = _payoff_array(env.fee, env.v0, v, "M")
    util = (pay + p.a) ** (1.0 - p.b) / (1.0 - p.b)
    return np.where(v < env.theta1, env.u_at_zero + env.slope * v, util)


def brute_pointwise(
    env: ConcaveEnvelope,
    y: float,
    z: float,
    v_max: float = 1e6,
    grid_n: int = 4096,
) -> float:
    """Grid argmax of envelope(v) - y z v on [0, v_max], golden-polished.

    A maximizer at the right edge means v_max was too small.
    """
    if grid_n < 1_000:
        raise OracleError(f"need grid_n >= 1000 (got {grid_n})")
    grid = np.linspace(0.0, v_max, grid_n)
    obj = _envelope_values(env, grid) - y * z * grid
    k = int(np.argmax(obj))
    if k == grid_n - 1:
        raise OracleError(f"brute-force maximizer hit v_max={v_max}; enlarge the window")
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid_n - 1)]

    f = lambda v: envelope_eval(env, v) - y * z * v
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > 1e-12 * max(1.0, b):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    mid = 0.5 * (a + b)
    # the flat objective on [0, theta1] at the tie makes 0 as good as any
    return 0.0 if f(0.0) >= f(mid) else mid
