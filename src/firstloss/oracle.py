"""Independent verification engine: seeded Monte Carlo estimators and
brute-force grid maximization.

Every closed form in the wealth and valuation modules has a counterpart
here that bypasses the analytic route entirely: utilities are evaluated on
simulated kernels through the raw payoff maps, and the pointwise dual
problem is maximized over the envelope itself by nested grid search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concavify import ConcaveEnvelope, envelope_eval
from .contract import MAX_FLOATS, FeeStructure, InputError, investor_payoff, manager_payoff
from .market import MarketParams
from .preferences import HaraParams, hara_utility
from .wealth import OptimalWealthSolution, terminal_value_array

_STREAMS = 8    # independent child streams per estimate; they bound peak memory
_MAX_DRAWS = _STREAMS * (MAX_FLOATS - 1)    # streams numpy can size
_GRID_N = 4096                         # brute_pointwise's first grid on [0, v_max]
_STAGE = np.linspace(0.0, 1.0, 257)    # brute_pointwise's refinement grid on [0, 1]


class OracleError(InputError):
    pass


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n: int
    seed: int

    def covers(self, target: float) -> bool:
        """Whether target lies within 4 standard errors of the mean."""
        return abs(self.mean - target) <= 4.0 * self.std_error


def _stream_sizes(n: int) -> list[int]:
    base, extra = divmod(n, _STREAMS)
    return [base + (1 if i < extra else 0) for i in range(_STREAMS)]


def _mc_mean(market: MarketParams, seed: int, n: int, value_of_z) -> McEstimate:
    """Pooled mean/variance over independent child streams of one seed;
    deterministic for fixed (seed, n)."""
    if not 1_000 <= n <= _MAX_DRAWS:
        raise OracleError(f"need 1000 <= n <= {_MAX_DRAWS:.3g} draws, {_STREAMS} streams numpy can size (got {n})")
    if seed < 0:
        raise OracleError(f"seed must be >= 0 (got {seed})")
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
    hara, payoff = (manager, manager_payoff) if party == "M" else (investor, investor_payoff)
    return _mc_mean(market, seed, n,
                    lambda z: hara_utility(hara, payoff(fee, market.v0, terminal_value_array(sol, z))))


def brute_pointwise(
    env: ConcaveEnvelope,
    y: float,
    z: float,
    v_max: float = 1e6,
) -> float:
    """Grid argmax of envelope(v) - y z v over _GRID_N points of [0, v_max],
    refined by the same argmax on a 257-point grid over the best point's two
    neighbouring cells until they are 1e-12 wide; the objective is concave,
    so its maximum stays inside them.

    A maximizer at the right edge means v_max was too small.
    """
    f = lambda v: envelope_eval(env, v) - y * z * v
    grid = np.linspace(0.0, v_max, _GRID_N)
    k = int(np.argmax(f(grid)))
    if k == _GRID_N - 1:
        raise OracleError(f"brute-force maximizer hit v_max={v_max}; enlarge the window")
    while True:
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        grid = lo + (hi - lo) * _STAGE
        k = int(np.argmax(f(grid)))
    mid = 0.5 * (lo + hi)
    # the flat objective on [0, theta1] at the tie makes 0 as good as any
    at_zero, at_mid = f(np.array([0.0, mid]))
    return 0.0 if at_zero >= at_mid else float(mid)
