"""Optimal terminal fund value: budget multiplier, closed-form evaluator,
moments and Sharpe ratio.

The dual maximizer maps the kernel into bands (power branch, flat band,
second power branch, ruin) whose edges are marginal slopes divided by the
multiplier y.  The envelope's band table lists them with V's form on each,
and every function here is a loop over that table.  The budget
h(y) = E[Z V(y, Z)] is strictly decreasing, so the multiplier solving
h(y) = v0 is found by bracketed root finding, and every expectation is a sum
of truncated power moments of the kernel over the bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .concavify import ConcaveEnvelope, build_envelope
from .contract import FeeStructure
from .market import MarketParams, partial_power_expectation
from .preferences import CaseTag, HaraParams, _power

_EXPAND = 16.0
_MAX_EXPANSIONS = 16          # 16 x factor-16 steps ~ 2^64 range each way
_BUDGET_RTOL = 1e-11
_VAR_FLOOR = 1e-16


class SolveError(RuntimeError):
    """Budget equation could not be bracketed or met its tolerance."""


@dataclass(frozen=True)
class OptimalWealthSolution:
    """Solved optimal terminal value for one (fee, manager utility, market).

    z_power_end  -- kernel value where the performance-fee power branch ends
    z_support    -- kernel value from which on the fund is worth 0
    """

    envelope: ConcaveEnvelope
    market: MarketParams
    y_star: float
    z_power_end: float
    z_support: float

    @property
    def case_tag(self) -> CaseTag:
        return self.envelope.case_tag

    @property
    def fee(self) -> FeeStructure:
        return self.envelope.fee

    @property
    def theta1(self) -> float:
        return self.envelope.theta1

    def thresholds(self) -> tuple[float, ...]:
        """Right edges of the kernel bands, the support edge last."""
        return tuple(band.u_hi / self.y_star for band in self.envelope.bands)


def budget(envelope: ConcaveEnvelope, market: MarketParams, y: float) -> float:
    """h(y) = E[Z V(y, Z)] assembled from truncated kernel moments."""
    k = 1.0 - 1.0 / envelope.hara.b
    y_pow = _power(y, -1.0 / envelope.hara.b)
    out = 0.0
    for u_lo, u_hi, coef, const in envelope.bands:
        lo, hi = u_lo / y, u_hi / y
        if coef:
            out += coef * y_pow * partial_power_expectation(market, k, lo, hi)
        out += const * partial_power_expectation(market, 1.0, lo, hi)
    return out


def solve_y_star(fee: FeeStructure, manager: HaraParams, market: MarketParams) -> OptimalWealthSolution:
    """Find the unique multiplier with E[Z V] = v0 and package the solution."""
    env = build_envelope(fee, manager, market.v0)
    return solve_from_envelope(env, market)


def solve_from_envelope(env: ConcaveEnvelope, market: MarketParams) -> OptimalWealthSolution:
    v0 = market.v0
    h = lambda y: budget(env, market, y)

    lo, hi = 1e-2, 1e2
    for _ in range(_MAX_EXPANSIONS):
        if h(lo) >= v0:
            break
        lo /= _EXPAND
    else:
        raise SolveError(f"budget bracket expansion failed below y={lo} for fee {env.fee}")
    for _ in range(_MAX_EXPANSIONS):
        if h(hi) <= v0:
            break
        hi *= _EXPAND
    else:
        raise SolveError(f"budget bracket expansion failed above y={hi} for fee {env.fee}")

    y = brentq(lambda t: h(t) - v0, lo, hi, xtol=1e-300, rtol=4.0 * math.ulp(1.0))
    if abs(h(y) - v0) > _BUDGET_RTOL * v0:
        raise SolveError(f"budget residual {abs(h(y) - v0):.3e} above tolerance for fee {env.fee}")

    return OptimalWealthSolution(
        envelope=env, market=market, y_star=y,
        z_power_end=env.bands[0].u_hi / y, z_support=env.slope / y,
    )


def terminal_value_array(sol: OptimalWealthSolution, z: np.ndarray) -> np.ndarray:
    """V(z) band by band: nonincreasing in z, supported on {0} u [theta1, inf).

    Bands are half-open, [u_lo / y, u_hi / y) in z, so V = 0 from the support
    edge on, as in pointwise_argmax (ties are null events under the
    continuous kernel law).
    """
    env, y = sol.envelope, sol.y_star
    z = np.asarray(z, dtype=float)
    if not (z > 0.0).all():
        raise ValueError("kernel values must be > 0")
    out = np.zeros_like(z)
    for u_lo, u_hi, coef, const in env.bands:
        on = (z >= u_lo / y) & (z < u_hi / y)
        out[on] = coef * (y * z[on]) ** (-1.0 / env.hara.b) + const
    return out


def moments(sol: OptimalWealthSolution) -> tuple[float, float]:
    """(E[V], E[V^2]) in closed form from truncated kernel moments."""
    env, market, y = sol.envelope, sol.market, sol.y_star
    b = env.hara.b
    y_pow = _power(y, -1.0 / b)
    ev = ev2 = 0.0
    for u_lo, u_hi, coef, const in env.bands:
        lo, hi = u_lo / y, u_hi / y
        # V = A z^(-1/b) + const on the band; a flat band has A = 0
        A = coef * y_pow
        p0 = partial_power_expectation(market, 0.0, lo, hi)
        p1 = partial_power_expectation(market, -1.0 / b, lo, hi) if coef else 0.0
        p2 = partial_power_expectation(market, -2.0 / b, lo, hi) if coef else 0.0
        ev += A * p1 + const * p0
        ev2 += A * A * p2 + 2.0 * A * const * p1 + const * const * p0
    return ev, ev2


def sharpe_from_moments(market: MarketParams, ev: float, ev2: float) -> float:
    """(E[V] - v0 (1+r)) / std(V); rejects a numerically deterministic fund."""
    var = ev2 - ev * ev
    if var <= _VAR_FLOOR:
        raise SolveError(f"fund value variance {var:.3e} is numerically degenerate")
    return (ev - market.v0 * (1.0 + market.r)) / math.sqrt(var)


def sharpe_ratio(sol: OptimalWealthSolution) -> float:
    """Sharpe ratio of the optimal fund value."""
    return sharpe_from_moments(sol.market, *moments(sol))
