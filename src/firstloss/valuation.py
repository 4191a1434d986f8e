"""Expected utilities of both parties at the optimal fund value, and the
traditional-fee (no coverage) optimizer.

The manager's value is fully closed-form.  The investor's value has one term
with no closed form, E[(k Z^(-1/b_M) + l)^(1-b_I)] over the performance-fee
band; it is integrated in the normal coordinate, where the integrand is
smooth and the Gaussian tail truncation at |w| = 10 is far below the
tolerances used anywhere in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .contract import ALPHA_MAX, ALPHA_MIN, M_MAX, FeeStructure
from .market import MarketParams, _d_bound, partial_power_expectation
from .preferences import CaseTag, HaraParams, _power, hara_utility, require_admissible
from .quadrature import integrate
from .wealth import OptimalWealthSolution, moments, sharpe_from_moments, solve_y_star

_W_CUTOFF = 10.0
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class FeeMetrics:
    """Everything the sweeps need for one fee, from a single budget solve."""

    fee: FeeStructure
    case_tag: CaseTag
    y_star: float
    theta1: float
    phi_M: float
    phi_I: float
    expected_value: float
    variance: float
    sharpe: float


def manager_value(sol: OptimalWealthSolution) -> float:
    """E[U_M(V)] in closed form: the ruin constant plus one term per kernel
    band.  On a power band the manager's utility is coef u^((b-1)/b) / (1-b),
    on a flat band the utility of her constant payoff."""
    env, market, y = sol.envelope, sol.market, sol.y_star
    b = env.hara.b
    y_pow = _power(y, (b - 1.0) / b)
    out = env.u_at_zero * partial_power_expectation(market, 0.0, sol.z_support, math.inf)
    for u_lo, u_hi, coef, _ in env.bands:
        lo, hi = u_lo / y, u_hi / y
        if coef:
            out += coef * y_pow / (1.0 - b) * partial_power_expectation(market, 1.0 - 1.0 / b, lo, hi)
        else:
            # V sits at the upper kink (1+m) v0, which pays the manager m v0;
            # taken directly, as (1+m) v0 - m v0 need not round back to v0
            out += hara_utility(env.hara, env.fee.m * env.v0) * partial_power_expectation(market, 0.0, lo, hi)
    return out


def investor_mixed_coefficients(sol: OptimalWealthSolution, investor: HaraParams) -> tuple[float, float]:
    """(k, l) of the investor's payoff on the performance-fee band:
    I(V(z)) + a_I = k z^(-1/b_M) + l."""
    fee, p = sol.fee, sol.envelope.hara
    k = (1.0 - fee.alpha) * sol.envelope.bands[0].coef * _power(sol.y_star, -1.0 / p.b)
    l = (1.0 + fee.m - fee.m / fee.alpha) * sol.envelope.v0 + p.a * (1.0 - 1.0 / fee.alpha) + investor.a
    return k, l


def investor_value(sol: OptimalWealthSolution, investor: HaraParams) -> float:
    """E[U_I(I(V))]: ruin constant, the guaranteed v0 on every band after the
    first, and the mixed power expectation over the first band by quadrature."""
    env, market = sol.envelope, sol.market
    fee, v0 = env.fee, env.v0
    bI = investor.b
    ppe = lambda k, lo, hi: partial_power_expectation(market, k, lo, hi)

    ruin_base = v0 * (fee.c - fee.m) + investor.a
    out = _power(ruin_base, 1.0 - bI) / (1.0 - bI) * ppe(0.0, sol.z_support, math.inf)
    # the bands after the first (flat band, loss absorption) are contiguous
    # and pay the investor exactly v0; the range is empty with a single band
    out += _power(v0 + investor.a, 1.0 - bI) / (1.0 - bI) * ppe(0.0, sol.z_power_end, sol.z_support)

    k, l = investor_mixed_coefficients(sol, investor)
    w_lo = _d_bound(market, sol.z_power_end)
    if w_lo < _W_CUTOFF:
        mu, sig = market.log_drift, market.log_vol
        bM = env.hara.b

        def integrand(w: np.ndarray) -> np.ndarray:
            zpow = np.exp((mu + sig * w) / bM)     # Z^(-1/b_M)
            return (k * zpow + l) ** (1.0 - bI) * np.exp(-0.5 * w * w) * _INV_SQRT_2PI

        out += integrate(integrand, max(w_lo, -_W_CUTOFF), _W_CUTOFF) / (1.0 - bI)
    return out


def evaluate_fee(
    fee: FeeStructure,
    market: MarketParams,
    manager: HaraParams,
    investor: HaraParams,
) -> FeeMetrics:
    """Solve once, then read off both value functions and the Sharpe ratio."""
    require_admissible(fee, manager, investor, market.v0)
    sol = solve_y_star(fee, manager, market)
    ev, ev2 = moments(sol)
    return FeeMetrics(
        fee=fee,
        case_tag=sol.case_tag,
        y_star=sol.y_star,
        theta1=sol.theta1,
        phi_M=manager_value(sol),
        phi_I=investor_value(sol, investor),
        expected_value=ev,
        variance=ev2 - ev * ev,
        sharpe=sharpe_from_moments(market, ev, ev2),
    )


def optimize_traditional(
    investor: HaraParams,
    manager: HaraParams,
    market: MarketParams,
    m_range: tuple[float, float] = (0.0, M_MAX),
    alpha_range: tuple[float, float] = (ALPHA_MIN, ALPHA_MAX),
    dm: float = 0.0025,
    dalpha: float = 0.0025,
) -> tuple[float, float]:
    """Investor-optimal traditional fee (c = 0): dense grid, then local polish."""
    def phi_i(m: float, alpha: float) -> float:
        return evaluate_fee(FeeStructure(m, alpha, 0.0), market, manager, investor).phi_I

    ms = np.round(np.arange(m_range[0], m_range[1] + dm / 2, dm), 10)
    alphas = np.round(np.arange(max(alpha_range[0], dalpha), alpha_range[1] + dalpha / 2, dalpha), 10)
    best = max(((phi_i(m, a), m, a) for m in ms for a in alphas), key=lambda t: t[0])

    res = minimize(
        lambda x: -phi_i(x[0], x[1]),
        [best[1], best[2]],
        method="SLSQP",
        bounds=[m_range, alpha_range],
        options={"ftol": 1e-12, "eps": 1e-6, "maxiter": 200},
    )
    if res.success and -res.fun >= best[0]:
        return float(res.x[0]), float(res.x[1])
    return best[1], best[2]
