"""Expected utilities of both parties at the optimal fund value, and the
traditional-fee (no coverage) optimizer.

The manager's value is fully closed-form.  The investor's value has one term
with no closed form, E[(k Z^(-1/b_M) + l)^(1-b_I)] over the performance-fee
band; it is integrated in the normal coordinate, where the integrand is
smooth and the Gaussian tail truncation at |w| = 10 is far below the
tolerances used anywhere in this package.

evaluate_fee is the per-point path, which the frontier's optimizer calls one
fee at a time.  evaluate_fees runs the same chain over many fees at once: the
envelope's band tables are built as arrays, and the tangency and budget
roots, the closed forms and the quadrature work on all lanes together.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .concavify import EnvelopeError, envelope_lanes
from .contract import ALPHA_MAX, ALPHA_MIN, M_MAX, ContractError, FeeStructure, fee_label, in_fee_box
from .market import (
    MarketParams,
    _d_bound,
    kernel_bound_normal,
    partial_power_expectation,
    partial_power_expectation_normal,
)
from .preferences import (
    CaseTag,
    HaraParams,
    PreferenceError,
    _power,
    _power_lanes,
    admissible_lanes,
    hara_utility,
    require_admissible,
)
from .quadrature import QuadratureError, integrate, integrate_lanes
from .roots import bracketed_root, pattern_search
from .wealth import (
    _BUDGET_RTOL,
    _EXPAND,
    _MAX_EXPANSIONS,
    _VAR_FLOOR,
    OptimalWealthSolution,
    SolveError,
    moments,
    sharpe_from_moments,
    solve_y_star,
)

_W_CUTOFF = 10.0
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Fees per evaluate_fees block: bounds the (lanes, panels, nodes) arrays of
# the quadrature held at once.
_LANES = 1024
# solve_from_envelope's first bracket and its expansion step, in t = log y
_T_START = (math.log(1e-2), math.log(1e2))
_T_STEP = math.log(_EXPAND)


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


@dataclass(frozen=True)
class FeeBatch:
    """evaluate_fees's result, one entry per fee; an inadmissible fee is
    infeasible, with NaN values and case '-'."""

    phi_M: np.ndarray
    phi_I: np.ndarray
    sharpe: np.ndarray
    case: np.ndarray
    feasible: np.ndarray


def _at_fee(exc: Exception, row: np.ndarray) -> Exception:
    exc.add_note(f"lattice evaluation failed at fee {fee_label(*row)}")
    return exc


def _require(ok: np.ndarray, rows: np.ndarray, error) -> None:
    """Raise error(i), noted with the fee, for the first lane i not ok."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        i = int(bad[0])
        raise _at_fee(error(i), rows[i])


def _blocks(fees, market: MarketParams, manager: HaraParams, investor: HaraParams) -> tuple:
    """Rows (m, alpha, c), their admissibility, and the admissible indices in
    blocks of _LANES; a row outside the box raises ContractError, noted."""
    rows = np.asarray(fees, dtype=float).reshape(-1, 3)
    m, alpha, c = rows.T
    inside = in_fee_box(m, alpha, c)
    if not inside.all():
        i = int(np.argmin(inside))
        try:
            FeeStructure(*rows[i])
        except ContractError as exc:
            raise _at_fee(exc, rows[i])
    feasible = admissible_lanes(m, c, manager, investor, market.v0)
    todo = np.flatnonzero(feasible)
    return rows, feasible, [todo[start:start + _LANES] for start in range(0, todo.size, _LANES)]


def evaluate_fees(
    fees: np.ndarray | Sequence[tuple[float, float, float]],
    market: MarketParams,
    manager: HaraParams,
    investor: HaraParams,
) -> FeeBatch:
    """evaluate_fee's phi_M, phi_I and Sharpe ratio for every fee, given as
    rows (m, alpha, c), in blocks of lanes.

    Inadmissible fees (possible only for b > 1 at the coverage edge) are
    infeasible rather than an error.  A fee that fails raises the error the
    per-point path raises for it (a row outside the fee box: ContractError),
    with a note naming the fee.
    """
    rows, feasible, blocks = _blocks(fees, market, manager, investor)
    n = len(rows)
    out = FeeBatch(
        phi_M=np.full(n, math.nan), phi_I=np.full(n, math.nan), sharpe=np.full(n, math.nan),
        case=np.full(n, "-"), feasible=feasible,
    )
    for idx in blocks:
        out.phi_M[idx], out.phi_I[idx], out.sharpe[idx], out.case[idx] = _evaluate_block(
            rows[idx], market, manager, investor)
    return out


def manager_values(fees, market: MarketParams, manager: HaraParams, investor: HaraParams) -> np.ndarray:
    """evaluate_fees's phi_M alone, lane for lane the same, without the
    moments and the investor's quadrature; NaN at an inadmissible fee."""
    rows, _, blocks = _blocks(fees, market, manager, investor)
    out = np.full(len(rows), math.nan)
    for idx in blocks:
        out[idx] = _manager_block(rows[idx], market, manager)[-1]
    return out


def _manager_block(rows: np.ndarray, market: MarketParams, manager: HaraParams) -> tuple:
    """Per row: envelope, t = log y*, the bands' and support's kernel bounds
    d_lo, d_hi, d_support, P(band) p0, P(beyond support), and phi_M."""
    v0, bM, aM = market.v0, manager.b, manager.a
    ppe = lambda k, d_a, d_b: partial_power_expectation_normal(market, k, d_a, d_b)
    m, alpha, c = np.ascontiguousarray(rows.T)

    try:
        env = envelope_lanes(m, alpha, c, manager, v0)
    except (EnvelopeError, PreferenceError) as exc:
        raise _at_fee(exc, rows[exc.lane])
    coef, const = env.coef, env.const
    # the band edges as log u
    with np.errstate(divide="ignore"):
        log_lo, log_hi = np.log(env.u_lo), np.log(env.u_hi)
    log_slope = np.log(env.slope)

    def budget_gap(t: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        # budget(e^t) - v0, as wealth.budget computes it, on the given lanes
        d_lo = kernel_bound_normal(market, log_lo[:, lanes] - t)
        d_hi = kernel_bound_normal(market, log_hi[:, lanes] - t)
        power = coef[:, lanes] * np.exp((-1.0 / bM) * t) * ppe(1.0 - 1.0 / bM, d_lo, d_hi)
        return np.sum(power + const[:, lanes] * ppe(1.0, d_lo, d_hi), axis=0) - v0

    # solve_from_envelope's bracket, lane by lane: budget(y) falls in y, so
    # the lower end steps down until the budget reaches v0 and the upper end
    # up until it falls to v0; each end is tried at most _MAX_EXPANSIONS times
    every = np.arange(len(rows))
    t_lo, t_hi = np.full(len(rows), _T_START[0]), np.full(len(rows), _T_START[1])
    gap_lo, gap_hi = budget_gap(t_lo, every), budget_gap(t_hi, every)
    for _ in range(_MAX_EXPANSIONS - 1):
        low, high = every[gap_lo < 0.0], every[gap_hi > 0.0]
        if not (low.size or high.size):
            break
        t_lo[low] -= _T_STEP
        gap_lo[low] = budget_gap(t_lo[low], low)
        t_hi[high] += _T_STEP
        gap_hi[high] = budget_gap(t_hi[high], high)
    _require((gap_lo >= 0.0) & (gap_hi <= 0.0), rows, lambda i: SolveError(
        f"budget bracket expansion failed within y in [{math.exp(t_lo[i]):.3e}, {math.exp(t_hi[i]):.3e}] "
        f"for fee {fee_label(*rows[i])}"))
    t, gap, ok = bracketed_root(budget_gap, t_lo, gap_lo, t_hi, gap_hi, 0.0)
    _require(ok & (np.abs(gap) <= _BUDGET_RTOL * v0), rows, lambda i: SolveError(
        f"budget root ended at residual {abs(gap[i]):.3e} for fee {fee_label(*rows[i])}"))

    d_lo = kernel_bound_normal(market, log_lo - t)
    d_hi = kernel_bound_normal(market, log_hi - t)
    d_support = kernel_bound_normal(market, log_slope - t)

    # manager_value: coef u^((b-1)/b) / (1-b) on a power band, the utility of
    # m v0 on the flat band
    flat_u = (m * v0 + aM) ** (1.0 - bM) / (1.0 - bM)
    power_u = coef * np.exp(((bM - 1.0) / bM) * t) / (1.0 - bM) * ppe(1.0 - 1.0 / bM, d_lo, d_hi)
    p0, beyond_support = ppe(0.0, d_lo, d_hi), ppe(0.0, d_support, -math.inf)
    phi_m = env.u_at_zero * beyond_support + np.sum(np.where(coef != 0.0, power_u, flat_u * p0), axis=0)
    _require(np.isfinite(phi_m), rows, lambda i: SolveError(
        f"non-finite value phi_M={phi_m[i]} for fee {fee_label(*rows[i])}"))
    return env, t, d_lo, d_hi, d_support, p0, beyond_support, phi_m


def _evaluate_block(
    rows: np.ndarray,
    market: MarketParams,
    manager: HaraParams,
    investor: HaraParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    v0, mu, sig = market.v0, market.log_drift, market.log_vol
    bM, aM, bI, aI = manager.b, manager.a, investor.b, investor.a
    ppe = lambda k, d_a, d_b: partial_power_expectation_normal(market, k, d_a, d_b)
    m, alpha, c = np.ascontiguousarray(rows.T)

    env, t, d_lo, d_hi, d_support, p0, beyond_support, phi_m = _manager_block(rows, market, manager)
    try:
        ruin_i = _power_lanes(v0 * (c - m) + aI, 1.0 - bI)       # (1 - b_I) times her utility at ruin
    except PreferenceError as exc:
        raise _at_fee(exc, rows[exc.lane])
    coef, const = env.coef, env.const

    # moments: V = A z^(-1/b) + const on each band
    A = coef * np.exp((-1.0 / bM) * t)
    p1, p2 = ppe(-1.0 / bM, d_lo, d_hi), ppe(-2.0 / bM, d_lo, d_hi)
    ev = np.sum(A * p1 + const * p0, axis=0)
    ev2 = np.sum(A * A * p2 + 2.0 * A * const * p1 + const * const * p0, axis=0)
    var = ev2 - ev * ev
    _require(var > _VAR_FLOOR, rows, lambda i: SolveError(
        f"fund value variance {var[i]:.3e} is numerically degenerate"))
    sharpe = (ev - v0 * (1.0 + market.r)) / np.sqrt(var)

    # investor_value: ruin, v0 on the bands after the first, and the mixed
    # power term over the first band by quadrature
    phi_i = ruin_i / (1.0 - bI) * beyond_support
    phi_i += _power(v0 + aI, 1.0 - bI) / (1.0 - bI) * ppe(0.0, d_hi[0], d_support)
    k_mix = (1.0 - alpha) * coef[0] * np.exp((-1.0 / bM) * t)
    l_mix = (1.0 + m - m / alpha) * v0 + aM * (1.0 - 1.0 / alpha) + aI
    quad = np.flatnonzero(d_hi[0] < _W_CUTOFF)
    k_q, l_q = k_mix[quad, None], l_mix[quad, None]

    def integrand(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # investor_value's integrand, in place: the node arrays are the
        # largest of a block
        out = np.exp((mu + sig * w) / bM)      # Z^(-1/b_M)
        out *= k_q[rows]
        out += l_q[rows]
        out **= 1.0 - bI
        out *= np.exp(-0.5 * w * w)
        out *= _INV_SQRT_2PI
        return out

    try:
        mixed = integrate_lanes(integrand, np.maximum(d_hi[0, quad], -_W_CUTOFF), _W_CUTOFF)
    except QuadratureError as exc:
        raise _at_fee(exc, rows[quad[exc.lane]])
    phi_i[quad] += mixed / (1.0 - bI)

    _require(np.isfinite(phi_m) & np.isfinite(phi_i) & np.isfinite(sharpe), rows, lambda i: SolveError(
        f"non-finite value phi_M={phi_m[i]}, phi_I={phi_i[i]}, SR={sharpe[i]} for fee {fee_label(*rows[i])}"))
    return phi_m, phi_i, sharpe, env.case


def optimize_traditional(
    investor: HaraParams,
    manager: HaraParams,
    market: MarketParams,
    m_range: tuple[float, float] = (0.0, M_MAX),
    alpha_range: tuple[float, float] = (ALPHA_MIN, ALPHA_MAX),
    dm: float = 0.0025,
    dalpha: float = 0.0025,
) -> tuple[float, float]:
    """Investor-optimal traditional fee (c = 0): dense grid, then the
    lane-wise pattern search from its best fee, which it never falls below."""
    ms = np.round(np.arange(m_range[0], m_range[1] + dm / 2, dm), 10)
    alphas = np.round(np.arange(max(alpha_range[0], dalpha), alpha_range[1] + dalpha / 2, dalpha), 10)
    grid = [(float(m), float(a), 0.0) for m in ms for a in alphas]
    batch = evaluate_fees(grid, market, manager, investor)
    if not batch.feasible.all():
        require_admissible(FeeStructure(*grid[int(np.argmin(batch.feasible))]), manager, investor, market.v0)
    i = int(np.argmax(batch.phi_I))

    def phi_i(points, lanes, fee, step):
        fees = np.column_stack([points, np.zeros(len(points))])
        return evaluate_fees(fees, market, manager, investor).phi_I, fees

    x = np.array([grid[i][:2]])
    pattern_search(phi_i, x, batch.phi_I[i:i + 1].copy(), np.array([grid[i]]), np.array([[dm, dalpha]]),
                   np.array([m_range[0], alpha_range[0]]), np.array([m_range[1], alpha_range[1]]))
    return float(x[0, 0]), float(x[0, 1])
