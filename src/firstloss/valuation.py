"""Expected utilities of both parties at the optimal fund value.

The manager's value is fully closed-form.  The investor's value has one term
with no closed form, E[(k Z^(-1/b_M) + l)^(1-b_I)] over the performance-fee
band; it is integrated in the normal coordinate, where the integrand is
smooth and the Gaussian tail truncation at |w| = 10 is far below the
tolerances used anywhere in this package.

Every formula runs over many fees at once: evaluate_fees builds the
envelopes as arrays, and the tangency and budget roots, the closed forms and
the quadrature work on all lanes of a block together.  It runs in two
halves, split where the investor enters: the manager's (_manager_block: the
envelope, the budget root, the fund value's lanes and phi_M) and the
investor's (investor_values: the moments, the Sharpe ratio and phi_I's
quadrature, on those lanes).  The lattice and the traditional optimizer
call both; the frontier's binds call manager_values, the first half with
phi_M's gradient in closed form, and value the fees they bind with the
second half alone, from the lanes the first solved (wealth.gather_lanes).
evaluate_fee, manager_value and investor_value read a single lane.

A call of more than one block sorts its fees by their band count (case A
has one band, B two, C three) before it cuts them into blocks, and each
block's band table keeps only the rows its lanes use: a fee pays for its own
bands, and a row cut from the table only ever added 0 to a lane, so each
lane's result is the same in any block.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .concavify import envelope_lanes, regime_lanes
from .contract import FeeStructure, fee_label, in_fee_box, require_lanes
from .market import MarketParams, partial_power_expectation_normal as ppe
from .preferences import HaraParams, _power, admissible_lanes, require_admissible
from .quadrature import QuadratureError, integrate_lanes
from .wealth import (
    OptimalWealthSolution,
    SolveError,
    WealthLanes,
    moment_lanes,
    sharpe_from_moments,
    solve_budget,
    wealth_lanes,
)

_W_CUTOFF = 10.0
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Fees per evaluate_fees block: each block pays once for the fixed costs of a
# call (the tangency root, the budget root's last rounds); the quadrature
# bounds its own (lanes, panels, nodes) arrays.
_LANES = 8192


@dataclass(frozen=True)
class FeeMetrics:
    """Both parties' values and the Sharpe ratio of one fee, and its regime
    ('A', 'B' or 'C'), from a single budget solve."""

    case: str
    phi_M: float
    phi_I: float
    sharpe: float


def manager_value_lanes(w: WealthLanes, manager: HaraParams) -> np.ndarray:
    """E[U_M(V)] per lane in closed form: the ruin constant plus one term per
    kernel band.  On a power band the manager's utility is
    coef u^((b-1)/b) / (1-b); on the flat band V sits at the upper kink
    (1+m) v0, which pays her m v0 (taken directly, as (1+m) v0 - m v0 need
    not round back to v0)."""
    bM, coef = manager.b, w.env.coef
    flat_u = (w.env.m * w.market.v0 + manager.a) ** (1.0 - bM) / (1.0 - bM)
    power_u = coef * np.exp(((bM - 1.0) / bM) * w.t) / (1.0 - bM) * ppe(w.market, 1.0 - 1.0 / bM, w.d_lo, w.d_hi)
    return w.env.u_at_zero * w.beyond_support + np.sum(np.where(coef != 0.0, power_u, flat_u * w.p0), axis=0)


def manager_gradient_lanes(w: WealthLanes, manager: HaraParams) -> np.ndarray:
    """(d/dm, d/dalpha, d/dc) phi_M per lane, shape (lanes, 3), in closed
    form by the envelope theorem: only the fees' explicit part in U_M moves
    phi_M, as the first-order condition U_M' = y Z holds on every power band.

    With y = e^t and U'(x) = x^(-b_M): the ruin payoff (m - c) v0 moves
    with m and c; the performance-fee band (band 0) pays
    alpha V + (m - alpha (1+m)) v0, whose U' is y Z / alpha there; and on
    the flat band (band 1, empty or cut in case A) V sits at the upper kink
    (1+m) v0, which moves with m against the budget:
      d/dc     = -v0 U'(v0 (m-c) + a_M) P(ruin)
      d/dalpha = (y/alpha) (E[Z V 1{band 0}] - (1+m) v0 E[Z 1{band 0}])
      d/dm     = v0 [(1-alpha)/alpha y E[Z 1{band 0}] + U'(m v0 + a_M) P(flat)
                     - y E[Z 1{flat}] + U'(v0 (m-c) + a_M) P(ruin)]
    The ruin term is infinite where the ruin base reaches 0 (b_M < 1).
    Band 0 starts at Z = 0, so its moments are lower tails of the kernel,
    taken without cancelling where the band is far in the tail."""
    env, market, bM = w.env, w.market, manager.b
    v0, m, alpha = market.v0, env.m, env.alpha
    y = np.exp(w.t)
    with np.errstate(divide="ignore"):
        ruin = np.power(v0 * (m - env.c) + manager.a, -bM) * w.beyond_support
    band0 = lambda k: ppe(market, k, math.inf, w.d_hi[0])      # E[Z^k 1{band 0}]
    ez0 = band0(1.0)
    # a table cut to case A's one row has no flat band: an empty one
    ez1, p_flat = (ppe(market, 1.0, w.d_lo[1], w.d_hi[1]), w.p0[1]) if len(w.p0) > 1 else (0.0, 0.0)
    # V - (1+m) v0 = coef u^(-1/b_M) - (m v0 + a_M) / alpha on band 0
    ez_excess = env.coef[0] * np.exp((-1.0 / bM) * w.t) * band0(1.0 - 1.0 / bM) - (m * v0 + manager.a) / alpha * ez0
    d_m = v0 * ((1.0 - alpha) / alpha * y * ez0 + np.power(m * v0 + manager.a, -bM) * p_flat - y * ez1 + ruin)
    return np.column_stack([d_m, y / alpha * ez_excess, -v0 * ruin])


def investor_mixed_coefficients(w: WealthLanes, manager: HaraParams, investor: HaraParams) -> tuple:
    """(k, l) per lane of the investor's payoff on the performance-fee band:
    I(V(z)) + a_I = k z^(-1/b_M) + l."""
    m, alpha = w.env.m, w.env.alpha
    k = (1.0 - alpha) * w.env.coef[0] * np.exp((-1.0 / manager.b) * w.t)
    l = (1.0 + m - m / alpha) * w.market.v0 + manager.a * (1.0 - 1.0 / alpha) + investor.a
    return k, l


def investor_value_lanes(w: WealthLanes, manager: HaraParams, investor: HaraParams) -> np.ndarray:
    """E[U_I(I(V))] per lane: ruin constant, the guaranteed v0 on every band
    after the first, and the mixed power expectation over the first band by
    quadrature."""
    market, env = w.market, w.env
    v0, mu, sig = market.v0, market.log_drift, market.log_vol
    bM, bI, aI = manager.b, investor.b, investor.a

    u_ruin, u_v0 = _power(v0 * (env.c - env.m) + aI, 1.0 - bI), _power(v0 + aI, 1.0 - bI)
    # beyond double range at a tiny base or with a huge b_I (b_I > 1); raised
    # here, before it meets a probability of 0, as inf * 0 is NaN
    require_lanes((env.m, env.alpha, env.c), np.isfinite(u_ruin) & math.isfinite(u_v0), lambda i: (
        f"investor utility powers (v0 (c - m) + a)^(1-b) = {u_ruin[i]} at the ruin payoff and (v0 + a)^(1-b) = "
        f"{u_v0} at v0 not both within double range"), SolveError)
    phi_i = u_ruin / (1.0 - bI) * w.beyond_support
    # the bands after the first (flat band, loss absorption) are contiguous
    # and pay the investor exactly v0; the range is empty with a single band
    phi_i += u_v0 / (1.0 - bI) * ppe(market, 0.0, w.d_hi[0], w.d_support)
    k_mix, l_mix = investor_mixed_coefficients(w, manager, investor)
    quad = np.flatnonzero(w.d_hi[0] < _W_CUTOFF)
    k_q, l_q = k_mix[quad, None], l_mix[quad, None]

    def integrand(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # in place: the node arrays are the largest of a block
        out = np.exp((mu + sig * x) / bM)      # Z^(-1/b_M)
        out *= k_q[rows]
        out += l_q[rows]
        out **= 1.0 - bI
        out *= np.exp(-0.5 * x * x)
        out *= _INV_SQRT_2PI
        return out

    try:
        mixed = integrate_lanes(integrand, np.maximum(w.d_hi[0, quad], -_W_CUTOFF), _W_CUTOFF)
    except QuadratureError as exc:
        i = int(quad[exc.lane])
        raise QuadratureError(f"{exc} for fee {fee_label(env.m[i], env.alpha[i], env.c[i])}") from None
    phi_i[quad] += mixed / (1.0 - bI)
    return phi_i


def manager_value(sol: OptimalWealthSolution) -> float:
    """E[U_M(V)] of one solution."""
    return float(manager_value_lanes(sol.lanes(), sol.envelope.hara)[0])


def investor_value(sol: OptimalWealthSolution, investor: HaraParams) -> float:
    """E[U_I(I(V))] of one solution."""
    return float(investor_value_lanes(sol.lanes(), sol.envelope.hara, investor)[0])


def evaluate_fee(fee: FeeStructure, market: MarketParams, manager: HaraParams, investor: HaraParams) -> FeeMetrics:
    """Solve once, then read off both value functions and the Sharpe ratio:
    evaluate_fees's chain on a single lane."""
    rows = np.array([[fee.m, fee.alpha, fee.c]])
    require_admissible(*rows.T, manager, investor, market.v0)
    w, phi_m = _manager_block(rows, market, manager, None)
    phi_i, sharpe = investor_values(w, phi_m, manager, investor)
    return FeeMetrics(case=str(w.env.case[0]), phi_M=float(phi_m[0]), phi_I=float(phi_i[0]),
                      sharpe=float(sharpe[0]))


@dataclass(frozen=True)
class FeeBatch:
    """evaluate_fees's result, one entry per fee, t = log y* among them; an
    inadmissible fee is infeasible, with NaN values and case '-'."""

    phi_M: np.ndarray
    phi_I: np.ndarray
    sharpe: np.ndarray
    case: np.ndarray
    feasible: np.ndarray
    t: np.ndarray


def _blocks(fees, market: MarketParams, manager: HaraParams, investor: HaraParams) -> tuple:
    """Rows (m, alpha, c), their admissibility, and the admissible indices in
    blocks of _LANES, sorted (stably) by band count where there is more than
    one block; a row outside the box raises ContractError, and a fee whose
    regime cannot be read (regime_lanes) its error."""
    rows = np.asarray(fees, dtype=float).reshape(-1, 3)
    m, alpha, c = rows.T
    inside = in_fee_box(m, alpha, c)
    if not inside.all():
        FeeStructure(*rows[np.argmin(inside)].tolist())     # raises ContractError, naming the fee
    feasible = admissible_lanes(m, c, manager, investor, market.v0)
    todo = np.flatnonzero(feasible)
    if todo.size > _LANES:
        todo = todo[np.argsort(regime_lanes(m[todo], alpha[todo], c[todo], manager, market.v0).bands, kind="stable")]
    return rows, feasible, [todo[start:start + _LANES] for start in range(0, todo.size, _LANES)]


def evaluate_fees(
    fees: np.ndarray | Sequence[tuple[float, float, float]],
    market: MarketParams,
    manager: HaraParams,
    investor: HaraParams,
    t_near: np.ndarray | None = None,
) -> FeeBatch:
    """phi_M, phi_I and the Sharpe ratio for every fee, given as rows
    (m, alpha, c), in blocks of lanes; t_near, a guess of each fee's
    t = log y* (NaN: none), starts its budget root warm (solve_budget).

    Inadmissible fees (possible only for b > 1 at the coverage edge) are
    infeasible rather than an error.  A fee that fails raises its typed error
    (a row outside the fee box: ContractError), whose message names the fee.
    """
    rows, feasible, blocks = _blocks(fees, market, manager, investor)
    n = len(rows)
    out = FeeBatch(
        phi_M=np.full(n, math.nan), phi_I=np.full(n, math.nan), sharpe=np.full(n, math.nan),
        case=np.full(n, "-"), feasible=feasible, t=np.full(n, math.nan),
    )
    for idx in blocks:
        w, out.phi_M[idx] = _manager_block(rows[idx], market, manager, None if t_near is None else t_near[idx])
        out.phi_I[idx], out.sharpe[idx] = investor_values(w, out.phi_M[idx], manager, investor)
        out.case[idx], out.t[idx] = w.env.case, w.t
    return out


def manager_values(fees, market: MarketParams, manager: HaraParams, investor: HaraParams,
                   t_near: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """evaluate_fees's phi_M and t alone, lane for lane the same, without
    the moments and the investor's quadrature, and phi_M's gradient in
    (m, alpha, c) per fee (manager_gradient_lanes, shape (fees, 3)) from the
    same lanes; NaN at an inadmissible fee.  Last, each fee's WealthLanes:
    the blocks of lanes the fees were solved in, pairs (indices of the fees,
    their WealthLanes), which investor_values completes."""
    rows, _, blocks = _blocks(fees, market, manager, investor)
    phi_m, t, grad = np.full(len(rows), math.nan), np.full(len(rows), math.nan), np.full(rows.shape, math.nan)
    solved = []
    for idx in blocks:
        w, phi_m[idx] = _manager_block(rows[idx], market, manager, None if t_near is None else t_near[idx])
        t[idx], grad[idx] = w.t, manager_gradient_lanes(w, manager)
        solved.append((idx, w))
    return phi_m, t, grad, solved


def _manager_block(rows: np.ndarray, market: MarketParams, manager: HaraParams, t_near: np.ndarray | None) -> tuple:
    """Per row: the optimal fund value's lanes and phi_M, the budget root
    started from t_near where it is finite, on the band table cut to the
    rows the block's lanes use."""
    m, alpha, c = np.ascontiguousarray(rows.T)
    env = envelope_lanes(m, alpha, c, manager, market.v0)
    # the rows after the largest band count are empty bands on every lane
    n = 1 + int((env.case != "A").any()) + int((env.case == "C").any())
    env = env._replace(u_lo=env.u_lo[:n], u_hi=env.u_hi[:n], coef=env.coef[:n], const=env.const[:n])
    w = wealth_lanes(env, market, solve_budget(env, market, manager.b, t_near))
    phi_m = manager_value_lanes(w, manager)
    require_lanes((m, alpha, c), np.isfinite(phi_m), lambda i: f"non-finite value phi_M={phi_m[i]}", SolveError)
    return w, phi_m


def investor_values(w: WealthLanes, phi_m: np.ndarray, manager: HaraParams, investor: HaraParams) -> tuple:
    """The second half of evaluate_fees, per lane of w whose phi_M the first
    (_manager_block) found to be phi_m: phi_I and the Sharpe ratio, from the
    moments and the investor's quadrature; a value that is not finite raises
    SolveError naming the fee."""
    ev, ev2 = moment_lanes(w, manager.b)
    sharpe = sharpe_from_moments(w, ev, ev2)
    phi_i = investor_value_lanes(w, manager, investor)
    require_lanes((w.env.m, w.env.alpha, w.env.c), np.isfinite(phi_i) & np.isfinite(sharpe),
                  lambda i: f"non-finite value phi_M={phi_m[i]}, phi_I={phi_i[i]}, SR={sharpe[i]}", SolveError)
    return phi_i, sharpe
