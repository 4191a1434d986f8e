"""Optimal terminal fund value: budget multiplier, closed-form evaluator,
moments and Sharpe ratio, for many fees at once.

The dual maximizer maps the kernel into bands (power branch, flat band,
second power branch, ruin) whose edges are marginal slopes divided by the
multiplier y.  The envelope's band table lists them with V's form on each,
and every function here sums over that table, lane by lane, in t = log y.
The budget h(y) = E[Z V(y, Z)] is strictly decreasing, so the multiplier
solving h(y) = v0 is found on every lane together by Newton's method on
log h in t, from a guess of each lane's root (or from y = 1), with h's slope
from the same band table and a bracket of the points evaluated as its
safeguard; every expectation is a sum of truncated power moments of the
kernel over the bands.  OptimalWealthSolution, budget and moments read one lane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .concavify import ConcaveEnvelope, EnvelopeLanes, build_envelope
from .contract import FeeStructure, InputError, NumericalError, require_lanes
from .market import MarketParams, kernel_bound_normal, partial_power_expectation_normal as ppe
from .preferences import HaraParams
from .roots import MAX_ITER, XRTOL

_BUDGET_RTOL = 1e-11
_VAR_FLOOR = 1e-16
_REACH = math.log(1e2) + 15.0 * math.log(16.0)    # the budget root's farthest |t| = |log y|
_NEWTON_ROUNDS = 32         # the budget root's rounds before a step longer than half the bracket bisects
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class SolveError(NumericalError):
    """Budget equation could not be bracketed or met its tolerance."""


class WealthLanes(NamedTuple):
    """The optimal fund value of every lane of an envelope at the multiplier
    e^t: the bands' and the support's kernel bounds in the normal coordinate
    (d_lo, d_hi: (bands, lanes), one row per row of the envelope's band
    table, which a block may have cut to the bands its lanes use;
    d_support: lanes), P(band) p0 and P(beyond the support)."""

    env: EnvelopeLanes
    market: MarketParams
    t: np.ndarray
    d_lo: np.ndarray
    d_hi: np.ndarray
    d_support: np.ndarray
    p0: np.ndarray
    beyond_support: np.ndarray


def _log_edges(env: EnvelopeLanes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the band edges and the support edge (the slope) as log u, -inf at u = 0
    with np.errstate(divide="ignore"):
        return np.log(env.u_lo), np.log(env.u_hi), np.log(env.slope)


def _budget(market: MarketParams, b: float, coef, const, log_lo, log_hi, theta1, log_support,
            t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # h(e^t) and dh/dt per lane, from the band table with its edges as log u;
    # V is continuous at the inner band edges, so dh/dt is the power bands'
    # own term and V's jump from theta1 to 0 at the support edge
    # z_s = slope e^-t: -theta1 z_s^2 f_Z(z_s) = -theta1 z_s phi(d_support) / sigma.
    # A band with coef = 0 (flat or empty) adds no power term, also where
    # e^(-t/b) overflows and its product would be 0 * inf
    d_lo = kernel_bound_normal(market, log_lo - t)
    d_hi = kernel_bound_normal(market, log_hi - t)
    power = np.where(coef != 0.0, coef * np.exp((-1.0 / b) * t) * ppe(market, 1.0 - 1.0 / b, d_lo, d_hi), 0.0)
    d_support = kernel_bound_normal(market, log_support - t)
    jump = theta1 * np.exp(log_support - t - 0.5 * d_support * d_support) / (_SQRT_2PI * market.log_vol)
    return np.sum(power + const * ppe(market, 1.0, d_lo, d_hi), axis=0), np.sum(power, axis=0) / -b - jump


def solve_budget(env: EnvelopeLanes, market: MarketParams, b: float, t_near: np.ndarray | None = None) -> np.ndarray:
    """t = log y* per lane, the root of h(e^t) = v0 for a manager with risk
    aversion b.

    Each lane runs Newton's method on log(h(e^t) / v0), close to linear in t
    on the power bands, with the slope h'/h from the same band table
    (_budget), from t_near, a guess of its root, where that is finite, else
    from t = 0.  h falls in t, so every point evaluated closes one side of
    the lane's bracket.  A Newton point outside the bracket, or not finite,
    is replaced by the bracket's midpoint, or by the reach end |t| = _REACH
    on the root's side while no point lies there; after _NEWTON_ROUNDS
    rounds, as Newton can cycle across a stretch where h is nearly flat, so
    is a step longer than half the bracket.  A lane stops when its Newton
    step or its bracket is at most XRTOL |t| + XRTOL, and returns the point
    it evaluated with the least |h - v0|.  A lane with no root within
    the reach, or whose best point misses v0 by more than _BUDGET_RTOL v0,
    raises SolveError naming its fee.  Lanes never mix: the warm start pays
    only when every lane of a call has one, as the call waits for its
    slowest lane.
    """
    log_lo, log_hi, log_support = _log_edges(env)
    coef, const, theta1, v0 = env.coef, env.const, env.theta1, market.v0
    n = env.m.size
    guess = np.full(n, math.nan) if t_near is None else np.asarray(t_near, dtype=float)
    x = np.where(np.isfinite(guess), np.clip(guess, -_REACH, _REACH), 0.0)
    lo, hi = np.full(n, -math.inf), np.full(n, math.inf)     # h > v0 at lo, h < v0 at hi; infinite: unseen
    best, miss = x.copy(), np.full(n, math.inf)
    lanes = np.arange(n)
    for k in range(MAX_ITER):
        # h and its slope overflow far from the root: a point there only closes the bracket
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            h, dh = _budget(market, b, coef[:, lanes], const[:, lanes], log_lo[:, lanes], log_hi[:, lanes],
                            theta1[lanes], log_support[lanes], x)
            step = -np.log(h / v0) * h / dh
            target = x + step
        gap, up = np.abs(h - v0), h > v0
        closer = gap < miss[lanes]
        best[lanes[closer]], miss[lanes[closer]] = x[closer], gap[closer]
        lo[lanes[up]], hi[lanes[h < v0]] = x[up], x[h < v0]
        # done: a short step or bracket, or a reach end still short of the root
        a, z, tol = lo[lanes], hi[lanes], XRTOL * np.abs(x) + XRTOL
        stop = (np.abs(step) <= tol) | (z - a <= tol) | (gap == 0.0) | (a == _REACH) | (z == -_REACH)
        go = ~stop
        lanes, target, up, a, z = lanes[go], target[go], up[go], np.maximum(a[go], -_REACH), np.minimum(z[go], _REACH)
        if not lanes.size:
            break
        # the Newton point inside the bracket, else the unseen reach end on
        # the root's side, else the bracket's midpoint
        unseen = np.isinf(np.where(up, hi[lanes], lo[lanes]))
        newton = (target > a) & (target < z)
        if k >= _NEWTON_ROUNDS:
            # Newton can cycle between two points inside the bracket across
            # a near-flat stretch of h, each a new end of it: past
            # _NEWTON_ROUNDS, a step longer than half the bracket bisects
            newton &= unseen | (np.abs(step[go]) <= 0.5 * (z - a))
        x = np.where(newton, target, np.where(unseen, np.where(up, _REACH, -_REACH), 0.5 * (a + z)))
    fees = (env.m, env.alpha, env.c)
    require_lanes(fees, (lo != _REACH) & (hi != -_REACH), lambda i: (
        f"budget bracket expansion failed within y in [{math.exp(-_REACH):.3e}, {math.exp(_REACH):.3e}]"), SolveError)
    require_lanes(fees, miss <= _BUDGET_RTOL * v0, lambda i: f"budget root ended at residual {miss[i]:.3e}",
                  SolveError)
    return best


def wealth_lanes(env: EnvelopeLanes, market: MarketParams, t: np.ndarray) -> WealthLanes:
    """The fund value of every lane of env at the multiplier e^t."""
    log_lo, log_hi, log_support = _log_edges(env)
    d_lo = kernel_bound_normal(market, log_lo - t)
    d_hi = kernel_bound_normal(market, log_hi - t)
    d_support = kernel_bound_normal(market, log_support - t)
    return WealthLanes(env, market, t, d_lo, d_hi, d_support,
                       ppe(market, 0.0, d_lo, d_hi), ppe(market, 0.0, d_support, -math.inf))


_EMPTY_BAND = {"u_lo": 0.0, "u_hi": 0.0, "coef": 0.0, "const": 0.0, "d_lo": math.inf, "d_hi": math.inf, "p0": 0.0}


def gather_lanes(parts, n: int, market: MarketParams) -> WealthLanes:
    """n lanes of the fund value gathered from parts, triples (w, src, dest):
    lane src[i] of the WealthLanes w becomes lane dest[i].  Every band table
    takes the rows of the longest; a row a block cut is an empty band again
    (zero, with the kernel bounds +inf of u = 0), which adds an exact 0 to
    every sum over the table, so each lane has the values of its own block.
    A lane no part fills is NaN, case '-'."""
    parts = [part for part in parts if len(part[1])]
    bands = max((len(w.d_lo) for w, _, _ in parts), default=1)

    def gather(name: str, fields: list) -> np.ndarray:
        table = name in _EMPTY_BAND
        out = np.empty((bands, n) if table else n, dtype="U1" if name == "case" else float)
        out.fill(_EMPTY_BAND[name] if table else "-" if name == "case" else math.nan)
        for (_, src, dest), field in zip(parts, fields):
            if table:
                out[:len(field), dest] = field.take(src, axis=1)
            else:
                out[dest] = field.take(src)
        return out

    env = EnvelopeLanes(*(gather(name, [getattr(w.env, name) for w, _, _ in parts]) for name in EnvelopeLanes._fields))
    return WealthLanes(env, market, *(gather(name, [getattr(w, name) for w, _, _ in parts])
                                      for name in WealthLanes._fields[2:]))


def moment_lanes(w: WealthLanes, b: float) -> tuple[np.ndarray, np.ndarray]:
    """(E[V], E[V^2]) per lane: V = A z^(-1/b) + const on each band, a flat
    band has A = 0."""
    coef, const, market = w.env.coef, w.env.const, w.market
    A = coef * np.exp((-1.0 / b) * w.t)
    p1, p2 = ppe(market, -1.0 / b, w.d_lo, w.d_hi), ppe(market, -2.0 / b, w.d_lo, w.d_hi)
    ev = np.sum(A * p1 + const * w.p0, axis=0)
    ev2 = np.sum(A * A * p2 + 2.0 * A * const * p1 + const * const * w.p0, axis=0)
    return ev, ev2


def sharpe_from_moments(w: WealthLanes, ev: np.ndarray, ev2: np.ndarray) -> np.ndarray:
    """(E[V] - v0 (1+r)) / std(V) per lane of w, from its moments; a
    numerically deterministic fund raises SolveError naming its fee."""
    var, env = ev2 - ev * ev, w.env
    require_lanes((env.m, env.alpha, env.c), var > _VAR_FLOOR,
                  lambda i: f"fund value variance {np.ravel(var)[i]:.3e} is numerically degenerate", SolveError)
    return (ev - w.market.v0 * (1.0 + w.market.r)) / np.sqrt(var)


@dataclass(frozen=True)
class OptimalWealthSolution:
    """Solved optimal terminal value for one (fee, manager utility, market):
    the envelope and t = log y* of the multiplier."""

    envelope: ConcaveEnvelope
    market: MarketParams
    t: float

    @property
    def y_star(self) -> float:
        return math.exp(self.t)

    @property
    def case(self) -> str:
        return self.envelope.case

    @property
    def theta1(self) -> float:
        return self.envelope.theta1

    def thresholds(self) -> tuple[float, ...]:
        """Right edges of the kernel bands, the support edge last."""
        y = self.y_star
        # one lane's band table; its zero rows are empty bands
        return tuple(u_hi / y for u_hi in self.envelope.lanes.u_hi[:, 0].tolist() if u_hi > 0.0)

    def lanes(self) -> WealthLanes:
        """The solution as the one lane of wealth_lanes."""
        return wealth_lanes(self.envelope.lanes, self.market, np.array([self.t]))


def budget(envelope: ConcaveEnvelope, market: MarketParams, y: float) -> float:
    """h(y) = E[Z V(y, Z)] of one envelope at a multiplier y > 0; inf where
    y is so small that y^(-1/b) overflows."""
    if not y > 0.0:
        raise InputError(f"multiplier y must be > 0 (got {y})")
    env = envelope.lanes
    log_lo, log_hi, log_support = _log_edges(env)
    with np.errstate(over="ignore", invalid="ignore"):
        h, _ = _budget(market, envelope.hara.b, env.coef, env.const, log_lo, log_hi, env.theta1, log_support,
                       np.log([y]))
    return float(h[0])


def solve_y_star(fee: FeeStructure, manager: HaraParams, market: MarketParams) -> OptimalWealthSolution:
    """Find the unique multiplier with E[Z V] = v0 and package the solution."""
    return solve_from_envelope(build_envelope(fee, manager, market.v0), market)


def solve_from_envelope(env: ConcaveEnvelope, market: MarketParams) -> OptimalWealthSolution:
    return OptimalWealthSolution(env, market, float(solve_budget(env.lanes, market, env.hara.b)[0]))


def terminal_value_array(sol: OptimalWealthSolution, z: np.ndarray) -> np.ndarray:
    """V(z) band by band: nonincreasing in z, supported on {0} u [theta1, inf).

    Bands are half-open, [u_lo / y, u_hi / y) in z, so V = 0 from the support
    edge on, as in pointwise_argmax (ties are null events under the
    continuous kernel law).
    """
    env, y = sol.envelope.lanes, sol.y_star
    z = np.asarray(z, dtype=float)
    if not (z > 0.0).all():
        raise InputError("kernel values must be > 0")
    out = np.zeros_like(z)
    # one lane's band table; its zero rows are empty bands
    for u_lo, u_hi, coef, const in zip(env.u_lo[:, 0], env.u_hi[:, 0], env.coef[:, 0], env.const[:, 0]):
        on = (z >= u_lo / y) & (z < u_hi / y)
        out[on] = coef * (y * z[on]) ** (-1.0 / sol.envelope.hara.b) + const
    return out


def moments(sol: OptimalWealthSolution) -> tuple[float, float]:
    """(E[V], E[V^2]) of one solution."""
    ev, ev2 = moment_lanes(sol.lanes(), sol.envelope.hara.b)
    return float(ev[0]), float(ev2[0])


def sharpe_ratio(sol: OptimalWealthSolution) -> float:
    """Sharpe ratio of the optimal fund value."""
    w = sol.lanes()
    return float(sharpe_from_moments(w, *moment_lanes(w, sol.envelope.hara.b))[0])
