"""First-best Pareto-optimal fees: the lattice scan and the frontier.

For a reservation level phi_min, the frontier point maximizes the investor's
value phi_I subject to the manager's value phi_M >= phi_min over the fee box
(the epsilon-constraint method).  phi_M rises monotonically in m and alpha
and falls in the coverage c, so at fixed (m, alpha) the constraint holds for
c up to c_bind(m, alpha).  Where it binds, c is eliminated through it and
G(m, alpha) = phi_I(m, alpha, c_bind) is maximized over the two fees left;
where c_bind leaves the coverage range, the fee on that face of c that meets
the constraint with the lowest m (then alpha) competes, so that the search
can follow a face or vertex of the box along which the constraint binds.

All levels are solved in the same batched evaluations.  One unconstrained
maximum x_u of phi_I serves the levels it satisfies; each of the others
runs a lane-wise pattern search on G from its best feasible lattice fee, in
one call for all of them.  The search's quadratic-model step follows the
ridges of G that no stencil direction lies along.  Every binding fee is
found by a lane-wise safeguarded Newton root on phi_M's closed-form
gradient, started from the lane's last c_bind moved along the slopes of
c_bind there (dc/dm = -phi_M,m / phi_M,c, and so for alpha).  A face's
roots, in m and in alpha at the top m, each start from the end of its
span where phi_M is highest.  Each search round is one bind call: where a
lane's fee lies on a face of c, that face's roots run in the same call as
the coverage roots, and only a face that a point's own coverage root finds
binds in a second call.  The binds return the lanes and phi_M of the fees
they end at, and the investor's half of the fee engine values those fees
from them, without a second budget root.  Each fee carries its t = log y*
and those slopes, so every budget root of the search starts warm from the
lane's last one.  A level's answer is the better of the search's result
and its best feasible lattice fee, so it never falls below the lattice.

The investor's best traditional fee (c = 0), the baseline of the paper's
claims, runs the same pattern search from the best fee of the same lattice
axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contract import FEE_HI, FEE_LO, FeeStructure, InputError, NumericalError, fee_label
from .market import MarketParams
from .preferences import HaraParams, admissible_lanes, require_admissible
from .roots import newton_root, pattern_search
from .valuation import FeeBatch, evaluate_fees, investor_values, manager_values
from .wealth import SolveError, gather_lanes

_SEED_TOL = 1e-12
_BOUND_SNAP = 1e-7
_EPS = np.finfo(float).eps
_MAX_AXIS = np.iinfo(np.intp).max // np.dtype(float).itemsize     # the longest float array np.arange can size


class InfeasibleReservation(NumericalError):
    """phi_min outside the attainable range of the manager's value."""


@dataclass(frozen=True)
class GridSteps:
    """Lattice and sweep resolution.

    Defaults resolve published-table digits at desk scale; the sweep uses
    n_phi + 1 equally spaced reservation levels across the attained range.
    """

    dm: float = 0.0025
    dalpha: float = 0.005
    dc: float = 0.005
    n_phi: int = 200

    def __post_init__(self) -> None:
        # np.arange cannot size the axis of a NaN, infinite or vanishing step,
        # nor numpy the (n, 3) fee array of a lattice that fine
        names, points = ("dm", "dalpha", "dc"), []
        for name, span in zip(names, (FEE_HI - FEE_LO).tolist()):
            step = getattr(self, name)
            if not (math.isfinite(step) and step > 0 and span / step < _MAX_AXIS):
                raise InputError(f"lattice step {name} must be finite and > 0, with fewer than {_MAX_AXIS:.3g} "
                                 f"points along its fee axis (got {step})")
            points.append(span / step + 1.0)
        if 3.0 * math.prod(points) >= _MAX_AXIS:
            name = names[int(np.argmax(points))]
            raise InputError(f"lattice step {name} = {getattr(self, name)} gives a lattice of about "
                             f"{math.prod(points):.3g} fees, not fewer than {_MAX_AXIS / 3:.3g}")
        if self.dalpha > FEE_HI[1]:
            raise InputError(f"lattice step dalpha = {self.dalpha} leaves no performance fee on its axis, "
                             f"which starts at dalpha: it must not exceed {FEE_HI[1]:g}")
        if self.n_phi < 1:
            raise InputError(f"n_phi must be at least 1 (got {self.n_phi})")

    @staticmethod
    def _axis(k: int, start: float, step: float) -> np.ndarray:
        # start + i step, rounded to 12 decimals, up to half a step past the
        # box's end; only the points inside the box are fees
        axis = np.round(np.arange(start, FEE_HI[k] + step / 2, step), 12)
        return axis[(FEE_LO[k] <= axis) & (axis <= FEE_HI[k])]

    def m_grid(self) -> np.ndarray:
        return self._axis(0, FEE_LO[0], self.dm)

    def alpha_grid(self) -> np.ndarray:
        return self._axis(1, self.dalpha, self.dalpha)

    def c_grid(self) -> np.ndarray:
        return self._axis(2, FEE_LO[2], self.dc)


_TRADITIONAL_STEPS = GridSteps(dm=0.0025, dalpha=0.0025)       # optimize_traditional's (m, alpha) axes


@dataclass(frozen=True)
class GridScan(FeeBatch):
    """Full lattice evaluation: the FeeBatch of the Cartesian grid's fees,
    one row (m, alpha, c) each, m slowest and c fastest."""

    steps: GridSteps
    fees: np.ndarray

    @property
    def phi_M_min(self) -> float:
        return float(np.min(self.phi_M[self.feasible]))

    @property
    def phi_M_max(self) -> float:
        return float(np.max(self.phi_M[self.feasible]))


@dataclass(frozen=True)
class ParetoPoint:
    phi_min: float
    fee: FeeStructure
    phi_M: float
    phi_I: float
    sharpe: float
    bound_flags: tuple[str, ...] = ()
    seed_phi_I: float = math.nan        # the level's best feasible lattice value


@dataclass(frozen=True)
class Frontier:
    points: tuple[ParetoPoint, ...]
    failures: tuple[tuple[float, str], ...] = ()      # always empty: a failing level raises


def default_workers() -> int:
    """Processes a frontier runs on: 1, as every level is solved in the same
    batched evaluations; kept for callers that record it with their results."""
    return 1


def grid_scan(
    market: MarketParams,
    manager: HaraParams,
    investor: HaraParams,
    steps: GridSteps = GridSteps(),
) -> GridScan:
    """Evaluate (phi_M, phi_I, SR) over the full fee lattice, batched in
    this process.

    Inadmissible cells (possible only for b > 1 at the coverage edge) are
    recorded infeasible rather than failing the scan.
    """
    axes = np.meshgrid(steps.m_grid(), steps.alpha_grid(), steps.c_grid(), indexing="ij")
    fees = np.stack(axes, axis=-1).reshape(-1, 3)
    batch = evaluate_fees(fees, market, manager, investor)
    if not batch.feasible.any():
        raise InfeasibleReservation("no admissible fee on the lattice; check utility shifts")
    return GridScan(steps=steps, fees=fees, **vars(batch))


def _span(rows: np.ndarray, axis: int, manager: HaraParams, investor: HaraParams, v0: float) -> tuple[np.ndarray, np.ndarray]:
    """The range of fee coordinate axis (0 m, 1 alpha, 2 c) at each row's
    other two: the box, cut where c - m leaves [-a_I, a_M] / v0, and 1e-9
    inside a cut that is itself inadmissible (b > 1, or b < 1 by rounding)."""
    lo, hi = np.full(len(rows), FEE_LO[axis]), np.full(len(rows), FEE_HI[axis])
    if axis != 1:
        held = rows[:, 2 - axis]
        d_lo, d_hi = (-investor.a / v0, manager.a / v0) if axis == 2 else (-manager.a / v0, investor.a / v0)
        lo, hi = np.maximum(lo, held + d_lo), np.minimum(hi, held + d_hi)
        for end, inward in ((lo, 1e-9), (hi, -1e-9)):
            m, c = (held, end) if axis == 2 else (end, held)
            end += np.where(admissible_lanes(m, c, manager, investor, v0), 0.0, inward)
    return lo, hi


def _select_seeds(scan: GridScan, levels: np.ndarray) -> np.ndarray:
    """Per level, the lattice index of its best feasible fee by phi_I (the
    first in lattice order on a tie)."""
    order = np.flatnonzero(scan.feasible)
    order = order[np.argsort(-scan.phi_I[order], kind="stable")]
    # the first fee in that order with phi_M >= level is the first whose
    # running maximum of phi_M reaches it
    first = np.searchsorted(np.maximum.accumulate(scan.phi_M[order]), levels - _SEED_TOL)
    if (first == order.size).any():
        level = float(levels[np.argmax(first == order.size)])
        raise InfeasibleReservation(f"no feasible lattice seed for phi_min={level}")
    return order[first]


def _bind(rows: np.ndarray, axis: int | np.ndarray, t: np.ndarray, phi_min: np.ndarray, market: MarketParams,
          manager: HaraParams, investor: HaraParams) -> tuple:
    """Each row moved along its fee coordinate axis (one for all rows, or one
    per row), within its span, to where phi_M = phi_min (phi_M rises along
    m and alpha, falls along c); to the span's end with the lowest phi_M
    where all of the span meets phi_min, NaN where none does.  The root is
    roots.newton_root on phi_M's closed-form slope (manager_values), from
    the row's own coordinate, clipped to the span; the fee it returns is one
    it evaluated with phi_M >= phi_min.  Returns the moved rows, and per row
    what manager_values found at that fee: t = log y*, phi_M's gradient,
    phi_M and the fund value's lanes (gather_lanes; NaN where the row is),
    which investor_values completes without a second budget root.  The
    budget roots start warm, from t, the row's, and from the root's guesses
    after it."""
    n = len(rows)
    axis, lo, hi = np.broadcast_to(axis, n), np.empty(n), np.empty(n)
    for a in np.unique(axis):
        lo[axis == a], hi[axis == a] = _span(rows[axis == a], a, manager, investor, market.v0)
    span = np.flatnonzero(lo <= hi)
    held, on, need, seen = rows[span], axis[span], phi_min[span], []

    def gap(x: np.ndarray, lanes: np.ndarray, t_near: np.ndarray) -> tuple:
        fees, at = held[lanes].copy(), (np.arange(lanes.size), on[lanes])
        fees[at] = x
        phi_m, t_x, grad, solved = manager_values(fees, market, manager, investor, t_near)
        seen.append((lanes, x, grad, phi_m, solved))
        return phi_m - need[lanes], grad[at], t_x

    # ftol: about where phi_M's own rounding takes over
    x, _, t_x, ok = newton_root(gap, held[np.arange(span.size), on], lo[span], hi[span], on != 2,
                                8.0 * _EPS * np.maximum(1.0, np.abs(need)), t[span])
    if not ok.all():
        i = int(np.argmin(ok))
        exc = SolveError(f"root of phi_M = {float(need[i])!r} not found in "
                         f"[{float(lo[span[i]])!r}, {float(hi[span[i]])!r}] along fee axis {on[i]}")
        exc.add_note(f"frontier search failed at fee {fee_label(*held[i])}")
        raise exc
    out, t_out, grad, phi_out = rows.copy(), np.full(n, math.nan), np.full(rows.shape, math.nan), np.full(n, math.nan)
    out[np.arange(n), axis] = math.nan
    out[span, on], t_out[span] = x, t_x
    # what manager_values found where each lane's root ended, a point it evaluated
    parts = []
    for lanes, at, g, phi_m, solved in seen:
        hit = at == x[lanes]
        grad[span[lanes[hit]]], phi_out[span[lanes[hit]]] = g[hit], phi_m[hit]
        parts += [(w, np.flatnonzero(hit[idx]), span[lanes[idx[hit[idx]]]]) for idx, w in solved]
    return out, t_out, grad, phi_out, gather_lanes(parts, n, market)


def _solve_levels(levels: np.ndarray, scan: GridScan, market: MarketParams, manager: HaraParams,
                  investor: HaraParams) -> list[ParetoPoint]:
    """The frontier point of every reservation level, in one batched search."""
    steps, v0 = scan.steps, market.v0
    seeds = _select_seeds(scan, levels)
    seed_phi_I = scan.phi_I[seeds]

    def phi_I(rows: np.ndarray, t_near: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # -inf where a fee is NaN or inadmissible; and the rows with their t
        ok = ~np.isnan(rows).any(axis=1)
        values, t = np.full(len(rows), -math.inf), np.full(len(rows), math.nan)
        batch = evaluate_fees(rows[ok], market, manager, investor, t_near[ok])
        values[ok], t[ok] = np.where(batch.feasible, batch.phi_I, -math.inf), batch.t
        return values, np.column_stack([rows, t])

    # the unconstrained maximum over (m, alpha, c), from the best lattice fee;
    # a fee is a row (m, alpha, c, t) from here on
    best = int(np.argmax(np.where(scan.feasible, scan.phi_I, -np.inf)))
    x_u = scan.fees[[best]]
    f_u, u = phi_I(x_u, scan.t[[best]])
    pattern_search(lambda points, lanes, fee: phi_I(points, fee[:, 3]), x_u, f_u, u,
                   np.array([[steps.dm, steps.dalpha, steps.dc]]), FEE_LO, FEE_HI)
    slack = levels <= evaluate_fees(x_u, market, manager, investor, u[:, 3]).phi_M[0]
    fees = np.where(slack[:, None], u, math.nan)
    found = np.where(slack, f_u[0], -math.inf)

    # every other level: a pattern search on G(m, alpha) from its lattice seed
    owner = np.flatnonzero(~slack)
    start = seeds[owner]
    # a fee in G is a row (m, alpha, c, t, dc/dm, dc/dalpha), the last two
    # the slopes of c_bind there (NaN where not known)
    starts = np.column_stack([scan.fees[start], scan.t[start],
                              np.full((start.size, 2), math.nan)])
    lane_min = levels[owner]
    bind = lambda rows, axis, t, lanes: _bind(rows, axis, t, lane_min[lanes], market, manager, investor)

    def faces(alpha: np.ndarray, c_face: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the face fee at the lowest m, else at the top m the lowest alpha:
        # the rows of both binds, each from its span's end where phi_M is
        # highest, the top m and alpha = 50%, and their axes
        k = alpha.size
        along_m = np.column_stack([np.full(k, math.nan), alpha, c_face])
        along_m[:, 0] = _span(along_m, 0, manager, investor, v0)[1]
        along_alpha = np.column_stack([along_m[:, 0], np.full(k, FEE_HI[1]), c_face])
        return np.concatenate([along_m, along_alpha]), np.repeat([0, 1], k)

    def G(points, lanes, center):
        # the fee at (m, alpha) with c bound by the constraint, from the lane's
        # c_bind moved along its slopes (else its c) and its t
        with np.errstate(invalid="ignore"):
            c = center[:, 2] + np.sum((points - center[:, :2]) * center[:, 4:], axis=1)
        c = np.where(np.isfinite(c), c, center[:, 2])
        n, rows = len(points), np.column_stack([points, c])
        # a point, or its lane's fee, on a face of c (c at its cap with phi_M
        # to spare, or at its floor with phi_M short): the fee on that face
        # that meets the constraint with the lowest m, then alpha, competes.
        # The faces lie at the point's m; where the lane's fee is on one, its
        # face fees bind in the same call as the coverage, from the lane's t
        lo_c, hi_c = _span(rows, 2, manager, investor, v0)
        pre = np.flatnonzero((center[:, 2] == hi_c) | (center[:, 2] == lo_c))
        pre_c = np.where(center[:, 2] == hi_c, hi_c, lo_c)[pre]
        face_rows, face_axis = faces(points[pre, 1], pre_c)
        k = pre.size
        first = bind(np.concatenate([rows, face_rows]), np.concatenate([np.full(n, 2), face_axis]),
                     np.concatenate([center[:, 3], np.tile(center[pre, 3], 2)]),
                     np.concatenate([lanes, np.tile(lanes[pre], 2)]))
        fee, t = first[0][:n], first[1][:n]
        short = np.isnan(fee[:, 2])
        top = ~short & ((fee[:, 2] == hi_c) | (center[:, 2] == hi_c))
        face = np.flatnonzero(short | top | (center[:, 2] == lo_c))
        c_face = np.where(top, hi_c, lo_c)[face]
        # (a face the coverage bind found, or another than the lane's: its
        # face fees bind now, from the t the coverage bind ended at)
        slot = np.full(n, -1)
        slot[pre] = np.arange(k)
        bound = slot[face] >= 0
        bound[bound] = pre_c[slot[face[bound]]] == c_face[bound]
        again = face[~bound]
        near = np.where(np.isnan(t), center[:, 3], t)
        face_rows, face_axis = faces(points[again, 1], c_face[~bound])
        second = (bind(face_rows, face_axis, np.tile(near[again], 2), np.tile(lanes[again], 2)) if again.size
                  else (np.empty((0, 3)), np.empty(0), np.empty((0, 3)), np.empty(0), None))
        # both calls' rows, then a NaN row: each lane's coverage fee, and a
        # face lane's fee along m, else along alpha
        got, ts, grads, phi_ms = (np.concatenate([a, b, np.full((1,) + a.shape[1:], math.nan)])
                                  for a, b in zip(first[:4], second[:4]))
        offset = n + 2 * k
        along_m = np.where(bound, n + slot[face], offset + np.cumsum(~bound) - 1)
        along_m += np.where(np.isnan(got[along_m, 0]), np.where(bound, k, again.size), 0)
        pick = np.concatenate([np.arange(n), np.full(n, len(got) - 1)])
        pick[n + face] = along_m
        with np.errstate(divide="ignore", invalid="ignore"):
            both = np.column_stack([got, ts, -grads[:, :2] / grads[:, 2:]])[pick]
        # phi_I of each fee from the lanes its bind solved, -inf where the
        # fee is NaN; the better of the two, the first on a tie
        solved = np.isfinite(phi_ms[pick])
        src = pick[solved]
        one = src < offset
        w = gather_lanes([(first[4], src[one], np.flatnonzero(one)),
                          (second[4], src[~one] - offset, np.flatnonzero(~one))], src.size, market)
        values = np.full(2 * n, -math.inf)
        values[solved] = investor_values(w, phi_ms[src], manager, investor)[0]
        values, both = values.reshape(2, -1), both.reshape(2, -1, 6)
        return values.max(axis=0), both[np.argmax(values, axis=0), np.arange(n)]

    # from the seeds' own binding fees
    fx, fee = G(starts[:, :2], np.arange(owner.size), starts)
    h = np.tile([steps.dm, steps.dalpha], (owner.size, 1))
    pattern_search(G, fee[:, :2].copy(), fx, fee, h, FEE_LO[:2], FEE_HI[:2])
    fees[owner], found[owner] = fee[:, :4], fx

    # a level's best feasible lattice fee stands where the search did not beat it
    lattice = np.flatnonzero(found <= seed_phi_I)
    first = seeds[lattice]
    fees[lattice] = np.column_stack([scan.fees[first], scan.t[first]])
    final = evaluate_fees(fees[:, :3], market, manager, investor, fees[:, 3])
    # a fee on a face of the box, the top of c where the coverage range cuts it
    lo = FEE_LO + _BOUND_SNAP
    hi = np.append(FEE_HI[:2], _span(FEE_HI[None], 2, manager, investor, v0)[1]) - _BOUND_SNAP
    points = []
    for i, level in enumerate(levels.tolist()):
        fee = FeeStructure(*fees[i, :3].tolist())
        bounds = (("m_low", fee.m <= lo[0]), ("m_high", fee.m >= hi[0]), ("alpha_low", fee.alpha <= lo[1]),
                  ("alpha_high", fee.alpha >= hi[1]), ("c_low", fee.c <= lo[2]), ("c_high", fee.c >= hi[2]))
        points.append(ParetoPoint(phi_min=level, fee=fee, phi_M=float(final.phi_M[i]), phi_I=float(final.phi_I[i]),
                                  sharpe=float(final.sharpe[i]), bound_flags=tuple(name for name, hit in bounds if hit),
                                  seed_phi_I=float(seed_phi_I[i])))
    return points


def solve_fbpo(
    phi_min: float,
    scan: GridScan,
    market: MarketParams,
    manager: HaraParams,
    investor: HaraParams,
) -> ParetoPoint:
    """The frontier point at one reservation level: sweep_frontier's search
    on this level alone, which gives the sweep's point for it."""
    if phi_min > scan.phi_M_max + 1e-9 or phi_min < scan.phi_M_min - 1e-9:
        raise InfeasibleReservation(f"phi_min={phi_min} outside attained manager range "
                                    f"[{scan.phi_M_min}, {scan.phi_M_max}]")
    return _solve_levels(np.array([float(phi_min)]), scan, market, manager, investor)[0]


def sweep_frontier(
    market: MarketParams,
    manager: HaraParams,
    investor: HaraParams,
    steps: GridSteps = GridSteps(),
) -> Frontier:
    """Scan the lattice of steps (grid_scan), then trace the Pareto frontier
    at its n_phi + 1 reservation levels, spaced evenly across the scan's
    attained phi_M, in one batched search; a numerical failure raises, noted
    with the fee."""
    scan = grid_scan(market, manager, investor, steps)
    levels = np.linspace(scan.phi_M_min, scan.phi_M_max, steps.n_phi + 1)
    return Frontier(points=tuple(_solve_levels(levels, scan, market, manager, investor)))


def optimize_traditional(investor: HaraParams, manager: HaraParams, market: MarketParams) -> tuple[float, float]:
    """Investor-optimal traditional fee (c = 0) over the fee box: the (m,
    alpha) axes of _TRADITIONAL_STEPS, then the lane-wise pattern search
    from their best fee, which it never falls below."""
    steps = _TRADITIONAL_STEPS
    grid = np.stack(np.meshgrid(steps.m_grid(), steps.alpha_grid(), [0.0], indexing="ij"), axis=-1).reshape(-1, 3)
    batch = evaluate_fees(grid, market, manager, investor)
    require_admissible(*grid.T, manager, investor, market.v0)
    i = int(np.argmax(batch.phi_I))

    def phi_i(points, lanes, fee):
        fees = np.column_stack([points, np.zeros(len(points))])
        return evaluate_fees(fees, market, manager, investor).phi_I, fees

    x = grid[[i], :2]
    pattern_search(phi_i, x, batch.phi_I[i:i + 1].copy(), grid[[i]], np.array([[steps.dm, steps.dalpha]]),
                   FEE_LO[:2], FEE_HI[:2])
    return float(x[0, 0]), float(x[0, 1])
