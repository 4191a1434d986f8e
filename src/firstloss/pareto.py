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
point's coverage root starts on or past a face of c, or its lane's fee lies
on one, that face's roots run in the same call as the coverage roots.  A
bind values the fees it ends at, on the lanes that found their phi_M, with
the investor's half of the fee engine alone; from then on a fee is one row
(m, alpha, c, t = log y*, those slopes, phi_M, SR), its phi_I beside it,
valued no more, and every budget root of the search starts warm from the
lane's last one.  A level's answer is the better of the search's result and
its best feasible lattice fee, so it never falls below the lattice.

The investor's best traditional fee (c = 0), the baseline of the paper's
claims, runs the same pattern search from the best fee of the same lattice
axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contract import FEE_HI, FEE_LO, MAX_FLOATS, FeeStructure, InputError, NumericalError, fee_label
from .market import MarketParams
from .preferences import HaraParams, admissible_lanes, require_admissible
from .roots import newton_root, pattern_search
from .valuation import FeeBatch, evaluate_fees, investor_values, manager_values
from .wealth import SolveError, gather_lanes

_SEED_TOL = 1e-12
_BOUND_SNAP = 1e-7
_EPS = np.finfo(float).eps


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
            if not (math.isfinite(step) and step > 0 and span / step < MAX_FLOATS):
                raise InputError(f"lattice step {name} must be finite and > 0, with fewer than {MAX_FLOATS:.3g} "
                                 f"points along its fee axis (got {step})")
            points.append(span / step + 1.0)
        if 3.0 * math.prod(points) >= MAX_FLOATS:
            name = names[int(np.argmax(points))]
            raise InputError(f"lattice step {name} = {getattr(self, name)} gives a lattice of about "
                             f"{math.prod(points):.3g} fees, not fewer than {MAX_FLOATS / 3:.3g}")
        if self.dalpha > FEE_HI[1]:
            raise InputError(f"lattice step dalpha = {self.dalpha} leaves no performance fee on its axis, "
                             f"which starts at dalpha: it must not exceed {FEE_HI[1]:g}")
        if self.n_phi < 1:
            raise InputError(f"n_phi must be at least 1 (got {self.n_phi})")
        if self.n_phi + 1 >= MAX_FLOATS:      # nor np.linspace the levels
            raise InputError(f"n_phi + 1 levels must be fewer than {MAX_FLOATS:.3g} (got n_phi = {self.n_phi})")

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


def _bind(rows: np.ndarray, axis: np.ndarray, t: np.ndarray, phi_min: np.ndarray, market: MarketParams,
          manager: HaraParams, investor: HaraParams) -> tuple:
    """Each row moved along its own fee coordinate axis, within its span, to
    where phi_M = phi_min (phi_M rises along m and alpha, falls along c); to
    the span's end with the lowest phi_M where all of the span meets phi_min,
    NaN where none does.  The root is roots.newton_root on phi_M's
    closed-form slope (manager_values), from the row's own coordinate,
    clipped to the span; the fee it returns is one it evaluated with
    phi_M >= phi_min.  Returns the moved rows as fees
    (m, alpha, c, t, dc/dm, dc/dalpha, phi_M, SR), the slopes of c_bind from
    phi_M's gradient, and their phi_I, from the lanes manager_values solved
    at each fee (investor_values, without a second budget root); where no
    fee meets phi_min, all but the row's other coordinates and t are NaN,
    and phi_I -inf.  The budget roots start warm, from t, then the root's."""
    n = len(rows)
    lo, hi = np.empty(n), np.empty(n)
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
    out = np.column_stack([rows, np.full((n, 5), math.nan)])
    out[np.arange(n), axis] = math.nan
    out[span, on], out[span, 3] = x, t_x
    # what manager_values found where each lane's root ended, a point it
    # evaluated: phi_M, its gradient and the lanes that value the fee
    found = span[~np.isnan(x)]
    slot, grad, parts = np.full(n, -1), np.full((n, 3), math.nan), []
    slot[found] = np.arange(found.size)
    for lanes, at, g, phi_m, solved in seen:
        hit = at == x[lanes]
        grad[span[lanes[hit]]], out[span[lanes[hit]], 6] = g[hit], phi_m[hit]
        parts += [(w, np.flatnonzero(hit[idx]), slot[span[lanes[idx[hit[idx]]]]]) for idx, w in solved]
    with np.errstate(divide="ignore", invalid="ignore"):
        out[:, 4:6] = -grad[:, :2] / grad[:, 2:]
    phi_i = np.full(n, -math.inf)
    phi_i[found], out[found, 7] = investor_values(gather_lanes(parts, found.size, market), out[found, 6],
                                                  manager, investor)
    return out, phi_i


def _solve_levels(levels: np.ndarray, scan: GridScan, market: MarketParams, manager: HaraParams,
                  investor: HaraParams) -> list[ParetoPoint]:
    """The frontier point of every reservation level, in one batched search.

    A fee is a row (m, alpha, c, t, dc/dm, dc/dalpha, phi_M, SR) throughout,
    its phi_I the search value beside it: t = log y*, and the slopes of
    c_bind there (NaN where not known)."""
    steps, v0 = scan.steps, market.v0
    seeds = _select_seeds(scan, levels)
    seed_phi_I = scan.phi_I[seeds]

    def lattice_rows(i: np.ndarray) -> np.ndarray:
        return np.column_stack([scan.fees[i], scan.t[i], np.full((i.size, 2), math.nan), scan.phi_M[i],
                                scan.sharpe[i]])

    def phi_I(points, lanes, fee):
        # -inf where a fee is inadmissible; the budget roots start from the lane's t
        batch = evaluate_fees(points, market, manager, investor, fee[:, 3])
        rows = np.column_stack([points, batch.t, np.full((len(points), 2), math.nan), batch.phi_M, batch.sharpe])
        return np.where(batch.feasible, batch.phi_I, -math.inf), rows

    # the unconstrained maximum over (m, alpha, c), from the best lattice fee
    best = np.array([np.argmax(np.where(scan.feasible, scan.phi_I, -np.inf))])
    u, f_u = lattice_rows(best), scan.phi_I[best]
    pattern_search(phi_I, scan.fees[best], f_u, u, np.array([[steps.dm, steps.dalpha, steps.dc]]), FEE_LO, FEE_HI)
    slack = levels <= u[0, 6]
    fees = np.where(slack[:, None], u, math.nan)
    found = np.where(slack, f_u[0], -math.inf)

    # every other level: a pattern search on G(m, alpha) from its lattice seed
    owner = np.flatnonzero(~slack)
    starts = lattice_rows(seeds[owner])
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

    def face_fee(rows: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # of a face bind's 2k rows, the fee along m, else the one along alpha
        k = len(rows) // 2
        along_m = ~np.isnan(rows[:k, 0])
        return np.where(along_m[:, None], rows[:k], rows[k:]), np.where(along_m, values[:k], values[k:])

    def G(points, lanes, center):
        # the fee at (m, alpha) with c bound by the constraint, from the lane's
        # c_bind moved along its slopes (else its c) and its t
        with np.errstate(invalid="ignore"):
            c = center[:, 2] + np.sum((points - center[:, :2]) * center[:, 4:6], axis=1)
        c = np.where(np.isfinite(c), c, center[:, 2])
        n, rows = len(points), np.column_stack([points, c])
        # a point whose coverage root starts on or past a face of c, or whose
        # lane's fee lies on one: the fee on that face that meets the
        # constraint with the lowest m, then alpha, competes; it binds in the
        # same call as the coverage, from the lane's t
        lo_c, hi_c = _span(rows, 2, manager, investor, v0)
        c_face = np.where((c >= hi_c) | (center[:, 2] == hi_c), hi_c,
                          np.where((c <= lo_c) | (center[:, 2] == lo_c), lo_c, math.nan))
        face = np.flatnonzero(~np.isnan(c_face))
        face_rows, face_axis = faces(points[face, 1], c_face[face])
        got, value = bind(np.concatenate([rows, face_rows]), np.concatenate([np.full(n, 2), face_axis]),
                          np.concatenate([center[:, 3], np.tile(center[face, 3], 2)]),
                          np.concatenate([lanes, np.tile(lanes[face], 2)]))
        fee, fx = got[:n], value[:n]
        on_face, face_fx = np.full((n, 8), math.nan), np.full(n, -math.inf)
        on_face[face], face_fx[face] = face_fee(got[n:], value[n:])
        # the better of the two, the coverage fee on a tie
        better = face_fx > fx
        return np.where(better, face_fx, fx), np.where(better[:, None], on_face, fee)

    # from the seeds' own binding fees
    fx, fee = G(starts[:, :2], np.arange(owner.size), starts)
    h = np.tile([steps.dm, steps.dalpha], (owner.size, 1))
    pattern_search(G, fee[:, :2].copy(), fx, fee, h, FEE_LO[:2], FEE_HI[:2])
    fees[owner], found[owner] = fee, fx

    # a level's best feasible lattice fee stands where the search did not beat it
    lattice = np.flatnonzero(found <= seed_phi_I)
    fees[lattice], found[lattice] = lattice_rows(seeds[lattice]), seed_phi_I[lattice]
    # a fee on a face of the box, the top of c where the coverage range cuts it
    lo = FEE_LO + _BOUND_SNAP
    hi = np.append(FEE_HI[:2], _span(FEE_HI[None], 2, manager, investor, v0)[1]) - _BOUND_SNAP
    points = []
    for i, level in enumerate(levels.tolist()):
        fee = FeeStructure(*fees[i, :3].tolist())
        bounds = (("m_low", fee.m <= lo[0]), ("m_high", fee.m >= hi[0]), ("alpha_low", fee.alpha <= lo[1]),
                  ("alpha_high", fee.alpha >= hi[1]), ("c_low", fee.c <= lo[2]), ("c_high", fee.c >= hi[2]))
        points.append(ParetoPoint(phi_min=level, fee=fee, phi_M=float(fees[i, 6]), phi_I=float(found[i]),
                                  sharpe=float(fees[i, 7]), bound_flags=tuple(name for name, hit in bounds if hit),
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
