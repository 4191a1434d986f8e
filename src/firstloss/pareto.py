"""First-best Pareto-optimal fees: lattice scan, per-reservation-level
constrained maximization, and the frontier sweep.

For a reservation level phi_min, the frontier point maximizes the investor's
value subject to the manager's value staying above phi_min, over the fee box.
The investor surface is multimodal in corners of the parameter space (small
fees under high manager risk aversion), so refinement is seeded from the
dense lattice, run from several seeds, and finished with a deterministic
polish along the binding constraint; the refined point never falls below its
seed.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize, minimize_scalar

from .contract import ALPHA_MAX, ALPHA_MIN, C_MAX, M_MAX, FeeStructure
from .market import MarketParams
from .preferences import HaraParams
from .valuation import FeeMetrics, evaluate_fee, evaluate_fees, manager_value
from .wealth import solve_y_star

_SEED_TOL = 1e-12
_BOUND_SNAP = 1e-7
_POLISH_WINDOW = 0.04


class InfeasibleReservation(ValueError):
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
        if min(self.dm, self.dalpha, self.dc) <= 0 or self.n_phi < 1:
            raise ValueError("grid steps must be positive")

    def m_grid(self) -> np.ndarray:
        return np.round(np.arange(0.0, M_MAX + self.dm / 2, self.dm), 12)

    def alpha_grid(self) -> np.ndarray:
        return np.round(np.arange(self.dalpha, ALPHA_MAX + self.dalpha / 2, self.dalpha), 12)

    def c_grid(self) -> np.ndarray:
        return np.round(np.arange(0.0, C_MAX + self.dc / 2, self.dc), 12)


@dataclass(frozen=True)
class GridScan:
    """Full lattice evaluation: one row per fee of the Cartesian grid."""

    steps: GridSteps
    fees: tuple[tuple[float, float, float], ...]
    phi_M: np.ndarray
    phi_I: np.ndarray
    sharpe: np.ndarray
    case: tuple[str, ...]
    feasible: np.ndarray

    @property
    def phi_M_min(self) -> float:
        return float(np.min(self.phi_M[self.feasible]))

    @property
    def phi_M_max(self) -> float:
        return float(np.max(self.phi_M[self.feasible]))

    def argmax_phi_M(self) -> tuple[float, float, float]:
        idx = int(np.argmax(np.where(self.feasible, self.phi_M, -np.inf)))
        return self.fees[idx]


@dataclass(frozen=True)
class ParetoPoint:
    phi_min: float
    fee: FeeStructure
    phi_M: float
    phi_I: float
    sharpe: float
    bound_flags: tuple[str, ...] = ()
    seed_phi_I: float = math.nan


@dataclass(frozen=True)
class Frontier:
    points: tuple[ParetoPoint, ...]
    steps: GridSteps
    phi_M_min: float
    phi_M_max: float
    failures: tuple[tuple[float, str], ...] = ()


def default_workers() -> int:
    from .config import ConfigError              # config imports this module

    env = os.environ.get("FIRSTLOSS_WORKERS")
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            raise ConfigError(f"FIRSTLOSS_WORKERS must be an integer (got {env!r})") from None
    return min(os.cpu_count() or 1, 8)


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
    fees = [
        (float(m), float(a), float(c))
        for m in steps.m_grid()
        for a in steps.alpha_grid()
        for c in steps.c_grid()
    ]
    batch = evaluate_fees(fees, market, manager, investor)
    if not batch.feasible.any():
        raise InfeasibleReservation("no admissible fee on the lattice; check utility shifts")
    return GridScan(steps=steps, fees=tuple(fees), phi_M=batch.phi_M, phi_I=batch.phi_I, sharpe=batch.sharpe,
                    case=tuple(batch.case.tolist()), feasible=batch.feasible)


def _phi_M_only(fee: FeeStructure, market: MarketParams, manager: HaraParams) -> float:
    return manager_value(solve_y_star(fee, manager, market))


def _c_bounds(m: float, manager: HaraParams, investor: HaraParams, v0: float) -> tuple[float, float]:
    # b > 1 needs the worst payoff strictly inside the utility domain
    lo = 0.0
    hi = C_MAX
    if manager.b > 1.0:
        hi = min(hi, manager.a / v0 + m - 1e-9)
    if investor.b > 1.0:
        lo = max(lo, m - investor.a / v0 + 1e-9)
    return lo, hi


def _best_c_on_slice(
    m: float,
    alpha: float,
    phi_min: float,
    market: MarketParams,
    manager: HaraParams,
    investor: HaraParams,
) -> tuple[float, float] | None:
    """Max of phi_I over the feasible coverage range at fixed (m, alpha).

    The manager's value decreases in c, so the feasible set is an interval
    [c_lo, c_bind]; returns (phi_I, c) or None when even c_lo is infeasible.
    """
    c_lo, c_hi = _c_bounds(m, manager, investor, market.v0)
    if c_hi <= c_lo:
        return None
    gap = lambda c: _phi_M_only(FeeStructure(m, alpha, c), market, manager) - phi_min
    if gap(c_lo) < 0.0:
        return None
    if gap(c_hi) < 0.0:
        c_hi = brentq(gap, c_lo, c_hi, xtol=1e-10)
    if c_hi - c_lo < 1e-12:
        c_best = c_lo
    else:
        res = minimize_scalar(
            lambda c: -evaluate_fee(FeeStructure(m, alpha, c), market, manager, investor).phi_I,
            bounds=(c_lo, c_hi),
            method="bounded",
            options={"xatol": 1e-8},
        )
        c_best = float(res.x)
    val = evaluate_fee(FeeStructure(m, alpha, c_best), market, manager, investor).phi_I
    # the binding edge itself is often the optimum; keep whichever wins
    val_edge = evaluate_fee(FeeStructure(m, alpha, c_hi), market, manager, investor).phi_I
    if val_edge > val:
        return val_edge, float(c_hi)
    return val, c_best


def _polish(
    point: tuple[float, float, float],
    phi_min: float,
    market: MarketParams,
    manager: HaraParams,
    investor: HaraParams,
) -> tuple[float, tuple[float, float, float]] | None:
    """Deterministic refinement near a candidate: with m held (snapped to a
    bound when already there), maximize over alpha the slice value
    max_c phi_I s.t. phi_M >= phi_min."""
    m, alpha0, _ = point
    if m < _BOUND_SNAP:
        m = 0.0
    elif m > M_MAX - _BOUND_SNAP:
        m = M_MAX

    lo = max(ALPHA_MIN, alpha0 - _POLISH_WINDOW)
    hi = min(ALPHA_MAX, alpha0 + _POLISH_WINDOW)

    def g(alpha: float) -> float:
        r = _best_c_on_slice(m, float(alpha), phi_min, market, manager, investor)
        return -1e18 if r is None else r[0]

    res = minimize_scalar(lambda a: -g(a), bounds=(lo, hi), method="bounded", options={"xatol": 1e-7})
    alpha = float(res.x)
    r = _best_c_on_slice(m, alpha, phi_min, market, manager, investor)
    if r is None:
        return None
    return r[0], (m, alpha, r[1])


def _select_seeds(scan: GridScan, phi_min: float, n_seeds: int = 3) -> list[tuple[float, float, float]]:
    ok = scan.feasible & (scan.phi_M >= phi_min - _SEED_TOL)
    idx = np.flatnonzero(ok)
    if idx.size == 0:
        return []
    order = idx[np.argsort(-scan.phi_I[idx], kind="stable")]
    seeds: list[tuple[float, float, float]] = []
    buckets: set[tuple[int, int, int]] = set()
    for i in order:
        m, a, c = scan.fees[int(i)]
        key = (round(m / 0.0125), round(a / 0.025), round(c / 0.025))
        if key in buckets:
            continue
        buckets.add(key)
        seeds.append((m, a, c))
        if len(seeds) >= n_seeds:
            break
    return seeds


def solve_fbpo(
    phi_min: float,
    scan: GridScan,
    market: MarketParams,
    manager: HaraParams,
    investor: HaraParams,
) -> ParetoPoint:
    """Constrained maximization of phi_I at one reservation level.

    Grid seed, SLSQP from each seed, then the binding-curve polish; the
    result is the best feasible candidate and never falls below the seed.
    """
    if phi_min > scan.phi_M_max + 1e-9 or phi_min < scan.phi_M_min - 1e-9:
        raise InfeasibleReservation(
            f"phi_min={phi_min} outside attained manager range "
            f"[{scan.phi_M_min}, {scan.phi_M_max}]"
        )
    feas_tol = 1e-8 * max(1.0, abs(phi_min))
    seeds = _select_seeds(scan, phi_min)
    if not seeds:
        raise InfeasibleReservation(f"no feasible lattice seed for phi_min={phi_min}")

    cache: dict[tuple[float, float, float], FeeMetrics] = {}

    def metrics_at(x) -> FeeMetrics:
        key = (float(x[0]), float(x[1]), float(x[2]))
        hit = cache.get(key)
        if hit is None:
            hit = evaluate_fee(FeeStructure(*key), market, manager, investor)
            cache[key] = hit
        return hit

    c_lo0, c_hi0 = _c_bounds(M_MAX, manager, investor, market.v0)
    bounds = [(0.0, M_MAX), (ALPHA_MIN, ALPHA_MAX), (0.0, C_MAX)]

    candidates: list[tuple[float, tuple[float, float, float]]] = []
    for seed in seeds:
        candidates.append((metrics_at(seed).phi_I, seed))
        try:
            res = minimize(
                lambda x: -metrics_at(x).phi_I,
                seed,
                method="SLSQP",
                bounds=bounds,
                constraints=[{"type": "ineq", "fun": lambda x: metrics_at(x).phi_M - phi_min}],
                options={"ftol": 1e-12, "eps": 1e-6, "maxiter": 300},
            )
        except Exception:
            continue
        x = tuple(float(v) for v in res.x)
        try:
            mx = metrics_at(x)
        except Exception:
            continue
        if mx.phi_M >= phi_min - feas_tol:
            candidates.append((mx.phi_I, x))

    best_val, best_x = max(candidates, key=lambda t: t[0])
    polished = _polish(best_x, phi_min, market, manager, investor)
    if polished is not None and polished[0] > best_val:
        best_val, best_x = polished

    fee = FeeStructure(*best_x)
    final = evaluate_fee(fee, market, manager, investor)
    seed_phi_I = candidates[0][0]
    if final.phi_M < phi_min - feas_tol or final.phi_I < seed_phi_I - 1e-12:
        # deterministic fall-back: the seed is always feasible
        fee = FeeStructure(*seeds[0])
        final = evaluate_fee(fee, market, manager, investor)

    flags = []
    if fee.m <= _BOUND_SNAP:
        flags.append("m_low")
    if fee.m >= M_MAX - _BOUND_SNAP:
        flags.append("m_high")
    if fee.alpha <= ALPHA_MIN + _BOUND_SNAP:
        flags.append("alpha_low")
    if fee.alpha >= ALPHA_MAX - _BOUND_SNAP:
        flags.append("alpha_high")
    if fee.c <= _BOUND_SNAP:
        flags.append("c_low")
    if fee.c >= min(C_MAX, c_hi0) - _BOUND_SNAP:
        flags.append("c_high")
    return ParetoPoint(
        phi_min=phi_min,
        fee=fee,
        phi_M=final.phi_M,
        phi_I=final.phi_I,
        sharpe=final.sharpe,
        bound_flags=tuple(flags),
        seed_phi_I=seed_phi_I,
    )


def _fbpo_chunk(args) -> list[tuple[int, ParetoPoint | None, str]]:
    scan, market, manager, investor, indexed_levels = args
    out = []
    for idx, phi_min in indexed_levels:
        try:
            out.append((idx, solve_fbpo(phi_min, scan, market, manager, investor), ""))
        except Exception as exc:
            out.append((idx, None, f"{type(exc).__name__}: {exc}"))
    return out


def sweep_frontier(
    market: MarketParams,
    manager: HaraParams,
    investor: HaraParams,
    steps: GridSteps = GridSteps(),
    scan: GridScan | None = None,
    workers: int | None = None,
) -> Frontier:
    """Trace the Pareto frontier over an even grid of reservation levels.

    Per-level failures are recorded and the sweep continues.
    """
    if scan is None:
        scan = grid_scan(market, manager, investor, steps)
    levels = np.linspace(scan.phi_M_min, scan.phi_M_max, steps.n_phi + 1)
    indexed = list(enumerate(float(v) for v in levels))
    workers = default_workers() if workers is None else workers

    if workers and workers > 1 and len(indexed) >= 8:
        chunks = [indexed[i::workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(_fbpo_chunk, [(scan, market, manager, investor, ch) for ch in chunks])
        rows = [row for rows_ in results for row in rows_]
    else:
        rows = _fbpo_chunk((scan, market, manager, investor, indexed))

    rows.sort(key=lambda r: r[0])
    points = tuple(r[1] for r in rows if r[1] is not None)
    failures = tuple((indexed[r[0]][1], r[2]) for r in rows if r[1] is None)
    return Frontier(
        points=points,
        steps=steps,
        phi_M_min=scan.phi_M_min,
        phi_M_max=scan.phi_M_max,
        failures=failures,
    )
