"""Adaptive Gauss-Legendre quadrature on a finite interval.

Composite high-order panels, doubled until two successive refinements agree
to DEFAULT_REL_TOL relative or DEFAULT_ABS_TOL absolute, the tolerances of
every integral here; integrands are evaluated vectorized, which keeps dense
fee sweeps cheap.
integrate_lanes refines its lanes in blocks of _BLOCK, which bounds the
(lanes, panels, nodes) arrays it holds at once however many lanes it gets.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-13
_ORDER = 32
_MAX_DOUBLINGS = 10
_BLOCK = 1024       # lanes refined at once


class QuadratureError(RuntimeError):
    """Refinement did not converge; carries the achieved error estimate and
    the index of the lane that failed (0 from integrate)."""

    lane: int | None = None


@lru_cache(maxsize=None)
def _nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _composite_lanes(f: Callable[[np.ndarray, np.ndarray], np.ndarray], edges: np.ndarray, lanes: np.ndarray) -> np.ndarray:
    # the composite rule on the panels of each row of edges; einsum sums each
    # panel's nodes in one loop, so a lane's value does not depend on which
    # lanes share the call
    x, w = _nodes(_ORDER)
    half = 0.5 * np.diff(edges, axis=1)
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
    pts = (mid[:, :, None] + half[:, :, None] * x).reshape(len(lanes), -1)
    vals = np.asarray(f(pts, lanes), dtype=float).reshape(half.shape + (_ORDER,))
    return np.sum(half * np.einsum("lpk,k->lp", vals, w), axis=1)


def _refine(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    out: np.ndarray,
    lanes: np.ndarray,
    edges: np.ndarray,
) -> np.ndarray:
    # out[lanes[i]] = the integral of f(., lanes[i]) over the panels edges[i],
    # every panel halved until two levels agree; a lane leaves the work once
    # they do, and the first lane still open after the last doubling raises
    prev = _composite_lanes(f, edges, lanes)
    err = np.full(len(lanes), np.inf)
    for _ in range(_MAX_DOUBLINGS):
        refined = np.empty((len(lanes), 2 * edges.shape[1] - 1))
        refined[:, ::2] = edges
        refined[:, 1::2] = 0.5 * (edges[:, :-1] + edges[:, 1:])
        cur = _composite_lanes(f, refined, lanes)
        err = np.abs(cur - prev)
        done = err <= np.maximum(DEFAULT_ABS_TOL, DEFAULT_REL_TOL * np.abs(cur))
        out[lanes[done]] = cur[done]
        lanes, edges, prev, err = lanes[~done], refined[~done], cur[~done], err[~done]
        if not lanes.size:
            return out
    exc = QuadratureError(f"quadrature on [{edges[0, 0]}, {edges[0, -1]}] stalled at error estimate {err[0]:.3e}")
    exc.lane = int(lanes[0])
    raise exc


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    breakpoints: Sequence[float] = (),
) -> float:
    """Integral of a vectorized f over [lo, hi] at the module's tolerances:
    integrate_lanes' refinement on one lane.

    Interior breakpoints (integrand kinks) become fixed panel edges so the
    panels only ever see smooth pieces.
    """
    if hi <= lo:
        return 0.0
    edges = np.unique(np.concatenate([[lo, hi], [b for b in breakpoints if lo < b < hi]]))
    return float(_refine(lambda x, _: f(x[0]), np.zeros(1), np.zeros(1, dtype=int), edges[None])[0])


def integrate_lanes(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """integrate for many integrands at once: lane i is the integral of
    f(., i) over [lo[i], hi[i]], on the panels integrate would use.

    f(x, lanes) gets the nodes x, one row per lane in ``lanes`` (indices
    into lo and hi), and returns the integrand there.  The lanes are refined
    in blocks of _BLOCK; a lane leaves the work once two levels agree, and
    the first lane of the first block still open after the last doubling
    raises QuadratureError.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    out = np.zeros(lo.shape)
    todo = np.flatnonzero(hi > lo)
    for start in range(0, todo.size, _BLOCK):
        lanes = todo[start:start + _BLOCK]
        _refine(f, out, lanes, np.stack([lo[lanes], hi[lanes]], axis=1))
    return out
