"""Bracketed root finding and pattern search for many functions at once.

One root per lane by Chandrupatla's method (inverse quadratic interpolation
where it is safe, bisection otherwise), with numpy over every lane still
open.  The batched fee engine solves its tangency and budget equations with
it, and the frontier its binding fees.  The frontier and the traditional
fee maximize by the lane-wise pattern search.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_MAX_ITER = 100
XRTOL = 4.0 * math.ulp(1.0)              # relative bracket width at which a lane stops
MIN_STEP = 1e-8                          # pattern_search's last step in every coordinate


def bracketed_root(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x1: np.ndarray,
    f1: np.ndarray,
    x2: np.ndarray,
    f2: np.ndarray,
    xatol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Root of every lane i in the bracket [x1[i], x2[i]] (either order),
    given f1 and f2, the lane's values at its ends, of opposite sign.

    f(x, lanes) evaluates each lane in ``lanes``, indices into the arrays
    given here, at the matching entry of x.  A lane stops when its best
    point has value 0, or when its bracket is narrower than
    xatol + XRTOL |best point|.  Returns per lane the best point, the value
    there, and whether the lane met that test within _MAX_ITER steps with no
    NaN at its bracket's ends.  Lanes never mix, so a lane's result does not
    depend on which lanes share the call.
    """
    x1, f1, x2, f2 = (np.array(v, dtype=float) for v in (x1, f1, x2, f2))
    x, fx, ok = np.empty_like(x1), np.empty_like(x1), np.zeros(x1.shape, dtype=bool)
    lanes = np.arange(x1.size)
    x3 = f3 = None
    step = 0
    while True:
        d = x2 - x1
        best = np.abs(f1) < np.abs(f2)
        xm, fm = np.where(best, x1, x2), np.where(best, f1, f2)
        tol = XRTOL * np.abs(xm) + xatol
        met = (fm == 0.0) | (np.abs(d) < tol)
        stop = met if step < _MAX_ITER else np.ones_like(met)
        if stop.any() or not lanes.size:          # a call with no lanes returns at once
            # a bracket end whose value is NaN leaves the lane unsolved
            done = lanes[stop]
            x[done], fx[done] = xm[stop], fm[stop]
            ok[done] = met[stop] & ~np.isnan(f1[stop] - f2[stop])
            if stop.all():
                return x, fx, ok
            go = ~stop
            lanes, x1, f1, x2, f2, d, tol = lanes[go], x1[go], f1[go], x2[go], f2[go], d[go], tol[go]
            if x3 is not None:
                x3, f3 = x3[go], f3[go]
        t = 0.5
        if x3 is not None:
            # inverse quadratic interpolation through the last three points,
            # where Chandrupatla's test says it stays inside the bracket
            with np.errstate(all="ignore"):
                f12, f32 = f1 - f2, f3 - f2
                xi, phi = -d / (x3 - x2), f12 / f32
                iqi = (f1 / f12 * f3 + (x3 - x1) / d * f1 / (f3 - f1) * f2) / f32
                t = np.where((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi), iqi, 0.5)
        # keep the step at least half a tolerance inside the bracket
        tl = 0.5 * tol / np.abs(d)
        xt = x1 + np.minimum(np.maximum(t, tl), 1.0 - tl) * d
        ft = f(xt, lanes)
        same = np.sign(ft) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = xt, ft
        step += 1


def pattern_search(objective: Callable, x: np.ndarray, fx: np.ndarray, fee: np.ndarray, h: np.ndarray,
                   lo: np.ndarray, hi: np.ndarray, max_steps: int = -1) -> None:
    """Maximize objective from each lane's point x (lanes, dims), valued fx
    at fee, in place: a lane whose step h is not below MIN_STEP everywhere
    tries the pattern x + s h, s in {-1, 0, 1}^dims, clipped to [lo, hi], and
    moves to its best point if that beats fx, else halves h; max_steps >= 0
    caps the steps.  objective(points, lanes, fee, step) gives each point's
    value (-inf if infeasible) and the fee it stands for (whose first dims
    coordinates the lane moves to), from its lane, that fee and largest step."""
    dims = x.shape[1]
    grid = np.stack(np.meshgrid(*[[-1.0, 0.0, 1.0]] * dims, indexing="ij"), axis=-1).reshape(-1, dims)
    pattern = grid[np.any(grid != 0.0, axis=1)]
    while (live := np.flatnonzero(h.max(axis=1) >= MIN_STEP)).size and max_steps != 0:
        max_steps -= 1
        points = np.clip(x[live, None, :] + pattern * h[live, None, :], lo, hi).reshape(-1, dims)
        lanes = np.repeat(live, len(pattern))
        values, fees = objective(points, lanes, fee[lanes], h[lanes].max(axis=1))
        values, fees = values.reshape(live.size, -1), fees.reshape(live.size, len(pattern), -1)
        pick = np.arange(live.size), np.argmax(values, axis=1)
        up = values[pick] > fx[live]
        moved = live[up]
        fx[moved], fee[moved] = values[pick][up], fees[pick][up]
        x[moved] = fee[moved, :dims]
        h[live[~up]] *= 0.5
