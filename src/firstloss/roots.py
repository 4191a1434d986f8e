"""Root finding and pattern search for many functions at once.

One root per lane by Chandrupatla's method (inverse quadratic interpolation
where it is safe, bisection otherwise), with numpy over every lane still
open: the batched fee engine solves its tangency equations with it.  Where
the slope is known too, newton_root finds per lane the end of {g >= 0} of a
monotone g by a safeguarded Newton's method: the frontier's binding fees.
The frontier and the traditional fee maximize by the lane-wise pattern
search: a compass stencil per lane, plus the maximum of the quadratic model
that the stencil's own values fit, at any distance within the box, so that
a lane follows a ridge no stencil direction lies along.  Its step shrinks
4-fold where a stencil fails or the model point wins, and grows 2-fold, up
to its start, where a stencil point wins: once the model has found a
maximum, few rounds remain before MIN_STEP, and a lane that is still moving
does not creep.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

MAX_ITER = 100
XRTOL = 4.0 * math.ulp(1.0)              # relative bracket width at which a lane stops
NEWTON_XATOL = 1e-15                     # newton_root's absolute tolerance in x
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
    there, and whether the lane met that test within MAX_ITER steps with no
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
        stop = met if step < MAX_ITER else np.ones_like(met)
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


def newton_root(
    f: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]],
    x: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    rises: bool | np.ndarray,
    ftol: np.ndarray,
    warm: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per lane i, the end of {g >= 0} in the span [lo[i], hi[i]] of a g
    monotone in x (rising where rises, else falling), by Newton's method from
    x[i], clipped to the span, safeguarded by bisection.

    f(x, lanes, warm) evaluates each lane in ``lanes``, indices into the
    arrays given here, at the matching entry of x, and returns g, dg/dx and
    a quantity that moves smoothly with x (such as where an inner root
    ended), from warm, a guess of that quantity there.  The first guess is
    the lane's warm; after it, the quantity interpolated between the
    bracket's ends, or the one seen end's, so that a guess never
    extrapolates.

    Each lane keeps a bracket: its feasible end (the evaluated point with
    g >= 0 nearest the root) and its short end (g < 0), each the span's end,
    unseen, until a point lands on that side.  The Newton step, from the end
    whose own step is the shorter, aims one tolerance XRTOL |x| + NEWTON_XATOL
    (both constants of this module) onto the feasible side.  A step that points
    past an unseen end evaluates that end; a step that is not finite, leaves
    the bracket, or is longer than half the step before the last and than
    four tolerances (rtsafe's rule, whose dxold is that step) bisects the
    bracket.  So every point after the start lies inside the bracket or is
    an unseen end, and becomes the end of its side.  A lane stops when its feasible end is within two
    tolerances of its own Newton estimate or of a seen short end, or has
    g <= ftol; when the feasible end is the span's end on the short side
    (all of the span meets g >= 0); or when the short end is the span's end
    on the feasible side (none of it does).

    Returns per lane the feasible end, g there and the quantity there (NaN
    where no point meets g >= 0), and whether the lane stopped within
    MAX_ITER rounds with no NaN value.  The point returned is always one
    that f evaluated.  Lanes never mix, so a lane's result does not depend
    on which lanes share the call.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    n, rises = lo.size, np.broadcast_to(rises, lo.shape)
    s = np.where(rises, 1.0, -1.0)                    # towards the feasible side
    edge_s, edge_f = np.where(rises, lo, hi), np.where(rises, hi, lo)
    short, feas = edge_s.copy(), edge_f.copy()
    seen_s, seen_f, failed, ok = (np.zeros(n, dtype=bool) for _ in range(4))
    g_s, d_s, w_s, g_f, d_f, w_f = (np.full(n, math.nan) for _ in range(6))
    step, before = np.full(n, math.inf), np.full(n, math.inf)     # each lane's last step, and the one before it

    def take(x: np.ndarray, lanes: np.ndarray, g: np.ndarray, d: np.ndarray, w: np.ndarray) -> None:
        # each point becomes the end of its side
        up = g >= 0.0
        at = lanes[up]
        feas[at], g_f[at], d_f[at], w_f[at], seen_f[at] = x[up], g[up], d[up], w[up], True
        at = lanes[~up]
        short[at], g_s[at], d_s[at], w_s[at], seen_s[at] = x[~up], g[~up], d[~up], w[~up], True
        failed[lanes[np.isnan(g)]] = True

    lanes, x = np.arange(n), np.clip(np.asarray(x, dtype=float), lo, hi)
    take(x, lanes, *f(x, lanes, np.asarray(warm, dtype=float)))
    for _ in range(MAX_ITER):
        a, b, gb = short[lanes], feas[lanes], g_f[lanes]
        tol = XRTOL * np.abs(b) + NEWTON_XATOL
        with np.errstate(divide="ignore", invalid="ignore"):
            met = (np.abs(gb / d_f[lanes]) <= 2.0 * tol) | (gb <= ftol[lanes]) \
                | (seen_s[lanes] & (np.abs(b - a) <= 2.0 * tol)) | (b == edge_s[lanes])
        none = ~seen_f[lanes] & (a == edge_f[lanes])
        stop = (met & seen_f[lanes]) | none | failed[lanes]
        ok[lanes[stop]] = ~failed[lanes[stop]]
        lanes = lanes[~stop]
        if not lanes.size:
            break
        # the aimed Newton step, an unseen end it points past, or the
        # bracket's midpoint
        a, b = short[lanes], feas[lanes]
        with np.errstate(divide="ignore", invalid="ignore"):
            newton_s, newton_f = -g_s[lanes] / d_s[lanes], -g_f[lanes] / d_f[lanes]
        from_s = seen_s[lanes] & (np.abs(newton_s) < np.fmin(np.abs(newton_f), math.inf))
        x, g = np.where(from_s, a, b), np.where(from_s, g_s[lanes], g_f[lanes])
        tol = XRTOL * np.abs(x) + NEWTON_XATOL
        target = x + np.where(from_s, newton_s, newton_f) + s[lanes] * tol
        finite = np.isfinite(target)
        inside = finite & (target > np.minimum(a, b)) & (target < np.maximum(a, b))
        # a step that is not finite heads for the root
        past_f = np.where(finite, s[lanes] * (target - b) >= 0.0, g < 0.0)
        past_s = np.where(finite, s[lanes] * (a - target) >= 0.0, g >= 0.0)
        probe_f = ~seen_f[lanes] & ~inside & past_f
        probe_s = ~seen_s[lanes] & ~probe_f & ~inside & past_s
        slow = (np.abs(target - x) > 0.5 * before[lanes]) & (np.abs(target - x) > 4.0 * tol)
        newton = inside & ~probe_f & ~probe_s & ~slow
        new = np.where(probe_f, b, np.where(probe_s, a, np.where(newton, target, 0.5 * (a + b))))
        before[lanes], step[lanes] = step[lanes], np.abs(new - x)
        # the quantity's guess: interpolated between the bracket's ends where
        # both are seen, else the seen end's
        ws, wf = w_s[lanes], w_f[lanes]
        with np.errstate(divide="ignore", invalid="ignore"):
            between = ws + (new - a) / (b - a) * (wf - ws)
        guess = np.where(seen_s[lanes] & seen_f[lanes], between, np.where(seen_f[lanes], wf, ws))
        take(new, lanes, *f(new, lanes, guess))
    return np.where(seen_f, feas, math.nan), np.where(seen_f, g_f, math.nan), np.where(seen_f, w_f, math.nan), ok


def pattern_search(objective: Callable, x: np.ndarray, fx: np.ndarray, fee: np.ndarray, h: np.ndarray,
                   lo: np.ndarray, hi: np.ndarray) -> None:
    """Maximize objective from each lane's point x (lanes, dims), valued fx
    at fee, in place.  A lane whose step h is not below MIN_STEP everywhere
    tries the stencil x + s h, s in {-1, 0, 1}^dims, clipped to [lo, hi].  It
    moves to its best point if that beats fx and doubles h, in each
    coordinate no further than the h it started with; else it divides h
    by 4.

    Each stencil, with fx at its centre, also fits a quadratic model of the
    lane by central differences: where the model's Hessian is negative
    definite and h / 4 still leaves the lane searching, its maximum
    x - H^-1 g, however far, clipped to [lo, hi], joins the lane's next
    step as one more candidate.  A lane that moves to it divides h by 4, as
    a failed step does, so a lane still moves only to a better point and
    stops only after a stencil with no better point: the model point is a
    search step beside the stencil's poll, and the stop rule rests on the
    poll alone (Kolda, Lewis and Torczon, SIAM Review 45(3), 2003), so how
    far it lies does not matter.  A coordinate whose stencil the box clips
    is held fixed in the model, and a stencil with a -inf value fits none.

    Any contraction factor in (0, 1) and expansion factor >= 1 keep a
    compass search convergent (Kolda, Lewis and Torczon, SIAM Review 45(3),
    2003).  The 4-fold cut takes a lane from its start step to MIN_STEP in
    half the rounds that halving took, which after the model has converged
    gain nothing; the 2-fold growth keeps a lane that still moves by
    stencil steps from creeping at an h cut too far.

    objective(points, lanes, fee) gives each point's value (-inf if
    infeasible) and the fee it stands for (whose first dims coordinates the
    lane moves to), from its lane and that fee."""
    dims = x.shape[1]
    grid = np.stack(np.meshgrid(*[[-1, 0, 1]] * dims, indexing="ij"), axis=-1).reshape(-1, dims)
    pattern = grid[np.any(grid != 0, axis=1)]
    centre, weights, unit = len(grid) // 2, 3 ** np.arange(dims - 1, -1, -1), np.eye(dims, dtype=int)
    model = np.full(x.shape, math.nan)          # each lane's model candidate, NaN where it has none
    h_start = h.copy()
    while (live := np.flatnonzero(h.max(axis=1) >= MIN_STEP)).size:
        x0, f0, h0 = x[live], fx[live], h[live]
        candidates = np.concatenate([np.clip(x0[:, None, :] + pattern * h0[:, None, :], lo, hi),
                                     model[live, None, :]], axis=1)
        row, col = np.nonzero(~np.isnan(candidates).any(axis=2))
        points, lanes = candidates[row, col], live[row]
        found, fees = objective(points, lanes, fee[lanes])
        values = np.full(candidates.shape[:2], -math.inf)
        values[row, col] = found
        fees_at = np.empty(candidates.shape[:2] + fees.shape[1:])
        fees_at[row, col] = fees
        pick = np.argmax(values, axis=1)
        best = values[np.arange(live.size), pick]
        up = best > f0
        moved = live[up]
        fx[moved], fee[moved] = best[up], fees_at[up, pick[up]]
        x[moved] = fee[moved, :dims]
        to_model = pick == len(pattern)
        h[live[~up | to_model]] *= 0.25
        grow = live[up & ~to_model]
        h[grow] = np.minimum(2.0 * h[grow], h_start[grow])

        # the quadratic model through the stencil, in units of h about x0
        stencil = np.insert(values[:, :len(pattern)], centre, f0, axis=1)
        at = lambda s: stencil[:, int((s + 1) @ weights)]
        free = (x0 - h0 >= lo) & (x0 + h0 <= hi)
        with np.errstate(invalid="ignore"):          # a -inf stencil value fits no model
            g = np.column_stack([0.5 * (at(e) - at(-e)) for e in unit])
            H = np.empty((live.size, dims, dims))
            for i in range(dims):
                H[:, i, i] = at(unit[i]) - 2.0 * f0 + at(-unit[i])
                for j in range(i):
                    a, b = unit[i], unit[j]
                    H[:, i, j] = H[:, j, i] = 0.25 * (at(a + b) - at(a - b) - at(b - a) + at(-a - b))
        # a fixed coordinate takes no step: no slope, and -1 on the diagonal
        g[~free] = 0.0
        H[~free[:, :, None] | ~free[:, None, :]] = 0.0
        H[:, np.arange(dims), np.arange(dims)] -= ~free
        fit = np.isfinite(stencil).all(axis=1) & free.any(axis=1) & (h[live].max(axis=1) >= 4.0 * MIN_STEP)
        fit = np.flatnonzero(fit)
        fit = fit[np.linalg.eigvalsh(H[fit]).max(axis=1) < 0.0]
        s = np.linalg.solve(H[fit], -g[fit, :, None])[..., 0]
        model[live] = math.nan
        model[live[fit]] = np.clip(x0[fit] + s * h0[fit], lo, hi)
