import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from firstloss.roots import NEWTON_XATOL, XRTOL, bracketed_root, newton_root, pattern_search

# x^3 - k on brackets of very different widths; the last one is given in
# reverse order and the one before has its root at a bracket end
K = np.array([1e-6, 0.5, 2.0, 3.0, 1e6, 8.0, 27.0])
LO = np.array([0.0, 0.0, -5.0, 1.0, 0.0, 2.0, 9.0])
HI = np.array([1.0, 4.0, 5.0, 2.0, 1e3, 7.0, 0.0])


def cubic(x, lanes):
    return x**3 - K[lanes]


def solve(lanes):
    # the solver numbers the lanes it gets from 0
    return bracketed_root(lambda x, sub: cubic(x, lanes[sub]), LO[lanes], cubic(LO[lanes], lanes),
                          HI[lanes], cubic(HI[lanes], lanes), 1e-13)


def test_matches_brentq():
    x, fx, ok = solve(np.arange(len(K)))
    assert ok.all()
    np.testing.assert_array_equal(fx, cubic(x, np.arange(len(K))))
    assert x[5] == 2.0 and fx[5] == 0.0
    for i, k in enumerate(K):
        ref = brentq(lambda v: v**3 - k, min(LO[i], HI[i]), max(LO[i], HI[i]), xtol=1e-13, rtol=XRTOL)
        assert x[i] == pytest.approx(ref, rel=0.0, abs=2e-13 + 2 * XRTOL * abs(ref)), i


def test_lanes_do_not_interact():
    full = solve(np.arange(len(K)))
    for lanes in (np.array([3]), np.array([6, 0, 4])):
        for got, ref in zip(solve(lanes), full):
            np.testing.assert_array_equal(got, ref[lanes])


def test_nan_lane_fails_alone():
    def f(x, lanes):
        return np.where(lanes == 1, math.nan, x - 0.3)

    x, _, ok = bracketed_root(f, np.zeros(3), np.full(3, -0.3), np.ones(3), np.full(3, 0.7), 1e-13)
    assert ok.tolist() == [True, False, True]
    assert x[0] == x[2] == pytest.approx(0.3, abs=1e-13)


def newton(g, x, lo, hi, rises, ftol=0.0):
    """newton_root on g(x, lanes) -> (value, slope), with x as its smooth
    quantity; the result, each lane's evaluated points and values in order,
    and each lane's rounds (the calls of g it took part in)."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    seen, rounds = [[] for _ in lo], np.zeros(lo.size, dtype=int)

    def f(points, lanes, guess):
        value, slope = g(points, lanes)
        for k, p, v in zip(lanes, points, value):
            seen[k].append((p, v))
        rounds[np.unique(lanes)] += 1
        return value, slope, points

    out = newton_root(f, np.asarray(x, dtype=float), lo, hi, rises, np.full(lo.size, ftol), np.zeros(lo.size))
    return out, seen, rounds


def smooth(rises):
    # x^3 - K, or K - x^3 where it falls, and its slope
    sign = 1.0 if rises else -1.0
    return lambda x, lanes: (sign * (x**3 - K[lanes]), sign * 3.0 * x**2)


@pytest.mark.parametrize("rises", [True, False])
def test_newton_root_agrees_with_bracketed_root(rises):
    lanes = np.arange(len(K))
    lo, hi = np.minimum(LO, HI), np.maximum(LO, HI)
    ref, _, _ = bracketed_root(cubic, lo, cubic(lo, lanes), hi, cubic(hi, lanes), 1e-15)
    for start in (lo, hi, 0.5 * (lo + hi)):
        (x, fx, _, ok), seen, _ = newton(smooth(rises), start, lo, hi, rises)
        assert ok.all()
        np.testing.assert_allclose(x, ref, rtol=4 * XRTOL, atol=4e-15)
        # the point returned is one evaluated, and meets g >= 0
        assert (fx >= 0.0).all()
        for i in lanes:
            assert (x[i], fx[i]) in seen[i]


def test_newton_root_resolves_a_vanishing_slope():
    # (1 - x)^4 - 1e-4 falls to its root 0.9 with a slope that vanishes
    # toward the span's end x = 1; Newton's steps from x = 0 shrink by 3/4
    # only, and 14 of them reach the root, so the lane bisects and ends
    # within 12 rounds
    g = lambda x, lanes: ((1.0 - x) ** 4 - 1e-4, -4.0 * (1.0 - x) ** 3)
    (x, fx, _, ok), seen, rounds = newton(g, [0.0], [0.0], [1.0], False)
    assert ok[0] and fx[0] >= 0.0
    assert x[0] == pytest.approx(0.9, rel=1e-14)
    assert rounds[0] <= 12


def test_newton_root_at_an_infinite_slope():
    # g = (0.3 - c)^0.35 - 1e-6, whose slope is -inf at the span's end
    # c = 0.3, as phi_M's at the manager's ruin edge: from that end the lane
    # returns an evaluated point with g >= 0 and leaks no warning
    def g(c, lanes):
        with np.errstate(divide="ignore"):
            return np.maximum(0.3 - c, 0.0) ** 0.35 - 1e-6, -0.35 * np.maximum(0.3 - c, 0.0) ** -0.65

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (x, fx, _, ok), seen, rounds = newton(g, [0.3], [0.0], [0.3], False)
    assert ok[0] and fx[0] >= 0.0 and (x[0], fx[0]) in seen[0]
    assert x[0] == pytest.approx(0.3 - 1e-6 ** (1 / 0.35), rel=1e-12)


def test_newton_root_stops_at_the_noise_floor():
    # x - 0.3 plus rounding noise of 4e-16 whose sign changes from point to
    # point: the lane stops once its g is within ftol
    def g(x, lanes):
        noise = 4e-16 * np.where(np.floor(x * 1e17) % 2 == 0, 1.0, -1.0)
        return x - 0.3 + noise, np.ones_like(x)

    (x, fx, _, ok), _, rounds = newton(g, [0.9], [0.0], [1.0], True, ftol=8 * np.finfo(float).eps)
    assert ok[0] and 0.0 <= fx[0] <= 8 * np.finfo(float).eps
    assert rounds[0] <= 5


def test_newton_root_whole_and_empty_spans():
    # every point of [1, 2] meets x^3 + 1 >= 0: its end on the short side;
    # none meets x^3 >= 27: NaN; from a start whose step points past the
    # span's end, or from either end, in these rounds per lane
    g = lambda x, lanes: (x**3 - np.array([-1.0, 27.0])[lanes], 3.0 * x**2)
    for start, want in ((1.5, [2, 2]), (1.0, [1, 2]), (2.0, [3, 1])):
        (x, fx, _, ok), _, rounds = newton(g, [start, start], [1.0, 1.0], [2.0, 2.0], True)
        assert ok.all() and x[0] == 1.0 and math.isnan(x[1]) and math.isnan(fx[1])
        assert rounds.tolist() == want, start


@pytest.mark.parametrize("rises", [True, False])
def test_newton_root_near_a_span_end(rises):
    # roots 0 to 3e-15 inside either end of [0.3, 0.9], a few tolerances at
    # most: from starts across the span each lane returns a point it
    # evaluated with g >= 0, within two tolerances of its root, in at most 8
    # rounds; 26 to 49 near the lower end from the middle or the top when
    # the rtsafe rule compared a Newton step with the last step, a bisection
    # half as long, in place of the step before it
    lo, hi = 0.3, 0.9
    roots = np.array([lo + k * 1e-15 for k in range(4)] + [hi - k * 1e-15 for k in range(4)])
    sign, n = (1.0 if rises else -1.0), roots.size
    g = lambda x, lanes: (sign * (x**3 - roots[lanes] ** 3), sign * 3.0 * x**2)
    tol = XRTOL * roots + NEWTON_XATOL
    for start in (lo, 0.5 * (lo + hi), hi):
        (x, fx, _, ok), seen, rounds = newton(g, np.full(n, start), np.full(n, lo), np.full(n, hi), rises)
        assert ok.all() and (fx >= 0.0).all()
        assert all((x[i], fx[i]) in seen[i] for i in range(n))
        assert (np.abs(x - roots) <= 2.0 * tol).all(), (start, x - roots)
        assert (rounds <= 8).all(), (start, rounds)


def test_newton_root_nan_lane_fails_alone():
    def g(x, lanes):
        return np.where(lanes == 1, math.nan, x - 0.3), np.ones_like(x)

    (x, _, _, ok), _, _ = newton(g, [0.5, 0.5, 0.5], np.zeros(3), np.ones(3), True)
    assert ok.tolist() == [True, False, True]
    assert x[0] == x[2] == pytest.approx(0.3, abs=3e-15)


def test_newton_root_lanes_do_not_interact():
    lo, hi = np.minimum(LO, HI), np.maximum(LO, HI)
    starts = np.where(np.arange(len(K)) % 3 == 0, hi, 0.25 * lo + 0.75 * hi)
    full, seen, _ = newton(smooth(True), starts, lo, hi, True)
    for lanes in (np.array([3]), np.array([6, 0, 4])):
        g = lambda x, sub: smooth(True)(x, lanes[sub])
        got, alone, _ = newton(g, starts[lanes], lo[lanes], hi[lanes], True)
        for a, b in zip(got, full):
            np.testing.assert_array_equal(a, b[lanes])
        assert alone == [seen[i] for i in lanes]


# pattern_search lanes, all in the box [-4, 4]^2: (objective, start, maximizer)
THETA = math.radians(30.0)
ROTATE = np.array([[math.cos(THETA), -math.sin(THETA)], [math.sin(THETA), math.cos(THETA)]])
RIDGE = ROTATE @ np.diag([1.0, 100.0]) @ ROTATE.T          # condition number 100, axes at 30 degrees
BOX = np.full(2, -4.0), np.full(2, 4.0)


def ridge(p):
    d = p - (0.3, -0.2)
    return -np.einsum("ni,ij,nj->n", d, RIDGE, d)


def face(p):
    # the ridge about (6, 0.5), outside the box; on its face x = 4 the best y
    # is 0.5 + 2 RIDGE[0, 1] / RIDGE[1, 1]
    d = p - (6.0, 0.5)
    return -np.einsum("ni,ij,nj->n", d, RIDGE, d)


def wall(p):
    # -inf left of x = 0, and falling steeply to its right, so that every
    # stencil of the lane holds a -inf value
    return np.where(p[:, 0] < 0.0, -math.inf, -10.0 * p[:, 0] - (p[:, 1] - 0.3) ** 2)


LANES = [(ridge, (3.0, 2.0), (0.3, -0.2)),
         (face, (0.0, 0.0), (4.0, 0.5 + 2.0 * RIDGE[0, 1] / RIDGE[1, 1])),
         (wall, (0.0, -1.5), (0.0, 0.3))]


def search(which):
    """pattern_search from the starts of LANES[which] at step 0.1; the final
    points, values and steps, and each lane's evaluated points in order."""
    x = np.array([LANES[i][1] for i in which])
    fx = np.array([LANES[i][0](x[k:k + 1])[0] for k, i in enumerate(which)])
    fee, h, seen = x.copy(), np.full(x.shape, 0.1), [[] for _ in which]

    def objective(points, lanes, lane_fee):
        values = np.empty(len(points))
        for k in np.unique(lanes):
            here = lanes == k
            values[here] = LANES[which[k]][0](points[here])
            seen[k].append(points[here].tolist())
        return values, points.copy()

    pattern_search(objective, x, fx, fee, h, *BOX)
    return x, fx, h, seen


def no_model(monkeypatch):
    # every stencil's Hessian reports a zero eigenvalue, so no model is concave
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: np.zeros(H.shape[:-1]))


def test_model_step_halves_the_calls_on_a_narrow_ridge(monkeypatch):
    # objective calls from (3, 2): 13 with the model step at any distance,
    # 143 without it (31 when the model step was capped at 16 h), with h cut
    # 4-fold and grown 2-fold; 43 and 102 when h only halved
    x, _, _, seen = search([0])
    np.testing.assert_allclose(x[0], LANES[0][2], rtol=0.0, atol=1e-7)
    no_model(monkeypatch)
    assert len(seen[0]) <= 0.5 * len(search([0])[3][0])


def test_model_step_converges_to_a_face_optimum():
    # with x held on the face the model is exact along it: the lane ends
    # 2e-15 from the face optimum, where a model that lets x move ends 1.3e-8
    # away and the stencil alone 2.6e-9
    x, _, _, _ = search([1])
    np.testing.assert_allclose(x[0], LANES[1][2], rtol=0.0, atol=1e-9)


def test_stencil_with_minus_inf_fits_no_model(monkeypatch):
    x, fx, h, seen = search([2])
    np.testing.assert_allclose(x[0], LANES[2][2], rtol=0.0, atol=1e-7)
    no_model(monkeypatch)
    ref = search([2])
    for got, want in zip((x, fx, h), ref):
        np.testing.assert_array_equal(got, want)
    assert seen == ref[3]


def test_pattern_search_lanes_do_not_interact():
    full = search([0, 1, 2])
    for k in range(len(LANES)):
        x, fx, h, seen = search([k])
        np.testing.assert_array_equal(x[0], full[0][k])
        assert fx[0] == full[1][k]
        np.testing.assert_array_equal(h[0], full[2][k])
        assert seen[0] == full[3][k]
