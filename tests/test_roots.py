import math

import numpy as np
import pytest
from scipy.optimize import brentq

from firstloss import roots
from firstloss.roots import XRTOL, bracketed_root, pattern_search

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

    def objective(points, lanes, lane_fee, step):
        values = np.empty(len(points))
        for k in np.unique(lanes):
            here = lanes == k
            values[here] = LANES[which[k]][0](points[here])
            seen[k].append(points[here].tolist())
        return values, points.copy()

    pattern_search(objective, x, fx, fee, h, *BOX)
    return x, fx, h, seen


def test_model_step_halves_the_calls_on_a_narrow_ridge(monkeypatch):
    # objective calls from (3, 2): 43 with the model step, 102 without it
    x, _, _, seen = search([0])
    np.testing.assert_allclose(x[0], LANES[0][2], rtol=0.0, atol=1e-7)
    monkeypatch.setattr(roots, "_MODEL_REACH", -1.0)         # no model step is within reach
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
    monkeypatch.setattr(roots, "_MODEL_REACH", -1.0)
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
