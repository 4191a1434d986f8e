import math

import numpy as np
import pytest
from scipy.optimize import brentq

from firstloss.roots import XRTOL, bracketed_root

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
