import math

import numpy as np
import pytest
from scipy.integrate import quad

from firstloss import QuadratureError, integrate, quadrature
from firstloss.quadrature import integrate_lanes


def test_gaussian_mass():
    f = lambda w: np.exp(-0.5 * w * w) / math.sqrt(2 * math.pi)
    assert integrate(f, -10.0, 10.0) == pytest.approx(1.0, abs=1e-13)


def test_polynomial_exact():
    f = lambda x: 3 * x**2 + 2 * x + 1
    assert integrate(f, -1.0, 2.0) == pytest.approx(9.0 + 3.0 + 3.0, rel=1e-14)


def test_empty_interval():
    assert integrate(lambda x: x, 1.0, 1.0) == 0.0
    assert integrate(lambda x: x, 2.0, 1.0) == 0.0


def test_kinked_integrand_with_breakpoints():
    f = lambda x: np.abs(x - 0.3) ** 1.5
    mine = integrate(f, -1.0, 1.0, breakpoints=[0.3])
    exact = (1.3**2.5 + 0.7**2.5) / 2.5
    assert mine == pytest.approx(exact, abs=1e-10)
    ref, _ = quad(lambda x: abs(x - 0.3) ** 1.5, -1.0, 1.0, points=[0.3], epsabs=1e-14)
    assert mine == pytest.approx(ref, abs=1e-9)


def test_rough_integrand_converges_or_raises(monkeypatch):
    # an integrable singularity defeats fixed-order panels at tight tolerances
    monkeypatch.setattr(quadrature, "DEFAULT_REL_TOL", 1e-13)
    monkeypatch.setattr(quadrature, "DEFAULT_ABS_TOL", 1e-15)
    f = lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-300)
    with pytest.raises(QuadratureError) as info:
        integrate(f, -1.0, 1.0)
    # the message reports the last levels' real disagreement
    assert float(str(info.value).rsplit(" ", 1)[1]) > 0.0


def test_lanes_match_scalar():
    # one smooth integrand per lane on its own interval; the last is empty
    scale = np.array([0.5, 1.0, 2.0, 4.0, 1.0])
    lo = np.array([-10.0, -3.0, 0.5, 2.0, 10.0])
    got = integrate_lanes(lambda x, lanes: np.exp(-scale[lanes, None] * x * x) * np.cos(x), lo, 10.0)
    for i in range(len(lo)):
        ref = integrate(lambda x: np.exp(-scale[i] * x * x) * np.cos(x), lo[i], 10.0)
        assert got[i] == pytest.approx(ref, rel=1e-14, abs=1e-300)
    assert got[-1] == 0.0
    assert integrate_lanes(lambda x, lanes: x, [1.0, 2.0], 1.0).tolist() == [0.0, 0.0]


def test_lanes_name_the_lane_that_stalls(monkeypatch):
    # x*x is exact on the first doubling; the singular lane is not
    monkeypatch.setattr(quadrature, "_MAX_DOUBLINGS", 2)

    def f(x, lanes):
        rough = 1.0 / np.sqrt(np.abs(x) + 1e-300)
        return np.where(lanes[:, None] == 1, rough, x * x)

    with pytest.raises(QuadratureError) as info:
        integrate_lanes(f, np.full(3, -1.0), 1.0)
    assert info.value.lane == 1


def test_lanes_refined_in_blocks_keep_their_global_index(monkeypatch):
    # more lanes than one block: f sees the lanes' own indices, each lane
    # equals its one-lane call, and a lane that stalls in the second block
    # raises with its index among all lanes
    n = quadrature._BLOCK + 300
    scale = np.linspace(0.5, 4.0, n)
    lo = np.linspace(-10.0, 9.0, n)
    seen = []

    def f(x, lanes):
        seen.append(lanes)
        return np.exp(-scale[lanes, None] * x * x) * np.cos(x)

    got = integrate_lanes(f, lo, 10.0)
    assert max(len(lanes) for lanes in seen) == quadrature._BLOCK
    assert np.array_equal(np.unique(np.concatenate(seen)), np.arange(n))
    for i in range(n):
        one = integrate_lanes(lambda x, _: np.exp(-scale[i] * x * x) * np.cos(x), lo[i:i + 1], 10.0)
        assert got[i] == one[0]

    stalled = quadrature._BLOCK + 7
    monkeypatch.setattr(quadrature, "_MAX_DOUBLINGS", 2)

    def rough(x, lanes):
        return np.where(lanes[:, None] == stalled, 1.0 / np.sqrt(np.abs(x) + 1e-300), x * x)

    with pytest.raises(QuadratureError) as info:
        integrate_lanes(rough, np.full(n, -1.0), 1.0)
    assert info.value.lane == stalled
