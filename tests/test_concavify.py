import math

import numpy as np
import pytest

from firstloss import (
    HaraParams,
    InputError,
    brute_pointwise,
    build_envelope,
    concavify,
    envelope_eval,
    pointwise_argmax,
)

from conftest import fee_pct


def test_theta1_frozen_grid_oracle(base_manager):
    # brute-force chord-slope maximization over v in (1, 50], 2e6-point grid
    # plus golden refinement: theta1 = 3.82147252, slope = 0.2198871521
    env = build_envelope(fee_pct(0, 20, 0), base_manager, 1.0)
    assert env.case == "A"
    assert env.theta1 == pytest.approx(3.82147252, abs=1e-6)
    assert env.slope == pytest.approx(0.2198871521, rel=1e-8)


def test_case_b_theta1_is_upper_kink(base_manager):
    env = build_envelope(fee_pct(5, 10, 26), base_manager, 1.0)
    assert env.case == "B"
    assert env.theta1 == (1.0 + 0.05) * 1.0
    assert env.theta2 == env.theta1


def test_tangency_cases_a_and_c(base_manager):
    # slope of the envelope's line equals the utility slope at theta1
    env_a = build_envelope(fee_pct(0, 20, 0), base_manager, 1.0)
    assert abs(env_a.slope - env_a.utility_slope(env_a.theta1)) <= 1e-10 * env_a.slope

    env_c = build_envelope(fee_pct(0, 10, 25), HaraParams(0.3, 5.0), 1.0)
    assert env_c.case == "C"
    assert env_c.kink1 < env_c.theta1 < env_c.kink2
    assert abs(env_c.slope - env_c.utility_slope(env_c.theta1)) <= 1e-10 * env_c.slope


def test_tangency_roots_of_cases_a_and_c_share_one_call(monkeypatch):
    # a block mixing case A, B and C lanes at b_M = 2.5 solves its tangencies
    # in one root call, and each lane equals its own single-lane envelope
    calls, root = [], concavify.bracketed_root

    def counted(*args):
        calls.append(args[1].size)          # the lanes of the call
        return root(*args)

    monkeypatch.setattr(concavify, "bracketed_root", counted)
    manager = HaraParams(0.3, 2.5)
    m, alpha, c = np.array([(0.0, 0.2, 0.0), (0.0, 0.1, 0.25), (0.05, 0.1, 0.1), (0.02, 0.375, 0.1),
                            (0.05, 0.2, 0.25)]).T
    block = concavify.envelope_lanes(m, alpha, c, manager, 1.0)
    assert block.case.tolist() == ["A", "C", "B", "A", "C"]
    assert calls == [4]
    for i in range(m.size):
        one = concavify.envelope_lanes(m[i:i + 1], alpha[i:i + 1], c[i:i + 1], manager, 1.0)
        for name, got, want in zip(block._fields, block, one):
            assert got[..., i].tobytes() == want[..., 0].tobytes(), (name, i)


def test_envelope_eval_continuity_and_intercept(base_manager):
    env = build_envelope(fee_pct(2, 30, 10), base_manager, 1.0)
    assert envelope_eval(env, 0.0) == env.u_at_zero
    lin = env.u_at_zero + env.slope * env.theta1
    assert lin == pytest.approx(env.utility(env.theta1), abs=1e-12)
    mid = 0.5 * env.theta1
    assert envelope_eval(env, mid) > env.utility(mid)
    with pytest.raises(Exception):
        envelope_eval(env, -0.5)


@pytest.mark.parametrize(
    "fee,hara",
    [
        (fee_pct(0, 20, 0), HaraParams(0.3, 0.65)),
        (fee_pct(2, 40, 10), HaraParams(0.3, 0.65)),
        (fee_pct(5, 10, 26), HaraParams(0.3, 0.65)),
        (fee_pct(0, 10, 25), HaraParams(0.3, 5.0)),
        (fee_pct(4.8, 50, 30), HaraParams(0.3, 2.5)),
    ],
)
def test_dominance_and_concavity_on_grid(fee, hara):
    env = build_envelope(fee, hara, 1.0)
    grid = np.linspace(0.0, 6.0 * max(1.0, env.theta1), 10_000)
    values = envelope_eval(env, grid)
    original = env.utility(grid)
    scale = np.maximum(1.0, np.abs(values))
    assert (values >= original - 1e-12 * scale).all()
    # equality beyond theta1
    beyond = grid >= env.theta1
    np.testing.assert_allclose(values[beyond], original[beyond], rtol=1e-12, atol=1e-12)
    # midpoint concavity on random pairs
    rng = np.random.default_rng(5)
    i, j = rng.integers(0, grid.size, size=(2000, 2)).T
    chord = 0.5 * (values[i] + values[j])
    assert (envelope_eval(env, 0.5 * (grid[i] + grid[j])) >= chord - 1e-12 * np.maximum(1.0, np.abs(chord))).all()


def test_pointwise_argmax_branches(base_manager):
    env = build_envelope(fee_pct(5, 10, 26), base_manager, 1.0)   # case B
    y = 1.3
    # above the chord slope the linear penalty wins and the fund is worthless
    assert pointwise_argmax(env, y, 1.05 * env.slope / y) == 0.0
    # inside the flat-gradient band the kink value is optimal
    z_flat = 0.5 * (env.slope_i3 + env.slope) / y
    assert pointwise_argmax(env, y, z_flat) == env.theta2
    # deep in the money the inverse marginal diverges
    assert pointwise_argmax(env, y, 1e-12) > 1e6
    with pytest.raises(InputError, match="need y > 0 and z > 0"):
        pointwise_argmax(env, 0.0, 1.0)


def test_pointwise_argmax_matches_brute_force(base_manager):
    cases = [
        (fee_pct(0, 20, 0), base_manager),
        (fee_pct(2, 40, 10), base_manager),
        (fee_pct(5, 10, 26), base_manager),
        (fee_pct(0, 10, 25), HaraParams(0.3, 5.0)),
    ]
    rng = np.random.default_rng(11)
    for fee, hara in cases:
        env = build_envelope(fee, hara, 1.0)
        for _ in range(2500):
            y = math.exp(rng.uniform(-2.5, 2.5))
            z = math.exp(rng.uniform(-2.5, 2.5))
            got = pointwise_argmax(env, y, z)
            ref = brute_pointwise(env, y, z)
            assert abs(got - ref) <= 1e-6 * max(1.0, abs(ref)), (fee, y, z)


def test_pointwise_argmax_nonincreasing_in_z(base_manager):
    env = build_envelope(fee_pct(2, 30, 10), base_manager, 1.0)
    rng = np.random.default_rng(3)
    for y in (0.2, 1.0, 4.0):
        zs = np.sort(np.exp(rng.uniform(-3, 3, size=400)))
        vals = [pointwise_argmax(env, y, float(z)) for z in zs]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_envelope_continuous_across_case_boundary(base_manager):
    # walking c upward at (m, alpha) = (5%, 10%) crosses from the tangent
    # regime into the kink regime near c = 9.55%; theta1 must approach the
    # kink (1+m)v0 continuously
    cs = np.linspace(0.0950, 0.0960, 201)
    tags, theta1s = [], []
    for c in cs:
        env = build_envelope(fee_pct(5, 10, 100 * c), base_manager, 1.0)
        tags.append(env.case)
        theta1s.append(env.theta1)
    assert "A" in tags and "B" in tags
    switch = tags.index("B")
    assert theta1s[switch] == pytest.approx(1.05, abs=1e-12)
    assert theta1s[switch - 1] == pytest.approx(1.05, abs=2e-3)
    assert np.abs(np.diff(theta1s)).max() < 2e-3
