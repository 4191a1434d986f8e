import pytest

from firstloss import brute_pointwise, build_envelope, mc_budget, mc_value, solve_y_star
from firstloss.oracle import OracleError

from conftest import fee_pct


def test_mc_budget_determinism_and_scaling(base_market, base_manager):
    sol = solve_y_star(fee_pct(0, 20, 0), base_manager, base_market)
    a = mc_budget(sol, base_market, seed=5, n=100_000)
    b = mc_budget(sol, base_market, seed=5, n=100_000)
    assert a.mean == b.mean and a.std_error == b.std_error
    big = mc_budget(sol, base_market, seed=5, n=400_000)
    # quadrupling n halves the standard error, within 20%
    ratio = a.std_error / big.std_error
    assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2


def test_mc_value_consistency_across_sizes(base_market, base_manager, base_investor):
    fee = fee_pct(0, 20, 0)
    sol = solve_y_star(fee, base_manager, base_market)
    small = mc_value(sol, fee, base_manager, base_investor, base_market, "M", seed=9, n=1_000)
    large = mc_value(sol, fee, base_manager, base_investor, base_market, "M", seed=10, n=1_000_000)
    combined = (small.std_error**2 + large.std_error**2) ** 0.5
    assert abs(small.mean - large.mean) <= 4.0 * combined


def test_mc_guards(base_market, base_manager, base_investor):
    fee = fee_pct(0, 20, 0)
    sol = solve_y_star(fee, base_manager, base_market)
    with pytest.raises(OracleError):
        mc_budget(sol, base_market, seed=1, n=100)
    with pytest.raises(OracleError):
        mc_value(sol, fee, base_manager, base_investor, base_market, "X", seed=1, n=10_000)


def test_brute_pointwise_edges(base_manager):
    env = build_envelope(fee_pct(5, 10, 26), base_manager, 1.0)      # flat-band regime
    # a huge multiplier makes the linear penalty dominate
    assert brute_pointwise(env, 1e6, 1.0, v_max=100.0) == 0.0
    # inside the flat-gradient band the kink value wins
    y = 1.0
    z_band = 0.5 * (env.slope_i3 + env.slope)
    assert brute_pointwise(env, y, z_band, v_max=100.0) == pytest.approx(env.theta2, rel=1e-7)
    with pytest.raises(OracleError):
        brute_pointwise(env, 0.001, 0.001, v_max=3.0)    # maximizer beyond the window
