import math
import warnings

import numpy as np
import pytest

from firstloss import (
    HaraParams,
    InputError,
    MarketParams,
    build_envelope,
    investor_value,
    manager_value,
    mc_budget,
    moments,
    pointwise_argmax,
    sample_z,
    sharpe_ratio,
    solve_y_star,
    terminal_value_array,
)
from firstloss import quadrature
from firstloss.quadrature import integrate
from firstloss.wealth import budget

from conftest import fee_pct

CASE_FEES = [
    (fee_pct(0, 20, 0), HaraParams(0.3, 0.65), "A"),
    (fee_pct(5, 35.5, 26), HaraParams(0.3, 0.65), "B"),
    (fee_pct(5, 37.5, 26), HaraParams(0.3, 0.65), "A"),
    (fee_pct(5, 10, 26), HaraParams(0.3, 0.65), "B"),
    (fee_pct(0, 10, 25), HaraParams(0.3, 5.0), "C"),
    (fee_pct(4.8, 50, 30), HaraParams(0.3, 2.5), "C"),
]
# the test ids of CASE_FEES, named as when the regime was an enum
CASE_IDS = [f"fee{i}-hara{i}-CaseTag.{case}" for i, (_, _, case) in enumerate(CASE_FEES)]

# values of the case-by-case closed forms that preceded the band table, at the
# base market with investor HaraParams(0.3, 0.65): y*, thresholds(),
# (E[V], E[V^2]), phi_M, phi_I, Sharpe ratio
FROZEN_BAND_VALUES = [
    (0.3004835616266694, (0.7317776415646807,), (1.861880276446985, 13.775749451969533),
     2.2489454883304245, 2.8418007489210746, 0.2622037378537228),
    (0.634646005246576, (1.1067577543323706, 1.123320818246851), (1.4685287391275548, 3.8911728288889833),
     2.111818885061714, 3.1897231532946684, 0.3405579976007373),
    (0.649310300541393, (1.0991257091405908,), (1.476729069593043, 3.9812147243809153),
     2.1272725823439895, 3.1769676097536794, 0.34037980274550056),
    (0.3739939032877591, (0.5290433364626109, 1.9062104051523794), (1.135845028391949, 1.6701054819104562),
     1.9746378406601846, 3.168170875194876, 0.18793495879472613),
    (58.136294970237216, (0.7078583765194093, 7.078583765194092, 814.0794601364393),
     (1.0412591984152992, 1.0933489318921819), -29.467740700238274, 3.1616014093801352, 0.22251228219870295),
    (14.880245374022792, (0.4703398775018324, 0.9406797550036649, 4.179076916048534),
     (1.0326128029963657, 1.0674026218409054), -3.5558243304260704, 3.1329316565118286, 0.3779914027991937),
]


@pytest.mark.parametrize("case_fee,frozen", list(zip(CASE_FEES, FROZEN_BAND_VALUES)))
def test_frozen_band_values(case_fee, frozen, base_market, base_investor):
    fee, hara, case = case_fee
    y_star, thresholds, fund_moments, phi_m, phi_i, sharpe = frozen
    sol = solve_y_star(fee, hara, base_market)
    assert sol.case == case
    assert sol.y_star == pytest.approx(y_star, rel=1e-12, abs=0.0)
    assert sol.thresholds() == pytest.approx(thresholds, rel=1e-12, abs=0.0)
    assert moments(sol) == pytest.approx(fund_moments, rel=1e-12, abs=0.0)
    assert manager_value(sol) == pytest.approx(phi_m, rel=1e-12, abs=0.0)
    assert investor_value(sol, base_investor) == pytest.approx(phi_i, rel=1e-12, abs=0.0)
    assert sharpe_ratio(sol) == pytest.approx(sharpe, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("fee,hara,case", CASE_FEES, ids=CASE_IDS)
def test_budget_binds(fee, hara, case, base_market):
    sol = solve_y_star(fee, hara, base_market)
    assert sol.case == case
    residual = budget(sol.envelope, base_market, sol.y_star) - base_market.v0
    assert abs(residual) <= 1e-9 * base_market.v0


def test_budget_monotone(base_market, base_manager):
    sol = solve_y_star(fee_pct(0, 20, 0), base_manager, base_market)
    env = sol.envelope
    assert budget(env, base_market, sol.y_star / 2) > base_market.v0
    assert budget(env, base_market, 2 * sol.y_star) < base_market.v0


def test_y_star_frozen_mc_oracle(base_market, base_manager):
    # 1e7-draw Monte Carlo bisection of the budget (independent slope oracle):
    # y* = 0.3005431; the analytic root must sit inside the MC noise band
    sol = solve_y_star(fee_pct(0, 20, 0), base_manager, base_market)
    assert abs(sol.y_star - 0.3005431) <= 1e-3


@pytest.mark.parametrize("fee,hara,case", CASE_FEES, ids=CASE_IDS)
def test_mc_budget_covers_v0(fee, hara, case, base_market):
    sol = solve_y_star(fee, hara, base_market)
    est = mc_budget(sol, base_market, seed=101, n=1_000_000)
    assert est.covers(base_market.v0)


@pytest.mark.parametrize("fee,hara,case", CASE_FEES, ids=CASE_IDS)
def test_terminal_value_support_and_monotone(fee, hara, case, base_market):
    sol = solve_y_star(fee, hara, base_market)
    z = np.sort(sample_z(base_market, seed=23, n=100_000))
    v = terminal_value_array(sol, z)
    assert ((v == 0.0) | (v >= sol.theta1 - 1e-9)).all()
    assert (np.diff(v) <= 1e-12).all()
    # the band table agrees with the pointwise dual maximizer
    idx = np.linspace(0, z.size - 1, 200, dtype=int)
    for i in idx:
        assert pointwise_argmax(sol.envelope, sol.y_star, float(z[i])) == pytest.approx(float(v[i]), abs=1e-12)


@pytest.mark.parametrize("fee,hara,case", CASE_FEES, ids=CASE_IDS)
def test_terminal_value_matches_pointwise_argmax(fee, hara, case, base_market):
    sol = solve_y_star(fee, hara, base_market)
    env = sol.envelope
    rng = np.random.default_rng(37)
    z = np.exp(rng.uniform(-3.0, 3.0, size=10_000))
    v = terminal_value_array(sol, z)
    for zi, a in zip(z, v):
        b = pointwise_argmax(env, sol.y_star, float(zi))
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_terminal_value_edges(base_market, base_manager):
    sol = solve_y_star(fee_pct(5, 10, 26), base_manager, base_market)
    assert sol.case == "B"
    env, y = sol.envelope, sol.y_star
    z_power_end, z_support = sol.thresholds()[0], sol.thresholds()[-1]
    mid = 0.5 * (z_power_end + z_support)
    z = np.array([z_support * (1.0 - 1e-9), z_support, z_support * 1.0001, mid])
    v = terminal_value_array(sol, z)
    # the flat band reaches the support edge at the kink value; V = 0 from it on
    assert v[0] == pointwise_argmax(env, y, float(z[0])) == (1.0 + 0.05) * 1.0
    assert v[1] == v[2] == pointwise_argmax(env, y, float(z[2])) == 0.0
    assert v[3] == pointwise_argmax(env, y, mid) == (1.0 + 0.05) * 1.0
    with pytest.raises(ValueError):
        terminal_value_array(sol, np.array([1.0, 0.0]))


@pytest.mark.parametrize("fee,hara,case", CASE_FEES, ids=CASE_IDS)
def test_budget_closed_form_vs_numerical_integral(fee, hara, case, base_market, monkeypatch):
    # independent route: integrate z * argmax(y, z) against the lognormal law
    # in the normal coordinate, panel edges at the band breakpoints, to a
    # relative 1e-11
    monkeypatch.setattr(quadrature, "DEFAULT_REL_TOL", 1e-11)
    env = build_envelope(fee, hara, base_market.v0)
    mu, sig = base_market.log_drift, base_market.log_vol
    rng = np.random.default_rng(71)
    for _ in range(6):
        y = math.exp(rng.uniform(-1.5, 1.5))
        closed = budget(env, base_market, y)

        def integrand(w):
            z = np.exp(-mu - sig * w)
            vals = np.array([pointwise_argmax(env, y, float(zi)) for zi in z])
            return z * vals * np.exp(-0.5 * w * w) / math.sqrt(2 * math.pi)

        sol_edges = [env.slope / y, env.slope_i3 / y, env.slope_i2 / y]
        breaks = [(-math.log(e) - mu) / sig for e in sol_edges if e > 0]
        numeric = integrate(integrand, -12.0, 12.0, breakpoints=breaks)
        assert closed == pytest.approx(numeric, rel=1e-8)


@pytest.mark.parametrize("fee", [fee_pct(0, 20, 0), fee_pct(5, 35.5, 26)], ids=["A", "B"])
def test_budget_is_inf_at_a_tiny_multiplier(fee):
    # y^(-1/b) overflows at y = 1e-300: h is inf, and the empty or flat band
    # (coef = 0) adds 0 to it, not 0 * inf = NaN
    env = build_envelope(fee, HaraParams(0.3, 0.65), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert budget(env, MarketParams(), 1e-300) == math.inf
        assert 1e307 < budget(env, MarketParams(), 1e-200) < math.inf


@pytest.mark.parametrize("y", [0.0, -1.0, math.nan])
def test_budget_rejects_a_multiplier_that_is_not_positive(y):
    # checked before any arithmetic: no divide warning, no NaN
    env = build_envelope(fee_pct(0, 20, 0), HaraParams(0.3, 0.65), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InputError, match=rf"multiplier y must be > 0 \(got {y}\)"):
            budget(env, MarketParams(), y)
        assert budget(env, MarketParams(), math.inf) == 0.0


@pytest.mark.parametrize("fee,hara,case", CASE_FEES, ids=CASE_IDS)
def test_moments_vs_mc(fee, hara, case, base_market):
    sol = solve_y_star(fee, hara, base_market)
    ev, ev2 = moments(sol)
    assert ev2 >= ev * ev >= 0.0
    n = 1_000_000
    z = sample_z(base_market, seed=59, n=n)
    v = terminal_value_array(sol, z)
    for sample, closed in ((v, ev), (v**2, ev2)):
        se = sample.std() / math.sqrt(n)
        assert abs(sample.mean() - closed) <= 4.0 * se


def test_moments_vanish_for_huge_multiplier(base_market, base_manager):
    # pushing the multiplier up collapses the support toward zero kernel mass
    from firstloss.wealth import OptimalWealthSolution

    env = build_envelope(fee_pct(0, 20, 0), base_manager, base_market.v0)
    sol = OptimalWealthSolution(envelope=env, market=base_market, t=math.log(1e9))
    ev, ev2 = moments(sol)
    assert 0.0 <= ev < 1e-3


def test_sharpe_table_values(base_market, base_manager):
    sol = solve_y_star(fee_pct(5, 35.5, 26), base_manager, base_market)
    assert sharpe_ratio(sol) == pytest.approx(0.3406, abs=5e-4)
    sol_b = solve_y_star(fee_pct(4.8, 50, 30), HaraParams(0.3, 2.5), base_market)
    assert sharpe_ratio(sol_b) == pytest.approx(0.3780, abs=5e-4)


def test_sharpe_mc(base_market, base_manager):
    sol = solve_y_star(fee_pct(5, 35.5, 26), base_manager, base_market)
    n = 1_000_000
    z = sample_z(base_market, seed=83, n=n)
    v = terminal_value_array(sol, z)
    sr_mc = (v.mean() - 1.02) / v.std()
    # delta-method error on the ratio is below 2e-3 at this n
    assert sharpe_ratio(sol) == pytest.approx(sr_mc, abs=4 * 2e-3)
