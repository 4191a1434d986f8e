import math

import numpy as np
import pytest

from firstloss import (
    FeeStructure,
    GridSteps,
    HaraParams,
    evaluate_fee,
    evaluate_fees,
    investor_value,
    manager_value,
    mc_value,
    optimize_traditional,
    solve_y_star,
)
from firstloss.market import partial_power_expectation
from firstloss.preferences import _power, admissible_lanes
from firstloss.valuation import investor_mixed_coefficients, manager_values

from conftest import fee_pct
from test_batch import BOX, PUBLISHED

# published base-case value-function digits (rounded to 4 decimals at source)
GOLDEN_PHI_I = [
    ((2.0, 20.0, 0.0), 2.7987),
    ((1.5, 20.0, 0.0), 2.8096),
    ((1.0, 20.0, 0.0), 2.8205),
    ((0.5, 20.0, 0.0), 2.8312),
    ((0.0, 50.0, 10.0), 2.9342),
    ((0.0, 30.0, 10.0), 3.0421),
    ((0.0, 30.0, 20.0), 3.2147),
]
GOLDEN_PHI_M = [
    ((0.0, 20.0, 0.0), 2.2489),
    ((0.0, 30.0, 10.0), 2.2085),
    ((0.0, 40.0, 10.0), 2.3093),
    ((0.0, 50.0, 10.0), 2.3983),
]


@pytest.mark.parametrize("fee,expected", GOLDEN_PHI_I)
def test_investor_value_golden(fee, expected, base_market, base_manager, base_investor):
    metrics = evaluate_fee(fee_pct(*fee), base_market, base_manager, base_investor)
    assert metrics.phi_I == pytest.approx(expected, abs=1e-4)


@pytest.mark.parametrize("fee,expected", GOLDEN_PHI_M)
def test_manager_value_golden(fee, expected, base_market, base_manager, base_investor):
    metrics = evaluate_fee(fee_pct(*fee), base_market, base_manager, base_investor)
    assert metrics.phi_M == pytest.approx(expected, abs=1e-4)


@pytest.mark.parametrize(
    "fee,hara_b",
    [
        ((0.0, 20.0, 0.0), 0.65),
        ((5.0, 10.0, 26.0), 0.65),     # flat-band regime
        ((0.0, 10.0, 25.0), 5.0),      # three-band regime
        ((4.8, 50.0, 30.0), 2.5),
    ],
)
def test_values_vs_monte_carlo(fee, hara_b, base_market):
    manager = HaraParams(0.3, hara_b)
    investor = HaraParams(0.3, hara_b)
    f = fee_pct(*fee)
    sol = solve_y_star(f, manager, base_market)
    pm = manager_value(sol)
    pi = investor_value(sol, investor)
    est_m = mc_value(sol, f, manager, investor, base_market, "M", seed=211, n=1_000_000)
    est_i = mc_value(sol, f, manager, investor, base_market, "I", seed=223, n=1_000_000)
    assert est_m.covers(pm, 4.0)
    assert est_i.covers(pi, 4.0)


def test_values_vs_monte_carlo_random_fees(base_market, base_manager, base_investor):
    rng = np.random.default_rng(404)
    for trial in range(20):
        f = FeeStructure(
            float(rng.uniform(0.0, 0.05)),
            float(rng.uniform(0.01, 0.5)),
            float(rng.uniform(0.0, 0.3)),
        )
        sol = solve_y_star(f, base_manager, base_market)
        pi = investor_value(sol, base_investor)
        est = mc_value(sol, f, base_manager, base_investor, base_market, "I", seed=trial, n=200_000)
        assert est.covers(pi, 4.0), f


def test_degenerate_full_performance_fee_closed_form(base_market, base_manager, base_investor):
    # alpha = 1 collapses the mixed term's kernel power to a constant, so the
    # whole investor value is closed form; alpha = 1 sits outside the fee box,
    # hence the raw constructor
    f = FeeStructure.raw(0.0, 1.0, 0.10)
    sol = solve_y_star(f, base_manager, base_market)
    k, l = (float(x[0]) for x in investor_mixed_coefficients(sol.lanes(), base_manager, base_investor))
    assert k == 0.0
    bI = base_investor.b
    v0 = base_market.v0
    ppe = lambda kk, lo, hi: partial_power_expectation(base_market, kk, lo, hi)
    z_power_end, z_support = sol.thresholds()[0], sol.thresholds()[-1]
    expect = _power(v0 * (f.c - f.m) + base_investor.a, 1.0 - bI) / (1.0 - bI) * ppe(0.0, z_support, math.inf)
    expect += _power(l, 1.0 - bI) / (1.0 - bI) * ppe(0.0, 0.0, z_power_end)
    if sol.case != "A":
        expect += _power(v0 + base_investor.a, 1.0 - bI) / (1.0 - bI) * ppe(0.0, z_power_end, z_support)
    assert investor_value(sol, base_investor) == pytest.approx(expect, abs=1e-12)


def test_mixed_term_vs_scipy_quad(base_market, base_manager, base_investor):
    # dual quadrature route: adaptive Gauss-Kronrod on the same integrand
    from scipy.integrate import quad

    rng = np.random.default_rng(17)
    for _ in range(8):
        f = FeeStructure(
            float(rng.uniform(0.0, 0.05)),
            float(rng.uniform(0.05, 0.5)),
            float(rng.uniform(0.0, 0.3)),
        )
        sol = solve_y_star(f, base_manager, base_market)
        k, l = (float(x[0]) for x in investor_mixed_coefficients(sol.lanes(), base_manager, base_investor))
        mu, sig = base_market.log_drift, base_market.log_vol
        bM, bI = base_manager.b, base_investor.b
        z_power_end, z_support = sol.thresholds()[0], sol.thresholds()[-1]
        w_lo = (-math.log(z_power_end) - mu) / sig

        def integrand(w):
            zpow = math.exp((mu + sig * w) / bM)
            return (k * zpow + l) ** (1.0 - bI) * math.exp(-0.5 * w * w) / math.sqrt(2 * math.pi)

        ref, _ = quad(integrand, max(w_lo, -10.0), 10.0, epsabs=1e-13, epsrel=1e-11, limit=300)
        ref_total = ref / (1.0 - bI)
        closed_rest = investor_value(sol, base_investor)
        ppe = lambda kk, lo, hi: partial_power_expectation(base_market, kk, lo, hi)
        base_terms = _power(f.c - f.m + 0.3, 1.0 - bI) / (1.0 - bI) * ppe(0.0, z_support, math.inf)
        if sol.case != "A":
            base_terms += _power(1.3, 1.0 - bI) / (1.0 - bI) * ppe(0.0, z_power_end, z_support)
        assert closed_rest - base_terms == pytest.approx(ref_total, rel=1e-9, abs=1e-12)


def test_manager_value_monotone_in_fee(base_market, base_manager, base_investor):
    # published claim: increasing in m and alpha, decreasing in c; checked on
    # a 21 x 21 x 16 lattice with a small slack
    ms = np.linspace(0.0, 0.05, 21)
    alphas = np.linspace(0.005, 0.5, 21)
    cs = np.linspace(0.0, 0.3, 16)
    fees = np.stack(np.meshgrid(ms, alphas, cs, indexing="ij"), axis=-1).reshape(-1, 3)
    values = manager_values(fees, base_market, base_manager, base_investor)[0].reshape(21, 21, 16)
    assert (np.diff(values, axis=0) >= -1e-9).all()
    assert (np.diff(values, axis=1) >= -1e-9).all()
    assert (np.diff(values, axis=2) <= 1e-9).all()


# the central-difference step of the gradient check, and the fee box
FD_STEP = 1e-5
BOX_LO, BOX_HI = np.array([0.0, 0.001, 0.0]), np.array([0.05, 0.5, 0.3])


@pytest.mark.parametrize("b_m", [0.65, 2.5, 5.0])
def test_manager_gradient_matches_central_differences(b_m, base_market, base_investor):
    # along each axis, at every fee of BOX + PUBLISHED whose stencil stays in
    # the box and admissible; the differences themselves are noisy at about
    # 1e-6 relative at b_M = 5, so the bound is relative 1e-5
    manager = HaraParams(0.3, b_m)
    rows = np.array([(f.m, f.alpha, f.c) for f in BOX + PUBLISHED])
    phi_m, _, grad = manager_values(rows, base_market, manager, base_investor)
    checked = 0
    for axis in range(3):
        step = np.eye(3)[axis] * FD_STEP
        up, down = rows + step, rows - step
        inside = (down[:, axis] >= BOX_LO[axis]) & (up[:, axis] <= BOX_HI[axis]) & np.isfinite(phi_m)
        for ends in (up, down):
            inside &= admissible_lanes(ends[:, 0], ends[:, 2], manager, base_investor, base_market.v0)
        fd = (manager_values(up[inside], base_market, manager, base_investor)[0]
              - manager_values(down[inside], base_market, manager, base_investor)[0]) / (2.0 * FD_STEP)
        np.testing.assert_array_less(np.abs(grad[inside, axis] - fd), 1e-5 * np.maximum(np.abs(fd), 1e-3))
        checked += inside.sum()
    assert checked >= 70


@pytest.mark.parametrize("b_m", [0.65, 2.5, 5.0])
def test_manager_gradient_signs_on_the_lattice(b_m, base_market, base_investor):
    # the monotonicity the frontier search relies on: phi_M rises in m and
    # alpha and falls in c, at every feasible fee of the SMALL lattice
    steps = GridSteps(dm=0.0125, dalpha=0.025, dc=0.025)
    rows = np.array([(m, a, c) for m in steps.m_grid() for a in steps.alpha_grid() for c in steps.c_grid()])
    phi_m, _, grad = manager_values(rows, base_market, HaraParams(0.3, b_m), base_investor)
    feasible = np.isfinite(phi_m)
    assert feasible.sum() >= len(rows) - 20
    assert (grad[feasible, :2] >= 0.0).all()
    assert (grad[feasible, 2] <= 0.0).all()


def test_optimize_traditional(base_market, base_manager, base_investor):
    m_hat, a_hat = optimize_traditional(base_investor, base_manager, base_market)
    assert m_hat == pytest.approx(0.0, abs=0.005)
    assert a_hat == pytest.approx(0.203, abs=0.005)
    # boundary optimality in m at the refined alpha
    best = evaluate_fee(FeeStructure(m_hat, a_hat, 0.0), base_market, base_manager, base_investor).phi_I
    for m in (0.01, 0.03, 0.05):
        other = evaluate_fee(FeeStructure(m, a_hat, 0.0), base_market, base_manager, base_investor).phi_I
        assert best >= other


def test_grid_argmax_within_one_cell_of_refined(base_market, base_manager, base_investor):
    # the coarse-grid oracle and the polished optimum may differ by at most
    # one grid cell
    dm, dalpha = 0.005, 0.005
    ms = np.round(np.arange(0.0, 0.05 + dm / 2, dm), 10)
    alphas = np.round(np.arange(dalpha, 0.5 + dalpha / 2, dalpha), 10)
    fees = [(m, a, 0.0) for m in ms for a in alphas]
    phi_i = evaluate_fees(fees, base_market, base_manager, base_investor).phi_I
    gm, ga, _ = fees[int(np.argmax(phi_i))]
    m_hat, a_hat = optimize_traditional(base_investor, base_manager, base_market)
    assert abs(gm - m_hat) <= dm + 1e-12
    assert abs(ga - a_hat) <= dalpha + 1e-12
