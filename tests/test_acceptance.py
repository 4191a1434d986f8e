"""The paper's claims, each reproduced at the model's base market or marked a
strict xfail with the measured value and the reason."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from firstloss import (
    FeeStructure,
    GridSteps,
    HaraParams,
    evaluate_fees,
    grid_scan,
    moments,
    optimize_traditional,
    run_pipeline,
    solve_fbpo,
    solve_y_star,
)

SMALL = GridSteps(dm=0.0125, dalpha=0.025, dc=0.025, n_phi=12)


# "The traditional 2% management and 20% performance fees are found to be
# not Pareto optimal, neither are common first-loss fee arrangements": 2/20,
# and as the common first-loss fees the (0, alpha, c) rows of
# test_batch.PUBLISHED, (0, 30, 10), (0, 40, 10), (0, 50, 10) and
# (0, 30, 20) in percent (PAPER.md holds only the abstract, which names no
# fee).  At each (b_M, b_I), the base utilities, a more risk-averse manager
# (b > 1, case C) and a more risk-averse investor, the frontier fee at each
# fee's phi_M beats its phi_I: 2/20 by 0.255, 0.048 and 2.19, the first-loss
# fees by 0.0123 ((0, 50, 10) at (0.65, 0.65)) to 0.729.
DOMINATED = [(0.02, 0.20, 0.0), (0.0, 0.30, 0.10), (0.0, 0.40, 0.10), (0.0, 0.50, 0.10), (0.0, 0.30, 0.20)]


@pytest.mark.parametrize("b_m,b_i", [(0.65, 0.65), (2.5, 0.65), (0.65, 2.5)])
def test_two_and_twenty_is_not_pareto_optimal(b_m, b_i, base_market):
    manager, investor = HaraParams(0.3, b_m), HaraParams(0.3, b_i)
    fees = evaluate_fees(DOMINATED, base_market, manager, investor)
    scan = grid_scan(base_market, manager, investor, SMALL)
    for fee, phi_m, phi_i in zip(DOMINATED, fees.phi_M.tolist(), fees.phi_I.tolist()):
        point = solve_fbpo(phi_m, scan, base_market, manager, investor)
        assert point.phi_M >= phi_m, fee
        assert point.phi_I > phi_i, fee


# The sign claims on the Sharpe-preferred fee, each as a short sensitivity
# run at the coarse lattice with 17 reservation levels: (parameter, values,
# fee coordinate, +1 where the claim says it rises, -1 where it falls).  A
# coordinate may stay at its cap (c = 30%, alpha = 50%) once there, so a
# claim asks for no step against its sign and at least one step with it.
CLAIM_STEPS = GridSteps(dm=0.0125, dalpha=0.025, dc=0.025, n_phi=16)
CLAIMS = [
    ("b_i", (0.4, 0.65, 1.5, 2.5), "c", 1),           # c 16.62, 24.83, 30, 30 (%)
    ("r", (0.0, 0.02, 0.04), "c", 1),                 # c 24.72, 24.83, 25.13
    ("b_m", (0.4, 0.65, 1.5, 2.5), "c", -1),          # c 30, 24.83, 13.89, 9.02
    ("gamma", (0.3, 0.4, 0.5), "c", -1),              # c 24.97, 24.83, 24.07
    ("b_i", (0.4, 0.65, 1.5, 2.5), "alpha", 1),       # alpha 21.46, 33.03, 50, 50
    pytest.param("r", (0.0, 0.02, 0.04), "alpha", 1, marks=pytest.mark.xfail(strict=True, reason=(
        "alpha 33.67, 33.04, 38.36 (%): the preferred fee lies on a ridge of the frontier where phi_I "
        "barely moves while the Sharpe ratio does, so the Sharpe maximum moves along it with the lattice"))),
]


@pytest.fixture(scope="module")
def preferred(base_market):
    """The preferred fee at the base case with one parameter changed."""
    found = {}

    def fee(name, value):
        if (name, value) not in found:
            base = {"b_m": 0.65, "b_i": 0.65, "r": base_market.r, "gamma": base_market.gamma} | {name: value}
            market = dataclasses.replace(base_market, r=base["r"], gamma=base["gamma"])
            result = run_pipeline(market, HaraParams(0.3, base["b_m"]), HaraParams(0.3, base["b_i"]), CLAIM_STEPS)
            found[name, value] = result.preferred.fee
        return found[name, value]

    return fee


@pytest.mark.parametrize("name,values,coordinate,sign", CLAIMS)
def test_preferred_fee_moves_as_claimed(name, values, coordinate, sign, preferred):
    moves = sign * np.diff([getattr(preferred(name, value), coordinate) for value in values])
    assert (moves >= 0.0).all() and (moves > 0.0).any()


# "The preferred fee schemes significantly decrease the fund's volatility":
# std(V) at the Sharpe-preferred fee against the investor-optimal traditional
# fee (c = 0), at the (b_M, b_I) of the 2/20 claim above.  Measured: 1.374 vs
# 3.199, 0.773 vs 1.350 and 0.918 vs 2.518 (ratios 0.43, 0.57, 0.36).  The
# comparison with the constant-mix benchmark is the strict xfail below.
@pytest.mark.parametrize("b_m,b_i", [(0.65, 0.65), (2.5, 0.65), (0.65, 2.5)])
def test_preferred_fee_decreases_fund_volatility(b_m, b_i, preferred, base_market):
    manager, investor = HaraParams(0.3, b_m), HaraParams(0.3, b_i)
    fee = preferred("b_m", b_m) if b_i == 0.65 else preferred("b_i", b_i)
    traditional = FeeStructure(*optimize_traditional(investor, manager, base_market), 0.0)
    std = []
    for f in (fee, traditional):
        ev, ev2 = moments(solve_y_star(f, manager, base_market))
        std.append(math.sqrt(ev2 - ev * ev))
    assert std[0] < 0.75 * std[1]


@pytest.fixture(scope="module")
def default_pipeline(base_market, base_manager, base_investor):
    """run_pipeline at the base market and utilities on the default lattice."""
    return run_pipeline(base_market, base_manager, base_investor, GridSteps())


# The default run's Sharpe-preferred fee, pinned as scalar_chain.json pins
# the fee chain's values: rel 1e-12 (the Sharpe ratio 1e-10), so that a
# change to the frontier search that moves the default preferred.json fails
# here.  Fee (5.0000%, 34.1874%, 24.9486%).
DEFAULT_PREFERRED = {"m": 0.05, "alpha": 0.3418742138819695, "c": 0.24948558271666998,
                     "sharpe": 0.3376896003475341, "phi_M": 2.1162988520442356, "phi_I": 3.1865545995998525,
                     "phi_min": 2.1162988520442343}


def test_default_preferred_fee_golden(default_pipeline):
    preferred = default_pipeline.preferred
    got = {"m": preferred.fee.m, "alpha": preferred.fee.alpha, "c": preferred.fee.c, "sharpe": preferred.sharpe,
           "phi_M": preferred.phi_M, "phi_I": preferred.phi_I, "phi_min": preferred.phi_min}
    for key, want in DEFAULT_PREFERRED.items():
        assert got[key] == pytest.approx(want, rel=1e-10 if key == "sharpe" else 1e-12, abs=0.0), key


# Every level of the default run's frontier (the default frontier.csv, at
# full precision): phi_min, the fee, phi_M, phi_I and the Sharpe ratio of
# all 201 levels, pinned to default_frontier.json at DEFAULT_PREFERRED's
# tolerances.
DEFAULT_FRONTIER = json.loads(Path(__file__).with_name("default_frontier.json").read_text())


def test_default_frontier_golden(default_pipeline):
    want = np.array(DEFAULT_FRONTIER["levels"])
    got = np.array([[p.phi_min, p.fee.m, p.fee.alpha, p.fee.c, p.phi_M, p.phi_I, p.sharpe]
                    for p in default_pipeline.frontier.points])
    assert got.shape == want.shape == (201, 7)
    for k, name in enumerate(DEFAULT_FRONTIER["columns"]):
        assert got[:, k] == pytest.approx(want[:, k], rel=1e-10 if name == "sharpe" else 1e-12, abs=0.0), name


# The same claim read against the constant-mix benchmark: the fund that holds
# a fixed fraction pi of its wealth in the risky asset
# (selection.constant_mix_benchmark), whose V_T is lognormal, at pi = 0.25,
# 0.5 and 1.  At the default preferred fee the fund has mean 1.4864 and std
# 1.3810; the constant-mix fund has std 0.0521, 0.1064 and 0.2233, and at
# pi = 1 also the higher Sharpe ratio, 0.3815 against 0.3377.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the fund at the default preferred fee (5.0000%, 34.1874%, 24.9486%) has std 1.3810, against 0.0521, "
    "0.1064 and 0.2233 for the constant-mix fund at pi = 0.25, 0.5 and 1: against that benchmark the "
    "preferred fee raises the fund's volatility by a factor of 6 or more"))
def test_preferred_fee_decreases_volatility_against_the_constant_mix(default_pipeline, base_market, base_manager):
    fee = default_pipeline.preferred.fee
    ev, ev2 = moments(solve_y_star(fee, base_manager, base_market))
    r, sigma, gamma, T = base_market.r, base_market.sigma, base_market.gamma, base_market.horizon_T
    for pi in (0.25, 0.5, 1.0):
        mean = base_market.v0 * math.exp((r + pi * sigma * gamma) * T)
        mix_std = mean * math.sqrt(math.expm1((pi * sigma) ** 2 * T))
        assert math.sqrt(ev2 - ev * ev) < mix_std, pi


# The published preferred fee (5, 35.5, 26) in percent, at the base case:
# phi_M 2.111819, phi_I 3.189723, Sharpe ratio 0.3406.  The frontier fee at
# its phi_M on the default lattice is (5.0000%, 33.5684%, 24.9136%), with
# phi_I 3.190312, so in this model the published fee is Pareto-dominated,
# by 5.885e-4 in phi_I.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the frontier fee (5.0000%, 33.5684%, 24.9136%) at the published fee's phi_M 2.111819 has phi_I "
    "3.190312, 5.885e-4 above the published fee's 3.189723: the published fee is not Pareto optimal here"))
def test_published_preferred_fee_is_pareto_optimal(base_market, base_manager, base_investor):
    published = evaluate_fees([(0.05, 0.355, 0.26)], base_market, base_manager, base_investor)
    scan = grid_scan(base_market, base_manager, base_investor, GridSteps())
    point = solve_fbpo(float(published.phi_M[0]), scan, base_market, base_manager, base_investor)
    assert point.phi_I <= published.phi_I[0] + 1e-9
