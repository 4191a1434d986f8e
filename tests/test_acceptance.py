"""The paper's claims, each reproduced at the model's base market or marked a
strict xfail with the measured value and the reason."""

import pytest

from firstloss import GridSteps, HaraParams, evaluate_fees, grid_scan, solve_fbpo

SMALL = GridSteps(dm=0.0125, dalpha=0.025, dc=0.025, n_phi=12)


# (b_M, b_I): the base utilities, a more risk-averse manager (b > 1, case C),
# a more risk-averse investor.  The frontier fee beats 2/20 in phi_I by
# 0.255, 0.048 and 2.19 at the same phi_M.
@pytest.mark.parametrize("b_m,b_i", [(0.65, 0.65), (2.5, 0.65), (0.65, 2.5)])
def test_two_and_twenty_is_not_pareto_optimal(b_m, b_i, base_market):
    manager, investor = HaraParams(0.3, b_m), HaraParams(0.3, b_i)
    traditional = evaluate_fees([(0.02, 0.20, 0.0)], base_market, manager, investor)
    phi_m, phi_i = float(traditional.phi_M[0]), float(traditional.phi_I[0])
    point = solve_fbpo(phi_m, grid_scan(base_market, manager, investor, SMALL), base_market, manager, investor)
    assert point.phi_M >= phi_m
    assert point.phi_I > phi_i
