import math
import re

import numpy as np
import pytest

from firstloss import (
    GridSteps,
    HaraParams,
    constant_mix_benchmark,
    constrained_preferred_fee,
    evaluate_fee,
    pareto,
    preferred_fee,
    sensitivity_sweep,
    sweep_frontier,
)
from firstloss.pareto import Frontier
from firstloss.selection import SelectionError
from firstloss.wealth import SolveError

from conftest import failing_cell, fee_pct

SMALL = GridSteps(dm=0.0125, dalpha=0.025, dc=0.025, n_phi=12)


@pytest.fixture(scope="module")
def small_frontier(base_market, base_manager, base_investor):
    return sweep_frontier(base_market, base_manager, base_investor, SMALL)


def test_preferred_is_sharpe_argmax(small_frontier):
    pref = preferred_fee(small_frontier)
    assert all(pref.sharpe >= p.sharpe for p in small_frontier.points)
    assert pref.fee in [p.fee for p in small_frontier.points]


def test_preferred_singleton(small_frontier):
    single = Frontier(points=small_frontier.points[3:4])
    pref = preferred_fee(single)
    assert pref.fee == small_frontier.points[3].fee


def test_preferred_empty_rejected(small_frontier):
    empty = Frontier(points=())
    with pytest.raises(SelectionError):
        preferred_fee(empty)


def test_constrained_preferred(small_frontier, base_market, base_manager, base_investor):
    floor = fee_pct(0, 20, 0)
    res = constrained_preferred_fee(small_frontier, base_market, base_manager, base_investor, floor)
    assert res.found
    floor_val = evaluate_fee(floor, base_market, base_manager, base_investor).phi_M
    assert res.phi_M >= floor_val - 1e-12
    # a floor at the bottom of the range is vacuous
    low_floor_points = [p for p in small_frontier.points if math.isfinite(p.sharpe)]
    vacuous = constrained_preferred_fee(
        small_frontier, base_market, base_manager, base_investor, fee_pct(0, 0.1, 0)
    )
    pref = preferred_fee(small_frontier)
    assert vacuous.fee == pref.fee
    # floor requires c = 0
    with pytest.raises(SelectionError):
        constrained_preferred_fee(small_frontier, base_market, base_manager, base_investor, fee_pct(0, 20, 5))


def test_constrained_preferred_empty_is_result(small_frontier, base_market, base_manager, base_investor):
    # an unreachable floor yields an explicit no-improvement result
    points = tuple(p for p in small_frontier.points if p.phi_M < 2.6)
    trimmed = Frontier(points=points)
    res = constrained_preferred_fee(trimmed, base_market, base_manager, base_investor, fee_pct(5, 50, 0))
    assert not res.found
    assert res.fee is None


def test_sensitivity_sweep_smoke(base_market, base_manager, base_investor):
    tiny = GridSteps(dm=0.025, dalpha=0.05, dc=0.05, n_phi=6)
    cells = sensitivity_sweep("r", [0.02], base_market, base_manager, base_investor, tiny)
    assert len(cells) == 1 and cells[0].preferred is not None
    assert cells[0].preferred.fee.m == pytest.approx(0.05, abs=0.02)
    with pytest.raises(SelectionError):
        sensitivity_sweep("bad-axis", [1], base_market, base_manager, base_investor, tiny)


def test_sensitivity_records_a_cells_numerical_error(monkeypatch, base_market, base_manager, base_investor):
    failing_cell(monkeypatch, SolveError("budget bracket expansion failed"))
    tiny = GridSteps(dm=0.025, dalpha=0.05, dc=0.05, n_phi=2)
    cells = sensitivity_sweep("r", [0.02, 0.03], base_market, base_manager, base_investor, tiny)
    assert cells[0].preferred is not None and cells[0].error == ""
    assert cells[1].preferred is None
    assert cells[1].error == "SolveError: budget bracket expansion failed"


def test_sensitivity_cell_names_the_fee_its_root_failed_at(monkeypatch, base_market, base_manager, base_investor):
    # a coverage root that stalls: the cell records the note naming the fee,
    # as the CLI prints it, and its numbers as plain floats
    def stalled(*args):
        x, g, w, ok = newton_root(*args)
        return x, g, w, np.zeros_like(ok)

    newton_root = pareto.newton_root
    monkeypatch.setattr(pareto, "newton_root", stalled)
    tiny = GridSteps(dm=0.025, dalpha=0.05, dc=0.05, n_phi=2)
    [cell] = sensitivity_sweep("r", [0.02], base_market, base_manager, base_investor, tiny)
    assert cell.preferred is None
    assert re.fullmatch(r"SolveError: root of phi_M = \S+ not found in \[0\.0, \S+\] along fee axis 2; "
                        r"frontier search failed at fee \(\d\.\d{4}%, \d+\.\d{4}%, \d+\.\d{4}%\)", cell.error), cell.error
    assert "np." not in cell.error


def test_sensitivity_propagates_other_errors(monkeypatch, base_market, base_manager, base_investor):
    failing_cell(monkeypatch, TypeError("a bug, not a cell's result"))
    tiny = GridSteps(dm=0.025, dalpha=0.05, dc=0.05, n_phi=2)
    with pytest.raises(TypeError, match="a bug"):
        sensitivity_sweep("r", [0.02, 0.03], base_market, base_manager, base_investor, tiny)


def test_constant_mix_sharpe_table(base_market, base_manager, base_investor):
    fee = fee_pct(5, 35.5, 26)
    expected = {1.0: 0.3815, 0.75: 0.3873, 0.5: 0.3930, 0.25: 0.3997}
    for pi, sr in expected.items():
        res = constant_mix_benchmark(pi, base_market, fee, base_manager, base_investor)
        assert res.sharpe == pytest.approx(sr, abs=2e-3), pi
    # decreasing in the risky fraction over (0, 1]
    srs = [constant_mix_benchmark(pi, base_market, fee, base_manager, base_investor).sharpe
           for pi in (0.25, 0.5, 0.75, 1.0)]
    assert all(a > b for a, b in zip(srs, srs[1:]))


def test_constant_mix_values_frozen(base_market, base_manager, base_investor):
    # frozen from the quadrature route; the simulation cross-check in
    # test_constant_mix_values_mc guards these against drift mistakes
    fee = fee_pct(5, 35.5, 26)
    res = constant_mix_benchmark(1.0, base_market, fee, base_manager, base_investor)
    assert res.phi_M == pytest.approx(1.907385, abs=1e-5)
    assert res.phi_I == pytest.approx(3.188884, abs=1e-5)


def test_manager_prefers_optimal_to_constant_mix(base_market):
    # the optimal strategy beats every constant mix for the manager, under
    # both published parameterizations of the comparison
    for b, fee in ((0.65, fee_pct(5, 35.5, 26)), (2.5, fee_pct(4.8, 50, 30))):
        man, inv = HaraParams(0.3, b), HaraParams(0.3, b)
        optimal = evaluate_fee(fee, base_market, man, inv).phi_M
        for pi in (1.0, 0.75, 0.5, 0.25):
            cm = constant_mix_benchmark(pi, base_market, fee, man, inv)
            assert cm.phi_M < optimal, (b, pi)


def test_constant_mix_values_mc(base_market, base_manager, base_investor):
    # quadrature vs simulation for the lognormal fund
    from firstloss import investor_payoff, manager_payoff
    from firstloss.preferences import hara_utility

    fee = fee_pct(5, 35.5, 26)
    pi = 0.75
    res = constant_mix_benchmark(pi, base_market, fee, base_manager, base_investor)
    rng = np.random.default_rng(77)
    n = 400_000
    w = rng.standard_normal(n)
    growth = (0.02 + pi * 0.2 * 0.4 - 0.5 * (pi * 0.2) ** 2) * 1.0
    v = np.exp(growth + pi * 0.2 * w)
    um = hara_utility(base_manager, manager_payoff(fee, 1.0, v[:50_000]))
    assert abs(um.mean() - res.phi_M) <= 4 * um.std() / math.sqrt(um.size)


def test_constant_mix_degenerate_and_errors(base_market, base_manager, base_investor):
    fee = fee_pct(5, 35.5, 26)
    res = constant_mix_benchmark(0.0, base_market, fee, base_manager, base_investor)
    assert res.degenerate and math.isnan(res.sharpe)
    # the riskless fund value is exp(rT); utilities are exact point values
    from firstloss import manager_payoff
    from firstloss.preferences import hara_utility

    v_T = math.exp(0.02)
    assert res.phi_M == pytest.approx(hara_utility(base_manager, manager_payoff(fee, 1.0, v_T)), abs=1e-14)
    from firstloss import MarketParams

    no_sigma = MarketParams(r=0.02, gamma=0.4)
    with pytest.raises(SelectionError):
        constant_mix_benchmark(1.0, no_sigma, fee, base_manager, base_investor)
    with pytest.raises(SelectionError):
        constant_mix_benchmark(1.5, base_market, fee, base_manager, base_investor)
