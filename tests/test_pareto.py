import numpy as np
import pytest

from firstloss import GridSteps, HaraParams, grid_scan, solve_fbpo, sweep_frontier
from firstloss.pareto import InfeasibleReservation

SMALL = GridSteps(dm=0.0125, dalpha=0.025, dc=0.025, n_phi=12)


@pytest.fixture(scope="module")
def small_scan(base_market, base_manager, base_investor):
    return grid_scan(base_market, base_manager, base_investor, SMALL)


@pytest.fixture(scope="module")
def small_frontier(base_market, base_manager, base_investor, small_scan):
    return sweep_frontier(
        base_market, base_manager, base_investor, SMALL, scan=small_scan, workers=0
    )


def test_lattice_size_is_cartesian_product(small_scan):
    expected = len(SMALL.m_grid()) * len(SMALL.alpha_grid()) * len(SMALL.c_grid())
    assert len(small_scan.fees) == expected
    assert small_scan.feasible.all()


def test_lattice_determinism(base_market, base_manager, base_investor, small_scan):
    again = grid_scan(base_market, base_manager, base_investor, SMALL)
    np.testing.assert_array_equal(small_scan.phi_M, again.phi_M)
    np.testing.assert_array_equal(small_scan.phi_I, again.phi_I)
    np.testing.assert_array_equal(small_scan.sharpe, again.sharpe)
    assert small_scan.case == again.case


def test_manager_max_at_aggressive_corner(small_scan):
    assert small_scan.argmax_phi_M() == (0.05, 0.5, 0.0)


def test_infeasible_sliver_recorded_not_fatal(base_market, base_investor):
    # b_M > 1 with the shift at the coverage bound: the (m=0, c=0.3) edge is
    # outside the utility domain and must be skipped, not raised
    manager = HaraParams(0.3, 2.5)
    scan = grid_scan(base_market, manager, base_investor, SMALL)
    assert not scan.feasible.all()
    bad = [scan.fees[i] for i in np.flatnonzero(~scan.feasible)]
    assert all(f[0] == 0.0 and f[2] == 0.3 for f in bad)


def test_solve_fbpo_unconstrained_limit(base_market, base_manager, base_investor, small_scan):
    # at the smallest attainable reservation level the constraint is slack,
    # so the solution is the unconstrained investor optimum
    point = solve_fbpo(small_scan.phi_M_min, small_scan, base_market, base_manager, base_investor)
    assert point.fee.m == pytest.approx(0.0, abs=1e-6)
    assert point.fee.alpha == pytest.approx(0.13221, abs=1e-3)
    assert point.fee.c == pytest.approx(0.16436, abs=1e-3)
    assert point.phi_I == pytest.approx(3.278617, abs=1e-5)


def test_solve_fbpo_rejects_out_of_range(base_market, base_manager, base_investor, small_scan):
    with pytest.raises(InfeasibleReservation):
        solve_fbpo(small_scan.phi_M_max + 0.1, small_scan, base_market, base_manager, base_investor)
    with pytest.raises(InfeasibleReservation):
        solve_fbpo(small_scan.phi_M_min - 0.1, small_scan, base_market, base_manager, base_investor)


def test_solve_fbpo_dominates_feasible_lattice(base_market, base_manager, base_investor, small_scan):
    for phi_min in (2.0, 2.2, 2.4):
        point = solve_fbpo(phi_min, small_scan, base_market, base_manager, base_investor)
        feasible = small_scan.phi_M >= phi_min - 1e-12
        assert point.phi_I >= small_scan.phi_I[feasible].max() - 1e-9
        assert point.phi_M >= phi_min - 1e-8 * max(1.0, abs(phi_min))


def test_frontier_invariants(small_frontier):
    points = small_frontier.points
    assert len(points) == SMALL.n_phi + 1
    # feasibility with relative slack
    for p in points:
        assert p.phi_M >= p.phi_min - 1e-8 * max(1.0, abs(p.phi_min))
        assert p.phi_I >= p.seed_phi_I - 1e-12
    # tightening the reservation level cannot raise the investor's optimum
    phi_is = [p.phi_I for p in points]
    assert all(a >= b - 1e-8 for a, b in zip(phi_is, phi_is[1:]))
    # manager value nondecreasing along the sweep
    phi_ms = [p.phi_M for p in points]
    assert all(b >= a - 1e-8 for a, b in zip(phi_ms, phi_ms[1:]))


def test_frontier_no_lattice_dominance(small_scan, small_frontier):
    # no lattice fee strictly improves both values over a frontier point
    for p in small_frontier.points[:: max(1, len(small_frontier.points) // 6)]:
        better = (small_scan.phi_M > p.phi_M + 1e-6) & (small_scan.phi_I > p.phi_I + 1e-6)
        assert not better.any()


def test_frontier_determinism(base_market, base_manager, base_investor, small_scan, small_frontier):
    again = sweep_frontier(
        base_market, base_manager, base_investor, SMALL, scan=small_scan, workers=2
    )
    assert len(again.points) == len(small_frontier.points)
    for a, b in zip(again.points, small_frontier.points):
        assert a.fee == b.fee
        assert a.phi_I == b.phi_I
        assert a.sharpe == b.sharpe
