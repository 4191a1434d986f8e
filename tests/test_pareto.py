import warnings

import numpy as np
import pytest

from firstloss import (
    GridSteps,
    HaraParams,
    MarketParams,
    evaluate_fees,
    grid_scan,
    pareto,
    solve_fbpo,
    sweep_frontier,
    valuation,
    wealth,
)
from firstloss.pareto import GridScan, InfeasibleReservation

SMALL = GridSteps(dm=0.0125, dalpha=0.025, dc=0.025, n_phi=12)


@pytest.fixture(scope="module")
def small_scan(base_market, base_manager, base_investor):
    return grid_scan(base_market, base_manager, base_investor, SMALL)


@pytest.fixture(scope="module")
def small_frontier(base_market, base_manager, base_investor):
    return sweep_frontier(base_market, base_manager, base_investor, SMALL)


def test_lattice_size_is_cartesian_product(small_scan):
    expected = len(SMALL.m_grid()) * len(SMALL.alpha_grid()) * len(SMALL.c_grid())
    assert len(small_scan.fees) == expected
    assert small_scan.fees.tolist() == [
        [float(m), float(a), float(c)] for m in SMALL.m_grid() for a in SMALL.alpha_grid() for c in SMALL.c_grid()]
    assert small_scan.feasible.all()


def test_lattice_determinism(base_market, base_manager, base_investor, small_scan):
    again = grid_scan(base_market, base_manager, base_investor, SMALL)
    np.testing.assert_array_equal(small_scan.phi_M, again.phi_M)
    np.testing.assert_array_equal(small_scan.phi_I, again.phi_I)
    np.testing.assert_array_equal(small_scan.sharpe, again.sharpe)
    np.testing.assert_array_equal(small_scan.case, again.case)


def test_manager_max_at_aggressive_corner(small_scan):
    best = np.argmax(np.where(small_scan.feasible, small_scan.phi_M, -np.inf))
    assert small_scan.fees[best].tolist() == [0.05, 0.5, 0.0]


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


def test_select_seeds_matches_a_loop_per_level():
    # phi_I rounded to 0.1, so that many fees tie; a tie goes to the first
    # fee in lattice order
    rng = np.random.default_rng(11)
    n = 400
    phi_M, phi_I = rng.normal(size=n), np.round(rng.normal(size=n), 1)
    feasible = rng.uniform(size=n) > 0.2
    phi_M[~feasible] = phi_I[~feasible] = np.nan
    scan = GridScan(steps=SMALL, fees=np.tile([0.0, 0.2, 0.0], (n, 1)), phi_M=phi_M, phi_I=phi_I,
                    sharpe=np.zeros(n), case=np.full(n, "A"), feasible=feasible, t=np.zeros(n))
    top = np.nanmax(phi_M)
    # levels at a fee's phi_M, at the seed tolerance above it (the two meet
    # exactly there) and beyond that
    on = phi_M[feasible][:10]
    assert (on + 1e-12 - 1e-12 == on).all()
    levels = np.concatenate([np.sort(rng.uniform(np.nanmin(phi_M) - 0.5, top, 60)), on, on + 1e-12, on + 2e-12,
                             [top]])
    expected = []
    for level in levels:
        best = -1
        for i in range(n):
            if feasible[i] and phi_M[i] >= level - 1e-12 and (best < 0 or phi_I[i] > phi_I[best]):
                best = i
        expected.append(best)
    np.testing.assert_array_equal(pareto._select_seeds(scan, levels), expected)
    # a level above every feasible phi_M has no seed, and is named
    above = top + 1e-9
    with pytest.raises(InfeasibleReservation, match=f"phi_min={above}$"):
        pareto._select_seeds(scan, np.array([levels[0], above, top]))


def test_frontier_invariants(small_frontier):
    points = small_frontier.points
    assert len(points) == SMALL.n_phi + 1
    # feasibility: c_bind meets the constraint to rounding
    for p in points:
        assert p.phi_M >= p.phi_min - 1e-12 * max(1.0, abs(p.phi_min))
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


def test_frontier_determinism(base_market, base_manager, base_investor, small_frontier):
    again = sweep_frontier(base_market, base_manager, base_investor, SMALL)
    assert len(again.points) == len(small_frontier.points)
    for a, b in zip(again.points, small_frontier.points):
        assert a.fee == b.fee
        assert a.phi_I == b.phi_I
        assert a.sharpe == b.sharpe


def test_one_level_alone_equals_the_sweep(base_market, base_manager, base_investor, small_scan, small_frontier):
    # the levels of a sweep never mix, so a level solved alone is the same point
    for p in small_frontier.points[::4]:
        alone = solve_fbpo(p.phi_min, small_scan, base_market, base_manager, base_investor)
        assert alone == p


# Budget evaluations (wealth._budget calls, lattice included) of the SMALL
# frontier per manager b_M: 219 and 830 with each search round one bind call
# (the faces of a lane's fee bound beside its coverage) whose lanes value
# the fees, and the rtsafe rule on the step before last; 219 and 798 with
# the last step; 274 and 863 when evaluate_fees solved each bound fee's
# budget again and every face bound in a second call, with each face bind
# started at its span's end where phi_M is highest, against 332 and 879
# when it started from both ends of its span and restarted its budget
# roots cold, both in blocks of 8,192 lanes; 342 and 898 with the
# quadratic model's point
# offered at any distance, against 342 and 884 when it was capped at 16
# steps, both with the pattern search's step cut 4-fold and grown 2-fold,
# against 544 and 939 when it was only halved, all with the budget root by
# Newton's method on log h, against 1,097 and 1,635 with the growing budget
# bracket and Chandrupatla's method just before it;
# 1,108 and 1,734 with one search per level from its best lattice fee and
# that bracket, against 1,222 and 1,913 from three lattice starts per level
# and a cold restart of a warm bracket that missed, both with the binding
# roots by Newton's method on phi_M's gradient; 1,646 and 3,050 with the
# bracketed binding roots and the quadratic-model step of the pattern
# search, 2,309 and 4,541 with the stencil alone, and 5,326 and 10,716 when
# every budget root started cold.
# The bounds leave 5% for a search path that moves with the last bits.
BUDGET_CALLS = {0.65: 230, 2.5: 872}


@pytest.mark.parametrize("b_m", sorted(BUDGET_CALLS))
def test_frontier_budget_work(b_m, monkeypatch, base_market, base_investor):
    calls = []

    def counted(*args):
        calls.append(None)
        return budget(*args)

    budget = wealth._budget
    monkeypatch.setattr(wealth, "_budget", counted)
    sweep_frontier(base_market, HaraParams(0.3, b_m), base_investor, SMALL)
    assert 1 <= len(calls) <= BUDGET_CALLS[b_m]


# Rounds of the manager's value (valuation._manager_block calls, one per
# block of lanes, the lattice's and phi_I's included) of the SMALL frontier
# per manager b_M: 68 and 155 with one bind call per search round, whose
# lanes value the fees, and the rtsafe rule on the step before last (68
# and 153 on the last step); 97 and 186 with a face bind call after the
# coverage's and evaluate_fees on the bound fees, each face bind started at
# one end of its span, against 97 and 185 from both ends, in blocks of
# 8,192 lanes, where the lattice is one block, against 98 and 186 in
# blocks of 1,024, with the
# model's point at any distance; 98 and 183 in blocks of 1,024 when it was
# capped at 16 steps, both with the pattern search's step
# cut 4-fold and grown 2-fold, against 153 and 206 when it was only halved,
# all with one search per level from its best lattice fee (153 and 207 at
# first), against 161 and 223 from three lattice starts per level, all with
# the binding roots by Newton's method on phi_M's gradient; 297 and 387 with
# the bracketed binding roots.  The bounds leave 5%, as above.
BIND_ROUNDS = {0.65: 72, 2.5: 163}


@pytest.mark.parametrize("b_m", sorted(BIND_ROUNDS))
def test_frontier_bind_rounds(b_m, monkeypatch, base_market, base_investor):
    calls = []

    def counted(*args):
        calls.append(None)
        return block(*args)

    block = valuation._manager_block
    monkeypatch.setattr(valuation, "_manager_block", counted)
    sweep_frontier(base_market, HaraParams(0.3, b_m), base_investor, SMALL)
    assert len(calls) <= BIND_ROUNDS[b_m]


# Objective calls of each pattern_search of the SMALL frontier per manager
# b_M: the unconstrained maximum x_u, then the levels' search from each
# level's best lattice fee: 13, 16 at b_M = 0.65 and 16, 23 at 2.5 with the
# step cut 4-fold on a failed or model step and doubled (up to the start
# step) on a stencil step, the model's point at any distance or capped at 16
# steps alike; 23, 25 and 26, 27 when a step only halved.  From
# three lattice starts per level, four steps each before only the best went
# on, there were three searches: with the quadratic-model step 23, 4, 21 and
# 26, 4, 24 (23, 4, 20 and 26, 4, 23 with the Newton binding roots); with
# the stencil alone 41, 4, 38 and 35, 4, 65.  The bounds leave 5%, as above.
SEARCH_STEPS = {0.65: [14, 17], 2.5: [17, 25]}


def search_steps(monkeypatch, *frontier_args):
    """Objective calls of each pattern_search of sweep_frontier(*frontier_args)."""
    steps = []

    def counted(objective, *args, **kwargs):
        steps.append(0)

        def step(*point_args):
            steps[-1] += 1
            return objective(*point_args)

        search(step, *args, **kwargs)

    search = pareto.pattern_search
    monkeypatch.setattr(pareto, "pattern_search", counted)
    sweep_frontier(*frontier_args)
    return steps


@pytest.mark.parametrize("b_m", sorted(SEARCH_STEPS))
def test_frontier_search_steps(b_m, monkeypatch, base_market, base_investor):
    steps = search_steps(monkeypatch, base_market, HaraParams(0.3, b_m), base_investor, SMALL)
    assert len(steps) == len(SEARCH_STEPS[b_m])
    assert all(n <= bound for n, bound in zip(steps, SEARCH_STEPS[b_m])), steps


# Objective calls of the x_u and level searches of two frontiers that crept,
# (r, gamma) -> bounds, b_M = b_I = 2.5, n_phi = 16 at the SMALL lattice:
# - (0.06, 0.5): while a stencil step kept h, a few levels' lanes moved a
#   stencil step at a time at an h long since halved, and the levels' search
#   took 1,190 calls (x_u 22); 242 (x_u 11) once such a step doubled h, up to
#   the start step; 20 (x_u 11) now that the model's point is offered however
#   far it lies, where a cap of 16 steps made the lanes on a ridge creep;
# - the base market: 101 (x_u 13) with that cap, 17 (x_u 13) without it.
# The bounds leave 5%, as above.
CREEP_STEPS = {(0.06, 0.5): [12, 21], (0.02, 0.4): [14, 18]}


def test_frontier_search_does_not_creep(monkeypatch):
    for (r, gamma), bounds in CREEP_STEPS.items():
        with monkeypatch.context() as patch:
            steps = search_steps(patch, MarketParams(r=r, gamma=gamma), HaraParams(0.3, 2.5), HaraParams(0.3, 2.5),
                                 GridSteps(dm=0.0125, dalpha=0.025, dc=0.025, n_phi=16))
        assert len(steps) == 2
        assert all(n <= bound for n, bound in zip(steps, bounds)), (r, gamma, steps)


@pytest.mark.parametrize("b_m", [0.65, 2.5])
def test_frontier_values_bound_fees_from_their_bind_lanes(b_m, monkeypatch, base_market, base_investor):
    # each fee the search values from the lanes its bind solved (investor
    # values alone, no second budget root) has the phi_M, phi_I, SR and t
    # that evaluate_fees gives it from that t, bit for bit
    manager, calls = HaraParams(0.3, b_m), []
    investor_values = pareto.investor_values

    def recorded(w, phi_m, *args):
        calls.append((w, phi_m, investor_values(w, phi_m, *args)))
        return calls[-1][2]

    monkeypatch.setattr(pareto, "investor_values", recorded)
    sweep_frontier(base_market, manager, base_investor, SMALL)
    assert len(calls) >= 10
    for w, phi_m, (phi_i, sharpe) in calls:
        batch = evaluate_fees(np.column_stack([w.env.m, w.env.alpha, w.env.c]), base_market, manager, base_investor,
                              w.t)
        for got, want in ((phi_m, batch.phi_M), (phi_i, batch.phi_I), (sharpe, batch.sharpe), (w.t, batch.t)):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("b_m", [0.65, 2.5])
def test_frontier_leaks_no_runtime_warning(b_m, base_market, base_investor):
    # the search's stencils meet -inf values (points where no coverage meets
    # the constraint), and the model fit must not leak warnings from them
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sweep_frontier(base_market, HaraParams(0.3, b_m), base_investor, SMALL)


# The SMALL frontier of the SLSQP multistart solver that preceded the batched
# search, at the base market with investor HaraParams(0.3, 0.65), per manager
# b_M: (phi_min, phi_I, phi_M - phi_min) at each level.  A negative slack is
# where that solver broke the constraint, so it could reach a higher phi_I.
FROZEN_SLSQP_FRONTIER = {
    0.65: [
        (1.8777672252192494, 3.2786165087807566, 0.05177650402790812),
        (1.9393371418728669, 3.277766842544838, -1.6724399642953358e-12),
        (2.0009070585264843, 3.2548268172826704, 0.0),
        (2.0624769751801018, 3.2265038508554134, 2.190914116795284e-11),
        (2.124046891833719, 3.1801258410865003, 4.440892098500626e-16),
        (2.1856168084873366, 3.1307984339641557, -3.599978093404843e-10),
        (2.2471867251409536, 3.082306219032183, 0.0),
        (2.308756641794571, 3.032042044006586, -2.686739719592879e-13),
        (2.3703265584481885, 2.974973920332197, -2.9531932455029164e-13),
        (2.431896475101806, 2.9099973047158016, -4.884981308350689e-14),
        (2.4934663917554234, 2.8360626430311946, -4.263256414560601e-14),
        (2.555036308409041, 2.751514346160217, -4.6629367034256575e-14),
        (2.6166062250626583, 2.6537535905875878, 0.0),
    ],
    2.5: [
        (-4.03341858965876, 3.268600137898219, 0.09433450800956722),
        (-3.8355445059556885, 3.2639736923334763, -1.554312234475219e-14),
        (-3.6376704222526164, 3.253468080761352, 4.7126746949288645e-12),
        (-3.4397963385495447, 3.2418479479785525, 1.5902834604730742e-12),
        (-3.241922254846473, 3.2289121115671, -3.879119248040297e-12),
        (-3.044048171143401, 3.2046215911182, -3.373249679583523e-09),
        (-2.846174087440329, 3.1649727043509706, 1.3873346915715956e-12),
        (-2.6483000037372575, 3.1335127128878177, -5.029043848026049e-11),
        (-2.450425920034186, 3.1020090853405797, 1.2803091919977305e-12),
        (-2.2525518363311137, 3.0678814628776916, -7.426503856322597e-12),
        (-2.054677752628042, 3.029292694267057, -7.638334409421077e-14),
        (-1.8568036689249703, 2.9841834426420406, -1.7763568394002505e-15),
        (-1.6589295852218984, 2.9267417321546976, 0.0),
    ],
    5.0: [
        (-30.428331142195752, 3.2657850316095596, 0.7005491058367568),
        (-28.306736797989156, 3.262310618413852, -6.547651310029323e-12),
        (-26.18514245378256, 3.2564788390858554, -1.0516032489249483e-12),
        (-24.06354810957596, 3.2499827023043357, -1.2379075542412465e-09),
        (-21.941953765369366, 3.242675116799803, -1.7691448306322854e-10),
        (-19.82035942116277, 3.234357326286922, -6.409095476556104e-12),
        (-17.69876507695617, 3.2247524853591756, -3.552713678800501e-15),
        (-15.577170732749575, 3.2031641578397796, -9.876544027065393e-13),
        (-13.45557638854298, 3.159792450539654, -1.3994139180795173e-11),
        (-11.333982044336384, 3.13104757277189, 5.329070518200751e-15),
        (-9.212387700129788, 3.1004996438861867, -1.5081269566508126e-12),
        (-7.090793355923189, 3.062433305491865, -8.881784197001252e-16),
        (-4.9691990117165945, 3.007469928461137, -2.6645352591003757e-15),
    ],
}


@pytest.mark.parametrize("b_m", sorted(FROZEN_SLSQP_FRONTIER))
def test_frozen_slsqp_frontier(b_m, base_market, base_investor):
    manager = HaraParams(0.3, b_m)
    frontier = sweep_frontier(base_market, manager, base_investor, SMALL)
    frozen = FROZEN_SLSQP_FRONTIER[b_m]
    assert len(frontier.points) == len(frozen)
    for p, (phi_min, phi_i, _) in zip(frontier.points, frozen):
        assert p.phi_min == pytest.approx(phi_min, rel=1e-12, abs=0.0)
        assert p.phi_I >= phi_i - 1e-9
        assert p.phi_M >= p.phi_min - 1e-12 * max(1.0, abs(p.phi_min))
    assert frontier.failures == ()


# Levels of the SMALL frontier whose optimum lies on a face of the fee box
# where the constraint binds: the coverage cap c = 30%, the face m = 5%, or
# the vertex of m = 5% and c = 0.  (r, gamma, b_M, b_I, phi_min, phi_I of the
# SLSQP solver that preceded the batched search, which met the constraint
# there, the bound flags of the optimum.)
FACE_LEVELS = [
    (0.02, 0.40, 0.65, 2.5, 2.0009070585264843, -0.4922190121448641, {"alpha_high", "c_high"}),
    (0.02, 0.40, 0.65, 2.5, 2.0624769751801018, -0.5574152688405897, {"alpha_high", "c_high"}),
    (0.02, 0.40, 0.35, 0.65, 0.8992133160427083, 3.2083263083389513, {"c_high"}),
    (-0.02, 0.70, 1.25, 0.35, -4.562143009867103, 2.22925668901311, {"m_high", "c_low"}),
    (0.0, 0.60, 5.0, 0.45, -10.891878171208635, 2.3712922608404288, {"m_high"}),
]


@pytest.mark.parametrize("r,gamma,b_m,b_i,phi_min,phi_i,flags", FACE_LEVELS)
def test_frontier_follows_faces_of_the_box(r, gamma, b_m, b_i, phi_min, phi_i, flags):
    market, manager, investor = MarketParams(r=r, gamma=gamma), HaraParams(0.3, b_m), HaraParams(0.3, b_i)
    point = solve_fbpo(phi_min, grid_scan(market, manager, investor, SMALL), market, manager, investor)
    assert point.phi_I >= phi_i - 1e-9
    assert point.phi_M >= phi_min - 1e-12 * max(1.0, abs(phi_min))
    assert set(point.bound_flags) == flags


def test_frontier_level_beats_a_feasible_fee_off_the_lattice(base_market):
    # G has two basins at this level, and the worse one holds phi_I -0.45134
    # against -0.44837 near (0, 40.37%, 30%): the search from the level's
    # best lattice fee must end in the better one
    manager, investor = HaraParams(0.3, 0.65), HaraParams(0.3, 2.5)
    scan = grid_scan(base_market, manager, investor, SMALL)
    level = float(np.linspace(scan.phi_M_min, scan.phi_M_max, SMALL.n_phi + 1)[1])
    known = evaluate_fees([(0.0, 0.405, 0.3)], base_market, manager, investor)
    assert known.phi_M[0] >= level
    point = solve_fbpo(level, scan, base_market, manager, investor)
    assert point.phi_I >= known.phi_I[0] - 1e-9
