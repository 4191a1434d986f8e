import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from firstloss import (
    ContractError,
    EnvelopeError,
    FeeStructure,
    HaraParams,
    MarketParams,
    PreferenceError,
    QuadratureError,
    SolveError,
    build_envelope,
    concavify,
    evaluate_fee,
    evaluate_fees,
    quadrature,
    valuation,
    wealth,
)
from firstloss.cli import main
from firstloss.concavify import envelope_lanes
from firstloss.contract import fee_label
from firstloss.roots import XRTOL
from firstloss.wealth import solve_budget

from conftest import fee_pct

# a coarse cover of the fee box; with b_M in {0.65, 2.5, 5.0} it holds cases
# A, B and C, and for b_M > 1 the inadmissible (m = 0, c = 30%) sliver
BOX = [
    fee_pct(m, a, c)
    for m in (0.0, 2.5, 5.0)
    for a in (0.1, 10.0, 30.0, 50.0)
    for c in (0.0, 10.0, 20.0, 30.0)
]
# the published fees quoted in the tests
PUBLISHED = [
    fee_pct(*f)
    for f in ((0, 20, 0), (0.5, 20, 0), (1, 20, 0), (1.5, 20, 0), (2, 20, 0), (0, 30, 10), (0, 40, 10),
              (0, 50, 10), (0, 30, 20), (5, 35.5, 26), (5, 37.5, 26), (4.8, 50, 30), (5, 10, 26), (0, 10, 25))
]


# The outputs of the scalar chain (build_envelope, solve_y_star and
# evaluate_fee, one fee at a time, with brentq roots) that preceded the lane
# engine, at the base market with investor HaraParams(0.3, 0.65): per b_M, for
# each fee of BOX + PUBLISHED, its case ('-' where the fee is inadmissible),
# theta1, slope, u_at_zero, band table, y*, phi_M, phi_I and Sharpe ratio; and
# the value and wealth JSON (without the config echo) of two published fees.
SCALAR_CHAIN = json.loads((Path(__file__).with_name("scalar_chain.json")).read_text())


def _frozen_lanes(b_m):
    frozen = SCALAR_CHAIN["lanes"][str(b_m)]
    assert [tuple(r["fee"]) for r in frozen] == [(f.m, f.alpha, f.c) for f in BOX + PUBLISHED]
    return frozen, [r for r in frozen if r["case"] != "-"]


@pytest.mark.parametrize("b_m", [0.65, 2.5, 5.0])
def test_matches_scalar_path(b_m, base_market, base_investor):
    frozen, solved = _frozen_lanes(b_m)
    manager = HaraParams(0.3, b_m)
    batch = evaluate_fees([r["fee"] for r in frozen], base_market, manager, base_investor)
    assert batch.case.tolist() == [r["case"] for r in frozen]
    ok = batch.feasible
    assert ok.tolist() == [r["case"] != "-" for r in frozen]
    assert np.isnan([batch.phi_M[~ok], batch.phi_I[~ok], batch.sharpe[~ok]]).all()
    # the Sharpe ratio keeps 1e-10: its variance cancels at SR near 0.05
    for key, rtol in (("phi_M", 1e-12), ("phi_I", 1e-12), ("sharpe", 1e-10)):
        np.testing.assert_allclose(getattr(batch, key)[ok], [r[key] for r in solved], rtol=rtol, atol=0.0,
                                   err_msg=key)
    env = envelope_lanes(*np.array([r["fee"] for r in solved]).T, manager, base_market.v0)
    np.testing.assert_allclose(np.exp(solve_budget(env, base_market, b_m)), [r["y_star"] for r in solved],
                               rtol=1e-12, atol=0.0)
    assert set(batch.case) == ({"A", "B"} if b_m < 1.0 else {"A", "B", "C", "-"})


def test_result_does_not_depend_on_batch(base_market, base_investor):
    # more fees than one block holds, so the subsets regroup lanes across blocks
    rng = np.random.default_rng(7)
    n = 2 * valuation._LANES + 100
    fees = np.column_stack([rng.uniform(0.0, 0.05, n), rng.uniform(0.001, 0.5, n), rng.uniform(0.0, 0.3, n)])
    fees[5] = (0.0, 0.2, 0.3)            # inadmissible for b_M > 1
    manager = HaraParams(0.3, 2.5)
    full = evaluate_fees(fees, base_market, manager, base_investor)
    assert not full.feasible[5] and full.feasible.sum() == n - 1
    for rows in (np.arange(0, n, 5), np.arange(valuation._LANES - 40, valuation._LANES + 40), np.array([n - 1])):
        part = evaluate_fees(fees[rows], base_market, manager, base_investor)
        for key in ("phi_M", "phi_I", "sharpe", "case", "feasible"):
            np.testing.assert_array_equal(getattr(part, key), getattr(full, key)[rows], err_msg=key)


def test_sorted_cut_blocks_equal_each_fee_alone(monkeypatch, base_market, base_investor):
    # blocks of 64 over a few hundred fees of cases A, B and C: sorted by
    # band count, each block's table cut to the rows its lanes use, every
    # lane still equals its fee evaluated alone
    monkeypatch.setattr(valuation, "_LANES", 64)
    tables, solve = [], valuation.solve_budget

    def recorded(env, *args):
        tables.append((env.coef.shape[0], set(env.case.tolist())))
        return solve(env, *args)

    monkeypatch.setattr(valuation, "solve_budget", recorded)
    rng = np.random.default_rng(11)
    n = 300
    fees = np.column_stack([rng.uniform(0.0, 0.05, n), rng.uniform(0.001, 0.5, n), rng.uniform(0.0, 0.3, n)])
    manager = HaraParams(0.3, 2.5)
    batch = evaluate_fees(fees, base_market, manager, base_investor)
    assert set(batch.case) == {"A", "B", "C"}
    assert len(tables) == -(-n // 64)
    assert [rows for rows, _ in tables] == [max("-ABC".index(c) for c in cases) for _, cases in tables]
    assert (1, {"A"}) in tables
    for i, fee in enumerate(fees):
        alone = evaluate_fee(FeeStructure(*fee), base_market, manager, base_investor)
        assert (alone.case, alone.phi_M, alone.phi_I, alone.sharpe) == (
            batch.case[i], batch.phi_M[i], batch.phi_I[i], batch.sharpe[i]), i

    # phi_M's gradient of case A fees in a one-row block and beside a case C fee
    case_a = fees[batch.case == "A"][:40]
    del tables[:]
    alone = valuation.manager_values(case_a, base_market, manager, base_investor)
    beside = valuation.manager_values(np.vstack([case_a, fees[batch.case == "C"][:1]]), base_market, manager,
                                      base_investor)
    assert [rows for rows, _ in tables] == [1, 3]
    for got, want in zip(beside[:3], alone[:3]):
        assert np.array_equal(got[:len(case_a)], want)


def test_gathered_lanes_equal_their_own_blocks(base_market, base_investor):
    # lanes from blocks whose band tables were cut to 1, 2 and 3 rows,
    # gathered into one table of 3 rows in a shuffled order: each lane's
    # values are those of its own block, exactly
    manager = HaraParams(0.3, 2.5)
    rng = np.random.default_rng(5)
    fees = np.column_stack([rng.uniform(0.0, 0.05, 300), rng.uniform(0.001, 0.5, 300), rng.uniform(0.0, 0.3, 300)])
    case = evaluate_fees(fees, base_market, manager, base_investor).case
    a, b, c = (fees[case == k] for k in "ABC")
    groups = [a[:5], np.vstack([a[5:7], b[:4]]), np.vstack([a[7:9], b[4:6], c[:3]])]
    blocks = [valuation.manager_values(g, base_market, manager, base_investor)[3] for g in groups]
    assert [(len(idx), len(w.d_lo)) for ((idx, w),) in blocks] == [(5, 1), (6, 2), (7, 3)]
    dest = np.split(rng.permutation(18), [5, 11])
    parts = [(w, rng.permutation(len(idx)), d) for ((idx, w),), d in zip(blocks, dest)]
    gathered = wealth.gather_lanes(parts, 18, base_market)
    assert len(gathered.d_lo) == 3
    values = lambda w: (valuation.manager_value_lanes(w, manager), *wealth.moment_lanes(w, manager.b),
                        valuation.investor_value_lanes(w, manager, base_investor))
    every = values(gathered)
    for w, src, d in parts:
        for got, alone in zip(every, values(w)):
            assert (got[d] == alone[src]).all()
    # a lane no part fills is NaN
    sparse = wealth.gather_lanes(parts[:1], 18, base_market)
    empty = np.setdiff1d(np.arange(18), dest[0])
    assert np.isnan(sparse.t[empty]).all() and (sparse.env.case[empty] == "-").all()


def test_quadrature_failure_in_a_later_block_names_its_fee(monkeypatch, base_market, base_manager, base_investor):
    # a lane that stalls in the quadrature's second block of lanes is named
    # by its own fee
    fees = np.stack(np.meshgrid(np.linspace(0.0, 0.05, 11), np.linspace(0.05, 0.5, 10), np.linspace(0.0, 0.3, 11),
                                indexing="ij"), axis=-1).reshape(-1, 3)
    w, _ = valuation._manager_block(fees, base_market, base_manager, None)
    quad = np.flatnonzero(w.d_hi[0] < valuation._W_CUTOFF)
    stalled = quadrature._BLOCK + 7
    assert quad.size > stalled
    integrate = valuation.integrate_lanes

    def poisoned(f, lo, hi):
        return integrate(lambda x, lanes: np.where(lanes[:, None] == stalled, math.nan, f(x, lanes)), lo, hi)

    monkeypatch.setattr(valuation, "integrate_lanes", poisoned)
    with pytest.raises(QuadratureError) as info:
        valuation.investor_value_lanes(w, base_manager, base_investor)
    assert str(info.value).endswith(f" for fee {fee_label(*fees[quad[stalled]])}")


def _budget_lanes(env, market, b, t):
    # h(e^t) and dh/dt per lane
    log_lo, log_hi, log_support = wealth._log_edges(env)
    return wealth._budget(market, b, env.coef, env.const, log_lo, log_hi, env.theta1, log_support, t)


def _budget_gap(env, market, b, t):
    return _budget_lanes(env, market, b, t)[0] - market.v0


@pytest.mark.parametrize("b_m", [0.65, 2.5, 5.0])
def test_budget_slope_matches_central_difference(b_m, base_market):
    # dh/dt in closed form against a central difference of budget() on the
    # case A and B lanes (and C for b_M > 1), at each root and 0.5 either side
    # of it: without V's jump from theta1 to 0 at the support edge the closed
    # form misses part of the slope
    _, solved = _frozen_lanes(b_m)
    manager, step = HaraParams(0.3, b_m), 1e-5
    fees = np.array([r["fee"] for r in solved])
    env = envelope_lanes(*fees.T, manager, base_market.v0)
    envelopes = [build_envelope(FeeStructure(*fee), manager, base_market.v0) for fee in fees]
    root = solve_budget(env, base_market, b_m)
    h = lambda envelope, x: wealth.budget(envelope, base_market, math.exp(x))
    for t in (root - 0.5, root, root + 0.5):
        central = [(h(e, x + step) - h(e, x - step)) / (2.0 * step) for e, x in zip(envelopes, t)]
        np.testing.assert_allclose(_budget_lanes(env, base_market, b_m, t)[1], central, rtol=1e-7, atol=0.0)


@pytest.mark.parametrize("b_m", [0.65, 2.5, 5.0])
def test_warm_budget_root_agrees_with_cold(b_m, base_market):
    _, solved = _frozen_lanes(b_m)
    env = envelope_lanes(*np.array([r["fee"] for r in solved]).T, HaraParams(0.3, b_m), base_market.v0)
    cold = solve_budget(env, base_market, b_m)
    # guesses up to 0.05 off the root on either side
    offsets = np.random.default_rng(3).uniform(-0.05, 0.05, cold.size)
    warm = solve_budget(env, base_market, b_m, cold + offsets)
    # y* to rel 1e-12, scalar_chain.json's gate: where the gap's terms cancel
    # (alpha = 0.1%) its rounding alone moves a root by up to ~100 ulps of t
    np.testing.assert_allclose(warm, cold, rtol=0.0, atol=1e-12)
    assert np.median(np.abs(warm - cold) / (XRTOL * (1.0 + np.abs(cold)))) <= 2.0
    for t in (cold, warm):
        assert (np.abs(_budget_gap(env, base_market, b_m, t)) <= 1e-11 * base_market.v0).all()


def _assert_cold_root(env, market, b, t, cold):
    np.testing.assert_allclose(t, cold, rtol=0.0, atol=1e-12)
    assert (np.abs(_budget_gap(env, market, b, t)) <= 1e-11 * market.v0).all()


def test_setup_fee_matches_the_bench_reference_exactly(base_market, base_manager, base_investor):
    # bench/run.py checks the value launch at (0, 20%, 0) against this lattice
    # row with ==, so a last-bit change in phi_M or phi_I there fails it
    with np.load(Path(__file__).parents[1] / "bench" / "reference" / "lattice.npz") as ref:
        (row,) = np.flatnonzero(np.all(ref["fees"] == (0.0, 0.2, 0.0), axis=1))
        expected = float(ref["phi_M"][row]), float(ref["phi_I"][row])
    got = evaluate_fee(fee_pct(0, 20, 0), base_market, base_manager, base_investor)
    assert (got.phi_M, got.phi_I) == expected


def test_warm_budget_root_from_wrong_or_missing_guesses(base_market):
    _, solved = _frozen_lanes(2.5)
    env = envelope_lanes(*np.array([r["fee"] for r in solved]).T, HaraParams(0.3, 2.5), base_market.v0)
    cold = solve_budget(env, base_market, 2.5)
    # a guess 30 or 40 off in t: Newton's method walks from it to the root;
    # a guess that is not finite starts the lane cold, at t = 0
    for guess in (cold - 40.0, cold - 30.0, cold + 30.0, cold + 40.0):
        _assert_cold_root(env, base_market, 2.5, solve_budget(env, base_market, 2.5, guess), cold)
    for guess in (-math.inf, math.inf, math.nan):
        np.testing.assert_array_equal(solve_budget(env, base_market, 2.5, np.full(cold.size, guess)), cold)
    # NaN lanes start cold, the others warm
    guess = np.where(np.arange(cold.size) % 2 == 0, math.nan, cold + 0.01)
    mixed = solve_budget(env, base_market, 2.5, guess)
    np.testing.assert_array_equal(mixed[::2], cold[::2])
    _assert_cold_root(env, base_market, 2.5, mixed, cold)


def test_warm_budget_root_at_the_domain_edge(base_market):
    # c - m just inside the manager's a_M / v0 = 30%: a guess far off on
    # either side, or none, still reaches the cold root
    env = envelope_lanes([0.0], [0.403687], [0.299976], HaraParams(0.3, 0.65), base_market.v0)
    cold = solve_budget(env, base_market, 0.65)
    for guess in (-40.0, -30.0, -5.0, cold[0] + 5.0, 30.0, 40.0, -math.inf, math.inf, math.nan):
        _assert_cold_root(env, base_market, 0.65, solve_budget(env, base_market, 0.65, np.array([guess])), cold)


def test_budget_root_across_a_flat_stretch_of_h():
    # at (0, 0.625%, 30%) with b_M = 0.35, h(e^t) is nearly flat for t in
    # [-3, -2] (h' down to -2.5e-6), right of the root t = -3.509: from
    # t = 0, Newton's method cycled between t = -6.78 and -3.14, each point
    # inside the bracket, and ended 2.4e-2 from v0
    market = MarketParams(r=0.025, gamma=0.394)
    env = envelope_lanes([0.0], [0.00625], [0.3], HaraParams(0.3, 0.35), market.v0)
    cold = solve_budget(env, market, 0.35)
    for guess in (-5.0, -3.0, -2.0, -1.0, 0.0, math.nan):
        _assert_cold_root(env, market, 0.35, solve_budget(env, market, 0.35, np.array([guess])), cold)


def test_warm_lane_alone_equals_the_mixed_call(base_market):
    _, solved = _frozen_lanes(0.65)
    env = envelope_lanes(*np.array([r["fee"] for r in solved]).T, HaraParams(0.3, 0.65), base_market.v0)
    cold = solve_budget(env, base_market, 0.65)
    guess = cold + np.random.default_rng(5).uniform(-0.2, 0.2, cold.size)
    guess[::3] = math.nan
    guess[1::7] += 30.0
    mixed = solve_budget(env, base_market, 0.65, guess)
    for i in range(cold.size):
        lane = env._replace(**{f: getattr(env, f)[..., i:i + 1] for f in env._fields})
        assert solve_budget(lane, base_market, 0.65, guess[i:i + 1])[0] == mixed[i]


@pytest.mark.parametrize("b_m", [0.65, 2.5, 5.0])
def test_envelope_lanes_match_scalar(b_m, base_market):
    frozen, solved = _frozen_lanes(b_m)
    manager, v0 = HaraParams(0.3, b_m), base_market.v0
    lanes = envelope_lanes(*np.array([r["fee"] for r in solved]).T, manager, v0)
    assert lanes.case.tolist() == [r["case"] for r in solved]
    for i, r in enumerate(solved):
        for key in ("theta1", "slope", "u_at_zero"):
            assert getattr(lanes, key)[i] == pytest.approx(r[key], rel=1e-12, abs=0.0), (r["fee"], key)
        table = np.array(r["bands"] + [[0.0, 0.0, 0.0, 0.0]] * (3 - len(r["bands"])))
        got = np.column_stack([lanes.u_lo[:, i], lanes.u_hi[:, i], lanes.coef[:, i], lanes.const[:, i]])
        np.testing.assert_allclose(got, table, rtol=1e-12, atol=0.0, err_msg=str(r["fee"]))
        # the one-fee envelope is this lane
        env = build_envelope(FeeStructure(*r["fee"]), manager, v0)
        assert (env.case, env.theta1, env.slope) == (r["case"], lanes.theta1[i], lanes.slope[i])
    # the utility is -inf at the worst payoff of the refused fees (b_M > 1)
    refused = [r["fee"] for r in frozen if r["case"] == "-"]
    assert bool(refused) == (b_m > 1.0)
    for m, alpha, c in refused:
        with pytest.raises(PreferenceError) as info:
            envelope_lanes([0.0, m], [0.2, alpha], [0.0, c], manager, v0)
        assert str(info.value).endswith(f" for fee {fee_label(m, alpha, c)}")


@pytest.mark.parametrize("key", sorted(SCALAR_CHAIN["cli"]))
def test_cli_json_matches_scalar_path(key, tmp_path):
    command, fee = key.split()
    assert main(["--set", f"run.outdir={tmp_path}", command, "--fee", fee]) == 0
    doc = json.loads((tmp_path / f"{command}.json").read_text())
    frozen = SCALAR_CHAIN["cli"][key]
    assert doc.keys() == frozen.keys() | {"config"}
    for name, value in frozen.items():
        if isinstance(value, (str, dict)):
            assert doc[name] == value, name
        else:
            assert doc[name] == pytest.approx(value, rel=1e-10 if name == "sharpe" else 1e-12, abs=0.0), name


def test_package_does_not_load_scipy_optimize():
    # the package's only scipy dependency is scipy.special.ndtr
    code = "import sys, firstloss.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("row,field", [
    ((0.06, 0.2, 0.0), "management fee"),
    ((0.0, 0.0, 0.0), "performance fee"),
    ((0.0, 0.2, -1e-9), "first-loss coverage"),
    ((0.0, float("nan"), 0.1), "performance fee"),
])
def test_row_outside_box_names_fee(row, field, base_market, base_manager, base_investor):
    with pytest.raises(ContractError, match=field) as info:
        evaluate_fees([(0.0, 0.2, 0.0), row], base_market, base_manager, base_investor)
    m, a, c = (100.0 * x for x in row)
    assert str(info.value).endswith(f" in fee ({m:.4f}%, {a:.4f}%, {c:.4f}%)")
    assert not hasattr(info.value, "__notes__")


def test_utility_domain_edge_is_inadmissible(base_market, base_manager):
    # the investor's worst payoff at (5%, 20%, 0) is 1e-13 v0 below her
    # utility's domain: admissibility tests the base _power evaluates, so the
    # per-point path refuses the fee and the batch marks it infeasible
    investor = HaraParams(0.05 - 1e-13, 0.65)
    fee = fee_pct(5, 20, 0)
    with pytest.raises(PreferenceError, match="outside the utility domain"):
        evaluate_fee(fee, base_market, base_manager, investor)
    batch = evaluate_fees([(0.0, 0.2, 0.0), (fee.m, fee.alpha, fee.c)], base_market, base_manager, investor)
    assert batch.feasible.tolist() == [True, False]
    assert np.isfinite(batch.phi_I[0]) and np.isnan(batch.phi_I[1]) and batch.case[1] == "-"


def test_batch_builds_no_scalar_envelope(monkeypatch, base_market, base_investor):
    calls = []

    def counted(*args):
        calls.append(args)
        return build_envelope(*args)

    for module in (concavify, wealth, valuation):
        monkeypatch.setattr(module, "build_envelope", counted, raising=False)
    fees = BOX + PUBLISHED
    batch = evaluate_fees([(f.m, f.alpha, f.c) for f in fees], base_market, HaraParams(0.3, 2.5), base_investor)
    assert set(batch.case) == {"A", "B", "C", "-"}
    assert calls == []


FAILING = fee_pct(2.5, 30, 10)


def _lanes_of(m, alpha, c, fee):
    return (m == fee.m) & (alpha == fee.alpha) & (c == fee.c)


def _worthless(real):
    # a payoff worth nothing in every state cannot meet the budget
    def build(m, alpha, c, *args):
        env = real(m, alpha, c, *args)
        hit = _lanes_of(m, alpha, c, FAILING)
        return env._replace(coef=np.where(hit, 0.0, env.coef), const=np.where(hit, 0.0, env.const))
    return build


def _no_tangency(real):
    def build(m, alpha, c, *args):
        if _lanes_of(m, alpha, c, FAILING).any():
            raise EnvelopeError(f"no tangency bracket for fee {FAILING}")     # as envelope_lanes names it
        return real(m, alpha, c, *args)
    return build


@pytest.mark.parametrize("error,patch", [
    (SolveError, lambda mp: mp.setattr(valuation, "envelope_lanes", _worthless(valuation.envelope_lanes))),
    (EnvelopeError, lambda mp: mp.setattr(valuation, "envelope_lanes", _no_tangency(valuation.envelope_lanes))),
    (QuadratureError, lambda mp: mp.setattr(quadrature, "_MAX_DOUBLINGS", 0)),
])
def test_lane_failure_keeps_type_and_names_fee(error, patch, monkeypatch, base_market, base_manager, base_investor):
    fees = [fee_pct(0, 20, 0), FAILING, fee_pct(5, 35.5, 26)]
    patch(monkeypatch)
    with pytest.raises(error) as info:
        evaluate_fees([(f.m, f.alpha, f.c) for f in fees], base_market, base_manager, base_investor)
    # every lane integrates, so the quadrature fails at the first fee
    failed = fees[0] if error is QuadratureError else fees[1]
    assert str(info.value).endswith(f" for fee {failed}")
    assert not hasattr(info.value, "__notes__")
