import dataclasses

import numpy as np
import pytest

from firstloss import (
    EnvelopeError,
    HaraParams,
    PreferenceError,
    QuadratureError,
    SolveError,
    evaluate_fee,
    evaluate_fees,
    quadrature,
    valuation,
)

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


@pytest.mark.parametrize("b_m", [0.65, 2.5, 5.0])
def test_matches_scalar_path(b_m, base_market, base_investor):
    manager = HaraParams(0.3, b_m)
    fees = BOX + PUBLISHED
    batch = evaluate_fees([(f.m, f.alpha, f.c) for f in fees], base_market, manager, base_investor)
    cases = set()
    for i, fee in enumerate(fees):
        try:
            ref = evaluate_fee(fee, base_market, manager, base_investor)
        except PreferenceError:
            assert not batch.feasible[i] and batch.case[i] == "-", fee
            assert np.isnan([batch.phi_M[i], batch.phi_I[i], batch.sharpe[i]]).all()
            continue
        assert batch.feasible[i] and batch.case[i] == ref.case_tag.value, fee
        assert batch.phi_M[i] == pytest.approx(ref.phi_M, rel=1e-10, abs=0.0), fee
        assert batch.phi_I[i] == pytest.approx(ref.phi_I, rel=1e-10, abs=0.0), fee
        assert batch.sharpe[i] == pytest.approx(ref.sharpe, rel=1e-10, abs=0.0), fee
        cases.add(ref.case_tag.value)
    assert cases == ({"A", "B"} if b_m < 1.0 else {"A", "B", "C"})
    assert (~batch.feasible).any() == (b_m > 1.0)


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


def _worthless(real):
    # a payoff worth nothing in every state cannot meet the budget
    def build(fee, *args):
        env = real(fee, *args)
        if fee == fee_pct(2.5, 30, 10):
            env = dataclasses.replace(env, bands=tuple(b._replace(coef=0.0, const=0.0) for b in env.bands))
        return env
    return build


def _no_tangency(real):
    def build(fee, *args):
        if fee == fee_pct(2.5, 30, 10):
            raise EnvelopeError("no tangency bracket")
        return real(fee, *args)
    return build


@pytest.mark.parametrize("error,patch", [
    (SolveError, lambda mp: mp.setattr(valuation, "build_envelope", _worthless(valuation.build_envelope))),
    (EnvelopeError, lambda mp: mp.setattr(valuation, "build_envelope", _no_tangency(valuation.build_envelope))),
    (QuadratureError, lambda mp: mp.setattr(quadrature, "_MAX_DOUBLINGS", 0)),
])
def test_lane_failure_keeps_type_and_names_fee(error, patch, monkeypatch, base_market, base_manager, base_investor):
    fees = [fee_pct(0, 20, 0), fee_pct(2.5, 30, 10), fee_pct(5, 35.5, 26)]
    patch(monkeypatch)
    with pytest.raises(error) as info:
        evaluate_fees([(f.m, f.alpha, f.c) for f in fees], base_market, base_manager, base_investor)
    # every lane integrates, so the quadrature fails at the first fee
    failed = fees[0] if error is QuadratureError else fees[1]
    assert info.value.__notes__ == [f"lattice evaluation failed at fee {failed}"]
