import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import firstloss
from firstloss import (
    ContractError,
    FeeStructure,
    InputError,
    NumericalError,
    PreferenceError,
    build_envelope,
    envelope_eval,
    investor_payoff,
    manager_payoff,
)
from firstloss.contract import _BOUND_TOL, FEE_BOX, in_fee_box

from conftest import fee_pct

fees = st.builds(
    FeeStructure,
    m=st.floats(0.0, 0.05),
    alpha=st.floats(0.001, 0.5),
    c=st.floats(0.0, 0.3),
)


def test_investor_branches():
    fee = fee_pct(2, 40, 10)
    assert investor_payoff(fee, 1.0, 1.2) == pytest.approx(1.108, abs=1e-14)
    assert investor_payoff(fee, 1.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert investor_payoff(fee, 1.0, 0.5) == pytest.approx(0.58, abs=1e-14)


def test_manager_branches():
    fee = fee_pct(2, 40, 10)
    assert manager_payoff(fee, 1.0, 1.2) == pytest.approx(0.092, abs=1e-14)
    assert manager_payoff(fee, 1.0, 0.5) == pytest.approx(-0.08, abs=1e-14)
    flat = fee_pct(0, 20, 0)
    assert manager_payoff(flat, 1.0, 0.8) == 0.0


def test_negative_fund_value_rejected():
    fee = fee_pct(2, 40, 10)
    with pytest.raises(ContractError):
        investor_payoff(fee, 1.0, -0.1)
    with pytest.raises(ContractError):
        manager_payoff(fee, 1.0, -0.1)


def test_payoff_maps_on_arrays_match_floats(base_manager):
    # an array of fund values gives, element for element, each float's payoff
    fee = fee_pct(3, 35, 15)
    env = build_envelope(fee, base_manager, 1.0)
    # and the branch edges: both kinks and the end of the envelope's chord
    v = np.concatenate([np.linspace(0.0, 4.0, 1001), [env.kink1, env.kink2, env.theta1]])
    for payoff in (investor_payoff, manager_payoff):
        assert (payoff(fee, 1.0, v) == [payoff(fee, 1.0, float(x)) for x in v]).all()
    assert (envelope_eval(env, v) == [envelope_eval(env, float(x)) for x in v]).all()
    bad = np.array([0.5, -0.1, 1.0])
    for payoff in (investor_payoff, manager_payoff):
        with pytest.raises(ContractError):
            payoff(fee, 1.0, bad)
    with pytest.raises(PreferenceError):
        envelope_eval(env, bad)


def test_every_error_derives_from_one_exit_code_base():
    # the CLI exits 1 on an InputError and 2 on a NumericalError, so each
    # error the package defines is exactly one of them
    bases = (InputError, NumericalError)
    errors = {}
    for info in pkgutil.iter_modules(firstloss.__path__):
        module = importlib.import_module(f"firstloss.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and issubclass(cls, BaseException) and cls not in bases:
                assert sum(issubclass(cls, base) for base in bases) == 1, name
                errors[name] = InputError if issubclass(cls, InputError) else NumericalError
    assert errors == {
        **dict.fromkeys(["ConfigError", "ContractError", "MarketError", "PreferenceError", "SelectionError",
                         "OracleError"], InputError),
        **dict.fromkeys(["SolveError", "EnvelopeError", "QuadratureError", "MomentRangeError",
                         "InfeasibleReservation"], NumericalError),
    }


def test_fee_box_enforced():
    with pytest.raises(ContractError):
        FeeStructure(0.06, 0.2, 0.0)
    with pytest.raises(ContractError):
        FeeStructure(0.02, 0.0, 0.0)
    with pytest.raises(ContractError):
        FeeStructure(0.02, 0.2, 0.31)


@given(fee=fees, v=st.floats(0.0, 10.0))
@settings(max_examples=300, deadline=None)
def test_split_identity(fee, v):
    total = investor_payoff(fee, 1.0, v) + manager_payoff(fee, 1.0, v)
    assert total == pytest.approx(v, abs=1e-14)


@given(fee=fees, v=st.floats(0.0, 10.0), dv=st.floats(1e-9, 1.0))
@settings(max_examples=300, deadline=None)
def test_monotone_and_lipschitz(fee, v, dv):
    for payoff in (investor_payoff, manager_payoff):
        lo = payoff(fee, 1.0, v)
        hi = payoff(fee, 1.0, v + dv)
        assert hi >= lo - 1e-12
        assert hi - lo <= dv + 1e-12


@given(fee=fees, v=st.floats(0.0, 10.0))
@settings(max_examples=300, deadline=None)
def test_floors(fee, v):
    assert manager_payoff(fee, 1.0, v) >= (fee.m - fee.c) * 1.0 - 1e-14
    assert investor_payoff(fee, 1.0, v) >= (fee.c - fee.m) * 1.0 - 1e-14


def test_branch_slopes():
    fee = fee_pct(3, 35, 15)
    eps = 1e-7
    # interior points of the three branches
    for v, slope_i, slope_m in ((0.5, 1.0, 0.0), (0.95, 0.0, 1.0), (2.0, 1.0 - fee.alpha, fee.alpha)):
        di = (investor_payoff(fee, 1.0, v + eps) - investor_payoff(fee, 1.0, v)) / eps
        dm = (manager_payoff(fee, 1.0, v + eps) - manager_payoff(fee, 1.0, v)) / eps
        assert di == pytest.approx(slope_i, abs=1e-6)
        assert dm == pytest.approx(slope_m, abs=1e-6)


def _near_bounds(lo, hi):
    # each bound, and a hair inside and outside its tolerance, among other values
    edges = [x + d for x in (lo, hi) for d in (0.0, -_BOUND_TOL, _BOUND_TOL, -2 * _BOUND_TOL, 2 * _BOUND_TOL)]
    return st.one_of(st.sampled_from(edges + [math.nan, math.inf, -math.inf]),
                     st.floats(lo - 0.01, hi + 0.01), st.floats())


@given(st.tuples(*(_near_bounds(lo, hi) for _, lo, hi in FEE_BOX)))
@settings(max_examples=500, deadline=None)
def test_in_fee_box_is_fee_structure_check(fee):
    try:
        FeeStructure(*fee)
        constructs = True
    except ContractError:
        constructs = False
    assert bool(in_fee_box(*(np.array([x]) for x in fee))[0]) is constructs
