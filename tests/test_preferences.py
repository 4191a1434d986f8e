import math

import numpy as np
import pytest

from firstloss import HaraParams, PreferenceError, hara_utility, manager_composite_utility
from firstloss.concavify import envelope_lanes
from firstloss.preferences import _power, admissible_lanes, require_admissible

from conftest import fee_pct


def test_hara_examples():
    assert hara_utility(HaraParams(0.3, 0.65), 0.7) == pytest.approx(1.0 / 0.35, rel=1e-14)
    assert hara_utility(HaraParams(0.3, 0.65), -0.3) == 0.0
    assert hara_utility(HaraParams(0.0, 0.5), 4.0) == pytest.approx(4.0, rel=1e-14)


def test_hara_domain_errors():
    with pytest.raises(PreferenceError):
        hara_utility(HaraParams(0.3, 0.65), -0.31)
    with pytest.raises(PreferenceError):
        hara_utility(HaraParams(0.3, 2.5), -0.3)
    with pytest.raises(PreferenceError):
        HaraParams(0.3, 1.0)
    with pytest.raises(PreferenceError):
        HaraParams(0.3, 1.0 + 1e-10)
    with pytest.raises(PreferenceError):
        HaraParams(0.3, -0.2)
    for a, b in ((math.inf, 0.65), (-math.inf, 2.5), (math.nan, 0.65), (0.3, math.inf), (0.3, math.nan)):
        with pytest.raises(PreferenceError, match="must be finite"):
            HaraParams(a, b)


@pytest.mark.parametrize("exponent", [0.35, -0.65, -1e300])
@pytest.mark.parametrize("base", [0.0, 1e-301, -1e-12, 1.3, 1e300])
def test_power_of_a_float_is_its_one_lane_array(base, exponent):
    # one power function: a float base gives a float, bit for bit the lane's
    # value, or the lane's error message
    try:
        got = _power(base, exponent)
    except PreferenceError as exc:
        with pytest.raises(PreferenceError) as lane:
            _power(np.array([base]), exponent)
        assert str(lane.value) == str(exc)
        return
    assert type(got) is float
    assert _power(np.array([base]), exponent).tobytes() == np.array([got]).tobytes()


def test_composite_utility_flat_then_continuous(base_manager):
    fee = fee_pct(2, 40, 10)
    v0 = 1.0
    k1, k2 = (1.0 + fee.m - fee.c) * v0, (1.0 + fee.m) * v0
    flat_val = manager_composite_utility(fee, base_manager, v0, 0.0)
    for v in np.linspace(0.0, k1 - 1e-9, 50):
        assert manager_composite_utility(fee, base_manager, v0, v) == flat_val
    for kink in (k1, k2):
        left = manager_composite_utility(fee, base_manager, v0, kink - 1e-9)
        right = manager_composite_utility(fee, base_manager, v0, kink + 1e-9)
        assert left == pytest.approx(right, abs=1e-8)
        assert abs(
            manager_composite_utility(fee, base_manager, v0, kink) - right
        ) <= 1e-8


def test_composite_utility_frozen_value(base_manager):
    # fee (0, 20, 0): payoff below v0 is zero, so the utility is the constant
    # 0.3^0.35 / 0.35 = 1.874668123554 (30-digit arithmetic oracle)
    val = manager_composite_utility(fee_pct(0, 20, 0), base_manager, 1.0, 0.5)
    assert val == pytest.approx(1.874668123554, abs=1e-12)


def test_composite_concave_kink(base_manager):
    # middle-piece slope at the upper kink dominates the last-piece slope
    fee = fee_pct(2, 40, 10)
    v0 = 1.0
    k2 = (1.0 + fee.m) * v0
    eps = 1e-7
    left = (
        manager_composite_utility(fee, base_manager, v0, k2 - eps)
        - manager_composite_utility(fee, base_manager, v0, k2 - 2 * eps)
    ) / eps
    right = (
        manager_composite_utility(fee, base_manager, v0, k2 + 2 * eps)
        - manager_composite_utility(fee, base_manager, v0, k2 + eps)
    ) / eps
    assert left >= right


def _cases(fees, manager):
    # the concavification regime of each fee (m, alpha, c), in one call
    m, alpha, c = np.array(fees).T
    return envelope_lanes(m, alpha, c, manager, 1.0).case.tolist()


def test_classify_examples(base_manager):
    fees = [(0.03, 0.2, 0.0), (0.05, 0.375, 0.26), (0.05, 0.1, 0.26)]
    assert _cases(fees, base_manager) == ["A", "A", "B"]
    # high manager risk aversion with high coverage reaches the third regime
    assert _cases([(0.0, 0.1, 0.25)], HaraParams(0.3, 5.0)) == ["C"]


def test_cases_partition_admissible_box(base_manager):
    # exactly one region predicate holds per fee
    box = [(m, alpha, c) for m in np.linspace(0.0, 0.05, 6) for alpha in np.linspace(0.001, 0.5, 12)
           for c in np.linspace(0.0, 0.3, 7)]
    assert set(_cases(box, base_manager)) <= {"A", "B", "C"}


def test_admissibility_checks():
    man_ok = HaraParams(0.3, 0.65)
    man_strict = HaraParams(0.3, 2.5)
    inv = HaraParams(0.3, 0.65)
    m, alpha, c = np.array([0.0, 0.0]), np.array([0.2, 0.2]), np.array([0.1, 0.3])   # c - m hits the shift at 30%
    assert admissible_lanes(m, c, man_ok, inv, 1.0).tolist() == [True, True]
    assert admissible_lanes(m, c, man_strict, inv, 1.0).tolist() == [True, False]
    require_admissible(m, alpha, c, man_ok, inv, 1.0)
    with pytest.raises(PreferenceError, match=r"utility domain for fee \(0\.0000%, 20\.0000%, 30\.0000%\)$"):
        require_admissible(m, alpha, c, man_strict, inv, 1.0)
