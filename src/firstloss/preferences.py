"""HARA utilities, the manager's composite (non-concave) utility, the
admissibility of a fee, and the three concavification regimes (CaseTag),
which concavify.envelope_lanes tells apart."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .contract import FeeStructure, manager_payoff

_TINY_BASE = 1e-300


class PreferenceError(ValueError):
    """Utility parameters incompatible with the wealth they must evaluate;
    raised for one lane of an array, it carries the lane's index."""

    lane: int | None = None


@dataclass(frozen=True)
class HaraParams:
    """Shifted power utility u(v) = (v + a)^(1-b) / (1-b).

    b > 0 is the risk-aversion exponent (b = 1, log utility, is out of scope);
    a shifts the domain so that the worst contractual payoff stays inside it.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise PreferenceError(f"{name} must be finite (got {value})")
        if not self.b > 0.0:
            raise PreferenceError(f"risk aversion b must be > 0 (got {self.b})")
        if abs(self.b - 1.0) < 1e-9:
            raise PreferenceError("b = 1 (log utility) is not supported")


class CaseTag(enum.Enum):
    """Shape regime of the concave envelope of the manager's utility.

    A -- the envelope's line is tangent beyond the upper payoff kink
    B -- the line ends exactly at the upper kink
    C -- the line is tangent between the two kinks
    """

    A = "A"
    B = "B"
    C = "C"


def _power(base: float, exponent: float) -> float:
    # exp(e*log(base)) with a guard: a tiny base with a negative exponent
    # signals an inadmissible wealth, not an infinite utility.
    if base < 0.0:
        raise PreferenceError(f"negative utility base {base}")
    if base == 0.0:
        if exponent > 0.0:
            return 0.0
        raise PreferenceError("zero utility base with non-positive exponent")
    if base < _TINY_BASE and exponent < 0.0:
        raise PreferenceError(f"utility base {base} too small for exponent {exponent}")
    try:
        return math.exp(exponent * math.log(base))
    except OverflowError:    # inf, as _power_lanes gives it
        return math.inf


def _in_power_domain(base: np.ndarray, exponent: float) -> np.ndarray:
    # the bases _power and _power_lanes accept: >= 0, and not tiny if exponent < 0
    return (base >= 0.0) & ((base > 0.0) | (exponent > 0.0)) & ((base >= _TINY_BASE) | (exponent >= 0.0))


def _power_lanes(base: np.ndarray, exponent: float) -> np.ndarray:
    # _power over an array of bases, with the same guard: the first lane it
    # rejects raises, naming the lane
    bad = ~_in_power_domain(base, exponent)
    if bad.any():
        lane = int(np.flatnonzero(bad)[0])
        x = base[lane]
        exc = PreferenceError(
            f"negative utility base {x}" if x < 0.0 else
            "zero utility base with non-positive exponent" if x == 0.0 else
            f"utility base {x} too small for exponent {exponent}")
        exc.lane = lane
        raise exc
    with np.errstate(divide="ignore"):
        return np.exp(exponent * np.log(base))


def hara_utility(p: HaraParams, wealth: float) -> float:
    """(wealth + a)^(1-b) / (1-b); requires wealth + a > 0 (= 0 only if b < 1)."""
    base = wealth + p.a
    if base < 0.0:
        raise PreferenceError(f"wealth {wealth} below the utility domain (-{p.a})")
    if base == 0.0:
        if p.b > 1.0:
            raise PreferenceError("utility is -inf at the domain edge for b > 1")
        return 0.0
    return _power(base, 1.0 - p.b) / (1.0 - p.b)


def fee_admissible(fee: FeeStructure, manager: HaraParams, investor: HaraParams, v0: float) -> bool:
    """Whether both utilities are finite at the parties' minimal payoffs.

    The utility bases there, v0 (m - c) + a_M for the manager and
    v0 (c - m) + a_I for the investor, must pass _power's own guard: >= 0
    for b < 1, at least 1e-300 for b > 1.
    """
    return bool(admissible_lanes(fee.m, fee.c, manager, investor, v0))


def admissible_lanes(m: np.ndarray, c: np.ndarray, manager: HaraParams, investor: HaraParams, v0: float) -> np.ndarray:
    """fee_admissible for arrays of m and c (the check does not involve alpha)."""
    return (_in_power_domain(v0 * (m - c) + manager.a, 1.0 - manager.b)
            & _in_power_domain(v0 * (c - m) + investor.a, 1.0 - investor.b))


def require_admissible(fee: FeeStructure, manager: HaraParams, investor: HaraParams, v0: float) -> None:
    if not fee_admissible(fee, manager, investor, v0):
        raise PreferenceError(
            f"HARA shifts (a_M={manager.a}, a_I={investor.a}) leave a party's worst payoff "
            f"outside the utility domain for fee {fee}"
        )


def manager_composite_utility(fee: FeeStructure, p: HaraParams, v0: float, vT: float) -> float:
    """Manager's utility of her payoff at fund value vT.

    Constant below (1+m-c)v0, then two increasing concave pieces joined
    continuously; the middle/last pieces meet with a concave kink.
    """
    return hara_utility(p, manager_payoff(fee, v0, vT))
