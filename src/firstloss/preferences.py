"""HARA utilities, the manager's composite (non-concave) utility and the
admissibility of a fee."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contract import FeeStructure, InputError, manager_payoff, require_lanes

_TINY_BASE = 1e-300


class PreferenceError(InputError):
    """Utility parameters incompatible with the wealth they must evaluate."""


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


def _in_power_domain(base: np.ndarray, exponent: float) -> np.ndarray:
    # the bases _power accepts: >= 0, > 0 if exponent <= 0, not tiny if exponent < 0
    if exponent > 0.0:
        return base >= 0.0
    return base > 0.0 if exponent == 0.0 else base >= _TINY_BASE


def _power(base, exponent: float):
    """base^exponent as exp(exponent log base), for a float base (giving a
    float) or an array of bases.

    A tiny base with a negative exponent signals an inadmissible wealth, not
    an infinite utility: a base outside _in_power_domain raises
    PreferenceError, and for an array the first such lane raises.  A result
    beyond double range is inf, silently.
    """
    x = np.asarray(base, dtype=float)
    ok = _in_power_domain(x, exponent)
    if not ok.all():
        v = float(x.flat[int(np.argmin(ok))])
        raise PreferenceError(
            f"negative utility base {v}" if v < 0.0 else
            "zero utility base with non-positive exponent" if v == 0.0 else
            f"utility base {v} too small for exponent {exponent}")
    with np.errstate(divide="ignore", over="ignore"):
        out = np.exp(exponent * np.log(x))
    return out if x.ndim else float(out)


def hara_utility(p: HaraParams, wealth):
    """(wealth + a)^(1-b) / (1-b), for wealth + a in _power's domain; a
    float wealth gives a float, an array an array."""
    return _power(wealth + p.a, 1.0 - p.b) / (1.0 - p.b)


def admissible_lanes(m: np.ndarray, c: np.ndarray, manager: HaraParams, investor: HaraParams, v0: float) -> np.ndarray:
    """Whether both utilities are finite at the parties' minimal payoffs, per
    fee (m, c) (the check does not involve alpha).

    The utility bases there, v0 (m - c) + a_M for the manager and
    v0 (c - m) + a_I for the investor, must pass _power's own guard: >= 0
    for b < 1, at least 1e-300 for b > 1.
    """
    return (_in_power_domain(v0 * (m - c) + manager.a, 1.0 - manager.b)
            & _in_power_domain(v0 * (c - m) + investor.a, 1.0 - investor.b))


def require_admissible(m: np.ndarray, alpha: np.ndarray, c: np.ndarray, manager: HaraParams, investor: HaraParams,
                       v0: float) -> None:
    """Raise PreferenceError, naming the fee, at the first fee (m, alpha, c)
    of the arrays that admissible_lanes rejects."""
    require_lanes((m, alpha, c), admissible_lanes(m, c, manager, investor, v0), lambda i: (
        f"HARA shifts (a_M={manager.a}, a_I={investor.a}) leave a party's worst payoff "
        "outside the utility domain"), PreferenceError)


def manager_composite_utility(fee: FeeStructure, p: HaraParams, v0: float, vT):
    """Manager's utility of her payoff at fund value vT (a float or an array).

    Constant below (1+m-c)v0, then two increasing concave pieces joined
    continuously; the middle/last pieces meet with a concave kink.
    """
    return hara_utility(p, manager_payoff(fee, v0, vT))
