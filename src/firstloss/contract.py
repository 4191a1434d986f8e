"""First-loss fee structures and the terminal payoff split between the parties."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The admissible fee box, one (name, lower, upper) row per coordinate m,
# alpha, c: management fee up to 5%, performance fee 0.1%..50% (a strictly
# positive performance fee is assumed throughout), coverage up to 30%.
FEE_BOX = (
    ("management fee m", 0.0, 0.05),
    ("performance fee alpha", 0.001, 0.50),
    ("first-loss coverage c", 0.0, 0.30),
)
FEE_LO = np.array([lo for _, lo, _ in FEE_BOX])
FEE_HI = np.array([hi for _, _, hi in FEE_BOX])

_BOUND_TOL = 1e-12


class InputError(ValueError):
    """An input the model does not admit: the CLI exits 1 on any subclass."""


class NumericalError(RuntimeError):
    """A computation that failed on admitted inputs: the CLI exits 2 on any
    subclass."""


def error_message(exc: BaseException) -> str:
    """An error's message and its notes (such as the fee a frontier search
    failed at), as a run reports it."""
    return "; ".join([str(exc), *getattr(exc, "__notes__", ())])


class ContractError(InputError):
    """Fee structure outside the admissible box, or invalid payoff argument."""


@dataclass(frozen=True)
class FeeStructure:
    """(m, alpha, c): management fee, performance fee, first-loss coverage.

    All three are fractions of v0 (m, c) or of the surplus (alpha).
    """

    m: float
    alpha: float
    c: float

    def __post_init__(self) -> None:
        for (name, lo, hi), x in zip(FEE_BOX, (self.m, self.alpha, self.c)):
            if not (lo - _BOUND_TOL <= x <= hi + _BOUND_TOL):
                raise ContractError(f"{name}={x} outside [{lo:g}, {hi:g}] in fee {self}")

    def as_percent(self) -> tuple[float, float, float]:
        return (100.0 * self.m, 100.0 * self.alpha, 100.0 * self.c)

    def __str__(self) -> str:
        return fee_label(self.m, self.alpha, self.c)


def fee_label(m: float, alpha: float, c: float) -> str:
    """A fee in percent, as messages quote it; takes values outside the box."""
    return f"({100.0 * m:.4f}%, {100.0 * alpha:.4f}%, {100.0 * c:.4f}%)"


def require_lanes(fees: tuple, ok: np.ndarray, text, error, lanes: np.ndarray | None = None) -> None:
    """Raise error(f"{text(i)} for fee (...)") for the first lane i not ok,
    naming the fee (m, alpha, c) at lanes[i] (at i without lanes) of the
    arrays fees = (m, alpha, c)."""
    if not np.all(ok):
        i = int(np.argmin(ok))
        at = i if lanes is None else lanes[i]
        raise error(f"{text(i)} for fee {fee_label(*(x[at] for x in fees))}")


def in_fee_box(m: np.ndarray, alpha: np.ndarray, c: np.ndarray) -> np.ndarray:
    """FeeStructure's box check over arrays: True where (m, alpha, c) is a
    valid fee, with the same tolerance; NaN is outside."""
    inside = True
    for (_, lo, hi), x in zip(FEE_BOX, (m, alpha, c)):
        inside = inside & (lo - _BOUND_TOL <= x) & (x <= hi + _BOUND_TOL)
    return inside


def _fund_values(vT):
    """vT as an array, checked >= 0."""
    v = np.asarray(vT, dtype=float)
    if (v < 0.0).any():
        raise ContractError(f"fund value must be >= 0 (got {v[v < 0.0].flat[0]})")
    return v


def investor_payoff(fee: FeeStructure, v0: float, vT):
    """Investor's terminal wealth for fund value vT, a float (giving a float)
    or an array.

    Three branches keyed on vT - m*v0: loss coverage below (1-c)v0, a flat
    guarantee of v0 up to v0, and the surplus net of the performance fee above.
    Continuous and nondecreasing in vT.
    """
    v = _fund_values(vT)
    net = v - fee.m * v0
    out = np.where(net < (1.0 - fee.c) * v0, v + v0 * (fee.c - fee.m),
                   np.where(net < v0, v0, net - fee.alpha * (v - (1.0 + fee.m) * v0)))
    return out if v.ndim else float(out)


def manager_payoff(fee: FeeStructure, v0: float, vT):
    """Manager's terminal wealth, for a float or an array vT as
    investor_payoff; complements investor_payoff to vT exactly."""
    v = _fund_values(vT)
    net = v - fee.m * v0
    out = np.where(net < (1.0 - fee.c) * v0, v0 * (fee.m - fee.c),
                   np.where(net < v0, v - v0, fee.m * v0 + fee.alpha * (v - (1.0 + fee.m) * v0)))
    return out if v.ndim else float(out)
