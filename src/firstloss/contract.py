"""First-loss fee structures and the terminal payoff split between the parties."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Admissible fee box: management fee up to 5%, performance fee 0.1%..50%
# (a strictly positive performance fee is assumed throughout), coverage up
# to 30%.
M_MAX = 0.05
ALPHA_MIN = 0.001
ALPHA_MAX = 0.50
C_MAX = 0.30

_BOUND_TOL = 1e-12


class ContractError(ValueError):
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
        if not (-_BOUND_TOL <= self.m <= M_MAX + _BOUND_TOL):
            raise ContractError(f"management fee m={self.m} outside [0, {M_MAX}]")
        if not (ALPHA_MIN - _BOUND_TOL <= self.alpha <= ALPHA_MAX + _BOUND_TOL):
            raise ContractError(f"performance fee alpha={self.alpha} outside [{ALPHA_MIN}, {ALPHA_MAX}]")
        if not (-_BOUND_TOL <= self.c <= C_MAX + _BOUND_TOL):
            raise ContractError(f"first-loss coverage c={self.c} outside [0, {C_MAX}]")

    @classmethod
    def raw(cls, m: float, alpha: float, c: float) -> "FeeStructure":
        """Bypass the admissible-box check (test scaffolding only).

        alpha must still be positive; the payoff maps are undefined otherwise.
        """
        if alpha <= 0.0:
            raise ContractError("alpha must be > 0")
        obj = object.__new__(cls)
        object.__setattr__(obj, "m", m)
        object.__setattr__(obj, "alpha", alpha)
        object.__setattr__(obj, "c", c)
        return obj

    def as_percent(self) -> tuple[float, float, float]:
        return (100.0 * self.m, 100.0 * self.alpha, 100.0 * self.c)

    def __str__(self) -> str:
        return fee_label(self.m, self.alpha, self.c)


def fee_label(m: float, alpha: float, c: float) -> str:
    """A fee in percent, as messages quote it; takes values outside the box."""
    return f"({100.0 * m:.4f}%, {100.0 * alpha:.4f}%, {100.0 * c:.4f}%)"


def in_fee_box(m: np.ndarray, alpha: np.ndarray, c: np.ndarray) -> np.ndarray:
    """FeeStructure's box check over arrays: True where (m, alpha, c) is a
    valid fee, with the same tolerance; NaN is outside."""
    return (
        (-_BOUND_TOL <= m) & (m <= M_MAX + _BOUND_TOL)
        & (ALPHA_MIN - _BOUND_TOL <= alpha) & (alpha <= ALPHA_MAX + _BOUND_TOL)
        & (-_BOUND_TOL <= c) & (c <= C_MAX + _BOUND_TOL)
    )


def investor_payoff(fee: FeeStructure, v0: float, vT: float) -> float:
    """Investor's terminal wealth for fund value vT.

    Three branches keyed on vT - m*v0: loss coverage below (1-c)v0, a flat
    guarantee of v0 up to v0, and the surplus net of the performance fee above.
    Continuous and nondecreasing in vT.
    """
    if vT < 0.0:
        raise ContractError(f"fund value must be >= 0 (got {vT})")
    net = vT - fee.m * v0
    if net < (1.0 - fee.c) * v0:
        return vT + v0 * (fee.c - fee.m)
    if net < v0:
        return v0
    return net - fee.alpha * (vT - (1.0 + fee.m) * v0)


def manager_payoff(fee: FeeStructure, v0: float, vT: float) -> float:
    """Manager's terminal wealth; complements investor_payoff to vT exactly."""
    if vT < 0.0:
        raise ContractError(f"fund value must be >= 0 (got {vT})")
    net = vT - fee.m * v0
    if net < (1.0 - fee.c) * v0:
        return v0 * (fee.m - fee.c)
    if net < v0:
        return vT - v0
    return fee.m * v0 + fee.alpha * (vT - (1.0 + fee.m) * v0)

