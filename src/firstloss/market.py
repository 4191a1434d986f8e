"""Black-Scholes market primitives: pricing kernel and its truncated power moments.

Everything downstream (budget equations, value functions, fund moments) is
assembled from a single closed-form primitive, the truncated power moment
``partial_power_expectation_normal`` (``partial_power_expectation`` reads
it at scalar bounds), so that only one formula needs independent
verification.  It takes the difference of complementary normal tails where
a band lies in the kernel's upper tail, so one formula holds its digits
across the whole range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtr

from .contract import InputError, NumericalError


class MarketError(InputError):
    """Invalid market parameters or arguments."""


class MomentRangeError(NumericalError):
    """A power moment of the pricing kernel beyond double range."""


@dataclass(frozen=True)
class MarketParams:
    """Constant-coefficient market over a fixed horizon.

    r         -- risk-free rate per year (may be negative)
    gamma     -- market price of risk per sqrt(year), strictly positive
    horizon_T -- investment horizon in years
    v0        -- initial fund capital
    sigma     -- annual volatility of the risky asset; only the constant-mix
                 benchmark needs it, so it is optional
    """

    r: float = 0.02
    gamma: float = 0.40
    horizon_T: float = 1.0
    v0: float = 1.0
    sigma: float | None = None

    def __post_init__(self) -> None:
        for name in ("r", "gamma", "horizon_T", "v0", "sigma"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise MarketError(f"{name} must be finite (got {value})")
        if not self.gamma > 0.0:
            raise MarketError(f"gamma must be > 0 (got {self.gamma}); a riskless market is out of scope")
        if not self.horizon_T > 0.0:
            raise MarketError(f"horizon_T must be > 0 (got {self.horizon_T})")
        if not self.v0 > 0.0:
            raise MarketError(f"v0 must be > 0 (got {self.v0})")
        if self.sigma is not None and not self.sigma > 0.0:
            raise MarketError(f"sigma must be > 0 when present (got {self.sigma})")
        # the kernel's normal coordinates divide by the volatility
        try:
            finite = all(math.isfinite(x) for x in (self.log_drift, self.log_vol, self.log_drift / self.log_vol))
        except ArithmeticError:     # overflow, or a volatility that underflows to 0
            finite = False
        if not finite:
            raise MarketError(
                f"log Z_T's drift, volatility or their ratio is beyond double range "
                f"(r={self.r}, gamma={self.gamma}, horizon_T={self.horizon_T})")

    @cached_property
    def log_drift(self) -> float:
        """(r + gamma^2/2) * T, the negated drift of log Z_T."""
        return (self.r + 0.5 * self.gamma**2) * self.horizon_T

    @cached_property
    def log_vol(self) -> float:
        """gamma * sqrt(T), the standard deviation of log Z_T."""
        return self.gamma * math.sqrt(self.horizon_T)


def state_price_density(params: MarketParams, w: float) -> float:
    """Terminal pricing kernel Z_T for a Brownian endpoint W_T = w.

    Z_T = exp(-(r + gamma^2/2) T - gamma w); strictly positive.
    """
    return math.exp(-params.log_drift - params.gamma * w)


def _moment_scale(params: MarketParams, k: float) -> float:
    # E[Z_T^k] = exp(-k mu + (k sigma)^2 / 2), checked before exp overflows
    try:
        exponent = -k * params.log_drift + 0.5 * (k * params.log_vol) ** 2
    except OverflowError:
        exponent = math.inf
    if not exponent <= math.log(sys.float_info.max):
        raise MomentRangeError(
            f"E[Z_T^k] at k={k:.6g} is exp({exponent:.6g}), beyond double range (horizon_T={params.horizon_T})")
    return math.exp(exponent)


def partial_power_expectation(params: MarketParams, k: float, a: float, b: float) -> float:
    """E[Z_T^k 1{a < Z_T < b}] at time zero, in closed form.

    Z_T is lognormal, so the truncated power moment reduces to two normal CDF
    evaluations: partial_power_expectation_normal at the bounds' normal
    coordinates.  a = 0 and b = +inf are legal; a > b is rejected.
    """
    if a < 0.0:
        raise MarketError(f"lower bound must be >= 0 (got {a})")
    if a > b:
        raise MarketError(f"empty kernel interval: a={a} > b={b}")
    with np.errstate(divide="ignore"):
        d_a, d_b = kernel_bound_normal(params, np.log([a, b]))
    return float(partial_power_expectation_normal(params, k, d_a, d_b))


def kernel_bound_normal(params: MarketParams, log_x: np.ndarray) -> np.ndarray:
    """The normal coordinate d = (log(1/x) - (r + gamma^2/2) T) / (gamma sqrt(T))
    of kernel values x, given as log x; log x = -inf (x = 0) maps to +inf and
    log x = +inf to -inf."""
    return (-log_x - params.log_drift) / params.log_vol


def partial_power_expectation_normal(params: MarketParams, k: float, d_a: np.ndarray, d_b: np.ndarray) -> np.ndarray:
    """E[Z_T^k 1{a < Z_T < b}] over arrays of bounds a <= b, given by their
    normal coordinates d_a = kernel_bound_normal(log a) >= d_b.

    With x = d_a + k sigma and y = d_b + k sigma the moment is
    E[Z_T^k] (Phi(x) - Phi(y)).  Where y > 0 both lie in the upper tail, and
    the difference is taken of the complementary tails, Phi(-y) - Phi(-x),
    which does not cancel there (the sign of -y picks the form, so y = +0.0,
    where both are exact, takes the tails).  ndtr takes the infinite coordinates of
    a = 0 and b = +inf to 1 and 0, and an empty interval (d_a = d_b) gives 0.
    """
    shift = k * params.log_vol
    x, y = d_a + shift, d_b + shift
    s = np.copysign(1.0, -y)
    return _moment_scale(params, k) * (s * (ndtr(s * x) - ndtr(s * y)))


def sample_z(params: MarketParams, seed: int, n: int) -> np.ndarray:
    """n i.i.d. draws of Z_T, deterministic given the seed."""
    if n < 1:
        raise MarketError(f"need at least one draw (got n={n})")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n) * math.sqrt(params.horizon_T)
    return np.exp(-params.log_drift - params.gamma * w)
