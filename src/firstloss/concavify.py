"""Concave envelope of the manager's composite utility and the pointwise
dual maximizer.

The composite utility is flat on [0, Theta1), then concave increasing with a
concave kink at Theta2.  Its envelope replaces [0, theta1) by a chord from
(0, U(0)); theta1 >= Theta1 is unique.  Where theta1 falls determines the
regime (CaseTag), and build_envelope turns the regime into the band table
that every closed form downstream loops over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from scipy.optimize import brentq

from .contract import FeeStructure, manager_kinks
from .preferences import (
    CaseTag,
    HaraParams,
    PreferenceError,
    chord_slope_h,
    classify_case,
    manager_composite_utility,
    _power,
)

_BRACKET_CAP = 2.0**60


class EnvelopeError(RuntimeError):
    """Root bracketing failed; carries the scanned interval."""


class Band(NamedTuple):
    """One piece of the optimal fund value in the dual coordinate u = y z:
    V = coef * u^(-1/b) + const on u_lo <= u < u_hi.  coef = 0 marks a flat
    band, where V is the constant const."""

    u_lo: float
    u_hi: float
    coef: float
    const: float


@dataclass(frozen=True)
class ConcaveEnvelope:
    """Concave envelope data for one (fee, manager utility, v0) triple.

    theta1 is the right end of the linear segment, slope its gradient
    (= chord slope from zero); the envelope coincides with the composite
    utility on [theta1, inf).
    """

    fee: FeeStructure
    hara: HaraParams
    v0: float
    case_tag: CaseTag
    theta1: float
    theta2: float
    slope: float
    u_at_zero: float
    kink1: float = field(repr=False)       # (1+m-c) v0
    kink2: float = field(repr=False)       # (1+m) v0

    # marginal slopes at the branch edges of the dual problem, descending
    slope_i3: float = field(repr=False)    # upper marginal of the last piece
    slope_i2: float = field(repr=False)    # upper marginal of the middle piece (case C)

    # contiguous from u = 0 to u = slope, the performance-fee piece first;
    # V = 0 for u >= slope
    bands: tuple[Band, ...] = field(repr=False)

    def utility(self, v: float) -> float:
        """The original (non-concave) composite utility."""
        return manager_composite_utility(self.fee, self.hara, self.v0, v)

    def utility_slope(self, v: float) -> float:
        """Right derivative of the composite utility at v >= 0."""
        if v < self.kink1:
            return 0.0
        if v < self.kink2:
            return _power(v - self.v0 + self.hara.a, -self.hara.b)
        fee, a = self.fee, self.hara.a
        base = fee.alpha * v + (fee.m - fee.alpha * (1.0 + fee.m)) * self.v0 + a
        return fee.alpha * _power(base, -self.hara.b)


def _theta1_case_a(fee: FeeStructure, p: HaraParams, v0: float) -> tuple[float, float]:
    # Tangency of the chord from zero onto the last utility piece, beyond the
    # upper kink.  The bracket expands geometrically; a sign change is
    # guaranteed for admissible inputs, so hitting the cap means bad inputs.
    X = (fee.m - fee.alpha * (1.0 + fee.m)) * v0 + p.a
    rhs = _power(v0 * (fee.m - fee.c) + p.a, 1.0 - p.b)

    def g(v: float) -> float:
        return _power(fee.alpha * v + X, -p.b) * (p.b * fee.alpha * v + X) - rhs

    lo = (1.0 + fee.m) * v0
    g_lo = g(lo)
    hi = 2.0 * lo
    while g(hi) * g_lo > 0.0:
        hi *= 2.0
        if hi > _BRACKET_CAP * v0:
            raise EnvelopeError(f"no tangency bracket in [{lo}, {hi}] for fee {fee}")
    theta1 = brentq(g, lo, hi, xtol=1e-13 * v0, rtol=4.0 * math.ulp(1.0))
    slope = fee.alpha * _power(fee.alpha * theta1 + X, -p.b)
    return theta1, slope


def _theta1_case_c(fee: FeeStructure, p: HaraParams, v0: float) -> tuple[float, float]:
    # Tangency onto the middle piece, strictly between the kinks.
    rhs = _power(v0 * (fee.m - fee.c) + p.a, 1.0 - p.b)

    def g(v: float) -> float:
        return _power(v - v0 + p.a, -p.b) * (p.b * v - v0 + p.a) - rhs

    lo, hi = manager_kinks(fee, v0)
    if v0 * (fee.m - fee.c) + p.a <= 0.0:
        lo += 1e-12 * v0            # marginal utility is infinite at the edge
    if g(lo) * g(hi) > 0.0:
        raise EnvelopeError(f"no tangency bracket in [{lo}, {hi}] for fee {fee}")
    theta1 = brentq(g, lo, hi, xtol=1e-13 * v0, rtol=4.0 * math.ulp(1.0))
    slope = _power(theta1 - v0 + p.a, -p.b)
    return theta1, slope


def build_envelope(fee: FeeStructure, p: HaraParams, v0: float) -> ConcaveEnvelope:
    """Construct the concave envelope; classifies the regime and solves the
    tangency equation of that regime."""
    kink1, kink2 = manager_kinks(fee, v0)
    case = classify_case(fee, p, v0)
    u0 = manager_composite_utility(fee, p, v0, 0.0)

    slope_i3 = fee.alpha * _power(fee.m * v0 + p.a, -p.b)
    slope_i2 = _power(fee.m * v0 + p.a, -p.b)
    # performance-fee piece: the inverse marginal of the last utility piece
    power_coef = _power(fee.alpha, (1.0 - p.b) / p.b)
    power_const = (1.0 + fee.m - fee.m / fee.alpha) * v0 - p.a / fee.alpha
    if case is CaseTag.A:
        theta1, slope = _theta1_case_a(fee, p, v0)
        theta2 = theta1
        bands = (Band(0.0, slope, power_coef, power_const),)
    elif case is CaseTag.B:
        theta1 = theta2 = kink2
        slope = chord_slope_h(fee, p, v0)
        bands = (Band(0.0, slope_i3, power_coef, power_const), Band(slope_i3, slope, 0.0, kink2))
    else:
        theta1, slope = _theta1_case_c(fee, p, v0)
        theta2 = kink2
        bands = (
            Band(0.0, slope_i3, power_coef, power_const),
            Band(slope_i3, slope_i2, 0.0, kink2),
            Band(slope_i2, slope, 1.0, v0 - p.a),          # the middle piece's inverse marginal
        )

    # The flat first piece makes the chord slope from zero vanish at kink1,
    # so the envelope's line can never stop exactly there.
    if theta1 < kink1:
        raise EnvelopeError(f"theta1={theta1} below the first kink {kink1}")

    return ConcaveEnvelope(
        fee=fee, hara=p, v0=v0, case_tag=case,
        theta1=theta1, theta2=theta2, slope=slope, u_at_zero=u0,
        kink1=kink1, kink2=kink2, slope_i3=slope_i3, slope_i2=slope_i2, bands=bands,
    )


def envelope_eval(env: ConcaveEnvelope, v: float) -> float:
    """The envelope itself: linear up to theta1, the composite utility after."""
    if v < 0.0:
        raise PreferenceError(f"fund value must be >= 0 (got {v})")
    if v < env.theta1:
        return env.u_at_zero + env.slope * v
    return env.utility(v)


def inverse_marginal_last(env: ConcaveEnvelope, u: float) -> float:
    """Inverse marginal utility of the last piece (performance-fee region)."""
    fee, p, v0 = env.fee, env.hara, env.v0
    zpow = _power(u / fee.alpha, -1.0 / p.b) / fee.alpha
    return zpow + (1.0 + fee.m - fee.m / fee.alpha) * v0 - p.a / fee.alpha


def inverse_marginal_middle(env: ConcaveEnvelope, u: float) -> float:
    """Inverse marginal utility of the middle piece (loss-absorption region)."""
    return _power(u, -1.0 / env.hara.b) + env.v0 - env.hara.a


def pointwise_argmax(env: ConcaveEnvelope, y: float, z: float) -> float:
    """Maximizer of envelope(v) - y*z*v over v >= 0.

    Follows the branch table of the dual problem: inverse marginal utilities
    in the interior, the kink values on flat-gradient bands, zero above the
    chord slope.  The tie y*z == slope resolves to 0 (a null event under any
    continuous kernel law).
    """
    if y <= 0.0 or z <= 0.0:
        raise ValueError(f"need y > 0 and z > 0 (got y={y}, z={z})")
    u = y * z
    if u >= env.slope:
        return 0.0
    if env.case_tag is CaseTag.A:
        return inverse_marginal_last(env, u)
    if env.case_tag is CaseTag.B:
        if u >= env.slope_i3:
            return env.theta2
        return inverse_marginal_last(env, u)
    # case C: last piece, flat band at the upper kink, then the middle piece
    if u < env.slope_i3:
        return inverse_marginal_last(env, u)
    if u <= env.slope_i2:
        return env.theta2
    return inverse_marginal_middle(env, u)
