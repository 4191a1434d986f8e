"""Concave envelope of the manager's composite utility and the pointwise
dual maximizer.

The composite utility is flat on [0, Theta1), then concave increasing with a
concave kink at Theta2.  Its envelope replaces [0, theta1) by a chord from
(0, U(0)); theta1 >= Theta1 is unique.  Where theta1 falls determines the
regime, a letter: 'A', the chord is tangent beyond the upper payoff kink;
'B', it ends at the upper kink; 'C', it is tangent between the two kinks.
The regime determines the band table that every closed form downstream sums
over.  envelope_lanes builds the envelopes of many fees at once;
ConcaveEnvelope reads one of them as floats, and pointwise_argmax maximizes
over it point by point, independently of the band table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .contract import FeeStructure, InputError, NumericalError, require_lanes
from .preferences import HaraParams, PreferenceError, _in_power_domain, _power, manager_composite_utility
from .roots import bracketed_root

_BRACKET_CAP = 2.0**60


class EnvelopeError(NumericalError):
    """Root bracketing failed."""


class EnvelopeLanes(NamedTuple):
    """The concave envelopes of many fees (m[i], alpha[i], c[i]): the band
    tables as (3, lanes) arrays u_lo, u_hi, coef and const, and per lane the
    case ('A', 'B' or 'C') and the scalars ConcaveEnvelope names.

    Row j of a lane's table is one piece of the optimal fund value in the
    dual coordinate u = y z: V = coef * u^(-1/b) + const on u_lo <= u < u_hi,
    the performance-fee piece first; coef = 0 marks a flat band, where V is
    the constant const.  The bands run contiguously from u = 0 to u = slope
    (V = 0 beyond); case A has one band, B two, C three, and the rows after a
    lane's last band are zero, empty bands."""

    u_lo: np.ndarray
    u_hi: np.ndarray
    coef: np.ndarray
    const: np.ndarray
    case: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray
    slope: np.ndarray
    u_at_zero: np.ndarray
    kink1: np.ndarray
    kink2: np.ndarray
    slope_i3: np.ndarray
    slope_i2: np.ndarray
    m: np.ndarray
    alpha: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class ConcaveEnvelope:
    """Concave envelope data for one (fee, manager utility, v0) triple, read
    from the one lane of ``lanes``.

    theta1 is the right end of the linear segment, slope its gradient
    (= chord slope from zero); the envelope coincides with the composite
    utility on [theta1, inf).
    """

    fee: FeeStructure
    hara: HaraParams
    v0: float
    case: str                              # 'A', 'B' or 'C'
    theta1: float
    theta2: float
    slope: float
    u_at_zero: float
    kink1: float = field(repr=False)       # (1+m-c) v0
    kink2: float = field(repr=False)       # (1+m) v0

    # marginal slopes at the branch edges of the dual problem, descending
    slope_i3: float = field(repr=False)    # upper marginal of the last piece
    slope_i2: float = field(repr=False)    # upper marginal of the middle piece (case C)

    lanes: EnvelopeLanes = field(repr=False, compare=False)    # the band table

    def utility(self, v):
        """The original (non-concave) composite utility, at a float or an
        array v."""
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


_SCALARS = ("theta1", "theta2", "slope", "u_at_zero", "kink1", "kink2", "slope_i3", "slope_i2")


def build_envelope(fee: FeeStructure, p: HaraParams, v0: float) -> ConcaveEnvelope:
    """The concave envelope of one fee: envelope_lanes on a single lane."""
    lanes = envelope_lanes(np.array([fee.m]), np.array([fee.alpha]), np.array([fee.c]), p, v0)
    return ConcaveEnvelope(fee=fee, hara=p, v0=v0, case=str(lanes.case[0]), lanes=lanes,
                           **{name: float(getattr(lanes, name)[0]) for name in _SCALARS})


class Regime(NamedTuple):
    """The regime of many fees and what envelope_lanes builds on it, per
    lane: the band count (1 in case A, 2 in B, 3 in C), the manager's
    utility base at the ruin payoff and its power, the chord slope from zero
    to the upper kink, and the one-sided marginals there, slope_i2 from
    below and slope_i3 from above."""

    bands: np.ndarray
    ruin: np.ndarray
    u_ruin: np.ndarray
    chord: np.ndarray
    slope_i2: np.ndarray
    slope_i3: np.ndarray


def regime_lanes(m: np.ndarray, alpha: np.ndarray, c: np.ndarray, p: HaraParams, v0: float) -> Regime:
    """The regime of every fee (m[i], alpha[i], c[i]): the chord slope from
    zero to the upper kink against the one-sided marginals there, ties to B.

    The first lane whose manager utility bases lie outside the power domains
    raises PreferenceError, and the first whose utility at the ruin payoff
    is beyond double range EnvelopeError, naming its fee.
    """
    m, alpha, c = (np.asarray(x, dtype=float) for x in (m, alpha, c))
    b, a = p.b, p.a
    require = partial(require_lanes, (m, alpha, c))
    ruin = v0 * (m - c) + a                    # utility base of the manager's payoff on the flat piece
    top = m * v0 + a                           # and at the upper kink, where its marginal utility is taken
    require(_in_power_domain(ruin, 1.0 - b) & _in_power_domain(top, -b),
            lambda i: f"manager utility bases {ruin[i]} at the ruin payoff and {top[i]} at the upper kink "
                      f"not within the domains of (.)^(1-b) and (.)^(-b)", PreferenceError)
    u_ruin = _power(ruin, 1.0 - b)
    # infinite only for b > 1 (near the domain edge, or with a huge b), where
    # it leaves the chord from zero no slope; the power at the upper kink is
    # then finite, as its base is larger
    require(np.isfinite(u_ruin),
            lambda i: f"utility power (v0 (m - c) + a)^(1-b) = {u_ruin[i]} at the ruin payoff beyond double range",
            EnvelopeError)
    h = (_power(top, 1.0 - b) - u_ruin) / ((1.0 - b) * (1.0 + m) * v0)
    slope_i2 = _power(top, -b)
    slope_i3 = alpha * slope_i2
    bands = np.where(h < slope_i3, 1, np.where(h <= slope_i2, 2, 3))
    return Regime(bands, ruin, u_ruin, h, slope_i2, slope_i3)


def envelope_lanes(m: np.ndarray, alpha: np.ndarray, c: np.ndarray, p: HaraParams, v0: float) -> EnvelopeLanes:
    """The concave envelope of every fee (m[i], alpha[i], c[i]) at once.

    The regime is regime_lanes', and the tangency roots of cases A and C
    are solved lane-wise, in one root call.  The first lane that fails
    raises EnvelopeError or PreferenceError, naming its fee.
    """
    m, alpha, c = (np.asarray(x, dtype=float) for x in (m, alpha, c))
    b, a = p.b, p.a
    require = partial(require_lanes, (m, alpha, c), error=EnvelopeError)
    bands, ruin, u_ruin, h, slope_i2, slope_i3 = regime_lanes(m, alpha, c, p, v0)
    case_a, case_c = bands == 1, bands == 3
    kink1, kink2 = (1.0 + m - c) * v0, (1.0 + m) * v0
    power_coef = _power(alpha, (1.0 - b) / b)
    power_const = (1.0 + m - m / alpha) * v0 - a / alpha

    theta1, slope = kink2.copy(), h.copy()
    T = np.flatnonzero(case_a | case_c)
    if T.size:
        # tangency w^(-b) (b s v + X) = U(ruin), w = s v + X, onto the last
        # piece beyond the upper kink (case A: s = alpha) or onto the middle
        # piece strictly between the kinks (case C: s = 1)
        on_last = case_a[T]
        s = np.where(on_last, alpha[T], 1.0)
        X = np.where(on_last, (m[T] - alpha[T] * (1.0 + m[T])) * v0 + a, a - v0)
        rhs = u_ruin[T]

        def g(v: np.ndarray, lanes: np.ndarray) -> np.ndarray:
            return np.exp(-b * np.log(s[lanes] * v + X[lanes])) * (b * s[lanes] * v + X[lanes]) - rhs[lanes]

        every = np.arange(T.size)
        # case C's marginal utility is infinite at the lower kink where ruin = 0
        lo = np.where(on_last, kink2[T], kink1[T] + np.where(ruin[T] <= 0.0, 1e-12 * v0, 0.0))
        hi = np.where(on_last, 2.0 * kink2[T], kink2[T])
        # case A's bracket doubles until g changes sign, as it must for
        # admissible inputs; case C's spans the kinks.  Only the sign of
        # g_lo g_hi is read, which stays right where the product overflows,
        # or where s v + X cancels to 0 at lo and its log is -inf
        with np.errstate(over="ignore", divide="ignore"):
            g_lo, g_hi = g(lo, every), g(hi, every)
            grow = every[on_last & (g_hi * g_lo > 0.0)]
            while grow.size:
                hi[grow] *= 2.0
                require(hi[grow] <= _BRACKET_CAP * v0,
                        lambda j: f"no tangency bracket in [{lo[grow[j]]}, {hi[grow[j]]}]", lanes=T[grow])
                g_hi[grow] = g(hi[grow], grow)
                grow = grow[g_hi[grow] * g_lo[grow] > 0.0]
            require(~(g_lo * g_hi > 0.0), lambda j: f"no tangency bracket in [{lo[j]}, {hi[j]}]", lanes=T)
        root, _, ok = bracketed_root(g, lo, g_lo, hi, g_hi, 1e-13 * v0)
        require(ok, lambda j: f"tangency root not found in [{lo[j]}, {hi[j]}]", lanes=T)
        theta1[T] = root
        slope[T] = s * np.exp(-b * np.log(s * root + X))
    require(~(theta1 < kink1), lambda i: f"theta1={theta1[i]} below the first kink {kink1[i]}")

    # the band table, performance-fee piece first: case A has that piece
    # alone, B adds the flat band at the upper kink, C the middle piece too
    zero = np.zeros_like(m)
    flat = ~case_a
    u_lo = np.stack([zero, np.where(flat, slope_i3, 0.0), np.where(case_c, slope_i2, 0.0)])
    u_hi = np.stack([np.where(case_a, slope, slope_i3), np.where(case_c, slope_i2, np.where(flat, slope, 0.0)),
                     np.where(case_c, slope, 0.0)])
    coef = np.stack([power_coef, zero, np.where(case_c, 1.0, 0.0)])
    const = np.stack([power_const, np.where(flat, kink2, 0.0), np.where(case_c, v0 - a, 0.0)])
    case = np.where(case_a, "A", np.where(case_c, "C", "B"))
    return EnvelopeLanes(u_lo, u_hi, coef, const, case, theta1, np.where(case_a, theta1, kink2), slope,
                         u_ruin / (1.0 - b), kink1, kink2, slope_i3, slope_i2, m, alpha, c)


def envelope_eval(env: ConcaveEnvelope, v):
    """The envelope itself: linear up to theta1, the composite utility after;
    a float v gives a float, an array an array."""
    x = np.asarray(v, dtype=float)
    if (x < 0.0).any():
        raise PreferenceError(f"fund value must be >= 0 (got {x[x < 0.0].flat[0]})")
    out = np.where(x < env.theta1, env.u_at_zero + env.slope * x, env.utility(x))
    return out if x.ndim else float(out)


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
        raise InputError(f"need y > 0 and z > 0 (got y={y}, z={z})")
    u = y * z
    if u >= env.slope:
        return 0.0
    if env.case == "A":
        return inverse_marginal_last(env, u)
    if env.case == "B":
        if u >= env.slope_i3:
            return env.theta2
        return inverse_marginal_last(env, u)
    # case C: last piece, flat band at the upper kink, then the middle piece
    if u < env.slope_i3:
        return inverse_marginal_last(env, u)
    if u <= env.slope_i2:
        return env.theta2
    return inverse_marginal_middle(env, u)
