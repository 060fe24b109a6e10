"""Brownian loop masses on model surfaces and the determinant expansions.

The mass of loops in a quadratic-variation window reduces, per eigenvalue, to
differences of exponential integrals. The three expansion residuals subtract
one expansion, a/delta + 2b/sqrt(delta) - c (log delta + gamma) - log det plus
a zero-mode term (0 with boundary, log C + gamma closed and capped at QV = 4C,
-log kappa under the penalty), and should vanish at the theorem's stated rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .surfaces import _TAIL_EXPONENT, ModelSurface
from .zeta import (
    EULER_GAMMA,
    _SPLIT_DELTA,
    _geometric_quadrature,
    log_det_zeta,
    mellin_zeta,
)


@dataclass(frozen=True)
class LoopMassQuery:
    """Mass of loops with quadratic variation in (qv_low, qv_high), penalized
    by exp(-kappa/4 * QV)."""

    surface: ModelSurface
    qv_low: float
    qv_high: float = math.inf
    kappa: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.qv_low) and 0.0 < self.qv_low < self.qv_high):
            raise ValueError("require finite qv_low with 0 < qv_low < qv_high")
        if not (math.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError("kappa must be finite and >= 0")
        if (
            self.surface.is_closed
            and math.isinf(self.qv_high)
            and self.kappa == 0.0
        ):
            raise ValueError(
                "divergent query: closed surface, no cap, no penalization"
            )


def _require_positive(name: str, value: float):
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def loop_mass(query: LoopMassQuery) -> float:
    """Loop mass in the QV window, summed exactly per eigenvalue.

    The window (qv_low, qv_high) = (4 delta, 4 C) corresponds to the time
    integral int_delta^C t^-1 e^{-kappa t} tr(e^{-t Lap}) dt; each eigenvalue
    contributes E1((lam+kappa) delta) - E1((lam+kappa) C), and the zero mode
    E1(kappa delta) - E1(kappa C), or log(C / delta) at kappa = 0.  E1 is taken
    with no cut: the upper term is E1(inf) = 0 when C = inf, and an argument
    past the float range overflows to inf, where E1 is 0 as well.
    """
    delta = query.qv_low / 4.0
    cap = query.qv_high / 4.0
    surface = query.surface
    kappa = query.kappa

    def window(rate):
        return scipy.special.exp1(rate * delta) - scipy.special.exp1(rate * cap)

    lam, mult = surface.nonzero_spectrum(_TAIL_EXPONENT / delta)
    with np.errstate(over="ignore"):
        total = float(np.sum(mult * window(lam + kappa)))
    if surface.zero_modes:
        if kappa > 0.0:
            total += float(window(kappa))
        else:  # log(C / delta), where the ratio overflows log C - log delta
            total += (math.log(cap / delta) if cap / delta < math.inf
                      else math.log(cap) - math.log(delta))
    return total


def loop_mass_quadrature(query: LoopMassQuery) -> float:
    """The same QV-window integral by direct quadrature over the heat trace;
    kept as an independent cross-check of loop_mass."""
    delta = query.qv_low / 4.0
    cap = query.qv_high / 4.0
    surface = query.surface
    kappa = query.kappa
    if math.isinf(cap):
        # a closed surface's zero mode decays only through its kappa > 0
        rate = kappa if surface.is_closed else surface.spectral_gap() + kappa
        cap = delta + _TAIL_EXPONENT / rate

    def integrand(t):
        return np.exp(-kappa * t) * surface.heat_trace(t) / t

    # at huge t, -kappa t and -t lam overflow to -inf, whose exp is the limit 0
    with np.errstate(over="ignore"):
        return _geometric_quadrature(integrand, delta, cap)[0]


def _expansion_residual(query: LoopMassQuery, zero_mode_term: float) -> float:
    """loop_mass(query) minus its expansion in delta = qv_low / 4,
    a/delta + 2b/sqrt(delta) - c (log delta + gamma) + zero_mode_term - log det."""
    surface = query.surface
    delta = query.qv_low / 4.0
    hc = surface.heat_coefficients()
    lhs = loop_mass(query)
    log_det = log_det_zeta(surface, _SPLIT_DELTA).log_det
    # c_coef is chi/6 with a smooth boundary, corner-corrected for the rectangle
    rhs = (
        hc.divergent(delta)
        - hc.c_coef * (math.log(delta) + EULER_GAMMA)
        + zero_mode_term
        - log_det
    )
    return lhs - rhs


def theorem_residual_boundary(surface: ModelSurface, delta: float) -> float:
    """Residual of the boundary-case expansion of the mass of loops with
    QV > 4 delta; should be O(sqrt(delta))."""
    if surface.is_closed:
        raise ValueError("boundary-case residual needs a surface with boundary")
    _require_positive("delta", delta)
    return _expansion_residual(LoopMassQuery(surface, 4.0 * delta), 0.0)


def theorem_residual_closed(surface: ModelSurface, delta: float, cap_c: float) -> float:
    """Residual of the closed-case expansion of the mass of loops with QV in
    (4 delta, 4 C); should be O(delta) + O(e^{-alpha C})."""
    if not surface.is_closed:
        raise ValueError("closed-case residual needs a closed surface")
    _require_positive("delta", delta)
    _require_positive("cap_c", cap_c)
    return _expansion_residual(LoopMassQuery(surface, 4.0 * delta, 4.0 * cap_c),
                               math.log(cap_c) + EULER_GAMMA)


def decay_residual(surface: ModelSurface, delta: float, kappa: float) -> float:
    """Residual of the exponentially penalized loop-mass expansion on a closed
    surface; tends to zero as kappa then delta go to zero."""
    if not surface.is_closed:
        raise ValueError("decay residual needs a closed surface")
    _require_positive("delta", delta)
    _require_positive("kappa", kappa)
    return _expansion_residual(LoopMassQuery(surface, 4.0 * delta, math.inf, kappa),
                               -math.log(kappa))


def zeta_from_weighted_loops(surface: ModelSurface, s: float) -> float:
    """zeta(s) as the loop mass with each loop weighted by QV^s / (4^s Gamma(s)).

    With QV = 4t for a loop of time-length t (loop_mass maps the QV window
    (4 delta, 4 C) to the times (delta, C)), the weight is t^s / Gamma(s), and
    this is the Mellin transform of the heat trace, evaluated by quadrature.
    """
    if surface.is_closed:
        raise ValueError("weighted-loop zeta requires a surface with boundary")
    return mellin_zeta(surface, s)


def fit_log_slope(xs, ys) -> float:
    """Least-squares slope of log|y| against log x; ValueError unless there
    are two distinct x, every x is finite and > 0 and every y finite and
    nonzero."""
    xs = np.asarray(xs, dtype=float)
    ys = np.abs(np.asarray(ys, dtype=float))
    if np.unique(xs).size < 2:
        raise ValueError("slope fit needs two distinct x")
    if np.any(ys == 0):
        raise ValueError("zero residual in slope fit")
    if not np.all(np.isfinite(ys)):
        raise ValueError("slope fit needs finite y, got %r" % (ys.tolist(),))
    if not np.all((xs > 0) & np.isfinite(xs)):
        raise ValueError("slope fit needs finite x > 0, got %r" % (xs.tolist(),))
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
