"""Spectral zeta functions and the zeta-regularized Laplacian determinant.

The determinant is computed through the split-integral analytic continuation:
the Mellin integral of the heat trace is cut at a split point delta, the
large-t part is summed exactly per eigenvalue (exponential integrals), and
the small-t part is integrated after subtracting the a/t + b/sqrt(t) + c
expansion, whose contribution is continued in closed form.  The result is
independent of the split point, which the report's error estimate certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy import special

from .surfaces import ModelSurface

# Euler-Mascheroni constant, 20 digits
EULER_GAMMA = 0.57721566490153286061

_E1_CUT = 50.0  # exp1 argument beyond which terms are < 1e-24


@dataclass(frozen=True)
class ZetaDetReport:
    """Decomposition of -zeta'(0) into split-integral components."""

    log_det: float
    delta_split: float
    integral_tail: float
    integral_head: float
    correction_terms: float
    error_estimate: float
    flagged: bool = False


# ---------------------------------------------------------------------------
# heat-trace residual r(t) = tr(e^{-t Lap}) - a/t - b/sqrt(t) - c
# ---------------------------------------------------------------------------

def heat_trace_residual(surface: ModelSurface, t: np.ndarray) -> np.ndarray:
    """r(t) = tr - a/t - b/sqrt(t) - c, computed without catastrophic cancellation
    for the lattice-type surfaces (where the Poisson identities are exact)."""
    return surface.heat_trace_residual(t)


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------

_LEGGAUSS_CACHE: dict = {}


def _leggauss(n: int):
    if n not in _LEGGAUSS_CACHE:
        _LEGGAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _LEGGAUSS_CACHE[n]


def _gauss_panel(f, lo: float, hi: float, n: int = 24) -> float:
    x, w = _leggauss(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return float(half * np.dot(w, f(mid + half * x)))


def _geometric_quadrature(f, lo: float, hi: float, n: int = 24):
    """Integrate f over [lo, hi] on per-octave Gauss panels; returns value and a
    refinement-based error estimate."""
    edges = [hi]
    while edges[-1] > 2.0 * lo:
        edges.append(edges[-1] / 2.0)
    edges.append(lo)
    total, total_fine = 0.0, 0.0
    for a, b in zip(edges[1:], edges[:-1]):
        total += _gauss_panel(f, a, b, n)
        total_fine += _gauss_panel(f, a, b, 2 * n)
    return total_fine, abs(total_fine - total)


def head_integral(surface: ModelSurface, delta: float, s: float = 0.0):
    """int_0^delta t^{s-1} r(t) dt with r the subtracted trace residual.

    Returns (value, error_estimate).  Below a surface-dependent cut the residual
    is extrapolated by a fitted leading-power expansion.
    """
    t_lo = min(delta, max(delta * surface.head_cut_ratio, surface.head_cut_floor))

    def integrand(t):
        return t ** (s - 1.0) * heat_trace_residual(surface, t)

    body, body_err = _geometric_quadrature(integrand, t_lo, delta)
    # stub below t_lo via a fit of the residual's leading powers as t -> 0:
    # sqrt(t) with boundary, t when closed
    powers = (1.0, 2.0, 3.0) if surface.is_closed else (0.5, 1.0, 1.5)
    t_fit = np.geomspace(t_lo, min(4.0 * t_lo, delta), 8)
    r_fit = heat_trace_residual(surface, t_fit)
    design = np.vstack([t_fit**p for p in powers]).T
    coef, *_ = np.linalg.lstsq(design, r_fit, rcond=None)
    stub = sum(
        c * t_lo ** (p + s) / (p + s) for c, p in zip(coef, powers)
    )
    stub_err = abs(coef[-1]) * t_lo ** (powers[-1] + s) / (powers[-1] + s) + 1e-14
    if not np.isfinite(stub):
        stub, stub_err = 0.0, abs(r_fit[0])
    return body + stub, body_err + abs(stub_err)


# ---------------------------------------------------------------------------
# the zeta function
# ---------------------------------------------------------------------------

def zeta(surface: ModelSurface, s: float) -> float:
    """Spectral zeta sum over nonzero eigenvalues, for s in the series region."""
    if s <= 1.0 + 1e-3:
        raise ValueError("outside series domain; use log_det path")
    return surface.zeta_series(s)


def mellin_zeta(surface: ModelSurface, s: float) -> float:
    """zeta(s) by Mellin quadrature of the heat trace, the dual route to zeta()."""
    if s <= 1.0 + 1e-3:
        raise ValueError("outside series domain; use log_det path")
    hc = surface.heat_coefficients()
    n = surface.zero_modes
    t0 = surface.mellin_start
    # analytic contribution of a/t + b/sqrt(t) + (c - n) on (0, t0]
    head = (
        hc.a_coef * t0 ** (s - 1) / (s - 1)
        + hc.b_coef * t0 ** (s - 0.5) / (s - 0.5)
        + (hc.c_coef - n) * t0**s / s
    )
    # residual part of the head, bounded by the leading residual power
    head_resid, _ = head_integral(surface, t0, s=s)
    gap = surface.spectral_gap()
    t_max = _E1_CUT / gap

    def integrand(t):
        return t ** (s - 1.0) * (surface.heat_trace(t) - n)

    body, _ = _geometric_quadrature(integrand, t0, t_max)
    return (head + head_resid + body) / special.gamma(s)


def zeta_continued(surface: ModelSurface, s: float, delta: float = 0.05) -> float:
    """The analytically continued zeta for finite s >= 0, in particular for
    0 < s < 1.

    Its poles are s = 1 when a != 0 and s = 1/2 when b != 0, where it raises
    ValueError; a term whose coefficient is 0 is skipped, since at its pole
    it would read 0/0. Negative s raises ValueError: the tail's incomplete
    gamma function Q(s, x) is not defined there.
    """
    if not 0.0 <= s < math.inf:
        raise ValueError("zeta_continued needs finite s >= 0, got %r" % (s,))
    hc = surface.heat_coefficients()
    n = surface.zero_modes
    poles = ((hc.a_coef, 1.0), (hc.b_coef, 0.5))
    for coef, pole in poles:
        if coef != 0 and s == pole:
            raise ValueError("zeta has a pole at s = %g" % pole)
    stream = surface.eigen_stream(_E1_CUT / delta)
    lam, mult = stream.eigenvalues, stream.multiplicities
    nz = lam > 1e-14
    lam, mult = lam[nz], mult[nz]
    tail_sum = float(np.sum(mult * lam ** (-s) * special.gammaincc(s, lam * delta)))
    head_resid, _ = head_integral(surface, delta, s=s)
    g = special.gamma(s)
    value = tail_sum + head_resid / g
    for coef, pole in poles:
        if coef != 0:
            value += coef * delta ** (s - pole) / ((s - pole) * g)
    return value + (hc.c_coef - n) * delta**s / special.gamma(s + 1)


def zeta_at_zero(surface: ModelSurface) -> float:
    """zeta(0) = c_coef - n (constant heat coefficient minus zero modes)."""
    return surface.heat_coefficients().c_coef - surface.zero_modes


def richardson_zeta_at_zero(surface: ModelSurface, s0: float = 0.1, levels: int = 5):
    """Richardson extrapolation of the continued zeta along s = s0 * 2^{-k}."""
    ss = [s0 * 2.0**-k for k in range(levels)]
    vals = [zeta_continued(surface, s) for s in ss]
    table = list(vals)
    for j in range(1, levels):
        table = [
            (2.0**j * table[i + 1] - table[i]) / (2.0**j - 1.0)
            for i in range(len(table) - 1)
        ]
    return table[0]


# ---------------------------------------------------------------------------
# the zeta-regularized determinant
# ---------------------------------------------------------------------------

def log_det_zeta(surface: ModelSurface, delta: float = 0.1) -> ZetaDetReport:
    """log of the zeta-regularized determinant via the split-integral continuation.

    zeta'(0) = int_delta^inf t^-1 (tr - n) dt + int_0^delta t^-1 r(t) dt
               - a/delta - 2 b/sqrt(delta) + (log delta + gamma) (c - n)
    and log det = -zeta'(0).  The first integral is summed exactly per
    eigenvalue as exponential integrals.
    """
    if not 1e-5 <= delta <= 0.5:
        raise ValueError("delta must lie in [1e-5, 0.5]")
    hc = surface.heat_coefficients()
    n = surface.zero_modes

    stream = surface.eigen_stream(_E1_CUT / delta)
    lam, mult = stream.eigenvalues, stream.multiplicities
    nz = lam > 1e-14
    integral_tail = float(np.sum(mult[nz] * special.exp1(lam[nz] * delta)))
    tail_trunc_err = 1e-20 * max(1.0, stream.count())

    integral_head, head_err = head_integral(surface, delta)
    correction = (
        -hc.a_coef / delta
        - 2.0 * hc.b_coef / math.sqrt(delta)
        + (math.log(delta) + EULER_GAMMA) * (hc.c_coef - n)
    )
    zeta_prime_0 = integral_tail + integral_head + correction
    # the refinement-based head estimate under-reports by small factors on
    # the eigen-sum surfaces; a x4 safety margin keeps the report conservative
    err = 4.0 * head_err + tail_trunc_err + 1e-13
    return ZetaDetReport(
        log_det=float(-zeta_prime_0),
        delta_split=delta,
        integral_tail=integral_tail,
        integral_head=float(integral_head),
        correction_terms=correction,
        error_estimate=float(err),
        flagged=bool(err > 1e-6),
    )


def polyakov_alvarez(
    surface_g0: ModelSurface, sigma_const: float, log_det_g0: float
) -> float:
    """Determinant shift under the constant conformal rescaling g = e^{2 sigma} g0.

    Eigenvalues scale by e^{-2 sigma}, so log det shifts by -2 sigma zeta(0);
    written out, the closed case reads log_det_g0 - sigma chi / 3 + 2 sigma and
    the smooth-boundary case log_det_g0 - sigma chi / 3.
    """
    if not surface_g0.smooth_boundary:
        raise ValueError("corners violate smooth-boundary hypothesis (disk only)")
    return log_det_g0 - 2.0 * sigma_const * zeta_at_zero(surface_g0)


def scaled_surface(surface: ModelSurface, sigma_const: float) -> ModelSurface:
    """The surface with all lengths multiplied by e^sigma."""
    f = math.exp(sigma_const)
    return replace(surface, **{fd.name: f * getattr(surface, fd.name)
                               for fd in fields(surface)})
