"""Spectral zeta functions and the zeta-regularized Laplacian determinant.

The determinant is computed through the split-integral analytic continuation:
the Mellin integral of the heat trace is cut at a split point delta, the
large-t part is summed exactly per eigenvalue (exponential integrals), and
the small-t part is integrated after subtracting the a/t + b/sqrt(t) + c
expansion, whose contribution is continued in closed form (its constant
term is `zeta_at_zero`, c - n).  The result is independent of the split
point, which the report's error estimate certifies.

The small-t integral runs over the octave panels [delta/2^(k+1), delta/2^k]
down to a cut t_lo <= delta / 4, below which a fitted expansion takes over.
`mellin_zeta` derives its start t0 from the surface's `head_cut_floor`.
Each panel's pair of 24- and 48-point Gauss values is memoized, keyed by
(surface, lo, hi, s), in a bounded memo of `_HEAD_PANEL_CACHE_SIZE` entries
that drops its oldest first.  Surfaces compare by value and halving is exact
in binary, so a sweep over split points delta, delta/2, ... computes each
shared panel once, and the panels are added in the same top-down order, so
every sum is unchanged.

Each quadrature calls its integrand once: `_geometric_quadrature` (the loop
mass and the Mellin body) on the nodes of both rules of all its octave
panels, and `head_integral` makes one residual call per head, on the 8 nodes
of its stub's fit and the 24 + 48 nodes of each panel that the memo does not
hold.  This is exact: the integrands, t^{s-1} r(t) and e^{-kappa t} tr / t,
act elementwise, and a heat trace or residual on a batch of t equals its
scalar calls bit for bit, so each rule's value, reduced from its own slice,
is the one that a call of the integrand on that rule alone gives.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, fields, replace

import numpy as np
import scipy

from .surfaces import _TAIL_EXPONENT, EnumerationBudgetError, ModelSurface

# Euler-Mascheroni constant, 20 digits
EULER_GAMMA = 0.57721566490153286061

# split point of the continuation wherever no caller chooses one; results do
# not depend on it (criterion 6 certifies this)
_SPLIT_DELTA = 0.05
# most (surface, lo, hi, s) octave panels of the head quadrature kept at once
_HEAD_PANEL_CACHE_SIZE = 4096


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

_leggauss = functools.cache(np.polynomial.legendre.leggauss)


def _gauss_nodes(lo: float, hi: float, n: int) -> np.ndarray:
    """Nodes mid + half x of the n-point Gauss rule on [lo, hi]."""
    x, _ = _leggauss(n)
    return 0.5 * (hi + lo) + 0.5 * (hi - lo) * x


def _gauss_sum(lo: float, hi: float, values: np.ndarray) -> float:
    """Gauss value half w . values of int_lo^hi f, from the values of f at
    the `_gauss_nodes` of the rule with values.size points."""
    _, w = _leggauss(values.size)
    return float(0.5 * (hi - lo) * np.dot(w, values))


def _rule_nodes(panels) -> list:
    """The nodes of the 24-point and then the 48-point rule of each panel
    (a, b), in panel order: 72 a panel."""
    return [_gauss_nodes(a, b, n) for a, b in panels for n in (24, 48)]


def _rule_pairs(panels, values: np.ndarray) -> list:
    """(24-point, 48-point) Gauss values of each panel (a, b), from the
    values of f at its `_rule_nodes` joined: each rule reduces its own slice
    in place of a call of f, so that, f acting elementwise, every value is
    the one that a call of f on that rule alone gives."""
    pairs = []
    for k, (a, b) in enumerate(panels):
        coarse, fine = values[72 * k:72 * k + 24], values[72 * k + 24:72 * k + 72]
        pairs.append((_gauss_sum(a, b, coarse), _gauss_sum(a, b, fine)))
    return pairs


def _gauss_pairs(f, panels):
    """(24-point, 48-point) Gauss values of int_a^b f on each panel (a, b),
    from one call of f on the nodes of every rule of every panel."""
    return _rule_pairs(panels, f(np.concatenate(_rule_nodes(panels))))


def _octave_panels(lo: float, hi: float):
    """The octave panels [hi/2, hi], [hi/4, hi/2], ... of [lo, hi], top
    down, the last one cut at lo."""
    edges = [hi]
    while edges[-1] > 2.0 * lo:
        edges.append(edges[-1] / 2.0)
    edges.append(lo)
    return list(zip(edges[1:], edges[:-1]))


def _panel_sum(pairs):
    """Sum the (24-point, 48-point) Gauss values of the octave panels in
    their top-down order; returns the 48-point sum and its gap to the
    24-point sum as error estimate."""
    total, total_fine = 0.0, 0.0
    for coarse, fine in pairs:
        total += coarse
        total_fine += fine
    return total_fine, abs(total_fine - total)


def _geometric_quadrature(f, lo: float, hi: float):
    """Integrate f over [lo, hi] on per-octave 48-point Gauss panels, with
    one call of f; returns value and the gap to 24-point panels as error
    estimate."""
    return _panel_sum(_gauss_pairs(f, _octave_panels(lo, hi)))


_CacheInfo = namedtuple("CacheInfo", "misses maxsize currsize")


class _PanelMemo:
    """Bounded memo of head panels: (surface, lo, hi, s) -> their 24- and
    48-point Gauss values, which depend on the key alone, so they can be
    held across calls (the disk's trace at each t does not depend on how far
    the Bessel-zero cache has grown, since a grown cache equals a cold
    build).  `lookup` reads every panel of a head, one dict lookup a panel,
    before any trace is computed; `store` adds the computed ones and drops
    the oldest past `maxsize`.  `cache_info` (misses, maxsize, currsize)
    and `cache_clear` read as on a `functools.lru_cache`."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._pairs = OrderedDict()
        self._misses = 0

    def lookup(self, keys) -> list:
        """The held pair of each key, None where it is not held."""
        get = self._pairs.get
        pairs = [get(key) for key in keys]
        self._misses += pairs.count(None)
        return pairs

    def store(self, items) -> None:
        self._pairs.update(items)
        while len(self._pairs) > self.maxsize:
            self._pairs.popitem(last=False)

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._misses, self.maxsize, len(self._pairs))

    def cache_clear(self) -> None:
        self._pairs.clear()
        self._misses = 0


_head_panel = _PanelMemo(_HEAD_PANEL_CACHE_SIZE)


def _head_cut(surface: ModelSurface, delta: float) -> float:
    """t_lo = min(delta / 4, max(delta `head_cut_ratio`, `head_cut_floor`)),
    below which `head_integral` fits the residual."""
    return min(delta / 4.0, max(delta * surface.head_cut_ratio, surface.head_cut_floor))


def head_integral(surface: ModelSurface, delta: float, s: float = 0.0):
    """int_0^delta t^{s-1} r(t) dt with r the subtracted trace residual.

    Returns (value, error_estimate).  Below a surface-dependent cut t_lo <=
    delta / 4 the residual is extrapolated by a fitted leading-power
    expansion.  One residual call serves the head: the nodes of each octave
    panel that `_head_panel` does not hold, top down, then the fit's 8
    nodes, next to the lowest panel's, so that a sphere row block holds
    neighbouring t.  An enumeration too large for the smallest t is still
    refused before any trace is summed: the sphere checks its budget on the
    whole batch first, and the disk enumerates its lowest octave first.
    """
    t_lo = _head_cut(surface, delta)
    panels = _octave_panels(t_lo, delta)
    keys = [(surface, a, b, s) for a, b in panels]
    pairs = _head_panel.lookup(keys)
    missed = [k for k, pair in enumerate(pairs) if pair is None]
    t_fit = np.geomspace(t_lo, min(4.0 * t_lo, delta), 8)
    t = np.concatenate(_rule_nodes(panels[k] for k in missed) + [t_fit])
    r = heat_trace_residual(surface, t)
    # stub below t_lo via a fit of the residual's leading powers as t -> 0:
    # sqrt(t) with boundary, t when closed
    powers = (1.0, 2.0, 3.0) if surface.is_closed else (0.5, 1.0, 1.5)
    r_fit = r[-t_fit.size:]
    design = np.vstack([t_fit**p for p in powers]).T
    coef, *_ = np.linalg.lstsq(design, r_fit, rcond=None)
    # a fit past the float range (a surface below L ~ 1e-152) gives a stub
    # of inf or nan, which is replaced below
    with np.errstate(over="ignore", invalid="ignore"):
        stub = sum(
            c * t_lo ** (p + s) / (p + s) for c, p in zip(coef, powers)
        )
        stub_err = abs(coef[-1]) * t_lo ** (powers[-1] + s) / (powers[-1] + s) + 1e-14
    if not np.isfinite(stub):
        stub, stub_err = 0.0, abs(r_fit[0])
    if missed:
        n = t.size - t_fit.size
        computed = _rule_pairs([panels[k] for k in missed], t[:n] ** (s - 1.0) * r[:n])
        for k, pair in zip(missed, computed):
            pairs[k] = pair
        _head_panel.store((keys[k], pair) for k, pair in zip(missed, computed))
    body, body_err = _panel_sum(pairs)
    return body + stub, body_err + abs(stub_err)


# ---------------------------------------------------------------------------
# the zeta function
# ---------------------------------------------------------------------------

def _check_series_domain(s: float) -> None:
    """ValueError unless s > 1.001 (so for nan too), where both routes hold."""
    if not s > 1.0 + 1e-3:
        raise ValueError("outside series domain; use log_det path")


def zeta(surface: ModelSurface, s: float) -> float:
    """Spectral zeta sum over nonzero eigenvalues, for s in the series region.

    ValueError, naming s and the surface's largest length, where the value is
    not finite: past the float64 range the closed forms' Python powers raise
    OverflowError and the eigenvalue sums read inf or nan."""
    _check_series_domain(s)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = surface.zeta_series(s)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError("zeta at s = %g is past the float64 range at largest"
                         " length %g" % (s, surface.largest_length))
    return value


def mellin_zeta(surface: ModelSurface, s: float) -> float:
    """zeta(s) by Mellin quadrature of the heat trace, the dual route to zeta().

    The quadrature starts at t0 = max(1e-6, 4 `head_cut_floor`), times L^2
    when the surface's `largest_length` L is below 1, so that t0 / L^2, and
    with it the fit of the head's stub and the enumeration at its smallest
    t, stay where they are at unit size.  ValueError, naming L, where the
    head or the spectral gap fails while the head's cut underflows to 0 or
    _TAIL_EXPONENT over it overflows (L below about 2e-153, 5e-152 on the
    disk): there t0, the cut or a cutoff sized by 1 / L^2 leaves the
    float64 range.  Where neither fails, the value is kept.  ValueError, naming
    s, past s = 171.6, where Gamma(s) is past float64, and, naming s and L,
    where t^(s-1) overflows at the body's top node, just below its end
    t_max, at least 50 over the spectral gap (on the interval, L above about
    7.9 at s = 100).  At large s the body
    loses digits on closed surfaces, where tr - n cancels, and on the disk:
    FlatTorus(1, 2) and RoundSphere(1) are 5e-4 off at s = 20, and
    DiskDirichlet(1) 0.5 at s = 50.
    """
    _check_series_domain(s)
    if scipy.special.gamma(s) == math.inf:
        raise ValueError("mellin_zeta at s = %g: Gamma(s) is past the float64 range"
                         " (s above about 171.6)" % s)
    hc = surface.heat_coefficients()
    n = surface.zero_modes
    # 4 x the floor keeps the head's cut, t0 / 4, at the floor; at the floor
    # the cut would move to floor / 4 and the disk's build to 4x the zeros
    length = surface.largest_length
    t0 = max(1e-6, 4.0 * surface.head_cut_floor) * min(1.0, length * length)
    # analytic contribution of a/t + b/sqrt(t) + (c - n) on (0, t0]
    head = hc.mellin_head(t0, s) + zeta_at_zero(surface) * t0**s / s
    try:
        # residual part of the head, bounded by the leading residual power
        head_resid, _ = head_integral(surface, t0, s=s)
        gap = surface.spectral_gap()
    except (ValueError, EnumerationBudgetError):
        # refused by name where the head's cut, or the cutoff _TAIL_EXPONENT /
        # cut of a trace at it, leaves the float64 range
        cut = _head_cut(surface, t0)
        if cut > 0.0 and _TAIL_EXPONENT / cut < math.inf:
            raise
        raise ValueError("surface too small: the Mellin start underflows float64"
                         " at largest length %g" % length) from None
    # the body past x = gap t_max drops about the fraction Q(s, x) of the
    # integral: x = _TAIL_EXPONENT for s up to 5, the x with Q = 1e-16 above
    t_max = max(_TAIL_EXPONENT, scipy.special.gammainccinv(s, 1e-16)) / gap
    # the body's largest t^(s-1) is at the top node of its top panel, just
    # below t_max; where it overflows, so does the integral
    top = _octave_panels(t0, t_max)[0]
    with np.errstate(over="ignore"):
        power = max(np.max(_gauss_nodes(*top, n) ** (s - 1.0)) for n in (24, 48))
    if power == math.inf:
        raise ValueError("mellin_zeta at s = %g: t^(s-1) at t = %g, the end of its body,"
                         " is past the float64 range at largest length %g"
                         % (s, t_max, length))

    def integrand(t):
        return t ** (s - 1.0) * (surface.heat_trace(t) - n)

    body, _ = _geometric_quadrature(integrand, t0, t_max)
    return (head + head_resid + body) / scipy.special.gamma(s)


def zeta_continued(surface: ModelSurface, s: float) -> float:
    """The analytically continued zeta for finite s >= 0, in particular for
    0 < s < 1, split at t = _SPLIT_DELTA.

    At the poles of `HeatCoefficients.mellin_head` it raises ValueError, and
    at negative s, where the tail's incomplete gamma function Q(s, x) is not
    defined.
    """
    if not 0.0 <= s < math.inf:
        raise ValueError("zeta_continued needs finite s >= 0, got %r" % (s,))
    delta = _SPLIT_DELTA
    # refuses a pole before any panel is computed
    head = surface.heat_coefficients().mellin_head(delta, s)
    # the head first: its smallest t needs the most eigenvalues
    head_resid, _ = head_integral(surface, delta, s=s)
    lam, mult = surface.nonzero_spectrum(_TAIL_EXPONENT / delta)
    tail_sum = float(np.sum(mult * lam ** (-s) * scipy.special.gammaincc(s, lam * delta)))
    return (tail_sum + (head + head_resid) / scipy.special.gamma(s)
            + zeta_at_zero(surface) * delta**s / scipy.special.gamma(s + 1))


def zeta_at_zero(surface: ModelSurface) -> float:
    """zeta(0) = c_coef - n (constant heat coefficient minus zero modes)."""
    return surface.heat_coefficients().c_coef - surface.zero_modes


def _richardson(table, factors) -> list:
    """Richardson stages: the one at factor f maps neighbouring entries
    (x, y) of the table to (f y - x) / (f - 1)."""
    for f in factors:
        table = [(f * y - x) / (f - 1.0) for x, y in zip(table, table[1:])]
    return table


def richardson_zeta_at_zero(surface: ModelSurface):
    """Richardson extrapolation of the continued zeta along s = 0.1 * 2^{-k},
    k = 0..4."""
    table = [zeta_continued(surface, 0.1 * 2.0**-k) for k in range(5)]
    return _richardson(table, [2.0**j for j in range(1, 5)])[0]


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
    # the head first: its smallest t needs the most eigenvalues
    integral_head, head_err = head_integral(surface, delta)

    lam, mult = surface.nonzero_spectrum(_TAIL_EXPONENT / delta)
    integral_tail = float(np.sum(mult * scipy.special.exp1(lam * delta)))
    # one part in 1e20 per eigenvalue summed, zero modes included
    tail_trunc_err = 1e-20 * max(1.0, int(mult.sum()) + surface.zero_modes)

    correction = (-surface.heat_coefficients().divergent(delta)
                  + (math.log(delta) + EULER_GAMMA) * zeta_at_zero(surface))
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
    shifted = log_det_g0 - 2.0 * sigma_const * zeta_at_zero(surface_g0)
    if not math.isfinite(shifted):
        raise ValueError("shift is not finite at sigma_const = %r, log_det_g0 = %r"
                         % (sigma_const, log_det_g0))
    return shifted


def scaled_surface(surface: ModelSurface, sigma_const: float) -> ModelSurface:
    """The surface with all lengths multiplied by e^sigma."""
    try:
        f = math.exp(sigma_const)
    except OverflowError:
        raise ValueError("e^sigma_const is past the float64 range at sigma_const = %r"
                         % (sigma_const,)) from None
    return replace(surface, **{fd.name: f * getattr(surface, fd.name)
                               for fd in fields(surface)})
