"""Model surfaces with explicit Laplace spectra and certified heat traces.

Five closed-form geometries are supported: the Dirichlet interval (a 1-D
calibration case), the Dirichlet rectangle, the rectangular flat torus, the
round sphere and the Dirichlet disk.  Each surface knows its small-t heat
coefficients, its spectrum below a cutoff, and how to evaluate tr(e^{-t Lap})
with a truncation error far below 1e-13.  The lattice-type surfaces
(interval, rectangle, torus) build their traces from one sine series per
side, a Poisson sum at small t; the sphere and disk sum over eigenvalues,
one row block (`_blocks`) of a batch of t at a time, each t's terms
formed and summed exactly as in a call at that t alone, so that a batch
equals scalar calls bit for bit.  The disk enumerates its eigenvalues once
per octave of t / min(t), at the cutoff of that octave's smallest t, so
that a batch over many octaves scans no more terms per row than calls of
one octave each would.  The rectangle and the torus share one
lattice spectrum, `_grid_spectrum`, and one closed form of their zeta sum,
`_quarter_lattice_zeta`.  The disk's eigenvalues come from a
process-wide cache of Bessel zeros, which one thread at a time grows under a
lock and which refines each new band on two threads where two cores are
available (see `_BesselZeroCache`).

A surface is a frozen dataclass whose fields are lengths, each finite and
positive.  Its geometry (area, boundary length, Euler characteristic) enters
only through `heat_coefficients()`, whose docstring states it.  It provides
`heat_coefficients()`, `_enumerate(cutoff)` (the eigenvalues up to the
cutoff, in increasing order, and their multiplicities, which `eigen_stream`
returns as they are, so that the zero modes, exact zeros, are its first
`zero_modes` entries, the ones `nonzero_spectrum` drops; the disk's come in
Bessel-cache order, which its own `eigen_stream` sorts; an infinite cutoff, or
a count that fails the one budget gate `_budgeted`, raises
EnumerationBudgetError before allocating), `_heat_traces(t)` on a 1-D
array of t, which `heat_trace` calls after it refuses any t that is not
finite and > 0 (the sphere's sum over l passes its term count through
`_budgeted` too), and `zeta_series(s)`: a closed form on the interval and
the lattices, a sum with its Euler-Maclaurin tail on the sphere, and on the
disk r^(2s) times the unit disk's `zeta.zeta_continued`.  Optional overrides:
an exact `heat_trace_residual(t)` (the lattice ones refuse the same t, t /
L^2 > `_POISSON_T_MAX` for a side L, and L^2 / t past the float range);
optional class constants: `zero_modes`, `smooth_boundary`, `head_cut_ratio`
and `head_cut_floor` (from which the Mellin route derives its start, see
`zeta.mellin_zeta`).
"""

from __future__ import annotations

import decimal
import logging
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np
import scipy

from . import _blocks

log = logging.getLogger("loopzeta")

# exponent x past which a dropped term is negligible: exp(-x) < 2e-22 in the
# heat traces, E1(x) < 4e-24 in the zeta tail sums
_TAIL_EXPONENT = 50.0
# t / L^2 at which `_sine_trace` over a side L goes from its Poisson sum to 12 terms
_T_CROSSOVER = 0.05
# hard cap on the Halley steps per Bessel zero; 3 or 4 suffice from the
# asymptotic guesses
_BESSEL_MAX_STEPS = 20
# threads that refine a band of Bessel zeros, the calling one included: two
# where two cores are ours (`scipy.special.jv` runs without the GIL), else one
_BESSEL_THREADS = (min(2, len(os.sched_getaffinity(0)))
                   if hasattr(os, "sched_getaffinity") else 1)
# most eigenvalues (with multiplicity) one enumeration may produce
_EIGEN_BUDGET = 5_000_000
# largest t / L^2 at which a lattice residual's Poisson sum over a side L is
# taken: it needs about sqrt(46 t) / L terms, some 7000 here
_POISSON_T_MAX = 1e6


class EnumerationBudgetError(RuntimeError):
    """Raised when a spectral enumeration would exceed its budget."""

    def __init__(self, required: int, budget: int):
        try:
            count = "%.3g" % required
        except OverflowError:  # past the float range
            count = format(decimal.Decimal(required), ".3g")
        super().__init__("spectral enumeration needs ~%s eigenvalues, budget is %d"
                         % (count, budget))
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class HeatCoefficients:
    """Coefficients (a, b, c) of the small-t trace expansion a/t + b/sqrt(t) + c."""

    a_coef: float
    b_coef: float
    c_coef: float

    def divergent(self, delta: float) -> float:
        """a/delta + 2b/sqrt(delta), the integral of t^-1 (a/t + b/sqrt(t)) over
        t > delta; with b < 0 for a Dirichlet boundary (b = 0 when closed) it
        reads Vol/(4 pi delta) - Len/(4 sqrt(pi delta))."""
        return self.a_coef / delta + 2.0 * self.b_coef / math.sqrt(delta)

    def mellin_head(self, delta: float, s: float) -> float:
        """int_0^delta t^{s-1} (a/t + b/sqrt(t)) dt, continued in s; a term whose
        coefficient is 0 is skipped (at its pole it would read 0/0), and at the
        pole of another, s = 1 or 1/2, ValueError is raised."""
        head = 0.0
        for coef, pole in ((self.a_coef, 1.0), (self.b_coef, 0.5)):
            if coef == 0:
                continue
            if s == pole:
                raise ValueError("zeta has a pole at s = %g" % pole)
            head += coef * delta ** (s - pole) / (s - pole)
        return head


@dataclass(frozen=True)
class EigenStream:
    """All eigenvalues of a surface up to a cutoff, in increasing order, with
    their multiplicities; on a lattice, where every multiplicity is 1, these
    are a read-only broadcast of 1.0."""

    eigenvalues: np.ndarray
    multiplicities: np.ndarray


class ModelSurface:
    """Base class; concrete surfaces implement the spectral primitives."""

    #: zero-eigenvalue multiplicity (1 for closed surfaces)
    zero_modes = 0
    #: False with corners, which violate the Polyakov-Alvarez hypothesis
    smooth_boundary = True
    #: head quadrature cut min(delta, max(delta * ratio, floor)); the exact
    #: lattice residuals decay faster than any power, so it goes almost to 0
    head_cut_ratio = 2.0**-40
    head_cut_floor = 0.0

    def __post_init__(self):
        for fd in fields(self):
            value = getattr(self, fd.name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError("%s must be finite and positive" % fd.name)

    @property
    def is_closed(self) -> bool:
        return self.zero_modes == 1

    def heat_coefficients(self) -> HeatCoefficients:
        raise NotImplementedError

    @property
    def largest_length(self) -> float:
        """L, the largest of the surface's lengths: eigenvalues scale as
        L^-2, so a cutoff or a time sized at unit size scales by L^-2 or L^2."""
        return max(getattr(self, fd.name) for fd in fields(self))

    def spectral_gap(self) -> float:
        """Smallest nonzero eigenvalue. The search starts at cutoff 200 / L^2,
        L the `largest_length`, and doubles until it reaches one: every size
        enumerates as many eigenvalues as unit size does from 200. Past
        L ~ 1e155 the start underflows, and the least positive float starts
        it."""
        length = self.largest_length
        cutoff = max(200.0 / length / length, math.ulp(0.0))
        while math.isfinite(cutoff):
            lam, _ = self.nonzero_spectrum(cutoff)
            if lam.size:
                return float(lam[0])
            cutoff *= 2.0
        raise ValueError("no nonzero eigenvalue below any finite cutoff")

    def eigen_stream(self, cutoff: float) -> EigenStream:
        if not cutoff > 0:
            raise ValueError("cutoff must be positive")
        if cutoff == math.inf:
            raise EnumerationBudgetError(math.inf, _EIGEN_BUDGET)
        return EigenStream(*self._enumerate(cutoff))

    def nonzero_spectrum(self, cutoff: float):
        """(eigenvalues, multiplicities) of `eigen_stream(cutoff)` without its
        first `zero_modes` entries, the zero modes, in increasing order."""
        stream = self.eigen_stream(cutoff)
        return (stream.eigenvalues[self.zero_modes:],
                stream.multiplicities[self.zero_modes:])

    def _enumerate(self, cutoff: float):
        raise NotImplementedError

    def heat_trace(self, t):
        """tr e^{-t Lap}, including the zero mode on closed surfaces: a float
        at a scalar t, elementwise at an array of t; ValueError unless every
        t is finite and > 0."""
        ts = _times(t)
        traces = self._heat_traces(ts.ravel())
        return float(traces[0]) if ts.ndim == 0 else traces.reshape(ts.shape)

    def _heat_traces(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def heat_trace_residual(self, t) -> np.ndarray:
        """r(t) = tr - a/t - b/sqrt(t) - c, elementwise; here the direct
        difference of the trace and the expansion."""
        t = np.asarray(t, dtype=float)
        hc = self.heat_coefficients()
        return self.heat_trace(t) - hc.a_coef / t - hc.b_coef / np.sqrt(t) - hc.c_coef

    def zeta_series(self, s: float) -> float:
        raise NotImplementedError


def _square(length: float, name: str = "radius") -> float:
    """length**2, or a ValueError that names a length (a radius, or the
    `name` given) whose square overflows or underflows to 0."""
    try:
        square = length**2
    except OverflowError:
        raise ValueError("%s %g is too large: its square overflows float64"
                         % (name, length)) from None
    if square == 0.0:
        raise ValueError("%s %g is too small: its square underflows float64"
                         % (name, length))
    return square


def _count(x: float):
    """int(x) of a count x >= 0, kept inf past the float range for a budget check."""
    return int(x) if x < math.inf else math.inf


def _budgeted(count):
    """count, refused unless count <= _EIGEN_BUDGET (nan, as from 0 * inf, too)."""
    if not count <= _EIGEN_BUDGET:
        raise EnumerationBudgetError(count, _EIGEN_BUDGET)
    return count


def _grid_spectrum(cutoff: float, a: float, b: float, unit: float, periodic: bool):
    """Eigenvalues unit^2 (m^2 / a^2 + n^2 / b^2) <= cutoff in increasing
    order, each of multiplicity 1: m, n in Z on the torus (unit 2 pi), m, n >=
    1 on the Dirichlet rectangle (unit pi), empty there when a side has no
    mode.  The budget counts the whole grid; it is formed and filtered one
    row block at a time, a row counted twice for the temporaries that form
    it, so that N eigenvalues take at most 16 N bytes, their filtered
    blocks and their concatenation, and sorted in place.  The sorted values
    of a multiset are unique, so they equal a stable sort of the whole grid
    bit for bit; the multiplicities are a read-only broadcast of 1.0."""
    m_max = _count(a / unit * math.sqrt(cutoff))
    n_max = _count(b / unit * math.sqrt(cutoff))
    if not periodic and 0 in (m_max, n_max):
        return np.empty(0), np.empty(0)
    m0, n0 = (-m_max, -n_max) if periodic else (1, 1)
    _budgeted((m_max - m0 + 1) * (n_max - n0 + 1))
    # a torus side whose square underflows would make its row or column 0 a 0/0
    a2, b2 = _square(a, "side"), _square(b, "side")
    m = np.arange(m0, m_max + 1, dtype=float)
    n_terms = np.arange(n0, n_max + 1, dtype=float) ** 2 / b2
    blocks = (unit**2 * (m[rows, None] ** 2 / a2 + n_terms)
              for rows in _blocks.row_blocks(m.size, 2 * n_terms.size))
    # at a cutoff near the float64 maximum an entry may overflow to inf,
    # which the filter drops
    with np.errstate(over="ignore"):
        lam = np.concatenate([block[block <= cutoff] for block in blocks])
    lam.sort()
    return lam, np.broadcast_to(1.0, lam.shape)


def _bessel_weight(nu: float, x: float) -> float:
    """2 (x/2)^nu K_nu(x) / Gamma(nu), which falls from 1 at x = 0, taken in
    logs, since each factor leaves float64 at large nu; nan where
    `scipy.special.kve` gives up (x above about 1e9), which ends a sum."""
    with np.errstate(divide="ignore"):
        return math.exp(math.log(2.0) + nu * math.log(x / 2.0) - x
                        - scipy.special.gammaln(nu) + np.log(scipy.special.kve(nu, x)))


def _quarter_lattice_zeta(s: float, a: float, b: float, unit: float) -> float:
    """sum_{m, n >= 1} (unit^2 (m^2 / a^2 + n^2 / b^2))^-s for s > 1, row by
    row after Chowla and Selberg (J. reine angew. Math. 227 (1967) 86).

    With a >= b, r = a / b and rho = 1 + 1 / r^2, it is its (1, 1) term
    (unit^2 rho / b^2)^-s, a Python power whose overflow raises
    OverflowError, times sum_{n >= 1} (n^2 / rho)^-s D(r n), where D(q) =
    sum_{m >= 1} (1 + m^2 / q^2)^-s: a sum of positive terms that depends on
    the aspect alone, so that the scaling law holds exactly.  From the first
    row n1 with q^2 >= s / 3 whose first Bessel term below stays in float64,
    D is Poisson-summed over m, D(q) = -1/2 + C q (1 + 2 sum_{k >= 1}
    `_bessel_weight`(s - 1/2, 2 pi k q)) with C = B(s - 1/2, 1/2) / 2: its
    first two terms sum over n to Hurwitz zetas at 2s and 2s - 1 from n1,
    and its Bessel terms, which fall in k and in n, run until one is below
    eps of the total.  A row before n1 (only at s > 3) is summed over m
    until an integral bound on the rest is below eps of the total, and they
    stop where C r n (1 + n / (2s - 2)) (n^2 / rho)^-s, a bound on all the
    rows from n on, is, so that at large s a row or two are summed.  A short
    side whose square underflows, which puts the eigenvalues past float64,
    is refused by name."""
    s = float(s)
    eps = np.finfo(float).eps
    a, b = max(a, b), min(a, b)
    t = (b / a) ** 2
    rho = t + 1.0
    first = ((b / unit) ** 2 / rho) ** s
    _square(b, "side")  # refuses a b whose square underflows
    r = a / b
    nu = s - 0.5
    # C = int_0^inf (1 + x^2)^-s dx; scipy's beta loses digits where Gamma(s)
    # leaves float64 (1e-13 at s = 200), and Stirling's series for log
    # Gamma(s - 1/2) - log Gamma(s) holds to 1e-15 there
    if scipy.special.gamma(s) < math.inf:
        half = scipy.special.beta(nu, 0.5) / 2.0
    else:
        half = math.sqrt(math.pi) / 2.0 * math.exp(
            (s - 1.0) * math.log1p(-0.5 / s) - 0.5 * math.log(s) + 0.5
            + (1.0 / nu - 1.0 / s) / 12.0 - (nu**-3 - s**-3) / 360.0)
    total, n = 0.0, 1
    while True:
        q = r * n
        if n > 1 and not (half * q * (1.0 + n / (2.0 * s - 2.0)) * (n * n / rho) ** -s
                          >= eps * total):
            return float(first * total)
        if q * q >= s / 3.0 and scipy.special.kve(nu, 2.0 * math.pi * q) != math.inf:
            break
        size = 16
        while True:
            m = np.arange(1.0, size + 1.0)
            terms = ((m * m * t + n * n) / rho) ** -s
            row = terms.sum()
            # the terms past m = size sum to at most this, by an integral
            rest = terms[-1] * (size * size + q * q) / (2.0 * size * (s - 1.0))
            if not rest >= eps * (total + row):
                break
            size *= 2
        total += row
        n += 1
    total += rho ** s * (half * r * scipy.special.zeta(2.0 * s - 1.0, n)
                         - 0.5 * scipy.special.zeta(2.0 * s, n))
    while True:
        q = r * n
        weight = 2.0 * half * q * (n * n / rho) ** -s
        row, k = 0.0, 1
        while True:
            term = weight * _bessel_weight(nu, 2.0 * math.pi * k * q)
            if not term >= eps * total:
                break
            row += term
            k += 1
        if not row:
            return float(first * total)
        total += row
        n += 1


def _times(t) -> np.ndarray:
    """t as a float array, refused unless every entry is finite and > 0: no
    trace is finite at t <= 0, and the Poisson sums never stop there."""
    t = np.asarray(t, dtype=float)
    bad = ~(np.isfinite(t) & (t > 0))
    if bad.any():
        raise ValueError("heat trace needs finite t > 0, got t = %g" % t[bad][0])
    return t


def _check_poisson_range(t, *sides: float) -> np.ndarray:
    """`_times(t)`, also refused when some t / side^2 exceeds
    _POISSON_T_MAX for the shortest side: the Poisson sums would run for
    minutes, or past t / side^2 ~ 3e39 stop after one term with a wrong
    value; and when side^2 / t overflows for the longest side, as the
    sums' exponents (side k)^2 / t would."""
    t = _times(t)
    t_max = t.max(initial=0.0)
    side = min(sides)
    if t_max > _POISSON_T_MAX * side * side:
        raise ValueError(
            "surface too small: the heat-trace residual needs t / side^2 <= %g,"
            " got side %g at t = %g" % (_POISSON_T_MAX, side, t_max))
    longest, t_min = max(sides), float(t.min(initial=math.inf))
    if not longest * longest / t_min < math.inf:
        raise ValueError(
            "surface too large: the heat-trace residual needs side^2 / t within"
            " float64, got side %g at t = %g" % (longest, t_min))
    return t


def _poisson_tail(scale, side: float, t: np.ndarray) -> np.ndarray:
    """sum_{k>=1} scale exp(-(side k)^2 / t) elementwise, summed until every
    term is below 1e-20: a theta sum past its k = 0 term, so that a residual
    needs no cancellation.  The interval's residual is the tail at
    (L / sqrt(pi t), L, t); a torus factor is P / (2 sqrt(pi t)) (1 + u)
    with u the tail at (2, P, 4 t)."""
    out = np.zeros_like(t)
    k = 1
    while True:
        term = scale * np.exp(-(side * k) ** 2 / t)
        out += term
        if np.all(term < 1e-20):
            return out
        k += 1


def _sine_trace(t: np.ndarray, side: float) -> np.ndarray:
    """S = sum_{n>=1} exp(-t (n pi / side)^2) elementwise.  Below the
    crossover it is side / (2 sqrt(pi t)) - 1/2 plus the interval's exact
    residual; at or above it, the first 12 terms, since the 13th exponent
    is past _TAIL_EXPONENT there.  Batches equal scalar calls: below the
    crossover a term past an entry's own stop is < e^-60 of its sum."""
    small = t < _T_CROSSOVER * side * side
    ts = t[small]
    scale = side / np.sqrt(math.pi * ts)
    out = np.empty_like(t)
    out[small] = scale / 2.0 - 0.5 + _poisson_tail(scale, side, ts)
    n = np.arange(1, 13)
    # on sides below about 2.5e-153 the exponents overflow to inf, and the
    # terms' exp(-inf) = 0.0 is their right limit
    with np.errstate(over="ignore"):
        exponents = (n * math.pi / side) ** 2
    out[~small] = np.exp(-t[~small, None] * exponents).sum(axis=1)
    return out


@dataclass(frozen=True)
class IntervalDirichlet(ModelSurface):
    length: float = 1.0
    smooth_boundary = False

    def heat_coefficients(self) -> HeatCoefficients:
        """(0, L / (2 sqrt(pi)), -1/2): length L, and -1/4 per Dirichlet end."""
        return HeatCoefficients(0.0, self.length / (2.0 * math.sqrt(math.pi)), -0.5)

    def _enumerate(self, cutoff):
        n_max = _budgeted(_count(self.length / math.pi * math.sqrt(cutoff)))
        n = np.arange(1, n_max + 1, dtype=float)
        lam = (n * math.pi / self.length) ** 2
        return lam, np.ones_like(lam)

    def _heat_traces(self, t):
        return _sine_trace(t, self.length)

    def heat_trace_residual(self, t) -> np.ndarray:
        t = _check_poisson_range(t, self.length)
        return _poisson_tail(self.length / np.sqrt(math.pi * t), self.length, t)

    def zeta_series(self, s: float) -> float:
        """(L / pi)^(2s) times the Riemann zeta at 2s."""
        return float((self.length / math.pi) ** (2 * s) * scipy.special.zeta(2 * s))


@dataclass(frozen=True)
class RectangleDirichlet(ModelSurface):
    side_a: float = 1.0
    side_b: float = 1.0
    smooth_boundary = False

    def heat_coefficients(self) -> HeatCoefficients:
        """a = Vol / (4 pi), b = -Len / (8 sqrt(pi)); c = 1/4, not chi/6: each
        of the four right-angle corners adds 1/16."""
        return HeatCoefficients(
            self.side_a * self.side_b / (4.0 * math.pi),
            -(self.side_a + self.side_b) / (4.0 * math.sqrt(math.pi)),
            0.25,
        )

    def _enumerate(self, cutoff):
        return _grid_spectrum(cutoff, self.side_a, self.side_b, math.pi, False)

    def _heat_traces(self, t):
        return _sine_trace(t, self.side_a) * _sine_trace(t, self.side_b)

    def heat_trace_residual(self, t) -> np.ndarray:
        t = _check_poisson_range(t, self.side_a, self.side_b)
        r1 = _poisson_tail(self.side_a / np.sqrt(math.pi * t), self.side_a, t)
        r2 = _poisson_tail(self.side_b / np.sqrt(math.pi * t), self.side_b, t)
        b1 = self.side_a / (2.0 * math.sqrt(math.pi))
        b2 = self.side_b / (2.0 * math.sqrt(math.pi))
        return r1 * (b2 / np.sqrt(t) - 0.5) + r2 * (b1 / np.sqrt(t) - 0.5) + r1 * r2

    def zeta_series(self, s: float) -> float:
        """pi^-2s sum_{m, n >= 1} (m^2 / a^2 + n^2 / b^2)^-s in closed form
        (`_quarter_lattice_zeta`)."""
        return _quarter_lattice_zeta(s, self.side_a, self.side_b, math.pi)


@dataclass(frozen=True)
class FlatTorus(ModelSurface):
    side_a: float = 1.0
    side_b: float = 1.0
    zero_modes = 1

    def heat_coefficients(self) -> HeatCoefficients:
        """a = Vol / (4 pi), b = 0 (no boundary), c = chi/6 = 0."""
        return HeatCoefficients(self.side_a * self.side_b / (4.0 * math.pi), 0.0, 0.0)

    def _enumerate(self, cutoff):
        return _grid_spectrum(cutoff, self.side_a, self.side_b, 2 * math.pi, True)

    def _heat_traces(self, t):
        # sum_{m in Z} exp(-t (2 pi m / P)^2) = 1 + 2 S(t; P / 2)
        return ((1.0 + 2.0 * _sine_trace(t, self.side_a / 2.0))
                * (1.0 + 2.0 * _sine_trace(t, self.side_b / 2.0)))

    def heat_trace_residual(self, t) -> np.ndarray:
        t = _check_poisson_range(t, self.side_a, self.side_b)
        four_t = 4.0 * t
        ua = _poisson_tail(2.0, self.side_a, four_t)
        ub = _poisson_tail(2.0, self.side_b, four_t)
        lead = self.side_a * self.side_b / (4.0 * math.pi * t)
        return lead * (ua + ub + ua * ub)

    def zeta_series(self, s: float) -> float:
        """(2 pi)^-2s [2 (a^2s + b^2s) zeta(2s) + 4 Q]: the axes m = 0 or n = 0,
        then the four quarters Q = sum_{m, n >= 1} (m^2 / a^2 + n^2 / b^2)^-s
        in closed form (`_quarter_lattice_zeta`); every term is positive,
        and a Python power that overflows raises OverflowError."""
        s = float(s)
        axes = sum((side / (2.0 * math.pi)) ** (2.0 * s) for side in (self.side_a, self.side_b))
        return (2.0 * float(scipy.special.zeta(2.0 * s)) * axes
                + 4.0 * _quarter_lattice_zeta(s, self.side_a, self.side_b, 2.0 * math.pi))


@dataclass(frozen=True)
class RoundSphere(ModelSurface):
    radius: float = 1.0
    zero_modes = 1
    head_cut_ratio = 2.0**-16
    head_cut_floor = 1e-7

    def heat_coefficients(self) -> HeatCoefficients:
        """a = Vol / (4 pi) = r^2, b = 0 (no boundary), c = chi/6 = 1/3."""
        return HeatCoefficients(_square(self.radius), 0.0, 1.0 / 3.0)

    def _enumerate(self, cutoff):
        # l(l+1)/r^2 <= cutoff
        r2 = _square(self.radius)
        ell_max = _count((math.sqrt(1.0 + 4.0 * cutoff * r2) - 1) / 2)
        _budgeted(ell_max + 1)
        ell = np.arange(0, ell_max + 1, dtype=float)
        return ell * (ell + 1) / r2, 2.0 * ell + 1.0

    def _heat_traces(self, t):
        # the sum at t runs over l <= l_max(t); every row of a block takes the
        # block's widest range, but sums only its own first l_max(t) + 1
        # terms, formed in the same operand order as a sum at that t alone:
        # ((-t) l) (l + 1) / r^2, exp, times 2 l + 1, in place in one buffer
        # that every block reuses. A row counts twice its terms, which keeps
        # a block to half a memory block and few neighbouring t.
        r2 = _square(self.radius)
        ell_max = np.ceil(np.sqrt(_TAIL_EXPONENT * r2 / t)) + 2
        _budgeted(_count(ell_max.max(initial=0.0)) + 1)
        ell_max = ell_max.astype(int)
        out = np.empty(t.size)
        blocks = _blocks.row_blocks(t.size, 2 * (int(ell_max.max(initial=0)) + 1))
        if blocks:
            buffer = np.empty((blocks[0].stop - blocks[0].start) * (ell_max.max() + 1))
        for rows in blocks:
            ell = np.arange(0, ell_max[rows].max() + 1, dtype=float)
            terms = buffer[:(rows.stop - rows.start) * ell.size].reshape(-1, ell.size)
            np.multiply(-t[rows, None], ell, out=terms)
            terms *= ell + 1
            terms /= r2
            np.exp(terms, out=terms)
            terms *= 2 * ell + 1
            out[rows] = [row[:top + 1].sum() for row, top in zip(terms, ell_max[rows])]
        return out

    def zeta_series(self, s: float) -> float:
        """Sum over l <= ell_max plus its Euler-Maclaurin tail from X =
        ell_max + 1; ValueError, naming the radius, where 4 s X^2 / r^2
        overflows float64 (r below about 7e-151 at s = 1.5), since the tail
        would take inf times an underflowed power, a nan."""
        r2 = _square(self.radius)
        ell_max = 4000
        x = ell_max + 1.0
        # in Python floats, where an overflow is inf rather than a warning
        scale = 4.0 * float(s) * x * x / float(r2)
        if scale == math.inf:
            raise ValueError("radius %g is too small for the zeta series at s = %g:"
                             " 4 s l^2 / r^2 at l = %d overflows float64"
                             % (self.radius, s, x))
        ell = np.arange(1, ell_max + 1, dtype=float)
        lam = ell * (ell + 1) / r2
        partial = float(np.sum((2 * ell + 1) * lam ** (-s)))
        # Euler-Maclaurin in x = ell + 1/2 over the omitted ell: f(x) = 2x
        # lam_x^{-s}, lam_x = (x^2 - 1/4)/r^2, has int_X^inf f = r^2
        # lam_X^{1-s}/(s - 1) from X = ell_max + 1
        lam_x = (x * x - 0.25) / r2
        fp = 2.0 * lam_x ** (-s) - scale * lam_x ** (-s - 1)
        return partial + r2 * lam_x ** (1 - s) / (s - 1) + fp / 24.0


def _bessel_zero_guess(nu: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Asymptotic j_{nu,k}: McMahon's expansion for nu = 0 or k > 2 nu,
    otherwise the leading uniform term nu z(zeta) with zeta = nu^(-2/3) a_k,
    a_k the k-th zero of Ai (DLMF 10.21(vii), 10.21(viii))."""
    guess = np.empty(nu.size)
    mcmahon = (nu == 0) | (k > 2 * nu)
    mu = 4.0 * nu[mcmahon] ** 2
    b8 = 8.0 * math.pi * (k[mcmahon] + 0.5 * nu[mcmahon] - 0.25)
    guess[mcmahon] = (
        b8 / 8.0
        - (mu - 1) / b8
        - 4 * (mu - 1) * (7 * mu - 31) / (3 * b8**3)
        - 32 * (mu - 1) * (83 * mu**2 - 982 * mu + 3779) / (15 * b8**5)
    )
    uniform = ~mcmahon
    if uniform.any():
        v, ku = nu[uniform], k[uniform]
        airy = scipy.special.ai_zeros(int(ku.max()))[0]
        w = 2.0 / 3.0 * (-airy[ku - 1] / v ** (2.0 / 3.0)) ** 1.5
        # z > 1 solves sqrt(z^2 - 1) - arcsec z = w; that side is increasing
        # and convex, and z = w + pi/2 lies right of the root, so Newton
        # descends monotonically onto it; each z stops on its own step
        z = w + math.pi / 2
        todo = np.arange(z.size)
        while todo.size:
            zi = z[todo]
            root = np.sqrt(zi * zi - 1.0)
            step = (root - np.arccos(1.0 / zi) - w[todo]) * zi / root
            z[todo] = zi - step
            todo = todo[step > 1e-12 * zi]
        guess[uniform] = v * z
    return guess


def _halley(nu: np.ndarray, x: np.ndarray):
    """Halley steps on J_nu from x until each relative step is <= 1e-14, at
    most _BESSEL_MAX_STEPS per zero: (the zeros, how many did not converge).
    Each zero is iterated on its own, so its value does not depend on the
    batch."""
    x = x.copy()
    todo = np.arange(x.size)
    for _ in range(_BESSEL_MAX_STEPS):
        v, xi = nu[todo], x[todo]
        f = scipy.special.jv(v, xi)
        fp = scipy.special.jv(v - 1.0, xi) - v * f / xi
        # J'' from Bessel's equation
        fpp = -fp / xi - (1.0 - (v / xi) ** 2) * f
        step = f / fp / (1.0 - f * fpp / (2.0 * fp * fp))
        x[todo] = xi - step
        todo = todo[~(np.abs(step) <= 1e-14 * np.abs(x[todo]))]
        if todo.size == 0:
            break
    return x, todo.size


def _refine_bessel_zeros(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`_halley` on the interleaved parts x[k::_BESSEL_THREADS], the calling
    thread refining the first and one worker thread each other part; the
    worker is joined on any exit and its exception raised here.  The parts
    are merged back in place, so the result equals one `_halley` call bit
    for bit."""
    parts = [slice(k, None, _BESSEL_THREADS) for k in range(_BESSEL_THREADS)]
    # a pool starts its threads on submit, so with one part none starts
    with ThreadPoolExecutor(max(1, _BESSEL_THREADS - 1)) as pool:
        others = [pool.submit(_halley, nu[part], x[part]) for part in parts[1:]]
        results = [_halley(nu[parts[0]], x[parts[0]])]
        results += [other.result() for other in others]
    refined = np.empty_like(x)
    for part, (zeros, _) in zip(parts, results):
        refined[part] = zeros
    missed = sum(count for _, count in results)
    if missed:
        raise RuntimeError(
            "Bessel zeros: %d zeros not converged after %d Halley steps"
            % (missed, _BESSEL_MAX_STEPS)
        )
    return refined


def _interlaced(zeros: np.ndarray, orders: np.ndarray) -> bool:
    """Zeros grouped by order, each order strictly increasing with no gap, and
    j_{nu,k} < j_{nu+1,k} < j_{nu,k+1} wherever both sides are held."""
    counts = np.bincount(orders)
    k = np.arange(zeros.size) - np.repeat(np.cumsum(counts) - counts, counts)
    grid = np.full((counts.size + 1, counts.max() + 1), np.inf)
    grid[orders, k] = zeros
    held = np.isfinite(grid)
    return bool(
        np.all((grid[:, :-1] < grid[:, 1:]) | ~held[:, 1:])
        and np.all((grid[:-1] < grid[1:]) | ~held[:-1])
        and np.all((grid[1:, :-1] < grid[:-1, 1:]) | ~held[1:, :-1])
    )


class _BesselZeroCache:
    """All zeros j_{nu,k} <= j_max of J_nu, nu = 0, 1, ..., shared across disk
    instances: `zeros` grouped by order and increasing within it, `orders`
    the matching nu.

    `ensure` grows the cache by the band (old j_max, new j_max] only.  For each
    order nu < j_max it takes the indices k after those held, up to the
    uniform count estimate + 3, starts each from its asymptotic value and
    refines all of them at once by Halley steps on `scipy.special.jv`, split into
    the interleaved halves [0::2] and [1::2] when `_BESSEL_THREADS` is 2: the
    calling thread refines one and a worker thread, joined before `ensure`
    goes on, the other, which overlaps because `scipy.special.jv` releases the
    GIL.  Each zero runs its own Halley iteration, elementwise, so a zero's
    value does not depend on which half, or which batch, it is refined in,
    and a two-thread build equals a one-thread build bit for bit.  The band is
    certified before it is merged: strictly increasing per order, its lowest
    zero above the old j_max and its highest above the new one, so that no
    zero is cut off; the merged cache must interlace across orders.  Any
    violation raises RuntimeError: a lost zero would shift every disk
    determinant.  Held zeros are never recomputed, and a zero's value depends
    only on (nu, k), so a grown cache equals a cold build.  A lock lets one
    thread at a time grow the cache, so that each band is certified against
    the j_max it was built from.
    """

    def __init__(self):
        self.j_max = 0.0
        self.zeros = np.empty(0)  # zero values
        self.orders = np.empty(0, dtype=int)  # corresponding nu
        self._lock = threading.Lock()

    def ensure(self, j_max: float, budget: int):
        """(zeros, orders) of a cache that covers j_max, grown first if it does
        not; one thread grows it at a time, and the pair is read under the
        lock, so another thread's growth cannot split it."""
        with self._lock:
            if j_max > self.j_max:
                self._grow(j_max, budget)
            return self.zeros, self.orders

    def _grow(self, j_max: float, budget: int):
        start = time.perf_counter()
        j_max = max(j_max * 1.05, 25.0)
        est = _count(j_max * j_max / 8.0) + 100
        if est > budget:
            raise EnumerationBudgetError(est, budget)
        nu = np.arange(math.ceil(j_max))
        held = np.bincount(self.orders, minlength=nu.size)
        # zeros of J_nu below J number ~ (sqrt(J^2-nu^2) - nu arccos(nu/J))/pi
        x = nu / j_max
        uniform = (j_max * np.sqrt(1 - x * x) - nu * np.arccos(x)) / math.pi
        count = np.maximum(uniform.astype(int) + 3, held + 1) - held
        first = np.cumsum(count) - count
        band_nu = np.repeat(nu, count)
        band_k = held[band_nu] + 1 + np.arange(band_nu.size) - np.repeat(first, count)
        band = _refine_bessel_zeros(
            band_nu.astype(float), _bessel_zero_guess(band_nu, band_k)
        )
        same_order = band_nu[1:] == band_nu[:-1]
        if not (
            np.all(np.diff(band)[same_order] > 0)
            and np.all(band[first] > self.j_max)
            and np.all(band[first + count - 1] > j_max)
        ):
            raise RuntimeError(
                "Bessel zeros: the band up to j_max = %g is not certified" % j_max
            )
        keep = band <= j_max
        orders = np.concatenate([self.orders, band_nu[keep]])
        merge = np.argsort(orders, kind="stable")
        zeros = np.concatenate([self.zeros, band[keep]])[merge]
        orders = orders[merge]
        if not _interlaced(zeros, orders):
            raise RuntimeError(
                "Bessel zeros up to j_max = %g do not interlace" % j_max
            )
        log.debug(
            "Bessel zero cache: j_max %.6g -> %.6g, %d zeros added, %d held, %.3f s",
            self.j_max, j_max, zeros.size - self.zeros.size, zeros.size,
            time.perf_counter() - start,
        )
        self.zeros, self.orders, self.j_max = zeros, orders, j_max


_BESSEL_CACHE = _BesselZeroCache()


@dataclass(frozen=True)
class DiskDirichlet(ModelSurface):
    radius: float = 1.0
    head_cut_ratio = 2.0**-8
    head_cut_floor = 1e-4

    def heat_coefficients(self) -> HeatCoefficients:
        """a = Vol / (4 pi), b = -Len / (8 sqrt(pi)); the boundary is smooth,
        so c = chi/6 = 1/6."""
        return HeatCoefficients(
            _square(self.radius) / 4.0,
            -math.sqrt(math.pi) * self.radius / 4.0,
            1.0 / 6.0,
        )

    def eigen_stream(self, cutoff: float) -> EigenStream:
        """The stream sorted from `_enumerate`'s cache order by a stable sort,
        on which the multiplicities' order depends."""
        stream = super().eigen_stream(cutoff)
        order = np.argsort(stream.eigenvalues, kind="stable")
        return EigenStream(stream.eigenvalues[order], stream.multiplicities[order])

    def _enumerate(self, cutoff):
        j_max = self.radius * math.sqrt(cutoff)
        zeros, orders = _BESSEL_CACHE.ensure(j_max, _EIGEN_BUDGET)
        sel = zeros <= j_max
        lam = (zeros[sel] / self.radius) ** 2
        mult = np.where(orders[sel] == 0, 1.0, 2.0)
        return lam, mult

    def _heat_traces(self, t):
        # one enumeration per octave of t / min(t), the lowest octave first,
        # so that the cache grows once; a wide batch then scans as many
        # eigenvalues per row as calls of one octave each would
        out = np.empty(t.size)
        if not t.size:
            return out
        _, octave = np.frexp(t / t.min())
        for k in np.unique(octave):
            rows = np.flatnonzero(octave == k)
            out[rows] = self._octave_traces(t[rows])
        return out

    def _octave_traces(self, t):
        # one enumeration, at the cutoff of the smallest t, serves every t.
        # A row keeps the terms with (-t) lam > -50, the set lam t < 50 as
        # negation is exact, in cache order, so its order-0 terms (multiplicity
        # 1) lead its run and the rest are doubled; each run is summed alone,
        # and a row counts twice its terms, for the exponents and those kept.
        # in Python floats, where an overflowing cutoff is inf, which the
        # budget refuses, rather than a warning
        lam, mult = self._enumerate(_TAIL_EXPONENT / float(t.min()))
        order0 = np.count_nonzero(mult == 1.0)
        out = np.empty(t.size)
        for rows in _blocks.row_blocks(t.size, 2 * lam.size):
            x = -t[rows, None] * lam
            keep = x > -_TAIL_EXPONENT
            x = x[keep]
            np.exp(x, out=x)
            sums, start = [], 0
            for row in keep:
                run = x[start:start + np.count_nonzero(row)]
                run[np.count_nonzero(row[:order0]):] *= 2.0
                sums.append(run.sum())
                start += run.size
            out[rows] = sums
        return out

    def zeta_series(self, s: float) -> float:
        """r^s times the unit disk's `zeta_continued` times r^s, in Python
        floats: the scaling law exactly, an overflow of r^s an OverflowError,
        and a ValueError above unit radius where the unit value is below the
        normal floats (s above about 370), whose lost digits r^2s would scale up."""
        # zeta.py imports this module
        from .zeta import zeta_continued
        _square(self.radius)  # refuses a radius whose square underflows
        half = self.radius ** float(s)
        unit = float(zeta_continued(DiskDirichlet(1.0), s))
        if self.radius > 1.0 and unit < np.finfo(float).tiny:
            raise ValueError("zeta at s = %g: the unit disk's value is below the normal"
                             " floats at radius %g > 1" % (s, self.radius))
        return half * unit * half


def parse_surface(spec: str) -> ModelSurface:
    """Parse CLI surface specs like 'torus:1.0x2.0', 'disk:1.0', 'interval:1.0'."""
    try:
        kind, _, params = spec.partition(":")
        kind = kind.strip().lower()
        if kind in ("rect", "rectangle"):
            a, b = (float(x) for x in params.split("x"))
            return RectangleDirichlet(a, b)
        if kind == "torus":
            a, b = (float(x) for x in params.split("x"))
            return FlatTorus(a, b)
        if kind == "sphere":
            return RoundSphere(float(params))
        if kind == "disk":
            return DiskDirichlet(float(params))
        if kind == "interval":
            return IntervalDirichlet(float(params))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"cannot parse surface spec {spec!r}") from exc
    raise ValueError(f"unknown surface kind in {spec!r}")
