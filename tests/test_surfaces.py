import logging
import math
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from loopzeta import _blocks, surfaces
from loopzeta.surfaces import (
    DiskDirichlet,
    EnumerationBudgetError,
    FlatTorus,
    IntervalDirichlet,
    ModelSurface,
    RectangleDirichlet,
    RoundSphere,
    parse_surface,
)
from loopzeta.zeta import scaled_surface

ALL = [
    IntervalDirichlet(1.0),
    RectangleDirichlet(1.0, 1.5),
    FlatTorus(1.0, 2.0),
    RoundSphere(1.0),
    DiskDirichlet(1.0),
]

# first zero of J_0, 16 digits
J01 = 2.404825557695773


def test_heat_coefficients_frozen():
    hc = IntervalDirichlet(2.0).heat_coefficients()
    assert hc.a_coef == 0.0
    assert hc.b_coef == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-15)
    assert hc.c_coef == -0.5

    hc = RectangleDirichlet(1.0, 1.5).heat_coefficients()
    assert hc.a_coef == pytest.approx(1.5 / (4 * math.pi), abs=1e-15)
    assert hc.b_coef == pytest.approx(-2.5 / (4 * math.sqrt(math.pi)), abs=1e-15)
    assert hc.c_coef == 0.25

    hc = FlatTorus(1.0, 2.0).heat_coefficients()
    assert (hc.a_coef, hc.b_coef, hc.c_coef) == (
        pytest.approx(2.0 / (4 * math.pi)), 0.0, 0.0)

    hc = RoundSphere(2.0).heat_coefficients()
    assert (hc.a_coef, hc.b_coef, hc.c_coef) == (4.0, 0.0, pytest.approx(1 / 3))

    hc = DiskDirichlet(1.0).heat_coefficients()
    assert hc.a_coef == 0.25
    assert hc.b_coef == pytest.approx(-math.sqrt(math.pi) / 4.0, abs=1e-15)
    assert hc.c_coef == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_geometry_constants():
    assert FlatTorus(1.0, 1.0).is_closed
    assert RoundSphere(1.0).is_closed
    assert not DiskDirichlet(1.0).is_closed


@pytest.mark.parametrize("surface", ALL, ids=lambda s: type(s).__name__)
def test_heat_trace_matches_eigen_sum(surface):
    t = 0.5
    stream = surface.eigen_stream(200.0 / t)
    brute = float(np.sum(stream.multiplicities * np.exp(-t * stream.eigenvalues)))
    assert surface.heat_trace(t) == pytest.approx(brute, abs=1e-12)


def short_time_prediction(surface, t):
    """The three-term expansion a/t + b/sqrt(t) + c."""
    hc = surface.heat_coefficients()
    return hc.a_coef / t + hc.b_coef / math.sqrt(t) + hc.c_coef


@pytest.mark.parametrize("surface", ALL, ids=lambda s: type(s).__name__)
def test_short_time_prediction(surface):
    t = 1e-3
    tr = surface.heat_trace(t)
    pred = short_time_prediction(surface, t)
    # residual beyond the three-term expansion is o(1) as t -> 0
    assert abs(tr - pred) < 0.05 * max(1.0, abs(pred))


def test_theta_crossover_continuity():
    # the trace evaluation switches algorithms near t = 0.05; both branches
    # must agree with the raw eigenvalue sum
    for surface in (IntervalDirichlet(1.0), FlatTorus(1.0, 1.0),
                    RectangleDirichlet(1.0, 1.0)):
        stream = surface.eigen_stream(4000.0)
        for t in (0.049, 0.051):
            brute = float(np.sum(stream.multiplicities
                                 * np.exp(-t * stream.eigenvalues)))
            assert surface.heat_trace(t) == pytest.approx(brute, abs=1e-12)


@pytest.mark.parametrize("surface", ALL, ids=lambda s: type(s).__name__)
def test_heat_trace_array_equals_scalar_calls(surface):
    # both sides of each theta crossover 0.05 L^2 (L = 1, 1.5, 2) and of the
    # disk's head cut 1e-4
    ts = np.array([9e-5, 1.1e-4, 0.049, 0.051, 0.11, 0.115, 0.19, 0.21, 0.5])
    scalar = [surface.heat_trace(float(t)) for t in ts]
    assert all(type(v) is float for v in scalar)
    assert np.array_equal(surface.heat_trace(ts), scalar)
    grid = surface.heat_trace(ts[::-1].reshape(3, 3))
    assert grid.shape == (3, 3)
    assert np.array_equal(grid.ravel(), scalar[::-1])


@pytest.mark.parametrize("surface", ALL, ids=lambda s: type(s).__name__)
def test_empty_batch_gives_empty_traces(surface):
    for shape in ((0,), (0, 3)):
        traces = surface.heat_trace(np.empty(shape))
        assert traces.shape == shape and traces.dtype == float


def reference_heat_traces(surface, t):
    """The sphere's and the disk's former `_heat_traces`: one sum per t."""
    out = []
    if isinstance(surface, RoundSphere):
        r2 = surface.radius**2
        for ti in t.tolist():
            ell_max = int(math.ceil(math.sqrt(surfaces._TAIL_EXPONENT * r2 / ti))) + 2
            ell = np.arange(0, ell_max + 1, dtype=float)
            out.append(((2 * ell + 1) * np.exp(-ti * ell * (ell + 1) / r2)).sum())
    else:
        lam, mult = surface._enumerate(surfaces._TAIL_EXPONENT / np.min(t))
        for ti in t.tolist():
            sel = lam * ti < surfaces._TAIL_EXPONENT
            out.append((mult[sel] * np.exp(-ti * lam[sel])).sum())
    return np.array(out)


EIGEN_SUM_SURFACES = ([RoundSphere(r) for r in (0.5, 1.0, 1.03, 2.0, 100.0)]
                      + [DiskDirichlet(r) for r in (0.5, 0.7, 0.83, 1.0)])


@pytest.mark.parametrize("surface", EIGEN_SUM_SURFACES, ids=repr)
def test_heat_traces_on_gauss_panels_equal_reference(surface):
    # the octave panels of the head quadrature, from the head cut's floor
    for n in (24, 48):
        x, _ = np.polynomial.legendre.leggauss(n)
        lo = surface.head_cut_floor
        while lo < 5.0:
            t = lo + (x + 1.0) * (lo / 2.0)
            assert np.array_equal(surface.heat_trace(t), reference_heat_traces(surface, t))
            lo *= 2.0


def trace_width(surface, t_min):
    """Terms per row of a batch whose smallest t is t_min; a row block counts
    a row twice."""
    if isinstance(surface, RoundSphere):
        r2 = surface.radius**2
        return math.ceil(math.sqrt(surfaces._TAIL_EXPONENT * r2 / t_min)) + 3
    return surface._enumerate(surfaces._TAIL_EXPONENT / t_min)[0].size


@pytest.mark.parametrize("block", [None, 1000], indirect=True)
@pytest.mark.parametrize("surface", [RoundSphere(1.0), DiskDirichlet(0.83)], ids=repr)
def test_heat_traces_of_unsorted_repeated_multi_block_batches(surface, block):
    rng = np.random.default_rng(5)
    t = rng.uniform(0.3, 3.0, 400)
    t = np.concatenate([t, t[::-1], t[:7]])
    width = 2 * trace_width(surface, t.min())
    t = np.resize(t, int(2.5 * (block // width)))
    assert width == 2 * trace_width(surface, t.min())
    blocks = _blocks.row_blocks(t.size, width)
    assert len(blocks) == 3 and blocks[-1].stop - blocks[-1].start < blocks[0].stop
    assert np.array_equal(surface.heat_trace(t), reference_heat_traces(surface, t))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([RoundSphere, DiskDirichlet]), st.floats(0.3, 3.0),
       st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=60))
def test_heat_traces_equal_reference(kind, radius, scaled_t):
    # t from 1e-3 r^2 to 10 r^2, in any order and with repeats
    surface = kind(radius)
    t = np.array(scaled_t + scaled_t[:3]) * radius**2
    assert np.array_equal(surface.heat_trace(t), reference_heat_traces(surface, t))


@st.composite
def lattice_batches(draw):
    """A lattice surface with sides in [0.05, 20], within a factor 4 of each
    other so that the eigenvalue sum stays cheap, and a batch of t that has
    two values below and two at or above each crossover 0.05 L^2, where L is
    a side of the interval or rectangle, or half a torus period; every t is
    at least 1e-3 L^2."""
    kind = draw(st.sampled_from(["interval", "rect", "torus"]))
    a = draw(st.floats(0.05, 20.0))
    b = draw(st.floats(max(0.05, a / 4.0), min(20.0, 4.0 * a)))
    if kind == "interval":
        surface, halves = IntervalDirichlet(a), (a,)
    elif kind == "rect":
        surface, halves = RectangleDirichlet(a, b), (a, b)
    else:
        surface, halves = FlatTorus(a, b), (a / 2.0, b / 2.0)
    below = st.floats(0.02, 1.0, exclude_max=True)
    above = st.floats(1.0, 50.0)
    ts = [surfaces._T_CROSSOVER * side * side * draw(factor)
          for side in halves for factor in (below, below, above, above)]
    return surface, np.array(draw(st.permutations(ts)))


@settings(max_examples=60, deadline=None)
@given(lattice_batches())
def test_lattice_heat_trace_batches_straddling_crossovers(case):
    surface, ts = case
    batch = surface.heat_trace(ts)
    assert np.array_equal(batch, [surface.heat_trace(float(t)) for t in ts])
    stream = surface.eigen_stream(60.0 / ts.min())
    brute = np.exp(-ts[:, None] * stream.eigenvalues) @ stream.multiplicities
    assert np.allclose(batch, brute, rtol=1e-12, atol=0.0)


_REFUSALS = """
import math, sys
from loopzeta.surfaces import parse_surface
surface = parse_surface(sys.argv[1])
for name in ("heat_trace_residual", "heat_trace"):
    for t in (math.nan, 0.0, -0.1, math.inf, -math.inf, [0.1, 0.0]):
        try:
            getattr(surface, name)(t)
        except ValueError as exc:
            print("refused:", exc)
        else:
            print("returned:", name, t)
"""


@pytest.mark.parametrize("spec", ["interval:1", "rect:1x1", "torus:1x1",
                                  "sphere:1", "disk:1"])
def test_traces_refuse_t_that_is_not_finite_and_positive(spec):
    # the lattice residuals' Poisson sums never stopped at nan, 0 or -0.1, so
    # the calls run in a fresh interpreter under a timeout
    src = str(pathlib.Path(surfaces.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _REFUSALS, spec],
                          capture_output=True, text=True, timeout=20, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 12
    for line in lines:
        assert line.startswith("refused: heat trace needs finite t > 0"), line


def test_interval_spectrum_exact():
    stream = IntervalDirichlet(2.0).eigen_stream(100.0)
    n = np.arange(1, len(stream.eigenvalues) + 1)
    assert np.allclose(stream.eigenvalues, (n * math.pi / 2.0) ** 2, rtol=1e-14)
    assert np.all(stream.multiplicities == 1)


def test_sphere_multiplicities():
    stream = RoundSphere(1.0).eigen_stream(30.0)
    # eigenvalues l(l+1) with multiplicity 2l+1, l = 0..4
    assert stream.eigenvalues[0] == 0.0
    lam = {}
    for v, m in zip(stream.eigenvalues, stream.multiplicities):
        lam[round(v, 9)] = lam.get(round(v, 9), 0) + m
    for ell in range(5):
        assert lam[round(ell * (ell + 1), 9)] == 2 * ell + 1


def test_disk_ground_state():
    stream = DiskDirichlet(2.0).eigen_stream(10.0)
    assert stream.eigenvalues[0] == pytest.approx((J01 / 2.0) ** 2, rel=1e-12)
    assert stream.multiplicities[0] == 1.0


def test_eigen_stream_sorted_and_counted():
    for surface in ALL:
        stream = surface.eigen_stream(500.0)
        assert np.all(np.diff(stream.eigenvalues) >= 0)
        assert stream.eigenvalues.shape == stream.multiplicities.shape
        # Weyl's law at leading order
        hc = surface.heat_coefficients()
        if hc.a_coef > 0:
            weyl = hc.a_coef * 500.0
            assert abs(stream.multiplicities.sum() - weyl) < 0.25 * weyl


@pytest.mark.parametrize("surface, cutoff", [(s, 200.0) for s in ALL] + [
    (IntervalDirichlet(1e8), 1e-12), (RectangleDirichlet(1e8, 1.5e8), 1e-12),
    (FlatTorus(1e8, 2e8), 1e-12), (RoundSphere(1e8), 1e-12), (DiskDirichlet(1e8), 1e-12),
], ids=repr)
def test_nonzero_spectrum_drops_exactly_the_zero_modes(surface, cutoff):
    # past side ~1e7 the first eigenvalues lie below 1e-14, which an absolute
    # cut dropped along with the zero mode
    stream = surface.eigen_stream(cutoff)
    lam, mult = surface.nonzero_spectrum(cutoff)
    assert lam.size == stream.eigenvalues.size - surface.zero_modes > 0
    assert np.array_equal(lam, stream.eigenvalues[surface.zero_modes:])
    assert np.array_equal(mult, stream.multiplicities[surface.zero_modes:])
    assert np.all(stream.eigenvalues[:surface.zero_modes] == 0.0)
    assert np.all(lam > 0.0)


def test_budget_error():
    with pytest.raises(EnumerationBudgetError):
        # ~1e8 eigenvalues: refused before anything is allocated
        RectangleDirichlet(1.0, 1.0).eigen_stream(1e9)
    with pytest.raises(ValueError):
        RoundSphere(1.0).eigen_stream(-1.0)


def test_dirichlet_side_without_a_mode_gives_an_empty_spectrum():
    # the side counts are inf and 0: their product nan slipped past the
    # budget check, and np.arange(1, inf) ended the enumeration
    lam, mult = RectangleDirichlet(1e300, 1e-20)._enumerate(2e22)
    assert lam.size == 0 and mult.size == 0
    assert lam.dtype == mult.dtype == np.float64
    lam, mult = RectangleDirichlet(1e-20, 1e300)._enumerate(2e22)
    assert lam.size == 0 and mult.size == 0
    # one side with a mode and one without: still nothing below the cutoff
    assert RectangleDirichlet(1.0, 1e-3).eigen_stream(1e4).eigenvalues.size == 0


def former_lattice_stream(surface, cutoff):
    """The former lattice route: the whole grid formed at once, filtered,
    and gathered by a stable argsort, with an array of ones."""
    periodic = isinstance(surface, FlatTorus)
    unit = 2 * math.pi if periodic else math.pi
    a, b = surface.side_a, surface.side_b
    m_max = surfaces._count(a / unit * math.sqrt(cutoff))
    n_max = surfaces._count(b / unit * math.sqrt(cutoff))
    if not periodic and 0 in (m_max, n_max):
        lam = mult = np.empty(0)
    else:
        m0, n0 = (-m_max, -n_max) if periodic else (1, 1)
        m = np.arange(m0, m_max + 1, dtype=float)
        n = np.arange(n0, n_max + 1, dtype=float)
        lam = (unit**2 * (m[:, None] ** 2 / a**2 + n[None, :] ** 2 / b**2)).ravel()
        lam = lam[lam <= cutoff]
        mult = np.ones_like(lam)
    order = np.argsort(lam, kind="stable")
    return lam[order], mult[order]


# the unit square and torus tie heavily, and the torus has its zero mode; at
# 4e5 and 2e6 each grid spans several row blocks, and at a block of 200
# floats every grid does
@pytest.mark.parametrize("block", [None, 200], indirect=True)
@pytest.mark.parametrize("cutoff", [200.0, 5e3, 4e5, 2e6])
@pytest.mark.parametrize("surface", [
    RectangleDirichlet(1.0, 1.0), FlatTorus(1.0, 1.0),
    RectangleDirichlet(1.0, 1.5), FlatTorus(1.0, 2.0)], ids=repr)
def test_lattice_stream_equals_the_stable_sort_of_the_whole_grid(surface, cutoff, block):
    stream = surface.eigen_stream(cutoff)
    lam, mult = former_lattice_stream(surface, cutoff)
    assert stream.eigenvalues.tobytes() == lam.tobytes()
    assert stream.multiplicities.tobytes() == mult.tobytes()
    assert stream.multiplicities.shape == lam.shape
    assert not stream.multiplicities.flags.writeable


@pytest.mark.parametrize("surface, cutoff", [
    (RectangleDirichlet(1e300, 1e-20), 2e22), (RectangleDirichlet(1e-20, 1e300), 2e22),
    (RectangleDirichlet(1.0, 1e-3), 1e4)], ids=repr)
def test_empty_lattice_stream_equals_the_former_route(surface, cutoff):
    stream = surface.eigen_stream(cutoff)
    lam, mult = former_lattice_stream(surface, cutoff)
    assert stream.eigenvalues.size == stream.multiplicities.size == 0
    assert stream.eigenvalues.dtype == stream.multiplicities.dtype == lam.dtype == mult.dtype


@pytest.mark.parametrize("cutoff", [200.0, 4e4])
def test_disk_stream_is_the_stable_sort_of_its_cache_order(cutoff):
    disk = DiskDirichlet(1.0)
    lam, mult = disk._enumerate(cutoff)
    assert not np.all(np.diff(lam) >= 0)
    order = np.argsort(lam, kind="stable")
    stream = disk.eigen_stream(cutoff)
    assert stream.eigenvalues.tobytes() == lam[order].tobytes()
    assert stream.multiplicities.tobytes() == mult[order].tobytes()


# either side longer, lattices so thin that a side has one or two modes,
# and sizes below and above 1, each over several row blocks of the block
@pytest.mark.parametrize("block", [None, 200], indirect=True)
@pytest.mark.parametrize("surface, cutoff", [
    (RectangleDirichlet(1.5, 0.7), 4e6), (RectangleDirichlet(0.7, 1.5), 4e6),
    (FlatTorus(1.5, 0.7), 4e6), (FlatTorus(0.7, 1.5), 4e6),
    (RectangleDirichlet(1.0, 0.002), 1e9), (FlatTorus(0.002, 1.0), 1e9),
    (RectangleDirichlet(0.02, 0.03), 2e9), (FlatTorus(30.0, 20.0), 3e3)], ids=repr)
def test_thin_and_long_lattice_streams_equal_the_whole_grid_sort(surface, cutoff, block):
    lam = surface.eigen_stream(cutoff).eigenvalues
    assert lam.tobytes() == former_lattice_stream(surface, cutoff)[0].tobytes()


@pytest.mark.parametrize("surface", [RectangleDirichlet(1.0, 1.0), FlatTorus(1.0, 1.0)],
                         ids=repr)
def test_lattice_zeta_series_peaks_below_one_memory_block(surface):
    # the smoothed-Weyl series read 3.18 M eigenvalues of the unit square:
    # the whole band at once peaked at 2 copies of them, 50.9 MB, and one
    # value band at a time at about 3.7 blocks; the closed form sums a row
    # of terms at a time
    surface.zeta_series(2.0)  # scipy.special loads on first use
    tracemalloc.start()
    try:
        surface.zeta_series(2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * _blocks.BLOCK


def test_budget_gate_refuses_nan_and_keeps_the_count():
    with pytest.raises(EnumerationBudgetError, match="needs ~nan eigenvalues"):
        surfaces._budgeted(math.nan)
    with pytest.raises(EnumerationBudgetError, match="needs ~5e\\+06 eigenvalues"):
        surfaces._budgeted(5_000_001)
    assert surfaces._budgeted(5_000_000) == 5_000_000


@pytest.mark.parametrize("surface", ALL, ids=lambda s: type(s).__name__)
def test_eigen_stream_refuses_a_cutoff_that_is_not_finite(surface):
    with pytest.raises(EnumerationBudgetError, match="budget is 5000000$"):
        surface.eigen_stream(math.inf)
    with pytest.raises(ValueError):
        surface.eigen_stream(math.nan)


def test_budget_error_message_has_three_digits():
    # counts are printed to three significant digits, not in full
    assert str(EnumerationBudgetError(275624999999999925622364263793180328, 5)) == (
        "spectral enumeration needs ~2.76e+35 eigenvalues, budget is 5")
    # past the float range
    assert str(EnumerationBudgetError(10**400 + 7, 5_000_000)) == (
        "spectral enumeration needs ~1.00e+400 eigenvalues, budget is 5000000")


def test_spectral_gap():
    assert FlatTorus(1.0, 1.0).spectral_gap() == pytest.approx(4 * math.pi**2)
    assert RoundSphere(1.0).spectral_gap() == pytest.approx(2.0)
    assert IntervalDirichlet(1.0).spectral_gap() == pytest.approx(math.pi**2)
    # the gap 2/r^2 = 800 lies above the first search cutoff of 200
    assert RoundSphere(0.05).spectral_gap() == pytest.approx(2 / 0.05**2, rel=1e-12)


@pytest.mark.parametrize("surface", ALL, ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("size", [0.05, 0.3, 7.0, 1e4, 1e8])
def test_spectral_gap_follows_the_scaling_law(surface, size):
    # the search started at the absolute cutoff 200, so a surface of side
    # 1e8 (1e4 for the disk) asked for ~4.5e8 eigenvalues or more to find one
    sigma = math.log(size)
    want = surface.spectral_gap() * math.exp(-2.0 * sigma)
    assert scaled_surface(surface, sigma).spectral_gap() == pytest.approx(
        want, rel=1e-15, abs=0.0)


def test_spectral_gap_at_a_cutoff_near_the_float_maximum_is_found_without_a_warning():
    # the search starts at 200 / L^2 = 1.78e308, where the lattice's largest
    # entries overflowed to inf with a warning before the filter dropped them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert RectangleDirichlet(1.06e-153, 1.06e-153).spectral_gap() == 1.7567825562636805e307
        assert FlatTorus(1.06e-153, 1.06e-153).spectral_gap() == 3.513565112527361e307


@pytest.mark.parametrize("surface", [FlatTorus(1e-170, 1.0), FlatTorus(1.0, 1e-170)],
                         ids=repr)
def test_torus_side_whose_square_underflows_is_refused_by_name(surface):
    # m^2 / a^2 at m = 0 was 0/0: `invalid value encountered in divide`, and
    # an empty stream that dropped the zero mode; the gap search warned on
    # each of its doublings before the budget refused it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: surface.eigen_stream(10.0), surface.spectral_gap):
            with pytest.raises(ValueError, match="^side 1e-170 is too small: its square"
                                                 " underflows float64$"):
                call()
        # the rectangle has no mode below any finite cutoff there, and says so
        rect = RectangleDirichlet(surface.side_a, surface.side_b)
        assert rect.eigen_stream(10.0).eigenvalues.size == 0
        with pytest.raises(ValueError, match="no nonzero eigenvalue below any finite cutoff"):
            rect.spectral_gap()


def test_spectral_gap_of_a_surface_past_the_float_range_is_refused():
    # 200 / L^2 underflows to 0 there, which eigen_stream would refuse as
    # "cutoff must be positive"
    with pytest.raises(EnumerationBudgetError, match="needs ~"):
        IntervalDirichlet(1e200).spectral_gap()


def test_zeta_series_of_a_thin_rectangle_is_its_row_sum_in_closed_form():
    # the short side 1e-4 puts the lowest eigenvalue near 1e9, above the
    # Weyl series' band top 4e7, which refused it. Each row's Bessel terms
    # are below e^-6e8 there, so pi^4 zeta(2) = (pi / 4) a b^3 zeta(3) -
    # b^4 zeta(4) / 2 for a = 1e4 and b = 1e-4
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a, b = mpmath.mpf(1e4), mpmath.mpf(1e-4)
        want = (mpmath.pi / 4 * a * b**3 * mpmath.zeta(3)
                - b**4 * mpmath.zeta(4) / 2) / mpmath.pi**4
    assert RectangleDirichlet(1e-4, 1e4).zeta_series(2.0) == pytest.approx(
        float(want), rel=1e-14, abs=0.0)


def test_validation():
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            IntervalDirichlet(bad)
        with pytest.raises(ValueError):
            RoundSphere(bad)
        with pytest.raises(ValueError):
            RectangleDirichlet(1.0, bad)
        with pytest.raises(ValueError):
            FlatTorus(bad, 1.0)
        with pytest.raises(ValueError):
            DiskDirichlet(bad)
    with pytest.raises(ValueError, match="^side_b must be finite and positive$"):
        RectangleDirichlet(1.0, 0.0)
    with pytest.raises(ValueError, match="^radius must be finite and positive$"):
        RoundSphere(math.nan)


def test_parse_surface():
    assert parse_surface("disk:2.0") == DiskDirichlet(2.0)
    assert parse_surface("torus:1.0x2.0") == FlatTorus(1.0, 2.0)
    assert parse_surface("rect:0.5x0.5") == RectangleDirichlet(0.5, 0.5)
    assert parse_surface("interval:1.5") == IntervalDirichlet(1.5)
    assert parse_surface("sphere:1.0") == RoundSphere(1.0)
    for bad in ("cone:1.0", "disk:", "torus:1.0", "disk:abc", "disk:nan",
                "sphere:inf", "torus:1xnan", "interval:inf", "rect:-inf x 1"):
        with pytest.raises(ValueError):
            parse_surface(bad)


@given(st.text())
def test_parse_surface_text_is_a_surface_or_value_error(spec):
    try:
        surface = parse_surface(spec)
    except ValueError:
        return
    assert isinstance(surface, ModelSurface)


@given(st.sampled_from(["disk", "sphere", "interval", "torus", "rect"]),
       st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1,
                max_size=2))
def test_parse_surface_numbers(kind, sizes):
    spec = kind + ":" + "x".join(repr(x) for x in sizes)
    two = kind in ("torus", "rect")
    if len(sizes) == 1 + two and all(math.isfinite(x) and x > 0 for x in sizes):
        assert isinstance(parse_surface(spec), ModelSurface)
    else:
        with pytest.raises(ValueError):
            parse_surface(spec)


def reference_bessel_zeros(j_max):
    """The former build: one `special.jn_zeros` call per order, each asking
    for the uniform count estimate + 3 zeros, stopping at the first order
    with none below j_max."""
    zeros, orders = [], []
    nu = 0
    while nu < j_max:
        x = min(nu / j_max, 1.0)
        uniform = (j_max * math.sqrt(1 - x * x) - nu * math.acos(x)) / math.pi
        z = special.jn_zeros(nu, max(1, int(uniform) + 3))
        z = z[z <= j_max]
        if z.size == 0 and nu > 0:
            break
        zeros.append(z)
        orders.append(np.full(z.size, nu))
        nu += 1
    return np.concatenate(zeros), np.concatenate(orders)


# the cutoffs 50/t that log_det_zeta on the unit disk asks for, from the
# split t = 0.4 down the head-quadrature octaves to the cut 1e-4
LADDER = [math.sqrt(50.0 / max(0.4 * 2.0**-i, 1e-4)) for i in range(13)]


@pytest.fixture(scope="module")
def ladder_cache():
    cache = surfaces._BesselZeroCache()
    for j in LADDER:
        cache.ensure(j, 5_000_000)
    return cache


def test_bessel_ladder_equals_cold_build(ladder_cache):
    cold = surfaces._BesselZeroCache()
    cold.ensure(LADDER[-1], 5_000_000)
    assert cold.j_max == ladder_cache.j_max == pytest.approx(742.46, abs=0.01)
    assert np.array_equal(cold.orders, ladder_cache.orders)
    assert np.all(cold.zeros == ladder_cache.zeros)


def test_bessel_zeros_match_jn_zeros_low_orders(ladder_cache):
    j_max = ladder_cache.j_max
    for nu in range(101):
        mine = ladder_cache.zeros[ladder_cache.orders == nu]
        ref = special.jn_zeros(nu, mine.size + 1)
        assert ref[-1] > j_max
        assert np.allclose(mine, ref[:-1], rtol=1e-12, atol=0)


def test_bessel_zeros_match_reference_build():
    cache = surfaces._BesselZeroCache()
    cache.ensure(200.0, 5_000_000)
    ref_zeros, ref_orders = reference_bessel_zeros(cache.j_max)
    assert np.array_equal(cache.orders, ref_orders)
    assert np.allclose(cache.zeros, ref_zeros, rtol=1e-12, atol=0)


def test_bessel_zeros_interlace(ladder_cache):
    zeros, orders = ladder_cache.zeros, ladder_cache.orders
    assert surfaces._interlaced(zeros, orders)
    # the certificate sees a lost, a duplicated and a misplaced zero
    i = int(np.flatnonzero(orders == 40)[5])
    assert not surfaces._interlaced(np.delete(zeros, i), np.delete(orders, i))
    assert not surfaces._interlaced(np.insert(zeros, i, zeros[i]),
                                    np.insert(orders, i, orders[i]))
    moved = zeros.copy()
    moved[i] = zeros[i + 1]
    assert not surfaces._interlaced(moved, orders)


def test_bessel_build_failures_raise(monkeypatch):
    guess = surfaces._bessel_zero_guess

    def duplicated(nu, k):
        out = guess(nu, k)
        out[(nu == 3) & (k == 2)] = out[(nu == 3) & (k == 1)]
        return out

    monkeypatch.setattr(surfaces, "_bessel_zero_guess", duplicated)
    with pytest.raises(RuntimeError, match="not certified"):
        surfaces._BesselZeroCache().ensure(30.0, 5_000_000)
    monkeypatch.undo()
    monkeypatch.setattr(surfaces, "_BESSEL_MAX_STEPS", 1)
    with pytest.raises(RuntimeError, match="not converged"):
        surfaces._BesselZeroCache().ensure(30.0, 5_000_000)


def test_bessel_budget_threshold():
    # budget estimate int(J^2 / 8) + 100 at J = 1.05 j_max, as before
    j_max = 100.0
    required = int((1.05 * j_max) ** 2 / 8.0) + 100
    cache = surfaces._BesselZeroCache()
    with pytest.raises(EnumerationBudgetError) as info:
        cache.ensure(j_max, required - 1)
    assert info.value.required == required
    assert cache.zeros.size == 0 and cache.j_max == 0.0
    cache.ensure(j_max, required)
    assert cache.j_max == 1.05 * j_max


def test_bessel_growth_is_logged(caplog):
    cache = surfaces._BesselZeroCache()
    with caplog.at_level(logging.DEBUG, logger="loopzeta"):
        cache.ensure(30.0, 5_000_000)
        cache.ensure(30.0, 5_000_000)
        cache.ensure(60.0, 5_000_000)
    lines = [r.getMessage() for r in caplog.records if r.name == "loopzeta"]
    assert len(lines) == 2
    assert lines[0].startswith("Bessel zero cache: j_max 0 -> 31.5, ")
    held = cache.zeros.size
    assert lines[1].endswith(" s")
    assert "%d held" % held in lines[1]


def test_two_thread_bessel_build_equals_one_thread_build(monkeypatch):
    before = threading.active_count()
    caches = {1: surfaces._BesselZeroCache(), 2: surfaces._BesselZeroCache()}
    for j in LADDER:
        for threads, cache in caches.items():
            monkeypatch.setattr(surfaces, "_BESSEL_THREADS", threads)
            cache.ensure(j, 5_000_000)
        assert np.array_equal(caches[1].orders, caches[2].orders)
        assert np.array_equal(caches[1].zeros, caches[2].zeros)
    assert threading.active_count() == before


@pytest.mark.parametrize("stuck", [[10], [11], [10, 11]], ids=str)
def test_bessel_non_convergence_in_either_half_is_one_error(monkeypatch, stuck):
    # a nan guess never converges; index 10 is the calling thread's half,
    # 11 the worker's
    guess = surfaces._bessel_zero_guess

    def nan_at(nu, k):
        out = guess(nu, k)
        out[stuck] = math.nan
        return out

    monkeypatch.setattr(surfaces, "_bessel_zero_guess", nan_at)
    monkeypatch.setattr(surfaces, "_BESSEL_THREADS", 2)
    before = threading.active_count()
    message = "^Bessel zeros: %d zeros not converged after 20 Halley steps$" % len(stuck)
    with pytest.raises(RuntimeError, match=message):
        surfaces._BesselZeroCache().ensure(30.0, 5_000_000)
    assert threading.active_count() == before


def test_bessel_worker_exception_is_raised_in_the_caller(monkeypatch):
    halley = surfaces._halley

    def failing_in_worker(nu, x):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("worker failed")
        return halley(nu, x)

    monkeypatch.setattr(surfaces, "_halley", failing_in_worker)
    monkeypatch.setattr(surfaces, "_BESSEL_THREADS", 2)
    before = threading.active_count()
    cache = surfaces._BesselZeroCache()
    with pytest.raises(FloatingPointError, match="worker failed"):
        cache.ensure(30.0, 5_000_000)
    assert threading.active_count() == before
    assert cache.zeros.size == 0 and cache.j_max == 0.0


def test_bessel_cache_grown_from_two_threads_at_once(monkeypatch):
    # two disks growing one fresh cache at once: the later band was checked
    # against the j_max the earlier one had just stored, "the band up to
    # j_max = 2969.85 is not certified"
    cache = surfaces._BesselZeroCache()
    monkeypatch.setattr(surfaces, "_BESSEL_CACHE", cache)
    disks = [DiskDirichlet(1.0), DiskDirichlet(4.0)]
    with ThreadPoolExecutor(2) as pool:
        futures = [pool.submit(disk.heat_trace, 1e-4) for disk in disks]
        traces = [future.result(timeout=300) for future in futures]
    assert cache.j_max == pytest.approx(1.05 * 4.0 * math.sqrt(5e5), rel=1e-12)
    assert surfaces._interlaced(cache.zeros, cache.orders)
    assert traces == [disk.heat_trace(1e-4) for disk in disks]


def test_bessel_cache_grown_by_many_threads_equals_a_cold_build(monkeypatch):
    # more threads than cores, switching often: every request is served by a
    # certified cache, and the cache ends as a cold build at its j_max
    ladder = [30.0 * 1.2**k for k in range(8)]
    requests = [j for k in range(4) for j in ladder[k::2]]
    cache = surfaces._BesselZeroCache()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(cache.ensure, j, 5_000_000) for j in requests]
            pairs = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(switch)
    cold = surfaces._BesselZeroCache()
    cold.ensure(ladder[-1], 5_000_000)
    assert cache.j_max == cold.j_max == 1.05 * ladder[-1]
    assert np.array_equal(cache.orders, cold.orders)
    assert np.array_equal(cache.zeros, cold.zeros)
    # each returned pair holds every zero up to its request
    for (zeros, orders), j in zip(pairs, requests):
        assert np.array_equal(zeros[zeros <= j], cold.zeros[cold.zeros <= j])
        assert np.array_equal(orders[zeros <= j], cold.orders[cold.zeros <= j])
