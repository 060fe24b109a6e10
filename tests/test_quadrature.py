"""The batched quadratures: one integrand call per octave-panel sum and per
head, each value bit-identical to the per-panel route; the disk's
trace enumerated once per octave of t; and the scaling law of both zeta
routes below unit size."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopzeta import loopmass
from loopzeta.loopmass import LoopMassQuery, loop_mass_quadrature, zeta_from_weighted_loops
from loopzeta.surfaces import (
    _TAIL_EXPONENT,
    DiskDirichlet,
    FlatTorus,
    IntervalDirichlet,
    ModelSurface,
    RectangleDirichlet,
    RoundSphere,
)
from loopzeta.zeta import _head_panel, head_integral, mellin_zeta, scaled_surface, zeta

# the package binds `loopzeta.zeta` to the function; this is the module
zeta_module = importlib.import_module("loopzeta.zeta")


def reference_gauss_panel(f, lo, hi, n):
    """n-point Gauss value of int_lo^hi f from its own call of f."""
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return float(half * np.dot(w, f(mid + half * x)))


def reference_geometric_quadrature(f, lo, hi):
    """The per-panel route: every rule of every octave panel calls f."""
    edges = [hi]
    while edges[-1] > 2.0 * lo:
        edges.append(edges[-1] / 2.0)
    edges.append(lo)
    coarse, fine = 0.0, 0.0
    for a, b in zip(edges[1:], edges[:-1]):
        coarse += reference_gauss_panel(f, a, b, 24)
        fine += reference_gauss_panel(f, a, b, 48)
    return fine, abs(fine - coarse)


def reference_head_integral(surface, delta, s=0.0):
    """head_integral on the per-panel route: the stub's fit and every rule of
    every octave panel make their own residual call, and nothing is held."""
    def integrand(t):
        return t ** (s - 1.0) * zeta_module.heat_trace_residual(surface, t)

    t_lo = min(delta / 4.0, max(delta * surface.head_cut_ratio, surface.head_cut_floor))
    powers = (1.0, 2.0, 3.0) if surface.is_closed else (0.5, 1.0, 1.5)
    t_fit = np.geomspace(t_lo, min(4.0 * t_lo, delta), 8)
    r_fit = zeta_module.heat_trace_residual(surface, t_fit)
    design = np.vstack([t_fit**p for p in powers]).T
    coef, *_ = np.linalg.lstsq(design, r_fit, rcond=None)
    with np.errstate(over="ignore", invalid="ignore"):
        stub = sum(c * t_lo ** (p + s) / (p + s) for c, p in zip(coef, powers))
        stub_err = abs(coef[-1]) * t_lo ** (powers[-1] + s) / (powers[-1] + s) + 1e-14
    if not np.isfinite(stub):
        stub, stub_err = 0.0, abs(r_fit[0])
    body, body_err = reference_geometric_quadrature(integrand, t_lo, delta)
    return body + stub, body_err + abs(stub_err)


def per_panel(fn, *args):
    """fn(*args) with the quadratures on the per-panel route."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(loopmass, "_geometric_quadrature", reference_geometric_quadrature)
        mp.setattr(zeta_module, "_geometric_quadrature", reference_geometric_quadrature)
        mp.setattr(zeta_module, "head_integral", reference_head_integral)
        return fn(*args)


_KINDS = {
    "interval": lambda a, b: IntervalDirichlet(a),
    "rect": RectangleDirichlet,
    "torus": FlatTorus,
    "sphere": lambda a, b: RoundSphere(a),
    "disk": lambda a, b: DiskDirichlet(a),
}


@st.composite
def surfaces_at_unit_scale(draw):
    kind = draw(st.sampled_from(sorted(_KINDS)))
    return _KINDS[kind](draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0)))


@settings(max_examples=40, deadline=None)
@given(surfaces_at_unit_scale(), st.floats(1e-3, 1.0), st.integers(1, 20),
       st.sampled_from([0.0, 0.5]), st.booleans())
def test_loop_mass_quadrature_equals_the_per_panel_route(surface, qv_low, octaves,
                                                         kappa, open_window):
    if open_window and not (surface.is_closed and kappa == 0.0):
        query = LoopMassQuery(surface, qv_low, math.inf, kappa)
    else:
        query = LoopMassQuery(surface, qv_low, qv_low * 2.0**octaves, kappa)
    assert loop_mass_quadrature(query) == per_panel(loop_mass_quadrature, query)


@settings(max_examples=30, deadline=None)
@given(surfaces_at_unit_scale(), st.sampled_from([1.5, 2.0, 3.0]))
def test_mellin_zeta_equals_the_per_panel_route(surface, s):
    _head_panel.cache_clear()
    assert mellin_zeta(surface, s) == per_panel(mellin_zeta, surface, s)


@settings(max_examples=40, deadline=None)
@given(surfaces_at_unit_scale(), st.floats(1e-3, 0.5), st.sampled_from([0.0, 1.5, 2.0, 3.0]))
def test_head_integral_equals_the_per_panel_route(surface, delta, s):
    _head_panel.cache_clear()
    assert head_integral(surface, delta, s) == reference_head_integral(surface, delta, s)


def test_disk_trace_of_a_wide_batch_equals_its_scalar_calls():
    disk = DiskDirichlet(0.9)
    t = np.random.default_rng(3).permutation(np.geomspace(1e-4, 10.0, 61))
    assert np.array_equal(disk.heat_trace(t), [disk.heat_trace(x) for x in t])


@pytest.mark.parametrize("radius", [1.0, 0.93, 3.0])
def test_sphere_trace_of_a_wide_batch_equals_its_scalar_calls(radius):
    # a row block sums each row's own first l_max(t) + 1 terms, so the rows of
    # a block spanning many octaves match their scalar calls
    sphere = RoundSphere(radius)
    t = np.random.default_rng(3).permutation(np.geomspace(1e-6, 10.0, 333))
    assert np.array_equal(sphere.heat_trace(t), [sphere.heat_trace(x) for x in t])


def test_disk_trace_enumerates_once_per_octave(monkeypatch):
    # one enumeration at 50 / min(t) served every t, so each row of a batch
    # over 17 octaves scanned the eigenvalues of the smallest t
    disk = DiskDirichlet(1.0)
    cutoffs = []
    enumerate_ = DiskDirichlet._enumerate

    def recording(self, cutoff):
        cutoffs.append(cutoff)
        return enumerate_(self, cutoff)

    monkeypatch.setattr(DiskDirichlet, "_enumerate", recording)
    t = np.random.default_rng(4).permutation(np.geomspace(1e-4, 10.0, 200))
    disk.heat_trace(t)
    _, octave = np.frexp(t / t.min())
    smallest = [t[octave == k].min() for k in np.unique(octave)]
    assert len(cutoffs) == len(smallest) == 17
    for cutoff, t_min in zip(sorted(cutoffs, reverse=True), smallest):
        assert cutoff <= _TAIL_EXPONENT / t_min


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("surface", [IntervalDirichlet(1.3), RectangleDirichlet(1.0, 1.5),
                                     FlatTorus(1.0, 1.5), RoundSphere(1.0), DiskDirichlet(1.0)],
                         ids=lambda s: type(s).__name__)
def test_one_trace_call_per_quadrature_and_per_missed_head_panel(monkeypatch, surface):
    traces = _counting(monkeypatch, ModelSurface, "heat_trace")
    query = LoopMassQuery(surface, 0.01, 10.0, kappa=0.5)
    loop_mass_quadrature(query)
    assert len(traces) == 1

    residuals = _counting(monkeypatch, zeta_module, "heat_trace_residual")
    _head_panel.cache_clear()
    head_integral(surface, 0.1)
    # one call fits the stub below the cut and computes every panel missed
    misses = _head_panel.cache_info().misses
    assert misses > 1 and len(residuals) == 1
    del residuals[:]
    head_integral(surface, 0.1)
    assert len(residuals) == 1


@pytest.mark.parametrize("route", [zeta, mellin_zeta], ids=lambda f: f.__name__)
@pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("size", [1e-3, 1e-2, 0.1])
@pytest.mark.parametrize("unit", [RectangleDirichlet(1.0, 1.5), FlatTorus(1.0, 1.5),
                                  DiskDirichlet(1.0)], ids=lambda s: type(s).__name__)
def test_zeta_below_unit_size_follows_the_scaling_law(route, unit, size, s):
    # zeta()'s band and the Mellin start were absolute: the disk at 1e-3 was
    # an IndexError on the series route, and at 1e-2 5e-4 off there at
    # s = 1.5 and 9.5e-2 off on the Mellin route at s = 2; the torus at 1e-3
    # was 3.5e-2 off in series at s = 3
    want = size ** (2.0 * s) * route(unit, s)
    assert route(scaled_surface(unit, math.log(size)), s) == pytest.approx(
        want, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("radius", [1e-3, 1e-2, 0.1])
def test_weighted_loop_zeta_of_a_small_disk_matches_the_series(radius):
    disk = DiskDirichlet(radius)
    assert zeta_from_weighted_loops(disk, 2.0) == pytest.approx(zeta(disk, 2.0), rel=1e-8)
