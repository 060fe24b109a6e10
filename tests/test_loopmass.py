import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy import special

from loopzeta.loopmass import (
    LoopMassQuery,
    decay_residual,
    fit_log_slope,
    loop_mass,
    loop_mass_quadrature,
    theorem_residual_boundary,
    theorem_residual_closed,
    zeta_from_weighted_loops,
)
from loopzeta.surfaces import (
    _TAIL_EXPONENT,
    DiskDirichlet,
    EnumerationBudgetError,
    FlatTorus,
    IntervalDirichlet,
    RectangleDirichlet,
    RoundSphere,
)
from loopzeta.zeta import zeta


def test_query_validation():
    surf = DiskDirichlet(1.0)
    with pytest.raises(ValueError):
        LoopMassQuery(surf, 0.0)
    with pytest.raises(ValueError):
        LoopMassQuery(surf, 2.0, 1.0)
    with pytest.raises(ValueError):
        LoopMassQuery(surf, 0.1, kappa=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="kappa"):
            LoopMassQuery(surf, 0.1, kappa=bad)
        with pytest.raises(ValueError, match="qv_low"):
            LoopMassQuery(surf, bad)
    # closed surface with no cap and no penalization diverges
    with pytest.raises(ValueError, match="divergent query"):
        LoopMassQuery(FlatTorus(1.0, 1.0), 0.1)
    # either a cap or a positive kappa makes it finite
    LoopMassQuery(FlatTorus(1.0, 1.0), 0.1, 10.0)
    LoopMassQuery(FlatTorus(1.0, 1.0), 0.1, kappa=0.5)


def test_eigen_sum_matches_quadrature():
    cases = [
        LoopMassQuery(IntervalDirichlet(1.0), 0.4),
        LoopMassQuery(DiskDirichlet(1.0), 0.2),
        LoopMassQuery(RectangleDirichlet(1.0, 1.5), 0.4, 8.0),
        LoopMassQuery(FlatTorus(1.0, 1.0), 0.4, 8.0),
        LoopMassQuery(RoundSphere(1.0), 0.4, kappa=0.5),
    ]
    for query in cases:
        a = loop_mass(query)
        b = loop_mass_quadrature(query)
        assert a == pytest.approx(b, abs=2e-8), query


def test_window_additivity():
    surf = RectangleDirichlet(1.0, 1.0)
    full = loop_mass(LoopMassQuery(surf, 0.4))
    low = loop_mass(LoopMassQuery(surf, 0.4, 4.0))
    high = loop_mass(LoopMassQuery(surf, 4.0))
    assert full == pytest.approx(low + high, abs=1e-12)


def test_mass_monotone_in_window_and_kappa():
    surf = DiskDirichlet(1.0)
    m1 = loop_mass(LoopMassQuery(surf, 0.1))
    m2 = loop_mass(LoopMassQuery(surf, 0.2))
    assert m1 > m2
    k1 = loop_mass(LoopMassQuery(surf, 0.1, kappa=0.1))
    k2 = loop_mass(LoopMassQuery(surf, 0.1, kappa=1.0))
    assert m1 > k1 > k2


def test_zero_mode_window_term():
    # on a closed surface the zero mode contributes exactly log(C/delta);
    # doubling the cap far beyond the spectral gap adds only log 2, since all
    # positive eigenvalues are already exhausted there
    surf = FlatTorus(1.0, 1.0)
    a = loop_mass(LoopMassQuery(surf, 0.4, 8.0))
    b = loop_mass(LoopMassQuery(surf, 0.4, 4.0))
    assert a - b == pytest.approx(math.log(2.0), abs=1e-12)


def test_boundary_residual_small_and_shrinking():
    surf = RectangleDirichlet(1.0, 1.0)
    r1 = abs(theorem_residual_boundary(surf, 0.05))
    r2 = abs(theorem_residual_boundary(surf, 0.01))
    assert r1 < 1e-6
    assert r2 <= r1 + 1e-14


def test_closed_residual_small():
    assert abs(theorem_residual_closed(RoundSphere(1.0), 0.01, 50.0)) < 2e-2
    assert abs(theorem_residual_closed(FlatTorus(1.0, 1.0), 0.01, 50.0)) < 1e-6


def test_residual_case_guards():
    with pytest.raises(ValueError):
        theorem_residual_boundary(FlatTorus(1.0, 1.0), 0.01)
    with pytest.raises(ValueError):
        theorem_residual_closed(DiskDirichlet(1.0), 0.01, 10.0)
    with pytest.raises(ValueError):
        decay_residual(DiskDirichlet(1.0), 0.01, 0.1)
    with pytest.raises(ValueError):
        decay_residual(FlatTorus(1.0, 1.0), 0.01, 0.0)


def test_residual_delta_guards():
    rect, torus = RectangleDirichlet(1.0, 1.0), FlatTorus(1.0, 1.0)
    for bad in (math.nan, math.inf, -math.inf, 0.0, -0.01):
        with pytest.raises(ValueError, match="delta"):
            theorem_residual_boundary(rect, bad)
        with pytest.raises(ValueError, match="delta"):
            theorem_residual_closed(torus, bad, 50.0)
        with pytest.raises(ValueError, match="delta"):
            decay_residual(torus, bad, 0.1)
    for bad in (math.nan, math.inf, -math.inf, 0.0):
        with pytest.raises(ValueError, match="cap_c"):
            theorem_residual_closed(torus, 0.02, bad)


def test_decay_residual_linear_in_kappa():
    surf = FlatTorus(1.0, 1.0)
    r3 = decay_residual(surf, 0.01, 1e-3)
    r4 = decay_residual(surf, 0.01, 1e-4)
    assert abs(r4) < abs(r3)
    assert r3 / r4 == pytest.approx(10.0, rel=0.05)


def test_weighted_loop_zeta_matches_series():
    surf = RectangleDirichlet(1.0, 1.0)
    assert zeta_from_weighted_loops(surf, 2.0) == pytest.approx(
        zeta(surf, 2.0), abs=1e-8)
    with pytest.raises(ValueError):
        zeta_from_weighted_loops(FlatTorus(1.0, 1.0), 2.0)
    with pytest.raises(ValueError):
        zeta_from_weighted_loops(surf, 1.0)


def test_fit_log_slope():
    xs = np.array([1e-4, 1e-3, 1e-2])
    assert fit_log_slope(xs, 3.0 * xs**0.5) == pytest.approx(0.5, abs=1e-12)
    assert fit_log_slope(xs, -2.0 * xs**1.5) == pytest.approx(1.5, abs=1e-12)
    with pytest.raises(ValueError, match="zero residual"):
        fit_log_slope(xs, [1.0, 0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RankWarning from a degenerate fit
        for one_x in ([0.01, 0.01], [0.02]):
            with pytest.raises(ValueError, match="two distinct x"):
                fit_log_slope(one_x, [1.0] * len(one_x))


@pytest.mark.parametrize("ys", [[1.0, math.nan, 2.0], [1.0, math.inf, 2.0],
                                [-math.inf, 1.0, 2.0]])
def test_fit_log_slope_refuses_a_y_that_is_not_finite(ys):
    # nan came back as the slope
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite y"):
            fit_log_slope([1e-3, 1e-2, 1e-1], ys)


@pytest.mark.parametrize("xs", [[0.0, 1e-2, 1e-1], [-1e-3, 1e-2, 1e-1],
                                [math.nan, 1e-2, 1e-1], [1e-3, 1e-2, math.inf]])
def test_fit_log_slope_refuses_an_x_that_is_not_finite_and_positive(xs):
    # x <= 0 warned "divide by zero encountered in log" and gave nan or inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite x > 0"):
            fit_log_slope(xs, [1.0, 2.0, 3.0])


def reference_loop_mass(query):
    """loop_mass as it was with its three E1 windows: an array window with a
    cut at 700, a scalar one, and special cases for C = inf."""

    def window_exp1(x_lo, x_hi):
        lo = special.exp1(x_lo) if x_lo < 700 else 0.0
        hi = special.exp1(x_hi) if x_hi < 700 else 0.0
        return float(lo - hi)

    delta = query.qv_low / 4.0
    cap = query.qv_high / 4.0
    surface = query.surface
    kappa = query.kappa
    lam, mult = surface.nonzero_spectrum(_TAIL_EXPONENT / delta)
    total = 0.0
    shifted = lam + kappa
    x_lo = shifted * delta
    keep = x_lo < 700.0
    lo = special.exp1(x_lo[keep])
    if math.isinf(cap):
        hi = np.zeros_like(lo)
    else:
        x_hi = shifted[keep] * cap
        hi = np.where(x_hi < 700.0, special.exp1(np.minimum(x_hi, 700.0)), 0.0)
    total += float(np.sum(mult[keep] * (lo - hi)))
    if surface.zero_modes:
        if kappa > 0.0:
            total += window_exp1(kappa * delta, kappa * cap) if not math.isinf(
                cap
            ) else float(special.exp1(kappa * delta))
        else:
            total += math.log(cap / delta)
    return total


_GRID_SURFACES = [
    IntervalDirichlet(1.0), RectangleDirichlet(1.0, 1.3), FlatTorus(1.0, 1.0),
    FlatTorus(0.7, 1.9), RoundSphere(1.0), RoundSphere(0.3), DiskDirichlet(1.0),
]


@pytest.mark.parametrize("surface", _GRID_SURFACES, ids=repr)
def test_loop_mass_matches_reference_bit_for_bit(surface):
    # open windows with kappa > 0, capped windows, and the zero mode at
    # kappa = 0 and kappa > 0, wherever kappa delta < 600
    compared = 0
    for qv_low in (0.004, 0.04, 0.4):
        for qv_high in (1.0, 10.0, math.inf):
            for kappa in (0.0, 1e-3, 0.5, 20.0, 1e4):
                if surface.is_closed and qv_high == math.inf and kappa == 0.0:
                    continue
                if kappa * qv_low / 4.0 >= 600.0:
                    continue
                query = LoopMassQuery(surface, qv_low, qv_high, kappa)
                assert loop_mass(query) == reference_loop_mass(query), query
                compared += 1
    assert compared >= 35


@pytest.mark.parametrize("surface, kappa_delta, want", [
    (DiskDirichlet(1.0), 699.5, 1.312235338113726e-308),
    (RoundSphere(1.0), 650.0, 1.8589469097348424e-285),
    (RoundSphere(1.0), 680.0, 1.662993244423605e-298),
    (RoundSphere(1.0), 700.5, 2.018312066050952e-307),
    (RoundSphere(1.0), 705.0, 2.227867493886215e-309),
    (FlatTorus(1.0, 1.0), 650.0, 7.852479304291564e-286),
    (FlatTorus(1.0, 1.0), 700.5, 8.524887097365681e-308),
    (FlatTorus(1.0, 1.0), 705.0, 9.40993081887363e-310),
    (IntervalDirichlet(1.0), 680.0, 5.015487832283972e-301),
    (IntervalDirichlet(1.0), 705.0, 6.72053943325e-312),
], ids=str)
def test_loop_mass_far_penalized_windows_are_pinned(surface, kappa_delta, want):
    # past kappa delta ~ 650 the mass is below ~1e-285; E1 is taken with no
    # cut at 700, so a capped window and an open one agree once E1(kappa C)
    # underflows, where the cut used to give 0.0 for C = 2 and 8.5e-308 for
    # C = inf on the sphere at 700.5
    for qv_high in (8.0, math.inf):
        mass = loop_mass(LoopMassQuery(surface, 2.0, qv_high, kappa_delta / 0.5))
        assert mass == pytest.approx(want, rel=1e-12, abs=0.0)


def test_loop_mass_of_a_huge_cap_is_finite_without_warnings():
    # C / delta overflows the float range: the zero mode's log(C / delta)
    # used to be inf, and every E1(lam C) argument overflowed with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for query, want in (
            (LoopMassQuery(FlatTorus(1.0, 1.0), 1e-5, 1e308), 32540.430436606),
            (LoopMassQuery(FlatTorus(1.0, 1.0), 1.0, 1e308), 709.19622781686),
            (LoopMassQuery(DiskDirichlet(1.0), 1.0, 1e308), 0.1201884566779),
            (LoopMassQuery(RoundSphere(1.0), 1e308, kappa=1e308), 0.0),
        ):
            assert loop_mass(query) == pytest.approx(want, rel=1e-11, abs=1e-300)
            assert loop_mass_quadrature(query) == pytest.approx(
                want, rel=1e-11, abs=1e-300)


_UNIT_SURFACES = {
    "interval": IntervalDirichlet(1.0), "rect": RectangleDirichlet(1.0, 1.5),
    "torus": FlatTorus(1.0, 1.0), "sphere": RoundSphere(1.0), "disk": DiskDirichlet(1.0),
}


def _scaled(surface, s):
    return replace(surface, **{fd.name: s * getattr(surface, fd.name)
                               for fd in fields(surface)})


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(_UNIT_SURFACES)),
       s=st.floats(1e-2, 1e8),
       qv_low=st.floats(1e-3, 1.0),
       ratio=st.one_of(st.just(math.inf), st.floats(2.0, 100.0)),
       kappa=st.one_of(st.just(0.0), st.floats(1e-2, 10.0)))
# past side ~1e7 an absolute cut at 1e-14 dropped the first eigenvalues:
# 29863.589, 2376.269 and 51.577 where the quadrature gave these values
@example(kind="sphere", s=1e8, qv_low=1e-4, ratio=4.0, kappa=0.0)
@example(kind="torus", s=1e8, qv_low=1e-4, ratio=4.0, kappa=0.0)
@example(kind="interval", s=1e8, qv_low=1e-4, ratio=4.0, kappa=0.0)
def test_loop_masses_follow_the_scaling_law(kind, s, qv_low, ratio, kappa):
    # lengths times s scale eigenvalues by s^-2, so the window (qv s^2,
    # cap s^2) at kappa / s^2 holds the same mass; refused enumerations aside
    unit = _UNIT_SURFACES[kind]
    if unit.is_closed and ratio == math.inf and kappa == 0.0:
        kappa = 1.0
    queries = (LoopMassQuery(unit, qv_low, qv_low * ratio, kappa),
               LoopMassQuery(_scaled(unit, s), qv_low * s * s,
                             qv_low * ratio * s * s, kappa / (s * s)))
    try:
        masses = [(loop_mass(q), loop_mass_quadrature(q)) for q in queries]
    except EnumerationBudgetError:
        reject()
    assert masses[1] == pytest.approx(masses[0], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind, s", [("interval", 1e8), ("disk", 1e4)])
def test_open_windows_with_a_boundary_follow_the_scaling_law(kind, s):
    # the quadrature's spectral gap searched from the absolute cutoff 200:
    # `loop-mass --surface interval:1e8 --qv-low 1e12` was refused with
    # "needs ~4.5e+08 eigenvalues" (disk:1e4 --qv-low 1e4, ~2.76e+09)
    unit = _UNIT_SURFACES[kind]
    queries = (LoopMassQuery(unit, 1e-4), LoopMassQuery(_scaled(unit, s), 1e-4 * s * s))
    masses = [(loop_mass(q), loop_mass_quadrature(q)) for q in queries]
    assert masses[1] == pytest.approx(masses[0], rel=1e-12, abs=0.0)
