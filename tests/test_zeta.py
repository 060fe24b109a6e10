import math
import warnings

import pytest

from loopzeta.surfaces import (
    DiskDirichlet,
    FlatTorus,
    IntervalDirichlet,
    RectangleDirichlet,
    RoundSphere,
)
from loopzeta.zeta import (
    EULER_GAMMA,
    heat_trace_residual,
    log_det_zeta,
    mellin_zeta,
    polyakov_alvarez,
    richardson_zeta_at_zero,
    scaled_surface,
    zeta,
    zeta_at_zero,
    zeta_continued,
)

# log det for the unit round sphere: 1/2 - 4 zeta'(-1), zeta'(-1) to 20 digits
SPHERE_LOG_DET = 0.5 - 4.0 * (-0.16542114370045092921)


def test_interval_log_det_exact():
    for length in (0.5, 1.0, 2.0, 3.7):
        report = log_det_zeta(IntervalDirichlet(length), 0.05)
        assert report.log_det == pytest.approx(math.log(2 * length), abs=1e-9)
        assert not report.flagged


def test_sphere_log_det_frozen():
    report = log_det_zeta(RoundSphere(1.0), 0.1)
    assert report.log_det == pytest.approx(SPHERE_LOG_DET, abs=1e-9)


def test_unit_torus_log_det_closed_form():
    # modified determinant of the square unit torus: |eta(i)|^4 with
    # eta(i) = Gamma(1/4) / (2 pi^(3/4))
    eta_i = math.gamma(0.25) / (2.0 * math.pi**0.75)
    report = log_det_zeta(FlatTorus(1.0, 1.0), 0.05)
    assert report.log_det == pytest.approx(4.0 * math.log(eta_i), abs=1e-9)


def test_torus_scaling_law():
    # eigenvalues scale by s^-2 under side scaling by s, so
    # log det' shifts by -2 log(s) * zeta(0) = 2 log(s) (zeta(0) = -1)
    base = log_det_zeta(FlatTorus(1.0, 1.0), 0.05).log_det
    scaled = log_det_zeta(FlatTorus(2.0, 2.0), 0.05).log_det
    assert scaled - base == pytest.approx(2.0 * math.log(2.0), abs=1e-8)


def test_split_point_independence_quick():
    for surface in (FlatTorus(1.0, 2.0), DiskDirichlet(1.0)):
        r1 = log_det_zeta(surface, 0.2)
        r2 = log_det_zeta(surface, 0.05)
        assert abs(r1.log_det - r2.log_det) <= r1.error_estimate + r2.error_estimate


def test_delta_domain():
    for bad in (0.0, 1e-6, 0.6, -0.1):
        with pytest.raises(ValueError):
            log_det_zeta(IntervalDirichlet(1.0), bad)


def test_zeta_series_vs_mellin():
    for surface in (RectangleDirichlet(1.0, 1.0), RoundSphere(1.0),
                    IntervalDirichlet(1.0)):
        for s in (2.0, 3.0):
            assert zeta(surface, s) == pytest.approx(
                mellin_zeta(surface, s), abs=1e-8)


def test_zeta_series_domain():
    with pytest.raises(ValueError):
        zeta(IntervalDirichlet(1.0), 1.0)
    with pytest.raises(ValueError):
        mellin_zeta(IntervalDirichlet(1.0), 0.5)


def test_zeta_continued_agrees_in_series_region():
    surface = RoundSphere(1.0)
    assert zeta_continued(surface, 2.0) == pytest.approx(
        zeta(surface, 2.0), abs=1e-8)


def test_interval_zeta_closed_form():
    # interval of length pi has eigenvalues n^2, so zeta(2) = pi^4/90... here
    # zeta(s) = (L/pi)^(2s) * Riemann zeta(2s)
    val = zeta(IntervalDirichlet(math.pi), 2.0)
    assert val == pytest.approx(math.pi**4 / 90.0, rel=1e-10)


def test_zeta_at_zero_values():
    assert zeta_at_zero(FlatTorus(1.0, 1.0)) == pytest.approx(-1.0)
    assert zeta_at_zero(RoundSphere(1.0)) == pytest.approx(1.0 / 3.0 - 1.0)
    assert zeta_at_zero(DiskDirichlet(1.0)) == pytest.approx(1.0 / 6.0)
    assert zeta_at_zero(RectangleDirichlet(1.0, 1.0)) == pytest.approx(0.25)
    assert zeta_at_zero(IntervalDirichlet(1.0)) == pytest.approx(-0.5)


def test_richardson_continuation():
    for surface in (IntervalDirichlet(1.0), FlatTorus(1.0, 1.0)):
        assert richardson_zeta_at_zero(surface) == pytest.approx(
            zeta_at_zero(surface), abs=1e-6)


def test_heat_trace_residual_positive_and_small():
    # lattice-type surfaces: the exact residual is exponentially small at
    # modest t and must not be polluted by cancellation
    import numpy as np

    t = np.array([0.005, 0.01])
    r_int = heat_trace_residual(IntervalDirichlet(1.0), t)
    assert np.all(r_int >= 0)
    assert np.all(r_int < 1e-20)
    r_torus = heat_trace_residual(FlatTorus(1.0, 1.0), t)
    assert np.all(np.abs(r_torus) < 1e-8)


def test_polyakov_alvarez_shift():
    surface = RoundSphere(1.0)
    base = log_det_zeta(surface, 0.05).log_det
    shifted = polyakov_alvarez(surface, 0.25, base)
    assert shifted - base == pytest.approx(-2 * 0.25 * zeta_at_zero(surface))
    with pytest.raises(ValueError):
        polyakov_alvarez(RectangleDirichlet(1.0, 1.0), 0.25, 0.0)
    with pytest.raises(ValueError):
        polyakov_alvarez(IntervalDirichlet(1.0), 0.25, 0.0)


def test_scaled_surface():
    s = scaled_surface(RectangleDirichlet(1.0, 2.0), math.log(2.0))
    assert s == RectangleDirichlet(2.0, 4.0)
    assert scaled_surface(DiskDirichlet(1.0), 0.0) == DiskDirichlet(1.0)
    assert scaled_surface(RoundSphere(1.0), 1.0).radius == pytest.approx(math.e)
    for surface, power in ((FlatTorus(1.0, 2.0), 2), (IntervalDirichlet(1.5), 1),
                           (DiskDirichlet(0.8), 2), (RoundSphere(2.0), 2)):
        scaled = scaled_surface(surface, 0.3)
        assert type(scaled) is type(surface)
        assert scaled.volume == pytest.approx(math.exp(0.3 * power) * surface.volume,
                                              rel=1e-14)


def test_euler_gamma_constant():
    # gamma = -Gamma'(1); cross-check against a digit-frozen literal
    assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-15)


@pytest.mark.parametrize("surface", [FlatTorus(1.0, 1.0), RoundSphere(1.0)],
                         ids=lambda s: type(s).__name__)
def test_zeta_continued_at_one_half_on_closed_surfaces(surface):
    # b = 0, so s = 1/2 is no pole: the b-term must be skipped, not 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mid = zeta_continued(surface, 0.5)
    below = zeta_continued(surface, 0.4999)
    above = zeta_continued(surface, 0.5001)
    assert math.isfinite(mid)
    assert min(below, above) <= mid <= max(below, above)


def test_zeta_continued_torus_near_one_half():
    assert zeta_continued(FlatTorus(1.0, 1.0), 0.4999) == pytest.approx(
        -0.62078, abs=1e-5)


def test_zeta_continued_raises_at_poles():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for surface in (FlatTorus(1.0, 1.0), RoundSphere(1.0), DiskDirichlet(1.0),
                        RectangleDirichlet(1.0, 1.0)):
            with pytest.raises(ValueError, match="pole"):
                zeta_continued(surface, 1.0)
        for surface in (RectangleDirichlet(1.0, 1.0), IntervalDirichlet(1.0),
                        DiskDirichlet(1.0)):
            with pytest.raises(ValueError, match="pole"):
                zeta_continued(surface, 0.5)


def test_zeta_continued_rejects_negative_s():
    # Q(s, x) in the tail sum is undefined for s < 0; the value there used to
    # be a silent NaN (and a RuntimeWarning on the interval)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for surface in (FlatTorus(1.0, 1.0), RoundSphere(1.0), IntervalDirichlet(1.0)):
            for bad in (-0.5, -1e-300, -2.0, math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="s >= 0"):
                    zeta_continued(surface, bad)
        torus = FlatTorus(1.0, 1.0)
        assert zeta_continued(torus, 0.0) == zeta_at_zero(torus) == -1.0


def test_zeta_continued_interval_at_one():
    # a = 0 on the interval, so s = 1 is no pole: zeta(1) = sum (L/(n pi))^2
    # = L^2 / 6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert zeta_continued(IntervalDirichlet(1.0), 1.0) == pytest.approx(
            1.0 / 6.0, abs=1e-9)


@pytest.mark.parametrize("surface", [FlatTorus(1.2, 1.2), RectangleDirichlet(1.2, 1.2)],
                         ids=lambda s: type(s).__name__)
def test_zeta_series_within_budget(surface):
    # the fixed top cutoff 4e7 would need ~5.8 M eigenvalues here, above the
    # enumeration budget of 5 M
    for s in (2.0, 3.0):
        assert zeta(surface, s) == pytest.approx(mellin_zeta(surface, s), abs=1e-8)
