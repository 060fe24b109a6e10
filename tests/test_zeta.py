import dataclasses
import importlib
import itertools
import math
import re
import time
import warnings

import numpy as np
import pytest

from loopzeta import surfaces
from loopzeta.surfaces import (
    DiskDirichlet,
    EnumerationBudgetError,
    FlatTorus,
    IntervalDirichlet,
    RectangleDirichlet,
    RoundSphere,
)
from loopzeta.zeta import (
    EULER_GAMMA,
    _head_panel,
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
from loopzeta.loopmass import zeta_from_weighted_loops

# the package binds `loopzeta.zeta` to the function; this is the module
zeta_module = importlib.import_module("loopzeta.zeta")

# Riemann zeta'(-1) to 20 digits
ZETA_PRIME_MINUS_ONE = -0.16542114370045092921
# log det for the unit round sphere: 1/2 - 4 zeta'(-1)
SPHERE_LOG_DET = 0.5 - 4.0 * ZETA_PRIME_MINUS_ONE
# Weisberger's unit Dirichlet disk: -(5/12 + 2 zeta'(-1) + log(pi)/2 + log(2)/6)
DISK_LOG_DET = -(5.0 / 12.0 + 2.0 * ZETA_PRIME_MINUS_ONE + 0.5 * math.log(math.pi)
                 + math.log(2.0) / 6.0)


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
    # the rectangle's trace is an exact theta sum and its zeta a closed form
    for surface, tolerance in ((RectangleDirichlet(1.0, 1.0), {"rel": 1e-13, "abs": 0.0}),
                               (DiskDirichlet(1.0), {"rel": 1e-13, "abs": 0.0}),
                               (RoundSphere(1.0), {"abs": 1e-8}),
                               (IntervalDirichlet(1.0), {"abs": 1e-8})):
        for s in (2.0, 3.0):
            assert zeta(surface, s) == pytest.approx(mellin_zeta(surface, s), **tolerance)


@pytest.mark.parametrize("s", [1.0005, 1.0, 0.5, math.nan])
def test_series_routes_share_one_domain(s):
    # nan passed the old `s <= 1.001` checks and came back as a silent nan;
    # the weighted-loop route had its own check at 1, with another message
    surface = RectangleDirichlet(1.0, 1.0)
    for route in (zeta, mellin_zeta, zeta_from_weighted_loops):
        with pytest.raises(ValueError, match="outside series domain"):
            route(surface, s)


@pytest.mark.parametrize("radius", [0.05, 0.1, 0.3, 1.0])
def test_sphere_zeta_at_two_is_radius_to_the_fourth(radius):
    # sum_l (2l + 1) / (l (l + 1))^2 telescopes to 1, so zeta(2) = r^4; the
    # Euler-Maclaurin tail by quadrature was 3e-8 off, with a warning at 0.05
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert zeta(RoundSphere(radius), 2.0) == pytest.approx(
            radius**4, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("s", [1.5, 3.0])
@pytest.mark.parametrize("radius", [0.05, 1.0, 100.0])
def test_sphere_zeta_matches_an_extended_precision_sum(radius, s):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        unit = mpmath.nsum(lambda l: (2 * l + 1) * (l * (l + 1)) ** -mpmath.mpf(s),
                           [1, mpmath.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert zeta(RoundSphere(radius), s) == pytest.approx(
            float(unit) * radius ** (2 * s), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("s", [2.0, 3.0])
@pytest.mark.parametrize("radius", [0.3, 1.0, 2.5, 10.0])
def test_disk_zeta_is_its_rayleigh_sum_times_radius_to_the_2s(radius, s):
    # Rayleigh's sums (Watson, Bessel Functions, section 15.51):
    # sum_k j_{nu,k}^-4 = 1 / (16 (nu+1)^2 (nu+2)) and sum_k j_{nu,k}^-6 =
    # 1 / (32 (nu+1)^3 (nu+2) (nu+3)), each order once at nu = 0 and twice
    # above; the smoothed-Weyl series was 1.1e-11 off at s = 2
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        if s == 2.0:
            def order(nu):
                return 1 / (16 * (nu + 1) ** 2 * (nu + 2))
        else:
            def order(nu):
                return 1 / (32 * (nu + 1) ** 3 * (nu + 2) * (nu + 3))
        unit = order(0) + 2 * mpmath.nsum(order, [1, mpmath.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert zeta(DiskDirichlet(radius), s) == pytest.approx(
            float(unit) * radius ** (2 * s), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("radius, s", [(1.0, 20.0), (1.0, 50.0), (1.0, 150.0),
                                       (15.0, 150.0)])
def test_disk_zeta_at_large_s_is_its_first_bessel_zeros(radius, s):
    # j_{0,1} = 2.40 leads the sum; every zero past nu, k <= 6 is above
    # j_{7,1} = 11.1 or j_{0,7} = 21.2, and adds below 1e-26 of it at s = 20.
    # At radius 15, r^2s overflows though the value, 3.2e238, does not
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        want = sum((1 if nu == 0 else 2)
                   * (mpmath.mpf(radius) / mpmath.besseljzero(nu, k)) ** (2 * mpmath.mpf(s))
                   for nu in range(7) for k in range(1, 7))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert zeta(DiskDirichlet(radius), s) == pytest.approx(float(want), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("radius", [1.5, 3.0])
def test_disk_zeta_whose_unit_value_underflows_is_refused_above_unit_radius(radius):
    # the unit disk's zeta at s = 500, about 1e-381, is 0.0 in float64, so
    # r^s times it times r^s read 0.0 where the value is 1e-205 at radius 1.5
    with pytest.raises(ValueError, match="at s = 500: the unit disk.s value .* radius %g > 1"
                       % radius):
        zeta(DiskDirichlet(radius), 500.0)
    assert zeta(DiskDirichlet(1.0 / radius), 500.0) == 0.0


@pytest.mark.parametrize("s", [1.01, 1.5, 2.0, 3.0])
def test_unit_square_lattice_zeta_is_its_closed_form(s):
    # sum_{(m, n) != 0} (m^2 + n^2)^-s = 4 zeta(s) beta(s), Dirichlet's beta,
    # and the rectangle's quarter leaves out the axes' 4 zeta(2s); the
    # smoothed-Weyl series was 1.2e-9 off the torus at s = 1.5 and 2.2e-8
    # at s = 1.01
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        big_s = mpmath.mpf(s)
        zeta_beta = mpmath.zeta(big_s) * mpmath.dirichlet(big_s, [0, 1, 0, -1])
        torus = (2 * mpmath.pi) ** (-2 * big_s) * 4 * zeta_beta
        rect = mpmath.pi ** (-2 * big_s) * (zeta_beta - mpmath.zeta(2 * big_s))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert zeta(FlatTorus(1.0, 1.0), s) == pytest.approx(float(torus), rel=1e-14, abs=0.0)
        assert zeta(RectangleDirichlet(1.0, 1.0), s) == pytest.approx(
            float(rect), rel=1e-14, abs=0.0)


def _direct_lattice_zeta(surface, s, mpmath):
    """The 30-digit sum of lam^-s over the lattice's nonzero eigenvalues, cut
    where a term falls below 1e-34 of the first: m, n >= 0 on the torus, each
    (m, n) standing for (+-m, +-n), and m, n >= 1 on the rectangle."""
    periodic = surface.is_closed
    with mpmath.workdps(30):
        unit = 2 * mpmath.pi if periodic else mpmath.pi
        a2, b2 = mpmath.mpf(surface.side_a) ** 2, mpmath.mpf(surface.side_b) ** 2
        big_s = mpmath.mpf(s)

        def term(m, n):
            return (unit**2 * (m * m / a2 + n * n / b2)) ** -big_s

        first = max(term(1, 0), term(0, 1)) if periodic else term(1, 1)
        cut = first * mpmath.mpf(10) ** -34
        low = 0 if periodic else 1
        total, n = mpmath.mpf(0), low
        # a row's terms fall in m, and its first in n; the torus's row 0 starts at m = 1
        while n == 0 or term(low, n) >= cut:
            m = 1 if n == 0 else low
            while (value := term(m, n)) >= cut:
                total += value * (2 if periodic and m else 1) * (2 if periodic and n else 1)
                m += 1
            n += 1
        return float(total)


@pytest.mark.parametrize("s", [20.0, 50.0, 150.0])
@pytest.mark.parametrize("surface", [
    RectangleDirichlet(1.0, 1.0), RectangleDirichlet(1.5, 0.7), RectangleDirichlet(0.01, 1.0),
    RectangleDirichlet(1.0, 30.0), FlatTorus(1.0, 2.0), FlatTorus(0.01, 1.0)], ids=repr)
def test_lattice_zeta_at_large_s_is_the_direct_sum(surface, s):
    # where the first few eigenvalues carry the sum, a form that subtracts
    # the axes from a whole-lattice sum cancels: the unit square at s = 50
    # read -5.6e-65 against 1.71e-65, and 0.01 x 1 at s = 5 read 0.0
    mpmath = pytest.importorskip("mpmath")
    want = _direct_lattice_zeta(surface, s, mpmath)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert zeta(surface, s) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("surface, s", [
    (RectangleDirichlet(1.0, 8.5), 200.0), (RectangleDirichlet(1.0, 9.0), 200.0),
    (RectangleDirichlet(1.0, 30.0), 200.0), (RectangleDirichlet(39.0, 3.0), 500.0)], ids=repr)
def test_lattice_zeta_past_gamma_s_range_is_the_direct_sum(surface, s):
    # at s = 200 every row is Poisson-summed, and the first row's C q - 1/2
    # cancels to about a tenth; scipy's beta(s - 1/2, 1/2) for C, 1e-13 off
    # past Gamma's range, put the value up to 8.5e-13 off. At s = 500 the
    # first row's Bessel term K_{s-1/2}(2 pi q) leaves float64, and the row
    # is summed over m
    mpmath = pytest.importorskip("mpmath")
    want = _direct_lattice_zeta(surface, s, mpmath)
    assert zeta(surface, s) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("surface", [FlatTorus(1.0, 1.0), RectangleDirichlet(1.0, 1.5)],
                         ids=repr)
def test_lattice_zeta_past_gamma_s_range_underflows_to_zero(surface):
    # Gamma(s) leaves float64 at s = 171.6; the value does not until later,
    # and then underflows
    for s in (170.0, 171.7):
        assert 0.0 < zeta(surface, s) < math.inf
    for s in (1e6, math.inf):
        assert zeta(surface, s) == 0.0


@pytest.mark.parametrize("s", [170.0, 171.7, 1e6, math.inf])
def test_thin_torus_past_the_float_range_at_large_s_is_refused_by_name(s):
    # its axis term (1e3 / 2 pi)^2s overflows
    with pytest.raises(ValueError, match="at s = %s is past the float64 range at largest"
                                         " length 1000$" % re.escape("%g" % s)):
        zeta(FlatTorus(1e-3, 1e3), s)


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
    for surface in (FlatTorus(1.0, 2.0), IntervalDirichlet(1.5), DiskDirichlet(0.8),
                    RoundSphere(2.0)):
        scaled = scaled_surface(surface, 0.3)
        assert type(scaled) is type(surface)
        for fd in dataclasses.fields(surface):
            assert getattr(scaled, fd.name) == pytest.approx(
                math.exp(0.3) * getattr(surface, fd.name), rel=1e-14)
        # the area term a = Vol / (4 pi) scales as length^2
        a = surface.heat_coefficients().a_coef
        assert scaled.heat_coefficients().a_coef == pytest.approx(
            math.exp(0.6) * a, rel=1e-14)


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
    # the Weyl series' fixed top cutoff 4e7 would have needed ~5.8 M
    # eigenvalues here, above the enumeration budget of 5 M
    for s in (2.0, 3.0):
        assert zeta(surface, s) == pytest.approx(mellin_zeta(surface, s), abs=1e-8)


@pytest.mark.parametrize("unit, scaled, zeta0", [
    (IntervalDirichlet(1.0), IntervalDirichlet(1e-3), -0.5),
    (FlatTorus(1.0, 1.0), FlatTorus(1e-3, 1e-3), -1.0),
    (RectangleDirichlet(1.0, 1.0), RectangleDirichlet(1e-3, 1e-3), 0.25),
])
def test_small_lattice_surfaces_scale_or_are_refused(unit, scaled, zeta0):
    # a side of 1e-3 puts t / L^2 at 1e5 at the split 0.1, inside the
    # Poisson sums' range: log det(s S) = log det(S) - 2 log(s) zeta_S(0)
    report = log_det_zeta(scaled, 0.1)
    want = log_det_zeta(unit, 0.1).log_det - 2.0 * math.log(1e-3) * zeta0
    assert abs(report.log_det - want) <= report.error_estimate
    # a side of 1e-4 puts it at 1e7: refused, as is anything smaller
    for side in (1e-4, 1e-50):
        tiny = scaled_surface(unit, math.log(side))
        with pytest.raises(ValueError, match="surface too small"):
            log_det_zeta(tiny, 0.1)
        with pytest.raises(ValueError, match="surface too small"):
            zeta_continued(tiny, 0.3)


_SMALL_DELTAS = (0.05, 1e-3, 2e-4, 1e-4, 5e-5, 2e-5, 1e-5)


@pytest.mark.parametrize("radius", [0.5, 1.0])
def test_disk_split_gaps_within_budget_at_small_delta(radius):
    # below 4 * head_cut_floor the head's cut used to sit at delta itself:
    # its 8 fit points coincided and the quadrature had no body, so the unit
    # disk at delta = 1e-4 was 6.3e-7 off Weisberger's value with a reported
    # error of 3.9e-12, and the worst gap/budget was 2.6e5 (6.3e5 at 0.5)
    disk = DiskDirichlet(radius)
    reports = [log_det_zeta(disk, d) for d in _SMALL_DELTAS]
    for ra, rb in itertools.combinations(reports, 2):
        assert abs(ra.log_det - rb.log_det) <= ra.error_estimate + rb.error_estimate
    want = DISK_LOG_DET - 2.0 * math.log(radius) * zeta_at_zero(disk)
    for report in reports:
        if (radius, report.delta_split) == (1.0, 1e-5):
            continue  # test_unit_disk_error_estimate_at_smallest_delta
        assert abs(report.log_det - want) <= report.error_estimate
        assert not report.flagged


@pytest.mark.xfail(strict=True, reason="the estimate misses a 2e-10 error at 1e-5")
def test_unit_disk_error_estimate_at_smallest_delta():
    # 2.1e-10 off Weisberger's value against an estimate of 7.1e-11: about
    # 1e-14 of the tail and correction terms, which cancel from 2.5e4 each
    report = log_det_zeta(DiskDirichlet(1.0), 1e-5)
    assert abs(report.log_det - DISK_LOG_DET) <= report.error_estimate


@pytest.mark.parametrize("surface, want, pinned", [
    pytest.param(RoundSphere(100.0), SPHERE_LOG_DET + 4.0 / 3.0 * math.log(100.0),
                 7.301912638562499, id="sphere:100"),
    pytest.param(DiskDirichlet(10.0), DISK_LOG_DET - math.log(10.0) / 3.0,
                 -1.5412422164370128, id="disk:10"),
])
def test_large_sphere_and_disk_keep_their_values(surface, want, pinned):
    # large radii still within the enumeration budget at the default split
    # (its limits are about 870 and 16.8; sphere:1000 and disk:30 are
    # refused, see test_cli) keep the values they had before the refusal;
    # the sphere's is 1.1e-6 off the scaling law against an estimate of 4e-7
    # (ROADMAP item 8)
    report = log_det_zeta(surface, 0.1)
    assert report.log_det == pinned
    assert abs(report.log_det - want) <= 2e-6


def test_huge_sphere_trace_is_refused_before_allocating():
    # sum over l <= 5.7e7 at t = 1.5e-6 on the sphere of radius 1e4: two
    # arrays of ~460 MB each before the budget check
    with pytest.raises(EnumerationBudgetError):
        RoundSphere(1e4).heat_trace(1.5e-6)


@pytest.mark.parametrize("surface", [IntervalDirichlet(1e200), RectangleDirichlet(1e200, 1.0),
                                     FlatTorus(1e200, 1.0)], ids=repr)
def test_side_whose_square_overflows_is_refused_by_name(surface):
    # (side k)^2 in the Poisson tail raised "(34, 'Numerical result out of range')"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"surface too large: .* side 1e\+200 "):
            mellin_zeta(surface, 2.0)


_TINY = 1e-170


@pytest.mark.parametrize("route, surface", [
    (mellin_zeta, IntervalDirichlet(_TINY)),
    *((route, surface) for route in (zeta, mellin_zeta)
      for surface in (DiskDirichlet(_TINY), FlatTorus(_TINY, _TINY),
                      RoundSphere(_TINY), RectangleDirichlet(_TINY, _TINY))),
], ids=lambda value: getattr(value, "__name__", repr(value)))
def test_size_whose_scale_leaves_float64_is_refused_by_name(route, surface):
    # the band top 4e7 / L^2 overflowed (`cutoff must be positive`), the
    # Mellin start t0 L^2 underflowed (`Geometric sequence cannot include
    # zero`) and the sphere's r^2 underflowed (ZeroDivisionError)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"1e-170 is too small|too small: .*1e-170"):
            route(surface, 2.0)


@pytest.mark.parametrize("surface", [
    IntervalDirichlet(1e-156), FlatTorus(1e-156, 1e-156), RectangleDirichlet(1e-156, 1e-156),
    RoundSphere(1e-156), DiskDirichlet(1e-152), DiskDirichlet(2e-152)], ids=repr)
def test_mellin_zeta_whose_head_cut_leaves_float64_is_refused_by_name(surface):
    # t0 is subnormal here but not 0: the head's cut underflowed to 0
    # (`Geometric sequence cannot include zero`), the gap search's start
    # 200 / L^2 overflowed (`no nonzero eigenvalue below any finite cutoff`)
    # and the disk's cutoff 50 / cut overflowed (`needs ~inf eigenvalues`,
    # after an overflow warning)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^surface too small: the Mellin start .*"
                           r" at largest length %s$" % re.escape("%g" % surface.largest_length)):
            mellin_zeta(surface, 2.0)


@pytest.mark.parametrize("surface", [
    *(kind(size) for size in (1e-150, 1e-152) for kind in (IntervalDirichlet, RoundSphere)),
    *(kind(size, size) for size in (1e-150, 1e-152) for kind in (FlatTorus, RectangleDirichlet)),
    DiskDirichlet(1e-150)], ids=repr)
def test_mellin_zeta_keeps_its_value_where_the_head_holds(surface):
    # the head's cut is subnormal on all but the disk, and 50 over it
    # overflows, but neither the head nor the gap fails there
    assert mellin_zeta(surface, 2.0) == 0.0


@pytest.mark.parametrize("surface", [
    *(IntervalDirichlet(size) for size in (2.5e-153, 2e-153, 1.7e-153)),
    *(kind(size, size) for size in (2.5e-153, 2e-153, 1.7e-153)
      for kind in (FlatTorus, RectangleDirichlet))], ids=repr)
def test_mellin_zeta_past_the_sine_crossover_keeps_its_value_without_a_warning(surface):
    # the sine trace's first 12 exponents (n pi / side)^2 overflow to inf
    # here, and warned, though exp(-t inf) = 0.0 is their right limit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mellin_zeta(surface, 2.0) == 0.0


@pytest.mark.parametrize("s", [1.01, 2.0, 10.0])
@pytest.mark.parametrize("radius", [1e-152, 1e-156, 1e-161])
def test_sphere_series_whose_eigenvalues_overflow_is_refused_by_name(radius, s):
    # r^2 is representable (subnormal below ~1.5e-154), but l(l+1)/r^2
    # overflowed and the sum read nan with an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="radius %g is too small" % radius):
            zeta(RoundSphere(radius), s)


@pytest.mark.parametrize("surface, s", [
    (IntervalDirichlet(1e6), 1000.0), (RoundSphere(1e6), 1000.0),
    (FlatTorus(1e6, 1e6), 1000.0), (RectangleDirichlet(1e6, 1e6), 1000.0),
    (DiskDirichlet(1e6), 1000.0),
    # r^(2s) zeta_1(s) is past float64 here, and the sum read inf
    (RoundSphere(10.0), 200.0),
], ids=repr)
def test_zeta_past_the_float_range_is_refused_by_name(surface, s):
    # the interval and the sphere raised OverflowError (34, 'Numerical result
    # out of range'); the disk, torus and rectangle returned nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at s = %s .* largest length %s" % (
                re.escape("%g" % s), re.escape("%g" % surface.largest_length))):
            zeta(surface, s)


@pytest.mark.parametrize("surface", [FlatTorus(1e300, 1e-20), FlatTorus(1e-20, 1e300)],
                         ids=repr)
def test_zeta_band_past_the_budget_at_every_cutoff_is_refused_by_name(surface):
    # the long side's eigenvalue count is inf at any cutoff, so the band's
    # budget loop scaled its top to 0 and the enumeration raised "cutoff
    # must be positive", which names neither s nor the surface
    with pytest.raises(ValueError, match="at s = 2 .* largest length 1e\\+300"):
        zeta(surface, 2.0)


@pytest.mark.parametrize("surface", [FlatTorus(1e200, 1e200), RectangleDirichlet(1e200, 1e200)],
                         ids=repr)
def test_zeta_of_a_huge_lattice_is_refused_by_name(surface):
    # both side counts were finite Python ints whose product is past the
    # float range, so the series' budget loop raised "int too large to
    # convert to float"; the closed form's power overflows
    with pytest.raises(ValueError, match="past the float64 range at largest length 1e\\+200"):
        zeta(surface, 2.0)


def test_disk_zeta_past_the_float_range_is_refused_before_its_band_is_built(monkeypatch):
    # r^s already overflows; the smoothed-Weyl series' band would have
    # taken about 5 M Bessel zeros, some 30 s on a cold cache
    monkeypatch.setattr(surfaces, "_BESSEL_CACHE", surfaces._BesselZeroCache())
    start = time.perf_counter()
    with pytest.raises(ValueError, match="past the float64 range"):
        zeta(DiskDirichlet(1e6), 1000.0)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("surface", [
    IntervalDirichlet(10.0), DiskDirichlet(10.0), FlatTorus(10.0, 10.0),
    RectangleDirichlet(10.0, 10.0), RoundSphere(10.0)], ids=repr)
def test_zeta_near_the_float_range_is_the_series_value(surface):
    for s in (2.0, 150.0):
        assert zeta(surface, s) == surface.zeta_series(s)


@pytest.mark.parametrize("surface", [
    IntervalDirichlet(1e-100), DiskDirichlet(1e-100), FlatTorus(1e-100, 1e-100),
    RoundSphere(1e-100), RectangleDirichlet(1e-100, 1e-100),
], ids=repr)
def test_tiny_representable_size_keeps_its_underflowed_zeta(surface):
    # zeta(2) scales as L^4: 1e-400 is 0.0 in float64 on both routes
    assert zeta(surface, 2.0) == 0.0
    assert mellin_zeta(surface, 2.0) == 0.0


def test_interval_closed_form_zeta_needs_no_scale():
    # (L / pi)^4 zeta(4) underflows to the right 0.0 even where L^2 does
    assert zeta(IntervalDirichlet(_TINY), 2.0) == 0.0


@pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("length", [0.3, 1.0, 2.5])
def test_interval_zeta_matches_an_extended_precision_value(length, s):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        want = (mpmath.mpf(length) / mpmath.pi) ** (2 * s) * mpmath.zeta(2 * s)
    assert zeta(IntervalDirichlet(length), s) == pytest.approx(float(want), rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# the octave-panel memo of head_integral
# ---------------------------------------------------------------------------

def _gauss_panel(f, lo, hi, n):
    """n-point Gauss value of int_lo^hi f from its own call of f."""
    x, w = np.polynomial.legendre.leggauss(n)
    return float(0.5 * (hi - lo) * np.dot(w, f(0.5 * (hi + lo) + 0.5 * (hi - lo) * x)))


def reference_head_integral(surface, delta, s=0.0):
    """head_integral computing every octave panel afresh on every call, the
    route before the panel memo (with the cut t_lo <= delta / 4)."""
    t_lo = min(delta / 4.0, max(delta * surface.head_cut_ratio, surface.head_cut_floor))

    def integrand(t):
        return t ** (s - 1.0) * heat_trace_residual(surface, t)

    edges = [delta]
    while edges[-1] > 2.0 * t_lo:
        edges.append(edges[-1] / 2.0)
    edges.append(t_lo)
    body_coarse, body = 0.0, 0.0
    for a, b in zip(edges[1:], edges[:-1]):
        body_coarse += _gauss_panel(integrand, a, b, 24)
        body += _gauss_panel(integrand, a, b, 48)
    body_err = abs(body - body_coarse)
    powers = (1.0, 2.0, 3.0) if surface.is_closed else (0.5, 1.0, 1.5)
    t_fit = np.geomspace(t_lo, min(4.0 * t_lo, delta), 8)
    r_fit = heat_trace_residual(surface, t_fit)
    design = np.vstack([t_fit**p for p in powers]).T
    coef, *_ = np.linalg.lstsq(design, r_fit, rcond=None)
    stub = sum(c * t_lo ** (p + s) / (p + s) for c, p in zip(coef, powers))
    stub_err = abs(coef[-1]) * t_lo ** (powers[-1] + s) / (powers[-1] + s) + 1e-14
    if not np.isfinite(stub):
        stub, stub_err = 0.0, abs(r_fit[0])
    return body + stub, body_err + abs(stub_err)


_UNIT_SURFACES = (IntervalDirichlet(1.0), RectangleDirichlet(1.0, 1.0),
                  FlatTorus(1.0, 1.0), RoundSphere(1.0), DiskDirichlet(1.0))
_MEMO_SURFACES = _UNIT_SURFACES + tuple(
    scaled_surface(unit, math.log(scale))
    for unit in _UNIT_SURFACES for scale in (0.8, 1.3))
_SWEEP_DELTAS = (0.05, 0.1, 0.2, 0.4)
_RICHARDSON_S = tuple(0.1 * 2.0**-k for k in range(5))


def _reference_values(monkeypatch, fn, cases):
    monkeypatch.setattr(zeta_module, "head_integral", reference_head_integral)
    values = [fn(*case) for case in cases]
    monkeypatch.undo()
    return values


def _assert_memo_within_bound():
    info = _head_panel.cache_info()
    assert info.maxsize == zeta_module._HEAD_PANEL_CACHE_SIZE
    assert info.currsize <= info.maxsize


@pytest.mark.parametrize("surface", _MEMO_SURFACES, ids=repr)
def test_log_det_sweep_with_panel_memo_is_bit_identical(monkeypatch, surface):
    # ascending from a cold memo, each delta finds its lower panels held;
    # descending, every panel is held; from a cold memo again, descending
    # computes the deepest sweep first and the others reuse its panels
    want = dict(zip(_SWEEP_DELTAS, _reference_values(
        monkeypatch, log_det_zeta, [(surface, d) for d in _SWEEP_DELTAS])))
    for order in (_SWEEP_DELTAS + _SWEEP_DELTAS[::-1], _SWEEP_DELTAS[::-1]):
        _head_panel.cache_clear()
        for d in order:
            assert log_det_zeta(surface, d) == want[d]
        _assert_memo_within_bound()


@pytest.mark.parametrize("surface", _MEMO_SURFACES, ids=repr)
def test_zeta_continued_with_panel_memo_is_bit_identical(monkeypatch, surface):
    want = _reference_values(monkeypatch, zeta_continued,
                             [(surface, s) for s in _RICHARDSON_S])
    _head_panel.cache_clear()
    for _ in range(2):
        assert [zeta_continued(surface, s) for s in _RICHARDSON_S] == want
    _assert_memo_within_bound()


def test_disk_mellin_zeta_with_panel_memo_is_bit_identical(monkeypatch):
    disk = DiskDirichlet(1.0)
    cases = [(disk, s) for s in (1.5, 2.0, 3.0)]
    want = _reference_values(monkeypatch, mellin_zeta, cases)
    _head_panel.cache_clear()
    for _ in range(2):
        assert [mellin_zeta(*case) for case in cases] == want
    _assert_memo_within_bound()


def test_panel_memo_stays_within_its_bound():
    # more distinct panels than the memo holds: the oldest are dropped
    _head_panel.cache_clear()
    length = 1.0
    while _head_panel.cache_info().misses <= zeta_module._HEAD_PANEL_CACHE_SIZE:
        log_det_zeta(IntervalDirichlet(length), 0.1)
        length += 1.0 / 64.0
    _assert_memo_within_bound()
    assert _head_panel.cache_info().currsize == zeta_module._HEAD_PANEL_CACHE_SIZE


def test_mellin_zeta_on_a_large_interval_follows_the_scaling_law():
    # the spectral gap's search started at the absolute cutoff 200 and was
    # refused on IntervalDirichlet(1e8) with "needs ~4.5e+08 eigenvalues"
    unit = mellin_zeta(IntervalDirichlet(1.0), 2.0)
    assert mellin_zeta(IntervalDirichlet(1e8), 2.0) == pytest.approx(
        unit * 1e32, rel=1e-14)


@pytest.mark.parametrize("surface", [IntervalDirichlet(1.0), RectangleDirichlet(1.0, 1.5)])
@pytest.mark.parametrize("s", [10.0, 50.0, 100.0, 170.0])
def test_mellin_zeta_at_large_s_is_the_series_value(surface, s):
    # the body stopped at t = 50 / gap, which drops the fraction Q(s, 50) of
    # the integral: 0.48 of it at s = 50, and all of it by s = 200; the two
    # routes are 1.4e-14 apart at most here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mellin_zeta(surface, s) == pytest.approx(zeta(surface, s), rel=5e-14, abs=0.0)


@pytest.mark.parametrize("s", [172.0, 200.0, 1e300, math.inf])
def test_mellin_zeta_past_gamma_range_is_refused_by_name(s):
    # Gamma(s) is inf past s = 171.6, and the quotient read 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape("s = %g" % s)):
            mellin_zeta(IntervalDirichlet(1.0), s)


@pytest.mark.parametrize("surface", [
    IntervalDirichlet(10.0), IntervalDirichlet(100.0), RectangleDirichlet(20.0, 13.0),
    FlatTorus(20.0, 10.0)], ids=repr)
def test_mellin_zeta_whose_body_power_overflows_is_refused_by_name(surface):
    # t^(s - 1) overflowed at the body's top nodes, and the value read inf
    # with an overflow warning (or, past L = 7.9 at s = 100, a wrong finite one)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                "s = 100: t^(s-1) at t = ") + ".* largest length %g" % surface.largest_length):
            mellin_zeta(surface, 100.0)


@pytest.mark.parametrize("surface, s", [
    (IntervalDirichlet(3.0), 100.0), (IntervalDirichlet(7.89709), 100.0),
    (IntervalDirichlet(1.48031), 170.0), (RectangleDirichlet(14.2367, 14.2367 / 1.5), 100.0)],
    ids=repr)
def test_mellin_zeta_just_short_of_the_power_overflow_is_the_series_value(surface, s):
    # past L = 3, t_max^(s - 1) overflows at the body's end t_max, but no
    # node of its top Gauss panel reaches that power, so the value is finite
    # and kept
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mellin_zeta(surface, s) == pytest.approx(zeta(surface, s), rel=5e-14, abs=0.0)


@pytest.mark.xfail(strict=True, reason="the Mellin body loses the trace's last digits"
                   " at large s: tr - n cancels on closed surfaces")
@pytest.mark.parametrize("surface, s", [(FlatTorus(1.0, 2.0), 20.0),
                                        (RoundSphere(1.0), 20.0),
                                        (DiskDirichlet(1.0), 50.0)])
def test_eigen_sum_and_closed_mellin_zeta_at_large_s_is_the_series_value(surface, s):
    # 5e-4 off on the torus and the sphere at s = 20, 0.5 on the disk at 50
    assert mellin_zeta(surface, s) == pytest.approx(zeta(surface, s), rel=1e-12, abs=0.0)


def test_scaled_surface_past_the_float_range_is_refused_by_name():
    # math.exp(1000) raised a bare "OverflowError: math range error"
    with pytest.raises(ValueError, match="sigma_const = 1000"):
        scaled_surface(DiskDirichlet(1.0), 1000.0)


@pytest.mark.parametrize("sigma, log_det", [(math.nan, 0.0), (math.inf, 0.0),
                                             (0.25, math.nan), (-1e308, 1e308)])
def test_polyakov_alvarez_off_the_float_range_is_refused_by_name(sigma, log_det):
    # a nan sigma came back as a nan shift
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sigma_const"):
            polyakov_alvarez(DiskDirichlet(1.0), sigma, log_det)
