import math
import warnings

import numpy as np
import pytest

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
    DiskDirichlet,
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
