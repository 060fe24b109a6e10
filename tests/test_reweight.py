import math

import numpy as np
import pytest

from loopzeta import gff, reweight, subdivision
from loopzeta.subdivision import charge_to_params, subdivide


@pytest.fixture(scope="module")
def case():
    field = gff.sample_dgff(32, 21)
    q = charge_to_params(0.0).Q
    part = subdivide(field, q, 0.5)
    return field, part, q


def test_projection_preserves_averages(case):
    field, part, q = case
    proj = reweight.project_onto_partition(field, part, q)
    assert proj.solver_residual < 1e-9
    projected = gff.field_from_values(proj.projected_field)
    for s in part.squares:
        a = gff.square_average(field, s.level, s.i, s.j)
        b = gff.square_average(projected, s.level, s.i, s.j)
        assert a == pytest.approx(b, abs=1e-9)


def test_projection_minimizes_energy(case):
    field, part, q = case
    proj = reweight.project_onto_partition(field, part, q)
    projected = gff.field_from_values(proj.projected_field)
    assert gff.dirichlet_energy(projected) < gff.dirichlet_energy(field)
    # projecting the projection is (numerically) the identity
    again = reweight.project_onto_partition(projected, part, q)
    assert np.allclose(again.projected_field, proj.projected_field, atol=1e-8)


def test_coefficient_energy_is_scaled_dirichlet_energy(case):
    field, part, q = case
    proj = reweight.project_onto_partition(field, part, q)
    projected = gff.field_from_values(proj.projected_field)
    assert proj.coefficient_energy == pytest.approx(
        gff.dirichlet_energy(projected) / q**2, rel=1e-8)


def reference_projection(field, partition, q):
    """The dense route: one Poisson solve per square for its harmonic basis,
    the Schur complement from pairwise inner products, the projection as the
    basis sum. Returns (projected field, coefficient energy)."""
    size = field.size
    weights = []
    for s in sorted(partition.squares):
        w = size >> s.level
        counts = np.ones(w + 1)
        counts[1:-1] = 2.0
        full = np.zeros((size + 1, size + 1))
        full[s.i * w:s.i * w + w + 1, s.j * w:s.j * w + w + 1] = \
            np.outer(counts, counts) * (0.25 / w**2)
        weights.append(full[1:-1, 1:-1])
    basis = [gff.poisson_solve(size, w) for w in weights]
    schur = np.array([[np.sum(wa * b) for b in basis] for wa in weights])
    targets = np.array([np.sum(w * field.values) for w in weights])
    mu = np.linalg.solve(schur, targets)
    projected = sum(m * b for m, b in zip(mu, basis))
    return projected, float(mu @ targets) / gff.TWO_PI / q**2


def _reference_cases(size):
    q = charge_to_params(0.0).Q
    for seed in range(50):
        field = gff.sample_dgff(size, 7000 + seed)
        for eps in (0.3, 0.45, 0.6):
            yield field, subdivide(field, q, eps), q
    field = gff.sample_dgff(size, 6999)
    yield field, subdivide(field, q, 1e9), q  # the unit square alone
    capped = subdivide(field, q, 1e-9, depth_cap=3)
    assert capped.flagged_count == 64
    yield field, capped, q


@pytest.mark.parametrize("size", [16, 32, 64])
def test_projection_matches_dense_reference(size):
    for field, part, q in _reference_cases(size):
        proj = reweight.project_onto_partition(field, part, q)
        ref_field, ref_energy = reference_projection(field, part, q)
        assert proj.solver_residual < 1e-9
        assert proj.coefficient_energy == pytest.approx(ref_energy, rel=1e-12)
        assert np.max(np.abs(proj.projected_field - ref_field)) < 1e-10


def test_projection_q_guard(case):
    field, part, _ = case
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="q must be finite and positive"):
            reweight.project_onto_partition(field, part, bad)


def test_energy_only_route_equals_projection():
    q = charge_to_params(0.0).Q
    for field, part, _ in _reference_cases(16):
        proj = reweight.project_onto_partition(field, part, q)
        assert reweight._projection_energy(field, part, q) == proj.coefficient_energy


def test_experiment_report_equals_public_projection_route(monkeypatch):
    fast = reweight.reweighting_experiment(16, 0.55, 0.0, -6.0, 1000, 5)
    monkeypatch.setattr(
        reweight, "_projection_energy",
        lambda f, p, q: reweight.project_onto_partition(f, p, q).coefficient_energy)
    public = reweight.reweighting_experiment(16, 0.55, 0.0, -6.0, 1000, 5)
    for name in reweight.ExperimentReport.__dataclass_fields__:
        assert getattr(fast, name) == getattr(public, name), name


def test_projection_resolution_exhausted():
    q = charge_to_params(0.0).Q
    fine = subdivide(gff.sample_dgff(32, 1), q, 1e-9)
    assert max(fine.level_histogram()) == 5
    with pytest.raises(ValueError, match="resolution exhausted"):
        reweight.project_onto_partition(gff.sample_dgff(16, 1), fine, q)


def test_det_weight_and_report():
    assert reweight.det_weight(3.0, -12.0) == pytest.approx(-3.0)
    report = reweight.weight_report(0.0, -12.5, 2.0)
    assert report.c_new == -12.5
    q = charge_to_params(0.0).Q
    assert report.Q_new == pytest.approx(math.sqrt(q * q + 12.5 / 6.0), abs=1e-12)
    assert report.log_weight == pytest.approx(-12.5 / 12.0 * 2.0)
    with pytest.raises(ValueError):
        reweight.weight_report(0.0, 26.0, 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            reweight.weight_report(0.0, bad, 1.0)
    with pytest.raises(ValueError):
        reweight.WeightReport(c=0.0, c_prime=-12.5, c_new=-12.5,
                              Q_new=1.0, log_weight=0.0)


def test_density_ratio_constant_value():
    rng = np.random.default_rng(2)
    c, cp = 0.0, -12.5
    q = charge_to_params(c).Q
    q_new = charge_to_params(c + cp).Q
    for dim in (1, 4, 9):
        x = rng.standard_normal(dim)
        val = reweight.density_ratio_check(c, cp, x)
        assert val == pytest.approx(dim * math.log(q / q_new), abs=1e-11)
    with pytest.raises(ValueError):
        reweight.density_ratio_check(0.0, 26.0, np.ones(3))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            reweight.density_ratio_check(0.0, bad, np.ones(3))


def test_pooled_chi_square_basics():
    counts = np.array([40.0, 30.0, 20.0, 10.0])
    stat, p = reweight._pooled_chi_square(counts, counts, 100.0, 100.0)
    assert stat == 0.0 and p == 1.0
    far = np.array([10.0, 20.0, 30.0, 40.0])
    stat2, p2 = reweight._pooled_chi_square(counts, far, 1000.0, 1000.0)
    assert stat2 > 0 and p2 < 0.01


def test_experiment_guards():
    with pytest.raises(ValueError, match="10\\^3"):
        reweight.reweighting_experiment(16, 0.5, 0.0, -1.0, 10, 0)
    with pytest.raises(ValueError, match="<= 1"):
        reweight.reweighting_experiment(16, 0.5, 2.0, -1.0, 1000, 0)
    with pytest.raises(ValueError, match="<= 1"):
        reweight.reweighting_experiment(16, 0.5, 0.0, 5.0, 1000, 0)
    # protocol A uses seeds seed*10^6 + i and protocol B seed*10^6 + 5*10^5 + i
    with pytest.raises(ValueError, match="overlap"):
        reweight.reweighting_experiment(16, 0.5, 0.0, -1.0, 500_001, 0)


def test_small_experiment_consistency():
    rep = reweight.reweighting_experiment(16, 0.55, 0.0, -6.0, 1000, 3)
    assert rep.ess > 100
    # both protocols target the same ensemble: weighted mean square count
    # tracks the direct one and no test is wildly rejected
    assert abs(rep.mean_count_weighted - rep.mean_count_direct) \
        < 0.25 * rep.mean_count_direct
    assert min(rep.count_p, rep.level_p, rep.slice_p) > 1e-3
