import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import fft as sfft

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
    for level, i, j in zip(part._levels, part._rows, part._cols):
        a = gff.square_average(field, level, i, j)
        b = gff.square_average(projected, level, i, j)
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


def poisson_solve(size, rhs):
    """Solve (grid Laplacian) u = rhs on the interior via DST-I
    diagonalization."""
    lam1 = gff._mode_eigenvalues(size)
    coeff = sfft.dstn(rhs, type=1, norm="ortho")
    return sfft.dstn(coeff / (lam1[:, None] + lam1[None, :]), type=1, norm="ortho")


def test_poisson_solve_inverts_laplacian():
    size = 16
    rng = np.random.default_rng(11)
    rhs = rng.standard_normal((size - 1, size - 1))
    u = poisson_solve(size, rhs)
    green = gff.green_oracle(size) / gff.TWO_PI
    expect = (green @ rhs.ravel()).reshape(size - 1, size - 1)
    assert np.allclose(u, expect, atol=1e-10)


def reference_projection(field, partition, q):
    """The dense route: one Poisson solve per square for its harmonic basis,
    the Schur complement from pairwise inner products, the projection as the
    basis sum. Returns (projected field, coefficient energy)."""
    size = field.size
    weights = []
    for level, i, j in sorted(zip(partition._levels.tolist(),
                                  partition._rows.tolist(),
                                  partition._cols.tolist())):
        w = size >> level
        counts = np.ones(w + 1)
        counts[1:-1] = 2.0
        full = np.zeros((size + 1, size + 1))
        full[i * w:i * w + w + 1, j * w:j * w + w + 1] = \
            np.outer(counts, counts) * (0.25 / w**2)
        weights.append(full[1:-1, 1:-1])
    basis = [poisson_solve(size, w) for w in weights]
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
    if size == 16:
        # every square flagged at the depth cap, level 4
        capped = subdivide(field, q, 1e-9)
        assert capped.flagged_count == len(capped) == 256
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


def test_projection_whose_energy_leaves_the_float_range_is_refused_by_name(case):
    # q = 5e-324 squared is 0: a ZeroDivisionError; at 1e-160 the energy was inf
    field, part, _ = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tiny in (5e-324, 1e-160):
            with pytest.raises(ValueError, match=re.escape("q = %g" % tiny)):
                reweight.project_onto_partition(field, part, tiny)


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


def test_det_weight():
    assert reweight.det_weight(3.0, -12.0) == pytest.approx(-3.0)
    assert reweight.det_weight(2.0, -12.5) == pytest.approx(-12.5 / 12.0 * 2.0)


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


@pytest.mark.parametrize("x", [[math.nan], [math.inf], [1.0, -math.inf], [1e200]])
def test_density_ratio_check_refuses_x_past_the_float_range(x):
    # nan came back silently, and 1e200 warned "overflow encountered in square"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="x must be finite"):
            reweight.density_ratio_check(0.0, 1.0, np.array(x))


@pytest.mark.parametrize("c, c_prime, x", [(-1e300, 1.0, [1e5]), (0.0, -1e300, [1e5])])
def test_density_ratio_check_refuses_charges_that_overflow_q_squared_x_squared(c, c_prime, x):
    # Q^2 x^2 overflowed with numpy warnings and the ratio came back nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape("c = %g and c' = %g" % (c, c_prime))):
            reweight.density_ratio_check(c, c_prime, np.array(x))


@pytest.mark.parametrize("c, c_prime, x", [(0.0, -1e308, [1.0]), (0.0, -1e300, [1.0, 2.0]),
                                          (0.0, -1e20, [3.0])])
def test_density_ratio_check_refuses_charges_whose_terms_cancel_past_float_precision(
        c, c_prime, x):
    # (c'/12) x^2 and log_base - log_target, about 8e306 each at c' = -1e308,
    # cancel to n log(Q / Q_new) ~ -353; the result kept only their rounding
    # error, 1.247e291, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape("c' = %g" % c_prime)):
            reweight.density_ratio_check(c, c_prime, np.array(x))


@pytest.mark.parametrize("c_prime", [-1e14, -1e16])
def test_density_ratio_check_refuses_few_correct_digits_below_its_old_cut(c_prime):
    # below the cut at 1/eps the cancellation still ate the digits: -14.48
    # against n log(Q / Q_new) = -14.51 at c' = -1e14, and -16.0 against
    # -16.81 at -1e16
    with pytest.raises(ValueError, match=re.escape("c' = %g" % c_prime)):
        reweight.density_ratio_check(0.0, c_prime, np.array([3.0]))


def _exact_density_ratio(c, c_prime, n):
    """n log(Q / Q_new) at 40 digits, Q^2 = (25 - c) / 6 from the exact c."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        c, c_prime = mpmath.mpf(c), mpmath.mpf(c_prime)
        return float(n * mpmath.log((25 - c) / (25 - c - c_prime)) / 2)


@pytest.mark.parametrize("c", [0.0, -12.5])
def test_density_ratio_check_keeps_its_stated_digits_or_refuses(c):
    # every value returned has the relative accuracy that the function
    # states, across c' from 1e-12 to 1e16 in size, of both signs
    rng = np.random.default_rng(9)
    sizes = np.geomspace(1e-12, 1e16, 57)
    kept = 0
    for c_prime in np.concatenate([-sizes, sizes[sizes < 24.9 - c]]):
        for x in (np.array([3.0]), rng.standard_normal(7)):
            try:
                value = reweight.density_ratio_check(c, c_prime, x)
            except ValueError as exc:
                assert ("c' = %g" % c_prime) in str(exc)
                continue
            want = _exact_density_ratio(c, c_prime, x.size)
            assert value == pytest.approx(want, rel=reweight._RATIO_RTOL, abs=0.0)
            kept += 1
    assert kept > 40


def test_pooled_chi_square_basics():
    counts = np.array([40.0, 30.0, 20.0, 10.0])
    stat, p = reweight._pooled_chi_square(counts, counts, 100.0, 100.0)
    assert stat == 0.0 and p == 1.0
    far = np.array([10.0, 20.0, 30.0, 40.0])
    stat2, p2 = reweight._pooled_chi_square(counts, far, 1000.0, 1000.0)
    assert stat2 > 0 and p2 < 0.01


def test_pooled_chi_square_without_mass_on_a_side_is_nan():
    counts = np.array([40.0, 30.0])
    for a, b, n_b in ((counts, np.zeros(2), 0.0), (np.zeros(2), counts, 70.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stat, p = reweight._pooled_chi_square(a, b, 70.0, n_b)
        assert math.isnan(stat) and math.isnan(p)


@pytest.mark.parametrize("w, ess", [
    (np.array([]), 0.0),
    (np.zeros(3), 0.0),
    (np.array([1.0, 1.0, 0.0]), 2.0),
    (np.array([1e-200, 1e-200, 0.0]), 2.0),  # squares underflow to 0
    (np.array([1e-300]), 1.0),
])
def test_ess_is_finite_for_empty_zero_and_underflowing_weights(w, ess):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert reweight._ess(w) == ess


def _pooled_chi_square_through_stats(counts_a, counts_b, n_a, n_b):
    """The pooled chi-square as it read with its tail from scipy.stats."""
    from scipy import stats

    p = counts_a / counts_a.sum()
    qq = counts_b / counts_b.sum()
    pool = (n_a * p + n_b * qq) / (n_a + n_b)
    order = np.argsort(-pool)
    p, qq, pool = p[order], qq[order], pool[order]
    keep = pool * min(n_a, n_b) >= 5.0
    if not keep.all():
        first = int(np.argmax(~keep))
        p = np.append(p[:first], p[first:].sum())
        qq = np.append(qq[:first], qq[first:].sum())
        pool = np.append(pool[:first], pool[first:].sum())
    mask = pool > 0
    stat = float(np.sum((p[mask] - qq[mask]) ** 2
                        / (pool[mask] * (1.0 / n_a + 1.0 / n_b))))
    dof = int(mask.sum()) - 1
    if dof <= 0:
        return 0.0, 1.0
    return stat, float(stats.chi2.sf(stat, dof))


@st.composite
def _category_counts(draw):
    """Direct counts, weighted counts (counts times per-category weights)
    and two effective sample sizes, all positive in total."""
    k = draw(st.integers(1, 40))
    counts = st.lists(st.integers(0, 2000), min_size=k, max_size=k)
    direct = np.array(draw(counts), dtype=float)
    weights = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k)))
    weighted = np.array(draw(counts), dtype=float) * weights
    if direct.sum() == 0:
        direct[0] = 1.0
    if weighted.sum() == 0:
        weighted[-1] = 1.0
    sizes = st.floats(1.0, 1e5)
    return direct, weighted, draw(sizes), draw(sizes)


@settings(max_examples=300, deadline=None)
@given(_category_counts())
@example((np.array([7.0]), np.array([3.5]), 10.0, 10.0))  # one category: dof 0
@example((np.array([400.0, 300.0, 2.0, 1.0, 0.0]),
          np.array([380.0, 310.0, 0.5, 3.0, 1.0]), 700.0, 40.0))  # merged tail
@example((np.array([1.0, 2.0, 1.0]), np.array([2.0, 1.0, 1.0]), 4.0, 3.0))  # all merged
def test_pooled_chi_square_matches_the_stats_route(inputs):
    # special.chdtrc(dof, x) is the function scipy.stats.chi2.sf(x, dof) calls
    assert reweight._pooled_chi_square(*inputs) == _pooled_chi_square_through_stats(*inputs)


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


def reference_experiment(grid_size, epsilon, c, c_prime, n_samples, seed):
    """The tally route: a dict of direct counts, per-sample level vectors
    filled from `level_histogram`, and weighted sums over Python lists."""
    params = charge_to_params(c)
    params_new = charge_to_params(c + c_prime)
    max_level = gff._check_size(grid_size)
    direct_counts = {}
    direct_levels = np.zeros(max_level + 1)
    rows_a, rows_b = [], []
    for i in range(n_samples):
        part = subdivide(gff.sample_dgff(grid_size, seed * 1_000_000 + i),
                         params_new.Q, epsilon)
        direct_counts[len(part)] = direct_counts.get(len(part), 0) + 1
        lva = np.zeros(max_level + 1)
        for lvl, cnt in part.level_histogram().items():
            lva[lvl] = cnt
        direct_levels += lva
        rows_a.append((len(part), lva))
        h2 = gff.sample_dgff(grid_size, seed * 1_000_000 + 500_000 + i)
        part2 = subdivide(h2, params.Q, epsilon)
        energy = reweight._projection_energy(h2, part2, params.Q)
        logw = reweight.det_weight(energy, c_prime) \
            + len(part2) * math.log(params_new.Q / params.Q)
        lv = np.zeros(max_level + 1)
        for lvl, cnt in part2.level_histogram().items():
            lv[lvl] = cnt
        rows_b.append((len(part2), lv, logw))

    logw = np.array([r[2] for r in rows_b])
    w = np.exp(logw - logw.max())
    ess = float(w.sum() ** 2 / np.sum(w**2))
    counts_b = np.array([r[0] for r in rows_b])
    all_counts = sorted(set(direct_counts) | set(counts_b))
    ca = np.array([direct_counts.get(k, 0) for k in all_counts], dtype=float)
    cb = np.array([np.sum(w[counts_b == k]) for k in all_counts])
    count_chi2, count_p = reweight._pooled_chi_square(ca, cb, n_samples, ess)
    levels_b = np.sum([r[1] * wi for r, wi in zip(rows_b, w)], axis=0)
    nz = (direct_levels + levels_b) > 0
    level_chi2, level_p = reweight._pooled_chi_square(
        direct_levels[nz], levels_b[nz], n_samples, ess)
    modal = max(direct_counts, key=direct_counts.get)
    sel = counts_b == modal
    slice_w = w[sel]
    slice_levels = np.sum([r[1] * wi for r, wi, s in zip(rows_b, w, sel) if s],
                          axis=0) if sel.any() else np.zeros(max_level + 1)
    direct_slice_levels = np.zeros(max_level + 1)
    for cnt_a, lva in rows_a:
        if cnt_a == modal:
            direct_slice_levels += lva
    ess_slice = float(slice_w.sum() ** 2 / np.sum(slice_w**2)) if sel.any() else 0.0
    nz = (direct_slice_levels + slice_levels) > 0
    slice_chi2, slice_p = reweight._pooled_chi_square(
        direct_slice_levels[nz], slice_levels[nz], direct_counts[modal], ess_slice)
    return reweight.ExperimentReport(
        count_chi2=count_chi2, count_p=count_p,
        level_chi2=level_chi2, level_p=level_p,
        slice_chi2=slice_chi2, slice_p=slice_p,
        modal_count=int(modal), ess=ess, underpowered=bool(ess < 50),
        mean_count_direct=float(
            np.sum([k * v for k, v in direct_counts.items()]) / n_samples),
        mean_count_weighted=float(np.sum(w * counts_b) / w.sum()),
    )


@pytest.mark.parametrize("args", [
    (16, 0.55, 0.0, -6.0, 1000, 3),
    (16, 0.55, 0.0, -6.0, 1000, 5),
    (32, 0.45, 0.0, -12.5, 1000, 11),
    (64, 0.45, 0.0, -12.5, 1000, 11),
])
def test_experiment_equals_reference_tallies(args):
    assert reweight.reweighting_experiment(*args) == reference_experiment(*args)


def test_inverse_root_table_is_cached_read_only_for_one_block_sizes():
    for size in (16, 64, 128):
        table = reweight._inverse_root(size)
        assert reweight._inverse_root(size) is table and not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0
        lam1 = gff._mode_eigenvalues(size)
        assert np.array_equal(table, 1.0 / np.sqrt(lam1[:, None] + lam1[None, :]))
    assert reweight._inverse_root(256) is not reweight._inverse_root(256)
