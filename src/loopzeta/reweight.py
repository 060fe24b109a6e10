"""Central-charge reweighting: projections, determinant weights, experiments.

The projection of a field onto a square partition is the minimal-Dirichlet-
energy interpolant of its square averages; its normalized coefficient energy
Sigma x_S^2 drives the determinant weight e^{(c'/12) Sigma x^2}, under which
the charge-c ensemble becomes the charge-(c + c') ensemble.

The projection is solved in the sine-mode basis that diagonalizes the
Dirichlet five-point Laplacian (orthonormal DST-I). A square's average is a
separable functional of the sites, so its mode coefficients are an outer
product of two 1-D transforms, and the Schur complement over the squares is
one matrix product; nothing is cached between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft
from scipy import stats

from . import gff
from .gff import GridField, TWO_PI
from .subdivision import DyadicPartition, charge_to_params, subdivide


@dataclass(frozen=True)
class ProjectionResult:
    projected_field: np.ndarray
    coefficient_energy: float
    solver_residual: float


@dataclass(frozen=True)
class WeightReport:
    c: float
    c_prime: float
    c_new: float
    Q_new: float
    log_weight: float

    def __post_init__(self):
        q2 = charge_to_params(self.c).Q ** 2 - self.c_prime / 6.0
        if abs(self.Q_new**2 - q2) > 1e-12 * max(1.0, abs(q2)):
            raise ValueError("inconsistent Q_new")


def _window_profiles(size: int, starts: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One row per square: the 1-D factor of its square-average functional
    on the interior sites, 1, 2, ..., 2, 1 over the window, scaled by 0.5/w.

    Cells are valued by the mean of their corner sites and averaged over the
    square, so the functional's site weights are the outer product of the
    row and the column factor.
    """
    offset = np.arange(size + 1) - starts[:, None]
    width = w[:, None]
    in_window = (offset >= 0) & (offset <= width)
    inside = (offset > 0) & (offset < width)
    counts = 1.0 * in_window + inside  # 1 at the window's ends, 2 between
    return (counts * (0.5 / width))[:, 1:-1]  # drop the boundary sites


def _lagrange_solve(field: GridField, partition: DyadicPartition):
    """Solve the Lagrange system of the projection onto the partition.

    Lap u = sum_S mu_S W_S with <W_S, u> = v_S. Each W_S is the outer product
    r_S (x) c_S of two 1-D window profiles, so its orthonormal DST-I
    coefficients are the outer product of two 1-D transforms; with
    X_S = (r^_S (x) c^_S) / sqrt(lambda), the Schur complement
    <W_a, Lap^-1 W_b> is X X^T. Returns (mu, targets v, X, 1/sqrt(lambda),
    row profiles, column profiles).
    """
    size = field.size
    levels = partition._levels.astype(np.int64)
    w = size >> levels
    if np.any(w < 1):
        raise ValueError("resolution exhausted: square finer than the grid")
    rows = _window_profiles(size, partition._rows * w, w)
    cols = _window_profiles(size, partition._cols * w, w)
    lam1 = gff._mode_eigenvalues(size)
    inv_root = 1.0 / np.sqrt(lam1[:, None] + lam1[None, :])
    rows_hat = sfft.dst(rows, type=1, norm="ortho", axis=1)
    cols_hat = sfft.dst(cols, type=1, norm="ortho", axis=1)
    x = np.einsum("sj,sk->sjk", rows_hat, cols_hat)
    x *= inv_root
    x = x.reshape(len(w), -1)
    schur = x @ x.T
    targets = np.einsum("sk,sk->s", rows @ field.values, cols)
    try:
        mu = np.linalg.solve(schur, targets)
    except np.linalg.LinAlgError as exc:
        raise ValueError("degenerate partition: singular Schur complement") from exc
    return mu, targets, x, inv_root, rows, cols


def _coefficient_energy(mu: np.ndarray, targets: np.ndarray, q: float) -> float:
    energy = float(mu @ targets) / TWO_PI  # u^T Lap u = mu . v
    return energy / q**2


def _projection_energy(field: GridField, partition: DyadicPartition,
                       q: float) -> float:
    """`project_onto_partition(...).coefficient_energy` without forming the
    projected field or its residual."""
    mu, targets = _lagrange_solve(field, partition)[:2]
    return _coefficient_energy(mu, targets, q)


def project_onto_partition(field: GridField, partition: DyadicPartition,
                           q: float) -> ProjectionResult:
    """Minimal-Dirichlet-energy field with the same square averages.

    The Lagrange multipliers come from `_lagrange_solve`; the projection is
    one inverse DST of mu^T X / sqrt(lambda).
    """
    if not (q > 0 and math.isfinite(q)):
        raise ValueError("q must be finite and positive, got %r" % (q,))
    mu, targets, x, inv_root, rows, cols = _lagrange_solve(field, partition)
    coeff = (mu @ x).reshape(inv_root.shape) * inv_root
    projected = sfft.dstn(coeff, type=1, norm="ortho")
    achieved = np.einsum("sk,sk->s", rows @ projected, cols)
    residual = float(np.max(np.abs(achieved - targets)))
    return ProjectionResult(
        projected_field=projected,
        coefficient_energy=_coefficient_energy(mu, targets, q),
        solver_residual=residual,
    )


def det_weight(coefficient_energy: float, c_prime: float) -> float:
    """log of the determinant reweighting factor, (c'/12) Sigma x_S^2."""
    return (c_prime / 12.0) * coefficient_energy


def weight_report(c: float, c_prime: float, coefficient_energy: float) -> WeightReport:
    return WeightReport(
        c=c,
        c_prime=c_prime,
        c_new=c + c_prime,
        Q_new=charge_to_params(c + c_prime).Q,
        log_weight=det_weight(coefficient_energy, c_prime),
    )


def density_ratio_check(c: float, c_prime: float, x: np.ndarray) -> float:
    """log[w(x) * base-density(x)] - log[target-density(x)].

    Per coordinate the base law is x ~ N(0, 1/Q^2) and the target is
    N(0, 1/Q_new^2); the result must not depend on x.
    """
    x = np.asarray(x, dtype=float)
    q = charge_to_params(c).Q
    q_new = charge_to_params(c + c_prime).Q
    log_base = float(np.sum(np.log(q / math.sqrt(TWO_PI)) - 0.5 * q**2 * x**2))
    log_target = float(np.sum(np.log(q_new / math.sqrt(TWO_PI)) - 0.5 * q_new**2 * x**2))
    return det_weight(float(np.sum(x**2)), c_prime) + log_base - log_target


def _pooled_chi_square(counts_a: np.ndarray, counts_b: np.ndarray,
                       n_a: float, n_b: float):
    """Two-sample chi-square on (possibly weighted) category counts with the
    given effective sample sizes; bins with pooled expectation < 5 merged."""
    p = counts_a / counts_a.sum()
    qq = counts_b / counts_b.sum()
    pool = (n_a * p + n_b * qq) / (n_a + n_b)
    order = np.argsort(-pool)
    p, qq, pool = p[order], qq[order], pool[order]
    # merge the tail of small bins into one
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


@dataclass(frozen=True)
class ExperimentReport:
    count_chi2: float
    count_p: float
    level_chi2: float
    level_p: float
    slice_chi2: float
    slice_p: float
    modal_count: int
    ess: float
    underpowered: bool
    mean_count_direct: float
    mean_count_weighted: float


def reweighting_experiment(grid_size: int, epsilon: float, c: float,
                           c_prime: float, n_samples: int, seed: int) -> ExperimentReport:
    """Compare the direct charge-(c+c') ensemble with the reweighted charge-c
    ensemble on subdivision statistics."""
    if n_samples < 1000:
        raise ValueError("need at least 10^3 samples")
    if n_samples > 500_000:
        raise ValueError("at most 5*10^5 samples: protocol A and B seeds would overlap")
    if c > 1.0 or c + c_prime > 1.0:
        raise ValueError("both charges must be <= 1 for finite subdivisions")
    params = charge_to_params(c)
    params_new = charge_to_params(c + c_prime)

    max_level = gff._check_size(grid_size)
    direct_counts = {}
    direct_levels = np.zeros(max_level + 1)
    rows_a = []  # (count, level-vector)
    rows_b = []  # (count, level-vector, weight)
    for i in range(n_samples):
        # protocol A: direct sampling at the target charge
        h = gff.sample_dgff(grid_size, seed * 1_000_000 + i)
        part = subdivide(h, params_new.Q, epsilon)
        direct_counts[len(part)] = direct_counts.get(len(part), 0) + 1
        lva = np.zeros(max_level + 1)
        for lvl, cnt in part.level_histogram().items():
            lva[lvl] = cnt
        direct_levels += lva
        rows_a.append((len(part), lva))
        # protocol B: base charge plus determinant weight
        h2 = gff.sample_dgff(grid_size, seed * 1_000_000 + 500_000 + i)
        part2 = subdivide(h2, params.Q, epsilon)
        energy = _projection_energy(h2, part2, params.Q)
        # full importance weight between the finite-dimensional laws:
        # the coefficient factor e^{(c'/12) sum x^2} times the per-coordinate
        # normalization (Q_new/Q)^n, cf. the constant density_ratio_check
        # reports; without the n-term only fixed-dimension slices match
        logw = det_weight(energy, c_prime) \
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
    count_chi2, count_p = _pooled_chi_square(ca, cb, n_samples, ess)

    levels_b = np.sum([r[1] * wi for r, wi in zip(rows_b, w)], axis=0)
    nz = (direct_levels + levels_b) > 0
    level_chi2, level_p = _pooled_chi_square(direct_levels[nz], levels_b[nz],
                                             n_samples, ess)

    modal = max(direct_counts, key=direct_counts.get)
    sel = counts_b == modal
    slice_w = w[sel]
    slice_levels = np.sum([r[1] * wi for r, wi, s in
                           zip(rows_b, w, sel) if s], axis=0) \
        if sel.any() else np.zeros(max_level + 1)
    direct_slice_levels = np.zeros(max_level + 1)
    for cnt_a, lva in rows_a:
        if cnt_a == modal:
            direct_slice_levels += lva
    n_slice_a = direct_counts.get(modal, 0)
    ess_slice = float(slice_w.sum() ** 2 / np.sum(slice_w**2)) if sel.any() else 0.0
    nz = (direct_slice_levels + slice_levels) > 0
    slice_chi2, slice_p = _pooled_chi_square(
        direct_slice_levels[nz], slice_levels[nz], n_slice_a, ess_slice)

    mean_direct = float(np.sum([k * v for k, v in direct_counts.items()]) / n_samples)
    mean_weighted = float(np.sum(w * counts_b) / w.sum())
    return ExperimentReport(
        count_chi2=count_chi2, count_p=count_p,
        level_chi2=level_chi2, level_p=level_p,
        slice_chi2=slice_chi2, slice_p=slice_p,
        modal_count=int(modal), ess=ess,
        underpowered=bool(ess < 50),
        mean_count_direct=mean_direct,
        mean_count_weighted=mean_weighted,
    )
