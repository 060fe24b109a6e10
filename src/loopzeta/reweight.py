"""Central-charge reweighting: projections, determinant weights, experiments.

The projection of a field onto a square partition is the minimal-Dirichlet-
energy interpolant of its square averages; its normalized coefficient energy
Sigma x_S^2 drives the determinant weight e^{(c'/12) Sigma x^2}, under which
the charge-c ensemble becomes the charge-(c + c') ensemble.

The projection is solved in the sine-mode basis that diagonalizes the
Dirichlet five-point Laplacian (orthonormal DST-I). A square's average is a
separable functional of the sites, so its mode coefficients are an outer
product of two 1-D transforms, and the Schur complement over the squares is
one matrix product. Between calls only the mode tables of a field that fits
one row block are kept (`gff._per_size`), read-only, once per size: its
eigenvalues and 1/sqrt(lambda). A larger field's table is built per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from . import gff
from .gff import GridField, TWO_PI
from .subdivision import DyadicPartition, charge_to_params, subdivide


@dataclass(frozen=True)
class ProjectionResult:
    projected_field: np.ndarray
    coefficient_energy: float
    solver_residual: float


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


@gff._per_size
def _inverse_root(size: int) -> np.ndarray:
    """1/sqrt(lambda) of every sine mode (j, k), lambda = lam[j] + lam[k]."""
    lam1 = gff._mode_eigenvalues(size)
    return 1.0 / np.sqrt(lam1[:, None] + lam1[None, :])


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
    inv_root = _inverse_root(size)
    rows_hat = scipy.fft.dst(rows, type=1, norm="ortho", axis=1)
    cols_hat = scipy.fft.dst(cols, type=1, norm="ortho", axis=1)
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
    # Python floats: a tiny q's square underflows to 0, or the quotient
    # overflows to inf
    energy = _coefficient_energy(mu, targets, q) if q**2 > 0 else math.inf
    if not math.isfinite(energy):
        raise ValueError("coefficient energy over q^2 is past the float64 range"
                         " at q = %g" % q)
    coeff = (mu @ x).reshape(inv_root.shape) * inv_root
    projected = scipy.fft.dstn(coeff, type=1, norm="ortho")
    achieved = np.einsum("sk,sk->s", rows @ projected, cols)
    residual = float(np.max(np.abs(achieved - targets)))
    return ProjectionResult(
        projected_field=projected,
        coefficient_energy=energy,
        solver_residual=residual,
    )


# least relative accuracy of a `density_ratio_check` result: 8 correct digits
_RATIO_RTOL = 1e-8


def det_weight(coefficient_energy: float, c_prime: float) -> float:
    """log of the determinant reweighting factor, (c'/12) Sigma x_S^2."""
    return (c_prime / 12.0) * coefficient_energy


def density_ratio_check(c: float, c_prime: float, x: np.ndarray) -> float:
    """log[w(x) * base-density(x)] - log[target-density(x)].

    Per coordinate the base law is x ~ N(0, 1/Q^2) and the target is
    N(0, 1/Q_new^2); the result must not depend on x. ValueError unless x
    is finite with its sum of squares, times Q^2 and Q_new^2, in the float
    range, and where the cancellation leaves fewer than 8 correct digits
    (relative error `_RATIO_RTOL`): the weight (c'/12) x^2 and log base -
    log target cancel to n log(Q / Q_new), and the result's rounding error
    is taken as 2 eps times the sum of the sizes of the weight and of both
    log densities (about 1e-8 of the result at c' = -1e8, x = [3]).  At
    c' = 0 the result is an exact 0.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        energy = float(np.sum(x**2))
    if not math.isfinite(energy):
        raise ValueError("x must be finite, with its sum of squares in the float range")
    q = charge_to_params(c).Q
    q_new = charge_to_params(c + c_prime).Q
    if not math.isfinite(max(q, q_new) ** 2 * energy):
        raise ValueError("charges c = %g and c' = %g put Q^2 x^2 past the float64"
                         " range" % (c, c_prime))
    log_base = float(np.sum(np.log(q / math.sqrt(TWO_PI)) - 0.5 * q**2 * x**2))
    log_target = float(np.sum(np.log(q_new / math.sqrt(TWO_PI)) - 0.5 * q_new**2 * x**2))
    weight = det_weight(energy, c_prime)
    ratio = weight + log_base - log_target
    # the terms cancel to n log(Q / Q_new), keeping their rounding error and
    # that of Q_new^2 in log_target, even where Q_new rounds to Q
    error = 2.0 * np.finfo(float).eps * (abs(weight) + abs(log_base) + abs(log_target))
    if c_prime != 0 and not error <= _RATIO_RTOL * abs(ratio):
        raise ValueError("c' = %g: the weight (c'/12) x^2 = %g and the log-density"
                         " difference cancel to fewer than 8 correct digits"
                         % (c_prime, weight))
    return ratio


def _pooled_chi_square(counts_a: np.ndarray, counts_b: np.ndarray,
                       n_a: float, n_b: float):
    """Two-sample chi-square on (possibly weighted) category counts with the
    given effective sample sizes; bins with pooled expectation < 5 merged.
    nan, nan when a side has no mass: there is nothing to compare."""
    if not (counts_a.sum() > 0 and counts_b.sum() > 0):
        return math.nan, math.nan
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
    return stat, float(scipy.special.chdtrc(dof, stat))


def _ess(w: np.ndarray) -> float:
    """Effective sample size (sum w)^2 / sum w^2 of the weights w; 0 for none
    or all zero. Weights whose squares underflow are first scaled to max 1."""
    square_sum = np.sum(w**2)
    if square_sum >= np.finfo(float).tiny:
        return float(w.sum() ** 2 / square_sum)
    top = w.max() if len(w) else 0.0
    return _ess(w / top) if top > 0 else 0.0


def _level_test(levels_a: np.ndarray, levels_b: np.ndarray, w: np.ndarray):
    """Pooled chi-square of the summed level histograms, one row per sample,
    of the direct levels_a against levels_b weighted by w, on levels reached."""
    direct = levels_a.sum(axis=0)
    weighted = (levels_b * w[:, None]).sum(axis=0)
    nz = (direct + weighted) > 0
    return _pooled_chi_square(direct[nz], weighted[nz], len(levels_a), _ess(w))


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
    # per sample: square count, level histogram and (protocol B) log-weight
    counts_a = np.empty(n_samples, dtype=np.int64)
    counts_b = np.empty(n_samples, dtype=np.int64)
    levels_a = np.empty((n_samples, max_level + 1))
    levels_b = np.empty((n_samples, max_level + 1))
    logw = np.empty(n_samples)
    for i in range(n_samples):
        # protocol A: direct sampling at the target charge
        h = gff.sample_dgff(grid_size, seed * 1_000_000 + i)
        part = subdivide(h, params_new.Q, epsilon)
        counts_a[i] = len(part)
        levels_a[i] = np.bincount(part._levels, minlength=max_level + 1)
        # protocol B: base charge plus determinant weight
        h2 = gff.sample_dgff(grid_size, seed * 1_000_000 + 500_000 + i)
        part2 = subdivide(h2, params.Q, epsilon)
        energy = _projection_energy(h2, part2, params.Q)
        counts_b[i] = len(part2)
        levels_b[i] = np.bincount(part2._levels, minlength=max_level + 1)
        # full importance weight between the finite-dimensional laws:
        # the coefficient factor e^{(c'/12) sum x^2} times the per-coordinate
        # normalization (Q_new/Q)^n, cf. the constant density_ratio_check
        # reports; without the n-term only fixed-dimension slices match
        logw[i] = det_weight(energy, c_prime) \
            + len(part2) * math.log(params_new.Q / params.Q)

    w = np.exp(logw - logw.max())
    ess = _ess(w)

    all_counts = np.union1d(counts_a, counts_b)
    ca = np.array([np.sum(counts_a == k) for k in all_counts], dtype=float)
    cb = np.array([np.sum(w[counts_b == k]) for k in all_counts])
    count_chi2, count_p = _pooled_chi_square(ca, cb, n_samples, ess)

    level_chi2, level_p = _level_test(levels_a, levels_b, w)

    # the most frequent direct count; ties go to the one seen first
    values, first, freq = np.unique(counts_a, return_index=True, return_counts=True)
    seen = np.argsort(first)
    modal = values[seen[np.argmax(freq[seen])]]
    in_a, sel = counts_a == modal, counts_b == modal
    slice_chi2, slice_p = _level_test(levels_a[in_a], levels_b[sel], w[sel])

    mean_direct = float(counts_a.sum() / n_samples)
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
