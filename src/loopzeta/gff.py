"""Discrete Gaussian free field on a dyadic grid with Dirichlet boundary.

The field lives on the interior sites of an (N+1) x (N+1) lattice over the
unit square, N = 2^k, and is sampled spectrally in the sine eigenbasis of the
five-point Laplacian. Coefficient variances are chosen so that the field's
covariance is 2*pi times the inverse grid Laplacian; equivalently each mode
coefficient is a standard Gaussian in the Dirichlet inner product normalized
by (2*pi)^-1.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

TWO_PI = 2.0 * np.pi
_MAGIC = b"LZGF"


def _check_size(size: int) -> int:
    k = int(size).bit_length() - 1
    if not 4 <= k <= 13 or size != 1 << k:
        raise ValueError("size must be 2^k with k in [4, 13]")
    return k


def _check_finite(values: np.ndarray) -> None:
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise ValueError("field has %d non-finite values" % bad)


def _mode_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues 4 sin^2(pi m / 2n), m = 1..n-1, of the Dirichlet second
    difference on the n-1 interior sites of n cells. The five-point
    Laplacian's eigenvalue of sine mode (j, k) is lam[j] + lam[k]."""
    m = np.arange(1, n)
    return 4.0 * np.sin(np.pi * m / (2 * n)) ** 2


@dataclass(frozen=True)
class GridField:
    """Sampled field values on the (size-1) x (size-1) interior sites,
    together with prefix sums for O(1) rectangle averages."""

    size: int
    seed: int
    values: np.ndarray
    prefix: np.ndarray
    normalization: float = TWO_PI

    @property
    def level(self) -> int:
        return self.size.bit_length() - 1

    def padded(self) -> np.ndarray:
        """Values on the full (size+1) x (size+1) lattice, zero on boundary."""
        full = np.zeros((self.size + 1, self.size + 1))
        full[1:-1, 1:-1] = self.values
        return full


def _row_blocks(rows: int, size: int):
    """Slices of about 2^15 elements (256 KB of floats) over `rows` rows of a
    grid of this size: large enough that each block is a few array calls,
    small enough that a 4096^2 field's peak memory is that of its arrays."""
    step = max(1, (1 << 15) // (size + 1))
    return [slice(r, min(r + step, rows)) for r in range(0, rows, step)]


def _build(size: int, seed: int, values: np.ndarray) -> GridField:
    # cell values = mean of the four corner sites, so square averages of
    # cells and squares of sites agree up to the same quadrature choice.
    # One row block at a time, the cells are summed from a zero-bordered
    # copy of the block's site rows straight into their prefix rows and
    # summed along each row there, so the peak is values + prefix + one
    # block; then each row's sums are carried down the columns.
    prefix = np.zeros((size + 1, size + 1))
    for rows in _row_blocks(size, size):
        sites = np.zeros((rows.stop - rows.start + 1, size + 1))
        lo, hi = max(rows.start, 1), min(rows.stop, size - 1)
        sites[lo - rows.start:hi - rows.start + 1, 1:-1] = values[lo - 1:hi]
        cells = prefix[rows.start + 1:rows.stop + 1, 1:]
        np.add(sites[:-1, :-1], sites[:-1, 1:], out=cells)
        cells += sites[1:, :-1]
        cells += sites[1:, 1:]
        cells *= 0.25
        np.cumsum(cells, axis=1, out=cells)
    for r in range(1, size + 1):
        np.add(prefix[r], prefix[r - 1], out=prefix[r])
    return GridField(size=size, seed=seed, values=values, prefix=prefix)


def sample_dgff(size: int, seed: int) -> GridField:
    """Sample the Dirichlet DGFF by an orthonormal DST-I mode expansion."""
    _check_size(size)
    rng = np.random.Generator(np.random.Philox(seed))
    coeff = rng.standard_normal((size - 1, size - 1))
    lam1 = _mode_eigenvalues(size)
    for rows in _row_blocks(size - 1, size):
        coeff[rows] *= np.sqrt(TWO_PI / (lam1[rows, None] + lam1))
    values = sfft.dstn(coeff, type=1, norm="ortho", overwrite_x=True)
    del coeff
    return _build(size, seed, values)


def field_from_values(values: np.ndarray, seed: int = -1) -> GridField:
    """Wrap explicit interior values (tests, projections) as a GridField."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError("values must be square")
    n = values.shape[0] + 1
    _check_size(n)
    _check_finite(values)
    return _build(n, seed, values)


def _square_averages(field: GridField, level: int, ii: np.ndarray,
                     jj: np.ndarray) -> np.ndarray:
    """Vectorized averages over the squares (level, ii, jj) from the prefix
    sums over grid cells.

    When at least a quarter of the level's 4^level squares are asked for,
    the whole level is computed from strided views of the prefix sums and
    then gathered, which is cheaper than four scattered gathers per square
    and allocates one level-sized array instead of several per-square ones.
    Both routes do the same arithmetic in the same order.
    """
    k = field.level
    if level > k:
        raise ValueError("resolution exhausted: square finer than the grid")
    w = 1 << (k - level)
    p = field.prefix
    if 4 * len(ii) >= 1 << 2 * level:
        avg = p[w::w, w::w] - p[:-w:w, w::w]
        avg -= p[w::w, :-w:w]
        avg += p[:-w:w, :-w:w]
        avg /= w * w
        return avg.ravel()[ii * (1 << level) + jj]
    r0, c0 = ii * w, jj * w
    return (p[r0 + w, c0 + w] - p[r0, c0 + w] - p[r0 + w, c0] + p[r0, c0]) / (w * w)


def square_average(field: GridField, level: int, i: int, j: int) -> float:
    """Mean of the field over the dyadic square [i,i+1]x[j,j+1] / 2^level."""
    if level < 0 or not (0 <= i < 1 << level and 0 <= j < 1 << level):
        raise ValueError("square outside the unit square")
    return float(_square_averages(field, level, np.array([i]), np.array([j]))[0])


def dirichlet_energy(field: GridField) -> float:
    """(2 pi)^-1-normalized discrete Dirichlet energy of the field."""
    full = field.padded()
    dx = np.diff(full, axis=0)
    dy = np.diff(full, axis=1)
    return float((np.sum(dx * dx) + np.sum(dy * dy)) / TWO_PI)


def green_oracle(size: int) -> np.ndarray:
    """Dense normalization-scaled Green matrix 2*pi*(grid Laplacian)^-1 on the
    interior sites; small sizes only (validation use)."""
    if size > 32:
        raise ValueError("green_oracle is budgeted for size <= 32")
    _check_size(size)
    n = size - 1
    lap = np.zeros((n * n, n * n))
    idx = lambda a, b: a * n + b
    for a in range(n):
        for b in range(n):
            lap[idx(a, b), idx(a, b)] = 4.0
            for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                aa, bb = a + da, b + db
                if 0 <= aa < n and 0 <= bb < n:
                    lap[idx(a, b), idx(aa, bb)] = -1.0
    return TWO_PI * np.linalg.inv(lap)


def poisson_solve(size: int, rhs: np.ndarray) -> np.ndarray:
    """Solve (grid Laplacian) u = rhs on the interior via DST-I
    diagonalization."""
    lam1 = _mode_eigenvalues(size)
    coeff = sfft.dstn(rhs, type=1, norm="ortho")
    return sfft.dstn(coeff / (lam1[:, None] + lam1[None, :]), type=1, norm="ortho")


def write_field(field: GridField, path) -> None:
    """Dump: 16-byte header (magic, k, seed) then row-major little-endian
    float64 interior values."""
    header = _MAGIC + struct.pack("<iq", field.level, field.seed)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(field.values.astype("<f8").tobytes())


def read_field(path) -> GridField:
    """Load a field written by `write_field`; a malformed file raises
    ValueError naming what is wrong."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        payload = fh.read()
    if len(header) < 16:
        raise ValueError("field file header is %d bytes, expected 16" % len(header))
    if header[:4] != _MAGIC:
        raise ValueError("bad field file magic")
    k, seed = struct.unpack("<iq", header[4:16])
    n = 1 << k if 0 <= k < 64 else 0  # bound the shift before checking
    _check_size(n)
    if len(payload) != 8 * (n - 1) ** 2:
        raise ValueError("field file payload is %d bytes, expected %d for size %d"
                         % (len(payload), 8 * (n - 1) ** 2, n))
    values = np.frombuffer(payload, dtype="<f8").reshape(n - 1, n - 1)
    _check_finite(values)
    return _build(n, int(seed), values.copy())
