"""Discrete Gaussian free field on a dyadic grid with Dirichlet boundary.

The field lives on the interior sites of an (N+1) x (N+1) lattice over the
unit square, N = 2^k, and is sampled spectrally in the sine eigenbasis of the
five-point Laplacian. Coefficient variances are chosen so that the field's
covariance is 2*pi times the inverse grid Laplacian; equivalently each mode
coefficient is a standard Gaussian in the Dirichlet inner product normalized
by (2*pi)^-1.

A field holds its values; the prefix sums behind its square averages are
built the first time an average is asked for, so sampling, writing or
reading a field costs one (size-1)^2 array. Its per-row work and the
averages past level 8 go one memory block at a time (`_blocks`).
"""

from __future__ import annotations

import functools
import operator
import struct
from dataclasses import dataclass

import numpy as np
import scipy

from . import _blocks
from .graphs import graph_laplacian, grid_graph

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


def _per_size(build):
    """Decorator: `build(size)` is computed once per size and kept read-only
    for a field that fits one row block, and afresh on every call above it."""
    @functools.cache
    def cached(size):
        table = build(size)
        table.flags.writeable = False
        return table

    @functools.wraps(build)
    def table(size):
        return cached(size) if _fits_one_block(size) else build(size)
    return table


@_per_size
def _mode_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues 4 sin^2(pi m / 2n), m = 1..n-1, of the Dirichlet second
    difference on the n-1 interior sites of n cells. The five-point
    Laplacian's eigenvalue of sine mode (j, k) is lam[j] + lam[k]."""
    m = np.arange(1, n)
    return 4.0 * np.sin(np.pi * m / (2 * n)) ** 2


@dataclass(frozen=True, eq=False)
class GridField:
    """Sampled field values on the (size-1) x (size-1) interior sites. Their
    prefix sums, for O(1) rectangle averages, are built the first time an
    average is asked for, so a field that is only sampled, written or read
    never holds them. A field is equal only to itself, and hashable."""

    size: int
    seed: int
    values: np.ndarray

    @property
    def level(self) -> int:
        return self.size.bit_length() - 1

    def padded(self) -> np.ndarray:
        """Values on the full (size+1) x (size+1) lattice, zero on boundary."""
        full = np.zeros((self.size + 1, self.size + 1))
        full[1:-1, 1:-1] = self.values
        return full

    @functools.cached_property
    def prefix(self) -> np.ndarray:
        """(size+1) x (size+1) prefix sums of the cell values, built once per
        field on first use."""
        return _prefix_sums(self.size, self.values)


def _row_width(size: int) -> int:
    """A grid row's size + 1 floats, counted twice for two temporaries of it."""
    return 2 * (size + 1)


def _fits_one_block(size: int) -> bool:
    """Whether a field of this size fits one row block (sizes up to 128).
    Such a field does its per-row work in one call and takes its mode tables
    from `_per_size`; a larger one keeps the row blocks, so no table of its
    size is held."""
    return len(_blocks.row_blocks(size, _row_width(size))) == 1


def _prefix_sums(size: int, values: np.ndarray) -> np.ndarray:
    # built for `GridField.prefix` the first time the field is averaged.
    # cell values = mean of the four corner sites, so square averages of
    # cells and squares of sites agree up to the same quadrature choice.
    # One row block at a time, the cells are summed from a zero-bordered
    # copy of the block's site rows straight into their prefix rows and
    # summed along each row there, so the peak is values + prefix + one
    # block; then each row's sums are carried down the columns. A field that
    # fits one row block carries them in one cumsum, which adds in the same
    # order as the row loop, at half its time on 128^2; a larger one keeps
    # the loop, since cumsum along axis 0 runs column-inner over strided
    # rows there and took 5x the loop's time on 4096^2.
    prefix = np.zeros((size + 1, size + 1))
    for rows in _blocks.row_blocks(size, _row_width(size)):
        sites = np.zeros((rows.stop - rows.start + 1, size + 1))
        lo, hi = max(rows.start, 1), min(rows.stop, size - 1)
        sites[lo - rows.start:hi - rows.start + 1, 1:-1] = values[lo - 1:hi]
        cells = prefix[rows.start + 1:rows.stop + 1, 1:]
        np.add(sites[:-1, :-1], sites[:-1, 1:], out=cells)
        cells += sites[1:, :-1]
        cells += sites[1:, 1:]
        cells *= 0.25
        np.cumsum(cells, axis=1, out=cells)
    if _fits_one_block(size):
        np.cumsum(prefix, axis=0, out=prefix)
    else:
        for r in range(1, size + 1):
            np.add(prefix[r], prefix[r - 1], out=prefix[r])
    return prefix


@_per_size
def _coefficient_scale(size: int) -> np.ndarray:
    """sqrt(2 pi / (lam[j] + lam[k])), the standard deviation of sine mode
    (j, k)'s coefficient, for a field that fits one row block; `sample_dgff`
    scales a larger field one row block at a time."""
    lam1 = _mode_eigenvalues(size)
    return np.sqrt(TWO_PI / (lam1[:, None] + lam1))


def sample_dgff(size: int, seed: int) -> GridField:
    """Sample the Dirichlet DGFF by an orthonormal DST-I mode expansion."""
    _check_size(size)
    rng = np.random.Generator(np.random.Philox(seed))
    coeff = rng.standard_normal((size - 1, size - 1))
    if _fits_one_block(size):
        coeff *= _coefficient_scale(size)
    else:
        lam1 = _mode_eigenvalues(size)
        for rows in _blocks.row_blocks(size - 1, _row_width(size)):
            coeff[rows] *= np.sqrt(TWO_PI / (lam1[rows, None] + lam1))
    values = scipy.fft.dstn(coeff, type=1, norm="ortho", overwrite_x=True)
    del coeff
    return GridField(size=size, seed=seed, values=values)


def field_from_values(values: np.ndarray, seed: int = -1) -> GridField:
    """Wrap explicit interior values (tests, projections) as a GridField."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError("values must be square")
    n = values.shape[0] + 1
    _check_size(n)
    _check_finite(values)
    return GridField(size=n, seed=seed, values=values)


def _square_averages(field: GridField, level: int, ii: np.ndarray,
                     jj: np.ndarray) -> np.ndarray:
    """Vectorized averages over the squares (level, ii, jj) from the prefix
    sums over grid cells. Beyond the output, only temporaries of one block
    of squares (`_blocks.row_blocks`, one float a square) are allocated.

    When at least a quarter of a level's 4^level squares are asked for and
    the whole level fits one block (levels up to 8), it is computed from
    strided views of the prefix sums and then gathered, which is cheaper
    than four gathers per square. Otherwise the output is filled one block
    of squares at a time from four flat reads of the prefix sums per square.
    Both routes do the same arithmetic in the same order, so they agree
    bit for bit.
    """
    k = field.level
    if level > k:
        raise ValueError("resolution exhausted: square finer than the grid")
    w = 1 << (k - level)
    p = field.prefix
    if 4 * len(ii) >= 1 << 2 * level and 1 << 2 * level <= _blocks.BLOCK:
        avg = p[w::w, w::w] - p[:-w:w, w::w]
        avg -= p[w::w, :-w:w]
        avg += p[:-w:w, :-w:w]
        avg /= w * w
        return avg.ravel()[ii * (1 << level) + jj]
    # square (i, j) has its corner (r, c) = (i w, j w) at r * down + c of
    # the flat prefix sums, and its other corners w, w * down and
    # w * down + w further on
    down = field.size + 1
    flat = p.ravel()
    out = np.empty(len(ii))
    for block in _blocks.row_blocks(len(ii), 1):
        corner = ii[block] * np.intp(w * down) + jj[block] * np.intp(w)
        avg = out[block]
        np.take(flat, corner + (w * down + w), out=avg)
        avg -= flat.take(corner + w)
        avg -= flat.take(corner + w * down)
        avg += flat.take(corner)
        avg /= w * w
    return out


def _square_index(x) -> int:
    """A dyadic level or coordinate: any integer type but bool; a float, even
    an integral one, is refused rather than truncated."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError("square level and coordinates must be integers, got %r" % (x,))


def square_average(field: GridField, level: int, i: int, j: int) -> float:
    """Mean of the field over the dyadic square [i,i+1]x[j,j+1] / 2^level."""
    level, i, j = _square_index(level), _square_index(i), _square_index(j)
    if level < 0 or not (0 <= i < 1 << level and 0 <= j < 1 << level):
        raise ValueError("square outside the unit square")
    return float(_square_averages(field, level, np.array([i]), np.array([j]))[0])


def dirichlet_energy(field: GridField) -> float:
    """(2 pi)^-1-normalized discrete Dirichlet energy of the field: the
    squared differences along every edge of the lattice, zero on the
    boundary. One row block at a time, a zero-bordered copy of the lattice
    rows start .. stop gives the differences down from rows start .. stop - 1
    and those along rows start + 1 .. stop, so the peak is one block."""
    size, values = field.size, field.values
    total = 0.0
    for rows in _blocks.row_blocks(size, _row_width(size)):
        sites = np.zeros((rows.stop - rows.start + 1, size + 1))
        lo, hi = max(rows.start, 1), min(rows.stop, size - 1)
        sites[lo - rows.start:hi - rows.start + 1, 1:-1] = values[lo - 1:hi]
        diff = np.diff(sites, axis=0)
        total += np.sum(np.square(diff, out=diff))
        del diff
        diff = np.diff(sites[1:], axis=1)
        total += np.sum(np.square(diff, out=diff))
        del sites, diff  # before the next block's copy
    return float(total / TWO_PI)


def variance(field: GridField) -> float:
    """The variance of the field's values, their mean square deviation from
    their mean, one row block at a time."""
    values = field.values
    blocks = _blocks.row_blocks(len(values), _row_width(field.size))
    mean = sum(float(values[rows].sum()) for rows in blocks) / values.size
    total = 0.0
    for rows in blocks:
        deviation = values[rows] - mean
        total += float(np.sum(np.square(deviation, out=deviation)))
    return total / values.size


def green_oracle(size: int) -> np.ndarray:
    """Dense normalization-scaled Green matrix 2*pi*(grid Laplacian)^-1 on the
    interior sites, row-major; small sizes only (validation use)."""
    if size > 32:
        raise ValueError("green_oracle is budgeted for size <= 32")
    _check_size(size)
    g = grid_graph(size - 1)
    interior = g.interior
    return TWO_PI * np.linalg.inv(graph_laplacian(g)[np.ix_(interior, interior)])


def write_field(field: GridField, path) -> None:
    """Dump: 16-byte header (magic, k, seed) then row-major little-endian
    float64 interior values, to a path or to an open binary file."""
    if not hasattr(path, "write"):
        with open(path, "wb") as fh:
            return write_field(field, fh)
    path.write(_MAGIC + struct.pack("<iq", field.level, field.seed))
    path.write(np.ascontiguousarray(field.values, "<f8"))


def read_field(path) -> GridField:
    """Load a field written by `write_field`; a malformed file raises
    ValueError naming what is wrong."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise ValueError("field file header is %d bytes, expected 16" % len(header))
        if header[:4] != _MAGIC:
            raise ValueError("bad field file magic")
        k, seed = struct.unpack("<iq", header[4:16])
        n = 1 << k if 0 <= k < 64 else 0  # bound the shift before checking
        _check_size(n)
        # the payload is read straight into the field's array; a short one
        # stops at the end of the file, and the rest counts a long one
        values = np.empty((n - 1, n - 1), dtype="<f8")
        payload = fh.readinto(values) + len(fh.read())
    if payload != values.nbytes:
        raise ValueError("field file payload is %d bytes, expected %d for size %d"
                         % (payload, values.nbytes, n))
    _check_finite(values)
    return GridField(size=n, seed=int(seed), values=values)
