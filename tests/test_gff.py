import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft

from loopzeta import gff


def reference_sample(size, seed):
    """The row-by-row sampler: scale the mode coefficients one row at a
    time, then assemble the prefix sums one row at a time."""
    rng = np.random.Generator(np.random.Philox(seed))
    coeff = rng.standard_normal((size - 1, size - 1))
    lam1 = gff._mode_eigenvalues(size)
    for r in range(size - 1):
        coeff[r] *= np.sqrt(gff.TWO_PI / (lam1[r] + lam1))
    values = sfft.dstn(coeff, type=1, norm="ortho", overwrite_x=True)
    prefix = np.zeros((size + 1, size + 1))
    prev_sites = np.zeros(size + 1)
    row_sites = np.zeros(size + 1)
    for r in range(size):
        if r < size - 1:
            row_sites[1:-1] = values[r]
        else:
            row_sites[:] = 0.0
        cells = 0.25 * (prev_sites[:-1] + prev_sites[1:]
                        + row_sites[:-1] + row_sites[1:])
        np.cumsum(cells, out=prefix[r + 1, 1:])
        prefix[r + 1, 1:] += prefix[r, 1:]
        prev_sites, row_sites = row_sites, prev_sites
    return values, prefix


@pytest.mark.parametrize("size", [16, 32, 64, 128, 256, 512, 1024, 2048])
def test_sample_matches_row_loop_reference(size):
    # the row blocks do not divide these sizes evenly from 512 up
    # (63 rows at 512, 31 at 1024, 15 at 2048)
    assert size < 512 or size % gff._row_blocks(size, size)[0].stop
    seeds = (0, 1, 2**40 + 3) if size >= 1024 else (0, 1, 7, 99, 2**40 + 3)
    for seed in seeds:
        field = gff.sample_dgff(size, seed)
        values, prefix = reference_sample(size, seed)
        assert np.array_equal(field.values, values)
        assert np.array_equal(field.prefix, prefix)
        assert field.prefix.tobytes() == prefix.tobytes()


def test_size_validation():
    for bad in (0, 3, 24, 8, 2**14):
        if bad == 8:
            continue
        with pytest.raises(ValueError):
            gff.sample_dgff(bad, 0)
    with pytest.raises(ValueError):
        gff.sample_dgff(8, 0)  # k = 3 below the supported range
    field = gff.sample_dgff(16, 0)
    assert field.level == 4
    assert field.values.shape == (15, 15)


def test_determinism():
    a = gff.sample_dgff(32, 123)
    b = gff.sample_dgff(32, 123)
    c = gff.sample_dgff(32, 124)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_prefix_sums_match_direct_averages():
    rng = np.random.default_rng(3)
    field = gff.field_from_values(rng.standard_normal((15, 15)))
    full = field.padded()
    cells = 0.25 * (full[:-1, :-1] + full[1:, :-1] + full[:-1, 1:] + full[1:, 1:])
    for level in (0, 1, 2, 4):
        w = 16 >> level
        for i in range(1 << level):
            for j in range(1 << level):
                direct = cells[i * w:(i + 1) * w, j * w:(j + 1) * w].mean()
                fast = gff.square_average(field, level, i, j)
                assert fast == pytest.approx(direct, abs=1e-12)


def test_square_average_guards():
    field = gff.sample_dgff(16, 0)
    with pytest.raises(ValueError, match="resolution exhausted"):
        gff.square_average(field, 5, 0, 0)
    with pytest.raises(ValueError):
        gff.square_average(field, 2, 4, 0)
    for level in (-1, -64):
        with pytest.raises(ValueError, match="square outside the unit square"):
            gff.square_average(field, level, 0, 0)


def test_point_variance_matches_green_oracle():
    size, m = 16, 3000
    green = gff.green_oracle(size)
    center = (7, 7)
    target = green[center[0] * 15 + center[1], center[0] * 15 + center[1]]
    vals = np.array([gff.sample_dgff(size, 70_000 + i).values[center]
                     for i in range(m)])
    sq = vals**2
    se = sq.std(ddof=1) / math.sqrt(m)
    assert abs(sq.mean() - target) < 5 * se


def test_green_oracle_scaling():
    # the scaled Green function at the center grows like log N plus a constant
    g16 = gff.green_oracle(16)[7 * 15 + 7, 7 * 15 + 7]
    g32 = gff.green_oracle(32)[15 * 31 + 15, 15 * 31 + 15]
    assert g32 - g16 == pytest.approx(math.log(2.0), abs=0.02)
    with pytest.raises(ValueError):
        gff.green_oracle(64)


def test_poisson_solve_inverts_laplacian():
    size = 16
    rng = np.random.default_rng(11)
    rhs = rng.standard_normal((size - 1, size - 1))
    u = gff.poisson_solve(size, rhs)
    green = gff.green_oracle(size) / gff.TWO_PI
    expect = (green @ rhs.ravel()).reshape(size - 1, size - 1)
    assert np.allclose(u, expect, atol=1e-10)


def test_dirichlet_energy_expectation():
    # each of the (N-1)^2 modes contributes 1 on average in the
    # (2 pi)^-1-normalized energy
    size, m = 32, 60
    energies = [gff.dirichlet_energy(gff.sample_dgff(size, 900 + i))
                for i in range(m)]
    n_modes = (size - 1) ** 2
    se = np.std(energies, ddof=1) / math.sqrt(m)
    assert abs(np.mean(energies) - n_modes) < 5 * se


def test_field_io_round_trip(tmp_path):
    field = gff.sample_dgff(64, 5)
    path = tmp_path / "field.bin"
    gff.write_field(field, path)
    back = gff.read_field(path)
    assert back.size == 64 and back.seed == 5
    assert np.array_equal(back.values, field.values)
    assert np.array_equal(back.prefix, field.prefix)
    path.write_bytes(b"XXXX" + b"\0" * 12)
    with pytest.raises(ValueError, match="magic"):
        gff.read_field(path)
    header = b"LZGF" + struct.pack("<iq", 6, 5)
    payload = field.values.astype("<f8").tobytes()
    bad_files = [
        (b"LZGF" + b"\0" * 4, "header is 8 bytes"),
        (b"LZGF" + struct.pack("<iq", 2, 5), "size must be 2\\^k"),
        (b"LZGF" + struct.pack("<iq", 40, 5), "size must be 2\\^k"),
        (b"LZGF" + struct.pack("<iq", -1, 5), "size must be 2\\^k"),
        (header + payload[:-8], "payload is 31744 bytes, expected 31752"),
        (header + payload + b"\0", "payload is 31753 bytes"),
    ]
    for data, message in bad_files:
        path.write_bytes(data)
        with pytest.raises(ValueError, match=message):
            gff.read_field(path)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.binary(max_size=64),
    st.builds(lambda k, seed, tail: b"LZGF" + struct.pack("<iq", k, seed) + tail,
              st.integers(-2**31, 2**31 - 1), st.integers(-2**63, 2**63 - 1),
              st.binary(max_size=64)),
    st.builds(lambda seed, extra: b"LZGF" + struct.pack("<iq", 4, seed)
              + bytes(8 * 225 + extra),
              st.integers(0, 9), st.integers(-9, 9)),
))
def test_read_field_bytes_parse_or_value_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "arbitrary_field.bin"
    path.write_bytes(data)
    try:
        field = gff.read_field(path)
    except ValueError:
        return
    assert field.size == 16 and field.values.shape == (15, 15)


def test_field_from_values_validation():
    with pytest.raises(ValueError):
        gff.field_from_values(np.zeros((15, 14)))
    with pytest.raises(ValueError):
        gff.field_from_values(np.zeros((10, 10)))  # 11 is not a power of two
    for bad in (1.0, np.zeros(15), np.zeros((15, 15, 1))):
        with pytest.raises(ValueError, match="square"):
            gff.field_from_values(bad)
    for bad in (math.nan, math.inf, -math.inf):
        values = np.zeros((15, 15))
        values[3, 4] = bad
        with pytest.raises(ValueError, match="1 non-finite"):
            gff.field_from_values(values)


def test_read_field_rejects_non_finite_values(tmp_path):
    path = tmp_path / "field.bin"
    for bad in (math.nan, math.inf, -math.inf):
        values = np.zeros((15, 15))
        values[0, 0] = values[14, 14] = bad
        path.write_bytes(b"LZGF" + struct.pack("<iq", 4, 0)
                         + values.astype("<f8").tobytes())
        with pytest.raises(ValueError, match="2 non-finite"):
            gff.read_field(path)
