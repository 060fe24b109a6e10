import io
import math
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft

from loopzeta import _blocks, gff


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


@pytest.mark.parametrize("size, block", [
    (16, None), (32, None), (64, None), (128, None), (256, None), (512, None),
    (1024, None), (2048, None), (16, 200), (32, 200)], indirect=["block"])
def test_sample_matches_row_loop_reference(size, block):
    # the row blocks do not divide these sizes evenly from 512 up
    # (63 rows at 512, 31 at 1024, 15 at 2048), nor those of 200 floats
    # (5 rows at 16, 3 at 32)
    step = _blocks.row_blocks(size, gff._row_width(size))[0].stop
    assert size < 512 <= block or size % step
    seeds = (0, 1, 2**40 + 3) if size >= 1024 else (0, 1, 7, 99, 2**40 + 3)
    for seed in seeds:
        field = gff.sample_dgff(size, seed)
        values, prefix = reference_sample(size, seed)
        assert np.array_equal(field.values, values)
        assert np.array_equal(field.prefix, prefix)
        assert field.prefix.tobytes() == prefix.tobytes()


def test_fields_are_equal_only_to_themselves_and_hashable():
    # the generated __eq__ compared the values arrays inside a tuple, which
    # raised "The truth value of an array ... is ambiguous", and set no hash
    a, b = gff.sample_dgff(16, 1), gff.sample_dgff(16, 1)
    assert a == a and a != b
    assert len({a, b, a}) == 2 and {a: 1, b: 2}[a] == 1


@pytest.mark.parametrize("size", [64, 256])
def test_fields_hold_no_prefix_until_the_first_average(tmp_path, size):
    # sampled, written, read or wrapped, a field builds its prefix sums
    # only when an average is asked for, and then the reference's bytes
    path = tmp_path / "field.bin"
    sampled = gff.sample_dgff(size, 3)
    gff.write_field(sampled, path)
    read = gff.read_field(path)
    wrapped = gff.field_from_values(sampled.values.copy(), seed=3)
    _, prefix = reference_sample(size, 3)
    for field in (sampled, read, wrapped):
        assert "prefix" not in vars(field)
        gff.dirichlet_energy(field)
        assert "prefix" not in vars(field)
        gff.square_average(field, 2, 1, 3)
        assert vars(field)["prefix"].tobytes() == prefix.tobytes()
        assert field.prefix is vars(field)["prefix"]


def test_mode_tables_are_cached_read_only_for_one_block_sizes():
    # sizes up to 128 fit one row block; 256 and up keep the row blocks
    assert [size for size in (1 << k for k in range(4, 14))
            if gff._fits_one_block(size)] == [16, 32, 64, 128]
    for table in (gff._mode_eigenvalues, gff._coefficient_scale):
        for size in (16, 128):
            first = table(size)
            assert table(size) is first and not first.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                first[0] = 1.0
        assert table(256) is not table(256) and table(256).flags.writeable
    lam1 = gff._mode_eigenvalues(64)
    assert np.array_equal(gff._coefficient_scale(64),
                          np.sqrt(gff.TWO_PI / (lam1[:, None] + lam1)))


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


def test_square_average_refuses_non_integer_coordinates():
    field = gff.sample_dgff(16, 0)
    for args in ((2, 0.5, 0), (2, 0, 1.0), (2.0, 0, 0), (True, 0, 0), (2, False, 0),
                 (None, 0, 0)):
        with pytest.raises(ValueError, match="integers"):
            gff.square_average(field, *args)
    assert gff.square_average(field, np.int64(2), np.int32(1), 0) == \
        gff.square_average(field, 2, 1, 0)


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


def test_dirichlet_energy_expectation():
    # each of the (N-1)^2 modes contributes 1 on average in the
    # (2 pi)^-1-normalized energy
    size, m = 32, 60
    energies = [gff.dirichlet_energy(gff.sample_dgff(size, 900 + i))
                for i in range(m)]
    n_modes = (size - 1) ** 2
    se = np.std(energies, ddof=1) / math.sqrt(m)
    assert abs(np.mean(energies) - n_modes) < 5 * se


def reference_dirichlet_energy(field):
    """The energy from the whole padded field's differences at once."""
    padded = field.padded()
    dx, dy = np.diff(padded, axis=0), np.diff(padded, axis=1)
    return float((np.sum(dx * dx) + np.sum(dy * dy)) / gff.TWO_PI)


def test_dirichlet_energy_and_variance_peak_at_one_block_above_a_1024_field():
    # the energy held the padded field, both differences and their squares,
    # and the variance a copy: some five fields, 40 MB at 1024^2, where one
    # block of lattice rows is 0.5 MB
    field = gff.sample_dgff(1024, 3)
    want = reference_dirichlet_energy(field)
    for measure, value in ((gff.dirichlet_energy, want), (gff.variance, field.values.var())):
        tracemalloc.start()
        try:
            got = measure(field)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * _blocks.BLOCK
        assert got == pytest.approx(value, rel=1e-13)


@pytest.mark.parametrize("block", [None, 100], indirect=True)
@pytest.mark.parametrize("size", [16, 64])
def test_blocked_dirichlet_energy_and_variance_match_whole_field_sums(block, size):
    # a block boundary between any two lattice rows counts each edge once
    field = gff.sample_dgff(size, 8)
    want = reference_dirichlet_energy(field)
    assert gff.dirichlet_energy(field) == pytest.approx(want, rel=1e-14)
    assert gff.variance(field) == pytest.approx(field.values.var(), rel=1e-14)


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


def reference_field_bytes(field):
    """The copying writer: header, then `astype("<f8").tobytes()`."""
    return (b"LZGF" + struct.pack("<iq", field.level, field.seed)
            + field.values.astype("<f8").tobytes())


def test_write_field_bytes_match_the_copying_writer(tmp_path):
    sampled = gff.sample_dgff(64, 5)
    # a transposed view: field_from_values keeps it, so the writer must
    # lay it out row-major itself
    transposed = gff.field_from_values(sampled.values.T, seed=3)
    assert not transposed.values.flags.c_contiguous
    for field in (sampled, transposed):
        path = tmp_path / "field.bin"
        gff.write_field(field, path)
        assert path.read_bytes() == reference_field_bytes(field)
        buffer = io.BytesIO()
        gff.write_field(field, buffer)
        assert buffer.getvalue() == reference_field_bytes(field)


def test_read_field_from_a_pipe(tmp_path):
    # a named pipe has no size to stat: the payload is counted as it is read
    field = gff.sample_dgff(64, 5)
    fifo = tmp_path / "field.fifo"
    os.mkfifo(fifo)
    for data, error in ((reference_field_bytes(field), None),
                        (reference_field_bytes(field) + b"\0", "payload is 31753 bytes")):
        writer = threading.Thread(target=fifo.write_bytes, args=(data,))
        writer.start()
        try:
            if error is None:
                back = gff.read_field(fifo)
            else:
                with pytest.raises(ValueError, match=error):
                    gff.read_field(fifo)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
    assert np.array_equal(back.values, field.values)
    assert np.array_equal(back.prefix, field.prefix)


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
