import decimal
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from loopzeta import _blocks, gff, subdivision
from loopzeta.subdivision import DyadicPartition, charge_to_params, subdivide


def squares(part):
    """The partition's squares as a set of (level, i, j) tuples."""
    return set(zip(part._levels.tolist(), part._rows.tolist(), part._cols.tolist()))


def test_charge_to_params_frozen_values():
    p0 = charge_to_params(0.0)
    assert p0.Q == pytest.approx(math.sqrt(25.0 / 6.0), abs=1e-14)
    assert p0.gamma == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-12)
    p1 = charge_to_params(1.0)
    assert p1.Q == pytest.approx(2.0, abs=1e-14)
    assert p1.gamma == pytest.approx(2.0, abs=1e-6)
    p_high = charge_to_params(23.5)
    assert p_high.Q == pytest.approx(0.5, abs=1e-14)
    assert p_high.gamma is None
    with pytest.raises(ValueError, match="c >= 25"):
        charge_to_params(25.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            charge_to_params(bad)


def test_gamma_coupling_identity():
    for c in (-5.0, 0.0, 0.5, 1.0):
        p = charge_to_params(c)
        assert p.gamma / 2.0 + 2.0 / p.gamma == pytest.approx(p.Q, abs=1e-10)
        assert 0.0 < p.gamma <= 2.0


@pytest.mark.parametrize("c", [-1e3, -1e10, -1e16, -1e20, -1e150, -1e308])
def test_gamma_has_no_cancellation_at_very_negative_charge(c):
    # Q - sqrt(Q^2 - 4) cancelled: 9% off at c = -1e16 and 0.0 from about
    # c = -1e20, where the regime protocol then divided by gamma Q = 0
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        q = ((25 - decimal.Decimal(c)) / 6).sqrt()
        exact = 4 / (q + (q * q - 4).sqrt())
    assert charge_to_params(c).gamma == pytest.approx(float(exact), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("c", [1.0, 0.0, -0.5, -1.0, -10.0, -12.5])
def test_gamma_is_bit_identical_at_the_gated_charges(c):
    # criterion 17, the fields digests and the pinned CLI outputs read gamma
    # at these charges; the stable form must not move a bit there
    q = math.sqrt((25.0 - c) / 6.0)
    assert charge_to_params(c).gamma == q - math.sqrt(q * q - 4.0)


@pytest.fixture(scope="module")
def field():
    return gff.sample_dgff(64, 9)


def test_subdivide_partition_properties(field):
    q = charge_to_params(0.0).Q
    part = subdivide(field, q, 0.4)
    assert part.terminated
    assert part.area_check()
    assert len(part) == sum(part.level_histogram().values())
    # threshold rule: every kept square is small enough, no parent is
    def a_h(level, i, j):
        return math.exp(gff.square_average(field, level, i, j) / q) * 2.0**-level

    for level, i, j in squares(part):
        assert a_h(level, i, j) <= 0.4
        if level > 0:
            assert a_h(level - 1, i // 2, j // 2) > 0.4


def test_order_invariance(field):
    # the canonical (level, i, j) order, and so every artifact built from
    # it, does not depend on the order in which the columns are stored
    part = subdivide(field, charge_to_params(0.0).Q, 0.3)
    perm = np.random.default_rng(5).permutation(len(part))
    shuffled = DyadicPartition(part._levels[perm], part._rows[perm],
                               part._cols[perm], part._flags[perm])
    for got, want in zip(shuffled.canonical_columns(), part.canonical_columns()):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    levels, rows, cols, _ = part.canonical_columns()
    assert list(zip(levels.tolist(), rows.tolist(), cols.tolist())) == sorted(squares(part))
    assert subdivision.render_svg(shuffled) == subdivision.render_svg(part)
    assert subdivision.adjacency_graph(shuffled) == subdivision.adjacency_graph(part)


def test_threshold_scaling_invariance(field):
    # A_h(S) = e^{h/q} side: scaling the field by t and q by t leaves the
    # partition unchanged
    q = charge_to_params(0.0).Q
    scaled = gff.field_from_values(2.5 * field.values)
    a = subdivide(field, q, 0.3)
    b = subdivide(scaled, 2.5 * q, 0.3)
    assert squares(a) == squares(b)


def test_refinement_monotone(field):
    q = charge_to_params(0.0).Q
    coarse = subdivide(field, q, 0.5)
    fine = subdivide(field, q, 0.1)
    assert len(fine) >= len(coarse)
    coarse_set = squares(coarse)
    for level, i, j in squares(fine):
        # each fine square sits inside (or equals) some coarse square
        while (level, i, j) not in coarse_set and level > 0:
            level, i, j = level - 1, i // 2, j // 2
        assert (level, i, j) in coarse_set


def test_depth_cap_flags(field):
    q = charge_to_params(0.0).Q
    # the cap is the grid resolution: level 4 on 16^2, level 5 on 32^2
    for size in (16, 32):
        small = gff.sample_dgff(size, 2)
        part = subdivide(small, q, 1e-6)
        assert not part.terminated
        assert part.flagged_count == len(part) == 4**small.level
        assert part._flags.all() and set(part._levels.tolist()) == {small.level}
        # a threshold met part-way down keeps unflagged squares above the cap
        mixed = subdivide(small, q, 2.0**-small.level)
        assert 0 < mixed.flagged_count < len(mixed)
        assert set(mixed._levels[mixed._flags].tolist()) == {small.level}
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon"):
            subdivide(field, q, bad)
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="q must be finite and positive"):
            subdivide(field, bad, 0.3)


def test_regime_protocol_ratio_guard(field):
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="ratio must be finite and positive"):
            subdivision.regime_protocol(field, 0.0, bad)


def _reference_averages(field, level, ii, jj):
    w = 1 << (field.level - level)
    p = field.prefix
    r0, c0 = ii * w, jj * w
    return (p[r0 + w, c0 + w] - p[r0, c0 + w] - p[r0 + w, c0] + p[r0, c0]) / (w * w)


def reference_subdivide(field, q, epsilon):
    """The per-level gather: four scattered prefix-sum reads per live square
    at every level, children built by a 4-way strided loop."""
    cap = field.level
    chunks = []
    ii = np.array([0], dtype=np.int32)
    jj = np.array([0], dtype=np.int32)
    level = 0
    while len(ii):
        avg = _reference_averages(field, level, ii, jj)
        small = np.exp(avg / q) * 2.0**-level <= epsilon
        chunks.append((level, ii[small], jj[small], False))
        big_i, big_j = ii[~small], jj[~small]
        if level == cap:
            chunks.append((level, big_i, big_j, True))
            break
        ci = np.empty(4 * len(big_i), dtype=np.int32)
        cj = np.empty(4 * len(big_i), dtype=np.int32)
        for t, (da, db) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            ci[t::4] = 2 * big_i + da
            cj[t::4] = 2 * big_j + db
        ii, jj = ci, cj
        level += 1
    levels = np.concatenate([np.full(len(r), l, dtype=np.int8) for l, r, _, _ in chunks])
    rows = np.concatenate([r for _, r, _, _ in chunks])
    cols = np.concatenate([c for _, _, c, _ in chunks])
    flags = np.concatenate([np.full(len(r), fl, dtype=bool) for _, r, _, fl in chunks])
    return levels, rows, cols, flags


def _assert_same_partition(part, reference):
    levels, rows, cols, flags = reference
    for got, want in zip((part._levels, part._rows, part._cols, part._flags),
                         (levels, rows, cols, flags)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert part.terminated == (not flags.any())


@pytest.mark.parametrize("block", [None, 200], indirect=True)
def test_subdivide_matches_per_level_reference(block):
    # at a block of 200 squares, every level past 3 is averaged in blocks
    q = charge_to_params(0.0).Q
    for size, seed in ((16, 0), (64, 9), (256, 4), (1024, 2)):
        f = gff.sample_dgff(size, seed)
        for eps in (2.0, 0.5, 0.2, 0.05):
            part = subdivide(f, q, eps)
            _assert_same_partition(part, reference_subdivide(f, q, eps))
    for size in (16, 32):
        f = gff.sample_dgff(size, 3)
        capped = subdivide(f, q, 1e-9)
        assert capped.flagged_count == 4**f.level
        _assert_same_partition(capped, reference_subdivide(f, q, 1e-9))


def test_overflowing_quantum_sizes_subdivide_to_their_capped_limit_silently():
    # at q = 1e-308, e^{h/q} is inf on every square of positive average,
    # which the threshold refines to the cap as it should, and it warned
    # "overflow encountered in exp"
    f = gff.sample_dgff(16, 1)
    with np.errstate(over="ignore"):
        want = reference_subdivide(f, 1e-308, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        part = subdivide(f, 1e-308, 1.0)
    assert not part.terminated
    _assert_same_partition(part, want)


@pytest.mark.parametrize("seed", range(6))
def test_charge_near_25_is_refused_by_name(seed):
    # the root square's e^{h/Q} left the float range at Q = 1.3e-5: an
    # OverflowError "math range error" at seeds 1, 3 and 4, and an epsilon
    # of 0.0 at seeds 0, 2 and 5
    f = gff.sample_dgff(16, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"charge 24\.999999999 \(Q = 1\.29e-05\)"):
            subdivision.regime_protocol(f, 24.999999999)


@pytest.mark.parametrize("block", [None, 200], indirect=True)
def test_capped_regime_run_matches_per_level_reference(block):
    # c = 23.5 on a 1024^2 field keeps more than a quarter of each level's
    # squares live down to the cap, so its deep levels take the dense route;
    # the cap level, more than one block of squares, goes in two passes, and
    # at a block of 200 squares those run over many ragged blocks whose
    # parents' children are split between kept and flagged squares
    f = gff.sample_dgff(1024, 17)
    part = subdivision.regime_protocol(f, 23.5)
    assert not part.terminated
    hist = part.level_histogram()
    assert 4 * sum(n for l, n in hist.items() if l == f.level) >= 4**f.level
    q_eff = charge_to_params(23.5).Q * math.sqrt(2.0 * math.pi)
    root = math.exp(gff.square_average(f, 0, 0, 0) / q_eff)
    want = reference_subdivide(f, q_eff, 2.0**-12 * root)
    _assert_same_partition(part, want)
    levels, rows, cols, flags = want
    at_cap = levels == f.level
    assert at_cap.sum() > block and at_cap.sum() % block
    parent = (rows[at_cap] // 2).astype(np.int64) << 32 | cols[at_cap] // 2
    split = np.intersect1d(parent[~flags[at_cap]], parent[flags[at_cap]])
    assert len(split) > 0


def test_capped_regime_run_holds_its_partition_and_a_cap_mask():
    # a partition is 10 B a square (int8 level, int32 i and j, bool flag);
    # past the field and its prefix sums, the capped run holds its i and j
    # columns, the cap level's parents (2 B a square there) and its mask
    # (1 B), 11 B a square, and one block of the averages' temporaries, four
    # arrays of 8 B; it held twice the partition, whole levels of averages
    # and children and a concatenated copy of them
    f = gff.sample_dgff(1024, 17)
    f.prefix
    tracemalloc.start()
    try:
        part = subdivision.regime_protocol(f, 23.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not part.terminated
    assert peak <= 11 * len(part) + 4 * 8 * _blocks.BLOCK


@pytest.mark.parametrize("block", [None, 200], indirect=True)
def test_blocked_averages_match_the_reference_across_block_boundaries(block):
    # past level 8 the averages are filled one block of squares at a time;
    # runs of squares ending just before, on and after a block boundary,
    # and whole levels in (i, j) order, match the per-square gather
    f = gff.sample_dgff(1024, 5)
    rng = np.random.default_rng(0)
    for level in (9, 10):
        n = 1 << level
        whole = np.arange(n * n, dtype=np.int32)
        cases = [(whole // n, whole % n)]
        for m in (1, block - 1, block, block + 1, 3 * block + 17):
            cases.append((rng.integers(0, n, m, dtype=np.int32),
                          rng.integers(0, n, m, dtype=np.int32)))
        for ii, jj in cases:
            got = gff._square_averages(f, level, ii, jj)
            want = _reference_averages(f, level, ii, jj)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_adjacency_matches_brute_force(field):
    small = gff.sample_dgff(32, 9)
    capped = subdivide(small, charge_to_params(0.0).Q, 0.1)
    assert not capped.terminated and len(capped.level_histogram()) == 3
    # constant field: subdivision gives a regular 4x4 grid
    uniform = subdivide(gff.field_from_values(np.zeros((63, 63))), 1.0, 0.25)
    assert uniform.level_histogram() == {2: 16}
    for part in (subdivide(field, charge_to_params(0.0).Q, 0.25), capped, uniform):
        graph = subdivision.adjacency_graph(part)
        boxes = []
        top = int(part._levels.max())
        for level, i, j in sorted(squares(part)):
            w = 1 << (top - level)
            boxes.append((i * w, j * w, (i + 1) * w, (j + 1) * w))
        expected = set()
        for a, (x0, y0, x1, y1) in enumerate(boxes):
            for b in range(a + 1, len(boxes)):
                u0, v0, u1, v1 = boxes[b]
                touch_x = (x1 == u0 or u1 == x0) and min(y1, v1) > max(y0, v0)
                touch_y = (y1 == v0 or v1 == y0) and min(x1, u1) > max(x0, u0)
                if touch_x or touch_y:
                    expected.add((a, b))
        assert graph.edges == tuple(sorted(expected))
        assert graph.vertex_count == len(part)
    # the 4x4 grid has 2 * 4 * 3 interfaces
    assert len(subdivision.adjacency_graph(uniform).edges) == 24


def test_ball_growth_on_uniform_partition():
    # constant field: subdivision gives a regular 4x4 grid, whose adjacency
    # graph grows balls around a corner square by the Manhattan metric
    flat = gff.field_from_values(np.zeros((63, 63)))
    part = subdivide(flat, 1.0, 0.25)
    assert part.level_histogram() == {2: 16}
    adj = subdivision.adjacency_graph(part).adjacency()
    order = sorted(squares(part))
    corner = order.index((2, 0, 0))
    dist = np.full(len(order), -1)
    dist[corner] = 0
    frontier = [corner]
    while frontier:
        nxt = [v for u in frontier for v in np.flatnonzero(adj[u]) if dist[v] < 0]
        nxt = sorted(set(nxt))
        dist[nxt] = dist[frontier[0]] + 1
        frontier = nxt
    assert dist.tolist() == [i + j for _, i, j in order]
    assert np.bincount(dist).tolist() == [1, 2, 3, 4, 3, 2, 1]


def reference_level_histogram(part):
    """The sorted route: np.unique over every level."""
    levels, counts = np.unique(part._levels, return_counts=True)
    return {int(l): int(c) for l, c in zip(levels, counts)}


def test_level_histogram_matches_unique_reference():
    q = charge_to_params(0.0).Q
    terminating = subdivide(gff.sample_dgff(64, 9), q, 0.2)
    depth_capped = subdivide(gff.sample_dgff(32, 3), q, 1e-9)
    mixed = subdivide(gff.sample_dgff(16, 2), q, 2.0**-4)
    capped = subdivision.regime_protocol(gff.sample_dgff(1024, 17), 23.5)
    assert terminating.terminated
    assert depth_capped.flagged_count == len(depth_capped)
    assert 0 < mixed.flagged_count < len(mixed) and not capped.terminated
    empty = DyadicPartition([], [], [], [])
    for part in (terminating, depth_capped, mixed, capped, empty):
        hist, want = part.level_histogram(), reference_level_histogram(part)
        assert hist == want and list(hist) == list(want)
        assert all(type(k) is int and type(v) is int for k, v in hist.items())
    assert capped.area_check() and not empty.area_check()


def test_regime_protocol_smoke():
    f = gff.sample_dgff(512, 3)
    part = subdivision.regime_protocol(f, 0.0)
    assert part.terminated
    assert part.area_check()
    part_high = subdivision.regime_protocol(f, 23.5)
    assert not part_high.terminated


def test_render_svg(field):
    import xml.etree.ElementTree as ET

    part = subdivide(field, charge_to_params(0.0).Q, 0.4)
    svg = subdivision.render_svg(part)
    root = ET.fromstring(svg)
    rects = [el for el in root if el.tag.endswith("rect")]
    assert len(rects) == len(part)
