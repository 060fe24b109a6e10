import math

import numpy as np
import pytest

from loopzeta import gff, subdivision
from loopzeta.subdivision import DyadicSquare, charge_to_params, subdivide


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


def test_dyadic_square():
    s = DyadicSquare(2, 1, 3)
    assert s.side == 0.25
    kids = s.children()
    assert len(kids) == 4
    assert {(k.i, k.j) for k in kids} == {(2, 6), (2, 7), (3, 6), (3, 7)}
    assert all(k.level == 3 for k in kids)
    with pytest.raises(ValueError):
        DyadicSquare(1, 2, 0)
    with pytest.raises(ValueError):
        DyadicSquare(-1, 0, 0)


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
    for s in part.squares:
        assert subdivision.quantum_size(field, q, s) <= 0.4
        if s.level > 0:
            parent = DyadicSquare(s.level - 1, s.i // 2, s.j // 2)
            assert subdivision.quantum_size(field, q, parent) > 0.4


def test_order_invariance(field):
    q = charge_to_params(0.0).Q
    a = subdivide(field, q, 0.3, order="scan")
    b = subdivide(field, q, 0.3, order="reverse")
    assert a.squares == b.squares
    with pytest.raises(ValueError):
        subdivide(field, q, 0.3, order="random")


def test_threshold_scaling_invariance(field):
    # A_h(S) = e^{h/q} side: scaling the field by t and q by t leaves the
    # partition unchanged
    q = charge_to_params(0.0).Q
    scaled = gff.field_from_values(2.5 * field.values)
    a = subdivide(field, q, 0.3)
    b = subdivide(scaled, 2.5 * q, 0.3)
    assert a.squares == b.squares


def test_refinement_monotone(field):
    q = charge_to_params(0.0).Q
    coarse = subdivide(field, q, 0.5)
    fine = subdivide(field, q, 0.1)
    assert len(fine) >= len(coarse)
    coarse_set = coarse.squares
    for s in fine.squares:
        # each fine square sits inside (or equals) some coarse square
        anc = s
        while anc not in coarse_set and anc.level > 0:
            anc = DyadicSquare(anc.level - 1, anc.i // 2, anc.j // 2)
        assert anc in coarse_set


def test_depth_cap_flags(field):
    q = charge_to_params(0.0).Q
    part = subdivide(field, q, 1e-6, depth_cap=2)
    assert not part.terminated
    assert part.flagged_count == len(part) == 16
    assert part.flagged == part.squares
    assert subdivide(field, q, 1e-6, depth_cap=np.int64(2)).squares == part.squares
    whole = subdivide(field, q, 1e-6, depth_cap=0)
    assert whole.flagged_count == len(whole) == 1
    for bad in (7, -1, 2.5, 2.0, math.nan, True, "2"):
        with pytest.raises(ValueError, match="depth cap"):
            subdivide(field, q, 0.3, depth_cap=bad)
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


def reference_subdivide(field, q, epsilon, depth_cap=None):
    """The per-level gather: four scattered prefix-sum reads per live square
    at every level, children built by a 4-way strided loop."""
    cap = field.level if depth_cap is None else depth_cap
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


def test_subdivide_matches_per_level_reference():
    q = charge_to_params(0.0).Q
    for size, seed in ((16, 0), (64, 9), (256, 4), (1024, 2)):
        f = gff.sample_dgff(size, seed)
        for eps in (2.0, 0.5, 0.2, 0.05):
            part = subdivide(f, q, eps)
            _assert_same_partition(part, reference_subdivide(f, q, eps))
        capped = subdivide(f, q, 1e-9, depth_cap=3)
        _assert_same_partition(capped, reference_subdivide(f, q, 1e-9, 3))


def test_capped_regime_run_matches_per_level_reference():
    # c = 23.5 on a 1024^2 field keeps more than a quarter of each level's
    # squares live down to the cap, so its deep levels take the dense route
    f = gff.sample_dgff(1024, 17)
    part = subdivision.regime_protocol(f, 23.5)
    assert not part.terminated
    hist = part.level_histogram()
    assert 4 * sum(n for l, n in hist.items() if l == f.level) >= 4**f.level
    q_eff = charge_to_params(23.5).Q * math.sqrt(2.0 * math.pi)
    root = subdivision.quantum_size(f, q_eff, DyadicSquare(0, 0, 0))
    _assert_same_partition(part, reference_subdivide(f, q_eff, 2.0**-12 * root))


def test_adjacency_matches_brute_force(field):
    part = subdivide(field, charge_to_params(0.0).Q, 0.25)
    graph = subdivision.adjacency_graph(part)
    squares = sorted(part.squares)
    top = max(s.level for s in squares)

    def box(s):
        w = 1 << (top - s.level)
        return s.i * w, s.j * w, (s.i + 1) * w, (s.j + 1) * w

    expected = set()
    for a in range(len(squares)):
        x0, y0, x1, y1 = box(squares[a])
        for b in range(a + 1, len(squares)):
            u0, v0, u1, v1 = box(squares[b])
            touch_x = (x1 == u0 or u1 == x0) and min(y1, v1) > max(y0, v0)
            touch_y = (y1 == v0 or v1 == y0) and min(x1, u1) > max(x0, u0)
            if touch_x or touch_y:
                expected.add((a, b))
    assert set(graph.edges) == expected
    assert graph.vertex_count == len(squares)


def test_ball_growth_on_uniform_partition():
    # constant field: subdivision gives a regular 4x4 grid
    flat = gff.field_from_values(np.zeros((63, 63)))
    part = subdivide(flat, 1.0, 0.25)
    assert part.level_histogram() == {2: 16}
    graph = subdivision.adjacency_graph(part)
    corner = sorted(part.squares).index(DyadicSquare(2, 0, 0))
    shells = subdivision.ball_growth(graph, corner, 6)
    assert shells == [1, 2, 3, 4, 3, 2, 1]
    with pytest.raises(ValueError):
        subdivision.ball_growth(graph, 99, 3)


def test_quantum_size_guard(field):
    with pytest.raises(ValueError, match="resolution exhausted"):
        subdivision.quantum_size(field, 1.0, DyadicSquare(7, 0, 0))


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
