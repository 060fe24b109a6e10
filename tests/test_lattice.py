import math
import re

import numpy as np
import pytest

from loopzeta import graphs, lattice
from loopzeta.lattice import TorusLatticeSpec


def torus_graph(nx, ny):
    idx = lambda i, j: (i % nx) * ny + (j % ny)
    edges = []
    for i in range(nx):
        for j in range(ny):
            edges.append((idx(i, j), idx(i + 1, j)))
            edges.append((idx(i, j), idx(i, j + 1)))
    return graphs.Graph(nx * ny, edges)


def test_spec_validation():
    with pytest.raises(ValueError):
        TorusLatticeSpec(1, 4)
    assert TorusLatticeSpec(4, 8).aspect == 2.0


@pytest.mark.parametrize("size", [math.nan, math.inf, 2.5, 4.0, "4"])
def test_spec_with_a_size_that_is_not_an_integer_is_refused_by_name(size):
    # nan failed later in arange, inf raised a bare OverflowError and 2.5
    # gave a log det
    with pytest.raises(ValueError, match="integers, got %s" % re.escape(repr(size))):
        TorusLatticeSpec(size, 4)
    with pytest.raises(ValueError, match="integers"):
        TorusLatticeSpec(4, size)


def test_spec_takes_any_integer_type():
    spec = TorusLatticeSpec(np.int64(4), np.int32(8))
    assert spec == TorusLatticeSpec(4, 8)
    assert lattice.discrete_torus_log_det(spec) == lattice.discrete_torus_log_det(
        TorusLatticeSpec(4, 8))


def test_spec_above_the_site_budget_is_refused():
    # 10^10 sites: refused before any array is allocated
    with pytest.raises(ValueError, match="budget is"):
        TorusLatticeSpec(100000, 100000)
    for aspect in (1, 2):
        for spec in lattice.standard_sequence(aspect):
            assert 16 * spec.n_x * spec.n_y <= lattice._SITE_BUDGET


def test_log_det_matches_dense_eigenvalues():
    for nx, ny in ((4, 6), (5, 5), (3, 8)):
        g = torus_graph(nx, ny)
        lap = graphs.graph_laplacian(g)
        eig = np.sort(np.linalg.eigvalsh(lap))
        brute = float(np.sum(np.log(eig[1:])))
        fast = lattice.discrete_torus_log_det(TorusLatticeSpec(nx, ny))
        assert fast == pytest.approx(brute, abs=1e-9)


def test_matrix_tree_cross_check():
    # number of spanning trees = det'/(vertex count)
    nx, ny = 3, 4
    g = torus_graph(nx, ny)
    log_det = lattice.discrete_torus_log_det(TorusLatticeSpec(nx, ny))
    trees = graphs.spanning_tree_count(g)
    assert trees == round(math.exp(log_det) / (nx * ny))


def test_torus_constant_formula():
    spec = TorusLatticeSpec(8, 8)
    c = lattice.torus_constant(spec)
    expected = (lattice.discrete_torus_log_det(spec)
                - 4.0 * lattice.CATALAN / math.pi * 64 - math.log(64))
    assert c == pytest.approx(expected, abs=1e-12)


def test_constant_term_validation():
    seq = lattice.standard_sequence(1, (16, 32, 64, 128))
    lattice.constant_term(seq)
    with pytest.raises(ValueError, match="at least 4"):
        lattice.constant_term(seq[:3])
    with pytest.raises(ValueError, match="aspect"):
        lattice.constant_term(seq[:3] + [TorusLatticeSpec(128, 256)])
    with pytest.raises(ValueError, match="increasing"):
        lattice.constant_term(seq[::-1])
    with pytest.raises(ValueError, match="geometrically"):
        lattice.constant_term([TorusLatticeSpec(n, n) for n in (16, 32, 64, 96)])


def test_constant_term_converges():
    small = lattice.constant_term(lattice.standard_sequence(1, (16, 32, 64, 128)))
    large = lattice.constant_term(lattice.standard_sequence(1, (64, 128, 256, 512)))
    assert not large.flagged
    assert small.limit == pytest.approx(large.limit, abs=1e-5)
    assert large.cauchy_gap < small.cauchy_gap


def test_aspect_sequence_shapes():
    specs = lattice.standard_sequence(2, (8, 16, 32, 64))
    assert [(s.n_x, s.n_y) for s in specs] == [
        (8, 16), (16, 32), (32, 64), (64, 128)]
    result = lattice.constant_term(specs)
    assert math.isfinite(result.limit)
