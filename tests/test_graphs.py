import bisect
import copy
import functools
import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopzeta import _blocks, acceptance, graphs
from loopzeta.graphs import Graph


def path_graph():
    # 0 - 1 - 2 - 3 with both ends absorbing; interior walk is killed
    return Graph(4, [(0, 1), (1, 2), (2, 3)], [0, 3])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(0, [])
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1)], [7])


def test_graph_vertex_ids_are_integers():
    # a float, integral or not, is refused rather than truncated, and an
    # infinite one is a ValueError, not an OverflowError
    for args in ((3, [(0, 1.5)]), (3, [(0, math.inf)]), (3, [(0, 1)], [math.nan]),
                 (3.0, [(0, 1)]), (3, [(0, 2.0)]), (None, [])):
        with pytest.raises(ValueError, match="integer"):
            Graph(*args)
    assert Graph(np.int64(3), [(np.int64(0), 1)], [np.int32(2)]).edges == ((0, 1),)


def test_multi_edges_add_to_degrees():
    g = Graph(2, [(0, 1), (0, 1)])
    assert list(g.degrees) == [2, 2]
    assert g.adjacency()[0, 1] == 2


def test_isolated_interior_vertex_message():
    g = Graph(2, [], [1])
    with pytest.raises(ValueError, match="undefined transition"):
        graphs.transition_matrix(g)


def test_path_graph_hand_oracles():
    g = path_graph()
    p = graphs.transition_matrix(g)
    assert np.allclose(p, [[0.0, 0.5], [0.5, 0.0]])
    # det(I - P) = 1 - 1/4
    det_graph, det_rw, deg_prod = graphs.determinant_identity(g)
    assert det_rw == pytest.approx(0.75, abs=1e-14)
    assert deg_prod == 4.0
    assert det_graph == pytest.approx(3.0, abs=1e-12)
    assert graphs.loop_mass_exact(g) == pytest.approx(-math.log(0.75), abs=1e-14)


def test_determinant_identity_closed_graph_is_degenerate():
    det_graph, det_rw, _ = graphs.determinant_identity(cycle_graph(4))
    assert det_graph == 0.0 and det_rw == 0.0


def test_truncated_mass_and_tail():
    g = path_graph()
    exact = graphs.loop_mass_exact(g)
    for max_len in (1, 2, 5, 10, 30):
        mass, tail = graphs.loop_mass_truncated(g, max_len)
        assert mass <= exact + 1e-14
        assert abs(exact - mass) <= tail + 1e-12
    with pytest.raises(ValueError):
        graphs.loop_mass_truncated(g, 0)


def test_non_transient_walk_rejected():
    # interior component 0-1 never reaches the boundary vertex 2
    g = Graph(3, [(0, 1)], [2])
    with pytest.raises(ValueError, match="non-transient walk"):
        graphs.loop_mass_exact(g)
    with pytest.raises(ValueError, match="loop mass diverges"):
        graphs.loop_mass_exact(cycle_graph(4))


def test_non_transient_walk_has_no_finite_loop_mass():
    g = Graph(3, [(0, 1)], [2])
    with pytest.raises(ValueError, match="non-transient walk"):
        graphs.loop_mass_truncated(g, 5)
    # the truncated soup misses infinite mass
    assert graphs.sample_loop_soup(g, 1.0, 6, 0).tail_warning


def test_periodic_transient_walk_has_a_mass():
    # 0 - 1 - 2 killed at 0: P = [[0, 1/2], [1, 0]] has eigenvalues +-sqrt(1/2),
    # so the walk is transient with period 2 and det(I - P) = 1/2
    g = Graph(3, [(0, 1), (1, 2)], [0])
    exact = graphs.loop_mass_exact(g)
    assert exact == pytest.approx(math.log(2.0), abs=1e-14)
    for max_len in range(1, 41):
        mass, tail = graphs.loop_mass_truncated(g, max_len)
        assert abs(exact - mass) <= tail + 1e-12
    assert graphs._killed_walk(g).rho == pytest.approx(math.sqrt(0.5), abs=1e-11)


def _has_closed_interior_component(g):
    """Whether some interior component of g has no edge to the boundary."""
    nb = {v: set() for v in range(g.vertex_count)}
    for u, v in g.edges:
        nb[u].add(v)
        nb[v].add(u)
    seen = set()
    for start in g.interior:
        if start in seen:
            continue
        stack, killed = [start], False
        seen.add(start)
        while stack:
            for w in nb[stack.pop()]:
                if w in g.boundary:
                    killed = True
                elif w not in seen:
                    seen.add(w)
                    stack.append(w)
        if not killed:
            return True
    return False


@st.composite
def killed_graphs(draw):
    """Killed multigraphs on 2-8 vertices (edge multiplicity 0-2) whose
    interior vertices all have an edge."""
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mult = draw(st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs)))
    boundary = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    edges = [e for e, m in zip(pairs, mult) for _ in range(m)]
    g = Graph(n, edges, boundary)
    assume(all(g.degrees[v] > 0 for v in g.interior))
    return g


@given(killed_graphs())
def test_killed_walk_model_properties(g):
    walk = graphs._killed_walk(g)
    p = graphs.transition_matrix(g)
    assert np.array_equal(walk.p, p) and not walk.p.flags.writeable
    true = float(np.abs(np.linalg.eigvals(p)).max())
    assert true <= walk.rho <= graphs.spectral_radius_bound(p) + 1e-12
    refused = _has_closed_interior_component(g)
    try:
        exact = graphs.loop_mass_exact(g)
    except ValueError as exc:
        assert refused and "non-transient walk" in str(exc)
    else:
        assert not refused
        for max_len in (1, 3, 10, 40):
            mass, tail = graphs.loop_mass_truncated(g, max_len)
            assert abs(exact - mass) <= tail + 1e-12
    det_graph, det_rw, deg_prod = graphs.determinant_identity(g)
    assert abs(det_graph - det_rw * deg_prod) <= 1e-10 * max(1.0, abs(det_graph))
    assert graphs.sample_loop_soup(g, 1.0, 4, 0).tail_warning or not refused


def test_spectral_radius_is_certified_upper_bound():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        p = rng.random((n, n))
        p /= p.sum(axis=1, keepdims=True) / rng.uniform(0.3, 0.99)
        bound = graphs.spectral_radius_bound(p)
        true = float(np.abs(np.linalg.eigvals(p)).max())
        assert true <= bound <= true + 1e-6


def _reference_bound(p):
    # the oracle: all 200 power iterations, then the padded row-max
    # Collatz-Wielandt quotient
    n = len(p)
    if n == 0:
        return 0.0
    x = np.ones(n) / n
    for _ in range(200):
        y = p @ x
        norm = y.max()
        if norm == 0:
            return 1e-12
        x = y / norm
    x = np.maximum(x, 1e-300)
    quotients = (p @ x) / x
    return float(quotients.max()) + 1e-12


def _substochastic(draw, rows, cols):
    """rows x cols nonnegative matrix, each nonzero row summing to a drawn
    0.05-1."""
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=rows * cols,
                                max_size=rows * cols))).reshape(rows, cols)
    scale = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=rows, max_size=rows)))
    sums = w.sum(axis=1, keepdims=True)
    return np.divide(w, sums, out=np.zeros_like(w), where=sums > 0) * scale[:, None]


def _scaled_to_radius(draw, n, radius):
    block = _substochastic(draw, n, n)
    rho = float(np.abs(np.linalg.eigvals(block)).max())
    assume(rho > 1e-3)
    return block * (radius / rho)


@st.composite
def bound_matrices(draw):
    """Matrices for each way the power iteration ends: random substochastic
    ones; bipartite ones (iterates of period 2); weighted directed cycles
    of length 3-10 (period m); strictly upper triangular ones (the norm ==
    0 exit); block-diagonal ones with equal radii, whose iterates mostly
    never repeat; and n = 0."""
    family = draw(st.sampled_from(
        ["substochastic", "bipartite", "cycle", "triangular", "equal radii", "empty"]))
    if family == "substochastic":
        n = draw(st.integers(1, 8))
        return _substochastic(draw, n, n)
    if family == "bipartite":
        a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        p = np.zeros((a + b, a + b))
        p[:a, a:] = _substochastic(draw, a, b)
        p[a:, :a] = _substochastic(draw, b, a)
        return p
    if family == "cycle":
        m = draw(st.integers(3, 10))
        weights = draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
        p = np.zeros((m, m))
        p[np.arange(m), (np.arange(m) + 1) % m] = weights
        return p
    if family == "triangular":
        n = draw(st.integers(1, 8))
        return np.triu(_substochastic(draw, n, n), k=1)
    if family == "equal radii":
        a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        radius = draw(st.floats(0.05, 0.95))
        p = np.zeros((a + b, a + b))
        p[:a, :a] = _scaled_to_radius(draw, a, radius)
        p[a:, a:] = _scaled_to_radius(draw, b, radius)
        return p
    return np.zeros((0, 0))


@settings(max_examples=300, deadline=None)
@given(bound_matrices())
def test_spectral_radius_bound_equals_the_full_200_steps(p):
    assert graphs.spectral_radius_bound(p) == _reference_bound(p)


def test_corpus_screen_keeps_its_graphs_with_the_full_200_steps(monkeypatch):
    # criteria 1 and 2 draw their corpus through the bound's <= 0.9 screen
    seeds = range(1000, 1100)
    shipped = [acceptance._random_killed_graph(seed) for seed in seeds]
    results = acceptance.criterion_1(), acceptance.criterion_2()
    monkeypatch.setattr(graphs, "spectral_radius_bound", _reference_bound)
    assert [acceptance._random_killed_graph(seed) for seed in seeds] == shipped
    assert (acceptance.criterion_1(), acceptance.criterion_2()) == results


def test_penalized_mass_limit():
    # -log det(I - alpha P) + log(1 - alpha) + log det'(I - P) -> 0
    g = cycle_graph(4)
    alpha = 1.0 - 1e-9
    pen = graphs.penalized_loop_mass(g, alpha)
    log_det_prime = graphs.log_det_prime_rw(g)
    assert pen + math.log(1.0 - alpha) + log_det_prime == pytest.approx(
        0.0, abs=1e-6)
    with pytest.raises(ValueError):
        graphs.penalized_loop_mass(g, 1.0)


def test_log_det_prime_rw():
    # I - P on the 4-cycle has eigenvalues {0, 1, 1, 2}
    assert graphs.log_det_prime_rw(cycle_graph(4)) == pytest.approx(
        math.log(2.0), abs=1e-12)
    with pytest.raises(ValueError):
        graphs.log_det_prime_rw(path_graph())


def test_spanning_tree_counts():
    # complete graph K_n has n^(n-2) spanning trees
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert graphs.spanning_tree_count(k4) == 16
    assert graphs.spanning_tree_count(cycle_graph(5)) == 5
    # doubling one edge of the cycle adds one tree per copy
    g = Graph(3, [(0, 1), (0, 1), (1, 2), (0, 2)])
    assert graphs.spanning_tree_count(g) == 5
    disconnected = Graph(4, [(0, 1), (2, 3)])
    assert graphs.spanning_tree_count(disconnected) == 0
    assert graphs.spanning_tree_count(Graph(1, [])) == 1


def reference_spanning_tree_count(g):
    """Matrix-tree count by plain Bareiss elimination on Python ints, with
    row swaps on a zero pivot."""
    lap = graphs.graph_laplacian(g)
    m = [[int(x) for x in row[1:]] for row in lap[1:]]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def test_spanning_tree_count_is_exact_past_float_precision():
    # the float determinant rounds to 19872369301840646144 and
    # 126231322912499639194222592 on the last two
    assert graphs.spanning_tree_count(graphs.grid_graph(4)) == 32565539635200
    assert graphs.spanning_tree_count(graphs.grid_graph(5)) == 19872369301840986112
    assert graphs.spanning_tree_count(graphs.grid_graph(6)) == \
        126231322912498539682594816
    # Cayley: K_n has n^(n-2) spanning trees; K_150's count overflows a float
    k150 = Graph(150, [(u, v) for u in range(150) for v in range(u + 1, 150)])
    assert graphs.spanning_tree_count(k150) == 150**148


@st.composite
def connected_multigraphs(draw):
    """A random spanning tree on up to 20 vertices, a random subset of the
    other vertex pairs and a few repeated edges."""
    n = draw(st.integers(1, 20))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges += [e for e, k in zip(pairs, keep) if k]
    edges += draw(st.lists(st.sampled_from(edges), max_size=n)) if edges else []
    return Graph(n, edges)


@settings(max_examples=300, deadline=None)
@given(connected_multigraphs())
def test_spanning_tree_count_matches_exact_elimination(g):
    assert graphs.spanning_tree_count(g) == reference_spanning_tree_count(g)


def test_soup_determinism_and_validity():
    g = graphs.grid_graph(3)
    s1 = graphs.sample_loop_soup(g, 2.0, 8, 42)
    s2 = graphs.sample_loop_soup(g, 2.0, 8, 42)
    assert s1.loops == s2.loops
    s3 = graphs.sample_loop_soup(g, 2.0, 8, 43)
    assert s3.loops != s1.loops
    edge_set = {frozenset(e) for e in g.edges}
    interior = set(g.interior)
    for loop in s1.loops:
        assert loop[0] == loop[-1]
        assert set(loop) <= interior
        for u, v in zip(loop, loop[1:]):
            assert frozenset((u, v)) in edge_set


def test_soup_count_statistics():
    g = path_graph()
    c = 1.5
    mass, _ = graphs.loop_mass_truncated(g, 10)
    n_samples = 2000
    counts = [len(graphs.sample_loop_soup(g, c, 10, 5000 + i).loops)
              for i in range(n_samples)]
    mean = np.mean(counts)
    se = math.sqrt(c * mass / n_samples)
    assert abs(mean - c * mass) < 4 * se


def test_soup_guards():
    before = graphs._soup_model.cache_info()
    with pytest.raises(ValueError):
        graphs.sample_loop_soup(path_graph(), 0.0, 5, 1)
    with pytest.raises(ValueError):
        graphs.sample_loop_soup(cycle_graph(3), 1.0, 5, 1)
    for c in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="intensity"):
            graphs.sample_loop_soup(path_graph(), c, 5, 1)
    for max_len in (0, -3):
        with pytest.raises(ValueError, match="max_len"):
            graphs.sample_loop_soup(path_graph(), 1.0, max_len, 1)
    # the guards run before any model is built or looked up
    assert graphs._soup_model.cache_info() == before


def test_powers_budget_refuses_long_max_len_before_any_power(monkeypatch):
    g = path_graph()  # 2 interior vertices: (max_len + 1) * 4 entries
    before = (graphs._killed_walk.cache_info(), graphs._soup_model.cache_info())
    for max_len in (10**9, 2**63, 10**400):
        with pytest.raises(ValueError, match="max_len %d is too long" % max_len):
            graphs.loop_mass_truncated(g, max_len)
        with pytest.raises(ValueError, match="budget of %d" % graphs._POWERS_BUDGET):
            graphs.sample_loop_soup(g, 1.0, max_len, 1)
    # refused before the walk or the soup model is built or looked up
    assert (graphs._killed_walk.cache_info(), graphs._soup_model.cache_info()) == before
    # the budget's edge: 4 powers of 2 x 2 pass, 5 do not
    monkeypatch.setattr(graphs, "_POWERS_BUDGET", 16)
    graphs.loop_mass_truncated(g, 3)
    graphs.sample_loop_soup(g, 1.0, 3, 1)
    for call in (lambda: graphs.loop_mass_truncated(g, 4),
                 lambda: graphs.sample_loop_soup(g, 1.0, 4, 1)):
        with pytest.raises(ValueError, match="^max_len 4 is too long for 2 interior"):
            call()


def reference_soup(g, c, max_len, seed):
    """The soup draw as it was before the per-graph model: everything is
    rebuilt per call and every root and bridge step uses Generator.choice."""
    p = graphs.transition_matrix(g)
    interior = g.interior
    n = len(p)
    rng = np.random.Generator(np.random.Philox(seed))
    if n == 0:
        return (), False
    powers = [np.eye(n)]
    for _ in range(max_len):
        powers.append(powers[-1] @ p)
    traces = np.array([np.trace(powers[k]) for k in range(max_len + 1)])
    rho = graphs.spectral_radius_bound(p)
    total = -graphs._slogdet(np.eye(n) - p) if rho < 1.0 - 1e-12 else math.inf
    truncated = sum(traces[k] / k for k in range(1, max_len + 1))
    tail_warning = bool(total == math.inf
                        or total - truncated > 1e-6 * max(total, 1e-300))
    loops = []
    for k in range(1, max_len + 1):
        mean = c * traces[k] / k
        if mean <= 0:
            continue
        for _ in range(rng.poisson(mean)):
            diag = np.diag(powers[k]).copy()
            root = rng.choice(n, p=diag / diag.sum())
            path = [root]
            cur = root
            for j in range(k - 1):
                w = p[cur] * powers[k - 1 - j][:, root]
                w = np.maximum(w, 0.0)
                cur = rng.choice(n, p=w / w.sum())
                path.append(cur)
            loops.append(tuple(interior[v] for v in path) + (interior[root],))
    return tuple(loops), tail_warning


def random_killed_graph(rng):
    while True:
        n = int(rng.integers(3, 9))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        k = int(rng.integers(1, n - 1))
        g = Graph(n, edges, [int(b) for b in rng.choice(n, size=k, replace=False)])
        if all(g.degrees[v] > 0 for v in g.interior):
            return g


def assert_soups_match(g, c, max_len, seeds):
    for seed in seeds:
        soup = graphs.sample_loop_soup(g, c, max_len, seed)
        assert (soup.loops, soup.tail_warning) == reference_soup(g, c, max_len, seed)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_soup_matches_reference_on_path_graph(c):
    assert_soups_match(path_graph(), c, 12, range(300))


def test_soup_matches_reference_on_grid():
    assert_soups_match(graphs.grid_graph(4), 10.0, 12, range(1000, 1300))


def test_soup_matches_reference_on_random_graphs():
    rng = np.random.default_rng(2005)
    tail_warnings = set()
    for i in range(20):
        g = random_killed_graph(rng)
        max_len = int(rng.integers(1, 16))
        c = float(rng.uniform(0.2, 5.0))
        assert_soups_match(g, c, max_len, range(100 * i, 100 * i + 30))
        tail_warnings.add(graphs.sample_loop_soup(g, c, max_len, 0).tail_warning)
    assert tail_warnings == {False, True}


def memo_rows(model, max_len):
    """The documented bound on a soup model's step memo, in rows of n floats:
    as many floats as the powers P^0..P^max_len, or 2^16 floats where the
    powers are smaller."""
    n = model.walk.n
    rows = max((max_len + 1) * n, _blocks.BLOCK // n)
    assert _blocks.BLOCK == 2**16
    assert model.step_cdf.cache_info().maxsize == rows
    return rows


def test_soup_draws_on_a_warm_memo_match_the_reference():
    g, c, max_len = graphs.grid_graph(4), 10.0, 12
    model = graphs._soup_model(g, max_len)
    model.step_cdf.cache_clear()
    sizes = []
    for seed in range(5000, 5200):
        soup = graphs.sample_loop_soup(g, c, max_len, seed)
        assert (soup.loops, soup.tail_warning) == reference_soup(g, c, max_len, seed)
        sizes.append(model.step_cdf.cache_info().currsize)
    # filled on first use, then read by the later draws
    assert sizes == sorted(sizes)
    assert 0 < sizes[0] < sizes[-1] <= memo_rows(model, max_len)


def test_soup_memo_holds_every_row_a_small_graph_draws():
    g, c, max_len = graphs.grid_graph(4), 10.0, 12
    model = graphs._soup_model(g, max_len)
    model.step_cdf.cache_clear()
    for seed in range(200):
        graphs.sample_loop_soup(g, c, max_len, seed)
    warm = model.step_cdf.cache_info()
    for seed in range(200):
        graphs.sample_loop_soup(g, c, max_len, seed)
    info = model.step_cdf.cache_info()
    # the second pass is all hits, and no row was ever computed twice
    assert info.misses == warm.misses == info.currsize
    assert info.hits > 2 * warm.hits


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=40), st.floats(0.0, 1.0))
def test_bisect_on_a_memoryview_row_is_searchsorted(weights, extra):
    w = np.array(weights)
    assume(0.0 < w.sum() < math.inf)
    cdf = graphs._cdf(w)
    row = memoryview(cdf)
    us = [*cdf.tolist(), 0.0, 1.0 - 2.0**-53, extra]
    us += [math.nextafter(x, d) for x in cdf.tolist() for d in (0.0, 2.0)]
    for u in us:
        assert bisect.bisect_right(row, u) == cdf.searchsorted(u, side="right")


def test_soup_on_a_bipartite_graph_never_asks_for_an_odd_root_cdf(monkeypatch):
    # a path of 6 interior vertices between two absorbing ends is bipartite:
    # tr(P^k) = 0 for every odd k
    g, c, max_len = Graph(8, [(i, i + 1) for i in range(7)], [0, 7]), 3.0, 13
    model = graphs._soup_model(g, max_len)
    assert model.root_cdf.cache_info().currsize == 0  # built on first use
    assert all(model.traces[1::2] == 0)
    asked = []
    build = model.root_cdf
    monkeypatch.setattr(model, "root_cdf", lambda k: asked.append(k) or build(k))
    for seed in range(40):
        soup = graphs.sample_loop_soup(g, c, max_len, seed)
        assert (soup.loops, soup.tail_warning) == reference_soup(g, c, max_len, seed)
    assert asked and all(k % 2 == 0 for k in asked)
    assert build.cache_info().currsize == len(set(asked))


def test_soup_draws_past_a_full_memo_match_the_reference():
    g, c, max_len = graphs.grid_graph(8), 30.0, 12
    model = graphs._soup_model(g, max_len)
    model.step_cdf.cache_clear()
    cap = memo_rows(model, max_len)
    full_at = None
    for seed in range(300):
        soup = graphs.sample_loop_soup(g, c, max_len, seed)
        assert soup.loops == reference_soup(g, c, max_len, seed)[0]
        assert model.step_cdf.cache_info().currsize <= cap
        if full_at is None and model.step_cdf.cache_info().currsize == cap:
            full_at = seed
        if full_at is not None and seed == full_at + 20:
            break
    else:
        pytest.fail("the memo never reached its cap of %d rows" % cap)


def test_soup_memo_shared_by_threads_stays_exact_and_bounded():
    # grid_graph(7) has n^2 (max_len - 1) = 24010 step rows, past its memo's cap
    g, c, max_len = graphs.grid_graph(7), 40.0, 11
    seeds = range(48)
    want = {seed: reference_soup(g, c, max_len, seed)[0] for seed in seeds}
    model = graphs._soup_model(g, max_len)
    model.step_cdf.cache_clear()
    got = {}

    def draw(part):
        for seed in part:
            got[seed] = graphs.sample_loop_soup(g, c, max_len, seed).loops

    threads = [threading.Thread(target=draw, args=(seeds[i::4],)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want
    assert model.step_cdf.cache_info().currsize == memo_rows(model, max_len)


def test_soup_work_budget_refuses_an_intensity_by_name_before_any_draw(monkeypatch):
    g = graphs.grid_graph(3)
    start = time.perf_counter()
    for c in (1e12, 1e308):
        with pytest.raises(ValueError, match="^intensity %s .* budget of %d loop vertices" % (
                re.escape("%g" % c), graphs._SOUP_BUDGET)):
            graphs.sample_loop_soup(g, c, 40, 1)
    assert time.perf_counter() - start < 5.0
    # the budget's edge: an expected c sum_k tr(P^k) at the budget is drawn
    expected = 2.0 * graphs._soup_model(g, 12).traces[1:].sum()
    monkeypatch.setattr(graphs, "_SOUP_BUDGET", expected)
    assert graphs.sample_loop_soup(g, 2.0, 12, 1).loops == reference_soup(g, 2.0, 12, 1)[0]
    monkeypatch.setattr(graphs, "_SOUP_BUDGET", math.nextafter(expected, 0.0))
    with pytest.raises(ValueError, match="budget"):
        graphs.sample_loop_soup(g, 2.0, 12, 1)


def reference_truncated(g, max_len):
    """loop_mass_truncated as it was with its own power loop: the partial
    sum added term by term and the tail bound written out."""
    walk = graphs._transient_walk(g)
    p, n, rho = walk.p, walk.n, walk.rho
    if n == 0:
        return 0.0, 0.0
    mass = 0.0
    pk = np.eye(n)
    for k in range(1, max_len + 1):
        pk = pk @ p
        mass += np.trace(pk) / k
    tail = n * rho ** (max_len + 1) / ((max_len + 1) * (1.0 - rho))
    return float(mass), float(tail)


def reference_soup_model(g, max_len):
    """The soup model's powers, traces and truncation flag as they were with
    its own power loop and a term-by-term sum."""
    walk = graphs._killed_walk(g)
    p, n = walk.p, walk.n
    powers = [np.eye(n)]
    for _ in range(max_len):
        powers.append(powers[-1] @ p)
    traces = np.array([np.trace(powers[k]) for k in range(max_len + 1)])
    total = walk.mass
    truncated = sum(traces[k] / k for k in range(1, max_len + 1))
    tail_warning = bool(total == math.inf
                        or total - truncated > 1e-6 * max(total, 1e-300))
    return powers, traces, tail_warning


@settings(max_examples=150, deadline=None)
@given(killed_graphs(), st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_loop_series_match_references_bit_for_bit(g, max_len, seed):
    try:
        want = reference_truncated(g, max_len)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            graphs.loop_mass_truncated(g, max_len)
    else:
        assert graphs.loop_mass_truncated(g, max_len) == want
    model = graphs._soup_model(g, max_len)
    powers, traces, tail_warning = reference_soup_model(g, max_len)
    assert all(np.array_equal(a, b) for a, b in zip(model.powers, powers, strict=True))
    assert np.array_equal(model.traces, traces)
    soup = graphs.sample_loop_soup(g, 1.0, max_len, seed)
    assert soup.tail_warning == tail_warning == model.tail_warning
    assert soup.loops == reference_soup(g, 1.0, max_len, seed)[0]


def test_criterion_1_partials_are_the_shipped_series():
    g = graphs.grid_graph(3)
    walk = graphs._killed_walk(g)
    partials = graphs._loop_series(graphs._power_traces(walk.p, 40))
    for max_len in (1, 2, 12, 40):
        mass, tail = graphs.loop_mass_truncated(g, max_len)
        assert mass == partials[max_len - 1]
        assert tail == graphs._tail_bound(walk.n, walk.rho, max_len)
        assert (mass, tail) == reference_truncated(g, max_len)


@pytest.mark.parametrize("side, max_len, blocks, block", [
    (4, 40, [40], None), (8, 40, [16, 16, 8], None), (30, 12, [1] * 12, None),
    (3, 41, [2] * 20 + [1], 200)], indirect=["block"])
def test_power_blocks_match_references_bit_for_bit(monkeypatch, side, max_len, blocks, block):
    # n = 16, 64 and 900: past numpy's 8-term pairwise summation of a trace,
    # with all powers in one block, 2^16 floats to a block and one power to a
    # block; n = 9 at a block of 200 floats, two powers to a block and one in
    # the last; each block, and the soup model's whole table, is traced by one call
    g = graphs.grid_graph(side)
    want_truncated = reference_truncated(g, max_len)
    powers, traces, tail_warning = reference_soup_model(g, max_len)
    traced = []
    trace = np.trace
    monkeypatch.setattr(np, "trace", lambda a, **kw: traced.append(len(a)) or trace(a, **kw))
    assert graphs.loop_mass_truncated(g, max_len) == want_truncated
    model = graphs._SoupModel(g, max_len)
    assert traced == blocks + [max_len + 1]
    n = side * side
    assert model.powers.shape == (max_len + 1, n, n) and not model.powers.flags.writeable
    assert all(np.array_equal(a, b) for a, b in zip(model.powers, powers, strict=True))
    assert np.array_equal(model.traces, traces)
    assert model.tail_warning == tail_warning


def test_truncated_mass_holds_one_block_of_powers():
    # the whole P^1..P^40 table of the 30x30 grid would be 41 n^2 floats,
    # about 266 MB; the series keeps one block and the matrices beside it
    g, max_len = graphs.grid_graph(30), 40
    n = graphs._transient_walk(g).n  # the walk model, P included, built before
    tracemalloc.start()
    try:
        graphs.loop_mass_truncated(g, max_len)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (_blocks.BLOCK + 3 * n * n)


def reference_adjacency(g):
    a = np.zeros((g.vertex_count, g.vertex_count), dtype=np.int64)
    for u, v in g.edges:
        a[u, v] += 1
        a[v, u] += 1
    return a


@given(connected_multigraphs())
def test_adjacency_is_built_once_and_counts_the_edges(g):
    a = g.adjacency()
    assert a.dtype == np.int64 and np.array_equal(a, reference_adjacency(g))
    assert g.adjacency() is a and not a.flags.writeable
    assert g.degrees.dtype == np.int64
    assert np.array_equal(g.degrees, reference_adjacency(g).sum(axis=1))


def reference_laplacian(g):
    """The former `graph_laplacian`: D - A built afresh on every call."""
    a = reference_adjacency(g)
    return np.diag(a.sum(axis=1)) - a.astype(float)


def test_laplacian_is_built_once_per_graph_loops_computation(monkeypatch):
    # determinant_identity and spanning_tree_count each built their own copy
    builds = []
    build = Graph._laplacian.func

    def counting(g):
        builds.append(g)
        return build(g)

    counted = functools.cached_property(counting)
    counted.__set_name__(Graph, "_laplacian")
    monkeypatch.setattr(Graph, "_laplacian", counted)
    for seed in range(1000, 1010):
        g, builds[:] = acceptance._random_killed_graph(seed), []
        interior = g.interior
        det_graph, det_rw, degree_product = graphs.determinant_identity(g)
        graphs.loop_mass_exact(g)
        graphs.loop_mass_truncated(g, 40)
        trees = graphs.spanning_tree_count(g)
        assert builds == [g]
        lap = graphs.graph_laplacian(g)
        assert builds == [g] and graphs.graph_laplacian(g) is lap
        assert not lap.flags.writeable
        assert lap.tobytes() == reference_laplacian(g).tobytes()
        assert det_graph == float(np.linalg.det(
            reference_laplacian(g)[np.ix_(interior, interior)]))
        assert trees == reference_spanning_tree_count(g)


def test_soup_model_is_reused_for_an_equal_graph():
    graphs.sample_loop_soup(graphs.grid_graph(3), 1.0, 7, 1)
    hits = graphs._soup_model.cache_info().hits
    graphs.sample_loop_soup(graphs.grid_graph(3), 2.0, 7, 2)
    assert graphs._soup_model.cache_info().hits == hits + 1


def test_soup_failures_are_not_cached():
    g = Graph(3, [(1, 2)], [2])  # interior vertex 0 is isolated
    for seed in range(3):
        with pytest.raises(ValueError, match="undefined transition"):
            graphs.sample_loop_soup(g, 1.0, 5, seed)


def test_edge_list_round_trip():
    g = graphs.grid_graph(2)
    text = graphs.write_edge_list(g)
    g2 = graphs.read_edge_list(text)
    assert g2.edges == g.edges
    assert g2.boundary == g.boundary
    with pytest.raises(ValueError, match="bad edge line"):
        graphs.read_edge_list("0 1 2\n")


_VERTEX = st.integers(-3, 40)
_EDGE_LINE = st.builds("{} {}".format, _VERTEX, _VERTEX)
_BOUNDARY_LINE = st.lists(_VERTEX, max_size=4).map(
    lambda vs: "# boundary: " + " ".join(map(str, vs)))


@given(st.lists(st.one_of(_EDGE_LINE, _BOUNDARY_LINE, st.text(max_size=12)),
                max_size=12).map("\n".join))
def test_read_edge_list_parses_or_raises_value_error(text):
    try:
        g = graphs.read_edge_list(text)
    except ValueError:
        return
    assert graphs.read_edge_list(graphs.write_edge_list(g)).edges == g.edges


_ANY_VERTEX = st.one_of(_VERTEX, st.integers(), st.floats())


@given(st.one_of(st.integers(-2, 30), st.floats(-2, 30)),
       st.lists(st.tuples(_ANY_VERTEX, _ANY_VERTEX), max_size=20),
       st.lists(_ANY_VERTEX, max_size=6))
def test_graph_builds_or_raises_value_error(n, edges, boundary):
    try:
        g = Graph(n, edges, boundary)
    except ValueError:
        ids = [n, *boundary] + [x for e in edges for x in e]
        assert (any(isinstance(x, float) for x in ids) or n <= 0
                or any(u == v or not (0 <= u < n and 0 <= v < n) for u, v in edges)
                or any(not 0 <= b < n for b in boundary))
        return
    assert g.edges == tuple((min(u, v), max(u, v)) for u, v in edges)
    assert g.boundary == frozenset(boundary)
    assert int(g.degrees.sum()) == 2 * len(edges)


def test_grid_graph_shape():
    g = graphs.grid_graph(3)
    assert g.vertex_count == 25
    assert len(g.interior) == 9
    p = graphs.transition_matrix(g)
    assert p.shape == (9, 9)
    assert graphs.spectral_radius_bound(p) < 1.0


def all_boundary_graph():
    # every vertex absorbs, so the killed walk has an empty interior
    return Graph(3, [(0, 1), (1, 2)], [0, 1, 2])


def test_empty_interior_has_no_loops():
    g = all_boundary_graph()
    assert graphs.loop_mass_exact(g) == 0.0
    for max_len in (1, 12, 40):
        mass, tail = graphs.loop_mass_truncated(g, max_len)
        assert (mass, tail) == (0.0, 0.0)
        assert math.copysign(1.0, mass) == math.copysign(1.0, tail) == 1.0
    for seed in range(5):
        soup = graphs.sample_loop_soup(g, 2.0, 12, seed)
        assert soup == graphs.LoopSoupSample((), False)
    assert graphs.determinant_identity(g) == (1.0, 1.0, 1.0)
    assert graphs.spanning_tree_count(g) == 1
    assert graphs.spanning_tree_count(Graph(1, [])) == 1


def test_empty_interior_takes_any_max_len_at_once():
    # the powers budget refuses no max_len when n = 0: none may cost a power
    g = all_boundary_graph()
    big = 1 << 63
    assert graphs.loop_mass_truncated(g, big) == (0.0, 0.0)
    assert graphs.sample_loop_soup(g, 2.0, big, 0) == graphs.LoopSoupSample((), False)


def test_criterion_1_checks_the_shipped_spectral_radius_bound(monkeypatch):
    # a walk model whose rho is half the certified one gives tail bounds the
    # series breaks; the gate must see the bound the library ships
    real = graphs._killed_walk

    def halved(g):
        walk = copy.copy(real(g))
        walk.rho /= 2.0
        return walk

    monkeypatch.setattr(graphs, "_killed_walk", halved)
    passed, detail = acceptance.criterion_1()
    assert not passed
    assert detail.startswith("tail bound violated on corpus graph")
