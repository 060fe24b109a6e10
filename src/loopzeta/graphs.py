"""Finite graphs: Laplacians, determinant identities, walk loop measures.

The discrete objects here are the combinatorial Laplacian D - A, the
random-walk Laplacian I - P (killed at boundary vertices), and the loop
measure whose total mass is -log det(I - P). Everything is dense numpy;
graphs of interest stay well under a few thousand vertices. A graph builds
its integer adjacency matrix once, from its edge array, and keeps it
read-only; its degrees are that matrix's row sums.

Every loop quantity of a graph reads one killed-walk model, built once per
graph and cached for the 8 most recently used graphs: the killed transition
matrix P (read-only), the interior map, a certified bound rho on the spectral
radius of P from one symmetric eigensolve, and -log det(I - P). Every reported
P and rho comes from this model. An entry holds the n^2 floats of P for n
interior vertices (6.5 MB for a 900-vertex interior). A walk with an interior
component that no edge joins to the boundary is never killed there; its loop
masses are refused.

Every loop series, the soup's and criterion 1's included, forms its powers
in one place, `_fill_powers`, which writes P^{k+1} = P^k P into the next
matrix of a preallocated (b, n, n) block, and takes their traces with one
`np.trace` call per block; `_loop_series` sums them and `_tail_bound` bounds
the rest. The truncated mass and criterion 1 need only the traces: their
`_power_traces` reuses one memory block of matrices (`_blocks`), or one
n x n matrix where n^2 is larger than the block, so they hold O(n^2)
floats at any max_len: 2 n^2 (13 MB) for a 900-vertex interior, whose
one-matrix block takes each product through numpy's temporary, against
266 MB for the whole table at max_len 40.

Soup draws also read a soup model per (graph, max_len), cached for the 8 most
recently used pairs: the powers P^0..P^max_len, one read-only
(max_len + 1, n, n) array filled as one block, their traces, the root
distribution of each loop length, built the first time a draw needs it, and
a memo of bridge-step distributions. The memo is an LRU cache of rows of n
floats that keeps its most recently used rows: no more floats than the powers
beside it, or one memory block where the powers are smaller, so that a small
graph at a short max_len keeps every row it draws from. A
bridge step whose row the memo holds is a cache lookup and a C bisect of one
uniform of the draw's per-length block.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _blocks


def _integer(x) -> int:
    """A vertex id or count: any integer type; a float, even an integral
    one, is refused rather than truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError("vertex ids and counts must be integers, got %r" % (x,)) from None


@dataclass(frozen=True)
class Graph:
    """Undirected multigraph with an optional boundary (killing) set.

    Self-loops are rejected; multi-edges are allowed and add to degrees.
    """

    vertex_count: int
    edges: tuple
    boundary: frozenset = frozenset()

    def __init__(self, vertex_count, edges, boundary=()):
        vertex_count = _integer(vertex_count)
        if vertex_count <= 0:
            raise ValueError("vertex_count must be positive")
        norm = []
        for u, v in edges:
            u, v = _integer(u), _integer(v)
            if u == v:
                raise ValueError("self-loops are not allowed")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError("edge endpoint out of range")
            norm.append((min(u, v), max(u, v)))
        bset = frozenset(_integer(b) for b in boundary)
        if any(not 0 <= b < vertex_count for b in bset):
            raise ValueError("boundary vertex out of range")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "boundary", bset)

    @functools.cached_property
    def _adjacency(self):
        """The integer adjacency matrix, built once per graph from its edge
        array and read-only."""
        n = self.vertex_count
        u, v = np.array(self.edges, dtype=np.int64).reshape(-1, 2).T
        a = np.bincount(u * n + v, minlength=n * n).reshape(n, n).astype(np.int64, copy=False)
        a = a + a.T
        a.flags.writeable = False
        return a

    @functools.cached_property
    def _laplacian(self):
        """The float combinatorial Laplacian D - A, built once per graph and
        read-only."""
        a = self._adjacency
        lap = np.diag(a.sum(axis=1)) - a.astype(float)
        lap.flags.writeable = False
        return lap

    @property
    def degrees(self):
        return self._adjacency.sum(axis=1)

    @property
    def interior(self):
        return [v for v in range(self.vertex_count) if v not in self.boundary]

    @property
    def is_killed(self):
        return bool(self.boundary)

    def adjacency(self):
        return self._adjacency


def graph_laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian D - A on all vertices, read-only: the graph's
    one copy, which its callers slice."""
    return g._laplacian


def transition_matrix(g: Graph) -> np.ndarray:
    """Killed transition matrix P on the interior index set.

    P_{xy} = (#edges x-y)/deg(x); steps into the boundary are dropped, which
    is what kills the walk.
    """
    interior = g.interior
    deg = g.degrees
    for v in interior:
        if deg[v] == 0:
            raise ValueError("undefined transition: isolated interior vertex %d" % v)
    return g.adjacency()[np.ix_(interior, interior)] / deg[interior][:, None]


def _slogdet(m: np.ndarray) -> float:
    sign, logabs = np.linalg.slogdet(m)
    if sign <= 0:
        return -math.inf if sign == 0 else math.nan
    return logabs


def determinant_identity(g: Graph):
    """(det interior graph-Laplacian minor, det(I-P), product of interior
    degrees); the first equals the product of the last two."""
    interior = g.interior
    det_graph, det_rw = 0.0, 0.0
    if g.is_killed:
        lap = graph_laplacian(g)[np.ix_(interior, interior)]
        det_graph = float(np.linalg.det(lap))
        walk = _killed_walk(g)
        det_rw = float(np.linalg.det(np.eye(walk.n) - walk.p))
    degree_product = float(np.prod(g.degrees[interior].astype(float)))
    return det_graph, det_rw, degree_product


def spectral_radius_bound(p: np.ndarray) -> float:
    """Certified upper bound on the spectral radius of the nonnegative matrix
    P: 200 power iterations to approach the Perron vector, then the row-max
    Collatz-Wielandt quotient, padded by 1e-12.

    The step x -> (P x) / max(P x) is a fixed function of x in floating
    point, so once an iterate repeats bit for bit, at step k of one first
    seen at step f, the iterates are periodic with period k - f from step f
    on, and none of the remaining steps can take the norm == 0 exit. The
    200th iterate is then the one at step f + (200 - f) % (k - f), and the
    loop stops there: the bound is == to the full 200 steps."""
    n = len(p)
    if n == 0:
        return 0.0
    x = np.ones(n) / n
    history = [x]
    first_seen = {x.tobytes(): 0}
    for k in range(1, 201):
        y = p @ x
        norm = y.max()
        if norm == 0:
            return 1e-12
        x = y / norm
        f = first_seen.setdefault(x.tobytes(), k)
        if f != k:
            x = history[f + (200 - f) % (k - f)]
            break
        history.append(x)
    x = np.maximum(x, 1e-300)
    quotients = (p @ x) / x
    return float(quotients.max()) + 1e-12


# Each cached walk model holds the n^2 floats of P, and each cached soup model
# its powers and a step memo of no more floats, or of one memory block where
# the powers are smaller, so the caches keep only a few graphs: enough for
# the graphs a run draws from repeatedly, while one-off graphs age out.
_MODEL_CACHE_SIZE = 8
# most matrix entries the powers P^0..P^max_len of one loop computation may
# take, (max_len + 1) n^2 for n interior vertices: 2^26 floats are 512 MB
_POWERS_BUDGET = 1 << 26
# most loop vertices, c sum_{k<=max_len} tr(P^k), one soup draw may expect:
# `soup-sample` at the budget takes about 3 s and 180 MB on 2 cores
_SOUP_BUDGET = 10**6


def _check_max_len(g: Graph, max_len: int) -> None:
    """Refuse max_len < 1, and a max_len whose powers of P would exceed
    _POWERS_BUDGET entries, before any power is formed."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    n = g.vertex_count - len(g.boundary)
    if (max_len + 1) * n * n > _POWERS_BUDGET:
        raise ValueError(
            "max_len %d is too long for %d interior vertices: the powers of P"
            " would exceed the budget of %d matrix entries"
            % (max_len, n, _POWERS_BUDGET))


class _KilledWalk:
    """What every loop quantity of g shares: the killed transition matrix P
    (read-only), the interior map, a certified bound rho on the spectral
    radius of P, and the total loop mass -log det(I - P), which is inf when
    rho >= 1 - 1e-12 (the walk is not transient)."""

    def __init__(self, g: Graph):
        p = transition_matrix(g)
        p.flags.writeable = False
        n = len(p)
        self.p = p
        self.interior = g.interior
        self.n = n
        if n == 0:
            self.rho, self.mass = 0.0, 0.0
            return
        # P = D^-1 A is reversible, so S = D^-1/2 A D^-1/2, entrywise
        # sqrt(P_xy P_yx), is symmetric with the spectrum of P. Forming S
        # costs 3 eps relative per entry of a nonnegative matrix, so at most
        # 3 eps ||S||_2; eigvalsh is backward stable, within p(n) eps ||S||_2
        # with p(n) a modest function of n, taken here as n^2 (LAPACK Users'
        # Guide, section 4.7). ||S||_2 = rho(P) <= 1 as P is substochastic.
        # The 1e-12 is spectral_radius_bound's pad.
        lam = np.linalg.eigvalsh(np.sqrt(p * p.T))
        pad = (n * n + 3) * np.finfo(float).eps + 1e-12
        self.rho = float(max(-lam[0], lam[-1])) + pad
        self.mass = -_slogdet(np.eye(n) - p) if self.rho < 1.0 - 1e-12 else math.inf


_killed_walk = functools.lru_cache(maxsize=_MODEL_CACHE_SIZE)(_KilledWalk)


def _transient_walk(g: Graph) -> _KilledWalk:
    """The killed-walk model of g, refusing closed graphs and walks that are
    not transient."""
    if not g.is_killed:
        raise ValueError("loop mass diverges without a boundary")
    walk = _killed_walk(g)
    if walk.mass == math.inf:
        raise ValueError("non-transient walk: spectral radius >= 1")
    return walk


def loop_mass_exact(g: Graph) -> float:
    """Total mass of the rooted loop measure, -log det(I - P)."""
    return _transient_walk(g).mass


def _fill_powers(prev: np.ndarray, p: np.ndarray, block: np.ndarray) -> None:
    """block[i] = prev P^{i+1} for each n x n matrix of the block, each the
    one before times P: the one place that forms P^{k+1} = P^k P."""
    for out in block:
        prev = np.matmul(prev, p, out=out)


def _power_traces(p: np.ndarray, max_len: int) -> np.ndarray:
    """tr(P^1), ..., tr(P^max_len), in O(n^2) memory: the powers are filled
    into one reused row block of n x n matrices, at least one matrix, and
    traced with one call per block."""
    n = len(p)
    blocks = _blocks.row_blocks(max_len, n * n)
    block = np.empty((blocks[0].stop, n, n))
    traces = np.empty(max_len)
    prev = np.eye(n)
    for rows in blocks:
        part = block[:rows.stop - rows.start]
        _fill_powers(prev, p, part)
        traces[rows] = np.trace(part, axis1=1, axis2=2)
        prev = part[-1]
    return traces


def _loop_series(traces) -> np.ndarray:
    """Partial sums of tr(P^k)/k, added in order, from tr(P^1), tr(P^2), ..."""
    return np.cumsum(traces / np.arange(1, len(traces) + 1))


def _tail_bound(n: int, rho: float, max_len):
    """Rigorous bound n rho^{L+1}/((L+1)(1-rho)) on the tail past L = max_len."""
    return n * rho ** (max_len + 1) / ((max_len + 1) * (1.0 - rho))


def loop_mass_truncated(g: Graph, max_len: int):
    """(sum_{k<=max_len} tr(P^k)/k, `_tail_bound` of the rest)."""
    _check_max_len(g, max_len)
    walk = _transient_walk(g)
    p, n, rho = walk.p, walk.n, walk.rho
    if n == 0:  # no loops; the budget gate bounds no max_len when n = 0
        return 0.0, 0.0
    mass = _loop_series(_power_traces(p, max_len))[-1]
    return float(mass), float(_tail_bound(n, rho, max_len))


def penalized_loop_mass(g: Graph, alpha: float) -> float:
    """-log det(I - alpha P): mass of loops surviving per-step killing with
    probability alpha. Valid on closed graphs too."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    p = _killed_walk(g).p
    if len(p) == 0:
        return 0.0
    return -_slogdet(np.eye(len(p)) - alpha * p)


def log_det_prime_rw(g: Graph) -> float:
    """log of the product of nonzero eigenvalues of I - P on a closed
    connected graph (the modified determinant)."""
    if g.is_killed:
        raise ValueError("modified determinant is for closed graphs")
    p = _killed_walk(g).p
    eig = np.linalg.eigvals(np.eye(len(p)) - p)
    eig = np.sort(eig.real)
    if eig[0] > 1e-10 or (len(eig) > 1 and eig[1] < 1e-10):
        raise ValueError("expected a simple zero eigenvalue (connected graph)")
    return float(np.sum(np.log(eig[1:])))


def _exact_det(m: np.ndarray) -> int:
    """Determinant of a symmetric positive semidefinite integer matrix by
    fraction-free (Bareiss) elimination on Python ints.

    Step k leaves the leading minor D_{k+1} as its pivot. Elimination keeps
    the band |i - j| <= b of the matrix, so step k updates only rows
    k+1..k+b and columns k+1..k+2b; each row below the band would only be
    rescaled, by a product that telescopes to the leading minor D_k it takes
    on entering the band. A zero pivot means a singular semidefinite matrix.
    """
    n = len(m)
    rows, cols = np.nonzero(m)
    b = int(np.abs(rows - cols).max(initial=0))
    m = m.astype(np.int64).astype(object)
    prev = 1
    for k in range(n):
        if k + b < n:
            m[k + b, k:k + 2 * b + 1] *= prev
        pivot = m[k, k]
        if pivot == 0:
            return 0
        r, c = slice(k + 1, k + b + 1), slice(k + 1, k + 2 * b + 1)
        m[r, c] = (m[r, c] * pivot - np.multiply.outer(m[r, k], m[k, c])) // prev
        prev = pivot
    return int(prev)


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees via the matrix-tree theorem; 0 if disconnected.

    The float determinant of the Laplacian minor is rounded while it is below
    2^40; its relative error, up to 2e-14 on graphs of up to 40 vertices,
    already rounds to wrong integers from about 5e13. Larger counts are
    exact, by `_exact_det`, whose cost grows as n b^2 for n vertices and b
    the bandwidth of their numbering. On 2 cores it takes 0.01 s for
    grid_graph(8), 0.2 s for grid_graph(16) and 8 s for grid_graph(30)
    (plain Bareiss: 0.07 s, 2.3 s and about 45 s), and 1.5 s for the dense
    complete graph on 150 vertices.
    """
    minor = graph_laplacian(g)[1:, 1:]
    with np.errstate(over="ignore"):
        det = float(np.linalg.det(minor))
    if not abs(det) < 2.0**40:
        return _exact_det(minor)
    count = round(det)
    if abs(det - count) > 1e-6 * max(1.0, abs(det)):
        raise ArithmeticError("matrix-tree determinant is not near an integer")
    return int(count)


@dataclass(frozen=True)
class LoopSoupSample:
    loops: tuple
    tail_warning: bool = False


def _cdf(w: np.ndarray) -> np.ndarray:
    """The normalized cumulative distribution that Generator.choice(p=w/w.sum())
    searches, with its ValueError on weights that do not normalize."""
    total = w.sum()
    if not 0.0 < total < math.inf:
        raise ValueError("probabilities contain NaN")
    cdf = (w / total).cumsum()
    cdf /= cdf[-1]
    return cdf


class _SoupModel:
    """What every soup draw on (g, max_len) shares: the killed walk, the
    powers P^0..P^max_len, their traces and sum, the truncation flag, the
    root distributions and a memo of bridge steps. The powers are one
    read-only (max_len + 1, n, n) array, (max_len + 1) n^2 floats, that
    `_fill_powers` fills after P^0 = I; their traces come from one
    `np.trace` call. Each row is a memoryview of a `_cdf` array, which
    `bisect.bisect_right` searches with the float64 comparisons of
    `searchsorted(side="right")`, the search Generator.choice makes.

    `root_cdf(k)` is the root distribution of loop length k, the `_cdf` of
    the diagonal of P^k, built the first time a draw asks for it; a draw
    asks only for lengths with nonzero trace (odd k on a bipartite graph
    has a zero diagonal and no root distribution).

    The memo, `step_cdf(cur, m, root)`, is the step distribution from cur
    with m steps left back to root, the `_cdf` of p[cur] * (P^m)[:, root]. It
    is an LRU cache of at most max((max_len + 1) n, BLOCK // n) rows of n
    floats, no more than the powers beside it or one memory block
    (`_blocks`), whichever is more, that keeps its most recently used rows:
    grid_graph(4) at max_len 12 keeps all of its n^2 (max_len - 1) = 2816
    possible rows. A row that `_cdf` refuses is not cached."""

    def __init__(self, g: Graph, max_len: int):
        self.walk = walk = _killed_walk(g)
        if walk.n == 0:  # no loops; the budget gate bounds no max_len when n = 0
            return
        self.powers = powers = np.empty((max_len + 1, walk.n, walk.n))
        powers[0] = np.eye(walk.n)
        _fill_powers(powers[0], walk.p, powers[1:])
        powers.flags.writeable = False
        self.traces = np.trace(powers, axis1=1, axis2=2)
        # the expected number of loop vertices of a soup at intensity 1
        self.loop_vertices = float(self.traces[1:].sum())
        self.root_cdf = functools.cache(
            lambda k: memoryview(_cdf(np.diag(powers[k]).copy())))
        rows = max((max_len + 1) * walk.n, _blocks.BLOCK // walk.n)
        self.step_cdf = functools.lru_cache(maxsize=rows)(
            lambda cur, m, root: memoryview(_cdf(walk.p[cur] * powers[m][:, root])))

        total = walk.mass
        truncated = _loop_series(self.traces[1:])[-1]
        self.tail_warning = bool(total == math.inf
                                 or total - truncated > 1e-6 * max(total, 1e-300))


_soup_model = functools.lru_cache(maxsize=_MODEL_CACHE_SIZE)(_SoupModel)


def sample_loop_soup(g: Graph, c: float, max_len: int, seed: int) -> LoopSoupSample:
    """Poissonian soup of rooted discrete loops at intensity c.

    Loop counts of length k are Poisson(c tr(P^k)/k); conditioned on length,
    the root is drawn proportional to (P^k)_{xx} and the path is a Markov
    bridge back to the root.

    The draw reads the graph's cached killed-walk model (P, the interior map,
    the spectral-radius bound and -log det(I - P); n^2 floats for n interior
    vertices, shared with `loop_mass_exact` and the other loop quantities).
    The powers of P, their traces, the truncation flag, the root
    distributions and the memo of bridge steps belong to a model built once
    per (graph, max_len) and cached for the 8 most recently used pairs; a
    root distribution is built the first time a draw needs its length. The
    powers are one read-only (max_len + 1, n, n) array filled in place, each
    the one before times P, and traced with one call. Each entry holds
    (max_len + 1) n^2 floats of powers, e.g. 26 KB for a 16-vertex interior
    at max_len 12, and a memo of step rows that keeps its most recently used
    rows (see `_SoupModel`), 4096 rows of 16 floats (512 KB) in that example. The
    flag is set when the truncation misses more than 1e-6 of the total mass,
    and always when the walk is not transient, so that the mass is infinite.

    A draw only consumes the Philox stream of its seed: for each length k
    with a positive mean, one Poisson count, then one block of count * k
    uniforms, k per loop (the root, then its k - 1 bridge steps), the doubles
    that as many scalar draws would give. A max_len whose powers would exceed
    `_POWERS_BUDGET` entries is refused before the model is built, and an
    intensity whose expected loop vertices c sum_{k<=max_len} tr(P^k) exceed
    `_SOUP_BUDGET` before anything is drawn.
    """
    _check_max_len(g, max_len)
    if not 0.0 < c < math.inf:
        raise ValueError("intensity must be positive and finite")
    if not g.is_killed:
        raise ValueError("loop soup requires a killed graph")
    model = _soup_model(g, max_len)
    rng = np.random.Generator(np.random.Philox(seed))
    if model.walk.n == 0:
        return LoopSoupSample(())
    if c * model.loop_vertices > _SOUP_BUDGET:
        raise ValueError(
            "intensity %g is too high for this graph at max_len %d: the soup"
            " would draw about %.3g loop vertices, past the budget of %d loop"
            " vertices" % (c, max_len, c * model.loop_vertices, _SOUP_BUDGET))
    interior, root_cdf, step_cdf = model.walk.interior, model.root_cdf, model.step_cdf

    loops = []
    for k in range(1, max_len + 1):
        mean = c * model.traces[k] / k
        if mean <= 0:
            continue
        count = rng.poisson(mean)
        if not count:
            continue
        uniforms = memoryview(rng.random(count * k))
        roots = root_cdf(k)
        for i in range(0, count * k, k):
            root = cur = bisect.bisect_right(roots, uniforms[i])
            path = [root]
            for j in range(1, k):
                cur = bisect.bisect_right(step_cdf(cur, k - j, root), uniforms[i + j])
                path.append(cur)
            loops.append(tuple(interior[v] for v in path) + (interior[root],))
    return LoopSoupSample(tuple(loops), model.tail_warning)


def read_edge_list(text: str) -> Graph:
    """Parse the edge-list format: one "u v" pair per line and an optional
    "# boundary: i j k" header."""
    boundary = []
    edges = []
    max_v = -1
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("boundary:"):
                boundary = [int(tok) for tok in body[len("boundary:"):].split()]
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError("bad edge line: %r" % line)
        u, v = int(parts[0]), int(parts[1])
        edges.append((u, v))
        max_v = max(max_v, u, v)
    max_v = max(max_v, max(boundary, default=-1))
    return Graph(max_v + 1, edges, boundary)


def write_edge_list(g: Graph) -> str:
    lines = []
    if g.boundary:
        lines.append("# boundary: " + " ".join(str(b) for b in sorted(g.boundary)))
    lines.extend("%d %d" % (u, v) for u, v in g.edges)
    return "\n".join(lines) + "\n"


def grid_graph(side: int) -> Graph:
    """(side+2) x (side+2) square lattice whose outer ring is boundary; the
    interior is a side x side Dirichlet grid."""
    m = side + 2
    idx = lambda i, j: i * m + j
    edges = []
    for i in range(m):
        for j in range(m):
            if i + 1 < m:
                edges.append((idx(i, j), idx(i + 1, j)))
            if j + 1 < m:
                edges.append((idx(i, j), idx(i, j + 1)))
    boundary = [idx(i, j) for i in range(m) for j in range(m)
                if i in (0, m - 1) or j in (0, m - 1)]
    return Graph(m * m, edges, boundary)
