"""Dyadic square subdivision driven by quantum size A_h(S) = e^{h_S/Q} |S|.

Starting from the unit square, any square whose quantum size exceeds epsilon
is replaced by its four dyadic children; the surviving squares are the
maximal ones with A_h at most epsilon. For matter central charge c > 1 the
recursion need not terminate, so a depth cap flags over-threshold squares
instead of refining past the grid resolution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gff import GridField, _square_averages
from .graphs import Graph


@dataclass(frozen=True)
class ChargeParams:
    """Matter central charge c < 25 with background charge Q = sqrt((25-c)/6)
    and, for c <= 1, the coupling gamma in (0, 2] with gamma/2 + 2/gamma = Q."""

    c: float
    Q: float
    gamma: float | None

    def __post_init__(self):
        if abs(self.c - (25.0 - 6.0 * self.Q**2)) > 1e-12 * max(1.0, abs(self.c)):
            raise ValueError("inconsistent (c, Q)")


def charge_to_params(c: float) -> ChargeParams:
    if not math.isfinite(c):
        raise ValueError("central charge must be finite")
    if c >= 25.0:
        raise ValueError("Q undefined for c >= 25")
    q = math.sqrt((25.0 - c) / 6.0)
    gamma = None
    if c <= 1.0:
        # gamma^2 - 2 Q gamma + 4 = 0, branch in (0, 2]
        gamma = q - math.sqrt(q * q - 4.0)
    return ChargeParams(c=c, Q=q, gamma=gamma)


# offsets of a square's four children, in the order (0,0), (0,1), (1,0), (1,1)
_CHILD_ROWS = np.array([0, 0, 1, 1], dtype=np.int32)
_CHILD_COLS = np.array([0, 1, 0, 1], dtype=np.int32)


@dataclass(frozen=True, order=True)
class DyadicSquare:
    level: int
    i: int
    j: int

    def __post_init__(self):
        if self.level < 0 or not (0 <= self.i < 1 << self.level
                                  and 0 <= self.j < 1 << self.level):
            raise ValueError("square outside the unit square")

    @property
    def side(self) -> float:
        return 2.0 ** -self.level

    def children(self):
        l, i, j = self.level + 1, 2 * self.i, 2 * self.j
        return [DyadicSquare(l, i + a, j + b) for a in (0, 1) for b in (0, 1)]


class DyadicPartition:
    """Maximal dyadic squares with A_h at most epsilon, stored column-wise
    (levels/rows/cols arrays) so that capped runs with millions of squares
    stay affordable; `squares`/`flagged` materialize object sets on demand."""

    def __init__(self, levels, rows, cols, flags, terminated, depth_cap):
        self._levels = np.asarray(levels, dtype=np.int8)
        self._rows = np.asarray(rows, dtype=np.int32)
        self._cols = np.asarray(cols, dtype=np.int32)
        self._flags = np.asarray(flags, dtype=bool)
        self.terminated = bool(terminated)
        self.depth_cap = int(depth_cap)

    def __len__(self):
        return len(self._levels)

    @property
    def flagged_count(self) -> int:
        return int(self._flags.sum())

    @functools.cached_property
    def squares(self) -> frozenset:
        return frozenset(
            DyadicSquare(int(l), int(i), int(j))
            for l, i, j in zip(self._levels, self._rows, self._cols)
        )

    @functools.cached_property
    def flagged(self) -> frozenset:
        f = self._flags
        return frozenset(
            DyadicSquare(int(l), int(i), int(j))
            for l, i, j in zip(self._levels[f], self._rows[f], self._cols[f])
        )

    def level_histogram(self) -> dict:
        levels, counts = np.unique(self._levels, return_counts=True)
        return {int(l): int(c) for l, c in zip(levels, counts)}

    def area_check(self) -> bool:
        """Exact area identity via integer arithmetic on levels."""
        if len(self) == 0:
            return False
        top = int(self._levels.max())
        total = sum(4 ** (top - l) * c for l, c in self.level_histogram().items())
        return total == 4**top


def quantum_size(field: GridField, q: float, square: DyadicSquare) -> float:
    """A_h(S) = e^{h_S/Q} times the side length of S."""
    avg = _square_averages(field, square.level,
                           np.array([square.i]), np.array([square.j]))[0]
    return math.exp(avg / q) * square.side


def regime_protocol(field: GridField, c: float,
                    ratio: float = 2.0**-12) -> DyadicPartition:
    """Desk-scale subdivision protocol reproducing the finite/infinite regime
    dichotomy (termination for c <= 1, depth-cap hits for c in (1, 25)).

    Two conventions differ from the raw quantum-size threshold, both needed
    for the dichotomy to be visible at all above a dyadic grid's shallow
    depth cap (the raw protocol hits thick points of the field and caps for
    every c; the crossing depth for c = 0 is near level 175):

    * the field enters in the common simulation normalization with unit
      coefficient variance w.r.t. the un-normalized lattice Dirichlet energy,
      i.e. scaled by (2 pi)^-1/2 relative to `sample_dgff`'s covariance;
    * the ratio is read in quantum-area units when the area exponent
      gamma*Q exists (c <= 1), and in quantum-size units otherwise.
    """
    if not (ratio > 0 and math.isfinite(ratio)):
        raise ValueError("ratio must be finite and positive, got %r" % (ratio,))
    params = charge_to_params(c)
    q_eff = params.Q * math.sqrt(2.0 * math.pi)  # equivalently cool the field
    root = quantum_size(field, q_eff, DyadicSquare(0, 0, 0))
    if params.gamma is not None:
        eps = ratio ** (1.0 / (params.gamma * params.Q)) * root
    else:
        eps = ratio * root
    return subdivide(field, q_eff, eps)


def subdivide(field: GridField, q: float, epsilon: float,
              depth_cap: int | None = None, order: str = "scan") -> DyadicPartition:
    """Refine the unit square until every piece has A_h <= epsilon.

    Levels are processed synchronously with vectorized averages; within a
    level the processing order is immaterial (the keep/refine rule is
    per-square), which the `order` switch makes testable.
    """
    if not (q > 0 and math.isfinite(q)):
        raise ValueError("q must be finite and positive, got %r" % (q,))
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError("epsilon must be finite and positive")
    if order not in ("scan", "reverse"):
        raise ValueError("order must be 'scan' or 'reverse'")
    cap = field.level if depth_cap is None else depth_cap
    if isinstance(cap, bool) or not isinstance(cap, (int, np.integer)) \
            or not 0 <= cap <= field.level:
        raise ValueError("depth cap must be an int in [0, %d] (the grid "
                         "resolution), got %r" % (field.level, depth_cap))

    chunks = []  # (level, rows, cols, flagged?) per processed level
    ii = np.array([0], dtype=np.int32)
    jj = np.array([0], dtype=np.int32)
    level = 0
    while len(ii):
        # A_h = exp(avg / q) * side, in place to keep deep levels' peak low
        a = _square_averages(field, level, ii, jj)
        a /= q
        np.exp(a, out=a)
        a *= 2.0**-level
        small = a <= epsilon
        del a
        if order == "reverse":
            sel = np.argsort(-(ii * (1 << level) + jj), kind="stable")
            ii, jj, small = ii[sel], jj[sel], small[sel]
        chunks.append((level, ii[small], jj[small], False))
        big_i, big_j = ii[~small], jj[~small]
        if level == cap:
            chunks.append((level, big_i, big_j, True))
            break
        ii = (2 * big_i[:, None] + _CHILD_ROWS).ravel()
        jj = (2 * big_j[:, None] + _CHILD_COLS).ravel()
        level += 1

    levels = np.concatenate([np.full(len(r), l, dtype=np.int8)
                             for l, r, _, _ in chunks])
    rows = np.concatenate([r for _, r, _, _ in chunks])
    cols = np.concatenate([c for _, _, c, _ in chunks])
    flags = np.concatenate([np.full(len(r), fl, dtype=bool)
                            for l, r, _, fl in chunks])
    return DyadicPartition(levels, rows, cols, flags,
                           terminated=not flags.any(), depth_cap=cap)


def adjacency_graph(partition: DyadicPartition) -> Graph:
    """One vertex per square; edges between squares whose boundaries share a
    segment of positive length (corner contact excluded)."""
    squares = sorted(partition.squares)
    top = max(s.level for s in squares)
    scale = 1 << top
    index = {s: v for v, s in enumerate(squares)}
    edges = set()

    # sweep vertical interfaces: right edge of one square against left edges
    # of others at the same x, overlapping in y; then the transpose for
    # horizontal interfaces
    for axis in (0, 1):
        lo_edges = {}  # x -> list of (y0, y1, vertex) for left/top edges at x
        hi_edges = {}
        for s in squares:
            w = 1 << (top - s.level)
            if axis == 0:
                x0, y0 = s.i * w, s.j * w
            else:
                x0, y0 = s.j * w, s.i * w
            hi_edges.setdefault(x0 + w, []).append((y0, y0 + w, index[s]))
            lo_edges.setdefault(x0, []).append((y0, y0 + w, index[s]))
        for x, rights in hi_edges.items():
            lefts = lo_edges.get(x)
            if not lefts or x == scale:
                continue
            rights.sort()
            lefts.sort()
            for (a0, a1, u) in rights:
                for (b0, b1, v) in lefts:
                    if b0 >= a1:
                        break
                    if min(a1, b1) > max(a0, b0):
                        edges.add((min(u, v), max(u, v)))

    return Graph(len(squares), sorted(edges))


def ball_growth(graph: Graph, root: int, max_radius: int):
    """BFS shell sizes [|sphere(0)|, |sphere(1)|, ...] out to max_radius."""
    if not 0 <= root < graph.vertex_count:
        raise ValueError("root out of range")
    adj = [[] for _ in range(graph.vertex_count)]
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = {root: 0}
    frontier = [root]
    shells = [1]
    for r in range(1, max_radius + 1):
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = r
                    nxt.append(v)
        shells.append(len(nxt))
        frontier = nxt
        if not nxt:
            break
    return shells


_PALETTE = ["#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
            "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
            "#2f4b7c", "#a05195", "#d45087", "#f95d6a"]


def render_svg(partition: DyadicPartition, px: int = 1024) -> str:
    """SVG rendering with squares colored by level."""
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 1 1">' % (px, px)
    ]
    for s in sorted(partition.squares):
        color = _PALETTE[s.level % len(_PALETTE)]
        side = s.side
        parts.append(
            '<rect x="%.10g" y="%.10g" width="%.10g" height="%.10g" '
            'fill="%s" stroke="#000" stroke-width="%.3g"/>'
            % (s.i * side, s.j * side, side, side, color, side / 64)
        )
    parts.append("</svg>")
    return "\n".join(parts)
