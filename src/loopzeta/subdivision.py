"""Dyadic square subdivision driven by quantum size A_h(S) = e^{h_S/Q} |S|.

Starting from the unit square, any square whose quantum size exceeds epsilon
is replaced by its four dyadic children; the surviving squares are the
maximal ones with A_h at most epsilon. For matter central charge c > 1 the
recursion need not terminate, so a depth cap flags over-threshold squares
instead of refining past the grid resolution. `subdivide` tests each
level one memory block of squares (`_blocks`) at a time, and writes a cap
level of more than one block straight into the partition's columns, so a
capped run holds little more than the partition it returns. Both output
formats, the CSV rows of `_csv_chunks` and the SVG rects of `_svg_chunks`,
are streamed one memory block of squares at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _blocks
from .gff import GridField, _square_averages, square_average
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
        # gamma^2 - 2 Q gamma + 4 = 0, branch in (0, 2]: Q - sqrt(Q^2 - 4)
        # without its cancellation, as Q^2 - 4 = (1 - c) / 6
        gamma = 4.0 / (q + math.sqrt((1.0 - c) / 6.0))
    return ChargeParams(c=c, Q=q, gamma=gamma)


# offsets of a square's four children, in the order (0,0), (0,1), (1,0), (1,1)
_CHILD_ROWS = np.array([0, 0, 1, 1], dtype=np.int32)
_CHILD_COLS = np.array([0, 1, 0, 1], dtype=np.int32)


class DyadicPartition:
    """Maximal dyadic squares with A_h at most epsilon, held as four columns.

    Square k is [i, i+1] x [j, j+1] / 2^level with level = _levels[k] (int8),
    i = _rows[k] and j = _cols[k] (int32); _flags[k] marks a square kept over
    the threshold at the depth cap. The columns come level by level in the
    order `subdivide` builds them. `canonical_columns` gives them in
    (level, i, j) order, which the CSV rows, the SVG rects and the adjacency
    graph's vertex numbers follow.
    """

    def __init__(self, levels, rows, cols, flags):
        self._levels = np.asarray(levels, dtype=np.int8)
        self._rows = np.asarray(rows, dtype=np.int32)
        self._cols = np.asarray(cols, dtype=np.int32)
        self._flags = np.asarray(flags, dtype=bool)
        self.terminated = not self._flags.any()

    def __len__(self):
        return len(self._levels)

    @property
    def flagged_count(self) -> int:
        return int(self._flags.sum())

    def canonical_order(self) -> np.ndarray:
        """The indices that sort the squares by (level, i, j)."""
        return np.lexsort((self._cols, self._rows, self._levels))

    def canonical_columns(self):
        """(levels, rows, cols, flags) sorted by (level, i, j)."""
        order = self.canonical_order()
        return (self._levels[order], self._rows[order], self._cols[order],
                self._flags[order])

    def level_histogram(self) -> dict:
        """{level: number of squares} over the levels present, in increasing
        order; the int8 levels are >= 0, so a bincount does it without a sort."""
        counts = np.bincount(self._levels).tolist()
        return {l: c for l, c in enumerate(counts) if c}

    def area_check(self) -> bool:
        """Exact area identity via integer arithmetic on levels."""
        if len(self) == 0:
            return False
        top = int(self._levels.max())
        total = sum(4 ** (top - l) * c for l, c in self.level_histogram().items())
        return total == 4**top


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
    scale = ratio if params.gamma is None else ratio ** (1.0 / (params.gamma * params.Q))
    try:  # the threshold, scale times the unit square's A_h = e^{h/Q}
        eps = scale * math.exp(square_average(field, 0, 0, 0) / q_eff)
    except OverflowError:
        eps = math.inf
    if not 0.0 < eps < math.inf:
        raise ValueError("charge %r (Q = %.3g) is too close to 25 for this field: the"
                         " threshold from the unit square's e^{h/Q} leaves the float"
                         " range" % (c, params.Q))
    return subdivide(field, q_eff, eps)


def _small(field: GridField, level: int, ii: np.ndarray, jj: np.ndarray,
           q: float, epsilon: float, out: np.ndarray | None = None) -> np.ndarray:
    """Whether each square (level, ii, jj) has A_h = e^{avg/q} 2^-level <=
    epsilon, into `out` if given. More squares than one memory block
    (`_blocks`) are tested one block at a time, so that no level's averages
    are ever held whole."""
    if len(ii) > _blocks.BLOCK:
        out = np.empty(len(ii), dtype=bool) if out is None else out
        for block in _blocks.row_blocks(len(ii), 1):
            _small(field, level, ii[block], jj[block], q, epsilon, out[block])
        return out
    a = _square_averages(field, level, ii, jj)
    a /= q
    np.exp(a, out=a)
    a *= 2.0**-level
    if out is None:
        return a <= epsilon
    return np.less_equal(a, epsilon, out=out)


def _children(ii: np.ndarray, jj: np.ndarray):
    """The four children of each square (ii, jj), in `_CHILD_ROWS` order."""
    return (2 * ii[:, None] + _CHILD_ROWS).ravel(), (2 * jj[:, None] + _CHILD_COLS).ravel()


def _joined(parts, length: int) -> np.ndarray:
    """A new int32 array of `length` that starts with the parts, one after
    another; the rest is left for the caller to fill."""
    out = np.empty(length, dtype=np.int32)
    np.concatenate(parts, out=out[:sum(map(len, parts))])
    return out


@np.errstate(over="ignore")  # an A_h past the float range is inf, over any epsilon
def subdivide(field: GridField, q: float, epsilon: float) -> DyadicPartition:
    """Refine the unit square until every piece has A_h <= epsilon.

    Levels are processed synchronously; the keep/refine rule is per square,
    tested one memory block of squares at a time. The depth cap is the grid
    resolution, `field.level`: squares still over the threshold there are
    kept flagged. The squares come level by level, each level's kept ones
    in the order their parents were refined, and at the cap its flagged ones
    after its kept ones.

    A cap level of more than one block of squares is never held whole: a
    first pass tests the children of one block of parents at a time into a
    mask, the partition's columns are then allocated once, and a second
    pass builds each block's children again and compresses its kept and
    then its flagged squares straight into their final places. So past the
    field and its prefix sums a capped run holds about 11 bytes a square
    (the partition's 10 and the cap level's parents and mask) and one
    block's temporaries.
    """
    if not (q > 0 and math.isfinite(q)):
        raise ValueError("q must be finite and positive, got %r" % (q,))
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError("epsilon must be finite and positive")
    chunks = []  # (level, rows, cols, flagged?) per processed level
    ii = np.zeros(1, dtype=np.int32)
    jj = np.zeros(1, dtype=np.int32)
    top = field.level
    cap = None  # the cap level's mask of kept squares, when it goes in two passes
    for level in range(top + 1):
        # every array is dropped as soon as it is dead, to keep the peak low
        small = _small(field, level, ii, jj, q, epsilon)
        chunks.append((level, ii[small], jj[small], False))
        big = ~small
        del small
        big_i, big_j = ii[big], jj[big]
        del ii, jj, big
        if level == top:
            chunks.append((level, big_i, big_j, True))
            del big_i, big_j
        elif not len(big_i):
            break
        elif level + 1 < top or 4 * len(big_i) <= _blocks.BLOCK:
            ii, jj = _children(big_i, big_j)
            del big_i, big_j
        else:
            # pass 1 over the cap level: the children of one block of
            # parents at a time, tested into its mask
            parents = _blocks.row_blocks(len(big_i), 4)
            cap = np.empty(4 * len(big_i), dtype=bool)
            for block in parents:
                _small(field, top, *_children(big_i[block], big_j[block]),
                       q, epsilon, cap[4 * block.start:4 * block.stop])
            break

    chunk_levels, rows, cols, chunk_flags = zip(*chunks)
    del chunks  # so that each level's rows and cols go once copied
    lengths = [len(r) for r in rows]
    if cap is None:
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
    else:
        # the columns allocated once, the levels above the cap copied in
        head = sum(lengths)
        kept = int(np.count_nonzero(cap))
        lengths += [kept, len(cap) - kept]
        chunk_levels += (top, top)
        chunk_flags += (False, True)
        rows = _joined(rows, head + len(cap))
        cols = _joined(cols, head + len(cap))
        # pass 2: each block's kept squares, then its flagged ones, in place
        at_kept, at_flagged = head, head + kept
        for block in parents:
            ci, cj = _children(big_i[block], big_j[block])
            mask = cap[4 * block.start:4 * block.stop]
            n = int(np.count_nonzero(mask))
            np.compress(mask, ci, out=rows[at_kept:at_kept + n])
            np.compress(mask, cj, out=cols[at_kept:at_kept + n])
            np.logical_not(mask, out=mask)
            m = len(mask) - n
            np.compress(mask, ci, out=rows[at_flagged:at_flagged + m])
            np.compress(mask, cj, out=cols[at_flagged:at_flagged + m])
            at_kept += n
            at_flagged += m
        del big_i, big_j, cap
    return DyadicPartition(np.repeat(np.array(chunk_levels, dtype=np.int8), lengths),
                           rows, cols,
                           np.repeat(np.array(chunk_flags, dtype=bool), lengths))


def adjacency_graph(partition: DyadicPartition) -> Graph:
    """One vertex per square, numbered in (level, i, j) order; edges between
    squares whose boundaries share a segment of positive length (corner
    contact excluded)."""
    levels, rows, cols, _ = partition.canonical_columns()
    n = len(levels)
    scale = 1 << int(levels.max())
    w = scale >> levels.astype(np.int64)
    # In units of the finest side, sweep the vertical interfaces (x = i w)
    # and then the horizontal ones (x = j w). The squares whose left side
    # lies on x tile the far side of each square whose right side [y, y + w)
    # does, so its neighbours there are one run of the left sides sorted by
    # (x, y0): from the one that contains y to the last one below y + w.
    us, vs = [], []
    for x, y in ((rows * w, cols * w), (cols * w, rows * w)):
        left = x * (scale + 1) + y
        by_left = np.argsort(left)
        left = left[by_left]
        right = (x + w) * (scale + 1) + y
        first = left.searchsorted(right, side="right") - 1
        stop = left.searchsorted(right + w, side="left")
        count = np.where(x + w < scale, stop - first, 0)
        offsets = np.repeat(first - np.cumsum(count) + count, count)
        us.append(np.repeat(np.arange(n), count))
        vs.append(by_left[offsets + np.arange(len(offsets))])
    u, v = np.concatenate(us), np.concatenate(vs)
    keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    return Graph(n, zip((keys // n).tolist(), (keys % n).tolist()))


_PALETTE = ["#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
            "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
            "#2f4b7c", "#a05195", "#d45087", "#f95d6a"]


def _csv_chunks(partition: DyadicPartition):
    """`subdivide`'s CSV in the pieces it is formatted in: the header
    level,i,j,flagged, then one block of rows at a time, in (level, i, j)
    order. Each block is gathered from the partition's columns through the
    sort order, so past the partition only that order is held whole."""
    order = partition.canonical_order()
    columns = partition._levels, partition._rows, partition._cols, partition._flags
    yield "level,i,j,flagged\n"
    for rows in _blocks.row_blocks(len(order), 1):
        block = np.column_stack([c[order[rows]] for c in columns])
        yield ("%d,%d,%d,%d\n" * len(block)) % tuple(block.ravel().tolist())


def render_svg(partition: DyadicPartition) -> str:
    """SVG rendering with squares colored by level, in (level, i, j) order."""
    return "".join(_svg_chunks(partition))


def _svg_chunks(partition: DyadicPartition):
    """`render_svg`'s text in the pieces it is formatted in: the header, one
    block of rects at a time (each rect on a new line), the closing tag."""
    levels, rows, cols, _ = partition.canonical_columns()
    # i 2^-level is (i << (top - level)) 2^-top, so one table of the finest
    # level's formatted coordinates serves every level
    top = int(levels[-1])
    coords = np.array(["%.10g" % (k * 2.0**-top) for k in range(1 << top)],
                      dtype=object)
    # blocks of at most BLOCK squares of one level, each formatted at once
    cuts = np.union1d(np.flatnonzero(np.diff(levels)) + 1,
                      np.arange(_blocks.BLOCK, len(levels), _blocks.BLOCK))
    yield ('<svg xmlns="http://www.w3.org/2000/svg" width="1024" height="1024" '
           'viewBox="0 0 1 1">')
    for block, ii, jj in zip(np.split(levels, cuts), np.split(rows, cuts),
                             np.split(cols, cuts)):
        level = int(block[0])
        side = 2.0**-level
        rect = ('<rect x="%%s" y="%%s" width="%.10g" height="%.10g" '
                'fill="%s" stroke="#000" stroke-width="%.3g"/>'
                % (side, side, _PALETTE[level % len(_PALETTE)], side / 64))
        xy = np.column_stack((coords[ii << top - level], coords[jj << top - level]))
        yield ("\n" + rect) * len(xy) % tuple(xy.ravel().tolist())
    yield "\n</svg>"
