"""The three benchmark workloads, as lists of timed operations with checks.

Each workload is built from a workload seed and a scale. An operation (`Op`)
calls loopzeta's public API once (its latency is timed), then runs its
checks against an oracle or a second route (untimed). Checks marked `ref`
have inputs that do not depend on the workload seed; `error_margin` is the
worst of their observed-error/tolerance ratios, so it is comparable across
seeds and commits. Seeded checks count only towards failures.

How many operations a run makes depends on `--seconds` through the nominal
costs below, measured at the benchmark's introduction on a 2-core Xeon
(Python 3.11, numpy 2.4, scipy 1.17) and expressed at reference host speed:
a run's `wall_ref_s` comes out near `--seconds` times the workload's
SHARE, and its time as measured is that times the host's slowdown. The work is a function of the arguments
only, so a faster program finishes the same work sooner.

Each workload marks its stream: the repeated operations whose median and
tail latency it reports. Reference and one-off operations count only in
the total.
"""

from __future__ import annotations

import importlib
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import loopzeta as lz

# the package rebinds `loopzeta.zeta` to the function; reach the module
_zeta_mod = importlib.import_module("loopzeta.zeta")

# nominal costs (s) at reference host speed (hostspeed.py), used only to
# size the work for a given --seconds
SPECTRAL_FIXED_S = 11.6  # criteria 5-14, cold Bessel-zero builds included
SPECTRAL_ROUND_S = 0.20  # one seeded round of the five scaled surfaces
SOUP_CYCLE_S = 0.0158  # six path draws, three grid draws, one one-off graph
FIELDS_FIXED_S = 8.6  # criteria 15, 16 and 18; 16 fills the reweight caches
FIELDS_PASS_S = 4.4  # one field of each large size
FIELDS_SPAN_S = 30.0  # one pass of large fields per this much of a run
REWEIGHT_PAIR_S = 0.0067  # one stream op
# each workload's run length as a share of --seconds: `fields` gets the
# longest, because its stream's slowest calls depend most on the seed (cache
# misses on rare squares), and `soup`, whose thousands of draws are steady
# in a shorter run, the shortest
SHARE = {"spectral": 1.0, "soup": 0.7, "fields": 1.4}

SCALES = {
    "full": {
        "deltas": (0.4, 0.2, 0.1, 0.05),
        "sweeps": True,
        "field_sizes": (4096, 2048),
        "cov_samples": 2000,
        "reweight_grid": 64,
    },
    # seconds-long sizes for the self-test; never used for measurements
    "tiny": {
        "deltas": (0.4, 0.2),
        "sweeps": False,
        "field_sizes": (256, 128),
        "cov_samples": 200,
        "reweight_grid": 16,
    },
}

WORKLOADS = ("spectral", "soup", "fields")


class Checks:
    """Collects the checks of one operation.

    Every check yields (name, ratio, ok, ref); ratio is observed error over
    its tolerance, or None for a yes/no check. `wrong_reference` offsets
    every oracle value, so that a self-test can see the checks fail.
    """

    def __init__(self, wrong_reference: bool = False):
        self.wrong_reference = wrong_reference
        self.items = []

    def close(self, name, observed, reference, tol, ref=False):
        if self.wrong_reference:
            reference = reference + 1.0 + 10.0 * tol
        ratio = abs(observed - reference) / tol
        self.items.append((name, ratio, bool(ratio <= 1.0), ref))

    def at_most(self, name, value, limit, ref=False):
        ratio = value / limit
        self.items.append((name, ratio, bool(value <= limit), ref))

    def at_least(self, name, value, limit, ref=False):
        ratio = limit / value if value > 0 else math.inf
        self.items.append((name, ratio, bool(value >= limit), ref))

    def true(self, name, cond):
        self.items.append((name, None, bool(cond), False))


@dataclass
class Op:
    """One timed call. `run(state)` does the work whose latency is measured;
    `check(result, checks, state)` verifies it; `artifact(result)` returns
    the bytes that the default-seed digest covers (or None)."""

    kind: str
    run: object
    check: object = None
    artifact: object = None
    key: str | None = None
    stream: bool = False  # the median and tail latency are over stream ops only


@dataclass
class Workload:
    name: str
    ops: list
    fingerprint: str  # summary of the generated inputs, for set-up repeats
    cleanup: object = None
    state: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed % 2**64])


def build(workload: str, seed: int, seconds: float, scale: str, scratch: Path) -> Workload:
    cfg = SCALES[scale]
    make = {"spectral": _spectral, "soup": _soup, "fields": _fields}[workload]
    return make(seed, seconds * SHARE[workload], cfg, scratch)


# ---------------------------------------------------------------------------
# spectral: surfaces, zeta, loopmass, lattice (criteria 5-14)
# ---------------------------------------------------------------------------

_ETA_I = math.gamma(0.25) / (2.0 * math.pi**0.75)  # |eta(i)|: unit-torus det


def _log_det_sweep(ops, label, surface, deltas, ref=True, interval_length=None):
    """log_det_zeta at each delta; the last op checks every split gap against
    the summed error estimates (criterion 6)."""
    keys = []
    for d in deltas:
        key = "%s@%g" % (label, d)
        keys.append(key)

        def check(rep, chk, state, d=d, key=key):
            chk.true("finite", math.isfinite(rep.log_det))
            if interval_length is not None:
                chk.close("interval log 2L", rep.log_det,
                          math.log(2.0 * interval_length), 1e-8, ref)
            if key == keys[-1]:
                reps = [state[k] for k in keys]
                for ra, rb in itertools.combinations(reps, 2):
                    chk.at_most("split gap/budget", abs(ra.log_det - rb.log_det),
                                ra.error_estimate + rb.error_estimate, ref)

        ops.append(Op("log_det_zeta", lambda st, s=surface, d=d: lz.log_det_zeta(s, d),
                      check, key=key))
    return keys


def _loop_mass_pair(ops, label, query, ref):
    key = "lm:" + label
    ops.append(Op("loop_mass", lambda st: lz.loop_mass(query), key=key))

    def check(value, chk, state):
        chk.close("loop_mass vs quadrature", value, state[key], 2e-8, ref)

    ops.append(Op("loop_mass_quadrature", lambda st: lz.loop_mass_quadrature(query),
                  check))


def _sweep(ops, kind, fn, xs, final_check):
    """One op per x; the last op runs `final_check(values, chk)`."""
    key = "sweep:%s:%d" % (kind, len(ops))
    for i, x in enumerate(xs):
        last = i == len(xs) - 1

        def check(value, chk, state, i=i, last=last):
            state.setdefault(key, []).append(value)
            chk.true("finite", math.isfinite(value))
            if last:
                final_check(state[key], chk)

        ops.append(Op(kind, lambda st, x=x: fn(x), check))


def _spectral(seed, seconds, cfg, scratch):
    rng = _rng("spectral", seed)
    deltas = cfg["deltas"]
    ops = []
    five = (("interval", lz.IntervalDirichlet(1.0)),
            ("rectangle", lz.RectangleDirichlet(1.0, 1.0)),
            ("torus", lz.FlatTorus(1.0, 1.0)),
            ("sphere", lz.RoundSphere(1.0)),
            ("disk", lz.DiskDirichlet(1.0)))
    # criteria 5 and 6, plus the unit-torus closed form; the first disk
    # determinant pays the cold Bessel-zero build
    for name, surf in five:
        _log_det_sweep(ops, "ref-" + name, surf, deltas,
                       interval_length=1.0 if name == "interval" else None)
        if name == "torus":
            last = ops[-1].check

            def torus_check(rep, chk, state, last=last):
                last(rep, chk, state)
                if rep.delta_split == 0.05:
                    chk.close("unit torus |eta(i)|^4", rep.log_det,
                              4.0 * math.log(_ETA_I), 1e-9, True)
            ops[-1].check = torus_check
    for length in (0.5, 2.0):
        _log_det_sweep(ops, "ref-interval-%g" % length, lz.IntervalDirichlet(length),
                       (0.05,), interval_length=length)
    for name, query in (
        ("interval", lz.LoopMassQuery(lz.IntervalDirichlet(1.0), 0.4)),
        ("disk", lz.LoopMassQuery(lz.DiskDirichlet(1.0), 0.2)),
        ("rectangle", lz.LoopMassQuery(lz.RectangleDirichlet(1.0, 1.5), 0.4, 8.0)),
        ("torus", lz.LoopMassQuery(lz.FlatTorus(1.0, 1.0), 0.4, 8.0)),
        ("sphere", lz.LoopMassQuery(lz.RoundSphere(1.0), 0.4, kappa=0.5)),
    ):
        _loop_mass_pair(ops, "ref-" + name, query, True)
    fixed = []
    if cfg["sweeps"]:
        _spectral_sweeps(fixed)
    # criterion 14 and the lattice-torus command
    for aspect in (1, 2):
        def ct_check(res, chk, state):
            chk.at_most("Cauchy gap", res.cauchy_gap, 1e-3, True)
        fixed.append(Op("constant_term",
                        lambda st, a=aspect: lz.constant_term(lz.standard_sequence(a)),
                        ct_check))
    rho = _log_det_sweep(fixed, "c14-torus-1x2", lz.FlatTorus(1.0, 2.0), (0.05,))
    one = _log_det_sweep(fixed, "c14-torus-1x1", lz.FlatTorus(1.0, 1.0), (0.05,))

    def aspect_check(res, chk, state):
        chk.at_most("aspect residual", abs(res), 1e-3, True)
    fixed.append(Op("aspect_difference_residual", lambda st: lz.aspect_difference_residual(
        2, st[rho[0]].log_det, st[one[0]].log_det), aspect_check))

    # seeded rounds: scaled copies of the five surfaces, checked against the
    # reference determinants by the scaling law log det(sS) = log det(S) -
    # 2 log(s) zeta_S(0), at criterion 13's tolerance. (The split-gap budget
    # is checked on the criterion's surfaces only: it under-reports for
    # spheres of radius other than 1.)
    rounds = max(1, round((seconds - SPECTRAL_FIXED_S) / SPECTRAL_ROUND_S))
    if not cfg["sweeps"]:
        rounds = 1
    shapes, seeded = [], []
    for r in range(rounds):
        scales = (float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.9, 1.1)),
                  float(rng.uniform(0.9, 1.1)), float(rng.uniform(0.9, 1.1)),
                  float(rng.uniform(0.7, 0.9)))
        qv = float(rng.uniform(0.2, 0.8))
        shapes.append(scales + (qv,))
        for (name, unit), scale in zip(five, scales):
            surf = lz.scaled_surface(unit, math.log(scale))
            label = "r%d-%s" % (r, name)
            for d in deltas:
                def check(rep, chk, state, d=d, name=name, unit=unit, scale=scale):
                    expected = (state["ref-%s@%g" % (name, d)].log_det
                                - 2.0 * math.log(scale) * lz.zeta_at_zero(unit))
                    chk.close("scaling law", rep.log_det, expected, 1e-6)
                    if name == "interval":
                        chk.close("interval log 2L", rep.log_det, math.log(2.0 * scale), 1e-8)
                seeded.append(Op("log_det_zeta",
                                 lambda st, s=surf, d=d: lz.log_det_zeta(s, d), check))
            if surf.is_closed:
                query = lz.LoopMassQuery(surf, qv, 8.0 * qv, kappa=0.5)
            else:
                query = lz.LoopMassQuery(surf, qv)
            _loop_mass_pair(seeded, label, query, False)
    # interleave the seeded rounds with criteria 7-14, so that the warm
    # calls that set op_p25_ms span most of the run rather than its end
    for op in seeded:
        op.stream = True
    j = 0
    for i, op in enumerate(seeded):
        while j < len(fixed) and (j + 1) * len(seeded) <= i * (len(fixed) + 1):
            ops.append(fixed[j])
            j += 1
        ops.append(op)
    ops.extend(fixed[j:])
    return Workload("spectral", ops, repr(shapes))


def _spectral_sweeps(ops):
    """Criteria 7-13: zeta(0), the residual sweeps, the weighted-loop zeta
    and the conformal shift, on the criteria's fixed surfaces."""
    five = (lz.IntervalDirichlet(1.0), lz.RectangleDirichlet(1.0, 1.0),
            lz.FlatTorus(1.0, 1.0), lz.RoundSphere(1.0), lz.DiskDirichlet(1.0))
    for surf in five:
        def z0_check(value, chk, state, surf=surf):
            chk.close("Richardson zeta(0)", value, lz.zeta_at_zero(surf), 1e-5, True)
        ops.append(Op("richardson_zeta_at_zero",
                      lambda st, s=surf: lz.richardson_zeta_at_zero(s), z0_check))

    disk, square = lz.DiskDirichlet(1.0), lz.RectangleDirichlet(1.0, 1.0)
    sphere, torus = lz.RoundSphere(1.0), lz.FlatTorus(1.0, 1.0)
    deltas = [float(d) for d in np.geomspace(1e-4, 1e-2, 7)]

    def disk_slope(res, chk):
        chk.close("disk boundary slope", lz.fit_log_slope(deltas, res), 0.5, 0.1, True)
    _sweep(ops, "theorem_residual_boundary",
           lambda d: lz.theorem_residual_boundary(disk, d), deltas, disk_slope)

    def square_bound(res, chk):
        worst = float(np.max(np.abs(res) / np.sqrt(deltas)))
        chk.at_most("square |residual|/sqrt(delta)", worst, 1e-6, True)
    _sweep(ops, "theorem_residual_boundary",
           lambda d: lz.theorem_residual_boundary(square, d), deltas, square_bound)

    closed_deltas = (0.04, 0.02, 0.01, 0.005)

    def sphere_slope(res, chk):
        chk.close("sphere closed slope", lz.fit_log_slope(closed_deltas, res),
                  1.0, 0.15, True)
    _sweep(ops, "theorem_residual_closed",
           lambda d: lz.theorem_residual_closed(sphere, d, 50.0), closed_deltas,
           sphere_slope)

    torus_deltas = (0.01, 0.005)

    def torus_bound(res, chk):
        worst = max(abs(r) / d for r, d in zip(res, torus_deltas))
        chk.at_most("torus |residual|/delta", worst, 1e-6, True)
    _sweep(ops, "theorem_residual_closed",
           lambda d: lz.theorem_residual_closed(torus, d, 50.0), torus_deltas,
           torus_bound)

    for surf, caps, cap_ref in ((torus, (0.05, 0.075, 0.1, 0.125), 0.5),
                                (sphere, (1.0, 1.5, 2.0, 2.5), 10.0)):
        def cap_rate(res, chk, surf=surf, caps=caps):
            decay = [abs(r - res[-1]) for r in res[:-1]]
            rate = -float(np.polyfit(caps, np.log(decay), 1)[0])
            chk.at_least("cap-decay rate", rate, surf.spectral_gap() / 2.0, True)
        _sweep(ops, "theorem_residual_closed",
               lambda c, s=surf: lz.theorem_residual_closed(s, 1e-3, c),
               caps + (cap_ref,), cap_rate)

    kappas = (1e-2, 1e-3, 1e-4, 1e-5)
    for surf in (torus, sphere):
        def decay_check(res, chk):
            res = [abs(r) for r in res]
            chk.at_most("decay residual", res[-1], 1e-3, True)
            chk.true("decay monotone", all(b < a for a, b in zip(res, res[1:])))
        _sweep(ops, "decay_residual",
               lambda k, s=surf: lz.decay_residual(s, 1e-2, k), kappas, decay_check)

    # criterion 12; the disk's eigenvalue zeta (a 2e6 cutoff, ~27 s cold) is
    # replaced by the continued zeta, a second eigenvalue route
    for s in (1.5, 2.0, 3.0):
        ops.append(Op("zeta", lambda st, s=s: lz.zeta(square, s), key="zeta-rect-%g" % s))

        def rect_check(value, chk, state, s=s):
            chk.close("weighted-loop zeta (rectangle)", value,
                      state["zeta-rect-%g" % s], 1e-7, True)
        ops.append(Op("zeta_from_weighted_loops",
                      lambda st, s=s: lz.zeta_from_weighted_loops(square, s), rect_check))
        ops.append(Op("zeta_from_weighted_loops",
                      lambda st, s=s: lz.zeta_from_weighted_loops(disk, s),
                      key="wl-disk-%g" % s))

        def disk_check(value, chk, state, s=s):
            chk.close("weighted-loop zeta (disk)", state["wl-disk-%g" % s], value,
                      1e-7, True)
        ops.append(Op("zeta_continued",
                      lambda st, s=s: _zeta_mod.zeta_continued(disk, s),
                      disk_check))

    # criterion 13
    for surf in (torus, sphere, disk):
        base = "conf-base-%s" % type(surf).__name__
        ops.append(Op("log_det_zeta", lambda st, s=surf: lz.log_det_zeta(s, 0.05),
                      key=base))

        def shift_check(rep, chk, state, surf=surf, base=base):
            predicted = lz.polyakov_alvarez(surf, 0.3, state[base].log_det)
            chk.close("conformal shift", rep.log_det, predicted, 1e-6, True)
        ops.append(Op("log_det_zeta", lambda st, s=surf: lz.log_det_zeta(
            lz.scaled_surface(s, 0.3), 0.05), shift_check))


# ---------------------------------------------------------------------------
# soup: graphs (criteria 1-4, graph-loops and soup-sample)
# ---------------------------------------------------------------------------

_PATH = lz.Graph(4, [(0, 1), (1, 2), (2, 3)], [0, 3])
_PATH_CS = (0.5, 1.0, 2.0)
_GRID_SIDE, _GRID_C = 4, 10.0
_MAX_LEN = 12


def _neighbours(g):
    nb = {v: set() for v in range(g.vertex_count)}
    for u, v in g.edges:
        nb[u].add(v)
        nb[v].add(u)
    return nb


def _check_loops(soup, g, nb, chk):
    """Every loop closes, stays in the interior, steps along edges and is no
    longer than the truncation length."""
    ok = True
    for loop in soup.loops:
        ok &= loop[0] == loop[-1] and 2 <= len(loop) <= _MAX_LEN + 1
        ok &= all(v not in g.boundary for v in loop)
        ok &= all(b in nb[a] for a, b in zip(loop, loop[1:]))
    chk.true("soup loops valid", ok)


def _spanning_by_enumeration(n, edges):
    """Spanning trees by brute force over (n-1)-edge subsets; kept here so
    that the oracle does not depend on the code under test."""
    count = 0
    for subset in itertools.combinations(edges, n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                break
            parent[ru] = rv
        else:
            count += 1
    return count


def _one_off_graph(rng):
    """Random killed graph on 3-7 vertices whose certified spectral radius
    bound is at most 0.9: criterion 1's corpus, capped at 7 vertices so that
    spanning trees can be enumerated."""
    while True:
        n = int(rng.integers(3, 8))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        k = int(rng.integers(1, n - 1))
        boundary = [int(b) for b in rng.choice(n, size=k, replace=False)]
        g = lz.Graph(n, edges, boundary)
        deg = g.degrees
        if not g.interior or any(deg[v] == 0 for v in g.interior):
            continue
        if lz.graphs.spectral_radius_bound(lz.graphs.transition_matrix(g)) <= 0.9:
            return g


def _graph_checks(ref):
    """determinant identity, truncated series within its tail bound, for a
    graph whose quantities were computed by the op (criteria 1-2)."""
    def check(res, chk, state):
        (det_graph, det_rw, deg_prod), exact, (mass, tail) = res[:3]
        rel = abs(det_graph - det_rw * deg_prod) / max(1.0, abs(det_graph))
        chk.close("determinant identity", rel, 0.0, 1e-10, ref)
        chk.at_most("truncated mass vs tail bound", abs(exact - mass), tail + 1e-12, ref)
    return check


def _graph_loops(g, max_len):
    return (lz.determinant_identity(g), lz.loop_mass_exact(g),
            lz.loop_mass_truncated(g, max_len), lz.spanning_tree_count(g))


def _soup(seed, seconds, cfg, scratch):
    rng = _rng("soup", seed)
    cycles = max(20, round(seconds / SOUP_CYCLE_S))
    grid = lz.grid_graph(_GRID_SIDE)
    path_nb, grid_nb = _neighbours(_PATH), _neighbours(grid)
    # drawn cycle by cycle, so that a shorter run's inputs are a prefix
    corpus, grid_seeds, one_off_seeds = [], [], []
    for _ in range(cycles):
        corpus.append(_one_off_graph(rng))
        grid_seeds.append(int(rng.integers(0, 2**40)))
        one_off_seeds.append(int(rng.integers(0, 2**40)))
    ops = []

    def soup_artifact(soup):
        return repr(soup.loops).encode()

    # reference ops: the fixed graphs' own identities (graph-loops)
    for label, g in (("path", _PATH), ("grid", grid)):
        def ref_run(st, g=g, label=label):
            res = _graph_loops(g, 40)
            if label == "path":
                st["lambda"] = res[1]
            return res
        ops.append(Op("graph_loops", ref_run, _graph_checks(True)))

    # draws: criterion 4's path graph at its own seeds (two per intensity
    # per cycle), the grid graph at seeded draws, and one one-off graph
    draws = {c: 0 for c in _PATH_CS}
    n_per_c = 2 * cycles
    for cyc in range(cycles):
        for rep in range(2):
            for idx, c in enumerate(_PATH_CS):
                i = draws[c]
                draws[c] += 1
                last = i == n_per_c - 1

                def path_check(soup, chk, state, c=c, last=last):
                    _check_loops(soup, _PATH, path_nb, chk)
                    empty = state.setdefault("empty", {c: 0 for c in _PATH_CS})
                    empty[c] += not soup.loops
                    if last:  # empty-soup frequency, criterion 4
                        target = math.exp(-c * state["lambda"])
                        se = math.sqrt(target * (1.0 - target) / n_per_c)
                        chk.close("empty-soup frequency c=%g" % c,
                                  empty[c] / n_per_c, target, 3.0 * se, True)
                ops.append(Op("sample_loop_soup", lambda st, c=c, s=400_000 + idx * 100_000 + i:
                              lz.sample_loop_soup(_PATH, c, _MAX_LEN, s),
                              path_check, soup_artifact, stream=True))
        for rep in range(3):
            s = grid_seeds[cyc] + rep
            ops.append(Op("sample_loop_soup",
                          lambda st, s=s: lz.sample_loop_soup(grid, _GRID_C, _MAX_LEN, s),
                          lambda soup, chk, st: _check_loops(soup, grid, grid_nb, chk),
                          soup_artifact, stream=True))
        g = corpus[cyc]

        def one_off(st, g=g, s=one_off_seeds[cyc]):
            return _graph_loops(g, 40) + (lz.sample_loop_soup(g, 1.0, _MAX_LEN, s),)

        def one_off_check(res, chk, state, g=g):
            _graph_checks(False)(res, chk, state)
            chk.true("matrix-tree vs enumeration",
                     res[3] == _spanning_by_enumeration(g.vertex_count, list(g.edges)))
            _check_loops(res[4], g, _neighbours(g), chk)
        ops.append(Op("graph_loops+draw", one_off, one_off_check,
                      lambda res: repr(res[4].loops).encode(), stream=True))
    fingerprint = repr([(g.vertex_count, g.edges, sorted(g.boundary)) for g in corpus]
                       + grid_seeds + one_off_seeds)
    return Workload("soup", ops, fingerprint)


# ---------------------------------------------------------------------------
# fields: gff and subdivision at both working-set sizes. Large fields larger
# than L3 (criterion 17, gff-sample -> subdivide --field) are interleaved
# with a stream of 63^2 reweighting samples that fit in L2, after one cold
# reweighting experiment (criteria 15-16, reweight-test)
# ---------------------------------------------------------------------------

# the stream's pooled check allows a false alarm rate of ~1e-6 per run, so
# that a correct program passes every run
_PULL_MAX = 5.0
_EPSILON, _C, _C_PRIME = 0.45, 0.0, -12.5


def _partition_artifact(part):
    return b"".join(np.ascontiguousarray(getattr(part, a)).tobytes()
                    for a in ("_levels", "_rows", "_cols"))


def _experiment_artifact(rep):
    return ("%.3f %.3f %.3f %.0f %d" % (rep.count_p, rep.level_p, rep.slice_p,
                                        rep.ess, rep.modal_count)).encode()


def _fields(seed, seconds, cfg, scratch):
    rng = _rng("fields", seed)
    sizes, grid = cfg["field_sizes"], cfg["reweight_grid"]
    passes = max(1, round(seconds / FIELDS_SPAN_S))
    pairs = max(200, round((seconds - FIELDS_FIXED_S - passes * FIELDS_PASS_S)
                           / REWEIGHT_PAIR_S))
    # drawn before the field seeds, and those pass by pass, so that a shorter
    # run's inputs are a prefix of a longer run's
    base = int(rng.integers(12, 2000))
    seeds = [[int(rng.integers(0, 2**40)) for _ in sizes] for _ in range(passes)]
    path = scratch / "field.bin"
    ops = []
    _reference_ops(ops, cfg, grid)
    groups = [_field_group(size, s, path) for p in range(passes)
              for size, s in zip(sizes, seeds[p])]
    stream = _pair_stream(base, pairs, grid)
    # spread the field groups over the stream, so that the stream's
    # latencies sample the whole run
    for g, group in enumerate(groups):
        at = round((g + 0.5) * len(stream) / len(groups)) + g
        stream[at:at] = [group]
    for item in stream:
        ops.extend(item if isinstance(item, list) else [item])

    def dichotomy(_, chk, state):
        # criterion 17's rates: c = 0 terminates in >= 19/20, c = 23.5 caps
        # in >= 10/20
        runs = state["regime"]
        n = len(runs) // 2
        terminated = sum(t for c, t in runs if c == 0.0)
        capped = sum(not t for c, t in runs if c == 23.5)
        chk.true("regime dichotomy", terminated >= 0.95 * n and capped >= 0.5 * n)
    groups[-1][-1].check = _chain(groups[-1][-1].check, dichotomy)

    def cleanup():
        path.unlink(missing_ok=True)
    return Workload("fields", ops, repr((base, seeds)), cleanup)


def _reference_ops(ops, cfg, grid):
    """Criteria 18, 15 and 16 at their own seeds (error_margin); the
    experiment fills the reweight caches cold."""
    m = cfg["cov_samples"]
    pairs = (((7, 7), (7, 7)), ((7, 7), (8, 8)), ((3, 3), (11, 11)),
             ((0, 0), (14, 14)), ((5, 9), (9, 5)))

    def cov_run(st):
        prods = np.empty((len(pairs), m))
        for i in range(m):
            v = lz.sample_dgff(16, 18_000_000 + i).values
            for j, (a, b) in enumerate(pairs):
                prods[j, i] = v[a] * v[b]
        return prods

    def cov_check(prods, chk, state):
        green = lz.gff.green_oracle(16)
        for j, (a, b) in enumerate(pairs):
            se = prods[j].std(ddof=1) / math.sqrt(m)
            chk.close("covariance %s-%s" % (a, b), prods[j].mean(),
                      green[a[0] * 15 + a[1], b[0] * 15 + b[1]], 5.0 * se, True)
    ops.append(Op("sample_dgff x%d (16^2)" % m, cov_run, cov_check))

    def exact_run(st):
        # criterion 15: the per-coordinate density ratio is constant in x
        xs = np.random.default_rng(15).standard_normal((4, 10, 7))
        pairs = ((0.0, -2.0), (0.0, -12.5), (0.0, 19.0), (-12.5, 12.5))
        return [(c, cp, [lz.density_ratio_check(c, cp, x) for x in xs[k]])
                for k, (c, cp) in enumerate(pairs)]

    def exact_check(res, chk, state):
        for c, cp, vals in res:
            chk.at_most("density ratio spread", max(vals) - min(vals) + 1e-300,
                        1e-10, True)
            q, q_new = lz.charge_to_params(c).Q, lz.charge_to_params(c + cp).Q
            chk.close("Q_new^2", q_new**2, q**2 - cp / 6.0, 1e-12, True)
    ops.append(Op("density_ratio_check x40", exact_run, exact_check))

    def experiment_check(rep, chk, state):
        for name in ("count_p", "level_p", "slice_p"):
            chk.at_least(name, getattr(rep, name), 0.01, True)
        chk.at_least("ESS", rep.ess, 50.0, True)
    ops.append(Op("reweighting_experiment",
                  lambda st: lz.reweighting_experiment(grid, _EPSILON, _C, _C_PRIME,
                                                       1000, 11),
                  experiment_check, _experiment_artifact))


def _field_group(size, seed, path):
    """One large field: sample, file round trip, then the regime protocol at
    c = 0 and c = 23.5 with each partition's histogram and area check."""
    ops = []

    def sample_check(f, chk, state):
        chk.true("field shape", f.values.shape == (size - 1, size - 1))
        chk.true("field finite", bool(np.isfinite(f.values).all()))
        state["field"] = f
    ops.append(Op("sample_dgff %d" % size, lambda st: lz.sample_dgff(size, seed),
                  sample_check, lambda f: f.values.tobytes()))

    def write_check(_, chk, state):
        n = state["field"].values.size
        chk.true("file size", path.stat().st_size == 16 + 8 * n)
    ops.append(Op("write_field %d" % size, lambda st: lz.write_field(st["field"], path),
                  write_check))

    def read_check(f, chk, state):
        orig = state.pop("field")
        chk.true("round trip", f.seed == orig.seed and f.size == orig.size
                 and np.array_equal(f.values, orig.values))
        state["read"] = f
    ops.append(Op("read_field %d" % size, lambda st: lz.read_field(path), read_check))

    for c in (0.0, 23.5):
        def regime_check(part, chk, state, c=c):
            state.setdefault("regime", []).append((c, part.terminated))
            state["part"] = part
            if c == 23.5:
                state.pop("read")
        ops.append(Op("regime_protocol %d c=%g" % (size, c),
                      lambda st, c=c: lz.regime_protocol(st["read"], c),
                      regime_check, _partition_artifact))
        ops.append(Op("level_histogram %d c=%g" % (size, c),
                      lambda st: st["part"].level_histogram(),
                      lambda h, chk, st: chk.true(
                          "histogram total", sum(h.values()) == len(st["part"]))))

        def area_check(ok, chk, state):
            chk.true("area identity", ok)
            state.pop("part")
        ops.append(Op("area_check %d c=%g" % (size, c), lambda st: st["part"].area_check(),
                      area_check))
    return ops


def _pair_stream(base, pairs, grid):
    """The stream: one op draws one sample of each protocol of
    reweighting_experiment, as its inner loop does. Protocol A samples the
    target charge directly; protocol B samples the base charge and projects
    onto its partition. The last op compares the direct mean square count
    with the weighted one."""
    q = lz.charge_to_params(_C).Q
    q_new = lz.charge_to_params(_C + _C_PRIME).Q

    def run(st, i):
        h = lz.sample_dgff(grid, base * 1_000_000 + i)
        part = lz.subdivide(h, q_new, _EPSILON)
        h2 = lz.sample_dgff(grid, base * 1_000_000 + 500_000 + i)
        part2 = lz.subdivide(h2, q, _EPSILON)
        return part, part2, lz.project_onto_partition(h2, part2, q)

    def check(res, chk, state, last):
        part, part2, proj = res
        chk.true("area identity", part.area_check() and part2.area_check())
        chk.true("projection energy", math.isfinite(proj.coefficient_energy)
                 and proj.coefficient_energy >= 0.0)
        chk.at_most("projection residual", proj.solver_residual, 1e-8)
        logw = lz.det_weight(proj.coefficient_energy, _C_PRIME) \
            + len(part2) * math.log(q_new / q)
        rows = state.setdefault("pairs", [])
        rows.append((len(part), len(part2), logw))
        if last:
            a, b, logw = (np.array(col, dtype=float) for col in zip(*rows))
            w = np.exp(logw - logw.max())
            ess = float(w.sum() ** 2 / np.sum(w**2))
            mean_b = float(np.sum(w * b) / w.sum())
            var_b = float(np.sum(w * (b - mean_b) ** 2) / w.sum())
            se = math.sqrt(a.var(ddof=1) / len(a) + var_b / ess)
            chk.at_least("pooled ESS", ess, 50.0)
            chk.close("weighted mean count", mean_b, float(a.mean()), _PULL_MAX * se)

    def artifact(res):
        return _partition_artifact(res[0]) + _partition_artifact(res[1])

    return [Op("reweight pair %d" % grid, lambda st, i=i: run(st, i),
               lambda res, chk, st, last=i == pairs - 1: check(res, chk, st, last),
               artifact, stream=True)
            for i in range(pairs)]


def _chain(first, second):
    def check(result, chk, state):
        first(result, chk, state)
        second(result, chk, state)
    return check
