"""Bit-identity manifest of loopzeta: one line per named output, its name and
the sha256 of its bytes.

Two source trees are compared on one host by a diff of two runs:

    diff <(PYTHONPATH=$BASE/src python tools/manifest.py) \\
         <(PYTHONPATH=src python tools/manifest.py)

The script takes no options. It imports whichever loopzeta comes first on
sys.path and writes that package's path to stderr, so a run shows which tree
it read. It calls the public API and the CLI only, and reads no private
name but a partition's four raw columns (`_levels`, `_rows`, `_cols`,
`_flags`) and the head-panel memo's `cache_clear` (`zeta._head_panel`), so
it also runs on trees with other private names. No hash is
kept in the repository: BLAS kernels differ between CPUs, so only runs on
one host compare.

What is hashed:
- an array: its dtype, shape and bytes;
- a partition: its canonical columns, its raw columns in the order
  `subdivide` emits them, and whether it terminated;
- a float, string or other scalar: its repr; a report or tuple: each part;
- a CLI run, made in this process through `cli.main(argv)`: its exit code
  and the bytes of each file that its --out, --json-out or --svg names;
- a call that raises: its exception's type and message.

In an argv, "@name" is the file `name` in one scratch directory: written by
an earlier run or by `INPUTS`, or by the run itself when it follows an
output flag.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import logging
import os
import sys
import tempfile

import numpy as np

import loopzeta as lz
from loopzeta import cli, graphs
from loopzeta.zeta import zeta_continued

# the package binds `loopzeta.zeta` to the function; this is the module
_zeta_module = importlib.import_module("loopzeta.zeta")

_OUTPUT_FLAGS = ("--out", "--json-out", "--svg")

# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------

# files the CLI reads, written (and hashed) first
INPUTS = [
    ("grid30.txt", lambda: lz.write_edge_list(lz.grid_graph(30))),
    ("grid4.txt", lambda: lz.write_edge_list(lz.grid_graph(4))),
]


def _seeded_t(count):
    """count t in one octave, [0.3, 0.6), from one seeded generator."""
    return np.random.default_rng(5).uniform(0.3, 0.6, count)


def _ci_spectra():
    """The lattice zeta values, eigen streams and batch heat traces that CI
    compared with the base commit's."""
    entries = []
    for spec in ("rect:1x1", "torus:1x2"):
        for s in (1.5, 2.0, 3.0):
            entries.append(("zeta %s %r" % (spec, s),
                            lambda spec=spec, s=s: lz.zeta(lz.parse_surface(spec), s)))
    entries.append(("zeta disk:1 2.0", lambda: lz.zeta(lz.DiskDirichlet(1.0), 2.0)))
    for spec in ("rect:1x1.5", "torus:1x2"):
        entries.append(("eigen_stream %s 4e5" % spec,
                        lambda spec=spec: lz.parse_surface(spec).eigen_stream(4e5)))
    # 2.5 row blocks of each surface's rows
    for surface, count in ((lz.RoundSphere(1.0), 5120), (lz.DiskDirichlet(0.83), 6300)):
        entries.append(("heat_trace %r %d seeded t" % (surface, count),
                        lambda surface=surface, count=count:
                        surface.heat_trace(_seeded_t(count))))
    return entries


# the five kinds at three scales; no disk build past the unit disk's at 0.05
_SURFACES = [
    surface
    for scale in (1.0, 0.7, 0.45)
    for surface in (lz.IntervalDirichlet(scale), lz.RectangleDirichlet(scale, 1.5 * scale),
                    lz.DiskDirichlet(scale), lz.FlatTorus(scale, 2.0 * scale),
                    lz.RoundSphere(scale))
]
_T = np.geomspace(1e-3, 3.0, 200)


def _spectral():
    entries = []
    for surface in _SURFACES:
        query = lz.LoopMassQuery(surface, 0.4, 4.0)
        calls = [
            ("eigen_stream 1e4", lambda surface=surface: surface.eigen_stream(1e4)),
            ("heat_trace", lambda surface=surface: surface.heat_trace(_T)),
            ("heat_trace_residual", lambda surface=surface: surface.heat_trace_residual(_T)),
        ]
        calls += [("log_det_zeta %r" % delta,
                   lambda surface=surface, delta=delta: lz.log_det_zeta(surface, delta))
                  for delta in (0.4, 0.2, 0.1, 0.05)]
        calls += [
            ("loop_mass (0.4, 4)", lambda query=query: lz.loop_mass(query)),
            ("loop_mass_quadrature (0.4, 4)",
             lambda query=query: lz.loop_mass_quadrature(query)),
            ("mellin_zeta 2.0", lambda surface=surface: lz.mellin_zeta(surface, 2.0)),
            ("zeta_continued 2.0", lambda surface=surface: zeta_continued(surface, 2.0)),
        ]
        entries += [("%s %r" % (name, surface), call) for name, call in calls]
    return entries


def _cold_sweep(surface, deltas):
    """log_det_zeta at each delta in turn, from a cold head-panel memo: a
    descending sweep reuses the first head's panels, an ascending one finds
    each head's lower panels held."""
    _zeta_module._head_panel.cache_clear()
    return [lz.log_det_zeta(surface, delta) for delta in deltas]


_SWEEPS = [("log_det_zeta %s sweep %r" % (order, surface),
            lambda surface=surface, deltas=deltas: _cold_sweep(surface, deltas))
           for surface in (lz.RoundSphere(0.93), lz.DiskDirichlet(0.81),
                           lz.FlatTorus(1.07, 1.07))
           for order, deltas in (("descending", (0.4, 0.2, 0.1, 0.05)),
                                 ("ascending", (0.05, 0.1, 0.2, 0.4)))]


def _partition(partition):
    """The canonical columns, and the raw ones in the order `subdivide` emits
    them, which `project_onto_partition`'s sums read."""
    raw = partition._levels, partition._rows, partition._cols, partition._flags
    return partition.canonical_columns(), raw, partition.terminated


def _projection():
    field = lz.sample_dgff(64, 11)
    q = lz.charge_to_params(0.0).Q
    return lz.project_onto_partition(field, lz.subdivide(field, q, 0.45), q)


# the interval's zeta is its closed form, the sphere's a series; the lattice
# series sums ~3.3 M eigenvalues in about 50 value bands, here on a
# rectangle that is not square and a torus above unit size
_ZETA = [("zeta %s 2.0" % spec, lambda spec=spec: lz.zeta(lz.parse_surface(spec), 2.0))
         for spec in ("interval:1", "sphere:1")]
_ZETA += [("zeta %s %r" % (spec, s), lambda spec=spec, s=s: lz.zeta(lz.parse_surface(spec), s))
          for spec in ("rect:1x1.5", "torus:1.5x0.7") for s in (1.5, 2.0, 3.0)]

_GRAPHS = [
    ("transition_matrix grid4", lambda: graphs.transition_matrix(lz.grid_graph(4))),
    ("spectral_radius_bound grid4",
     lambda: graphs.spectral_radius_bound(graphs.transition_matrix(lz.grid_graph(4)))),
    ("loop_mass_truncated grid4 40", lambda: lz.loop_mass_truncated(lz.grid_graph(4), 40)),
    ("determinant_identity grid4", lambda: lz.determinant_identity(lz.grid_graph(4))),
]

_FIELDS = [
    ("sample_dgff 256 0", lambda: lz.sample_dgff(256, 0).values),
    # one row block of prefix sums at 128, several at 256
    *[("prefix %d 0" % size, lambda size=size: lz.sample_dgff(size, 0).prefix)
      for size in (128, 256)],
    ("regime_protocol 256 0 c=0",
     lambda: _partition(lz.regime_protocol(lz.sample_dgff(256, 0), 0.0))),
    ("regime_protocol 256 0 c=23.5",
     lambda: _partition(lz.regime_protocol(lz.sample_dgff(256, 0), 23.5))),
    # an epsilon of one cap-level square's side caps the run at level 6
    ("subdivide 64 11 eps=2^-6",
     lambda: _partition(lz.subdivide(lz.sample_dgff(64, 11), lz.charge_to_params(0.0).Q,
                                     2.0**-6))),
    ("project_onto_partition 64 11 eps=0.45", _projection),
]

API = _ci_spectra() + _spectral() + _SWEEPS + _ZETA + _GRAPHS + _FIELDS

# every argv that CI compared with the base commit's, then the README's
# commands at small sizes
CLI = [
    # n = 900 at the default max_len 40, which the soup workload reaches neither of
    ["soup-sample", "--graph", "@grid30.txt", "--intensity", "5", "--seed", "3",
     "--out", "@soup30.csv"],
    # n = 16, where the step memo's floor of one memory block sets its size
    *[["soup-sample", "--graph", "@grid4.txt", "--intensity", "10", "--max-len", "12",
       "--seed", str(seed), "--out", "@soup4_%d.csv" % seed] for seed in range(5)],
    # n = 900 fills one power to a block, n = 16 all 40 powers in one block
    *[["graph-loops", "--graph", "@%s.txt" % grid, "--max-len", "40",
       "--out", "@loops_%s.csv" % grid] for grid in ("grid30", "grid4")],
    *[["zeta-det", "--surface", spec, "--delta", "0.05", "--out", "@det_%s.json" % spec]
      for spec in ("rect:1x1.5", "torus:1x2")],
    ["gff-sample", "--size", "2048", "--seed", "7", "--out", "@f2048.bin"],
    ["subdivide", "--field", "@f2048.bin", "--charge", "23.5", "--out", "@p2048.csv",
     "--svg", "@p2048.svg"],
    ["zeta-det", "--surface", "torus:1.0x2.0", "--delta", "0.05", "--out", "@det.json"],
    ["loop-mass", "--surface", "disk:1.0", "--qv-low", "0.4", "--out", "@mass.json"],
    ["verify-theorem", "--case", "boundary", "--surface", "disk:1.0",
     "--out", "@resid.csv", "--json-out", "@resid.json"],
    ["lattice-torus", "--aspect", "2", "--sizes", "8,16,32,64",
     "--out", "@lattice.csv", "--json-out", "@lattice.json"],
    ["gff-sample", "--size", "64", "--seed", "7", "--out", "@field.bin"],
    ["gff-sample", "--size", "16", "--seed", "1", "--out", "@small.bin"],
    ["subdivide", "--field", "@field.bin", "--charge", "0", "--out", "@squares.csv",
     "--svg", "@squares.svg"],
    ["reweight-test", "--size", "16", "--charge", "0", "--delta-charge", "-12.5",
     "--samples", "1000", "--seed", "11", "--out", "@reweight.csv",
     "--json-out", "@reweight.json"],
]

# ---------------------------------------------------------------------------
# hashing
# ---------------------------------------------------------------------------


def _digest(value) -> str:
    """sha256 of an output: see the module docstring."""
    h = hashlib.sha256(type(value).__name__.encode())
    if isinstance(value, np.ndarray):
        h.update(("%s %r " % (value.dtype.str, value.shape)).encode())
        h.update(value.tobytes())
    elif isinstance(value, bytes):
        h.update(value)
    elif dataclasses.is_dataclass(value) or isinstance(value, (tuple, list)):
        parts = (value if isinstance(value, (tuple, list)) else
                 [getattr(value, f.name) for f in dataclasses.fields(value)])
        for part in parts:
            h.update(_digest(part).encode())
    else:
        h.update(repr(value).encode())
    return h.hexdigest()


def _outcome(call):
    try:
        return call()
    except Exception as exc:
        return "raised %s: %s" % (type(exc).__name__, exc)


def _run_cli(argv, scratch):
    """Exit code of `cli.main(argv)` and the bytes of each file it writes
    (None where it writes none)."""
    argv = [os.path.join(scratch, a[1:]) if a.startswith("@") else a for a in argv]
    outputs = [path for flag, path in zip(argv, argv[1:]) if flag in _OUTPUT_FLAGS]
    for path in outputs:
        if os.path.exists(path):
            os.remove(path)
    code = cli.main(argv)
    contents = []
    for path in outputs:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                contents.append(fh.read())
        else:
            contents.append(None)
    return code, contents


def main() -> int:
    print(lz.__file__, file=sys.stderr)
    # the CLI's log lines name scratch paths; a handler on the root logger
    # keeps `cli.main`'s logging.basicConfig from writing them to stderr
    logging.getLogger().addHandler(logging.NullHandler())
    with tempfile.TemporaryDirectory() as scratch:
        for name, make in INPUTS:
            text = _outcome(make)
            with open(os.path.join(scratch, name), "w") as fh:
                fh.write(text)
            print("input", name, _digest(text))
        for name, call in API:
            print(name, _digest(_outcome(call)))
        for argv in CLI:
            print("loopzeta", *argv, _digest(_outcome(lambda: _run_cli(argv, scratch))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
