"""Span recorder installed at run time around loopzeta's layer boundaries.

Every public function of a layer module is wrapped under each name by which
a module binds it (so `reweight.subdivide` and `subdivision.subdivide` are
both seen), together with the `eigen_stream` and `heat_trace` methods of
each `ModelSurface` subclass. A span is (function, start, end, parent,
raised); spans stay in memory and are written out when the run ends.
Nothing in the program's source changes.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time

LAYERS = ("graphs", "surfaces", "zeta", "loopmass", "lattice", "gff",
          "subdivision", "reweight")
_SURFACE_KINDS = {"IntervalDirichlet": "interval", "RectangleDirichlet": "rectangle",
                  "FlatTorus": "torus", "RoundSphere": "sphere", "DiskDirichlet": "disk"}


class Recorder:
    def __init__(self):
        self.names = []  # span name per function id
        self._ids = {}
        self.spans = []  # [name id, start, end, parent index, raised]
        self.counters = {}
        self._stack = []
        self._undo = []
        self.active = True  # the harness pauses recording while it checks

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, fn, name, on_result=None):
        spans, stack, nid = self.spans, self._stack, self._name_id(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap the layer functions in every module that binds them."""
        modules = {name: importlib.import_module("loopzeta." + name) for name in LAYERS}
        package = importlib.import_module("loopzeta")
        owners = {"loopzeta." + name for name in LAYERS}
        hooks = self._hooks()
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ not in owners):
                    continue
                name = "%s.%s" % (obj.__module__.split(".")[1], obj.__name__)
                self._set(module, attr, self._wrap(obj, name, hooks.get(name)))
        surfaces = modules["surfaces"]
        for cls_name, kind in _SURFACE_KINDS.items():
            cls = getattr(surfaces, cls_name)
            for meth in ("eigen_stream", "heat_trace"):
                name = "surfaces.%s.%s" % (meth, kind)
                hook = self._stream_hook(kind) if meth == "eigen_stream" else None
                self._set(cls, meth, self._wrap(getattr(cls, meth), name, hook))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    def _stream_hook(self, kind):
        def hook(stream, args):
            self.count("surfaces.eigenvalues_enumerated", len(stream.eigenvalues))
            if kind == "disk":
                self.count("surfaces.eigenvalues_enumerated.disk", len(stream.eigenvalues))
        return hook

    def _hooks(self):
        def field_bytes(field):
            return 16 + 8 * field.values.size

        return {
            "graphs.sample_loop_soup":
                lambda soup, args: self.count("graphs.loops_drawn", len(soup.loops)),
            "gff.sample_dgff":
                lambda f, args: self.count("gff.sites_sampled", f.values.size),
            "gff.write_field":
                lambda _, args: self.count("gff.io_bytes", field_bytes(args[0])),
            "gff.read_field":
                lambda f, args: self.count("gff.io_bytes", field_bytes(f)),
            "subdivision.subdivide": self._count_partition,
            "reweight.project_onto_partition":
                lambda _, args: self.count("reweight.squares_projected", len(args[1])),
        }

    def _count_partition(self, part, args):
        self.count("subdivision.squares", len(part))
        self.count("subdivision.flagged_squares", part.flagged_count)

    # -- reduction ---------------------------------------------------------

    def summarize(self):
        """Per function: calls, self time and raised exceptions; plus the
        time covered by top-level spans."""
        n = len(self.spans)
        child = [0.0] * n
        for nid, start, end, parent, raised in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {}
        covered = 0.0
        for i, (nid, start, end, parent, raised) in enumerate(self.spans):
            name = self.names[nid]
            s = stats.setdefault(name, [0, 0.0, 0])
            s[0] += 1
            s[1] += (end - start) - child[i]
            s[2] += raised
            if parent < 0:
                covered += end - start
        return stats, covered

    def calls_under(self, name, parent):
        """Calls of `name` made directly by `parent`."""
        nid, pid = self._ids.get(name), self._ids.get(parent)
        spans = self.spans
        return sum(1 for s in spans if s[0] == nid and s[3] >= 0 and spans[s[3]][0] == pid)

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": self.counters}, fh, separators=(",", ":"))


_MISSING = object()


def _fold_kinds(stats, prefix):
    """Sum per-surface-kind method stats into one entry."""
    total = [0, 0.0, 0]
    for name, s in stats.items():
        if name.startswith(prefix + "."):
            total = [a + b for a, b in zip(total, s)]
    return total


# per_layer metric name -> unit; every traced run reports each of them
PER_LAYER = {}
for _f in ("sample_loop_soup", "transition_matrix", "spectral_radius_bound"):
    PER_LAYER.update({"graphs.%s.calls" % _f: "count", "graphs.%s.self_s" % _f: "s",
                      "graphs.%s.errors" % _f: "count"})
for _f in ("loop_mass_exact", "loop_mass_truncated", "determinant_identity"):
    PER_LAYER["graphs.%s.self_s" % _f] = "s"
PER_LAYER.update({
    "graphs.loops_drawn": "count", "graphs.builds_per_draw": "ratio",
    "surfaces.eigen_stream.calls": "count", "surfaces.eigen_stream.self_s": "s",
    "surfaces.eigen_stream.disk.self_s": "s",
    "surfaces.eigenvalues_enumerated": "count",
    "surfaces.eigenvalues_enumerated.disk": "count",
    "surfaces.heat_trace.calls": "count", "surfaces.heat_trace.self_s": "s",
})
for _f in ("log_det_zeta", "head_integral", "heat_trace_residual"):
    PER_LAYER.update({"zeta.%s.calls" % _f: "count", "zeta.%s.self_s" % _f: "s"})
for _f in ("zeta", "mellin_zeta", "zeta_continued"):
    PER_LAYER["zeta.%s.self_s" % _f] = "s"
PER_LAYER.update({
    "loopmass.loop_mass.self_s": "s", "loopmass.loop_mass_quadrature.self_s": "s",
    "lattice.discrete_torus_log_det.calls": "count",
    "lattice.discrete_torus_log_det.self_s": "s", "lattice.constant_term.self_s": "s",
    "gff.sample_dgff.calls": "count", "gff.sample_dgff.self_s": "s",
    "gff.sites_sampled": "count", "gff.ns_per_site": "ns",
    "gff.write_field.self_s": "s", "gff.read_field.self_s": "s", "gff.io_bytes": "bytes",
    "subdivision.subdivide.calls": "count", "subdivision.subdivide.self_s": "s",
    "subdivision.regime_protocol.self_s": "s", "subdivision.squares": "count",
    "subdivision.flagged_squares": "count",
    "reweight.reweighting_experiment.calls": "count",
    "reweight.reweighting_experiment.self_s": "s",
    "reweight.project_onto_partition.calls": "count",
    "reweight.project_onto_partition.self_s": "s",
    "reweight.squares_projected": "count",
})
COUNTERS = ("graphs.loops_drawn", "surfaces.eigenvalues_enumerated",
            "surfaces.eigenvalues_enumerated.disk", "gff.sites_sampled", "gff.io_bytes",
            "subdivision.squares", "subdivision.flagged_squares",
            "reweight.squares_projected")
PER_LAYER.update({"%s.share" % _layer: "ratio" for _layer in LAYERS})
PER_LAYER.update({"trace.coverage": "ratio", "trace.wall_s": "s",
                  "trace.overhead_s": "ref_s"})


def per_layer_metrics(recorder, wall_s, overhead_s):
    """The per_layer metric values of a traced run: wall_s is its time as
    measured, overhead_s its time at reference speed less the untraced
    run's."""
    stats, covered = recorder.summarize()
    for meth in ("eigen_stream", "heat_trace"):
        stats["surfaces." + meth] = _fold_kinds(stats, "surfaces." + meth)
    zero = [0, 0.0, 0]
    values = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field in ("calls", "self_s", "errors"):
            values[name] = stats.get(base, zero)[("calls", "self_s", "errors").index(field)]
    values.update({k: recorder.counters.get(k, 0) for k in COUNTERS})
    draws = stats.get("graphs.sample_loop_soup", zero)[0]
    values["graphs.builds_per_draw"] = (
        recorder.calls_under("graphs.transition_matrix", "graphs.sample_loop_soup") / draws
        if draws else 0.0)
    sites = recorder.counters.get("gff.sites_sampled", 0)
    values["gff.ns_per_site"] = (
        stats.get("gff.sample_dgff", zero)[1] / sites * 1e9 if sites else 0.0)
    for layer in LAYERS:
        self_s = sum(s[1] for name, s in stats.items()
                     if name.split(".")[0] == layer and name.count(".") == 1)
        values[layer + ".share"] = self_s / wall_s
    values["trace.coverage"] = covered / wall_s
    values["trace.wall_s"] = wall_s
    values["trace.overhead_s"] = overhead_s
    if set(values) != set(PER_LAYER):
        raise RuntimeError("per-layer metrics out of sync: %s" % (set(PER_LAYER) ^ set(values)))
    return values
