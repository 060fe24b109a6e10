"""Command-line experiment runner.

Subcommands cover each module plus an acceptance-suite driver. Configuration
comes from an INI file (section [loopzeta]) overridden by command-line flags;
every run logs the fully resolved configuration and seed. All stochastic
commands use the counter-based Philox generator, so identical configurations
reproduce byte-identical artifacts.

Exit codes: 0 success, 2 success with flagged numerical warnings, 1 error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import logging
import math
import re
import sys

import numpy as np

from . import acceptance, gff, graphs, lattice, reweight, subdivision
from .loopmass import (
    LoopMassQuery,
    decay_residual,
    fit_log_slope,
    loop_mass,
    loop_mass_quadrature,
    theorem_residual_boundary,
    theorem_residual_closed,
)
from .surfaces import EnumerationBudgetError, parse_surface
from .zeta import log_det_zeta

log = logging.getLogger("loopzeta")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FLAGGED = 2


def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _write_text(path, text: str):
    _write_chunks(path, (text,))


def _write_chunks(path, chunks):
    """Write each string of the iterable as it comes, to path or stdout."""
    if path in (None, "-"):
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w") as fh:
            fh.writelines(chunks)


def _csv(rows) -> str:
    return "".join(",".join(_fmt(x) for x in row) + "\n" for row in rows)


def _json(payload: dict, **kwargs) -> str:
    """Strict JSON of a flat dict: non-finite floats are written as null."""
    payload = {k: None if isinstance(v, float) and not math.isfinite(v) else v
               for k, v in payload.items()}
    return json.dumps(payload, allow_nan=False, **kwargs)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_graph(path: str) -> graphs.Graph:
    with open(path) as fh:
        return graphs.read_edge_list(fh.read())


def cmd_graph_loops(args) -> int:
    g = _load_graph(args.graph)
    # first, so that a max_len past the powers budget is refused at once
    truncated = graphs.loop_mass_truncated(g, args.max_len) if g.is_killed else None
    with np.errstate(all="ignore"):  # an overflow is flagged below
        identity = list(zip(("det_laplacian_minor", "det_rw_laplacian",
                             "degree_product"), graphs.determinant_identity(g)))
    overflowed = [row for row in identity if not math.isfinite(row[1])]
    for name, value in overflowed:
        log.warning("%s = %s is not finite in float64: the determinant "
                    "identity cannot be checked on this graph", name, value)
    rows = [("quantity", "value")] + identity
    if g.is_killed:
        rows.append(("loop_mass_exact", graphs.loop_mass_exact(g)))
        mass, tail = truncated
        rows += [("loop_mass_truncated", mass), ("tail_bound", tail)]
    else:
        rows.append(("log_det_prime_rw", graphs.log_det_prime_rw(g)))
    rows.append(("spanning_trees", graphs.spanning_tree_count(g)))
    if args.alpha is not None:
        rows.append(("penalized_loop_mass", graphs.penalized_loop_mass(g, args.alpha)))
    _write_text(args.out, _csv(rows))
    return EXIT_FLAGGED if overflowed else EXIT_OK


def cmd_soup_sample(args) -> int:
    g = _load_graph(args.graph)
    soup = graphs.sample_loop_soup(g, args.intensity, args.max_len, args.seed)
    rows = [("loop", "length", "vertices")]
    for i, loop in enumerate(soup.loops):
        rows.append((i, len(loop) - 1, "-".join(str(v) for v in loop)))
    _write_text(args.out, _csv(rows))
    if soup.tail_warning:
        log.warning("truncation at max_len %d misses non-negligible mass",
                    args.max_len)
        return EXIT_FLAGGED
    return EXIT_OK


def cmd_zeta_det(args) -> int:
    surf = parse_surface(args.surface)
    report = log_det_zeta(surf, args.delta)
    _write_text(args.out, _json({"surface": args.surface,
                                 **dataclasses.asdict(report)}, indent=2) + "\n")
    return EXIT_FLAGGED if report.flagged else EXIT_OK


def cmd_loop_mass(args) -> int:
    surf = parse_surface(args.surface)
    query = LoopMassQuery(surf, args.qv_low, args.qv_high, args.kappa)
    eigen = loop_mass(query)
    quad = loop_mass_quadrature(query)
    _write_text(args.out, _json({
        "surface": args.surface,
        "qv_low": args.qv_low,
        "qv_high": args.qv_high,
        "kappa": args.kappa,
        "loop_mass": eigen,
        "loop_mass_quadrature": quad,
        "route_gap": abs(eigen - quad),
    }, indent=2) + "\n")
    return EXIT_OK


def cmd_verify_theorem(args) -> int:
    surf = parse_surface(args.surface)
    deltas = [float(d) for d in args.deltas.split(",")]
    if args.case == "boundary":
        res = [theorem_residual_boundary(surf, d) for d in deltas]
    elif args.case == "closed":
        res = [theorem_residual_closed(surf, d, args.cap) for d in deltas]
    else:
        res = [decay_residual(surf, d, args.kappa) for d in deltas]
    rows = [("delta", "residual")] + list(zip(deltas, res))
    _write_text(args.out, _csv(rows))
    try:
        slope = fit_log_slope(deltas, res)
    except ValueError:
        slope = None
    _write_text(args.json_out, _json(
        {"case": args.case, "surface": args.surface, "slope": slope}) + "\n")
    return EXIT_OK


def cmd_lattice_torus(args) -> int:
    sizes = tuple(int(s) for s in args.sizes.split(","))
    specs = lattice.standard_sequence(args.aspect, sizes)
    # validates the sequence before any row is written
    result = lattice.constant_term(specs)
    rows = [("n_x", "n_y", "log_det_prime", "constant")]
    for spec, constant in zip(specs, result.constants):
        rows.append((spec.n_x, spec.n_y, lattice.discrete_torus_log_det(spec), constant))
    _write_text(args.out, _csv(rows))
    _write_text(args.json_out, _json({
        "aspect": args.aspect,
        "limit": result.limit,
        "cauchy_gap": result.cauchy_gap,
        "flagged": result.flagged,
    }) + "\n")
    return EXIT_FLAGGED if result.flagged else EXIT_OK


def cmd_gff_sample(args) -> int:
    if not 0 <= args.seed < 1 << 63:
        # the field file stores the seed as a signed 64-bit integer
        raise ValueError("--seed must lie in [0, 2^63), got %d" % args.seed)
    field = gff.sample_dgff(args.size, args.seed)
    gff.write_field(field, sys.stdout.buffer if args.out == "-" else args.out)
    log.info("field variance %.4f, dirichlet energy %.1f",
             gff.variance(field), gff.dirichlet_energy(field))
    return EXIT_OK


def cmd_subdivide(args) -> int:
    if args.field:
        field = gff.read_field(args.field)
    else:
        field = gff.sample_dgff(args.size, args.seed)
    if args.epsilon is not None:
        q = subdivision.charge_to_params(args.charge).Q
        part = subdivision.subdivide(field, q, args.epsilon)
    else:
        part = subdivision.regime_protocol(field, args.charge, args.ratio)
    del field  # its values and prefix sums, before the files are written
    _write_chunks(args.out, subdivision._csv_chunks(part))
    if args.svg:
        _write_chunks(args.svg, subdivision._svg_chunks(part))
    log.info("%d squares, %d flagged, terminated=%s",
             len(part), part.flagged_count, part.terminated)
    return EXIT_OK if part.terminated else EXIT_FLAGGED


def cmd_reweight_test(args) -> int:
    rep = reweight.reweighting_experiment(
        args.size, args.epsilon, args.charge, args.delta_charge,
        args.samples, args.seed)
    _write_text(args.json_out, _json(dataclasses.asdict(rep), indent=2) + "\n")
    rows = [("statistic", "direct", "weighted")]
    rows.append(("mean_count", rep.mean_count_direct, rep.mean_count_weighted))
    _write_text(args.out, _csv(rows))
    return EXIT_FLAGGED if rep.underpowered else EXIT_OK


def cmd_acceptance(args) -> int:
    indices = None
    if args.only is not None:
        try:
            indices = [int(tok) for tok in args.only.split(",")]
        except ValueError:
            raise ValueError("no criterion %r" % args.only) from None
    results = acceptance.run_all(indices)
    return EXIT_OK if all(r.passed for r in results) else EXIT_ERROR


# ---------------------------------------------------------------------------
# argument parsing and config merging
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that also takes "-1e-3", "-inf", "-nan" and comma lists
    such as "-8,16" for values, not option names, as it takes "-12.5"; its
    subparsers inherit it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        number = r"((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)"
        self._negative_number_matcher = re.compile(
            r"^-%s(,-?%s)*$" % (number, number), re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="loopzeta",
        description="loop measures, zeta determinants and square subdivisions")
    parser.add_argument("--config", help="INI config file ([loopzeta] section)")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default="-", help="output path (default stdout)")
        return p

    p = add("graph-loops", cmd_graph_loops, help="graph determinants and loop masses")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--max-len", type=int, default=40)
    p.add_argument("--alpha", type=float)

    p = add("soup-sample", cmd_soup_sample, help="sample a Poissonian loop soup")
    p.add_argument("--graph", required=True)
    p.add_argument("--intensity", type=float, default=1.0)
    p.add_argument("--max-len", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)

    p = add("zeta-det", cmd_zeta_det, help="zeta-regularized determinant")
    p.add_argument("--surface", required=True,
                   help="e.g. disk:1.0, torus:1.0x2.0, interval:1.0")
    p.add_argument("--delta", type=float, default=0.1)

    p = add("loop-mass", cmd_loop_mass, help="loop mass in a QV window")
    p.add_argument("--surface", required=True)
    p.add_argument("--qv-low", type=float, required=True)
    p.add_argument("--qv-high", type=float, default=math.inf)
    p.add_argument("--kappa", type=float, default=0.0)

    p = add("verify-theorem", cmd_verify_theorem,
            help="expansion residuals across a delta sweep")
    p.add_argument("--case", choices=("boundary", "closed", "decay"),
                   required=True)
    p.add_argument("--surface", required=True)
    p.add_argument("--deltas", default="0.04,0.02,0.01,0.005")
    p.add_argument("--cap", type=float, default=50.0)
    p.add_argument("--kappa", type=float, default=1e-4)
    p.add_argument("--json-out", default="-")

    p = add("lattice-torus", cmd_lattice_torus,
            help="discrete torus determinant constants")
    p.add_argument("--aspect", type=int, default=1)
    p.add_argument("--sizes", default="64,128,256,512")
    p.add_argument("--json-out", default="-")

    p = add("gff-sample", cmd_gff_sample, help="sample a field to a binary file")
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)

    p = add("subdivide", cmd_subdivide, help="dyadic square subdivision")
    p.add_argument("--size", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", help="read field from file instead of sampling")
    p.add_argument("--charge", type=float, default=0.0)
    p.add_argument("--ratio", type=float, default=2.0**-12)
    p.add_argument("--epsilon", type=float,
                   help="explicit quantum-size threshold (overrides --ratio)")
    p.add_argument("--svg", help="also render the partition to this SVG file")

    p = add("reweight-test", cmd_reweight_test,
            help="two-protocol reweighting comparison")
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--charge", type=float, default=0.0)
    p.add_argument("--delta-charge", type=float, default=-12.5)
    p.add_argument("--epsilon", type=float, default=0.45)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--json-out", default="-")

    p = sub.add_parser("acceptance", help="run the acceptance suite")
    p.set_defaults(fn=cmd_acceptance)
    p.add_argument("--only", help="comma-separated criterion numbers")

    parser.subcommands = sub.choices
    return parser


def _merge_config(parser, args, argv):
    """Parse argv again with the INI file's values as the chosen subcommand's
    defaults, so that flags win, abbreviated or not. Values are converted as
    argparse converts the option's; keys that name no option are skipped."""
    if not args.config:
        return args
    ini = configparser.ConfigParser()
    if not ini.read(args.config):
        raise ValueError("unreadable config file: %s" % args.config)
    if not ini.has_section("loopzeta"):
        raise ValueError("config file lacks a [loopzeta] section")
    subparser = parser.subcommands[args.command]
    options = {a.dest: a for a in subparser._actions
               if a.option_strings and a.dest != "help"}
    for key, value in ini.items("loopzeta"):
        action = options.get(key.replace("-", "_"))
        if action is not None:
            subparser.set_defaults(**{action.dest: value if action.type is None
                                      else action.type(value)})
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="loopzeta: %(levelname)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        args = _merge_config(parser, args, argv)
        resolved = {k: v for k, v in sorted(vars(args).items())
                    if k not in ("fn",) and v is not None}
        log.info("resolved config: %s", _json(resolved, default=str))
        return args.fn(args)
    except (ValueError, OSError, ArithmeticError, EnumerationBudgetError) as exc:
        print("loopzeta: error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
