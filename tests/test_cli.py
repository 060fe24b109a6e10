import contextlib
import io
import json
import logging
import math
import os
import pathlib
import struct
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopzeta import _blocks, cli, gff, graphs, subdivision
from loopzeta.surfaces import FlatTorus, IntervalDirichlet, RectangleDirichlet
from loopzeta.zeta import log_det_zeta


def run(args):
    return cli.main(args)


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text(graphs.write_edge_list(graphs.grid_graph(3)))
    return str(path)


@pytest.mark.parametrize("command", [
    "graph-loops", "soup-sample", "zeta-det", "loop-mass", "verify-theorem",
    "lattice-torus", "gff-sample", "subdivide", "reweight-test", "acceptance",
])
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_graph_loops(graph_file, tmp_path):
    out = tmp_path / "out.csv"
    assert run(["graph-loops", "--graph", graph_file, "--out", str(out)]) == 0
    rows = dict(line.split(",") for line in
                out.read_text().strip().splitlines()[1:])
    det_graph = float(rows["det_laplacian_minor"])
    product = float(rows["det_rw_laplacian"]) * float(rows["degree_product"])
    assert det_graph == pytest.approx(product, rel=1e-10)
    assert float(rows["tail_bound"]) >= 0.0


def test_zeta_det_json(tmp_path):
    out = tmp_path / "det.json"
    code = run(["zeta-det", "--surface", "interval:1.0", "--delta", "0.05",
                "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["log_det"] == pytest.approx(math.log(2.0), abs=1e-8)
    assert not payload["flagged"]


def test_loop_mass_routes_agree(tmp_path):
    out = tmp_path / "mass.json"
    code = run(["loop-mass", "--surface", "disk:1.0", "--qv-low", "0.4",
                "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["route_gap"] < 1e-8


def test_verify_theorem(tmp_path):
    csv_out = tmp_path / "resid.csv"
    json_out = tmp_path / "resid.json"
    code = run(["verify-theorem", "--case", "closed", "--surface", "torus:1.0x1.0",
                "--deltas", "0.04,0.02", "--cap", "50",
                "--out", str(csv_out), "--json-out", str(json_out)])
    assert code == 0
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "delta,residual"
    assert len(lines) == 3
    payload = json.loads(json_out.read_text())
    assert payload["case"] == "closed"


def test_lattice_torus(tmp_path):
    csv_out = tmp_path / "torus.csv"
    json_out = tmp_path / "torus.json"
    code = run(["lattice-torus", "--sizes", "8,16,32,64",
                "--out", str(csv_out), "--json-out", str(json_out)])
    assert code == 0
    payload = json.loads(json_out.read_text())
    assert not payload["flagged"]
    assert len(csv_out.read_text().strip().splitlines()) == 5


def test_gff_sample_and_subdivide_round_trip(tmp_path):
    field_path = tmp_path / "field.bin"
    assert run(["gff-sample", "--size", "64", "--seed", "4",
                "--out", str(field_path)]) == 0
    back = gff.read_field(field_path)
    assert back.size == 64 and back.seed == 4

    csv_out = tmp_path / "part.csv"
    svg_out = tmp_path / "part.svg"
    code = run(["subdivide", "--field", str(field_path), "--charge", "0",
                "--epsilon", "0.4", "--out", str(csv_out), "--svg", str(svg_out)])
    assert code == 0
    assert svg_out.read_text().startswith("<svg")
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "level,i,j,flagged"
    assert len(lines) > 1


def _tuples(part, mask=slice(None)):
    return zip(part._levels[mask].tolist(), part._rows[mask].tolist(),
               part._cols[mask].tolist())


def reference_subdivide_csv(part) -> str:
    """The object route: rows of the sorted (level, i, j) tuples, each
    flagged by a membership test."""
    flagged = set(_tuples(part, part._flags))
    rows = [("level", "i", "j", "flagged")]
    rows += [sq + (int(sq in flagged),) for sq in sorted(_tuples(part))]
    return "".join(",".join(str(x) for x in row) + "\n" for row in rows)


def reference_svg(part) -> str:
    """The object route: one rect per sorted (level, i, j) tuple."""
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="1024" height="1024" '
             'viewBox="0 0 1 1">']
    for level, i, j in sorted(_tuples(part)):
        side = 2.0 ** -level
        parts.append('<rect x="%.10g" y="%.10g" width="%.10g" height="%.10g" '
                     'fill="%s" stroke="#000" stroke-width="%.3g"/>'
                     % (i * side, j * side, side, side,
                        subdivision._PALETTE[level % len(subdivision._PALETTE)],
                        side / 64))
    parts.append("</svg>")
    return "\n".join(parts)


@pytest.mark.parametrize("block", [None, 200], indirect=True)
@pytest.mark.parametrize("charge, rows, code", [("0", 346, 0), ("23.5", 65101, 2)])
def test_subdivide_artifacts_match_object_route(tmp_path, charge, rows, code, block):
    csv_out, svg_out = tmp_path / "part.csv", tmp_path / "part.svg"
    assert run(["subdivide", "--size", "256", "--seed", "7", "--charge", charge,
                "--out", str(csv_out), "--svg", str(svg_out)]) == code
    part = subdivision.regime_protocol(gff.sample_dgff(256, 7), float(charge))
    assert len(part) == rows
    assert csv_out.read_text() == reference_subdivide_csv(part)
    assert svg_out.read_text() == reference_svg(part)


def test_determinism_byte_identical(graph_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["soup-sample", "--graph", graph_file, "--intensity", "2.0",
            "--max-len", "60", "--seed", "7"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_soup_sample_flags_a_walk_that_is_never_killed(tmp_path):
    # the boundary vertex 2 has no edge, so the truncated soup misses
    # infinite mass
    graph = tmp_path / "closed.txt"
    graph.write_text("0 1\n# boundary: 2\n")
    out = tmp_path / "soup.csv"
    assert run(["soup-sample", "--graph", str(graph), "--out", str(out)]) == 2
    assert out.read_text().startswith("loop,length,vertices")


def test_config_file_with_flag_override(tmp_path):
    ini = tmp_path / "conf.ini"
    ini.write_text("[loopzeta]\nsurface = interval:1.0\ndelta = 0.2\n")
    out = tmp_path / "out.json"
    code = run(["--config", str(ini), "zeta-det", "--surface", "interval:2.0",
                "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    # flag wins for the surface, config supplies delta
    assert payload["log_det"] == pytest.approx(math.log(4.0), abs=1e-8)
    assert payload["delta_split"] == 0.2


def test_config_errors(tmp_path):
    missing = tmp_path / "nope.ini"
    assert run(["--config", str(missing), "zeta-det",
                "--surface", "interval:1.0"]) == 1
    bad = tmp_path / "bad.ini"
    bad.write_text("[other]\nx = 1\n")
    assert run(["--config", str(bad), "zeta-det",
                "--surface", "interval:1.0"]) == 1


def _logged_config(caplog):
    prefix = "resolved config: "
    logged = [r.getMessage()[len(prefix):] for r in caplog.records
              if r.getMessage().startswith(prefix)]
    assert len(logged) == 1
    return json.loads(logged[0])


def test_config_merges_only_the_subcommand_options(tmp_path, caplog):
    ini = tmp_path / "conf.ini"
    ini.write_text("[loopzeta]\nfn = 1\ncommand = zeta-det\nconfig = x.ini\n"
                   "verbose = yes\nbogus = 3\nsize = 16\nseed = 3\n")
    out = tmp_path / "field.bin"
    with caplog.at_level(logging.INFO, logger="loopzeta"):
        assert run(["--config", str(ini), "gff-sample", "--out", str(out)]) == 0
    field = gff.read_field(out)
    assert (field.size, field.seed) == (16, 3)
    config = _logged_config(caplog)
    assert config["command"] == "gff-sample" and config["config"] == str(ini)
    assert not config["verbose"] and "bogus" not in config


def test_config_values_convert_like_flags(tmp_path, capsys):
    ini = tmp_path / "conf.ini"
    ini.write_text("[loopzeta]\nepsilon = 0.4\n")
    by_config, by_flag = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["--config", str(ini), "subdivide", "--size", "16",
                "--out", str(by_config)]) == 0
    assert run(["subdivide", "--size", "16", "--epsilon", "0.4",
                "--out", str(by_flag)]) == 0
    assert by_config.read_bytes() == by_flag.read_bytes()
    for text, argv in (("delta = abc", ["zeta-det", "--surface", "interval:1"]),
                       ("seed = 1.5", ["gff-sample", "--size", "16"])):
        ini.write_text("[loopzeta]\n%s\n" % text)
        assert run(["--config", str(ini)] + argv) == 1
        assert "loopzeta: error:" in capsys.readouterr().err


def test_invalid_parameters_exit_one(tmp_path, capsys):
    assert run(["zeta-det", "--surface", "cone:1.0"]) == 1
    assert "error" in capsys.readouterr().err
    assert run(["zeta-det", "--surface", "interval:1.0", "--delta", "0.9"]) == 1
    assert run(["graph-loops", "--graph", str(tmp_path / "missing.txt")]) == 1


@pytest.mark.parametrize("flags", [
    ["--max-len", "0"], ["--max-len", "-3"], ["--intensity", "nan"],
    ["--intensity", "inf"], ["--intensity", "-1"],
])
def test_soup_sample_bad_parameters_exit_one(graph_file, tmp_path, capsys, flags):
    out = tmp_path / "soup.csv"
    assert run(["soup-sample", "--graph", graph_file, "--out", str(out)] + flags) == 1
    assert "loopzeta: error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["graph-loops", "soup-sample"])
def test_max_len_past_the_powers_budget_exits_one(graph_file, tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    assert run([command, "--graph", graph_file, "--max-len", "1000000000",
                "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("loopzeta: error: max_len 1000000000 is too long")
    assert captured.out == "" and not out.exists()


def test_loop_mass_small_sphere(tmp_path):
    # the sphere of radius 0.05 has its first nonzero eigenvalue at 800
    out = tmp_path / "mass.json"
    assert run(["loop-mass", "--surface", "sphere:0.05", "--qv-low", "0.01",
                "--kappa", "1", "--out", str(out)]) == 0
    assert out.exists()


def test_enumeration_budget_is_a_clean_error(capsys):
    assert run(["zeta-det", "--surface", "torus:200x200", "--delta", "1e-5"]) == 1
    err = capsys.readouterr().err
    assert "loopzeta: error: spectral enumeration needs ~" in err
    assert "budget is 5000000" in err


@pytest.mark.parametrize("argv", [
    ["zeta-det", "--surface", "disk:nan"],
    ["loop-mass", "--surface", "sphere:inf", "--qv-low", "0.4", "--kappa", "1"],
    ["loop-mass", "--surface", "disk:1", "--qv-low", "0.4", "--kappa", "nan"],
    ["loop-mass", "--surface", "disk:1", "--qv-low", "nan"],
    ["subdivide", "--size", "16", "--epsilon", "nan"],
    ["subdivide", "--size", "16", "--epsilon", "inf"],
    ["subdivide", "--size", "16", "--charge", "nan"],
    ["subdivide", "--size", "16", "--ratio", "nan"],
    ["subdivide", "--size", "16", "--ratio", "-1"],
    ["subdivide", "--field", "{nan_field}", "--epsilon", "0.4"],
    ["subdivide", "--field", "{nan_field}"],
    ["reweight-test", "--size", "16", "--charge", "nan", "--samples", "1000"],
    ["verify-theorem", "--case", "closed", "--surface", "torus:1x1",
     "--deltas", "nan,0.02"],
])
def test_non_finite_inputs_exit_one(tmp_path, capsys, argv):
    nan_field = tmp_path / "nan_field.bin"
    nan_field.write_bytes(b"LZGF" + struct.pack("<iq", 4, 0)
                          + struct.pack("<d", math.nan) * 225)
    argv = [a.replace("{nan_field}", str(nan_field)) for a in argv]
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 1
    assert "loopzeta: error:" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_field_file_exits_one(tmp_path, capsys):
    path = tmp_path / "short.bin"
    path.write_bytes(b"LZGF\0\0\0\0")
    assert run(["subdivide", "--field", str(path), "--epsilon", "0.4"]) == 1
    assert "loopzeta: error: field file header" in capsys.readouterr().err


def _reject_constant(name):
    raise AssertionError("non-finite JSON constant %s" % name)


def test_json_is_strict(tmp_path, caplog):
    out = tmp_path / "mass.json"
    with caplog.at_level(logging.INFO, logger="loopzeta"):
        assert run(["loop-mass", "--surface", "disk:1.0", "--qv-low", "0.4",
                    "--out", str(out)]) == 0
    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert payload["qv_high"] is None
    prefix = "resolved config: "
    logged = [r.getMessage()[len(prefix):] for r in caplog.records
              if r.getMessage().startswith(prefix)]
    assert len(logged) == 1
    config = json.loads(logged[0], parse_constant=_reject_constant)
    assert config["qv_high"] is None and config["qv_low"] == 0.4


def test_acceptance_subset(capsys):
    assert run(["acceptance", "--only", "3,5"]) == 0
    out = capsys.readouterr().out
    assert "PASS criterion  3" in out
    assert "PASS criterion  5" in out


def _fresh_env():
    """The environment of a fresh interpreter that imports this tree's loopzeta."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _run_subprocess(argv, timeout):
    """Run the CLI in a fresh interpreter; returns (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "loopzeta.cli"] + argv,
                          capture_output=True, text=True, timeout=timeout, env=_fresh_env())
    return proc.returncode, proc.stdout, proc.stderr


# log det(s S) = log det(S) - 2 log(s) zeta_S(0): the unit surface, its
# zeta(0) and the scale of each spec
_TINY_LATTICE = [
    ("interval:1e-50", IntervalDirichlet(1.0), -0.5, 1e-50),
    ("interval:1e-6", IntervalDirichlet(1.0), -0.5, 1e-6),
    ("torus:1e-8x1e-8", FlatTorus(1.0, 1.0), -1.0, 1e-8),
    ("rect:1e-8x1e-8", RectangleDirichlet(1.0, 1.0), 0.25, 1e-8),
]


@pytest.mark.parametrize("spec, unit, zeta0, scale", _TINY_LATTICE)
def test_tiny_lattice_surface_is_right_or_refused(spec, unit, zeta0, scale):
    # far below unit scale the Poisson sums of the lattice residuals either
    # ran for minutes or stopped after one term with a wrong value
    code, out, err = _run_subprocess(["zeta-det", "--surface", spec], timeout=10)
    if code == 1:
        assert "loopzeta: error:" in err and out == ""
        return
    assert code == 0
    payload = json.loads(out)
    want = log_det_zeta(unit, 0.1).log_det - 2.0 * math.log(scale) * zeta0
    assert abs(payload["log_det"] - want) <= 2.0 * payload["error_estimate"]


@pytest.mark.parametrize("spec", ["sphere:1e4", "disk:30", "sphere:1000"])
def test_large_sphere_or_disk_is_refused_at_once(spec):
    # the head quadrature used to start at its largest t, so the smallest t,
    # whose trace needs the most eigenvalues, came last: these ran past 60 s
    # (the sphere's per-t arrays heading for ~460 MB each at 1e4)
    code, out, err = _run_subprocess(["zeta-det", "--surface", spec], timeout=10)
    assert code == 1 and out == ""
    assert "loopzeta: error: spectral enumeration needs ~" in err


_OVERSIZED = ["sphere:1e200", "disk:1e200", "sphere:1e155", "disk:1e155",
              "sphere:1e154", "disk:1e154"]


@pytest.mark.parametrize("argv", [
    *(["zeta-det", "--surface", spec] for spec in _OVERSIZED),
    *(["loop-mass", "--surface", spec, "--qv-low", "1", "--kappa", "1"]
      for spec in _OVERSIZED),
    *(["loop-mass", "--surface", spec, "--qv-low", "1e-20", "--kappa", "1"]
      for spec in ("interval:1e300", "rect:1e300x1", "torus:1e300x1")),
])
def test_size_past_the_float_range_is_refused_by_name(capsys, argv):
    # radius**2 overflowed with "(34, 'Numerical result out of range')", and
    # an eigenvalue count past the float range with "cannot convert float
    # infinity to integer"
    start = time.perf_counter()
    assert run(argv) == 1
    assert time.perf_counter() - start < 10.0
    out, err = capsys.readouterr()
    assert out == ""
    message = err.splitlines()[-1]
    assert message.startswith("loopzeta: error: ")
    assert ("radius" in message
            or "spectral enumeration needs ~" in message), message
    assert "out of range" not in err and "infinity" not in err


@pytest.mark.parametrize("spec", ["sphere:1e-170", "disk:1e-170"])
def test_radius_whose_square_underflows_is_refused_by_name(spec):
    # r^2 underflowed to 0: the sphere printed a null log_det and exited 0,
    # the disk exited 2 with a value computed from a zero area
    code, out, err = _run_subprocess(["zeta-det", "--surface", spec], timeout=60)
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == (
        "loopzeta: error: radius 1e-170 is too small: its square underflows float64")


def _fresh_interpreter(probe):
    """stdout of `python -c probe` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, env=_fresh_env(), check=True).stdout


def test_import_loads_no_scipy_subpackage():
    # scipy.stats served one chi-square tail and loaded nine more scipy
    # subpackages, about 0.65 s of every command's start; scipy.special and
    # scipy.fft, imported at the top of five modules, took about 0.19 s more

    # a module of scipy.stats is loaded only with the package scipy.stats
    probe = ("import sys, loopzeta, loopzeta.cli\n"
             "print(*(name for name, module in sys.modules.items()\n"
             "        if name.startswith('scipy.') and hasattr(module, '__path__')))")
    subpackages = {name for name in _fresh_interpreter(probe).split()
                   if name.count(".") == 1 and not name.startswith("scipy._")}
    assert subpackages == set()


_PROBED = ("scipy.special", "scipy.fft")


def _loaded_after(statements):
    """Which of `_PROBED` a fresh interpreter holds after running statements."""
    probe = statements + "\nimport sys\nprint(*(n for n in %r if n in sys.modules))" % (
        _PROBED,)
    return set(_fresh_interpreter(probe).split())


# each command at a small size that exits 0, and the scipy subpackages it uses
_COMMAND_SUBPACKAGES = [
    (["graph-loops", "--graph", "@grid4.txt"], []),
    (["soup-sample", "--graph", "@grid4.txt", "--max-len", "80", "--seed", "0"], []),
    (["zeta-det", "--surface", "interval:1"], ["scipy.special"]),
    (["gff-sample", "--size", "16", "--out", "@field.bin"], ["scipy.fft"]),
]


@pytest.mark.parametrize("argv, uses", _COMMAND_SUBPACKAGES,
                         ids=[argv[0] for argv, _ in _COMMAND_SUBPACKAGES])
def test_command_loads_only_the_scipy_subpackages_it_uses(argv, uses, tmp_path):
    (tmp_path / "grid4.txt").write_text(graphs.write_edge_list(graphs.grid_graph(4)))
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    loaded = _loaded_after("import contextlib, io\n"
                           "from loopzeta import cli\n"
                           "with contextlib.redirect_stdout(io.StringIO()):\n"
                           "    assert cli.main(%r) == 0" % argv)
    # a subpackage may import another itself: scipy.fft imports scipy.special
    expected = _loaded_after("".join("import %s\n" % name for name in uses))
    assert set(uses) <= loaded
    assert loaded == expected


def test_graph_loops_flags_overflowed_identity(tmp_path):
    # K_150 with one boundary vertex: det of the 149 x 149 Laplacian minor is
    # 150^148 and the degree product 149^149, both past float64
    path = tmp_path / "k150.txt"
    n = 150
    path.write_text(graphs.write_edge_list(graphs.Graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)], [0])))
    code, out, err = _run_subprocess(["graph-loops", "--graph", str(path)],
                                     timeout=120)
    assert code == 2
    rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
    assert rows["det_laplacian_minor"] == "inf" and rows["degree_product"] == "inf"
    assert math.isfinite(float(rows["det_rw_laplacian"]))
    assert "RuntimeWarning" not in err
    warnings = [line for line in err.splitlines()
                if line.startswith("loopzeta: WARNING:")]
    assert any("det_laplacian_minor" in line for line in warnings)
    assert any("degree_product" in line for line in warnings)


# JSON bytes recorded before the reports were written from their dataclasses
_ZETA_DET_TORUS_JSON = """{
  "surface": "torus:1.0x2.0",
  "log_det": -0.7081146907156994,
  "delta_split": 0.05,
  "integral_tail": 1.4641179220123384,
  "integral_head": 0.008579021888809475,
  "correction_terms": -0.7645822531854485,
  "error_estimate": 1.4004326336342345e-13,
  "flagged": false
}
"""

_REWEIGHT_SMALL_JSON = """{
  "count_chi2": 10.748168893821669,
  "count_p": 0.6319050682204947,
  "level_chi2": 1.1429693230211206,
  "level_p": 0.7667125328132193,
  "slice_chi2": 0.583996983450867,
  "slice_p": 0.9000859255668257,
  "modal_count": 13,
  "ess": 750.2518019401049,
  "underpowered": false,
  "mean_count_direct": 16.255,
  "mean_count_weighted": 15.764083584196834
}
"""


def test_zeta_det_json_bytes_pinned(tmp_path):
    out = tmp_path / "det.json"
    assert run(["zeta-det", "--surface", "torus:1.0x2.0", "--delta", "0.05",
                "--out", str(out)]) == 0
    assert out.read_text() == _ZETA_DET_TORUS_JSON


def test_reweight_test_json_bytes_pinned(tmp_path):
    out, csv_out = tmp_path / "rw.json", tmp_path / "rw.csv"
    assert run(["reweight-test", "--size", "16", "--charge", "0",
                "--delta-charge", "-6", "--samples", "1000", "--seed", "3",
                "--json-out", str(out), "--out", str(csv_out)]) == 0
    assert out.read_text() == _REWEIGHT_SMALL_JSON
    assert csv_out.read_text() == ("statistic,direct,weighted\n"
                                   "mean_count,16.254999999999999,15.764083584196834\n")


@pytest.mark.parametrize("only, named", [
    ("99", "no criterion 99"), ("5,99", "no criterion 99"), ("0,19", "no criterion 0,19"),
    ("", "no criterion ''"), ("5,", "no criterion '5,'"),
])
def test_acceptance_unknown_or_empty_selection_exits_one(capsys, only, named):
    assert run(["acceptance", "--only", only]) == 1
    out, err = capsys.readouterr()
    assert out == ""  # refused before any criterion runs
    assert "loopzeta: error: %s" % named in err


@pytest.mark.parametrize("seed", [-1, 2**63, 99999999999999999999])
def test_gff_sample_seed_out_of_range_exits_one_before_sampling(
        tmp_path, capsys, monkeypatch, seed):
    def never(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(gff, "sample_dgff", never)
    out = tmp_path / "x.bin"
    assert run(["gff-sample", "--size", "16", "--seed", str(seed),
                "--out", str(out)]) == 1
    assert "loopzeta: error: --seed must lie in [0, 2^63)" in capsys.readouterr().err
    assert not out.exists()


def test_gff_sample_largest_seed_round_trips(tmp_path):
    out = tmp_path / "x.bin"
    assert run(["gff-sample", "--size", "16", "--seed", str(2**63 - 1),
                "--out", str(out)]) == 0
    assert gff.read_field(out).seed == 2**63 - 1


def test_lattice_torus_short_sequence_writes_no_rows(capsys):
    assert run(["lattice-torus", "--sizes", "2,3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "loopzeta: error: need at least 4 lattice sizes" in err


def test_verify_theorem_one_distinct_delta_has_no_slope(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["verify-theorem", "--case", "closed", "--surface", "torus:1x1",
                    "--deltas", "0.01,0.01"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out.splitlines()[-1])["slope"] is None


def test_budget_error_count_is_short(capsys):
    # the count has 302 digits
    assert run(["loop-mass", "--surface", "disk:1", "--qv-low", "1e-300"]) == 1
    err = capsys.readouterr().err
    assert ("loopzeta: error: spectral enumeration needs ~2.76e+301 eigenvalues,"
            " budget is 5000000\n") in err


def test_loop_mass_overflowing_cutoff_names_the_budget(capsys):
    # the eigenvalue cutoff 50 / (qv_low / 4) overflows to inf
    assert run(["loop-mass", "--surface", "torus:1000x1000", "--qv-low", "1e-306",
                "--kappa", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert ("loopzeta: error: spectral enumeration needs ~inf eigenvalues,"
            " budget is 5000000\n") in err


def test_lattice_torus_above_the_site_budget_is_refused_at_once(capsys):
    start = time.perf_counter()
    assert run(["lattice-torus", "--sizes", "100000,200000,400000,800000"]) == 1
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert ("loopzeta: error: lattice 100000 x 100000 has 10000000000 sites,"
            " budget is 16777216\n") in err


_EDGE_VALUES = st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "-1e308", "1e308"])
_PLAIN_VALUES = st.sampled_from(["0.4", "1", "2.5"])


def _run_captured(argv):
    """cli.main in-process on argv, with warnings as errors: (exit code,
    stdout, stderr). An exception other than argparse's SystemExit
    propagates, which fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(code, out, err) -> bool:
    """Check the exit contract; True when the command wrote its output
    (exit 0, or 2 with flagged results rather than an argparse usage error)."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "Warning" not in err
    if code == 1:
        assert out == ""
        assert err.splitlines()[-1].startswith("loopzeta: error: ")
    usage = code == 2 and out == "" and "usage: loopzeta" in err
    return not (code == 1 or usage)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["disk", "sphere", "interval", "torus", "rect"]),
       size=st.one_of(_EDGE_VALUES, _PLAIN_VALUES),
       qv_low=st.one_of(_EDGE_VALUES, _PLAIN_VALUES),
       qv_high=st.one_of(st.none(), _EDGE_VALUES, _PLAIN_VALUES),
       kappa=st.one_of(st.none(), _EDGE_VALUES, _PLAIN_VALUES))
# C / delta past the float range: "loop_mass": null, and E1 and heat-trace
# arguments that overflowed with numpy warnings
@example(kind="torus", size="1", qv_low="0.4", qv_high="1e308", kappa=None)
@example(kind="disk", size="1", qv_low="1", qv_high="1e308", kappa=None)
@example(kind="sphere", size="1e308", qv_low="1", qv_high=None, kappa="1")
def test_loop_mass_input_sweep(kind, size, qv_low, qv_high, kappa):
    sizes = size if kind in ("disk", "sphere", "interval") else size + "x" + size
    argv = ["loop-mass", "--surface", "%s:%s" % (kind, sizes), "--qv-low=" + qv_low]
    if qv_high is not None:
        argv.append("--qv-high=" + qv_high)
    if kappa is not None:
        argv.append("--kappa=" + kappa)
    code, out, err = _run_captured(argv)
    if _assert_clean_exit(code, out, err):
        payload = json.loads(out, parse_constant=_reject_constant)
        assert payload["loop_mass"] is not None
        assert payload["loop_mass_quadrature"] is not None


@settings(max_examples=60, deadline=None)
@example(graph="all-boundary", max_len="9223372036854775808", alpha=None)
@given(graph=st.sampled_from(["killed", "closed", "periodic", "all-boundary"]),
       max_len=st.one_of(st.none(), st.integers(-2, 60).map(str),
                         st.sampled_from(["nan", "1e308", "", "9223372036854775808"])),
       alpha=st.one_of(st.none(), _EDGE_VALUES, st.sampled_from(["0.5", "1"])))
def test_graph_loops_input_sweep(tmp_path_factory, graph, max_len, alpha):
    g = {"killed": graphs.grid_graph(3),
         "closed": graphs.Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
         "periodic": graphs.Graph(3, [(0, 1), (1, 2)], [0]),
         "all-boundary": graphs.Graph(3, [(0, 1), (1, 2)], [0, 1, 2])}[graph]
    path = tmp_path_factory.mktemp("sweep") / "graph.txt"
    path.write_text(graphs.write_edge_list(g))
    argv = ["graph-loops", "--graph", str(path)]
    if max_len is not None:
        argv.append("--max-len=" + max_len)
    if alpha is not None:
        argv.append("--alpha=" + alpha)
    code, out, err = _run_captured(argv)
    if _assert_clean_exit(code, out, err):
        assert out.startswith("quantity,value\n")


@pytest.mark.parametrize("argv", [
    ["loop-mass", "--surface", "rect:1e300x1e-20", "--qv-low", "1e-20", "--kappa", "1"],
    ["zeta-det", "--surface", "rect:1e300x1e-20"],
])
def test_rectangle_with_a_side_past_the_float_range_is_refused_by_name(argv):
    # the side counts inf and 0 multiplied to nan, which passed the budget
    # check; np.arange(1, inf) then failed with "Maximum allowed size exceeded"
    start = time.perf_counter()
    code, out, err = _run_captured(argv)
    assert time.perf_counter() - start < 10.0
    assert code == 1 and out == ""
    last = err.splitlines()[-1]
    assert last.startswith("loopzeta: error: ")
    assert "budget is 5000000" in last or "surface too small" in last
    assert "Maximum allowed size exceeded" not in err


def test_gff_sample_dash_writes_the_field_to_stdout(tmp_path, monkeypatch, capsysbinary):
    monkeypatch.chdir(tmp_path)
    assert run(["gff-sample", "--size", "16", "--seed", "1"]) == 0
    piped = capsysbinary.readouterr().out
    assert not (tmp_path / "-").exists()
    assert run(["gff-sample", "--size", "16", "--seed", "1", "--out", "f.bin"]) == 0
    assert capsysbinary.readouterr().out == b""
    assert piped == (tmp_path / "f.bin").read_bytes()
    assert len(piped) == 16 + 8 * 15 * 15


def test_acceptance_has_no_out_option(capsys):
    with pytest.raises(SystemExit):
        run(["acceptance", "--help"])
    assert "--out" not in capsys.readouterr().out


_SPECS = st.one_of(
    st.tuples(st.sampled_from(["disk", "sphere", "interval", "torus", "rect"]),
              st.one_of(_EDGE_VALUES, _PLAIN_VALUES)).map(
        lambda ks: "%s:%s" % (ks[0], ks[1] if ks[0] in ("disk", "sphere", "interval")
                              else ks[1] + "x" + ks[1])),
    st.sampled_from(["", "disk", "disk:", "cone:1", "torus:1", "rect:1x", "torus:axb",
                     "sphere:1x2", "interval:1:2", "rect:1e300x1e-20"]))


@settings(max_examples=80, deadline=30_000)
@given(spec=_SPECS,
       delta=st.one_of(st.none(), _EDGE_VALUES, st.sampled_from(["0.4", "0.05", "1e-5"])))
def test_zeta_det_input_sweep(spec, delta):
    argv = ["zeta-det", "--surface", spec]
    if delta is not None:
        argv.append("--delta=" + delta)
    code, out, err = _run_captured(argv)
    if _assert_clean_exit(code, out, err):
        payload = json.loads(out, parse_constant=_reject_constant)
        assert payload["log_det"] is not None


_INT_EDGES = st.sampled_from(["nan", "inf", "-1", "0", "1e308", "",
                              "9223372036854775808", "-9223372036854775808"])


@settings(max_examples=60, deadline=30_000)
@example(graph="all-boundary", intensity=None, max_len="9223372036854775808", seed=None)
# past the soup's work budget: it drew until memory ran out
@example(graph="killed", intensity="1e12", max_len=None, seed=None)
@given(graph=st.sampled_from(["killed", "closed", "periodic", "all-boundary"]),
       intensity=st.one_of(st.none(), _EDGE_VALUES, _PLAIN_VALUES),
       max_len=st.one_of(st.none(), st.integers(-2, 60).map(str), _INT_EDGES),
       seed=st.one_of(st.none(), st.integers(0, 3).map(str), _INT_EDGES))
def test_soup_sample_input_sweep(tmp_path_factory, graph, intensity, max_len, seed):
    g = {"killed": graphs.grid_graph(3),
         "closed": graphs.Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
         "periodic": graphs.Graph(3, [(0, 1), (1, 2)], [0]),
         "all-boundary": graphs.Graph(3, [(0, 1), (1, 2)], [0, 1, 2])}[graph]
    path = tmp_path_factory.mktemp("sweep") / "graph.txt"
    path.write_text(graphs.write_edge_list(g))
    argv = ["soup-sample", "--graph", str(path)]
    for flag, value in (("--intensity", intensity), ("--max-len", max_len),
                        ("--seed", seed)):
        if value is not None:
            argv.append(flag + "=" + value)
    code, out, err = _run_captured(argv)
    if _assert_clean_exit(code, out, err):
        assert out.startswith("loop,length,vertices\n")


def _run_captured_binary(argv):
    """`_run_captured` with a stdout that also takes bytes: (exit code,
    stdout bytes, stderr)."""
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=30_000)
@given(size=st.one_of(st.none(), st.sampled_from(["16", "32", "64"]), _INT_EDGES,
                      st.sampled_from(["1", "17", "16384", "16.0"])),
       seed=st.one_of(st.none(), st.integers(0, 3).map(str), _INT_EDGES,
                      st.just("9223372036854775807")),
       to_stdout=st.booleans())
def test_gff_sample_input_sweep(tmp_path_factory, size, seed, to_stdout):
    path = tmp_path_factory.mktemp("sweep") / "f.bin"
    argv = ["gff-sample", "--out", "-" if to_stdout else str(path),
            "--size", "16" if size is None else size]
    if seed is not None:
        argv.append("--seed=" + seed)
    code, raw, err = _run_captured_binary(argv)
    # latin-1 maps bytes to text one to one, so "" means no bytes were written
    if _assert_clean_exit(code, raw.decode("latin-1"), err):
        assert code == 0
        if not to_stdout:
            raw = path.read_bytes()
        n = int(size or 16)
        assert raw[:4] == b"LZGF" and len(raw) == 16 + 8 * (n - 1) ** 2
    else:
        assert to_stdout or not path.exists()


def test_all_boundary_graph_has_zero_masses_and_an_empty_soup(tmp_path):
    # every vertex absorbs: the killed walk's interior is empty
    graph = tmp_path / "graph.txt"
    graph.write_text("# boundary: 0 1 2\n0 1\n1 2\n")
    code, out, err = _run_captured(["graph-loops", "--graph", str(graph)])
    assert code == 0
    assert out == ("quantity,value\ndet_laplacian_minor,1\ndet_rw_laplacian,1\n"
                   "degree_product,1\nloop_mass_exact,0\nloop_mass_truncated,0\n"
                   "tail_bound,0\nspanning_trees,1\n")
    code, out, err = _run_captured(["soup-sample", "--graph", str(graph)])
    assert (code, out) == (0, "loop,length,vertices\n")


def test_all_boundary_graph_takes_any_max_len_at_once(tmp_path):
    # (max_len + 1) n^2 is 0 for every max_len when n = 0, so the powers
    # budget refuses none; no power of the 0x0 P may be formed
    graph = tmp_path / "graph.txt"
    graph.write_text("# boundary: 0 1 2\n0 1\n1 2\n")
    start = time.perf_counter()
    code, out, err = _run_captured(["graph-loops", "--graph", str(graph),
                                    "--max-len", "9223372036854775808"])
    assert (code, out) == (0, _run_captured(["graph-loops", "--graph", str(graph)])[1])
    code, out, err = _run_captured(["soup-sample", "--graph", str(graph),
                                    "--max-len", "9223372036854775808"])
    assert (code, out) == (0, "loop,length,vertices\n")
    assert time.perf_counter() - start < 10.0


def test_partition_csv_streams_in_blocks():
    part = subdivision.regime_protocol(gff.sample_dgff(512, 7), 23.5)
    assert len(part) > _blocks.BLOCK
    chunks = list(subdivision._csv_chunks(part))
    assert chunks[0] == "level,i,j,flagged\n"
    assert len(chunks) >= 3
    assert "".join(chunks) == reference_subdivide_csv(part)


_DELTA_LISTS = st.lists(st.one_of(_EDGE_VALUES, st.sampled_from(["0.4", "0.01", "1"])),
                        min_size=1, max_size=3).map(",".join)


@settings(max_examples=100, deadline=30_000)
@given(case=st.sampled_from(["boundary", "closed", "decay"]),
       kind=st.sampled_from(["disk", "sphere", "interval", "torus", "rect"]),
       size=st.one_of(_EDGE_VALUES, _PLAIN_VALUES),
       deltas=st.one_of(st.none(), _DELTA_LISTS, st.sampled_from(["", ",", "0.4,,0.1"])),
       cap=st.one_of(st.none(), _EDGE_VALUES, _PLAIN_VALUES),
       kappa=st.one_of(st.none(), _EDGE_VALUES, _PLAIN_VALUES))
@example(case="boundary", kind="disk", size="1", deltas=None, cap=None, kappa=None)
@example(case="closed", kind="torus", size="1", deltas="0.01,0.4", cap="2.5", kappa=None)
@example(case="decay", kind="sphere", size="0.4", deltas="0.01", cap=None, kappa="1")
def test_verify_theorem_input_sweep(case, kind, size, deltas, cap, kappa):
    sizes = size if kind in ("disk", "sphere", "interval") else size + "x" + size
    argv = ["verify-theorem", "--case", case, "--surface", "%s:%s" % (kind, sizes),
            "--deltas=" + ("0.4,0.1" if deltas is None else deltas)]
    for flag, value in (("--cap", cap), ("--kappa", kappa)):
        if value is not None:
            argv.append(flag + "=" + value)
    code, out, err = _run_captured(argv)
    if _assert_clean_exit(code, out, err):
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "delta,residual"
        payload = json.loads(lines[-1], parse_constant=_reject_constant)
        assert payload["case"] == case
        assert all(math.isfinite(float(line.split(",")[1])) for line in lines[1:-1])


@settings(max_examples=60, deadline=30_000)
@given(size=st.one_of(st.none(), st.sampled_from(["16", "32", "64"]), _INT_EDGES),
       seed=st.one_of(st.none(), st.integers(0, 3).map(str), _INT_EDGES),
       charge=st.one_of(st.none(), _EDGE_VALUES, st.sampled_from(["0", "1.5", "23.5"])),
       ratio=st.one_of(st.none(), _EDGE_VALUES, st.sampled_from(["0.001", "0.5"])),
       epsilon=st.one_of(st.none(), _EDGE_VALUES, st.sampled_from(["0.01", "0.4"])),
       field=st.sampled_from([None, "whole", "truncated", "empty"]),
       svg=st.booleans())
def test_subdivide_input_sweep(tmp_path_factory, size, seed, charge, ratio, epsilon,
                               field, svg):
    tmp = tmp_path_factory.mktemp("sweep")
    svg_path = tmp / "part.svg"
    argv = ["subdivide", "--size", "16" if size is None else size]
    if field is not None:
        raw = io.BytesIO()
        gff.write_field(gff.sample_dgff(32, 1), raw)
        raw = raw.getvalue()
        (tmp / "f.bin").write_bytes({"whole": raw, "truncated": raw[:len(raw) // 2],
                                     "empty": b""}[field])
        argv.append("--field=" + str(tmp / "f.bin"))
    for flag, value in (("--seed", seed), ("--charge", charge), ("--ratio", ratio),
                        ("--epsilon", epsilon)):
        if value is not None:
            argv.append(flag + "=" + value)
    if svg:
        argv.append("--svg=" + str(svg_path))
    code, out, err = _run_captured(argv)
    if _assert_clean_exit(code, out, err):
        lines = out.splitlines()
        assert lines[0] == "level,i,j,flagged" and len(lines) > 1
        if svg:
            text = svg_path.read_text()
            assert text.startswith("<svg") and text.endswith("</svg>")
            assert text.count("<rect") == len(lines) - 1
    else:
        assert not svg_path.exists()


def test_abbreviated_flag_wins_over_the_config_file(tmp_path):
    # the given flags were found by scanning argv for "--delta", which
    # missed the abbreviation argparse accepts, so the config's 0.2 won
    ini = tmp_path / "conf.ini"
    ini.write_text("[loopzeta]\ndelta = 0.2\n")
    code, out, err = _run_captured(["--config", str(ini), "zeta-det",
                                    "--surface", "interval:1", "--del", "0.3"])
    assert code == 0
    assert json.loads(out)["delta_split"] == 0.3


@pytest.mark.parametrize("argv, message", [
    (["loop-mass", "--surface", "disk:1", "--qv-low", "0.4", "--kappa", "-1e-3"],
     "kappa must be finite and >= 0"),
    (["loop-mass", "--surface", "disk:1", "--qv-low", "-4E+2"],
     "require finite qv_low with 0 < qv_low < qv_high"),
    (["subdivide", "--size", "16", "--charge", "-inf"], "central charge must be finite"),
    (["subdivide", "--size", "16", "--ratio", "-NaN"], "ratio must be finite and positive, got nan"),
    (["zeta-det", "--surface", "interval:1", "--delta", "-1.5e-3"],
     "delta must lie in [1e-5, 0.5]"),
])
def test_negative_exponent_form_values_parse_as_separate_tokens(argv, message):
    # argparse's own negative-number pattern has no exponent and no inf or
    # nan, so these ended in "expected one argument" (exit 2)
    code, out, err = _run_captured(argv)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == "loopzeta: error: " + message


@pytest.mark.parametrize("argv, message", [
    (["lattice-torus", "--sizes", "-8,16,32,64"], "need n_x, n_y >= 2"),
    (["verify-theorem", "--case", "boundary", "--surface", "disk:1", "--deltas", "-0.1,0.2"],
     "delta must be finite and positive, got -0.1"),
])
def test_negative_comma_lists_parse_as_separate_tokens(argv, message):
    # a list that starts with a negative number was taken for an option and
    # ended in "expected one argument" (exit 2), where "--sizes=-8,..." parsed
    code, out, err = _run_captured(argv)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == "loopzeta: error: " + message


def test_penalized_loop_mass_of_a_large_torus_matches_the_unit_torus():
    # the quadrature searched for the spectral gap from cutoff 200, and then
    # discarded it for kappa: "needs ~2.03e+09 eigenvalues"
    masses = []
    for argv in (["--surface", "torus:1e4x1e4", "--qv-low", "1e6", "--kappa", "4e-6"],
                 ["--surface", "torus:1x1", "--qv-low", "1e-2", "--kappa", "4e2"]):
        code, out, err = _run_captured(["loop-mass"] + argv)
        assert code == 0, err
        payload = json.loads(out)
        masses.append((payload["loop_mass"], payload["loop_mass_quadrature"]))
    assert masses[0] == pytest.approx(masses[1], rel=1e-12, abs=0.0)
    assert masses[0][0] == pytest.approx(4.726758801048129, rel=1e-15, abs=0.0)


def test_very_negative_charge_subdivides(tmp_path):
    # gamma = Q - sqrt(Q^2 - 4) was 0.0 here: "float division by zero"
    out = tmp_path / "p.csv"
    code, _, err = _run_captured(["subdivide", "--size", "16", "--charge", "-1e150",
                                  "--out", str(out)])
    assert code in (0, 2) and "division by zero" not in err
    assert out.read_text().startswith("level,i,j,flagged\n")


@pytest.mark.parametrize("seed", range(6))
def test_charge_near_25_exits_one_naming_it(seed):
    # "math range error" at seeds 1, 3 and 4, and "epsilon must be finite
    # and positive" at seeds 0, 2 and 5
    code, out, err = _run_captured(["subdivide", "--size", "16", "--seed", str(seed),
                                    "--charge", "24.999999999"])
    assert (code, out) == (1, "")
    assert "24.999999999" in err.splitlines()[-1]


def test_small_delta_disk_is_refused_at_once():
    # the tail's 4.3 million Bessel zeros were built before the head's fit
    # asked for 1.7e7 and was refused, 53 s in
    code, out, err = _run_subprocess(["zeta-det", "--surface", "disk:2.5", "--delta", "1e-5"],
                                     timeout=10)
    assert code == 1 and out == ""
    assert "loopzeta: error: spectral enumeration needs ~" in err


@pytest.mark.parametrize("spec", ["interval:1e308", "rect:1e300x1", "torus:1e300x1",
                                  "interval:1e154", "rect:1e150x1e150", "torus:1e150x1e150"])
def test_lattice_side_past_the_float_range_is_refused_by_name(spec):
    # with the head before the tail these reach the Poisson residuals, whose
    # (side k)^2 raised "(34, 'Numerical result out of range')" or whose
    # (side k)^2 / t overflowed with a RuntimeWarning
    code, out, err = _run_captured(["zeta-det", "--surface", spec])
    assert (code, out) == (1, "")
    assert err.splitlines()[-1].startswith("loopzeta: error: surface too large: ")
    assert " side 1e+" in err.splitlines()[-1]


@settings(max_examples=60, deadline=30_000)
@given(aspect=st.one_of(st.none(), st.sampled_from(["1", "2", "-2", "1.5"]), _INT_EDGES),
       sizes=st.one_of(st.none(), st.sampled_from(["8,16,32,64", "4,8,16", "8,16,32,64,128"]),
                       st.lists(st.one_of(st.sampled_from(["8", "16", "32", "-8"]), _INT_EDGES),
                                min_size=1, max_size=5).map(",".join)))
def test_lattice_torus_input_sweep(aspect, sizes):
    argv = ["lattice-torus", "--sizes", "8,16,32,64" if sizes is None else sizes]
    if aspect is not None:
        argv += ["--aspect", aspect]
    code, out, err = _run_captured(argv)
    if _assert_clean_exit(code, out, err):
        lines = out.splitlines()
        assert lines[0] == "n_x,n_y,log_det_prime,constant"
        payload = json.loads(lines[-1], parse_constant=_reject_constant)
        assert payload["aspect"] == int(aspect or 1)
        assert all(math.isfinite(float(x)) for line in lines[1:-1] for x in line.split(","))


@settings(max_examples=30, deadline=30_000)
@given(size=st.one_of(st.none(), st.sampled_from(["8", "-16", "32.0"]), _INT_EDGES),
       charge=st.one_of(st.none(), _EDGE_VALUES, st.sampled_from(["-12.5", "1.5"])),
       delta_charge=st.one_of(st.none(), _EDGE_VALUES, st.sampled_from(["-6", "-1e3"])),
       epsilon=st.one_of(st.none(), _EDGE_VALUES, st.sampled_from(["0.45", "0.3"])),
       samples=st.one_of(st.none(), _INT_EDGES, st.sampled_from(["999", "-1000", "500001"])),
       seed=st.one_of(st.none(), st.integers(0, 3).map(str), _INT_EDGES))
# every weight of the modal-count slice underflowed to 0: ESS 0/0 warned
@example(size=None, charge=None, delta_charge="-1e308", epsilon=None, samples=None, seed=None)
def test_reweight_test_input_sweep(size, charge, delta_charge, epsilon, samples, seed):
    argv = ["reweight-test", "--size", "16" if size is None else size,
            "--samples", "1000" if samples is None else samples]
    for flag, value in (("--charge", charge), ("--delta-charge", delta_charge),
                        ("--epsilon", epsilon), ("--seed", seed)):
        if value is not None:
            argv += [flag, value]
    code, out, err = _run_captured(argv)
    if _assert_clean_exit(code, out, err):
        report, _, table = out.partition("}\n")
        payload = json.loads(report + "}", parse_constant=_reject_constant)
        assert None not in (payload["count_p"], payload["level_p"], payload["ess"])
        assert table.startswith("statistic,direct,weighted\nmean_count,")


@settings(max_examples=30, deadline=60_000)
@given(only=st.lists(st.sampled_from(["3", "5", "15", " 5", "0", "-1", "-15", "19", "",
                                      "nan", "1e308", "-1e3", "3.0"]),
                     min_size=1, max_size=3).map(",".join))
def test_acceptance_input_sweep(only):
    code, out, err = _run_captured(["acceptance", "--only", only])
    if _assert_clean_exit(code, out, err):
        assert code == 0
        for index in {int(tok) for tok in only.split(",")}:
            assert "PASS criterion %2d" % index in out
