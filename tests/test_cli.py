import json
import logging
import math
import struct

import pytest

from loopzeta import cli, gff, graphs


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


def test_determinism_byte_identical(graph_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["soup-sample", "--graph", graph_file, "--intensity", "2.0",
            "--max-len", "60", "--seed", "7"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


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
