import importlib.util
import pathlib

from loopzeta import cli

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "manifest.py"
_spec = importlib.util.spec_from_file_location("manifest", _PATH)
manifest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(manifest)  # builds the tables, runs no entry


def test_manifest_runs_every_subcommand_but_acceptance():
    commands = set(cli.build_parser().subcommands) - {"acceptance"}
    assert commands <= {argv[0] for argv in manifest.CLI}


def test_manifest_entry_names_are_unique():
    names = ([name for name, _ in manifest.INPUTS + manifest.API]
             + [" ".join(argv) for argv in manifest.CLI])
    assert len(names) == len(set(names))
