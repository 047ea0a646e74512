"""`tools/same_output.py` at size tiny: a checkout against a copy of itself
is all identical, and a copy with one changed constant is flagged."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def same_output():
    spec = importlib.util.spec_from_file_location("same_output", ROOT / "tools" / "same_output.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def copy_of_src(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_copy_of_this_checkout_is_identical(same_output, tmp_path, capsys):
    assert same_output.main([str(copy_of_src(tmp_path)), "--size", "tiny"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "42 of 42 artifacts identical"
    # After each run's artifacts, its sweep counts: the same on both sides.
    counts = [line.split(" sweeps: ") for line in lines if " sweeps: " in line]
    runs = [run for run, _ in counts]
    assert len(counts) == 12 and {"bench-synth-tall", "denoise-invert-csv"} <= set(runs)
    for _, both in counts:
        base, head = both.removesuffix(" (this checkout)").split(" (base), ")
        assert base == head and base
    assert all(line.endswith(": identical") for line in lines[:-1] if " sweeps: " not in line)


def test_changed_default_eta_is_flagged(same_output, tmp_path, capsys):
    solver = copy_of_src(tmp_path) / "src" / "lolrec" / "solver.py"
    text = solver.read_text()
    assert text.count("eta: float = 1.12\n") == 1
    solver.write_text(text.replace("eta: float = 1.12\n", "eta: float = 1.13\n"))
    assert same_output.main([str(tmp_path), "--size", "tiny"]) != 0
    out = capsys.readouterr().out
    assert "denoise/denoise.csv: max relative difference" in out
    assert "decompose-image/manifest.json: differs in summary, solves, config_hash" in out
