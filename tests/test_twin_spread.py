"""`tools/twin_spread.py` on a tiny tall matrix: no twin spread at eps = 0,
a small one at eps = 1e-15, and a copy of this checkout as the base does
not differ from it.  On perfbench's tiny faces its zeta is the one that
perfbench's check finds in the CLI's artifacts."""

import importlib.util
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from lolrec import SolverConfig, solve
from lolrec.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def twin_spread():
    spec = importlib.util.spec_from_file_location("twin_spread", ROOT / "tools" / "twin_spread.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def X():
    return np.random.default_rng(0).standard_normal((12, 5))


def run(X):
    return solve(X, SolverConfig(max_iter=60), record_lagrangian=False)


def test_no_spread_without_a_perturbation(twin_spread, X):
    dec, spread, twins = twin_spread.twin_spread(run, X, eps=0.0, twins=2)
    assert spread == dict.fromkeys(twin_spread.BLOCKS, 0.0)
    assert [twin.iterations for twin in twins] == [dec.iterations] * 2


def test_rounding_size_twins_spread_a_little(twin_spread, X):
    dec, spread, twins = twin_spread.twin_spread(run, X, eps=1e-15, twins=2)
    assert set(spread) == set(twin_spread.BLOCKS) and len(twins) == 2
    assert all(0.0 <= value < 1e-6 for value in spread.values()), spread
    assert spread["Z"] > 0.0


def test_copy_of_this_checkout_as_base_does_not_differ(twin_spread, X, tmp_path, capsys):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    np.save(tmp_path / "X.npy", X)
    assert twin_spread.main([str(tmp_path / "X.npy"), "--twins", "1",
                             "--base", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"{tmp_path / 'X.npy'} (12 x 5), aslrc: ")
    assert [line.split(":")[0] for line in lines[2:]] == list(twin_spread.BLOCKS)
    assert all(line.endswith("this checkout against base 0") for line in lines[2:])


def test_zeta_on_perfbench_tiny_faces(twin_spread, monkeypatch, capsys, tmp_path):
    """`decompose-image`'s last line gives X's zeta, as perfbench's check
    reads it from a CLI `decompose` of the same faces, and its largest
    change over the twins: exactly 0 at eps = 0, small at eps = 1e-15."""
    faces = twin_spread.face_images
    monkeypatch.setattr(twin_spread, "face_images", lambda: faces("tiny"))
    found = {}
    for eps in ("0", "1e-15"):
        assert twin_spread.main(["decompose-image", "--eps", eps, "--twins", "2"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        value, change = re.fullmatch(r"zeta: (\S+), largest change over the twins (\S+)",
                                     line).groups()
        found[eps] = float(value), float(change)

    import workloads  # perfbench's, on the path since `face_images` ran
    workload = workloads.WORKLOADS["decompose-image"]
    argv = workload.make_inputs(7, "tiny", tmp_path)
    assert cli_main([*argv, "--out", str(tmp_path / "out")]) == 0
    problems, checked = workload.check(tmp_path / "out", tmp_path, "tiny")
    assert problems == []
    assert found["0"][0] == found["1e-15"][0] == pytest.approx(checked["zeta"], abs=5e-7)
    assert found["0"][1] == 0.0 and 0.0 < found["1e-15"][1] < 1e-6
