"""`tools/twin_spread.py` on a tiny tall matrix: no twin spread at eps = 0,
a small one at eps = 1e-15, and a copy of this checkout as the base does
not differ from it."""

import importlib.util
import shutil
from pathlib import Path

import numpy as np
import pytest

from lolrec import SolverConfig, solve

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
    dec, spread, sweeps = twin_spread.twin_spread(run, X, eps=0.0, twins=2)
    assert spread == dict.fromkeys(twin_spread.BLOCKS, 0.0)
    assert sweeps == [dec.iterations] * 2


def test_rounding_size_twins_spread_a_little(twin_spread, X):
    dec, spread, sweeps = twin_spread.twin_spread(run, X, eps=1e-15, twins=2)
    assert set(spread) == set(twin_spread.BLOCKS) and len(sweeps) == 2
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
