"""The one-BLAS-thread pin around every inexact-ALM solve, and the CLI's
thread-independent output bytes."""

import functools
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import lolrec
from lolrec import blas, solver
from lolrec.cli import main
from lolrec.errors import NumericalError
from lolrec.solver import SolverConfig, solve

CFG = SolverConfig(max_iter=40)


def setters():
    return [lib.set_threads_local for lib in blas.loaded_openblas()
            if lib.set_threads_local is not None]


def counts():
    """Every loaded OpenBLAS's thread count, read by setting it back unchanged."""
    found = []
    for set_threads in setters():
        n = set_threads(1)
        set_threads(n)
        found.append(n)
    return found


@pytest.fixture
def three_threads(monkeypatch):
    """No BLAS variable set, every OpenBLAS on 3 threads; restored afterwards."""
    if not setters():
        pytest.skip("no OpenBLAS with openblas_set_num_threads_local is loaded")
    for var in blas.BLAS_ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    before = [set_threads(3) for set_threads in setters()]
    yield
    for set_threads, n in zip(setters(), before):
        set_threads(n)


def data():
    return np.random.default_rng(0).standard_normal((8, 12))


def count_each_sweep(monkeypatch, seen):
    """Append `counts()` to `seen` at each sweep's multiplier ascent."""
    real = solver._ascend

    def ascend(state, blocks, cfg):
        seen.append(counts())
        real(state, blocks, cfg)
    monkeypatch.setattr(solver, "_ascend", ascend)


def test_solve_pins_and_restores(three_threads, monkeypatch):
    seen = []
    count_each_sweep(monkeypatch, seen)
    solve(data(), CFG)
    assert seen and all(c == [1] * len(setters()) for c in seen)
    assert counts() == [3] * len(setters())


def test_restored_after_numerical_error(three_threads, monkeypatch):
    monkeypatch.setattr(solver, "update_E", lambda state, X, cfg: np.full(state.E.shape, np.nan))
    with pytest.raises(NumericalError):
        solve(data(), CFG)
    assert counts() == [3] * len(setters())


def test_blas_variable_wins(three_threads, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    seen = []
    count_each_sweep(monkeypatch, seen)
    solve(data(), CFG)
    assert all(c == [3] * len(setters()) for c in seen)
    assert blas.solve_threads() == "env"


def test_concurrent_solves_keep_the_pin_until_the_last_one_ends(three_threads, monkeypatch):
    """More solving threads than cores: no solve's exit undoes another's pin."""
    n = 4
    barrier = threading.Barrier(n, timeout=60)
    seen, errors = [], []
    count_each_sweep(monkeypatch, seen)

    def work():
        try:
            with blas.one_blas_thread():
                barrier.wait()
                solve(data(), CFG)
                barrier.wait()
                seen.append(counts())
        except Exception as exc:  # reported below: a thread's exception is otherwise lost
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(seen) == n * (CFG.max_iter + 1)
    assert all(c == [1] * len(setters()) for c in seen)
    assert counts() == [3] * len(setters())


class HeldLock:
    """A lock that holds thread `held` at its first acquire until `go` is set."""

    def __init__(self):
        self.lock, self.waiting, self.go = threading.Lock(), threading.Event(), threading.Event()
        self.held = None

    def __enter__(self):
        if threading.current_thread() is self.held and not self.go.is_set():
            self.waiting.set()
            assert self.go.wait(timeout=60)
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


def test_copy_mapped_by_an_ended_solve_is_pinned_in_the_next(monkeypatch):
    """Solve A maps a second OpenBLAS copy mid-solve and ends while solve B
    waits for the lock: B pins that copy too, and both get their counts back."""
    for var in blas.BLAS_ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    count, mapped = {"numpy": 4, "scipy": 4}, ["numpy"]

    def setter(name):
        def set_threads(n):
            old, count[name] = count[name], n
            return old
        return set_threads

    monkeypatch.setattr(blas, "loaded_openblas", functools.cache(
        lambda: tuple(blas.OpenBlas(name, None, setter(name)) for name in mapped)))
    lock = HeldLock()
    monkeypatch.setattr(blas, "_lock", lock)
    seen = []

    def solve_b():
        with blas.one_blas_thread():
            blas.pin_late_copies()
            seen.append(dict(count))

    lock.held = threading.Thread(target=solve_b)
    lock.held.start()
    assert lock.waiting.wait(timeout=60)
    with blas.one_blas_thread():  # solve A
        mapped.append("scipy")
        blas.pin_late_copies()
    lock.go.set()
    lock.held.join(timeout=60)
    assert not lock.held.is_alive()
    assert seen == [{"numpy": 1, "scipy": 1}]
    assert count == {"numpy": 4, "scipy": 4}


def test_without_openblas_same_result(monkeypatch):
    for var in blas.BLAS_ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    pinned = solve(data(), CFG)
    monkeypatch.setattr(blas, "loaded_openblas", lambda: ())
    assert blas.solve_threads() == "unpinned"
    unpinned = solve(data(), CFG)
    assert np.array_equal(pinned.Z_star, unpinned.Z_star)
    assert pinned.iterations == unpinned.iterations


LIBRARY_SOLVES = """
import sys
import numpy as np
from lolrec.latlrr import latlrr_solve
from lolrec.solver import SolverConfig, solve
X = np.random.default_rng(0).standard_normal((400, 12))
cfg = SolverConfig(max_iter=30)
with open(sys.argv[1], "wb") as fh:
    for dec in (solve(X, cfg, record_lagrangian=False),
                latlrr_solve(X, cfg.lam, cfg, record_lagrangian=False)):
        fh.write(dec.salient.tobytes() + dec.principal.tobytes())
"""


def test_library_solve_bytes_independent_of_blas_threads(tmp_path):
    """Set-up and output products run inside the pin too, so a library caller
    under default BLAS threads gets the bytes of a one-thread run."""
    env = {k: v for k, v in os.environ.items() if k not in blas.BLAS_ENV_VARS}
    env["PYTHONPATH"] = str(Path(lolrec.__file__).parents[1])
    outputs = []
    for name, extra in (("default", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / name
        subprocess.run([sys.executable, "-c", LIBRARY_SOLVES, str(out)], env={**env, **extra},
                       check=True, timeout=300)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("subcommand,csv,extra", [
    ("denoise", "denoise.csv", {"methods": ["aslrc", "latlrr"], "pct_list": [10, 30, 50]}),
    ("grid", "grid.csv", {"grid_values": [0.01, 1.0]}),
    ("classify", "accuracy.csv", {"splits": 3, "dim": 6, "train_count": 5, "test_count": 5}),
])
def test_csv_bytes_independent_of_sweep_threads(tmp_path, monkeypatch, subcommand, csv, extra):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subspaces": 2, "sub_dim": 2, "ambient": 12, "n_per": 8,
                               "max_iter": 120, "tol": 1e-4, "seed": 3, **extra}))
    outputs = []
    for n in ("1", "2"):
        monkeypatch.setenv("LOLREC_THREADS", n)
        out = tmp_path / f"out{n}"
        assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append((out / csv).read_bytes())
        threads = json.loads((out / "manifest.json").read_text())["threads"]
        assert threads["LOLREC_THREADS"] == int(n)
    assert outputs[0] == outputs[1]


# Each loaded OpenBLAS's thread count, by file name, as `counts()` reads it.
COUNTS = """
from lolrec import blas

def counts():
    found = {}
    for lib in blas.loaded_openblas():
        if lib.set_threads_local is not None:
            found[lib.library] = lib.set_threads_local(1)
            lib.set_threads_local(found[lib.library])
    return found
"""

LATE_COPY = COUNTS + """
import json, sys
import numpy as np
from lolrec import solver
from lolrec.solver import SolverConfig, solve

for lib in blas.loaded_openblas():
    if lib.set_threads_local is not None:
        lib.set_threads_local(3)
before = counts()
loaded_before = "scipy.linalg" in sys.modules

def failing_svd(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")

np.linalg.svd = failing_svd  # every SVD of the solve takes the gesvd fallback
during = []
real_ascend = solver._ascend

def ascend(state, blocks, cfg):  # counted at each sweep's multiplier ascent
    during.append(counts())
    real_ascend(state, blocks, cfg)

solver._ascend = ascend
solve(np.random.default_rng(0).standard_normal((8, 12)), SolverConfig(mu0=1.0, max_iter=20),
      record_lagrangian=False)
print(json.dumps({"before": before, "loaded_before": loaded_before, "during": during,
                  "after": counts()}))
"""

LOADED_AT_START = COUNTS + """
import json
import scipy.linalg
print(json.dumps(counts()))
"""


def test_openblas_mapped_mid_solve_is_pinned_then_restored():
    """The SVD fallback maps scipy's OpenBLAS in mid-solve: from then on every
    copy runs on one thread, and after the solve each has its old count, the
    late copy the count it starts with."""
    env = {k: v for k, v in os.environ.items() if k not in blas.BLAS_ENV_VARS}
    env["PYTHONPATH"] = str(Path(lolrec.__file__).parents[1])

    def run(script):
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             timeout=300, capture_output=True, text=True).stdout
        return json.loads(out)

    got, at_start = run(LATE_COPY), run(LOADED_AT_START)
    late = set(at_start) - set(got["before"])
    if not got["before"] or not late:
        pytest.skip("scipy.linalg maps no second OpenBLAS with openblas_set_num_threads_local")
    assert not got["loaded_before"] and set(got["before"].values()) == {3}
    assert late <= set(got["during"][-1])
    assert all(set(seen.values()) == {1} for seen in got["during"])
    assert got["after"] == {**got["before"], **{lib: at_start[lib] for lib in late}}
