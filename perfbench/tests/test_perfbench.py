"""Self-test of the benchmark on tiny shapes; runs in well under a minute.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import concurrent.futures
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

lolrec = pytest.importorskip("lolrec")
import lolrec.cli  # noqa: E402

SOLVER_PARTS = ([f"solver.{b}_s" for b in tracing.SOLVER_BLOCKS]
                + ["solver.residual_s", "solver.lagrangian_s", "solver.multiplier_s",
                   "solver.other_s"])


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A source tree whose src/ is this repository's, so scratch files stay out of it."""
    root = tmp_path_factory.mktemp("tree")
    (root / "src").symlink_to(ROOT / "src")
    return root


def bench(tree, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=tree, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.RESULT_METRICS)
    for m in spec["end_to_end"]:
        assert (m["unit"], m["better"]) == run.END_TO_END[m["name"]]
    layer = run.per_layer_specs()
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == layer[m["name"]]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted(tree, workload):
    wl = workloads.WORKLOADS[workload]
    lines, result = bench(tree, workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(run.RESULT_METRICS)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == run.END_TO_END[name][0]
        assert entry["value"] > 0
    printed = {ln.split()[0]: ln.split()[2:5] for ln in lines if ln.startswith("  ")}
    expected = ["setup_s", "wall_s", "cpu_s", "peak_rss_mb", "error_rate",
                *wl.quality_bounds["tiny"]]
    for name in expected:
        unit, better = run.END_TO_END[name]
        assert printed[name] == [unit, better, "is"], name

    _, traced = bench(tree, workload, trace=1)
    assert traced["correct"]
    layer = run.per_layer_specs()
    assert list(traced["metrics"]) == list(layer)
    for name, entry in traced["metrics"].items():
        assert entry["unit"] == layer[name][0]
        # a number, or marked absent when a wrapped function is gone
        assert isinstance(entry["value"], float) or entry == {
            "value": None, "unit": layer[name][0], "absent": True}, name


def traced_invocation(workload, tmp_path, monkeypatch):
    """Run one tiny invocation in-process under the recorder."""
    wl = workloads.WORKLOADS[workload]
    threads = wl.env()["LOLREC_THREADS"]  # the only setting the CLI reads at call time
    if threads is None:
        monkeypatch.delenv("LOLREC_THREADS", raising=False)
    else:
        monkeypatch.setenv("LOLREC_THREADS", threads)
    argv = wl.make_inputs(3, "tiny", tmp_path)
    recorder = tracing.Recorder()
    recorder.install(lolrec)
    try:
        assert lolrec.cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
    finally:
        recorder.uninstall()
    problems, found = wl.check(tmp_path / "out", tmp_path, "tiny")
    assert problems == []
    wall = max(s[3] for s in recorder.spans) - min(s[2] for s in recorder.spans)
    return tracing.invocation_metrics(recorder.spans, wall, recorder.absent), found


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_counts_match_artifacts(workload, tmp_path, monkeypatch):
    metrics, found = traced_invocation(workload, tmp_path, monkeypatch)
    assert metrics["cli.solves"] == found["solves"]
    if "sweeps" in found:
        assert metrics["solver.sweeps"] == found["sweeps"]
    latlrr_parts = ["latlrr.svt_s", "latlrr.linsolve_s", "latlrr.shrink_s", "latlrr.other_s"]
    for parts, total in ((SOLVER_PARTS, "solver.solve_s"), (latlrr_parts, "latlrr.solve_s")):
        # the remainder is absent whenever a part is, so present parts add up
        if metrics[parts[-1]] is not None:
            assert sum(metrics[n] for n in parts) == pytest.approx(metrics[total])


def test_removed_function_is_reported_absent(tmp_path, monkeypatch):
    # Neither name is on denoise's path, so the CLI still runs without them,
    # as it would after a refactor that removed them.
    removed = {"solver.augmented_lagrangian", "cli.load_pgm"}
    for name in removed:
        module, attr = name.split(".")
        monkeypatch.delattr(getattr(lolrec, module), attr, raising=False)
    metrics, _ = traced_invocation("denoise", tmp_path, monkeypatch)
    needs = {n: set(spec[2]) for n, spec in tracing.LAYER_METRICS.items()}
    needs.update((n, needs[n[:-len("_share")]] | needs[tracing.SHARE_BASE])
                 for n in tracing.share_names())
    for name, value in metrics.items():
        if needs[name] & removed:
            assert value is None, name
    assert metrics["matrix_io.read_s"] is None and metrics["solver.lagrangian_s"] is None


def test_recorder_keeps_every_span_under_thread_contention():
    # A stand-in package: cli.solve calls solver.svt, looked up at call time.
    pkg = types.SimpleNamespace(solver=types.SimpleNamespace(svt=lambda: None))
    pkg.cli = types.SimpleNamespace(solve=lambda: pkg.solver.svt())
    recorder = tracing.Recorder()
    recorder.install(pkg)
    threads, calls = 8, 500
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(threads) as pool:
            futures = [pool.submit(lambda: [pkg.cli.solve() for _ in range(calls)])
                       for _ in range(threads)]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        recorder.uninstall()
    by_id = {s[0]: s for s in recorder.spans}
    assert len(recorder.spans) == len(by_id) == 2 * threads * calls
    for _, name, _, _, parent, thread, *_ in recorder.spans:
        if name == "solver.svt":
            assert by_id[parent][1] == "cli.solve" and by_id[parent][5] == thread
        else:
            assert parent is None
