import json

import numpy as np
import pytest

from lolrec import cli
from lolrec.cli import main
from lolrec.matrix_io import ImageGrid, load_matrix_csv, save_matrix_csv, save_pgm
from lolrec.solver import SolverConfig
from lolrec.synth import SubspaceSpec


def read(path):
    return path.read_bytes()


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def fast_cfg(tmp_path):
    cfg = {
        "subspaces": 2, "sub_dim": 2, "ambient": 12, "n_per": 8,
        "max_iter": 120, "tol": 1e-4, "seed": 3,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


class TestDecompose:
    def test_zero_matrix(self, tmp_path):
        inp = tmp_path / "x.csv"
        save_matrix_csv(np.zeros((4, 6)), inp)
        out = tmp_path / "out"
        assert run(["decompose", "--input", inp, "--out", out]) == 0
        Z = np.loadtxt(out / "Z.csv", delimiter=",")
        np.testing.assert_allclose(Z, 0.0, atol=1e-6)
        trace = (out / "trace.csv").read_text().strip().split("\n")
        assert trace[0] == "iteration,residual,mu,lagrangian"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["summary"]["converged"]

    def test_image_panel(self, tmp_path, rng):
        imgs = []
        for i in range(3):
            p = tmp_path / f"im{i}.pgm"
            save_pgm(ImageGrid(rng.integers(0, 256, (8, 8))), p)
            imgs.append(p)
        out = tmp_path / "out"
        args = ["decompose", "--out", out, "--max-iter", 20]
        for p in imgs:
            args += ["--input", p]
        assert run(args) == 0
        assert (out / "panel.pgm").exists()
        assert (out / "LX.csv").exists()

    def test_csv_input(self, tmp_path, rng):
        """A CSV input is decomposed as given: the written blocks satisfy
        X = XZ + LX + E to the solver tolerance."""
        X = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 10))
        inp, out = tmp_path / "x.csv", tmp_path / "out"
        save_matrix_csv(X, inp)
        assert run(["decompose", "--input", inp, "--out", out]) == 0
        blocks = {n: load_matrix_csv(out / f"{n}.csv") for n in ("Z", "L", "E", "XZ", "LX")}
        assert blocks["Z"].shape == (10, 10) and blocks["L"].shape == (8, 8)
        np.testing.assert_allclose(blocks["XZ"], X @ blocks["Z"], atol=1e-12)
        np.testing.assert_allclose(blocks["LX"], blocks["L"] @ X, atol=1e-12)
        np.testing.assert_allclose(blocks["XZ"] + blocks["LX"] + blocks["E"], X, atol=1e-6)
        assert json.loads((out / "manifest.json").read_text())["summary"]["converged"]

    def test_missing_input(self, tmp_path):
        assert run(["decompose", "--out", tmp_path / "o"]) == 2

    def test_config_hash_ignores_output_dir(self, tmp_path, rng):
        img = tmp_path / "im.pgm"
        save_pgm(ImageGrid(rng.integers(0, 256, (6, 6))), img)
        manifests = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["decompose", "--input", img, "--out", out, "--max-iter", 5]) == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
        assert manifests[0]["config_hash"] == manifests[1]["config_hash"]
        assert manifests[0]["config"]["out"] != manifests[1]["config"]["out"]
        assert manifests[0]["config"]["input"] == [str(img)]


class TestDenoise:
    def test_sweep_csv(self, tmp_path, fast_cfg):
        out = tmp_path / "out"
        assert run(["denoise", "--config", fast_cfg, "--out", out]) == 0
        lines = (out / "denoise.csv").read_text().strip().split("\n")
        assert lines[0] == "sweep_index,level,method,zeta_rec,zeta_emb"
        assert len(lines) == 6  # 5 pct points, one method

    def test_gaussian_protocol(self, tmp_path, fast_cfg):
        cfg = json.loads(fast_cfg.read_text())
        cfg.update({"protocol": "gaussian", "snr_list": [10.0, 20.0]})
        fast_cfg.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run(["denoise", "--config", fast_cfg, "--out", out]) == 0
        rows = [r.split(",") for r in (out / "denoise.csv").read_text().strip().split("\n")[1:]]
        assert [(r[0], float(r[1]), r[2]) for r in rows] == [("0", 10.0, "aslrc"),
                                                             ("1", 20.0, "aslrc")]
        assert all(0.0 <= float(v) <= 1.0 for r in rows for v in r[3:])

    def test_invert_protocol_on_unit_range_input(self, tmp_path, fast_cfg, rng):
        inp = tmp_path / "x.csv"
        save_matrix_csv(rng.uniform(0, 0.5, (12, 3)) @ rng.uniform(0, 0.6, (3, 16)), inp)
        cfg = json.loads(fast_cfg.read_text())
        cfg.update({"protocol": "invert", "pct_list": [10], "input": str(inp)})
        fast_cfg.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run(["denoise", "--config", fast_cfg, "--out", out]) == 0
        rows = (out / "denoise.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 1 and rows[0].startswith("0,10,aslrc,")

    def test_invert_protocol_rejects_data_outside_unit_range(self, tmp_path, fast_cfg,
                                                             monkeypatch, capsys):
        """The default synthetic data span about [-2.6, 2.3]: inverting them
        as 8-bit pixels is a range error, not a clip of the whole matrix."""
        cfg = json.loads(fast_cfg.read_text())
        cfg.update({"protocol": "invert", "pct_list": [10]})
        fast_cfg.write_text(json.dumps(cfg))
        monkeypatch.setattr(cli, "_solve", lambda *a, **k: pytest.fail("solved"))
        assert run(["denoise", "--config", fast_cfg, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err.startswith("error: RangeError: ")

    def test_invert_changes_only_the_selected_entries(self, rng):
        X = rng.uniform(0, 1, (10, 20))
        Y = cli._corrupt(X, "invert", 10, seed=0)
        changed = Y != X
        assert changed.sum() == 20
        np.testing.assert_array_equal(Y[~changed], X[~changed])
        np.testing.assert_array_equal(Y[changed], np.minimum(256 - X[changed] * 255, 255) / 255)

    def test_input_flag_reads_a_csv(self, tmp_path, fast_cfg, rng):
        inp, out = tmp_path / "x.csv", tmp_path / "out"
        save_matrix_csv(rng.standard_normal((12, 3)) @ rng.standard_normal((3, 16)), inp)
        args = ["denoise", "--config", fast_cfg, "--out", out, "--input", inp]
        assert run(args) == 0
        rows = (out / "denoise.csv").read_text().strip().split("\n")[1:]
        assert [r.split(",")[:3] for r in rows] == [[str(i), str(p), "aslrc"] for i, p in
                                                    enumerate([10, 20, 30, 40, 50])]

    def test_pgm_images_under_invert(self, tmp_path, fast_cfg, rng):
        """PGM inputs are read as `decompose` reads them: one column per
        image, on the [0, 1] scale that `invert` corrupts."""
        args = ["denoise", "--config", fast_cfg, "--out", tmp_path / "out"]
        for i in range(2):
            p = tmp_path / f"im{i}.pgm"
            save_pgm(ImageGrid(rng.integers(0, 256, (4, 3))), p)
            args += ["--input", p]
        cfg = json.loads(fast_cfg.read_text())
        cfg.update({"protocol": "invert", "pct_list": [10, 30],
                    "methods": ["aslrc", "latlrr"]})
        fast_cfg.write_text(json.dumps(cfg))
        assert run(args) == 0
        rows = (tmp_path / "out" / "denoise.csv").read_text().strip().split("\n")[1:]
        assert [tuple(r.split(",")[:3]) for r in rows] == [
            ("0", "10", "aslrc"), ("0", "10", "latlrr"), ("1", "30", "aslrc"),
            ("1", "30", "latlrr")]

    def test_unconverged_solves_are_reported(self, tmp_path, fast_cfg, capsys):
        cfg = json.loads(fast_cfg.read_text())
        cfg.update({"max_iter": 5, "methods": ["aslrc", "latlrr"], "pct_list": [10, 30]})
        fast_cfg.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run(["denoise", "--config", fast_cfg, "--out", out]) == 0
        warnings = capsys.readouterr().err.strip().split("\n")
        assert len(warnings) == 4
        assert warnings[0].startswith("warning: denoise: aslrc at level 10 did not converge "
                                      "in 5 iterations (final residual ")
        assert "latlrr at level 30" in warnings[3]
        assert json.loads((out / "manifest.json").read_text())["summary"]["unconverged"] == 4
        header = (out / "denoise.csv").read_text().split("\n")[0]
        assert header == "sweep_index,level,method,zeta_rec,zeta_emb"

    def test_converged_run_is_quiet(self, tmp_path, fast_cfg, capsys):
        cfg = json.loads(fast_cfg.read_text())
        cfg["max_iter"] = 300
        fast_cfg.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run(["denoise", "--config", fast_cfg, "--out", out]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((out / "manifest.json").read_text())["summary"]["unconverged"] == 0


class TestClassify:
    def test_blobs_accuracy(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"splits": 10, "dim": 15, "max_iter": 150,
                                   "tol": 1e-4, "seed": 5}))
        out = tmp_path / "out"
        assert run(["classify", "--config", cfg, "--out", out]) == 0
        rows = (out / "accuracy.csv").read_text().strip().split("\n")
        assert len(rows) == 11
        mean, std = map(float, (out / "summary.csv").read_text().strip()
                        .split("\n")[1].split(","))
        assert mean >= 0.95
        assert std >= 0.0

    def test_subspace_data(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": "subspaces", "splits": 2, "classes": 2,
                                   "sub_dim": 2, "ambient": 12, "train_count": 8,
                                   "test_count": 8, "tol": 1e-4, "seed": 3}))
        out = tmp_path / "out"
        assert run(["classify", "--config", cfg, "--out", out]) == 0
        rows = (out / "accuracy.csv").read_text().strip().split("\n")
        assert rows[0] == "split,accuracy" and len(rows) == 3
        assert all(0.0 <= float(r.split(",")[1]) <= 1.0 for r in rows[1:])
        solves = json.loads((out / "manifest.json").read_text())["solves"]
        assert [r["method"] for r in solves] == ["aslrc", "classifier"] * 2

    def test_unconverged_solves_are_reported(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"splits": 2, "dim": 6, "train_count": 5, "test_count": 5,
                                   "max_iter": 3, "seed": 5}))
        out = tmp_path / "out"
        assert run(["classify", "--config", cfg, "--out", out]) == 0
        warnings = capsys.readouterr().err.strip().split("\n")
        assert [w.split(" did not")[0] for w in warnings] == [
            "warning: classify: aslrc on split 0", "warning: classify: classifier on split 0",
            "warning: classify: aslrc on split 1", "warning: classify: classifier on split 1"]
        assert all("in 3 iterations (final residual " in w for w in warnings)
        assert json.loads((out / "manifest.json").read_text())["summary"]["unconverged"] == 4


class TestBenchSynth:
    def test_three_subspace_bench(self, tmp_path):
        out = tmp_path / "out"
        assert run(["bench-synth", "--out", out, "--seed", 1]) == 0
        trace = (out / "trace.csv").read_text().strip().split("\n")
        assert len(trace) - 1 <= 200
        final_residual = float(trace[-1].split(",")[1])
        assert final_residual < 1e-6


class TestGrid:
    def test_reduced_grid(self, tmp_path, fast_cfg):
        cfg = json.loads(fast_cfg.read_text())
        cfg["grid_values"] = [0.01, 1.0]
        fast_cfg.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run(["grid", "--config", fast_cfg, "--out", out]) == 0
        lines = (out / "grid.csv").read_text().strip().split("\n")
        assert len(lines) == 5  # header + 2x2 grid

    @pytest.mark.parametrize("args,methods", [
        (["--method", "latlrr"], None), ([], ["aslrc", "latlrr"])])
    def test_rejects_methods_other_than_aslrc(self, tmp_path, fast_cfg, monkeypatch,
                                              capsys, args, methods):
        """The alpha/beta grid exists only for ASLRC: asking for another
        method fails before any solve and writes no grid.csv."""
        cfg = json.loads(fast_cfg.read_text())
        if methods:
            cfg["methods"] = methods
        fast_cfg.write_text(json.dumps(cfg))
        monkeypatch.setattr(cli, "_solve", lambda *a, **k: pytest.fail("solved"))
        out = tmp_path / "out"
        assert run(["grid", "--config", fast_cfg, "--out", out, *args]) == 2
        assert capsys.readouterr().err.startswith("error: ValueError: ")
        assert not (out / "grid.csv").exists()


class TestHarness:
    def test_determinism(self, tmp_path, fast_cfg):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["denoise", "--config", fast_cfg, "--out", out]) == 0
        assert read(out1 / "denoise.csv") == read(out2 / "denoise.csv")

    def test_flag_overrides_config(self, tmp_path, fast_cfg):
        out = tmp_path / "out"
        assert run(["bench-synth", "--config", fast_cfg, "--out", out,
                    "--max-iter", 5]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["max_iter"] == 5
        assert manifest["summary"]["iterations"] == 5

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run(["bench-synth", "--config", cfg, "--out", tmp_path / "o"]) == 2

    def test_max_iter_zero(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iter": 0}))
        assert run(["bench-synth", "--config", cfg, "--out", tmp_path / "o"]) == 2

    def test_every_flag_overrides_its_config_key(self):
        """`load_config` applies a flag by its dest; one that is no config
        key would be dropped silently."""
        dests = {a.dest for a in cli.build_parser()._actions} - {"help", "subcommand", "config"}
        assert dests and dests <= set(cli.DEFAULTS)

    def test_solver_defaults_are_solver_config_defaults(self):
        assert cli._solver_config(cli.DEFAULTS) == SolverConfig()

    def test_subspace_defaults_are_subspace_spec_defaults(self):
        assert cli._subspace_spec(cli.DEFAULTS) == SubspaceSpec()

    @pytest.mark.parametrize("subcommand,bad,message", [
        ("classify", {"splits": 0}, "ValueError: splits must be an integer of at least 1, got 0"),
        ("denoise", {"pct_list": []}, "ValueError: pct_list is empty"),
        ("denoise", {"protocol": "gaussian", "snr_list": []}, "ValueError: snr_list is empty"),
        ("grid", {"grid_values": []}, "ValueError: grid_values is empty"),
        ("denoise", {"methods": []}, "ValueError: methods is empty"),
        ("bench-synth", {"methods": "aslrc"}, "TypeError: methods must be a list, got 'aslrc'"),
        ("decompose", {"methods": ["aslrc", "latlrr"]}, "ValueError: this subcommand runs one"),
        ("classify", {"methods": ["latlrr", "aslrc"]}, "ValueError: this subcommand runs one"),
        ("bench-synth", {"methods": ["aslrc", "latlrr"]}, "ValueError: this subcommand runs one"),
        ("bench-synth", {"max_iter": 2.7}, "ValueError: max_iter must be an integer"),
        ("classify", {"splits": 2.5}, "ValueError: splits must be an integer of at least 1"),
        ("classify", {"classes": 2.7}, "ValueError: classes must be an integer of at least 1"),
        ("denoise", {"seed": 2.5}, "ValueError: seed must be an integer of at least 0"),
        ("classify", {"test_count": 0}, "ValueError: test_count must be an integer of at least 1"),
        ("bench-synth", {"subspaces": 2.0}, "ValueError: subspaces must be an integer of at"),
        ("classify", {"data": "blob"}, "ValueError: data must be 'blobs' or 'subspaces'"),
        ("decompose", {"input": ""}, "ValueError: no input path given"),
        ("denoise", {"input": ""}, "ValueError: no input path given"),
        ("denoise", {"input": []}, "ValueError: no input path given"),
    ])
    def test_rejected_before_any_solve(self, tmp_path, monkeypatch, capsys, subcommand, bad,
                                       message):
        if subcommand == "decompose" and "input" not in bad:
            bad = {**bad, "input": str(tmp_path / "x.csv")}
            save_matrix_csv(np.eye(3), bad["input"])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        monkeypatch.setattr(cli, "_solve", lambda *a, **k: pytest.fail("solved"))
        out = tmp_path / "o"
        assert run([subcommand, "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_sweep_threads(self, tmp_path, monkeypatch, capsys, value):
        """A LOLREC_THREADS that is no positive integer exits 2, even for a
        subcommand that starts no sweep threads, before any solve."""
        monkeypatch.setenv("LOLREC_THREADS", value)
        monkeypatch.setattr(cli, "_solve", lambda *a, **k: pytest.fail("solved"))
        assert run(["bench-synth", "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            f"error: ValueError: LOLREC_THREADS must be a positive integer, got {value!r}\n")

    def test_unreadable_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["bench-synth", "--config", cfg, "--out", tmp_path / "o"]) == 2

    @pytest.mark.parametrize("subcommand,bad", [
        ("classify", {"alpha": "x"}), ("denoise", {"alpha": "x"}),
        ("denoise", {"pct_list": 5}), ("grid", {"grid_values": 1}),
        ("classify", {"splits": None})])
    def test_wrongly_typed_config_value(self, tmp_path, capsys, subcommand, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        assert run([subcommand, "--config", cfg, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: TypeError: ") and "Traceback" not in err

    def test_manifest_fields(self, tmp_path, fast_cfg):
        out = tmp_path / "out"
        assert run(["bench-synth", "--config", fast_cfg, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert {"config_hash", "version", "wall_clock_seconds",
                "summary"} <= set(manifest)

    def test_manifest_threads(self, tmp_path, fast_cfg, monkeypatch):
        monkeypatch.setenv("LOLREC_THREADS", "2")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        out = tmp_path / "out"
        assert run(["bench-synth", "--config", fast_cfg, "--out", out, "--max-iter", 5]) == 0
        threads = json.loads((out / "manifest.json").read_text())["threads"]
        assert threads["LOLREC_THREADS"] == 2
        assert threads["blas_per_solve"] == "env"
        assert threads["numpy"] == np.__version__
        assert {"scipy", "openblas"} <= set(threads)
        for lib in threads["openblas"]:
            assert set(lib) == {"library", "version"}


SMALL = {"subspaces": 2, "sub_dim": 2, "ambient": 12, "n_per": 8, "tol": 1e-4, "seed": 3}
# subcommand -> (config, the (method, label) of each solve in job order)
SOLVE_CASES = {
    "decompose": ({**SMALL, "input": "x.csv"}, [("aslrc", "")]),
    "denoise": ({**SMALL, "methods": ["aslrc", "latlrr"], "pct_list": [10, 30]},
                [("aslrc", "at level 10"), ("latlrr", "at level 10"),
                 ("aslrc", "at level 30"), ("latlrr", "at level 30")]),
    "classify": ({"splits": 2, "dim": 6, "train_count": 5, "test_count": 5, "tol": 1e-4,
                  "seed": 5},
                 [("aslrc", "on split 0"), ("classifier", "on split 0"),
                  ("aslrc", "on split 1"), ("classifier", "on split 1")]),
    "bench-synth": (SMALL, [("aslrc", "")]),
    "grid": ({**SMALL, "grid_values": [0.01, 1.0]},
             [("aslrc", "at alpha 0.01, beta 0.01"), ("aslrc", "at alpha 0.01, beta 1"),
              ("aslrc", "at alpha 1, beta 0.01"), ("aslrc", "at alpha 1, beta 1")]),
}


def run_case(tmp_path, subcommand, max_iter, name="out"):
    """Run one SOLVE_CASES subcommand; returns its manifest."""
    cfg = {**SOLVE_CASES[subcommand][0], "max_iter": max_iter}
    if "input" in cfg:
        rng = np.random.default_rng(0)
        cfg["input"] = str(tmp_path / cfg["input"])
        save_matrix_csv(rng.standard_normal((8, 3)) @ rng.standard_normal((3, 10)),
                        cfg["input"])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    assert run([subcommand, "--config", path, "--out", out]) == 0
    return json.loads((out / "manifest.json").read_text())


@pytest.mark.parametrize("subcommand", sorted(SOLVE_CASES))
class TestSolveRecords:
    def test_each_unconverged_solve_warns_and_counts(self, tmp_path, capsys, subcommand):
        manifest = run_case(tmp_path, subcommand, max_iter=3)
        solves = manifest["solves"]
        assert [(r["method"], r["label"]) for r in solves] == SOLVE_CASES[subcommand][1]
        for r in solves:
            assert set(r) == {"method", "label", "iterations", "converged",
                              "final_residual", "wall_s"}
            assert (r["iterations"], r["converged"]) == (3, False)
            assert r["final_residual"] > 0 and r["wall_s"] >= 0
        warnings = capsys.readouterr().err.strip().split("\n")
        assert len(warnings) == len(solves)
        for w, r in zip(warnings, solves):
            what = f"{r['method']} {r['label']}".rstrip()
            assert w == (f"warning: {subcommand}: {what} did not converge in 3 iterations "
                         f"(final residual {r['final_residual']:.3g})")
        assert manifest["summary"]["unconverged"] == len(solves)

    def test_converged_run_is_quiet(self, tmp_path, capsys, subcommand):
        manifest = run_case(tmp_path, subcommand, max_iter=300)
        assert capsys.readouterr().err == ""
        assert manifest["summary"]["unconverged"] == 0
        assert len(manifest["solves"]) == len(SOLVE_CASES[subcommand][1])
        assert all(r["converged"] for r in manifest["solves"])


def test_lone_solve_warning_names_no_label(tmp_path, capsys):
    run_case(tmp_path, "decompose", max_iter=3)
    assert capsys.readouterr().err.startswith(
        "warning: decompose: aslrc did not converge in 3 iterations (final residual ")


@pytest.mark.parametrize("subcommand", ["denoise", "grid"])
def test_solve_records_independent_of_sweep_threads(tmp_path, monkeypatch, subcommand):
    records = []
    for n in ("1", "2"):
        monkeypatch.setenv("LOLREC_THREADS", n)
        solves = run_case(tmp_path, subcommand, max_iter=120, name=f"out{n}")["solves"]
        records.append([{k: v for k, v in r.items() if k != "wall_s"} for r in solves])
    assert records[0] == records[1]
