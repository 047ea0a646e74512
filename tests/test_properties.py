"""Property tests: any small finite matrix and any valid config give a valid
result or a `ToolkitError`, and the CLI exits 0 or 2.

Matrices are 1x1 to 8x8 with entries of scale 10^k, k in [-300, 300];
alpha, beta and lambda take the extremes 0, 1e-8 and 1e8, `mu0` 1e-6 or 1,
and `max_iter` 1, 2 or 300, so that some solves stop unconverged.  Tall
(d > N) float32 and integer matrices join them, so that `solve` runs its
column split on inputs that are not float64.  Every subcommand runs on such
configs: `decompose` and `denoise` on a CSV of one of those matrices, and
`classify`, `grid` and `bench-synth` on data they generate at shapes of 1 to
8.  Runs are derandomized, so the suite draws the same cases every time.
"""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")  # in pyproject's `test` extra; skipped where missing
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lolrec import SolverConfig, latlrr_solve, one_hot, solve, train_classifier
from lolrec.cli import main
from lolrec.errors import ToolkitError
from lolrec.matrix_io import save_matrix_csv

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

EXTREMES = st.sampled_from([0.0, 1e-8, 1e8])


@st.composite
def matrices(draw):
    d, N = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 10.0 ** draw(st.integers(-300, 300))
    return np.random.default_rng(seed).standard_normal((d, N)) * scale


@st.composite
def tall_matrices(draw, dtypes):
    """Tall matrices of one of `dtypes`: float32 entries of scale 10^k,
    k in [-45, 38], so that some underflow to 0 or overflow to inf, and
    integers across their type's whole range."""
    N = draw(st.integers(1, 6))
    d = draw(st.integers(N + 1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from(dtypes))
    if dtype is np.float32:
        with np.errstate(over="ignore"):
            return (rng.standard_normal((d, N)) * 10.0 ** draw(st.integers(-45, 38))).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, (d, N), dtype=dtype, endpoint=True)


inputs = st.one_of(matrices(), tall_matrices([np.float32]),
                   tall_matrices([np.int8, np.uint8, np.int32, np.int64, np.uint64]))
configs = st.fixed_dictionaries({
    "alpha": EXTREMES, "beta": EXTREMES, "lam": EXTREMES,
    "mu0": st.sampled_from([1e-6, 1.0]), "max_iter": st.sampled_from([1, 2, 300]),
})


def assert_decomposition(dec, X, cfg):
    d, N = X.shape
    for block, shape in ((dec.Z_star, (N, N)), (dec.L_star, (d, d)), (dec.E_star, (d, N)),
                         (dec.principal, (d, N)), (dec.salient, (d, N))):
        assert block.shape == shape
        assert np.all(np.isfinite(block))
    assert 1 <= dec.iterations <= cfg.max_iter
    assert len(dec.trace) == dec.iterations


@SETTINGS
@given(X=inputs, config=configs)
def test_solvers_return_a_valid_result_or_a_toolkit_error(X, config):
    cfg = SolverConfig(**config)
    for run in (solve, latlrr_solve):
        try:
            dec = run(X, cfg=cfg, record_lagrangian=True)
        except ToolkitError:
            continue
        assert_decomposition(dec, X, cfg)


@SETTINGS
@given(X=inputs, config=configs, data=st.data())
def test_classifier_returns_a_valid_model_or_a_toolkit_error(X, config, data):
    cfg = SolverConfig(**config)
    d, N = X.shape
    classes = data.draw(st.integers(1, N))
    labels = data.draw(st.lists(st.integers(0, classes - 1), min_size=N, max_size=N))
    try:
        model = train_classifier(X, one_hot(labels, classes), cfg)
    except ToolkitError:
        return
    for block, shape in ((model.C_star, (d, classes)), (model.L_star, (d, d)),
                         (model.training_error, (N, classes))):
        assert block.shape == shape
        assert np.all(np.isfinite(block))
    assert 1 <= model.iterations <= cfg.max_iter


def run_cli(subcommand, config, where, capsys, *args):
    """Run `subcommand` with `config` (keyed as the solver's fields) under
    `where`: it exits 0 with one `warning:` line per unconverged solve, or 2
    with an `error:` line."""
    (where / "config.json").write_text(json.dumps(
        {"lambda" if k == "lam" else k: v for k, v in config.items()}))
    code = main([subcommand, "--config", str(where / "config.json"), *args,
                 "--out", str(where / "out")])
    err = capsys.readouterr().err
    assert code in (0, 2)
    if code == 0:
        solves = json.loads((where / "out" / "manifest.json").read_text())["solves"]
        warnings = [ln for ln in err.splitlines() if ln.startswith("warning:")]
        assert len(warnings) == sum(not r["converged"] for r in solves)
    else:
        assert err.startswith("error: ")


# Each CLI example runs up to four solves, so fewer examples than above.
CLI_SETTINGS = settings(SETTINGS, max_examples=100)
METHOD = st.sampled_from(["aslrc", "latlrr"])
SHAPES = st.fixed_dictionaries({
    "ambient": st.integers(1, 8), "subspaces": st.integers(1, 2), "sub_dim": st.integers(1, 2),
    "n_per": st.integers(1, 4), "seed": st.integers(0, 2**16),
})


@SETTINGS
@given(X=matrices(), config=configs, method=METHOD)
def test_cli_decompose_exits_0_or_2_and_warns_per_unconverged_solve(
        X, config, method, tmp_path_factory, capsys):
    where = tmp_path_factory.mktemp("decompose")
    save_matrix_csv(X, where / "X.csv")
    run_cli("decompose", {**config, "method": method}, where, capsys,
            "--input", str(where / "X.csv"))


@CLI_SETTINGS
@given(X=matrices(), config=configs, data=st.data())
def test_cli_denoise_on_a_csv_exits_0_or_2_and_warns_per_unconverged_solve(
        X, config, data, tmp_path_factory, capsys):
    where = tmp_path_factory.mktemp("denoise")
    save_matrix_csv(X, where / "X.csv")
    protocol = data.draw(st.sampled_from(["pixels", "invert", "gaussian"]))
    levels = st.lists(st.sampled_from([0, 10, 50, 100]), min_size=1, max_size=2)
    run_cli("denoise", {**config, "protocol": protocol,
                        "methods": data.draw(st.sampled_from([["aslrc"], ["aslrc", "latlrr"]])),
                        "pct_list": data.draw(levels),
                        "snr_list": data.draw(st.lists(st.sampled_from([-10.0, 10.0, 40.0]),
                                                       min_size=1, max_size=2))},
            where, capsys, "--input", str(where / "X.csv"))


@CLI_SETTINGS
@given(config=configs, shapes=SHAPES, method=METHOD, data=st.data())
def test_cli_classify_exits_0_or_2_and_warns_per_unconverged_solve(
        config, shapes, method, data, tmp_path_factory, capsys):
    run_cli("classify", {**config, **shapes, "method": method,
                         "data": data.draw(st.sampled_from(["blobs", "subspaces"])),
                         "classes": data.draw(st.integers(1, 3)),
                         "dim": data.draw(st.integers(1, 6)),
                         "train_count": data.draw(st.integers(1, 3)),
                         "test_count": data.draw(st.integers(1, 2)),
                         "splits": data.draw(st.integers(1, 2))},
            tmp_path_factory.mktemp("classify"), capsys)


@CLI_SETTINGS
@given(config=configs, shapes=SHAPES, data=st.data())
def test_cli_grid_exits_0_or_2_and_warns_per_unconverged_solve(
        config, shapes, data, tmp_path_factory, capsys):
    run_cli("grid", {**config, **shapes, "pct": data.draw(st.sampled_from([0, 10, 50])),
                     "grid_values": data.draw(st.lists(EXTREMES, min_size=1, max_size=2))},
            tmp_path_factory.mktemp("grid"), capsys)


@CLI_SETTINGS
@given(config=configs, shapes=SHAPES, method=METHOD)
def test_cli_bench_synth_exits_0_or_2_and_warns_per_unconverged_solve(
        config, shapes, method, tmp_path_factory, capsys):
    run_cli("bench-synth", {**config, **shapes, "method": method},
            tmp_path_factory.mktemp("bench-synth"), capsys)
