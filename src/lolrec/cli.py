"""Experiment harness.

Subcommands: decompose | denoise | classify | bench-synth | grid.
Configuration comes from a flat-key JSON file (--config); each flag
overrides the config key of the same name.  Every run writes a manifest with the config
hash, toolkit version, thread settings, the subcommand's wall-clock time,
and one record per solve.  Every subcommand prints one stderr warning per
solve that stopped at max_iter unconverged, and counts them in its summary.
`grid` sweeps ASLRC's alpha and beta, so it takes no other method.

Data: `decompose` and `denoise` read `input` alike: one CSV matrix, or PGM
images as columns on the [0, 1] pixel scale; an empty `input` is an error,
and so is a `resize` with a CSV input.
Without an `input` (absent or null), `denoise` draws the synthetic
subspaces of the `SubspaceSpec` keys; PGM images of two sizes are an error.

Config: the `--config` file holds one JSON object of flat keys.
`load_config` checks every key but `out`, for every subcommand and
before any output is written, by the key's entry in `DEFAULTS`.  A float
default means a real number (a bool is none); an int default a count, an
integer of at least 1 (`seed`: 0); a list default, or a non-null `methods`
or `grid_values`, a non-empty list of reals (of method names for
`methods`).  `method`, `protocol` and `data` take one of their `_CHOICES`;
`input` is null, a path or a list of paths; `resize` is null or [w, h], two
integers of at least 1.  The typed flags (`--seed`, `--alpha`, `--beta`,
`--lambda`, `--tol`, `--max-iter`) take the type of their key's default.  A
subcommand checks only what depends on it or on its data: how many methods
it runs, its input, and each sweep level.

Output: `lolrec.matrix_io` writes every artifact, the CSV tables and
matrices (through its one CSV writer, `save_csv`) and the PGM panel; a
failed write is an IoError.

Threads: a subcommand runs BLAS on one thread, so its artifacts match a
run with OPENBLAS_NUM_THREADS=1 byte for byte; setting OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS overrides this (see `lolrec.blas`).
LOLREC_THREADS caps sweep parallelism (unset or empty means 1; any other
value must be a positive integer): that many solves run at once.  CSV rows
are ordered by sweep index, not completion order, so output bytes are
reproducible.

Jobs: `denoise`, `classify` and `grid` plan every solve before the first
one runs (corrupted data, split data and solver config alike), so a bad
value anywhere in a sweep exits 2 before any solve.  A job is one solve,
(method, X, SolverConfig, label); worker threads run `_solve` and nothing
else, and the subcommand scores each result on the calling thread, in job
order.  The manifest is written last and removed when a run starts, so a
directory without one holds a failed or interrupted run.
"""

import argparse
import dataclasses
import hashlib
import json
import numbers
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, blas
from .classify import one_hot, predict_labels, train_classifier
from .errors import FormatError, ToolkitError
from .latlrr import latlrr_solve
from .matrix_io import (image_to_matrix, load_matrix_csv, load_pgm, matrix_to_image,
                        save_csv, save_matrix_csv, save_pgm, tile_images)
from .solver import SolverConfig, solve
from .synth import (SubspaceSpec, add_gaussian_noise_snr, classification_accuracy,
                    corrupt_random_pixels, invert_pixels, offblock_ratio,
                    reconstruction_accuracy, synth_blobs, synth_subspaces)

CANDIDATE_GRID = [10.0 ** p for p in range(-8, 9, 2)]

METHODS = ("aslrc", "latlrr")

# Each SolverConfig field by its config key: the field name, except lam's.
_SOLVER_FIELDS = {"lambda" if f.name == "lam" else f.name: f
                  for f in dataclasses.fields(SolverConfig)}

# Each SubspaceSpec field by its config key: the field name, except k's and d's.
_SPEC_FIELDS = {{"k": "subspaces", "d": "ambient"}.get(f.name, f.name): f
                for f in dataclasses.fields(SubspaceSpec) if f.name != "disjoint"}

DEFAULTS = {
    **{key: f.default for key, f in _SOLVER_FIELDS.items()},
    **{key: f.default for key, f in _SPEC_FIELDS.items()},
    "method": "aslrc", "methods": None,
    "input": None, "out": "out", "resize": None,
    "protocol": "pixels", "pct_list": [10, 20, 30, 40, 50], "snr_list": [10.0],
    "train_count": 30, "test_count": 30, "splits": 10, "data": "blobs",
    "classes": 3, "dim": 20, "grid_values": None, "pct": 0.0, "blob_sep": 3.0,
}

# The values each choice key may take; each entry of `methods` is checked as a `method`.
_CHOICES = {"method": METHODS, "protocol": ("pixels", "invert", "gaussian"),
            "data": ("blobs", "subspaces")}


def _threads():
    """Sweep threads from LOLREC_THREADS: unset or empty means 1."""
    value = os.environ.get("LOLREC_THREADS") or "1"
    if not (value.isdecimal() and int(value) >= 1):
        raise ValueError(f"LOLREC_THREADS must be a positive integer, got {value!r}")
    return int(value)


def _solve_all(jobs):
    """`_solve(*job)` for each (method, X, scfg, label) job, possibly in
    parallel; yields each (Decomposition, record) in job order."""
    n = _threads()
    if n == 1 or len(jobs) <= 1:
        yield from (_solve(*job) for job in jobs)
    else:
        import concurrent.futures  # only a threaded sweep pays for the import
        with concurrent.futures.ThreadPoolExecutor(max_workers=n) as pool:
            yield from pool.map(_solve, *zip(*jobs))


def _record(method, label, t0, result, residual, error_share=None):
    """Manifest record of a solve begun at perf_counter() `t0` that gave `result`."""
    return {"method": method, "label": label, "iterations": int(result.iterations),
            "converged": bool(result.converged), "final_residual": float(residual),
            "error_share": error_share, "wall_s": time.perf_counter() - t0}


def _error_share(X, E):
    """||E||_F / ||X||_F: near 1 when the error block has taken the whole data;
    0.0 for an all-zero X."""
    x_norm = np.linalg.norm(X)
    return float(np.linalg.norm(E) / x_norm) if x_norm else 0.0


def _solve(method, X, scfg, label, record_lagrangian=False):
    """Run one coding solve; returns (Decomposition, record).  `label` tells the
    subcommand's solves apart ("at level 10"); a lone solve's label is ""."""
    t0 = time.perf_counter()
    if method == "aslrc":
        dec = solve(X, scfg, record_lagrangian=record_lagrangian)
    else:
        dec = latlrr_solve(X, cfg=scfg, record_lagrangian=record_lagrangian)
    return dec, _record(method, label, t0, dec, dec.trace[-1].residual,
                        _error_share(X, dec.E_star))


def _solver_config(cfg):
    return SolverConfig(**{f.name: cfg[key] for key, f in _SOLVER_FIELDS.items()})


def _is_number(v):
    """Whether `v` is a real number; a bool is no number."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _methods(cfg):
    """The methods a subcommand runs: `methods`, or when that is null, `method`."""
    return [cfg["method"]] if cfg["methods"] is None else cfg["methods"]


def _method(cfg):
    """The one method of a subcommand that runs one."""
    methods = _methods(cfg)
    if len(methods) != 1:
        raise ValueError(f"this subcommand runs one method, got methods {methods!r}")
    return methods[0]


def _write_trace(path, trace):
    save_csv(path, ["iteration", "residual", "mu", "lagrangian"],
            [(p.iteration, float(p.residual), float(p.mu), float(p.lagrangian)) for p in trace])


def _subspace_spec(cfg, **fields):
    """The SubspaceSpec of `cfg`'s keys, with `fields` set by field name."""
    return SubspaceSpec(**{**{f.name: cfg[key] for key, f in _SPEC_FIELDS.items()}, **fields})


def _load_input(cfg):
    """The data at `input`, a path or a list: one CSV, or PGM images as
    columns.  Returns (X, (height, width)) for images, (X, None) for a CSV."""
    inputs = cfg["input"]
    if inputs in (None, "", []):
        raise ValueError("no input path given")
    if isinstance(inputs, str):
        inputs = [inputs]
    if all(p.lower().endswith(".pgm") for p in inputs):
        resize = tuple(cfg["resize"]) if cfg["resize"] else None
        grids = [load_pgm(p, resize=resize) for p in inputs]
        shape = grids[0].pixels.shape
        for p, g in zip(inputs, grids):
            if g.pixels.shape != shape:
                raise FormatError(f"image {p} has shape {g.pixels.shape}, but {inputs[0]} "
                                  f"has shape {shape}: input images must share one shape")
        return np.column_stack([image_to_matrix(g).ravel() for g in grids]), shape
    if len(inputs) > 1:
        raise ValueError("multiple inputs must all be PGM images")
    if cfg["resize"] is not None:
        raise ValueError("resize applies to PGM images only, not to a CSV input")
    return load_matrix_csv(inputs[0]), None


def cmd_decompose(cfg, out):
    X, shape = _load_input(cfg)
    scfg = _solver_config(cfg)
    dec, record = _solve(_method(cfg), X, scfg, "")

    save_matrix_csv(dec.Z_star, out / "Z.csv")
    save_matrix_csv(dec.L_star, out / "L.csv")
    save_matrix_csv(dec.E_star, out / "E.csv")
    save_matrix_csv(dec.principal, out / "XZ.csv")
    save_matrix_csv(dec.salient, out / "LX.csv")
    _write_trace(out / "trace.csv", dec.trace)

    if shape:
        panels = []
        for j in range(X.shape[1]):
            for part in (X[:, j], dec.principal[:, j], dec.salient[:, j], dec.E_star[:, j]):
                panels.append(matrix_to_image(part, *shape))
        save_pgm(tile_images(panels, cols=4), out / "panel.pgm")
    return {"converged": dec.converged, "iterations": dec.iterations}, [record]


def _corrupt(X, protocol, level, seed):
    if protocol == "pixels":
        return corrupt_random_pixels(X, level, seed=seed)
    if protocol == "invert":
        return invert_pixels(X, level, seed=seed)
    return add_gaussian_noise_snr(X, level, seed=seed)


def cmd_denoise(cfg, out):
    if cfg["input"] is not None:
        X_clean, _ = _load_input(cfg)
    else:
        X_clean, _ = synth_subspaces(_subspace_spec(cfg))
    scfg = _solver_config(cfg)
    methods = _methods(cfg)
    protocol = cfg["protocol"]
    levels = cfg["snr_list" if protocol == "gaussian" else "pct_list"]

    points = [(idx, level, m) for idx, level in enumerate(levels) for m in methods]
    noisy = [_corrupt(X_clean, protocol, level, seed=cfg["seed"] + idx)
             for idx, level in enumerate(levels)]
    jobs = [(m, noisy[idx], scfg, f"at level {level:g}") for idx, level, m in points]
    rows, records = [], []
    for (dec, record), (idx, level, m) in zip(_solve_all(jobs), points):
        zeta_rec = reconstruction_accuracy(X_clean, dec.principal)
        zeta_emb = reconstruction_accuracy(X_clean, dec.L_star @ X_clean)
        rows.append((idx, float(level), m, float(zeta_rec), float(zeta_emb)))
        records.append(record)
    save_csv(out / "denoise.csv",
            ["sweep_index", "level", "method", "zeta_rec", "zeta_emb"], rows)
    return {"points": len(rows)}, records


def cmd_classify(cfg, out):
    k, train = cfg["classes"], cfg["train_count"]
    per_class = train + cfg["test_count"]
    scfg = _solver_config(cfg)
    method = _method(cfg)

    splits = []
    for split in range(cfg["splits"]):
        sub = cfg["seed"] + split
        if cfg["data"] == "blobs":
            X, labels = synth_blobs(k=k, d=cfg["dim"], n_per=per_class,
                                    sep=cfg["blob_sep"], seed=sub)
        else:
            X, labels = synth_subspaces(_subspace_spec(cfg, k=k, n_per=per_class, seed=sub))
        rng = np.random.default_rng(sub)
        tr_idx, te_idx = [], []
        for c in range(k):
            idx = rng.permutation(np.flatnonzero(labels == c))
            tr_idx.extend(idx[:train])
            te_idx.extend(idx[train:per_class])
        splits.append((X[:, tr_idx], labels[tr_idx], X[:, te_idx], labels[te_idx]))
    jobs = [(method, Xtr, scfg, f"on split {s}") for s, (Xtr, *_) in enumerate(splits)]
    rows, records = [], []
    for (dec, record), (split, (Xtr, ytr, Xte, yte)) in zip(_solve_all(jobs), enumerate(splits)):
        t0 = time.perf_counter()
        model = train_classifier(dec.L_star @ Xtr, one_hot(ytr, k), scfg, L_star=dec.L_star)
        fit = _record("classifier", record["label"], t0, model, model.residual)
        pred, _ = predict_labels(model, Xte)
        rows.append((split, classification_accuracy(pred, yte)))
        records += [record, fit]
    accs = [a for _, a in rows]
    save_csv(out / "accuracy.csv", ["split", "accuracy"], rows)
    save_csv(out / "summary.csv", ["mean_accuracy", "std_accuracy"],
            [(float(np.mean(accs)), float(np.std(accs)))])
    return {"mean_accuracy": float(np.mean(accs))}, records


def cmd_bench_synth(cfg, out):
    X, labels = synth_subspaces(_subspace_spec(cfg))
    scfg = _solver_config(cfg)
    method = _method(cfg)
    dec, record = _solve(method, X, scfg, "", record_lagrangian=True)
    _write_trace(out / "trace.csv", dec.trace)
    save_csv(out / "bench.csv",
            ["method", "iterations", "converged", "final_residual", "offblock_ratio"],
            [(method, dec.iterations, int(dec.converged),
              float(dec.trace[-1].residual), float(offblock_ratio(dec.Z_star, labels)))])
    return {"iterations": dec.iterations, "converged": dec.converged}, [record]


def cmd_grid(cfg, out):
    if _methods(cfg) != ["aslrc"]:
        raise ValueError("grid sweeps ASLRC's alpha and beta: method must be 'aslrc'")
    X_clean, labels = synth_subspaces(_subspace_spec(cfg))
    X = corrupt_random_pixels(X_clean, cfg["pct"], seed=cfg["seed"])
    values = CANDIDATE_GRID if cfg["grid_values"] is None else cfg["grid_values"]
    points = [(a, b) for a in values for b in values]

    jobs = [("aslrc", X, _solver_config({**cfg, "alpha": a, "beta": b}),
             f"at alpha {a:g}, beta {b:g}") for a, b in points]
    rows, records = [], []
    for idx, ((dec, record), (a, b)) in enumerate(zip(_solve_all(jobs), points)):
        zeta = reconstruction_accuracy(X_clean, dec.principal)
        rows.append((idx, float(a), float(b), float(zeta),
                     float(offblock_ratio(dec.Z_star, labels)), dec.iterations))
        records.append(record)
    save_csv(out / "grid.csv",
            ["sweep_index", "alpha", "beta", "zeta_acc", "offblock_ratio", "iterations"],
            rows)
    return {"points": len(rows)}, records


_COMMANDS = {
    "decompose": cmd_decompose,
    "denoise": cmd_denoise,
    "classify": cmd_classify,
    "bench-synth": cmd_bench_synth,
    "grid": cmd_grid,
}


def build_parser():
    parser = argparse.ArgumentParser(prog="lolrec",
                                     description="Latent low-rank coding experiment harness")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", type=str, help="JSON config file (flat keys)")
    parser.add_argument("--out", type=str)
    parser.add_argument("--input", type=str, action="append")
    parser.add_argument("--method", choices=METHODS)
    for key in ("seed", "alpha", "beta", "lambda", "tol", "max_iter"):
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=type(DEFAULTS[key]))
    return parser


def load_config(args):
    cfg = dict(DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise TypeError(f"config must be a JSON object, got {type(file_cfg).__name__}")
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    # Each flag's dest is the config key it overrides.
    cfg.update((k, v) for k, v in vars(args).items() if k in DEFAULTS and v is not None)
    # Each key is checked by its default; `out` may be any path.
    for key, default in DEFAULTS.items():
        value = cfg[key]
        if key in _CHOICES:
            _require_choice(key, value)
        elif isinstance(default, float):
            if not _is_number(value):
                raise TypeError(f"{key} must be a real number, got {value!r}")
        elif isinstance(default, int):
            _require_count(key, value, 0 if key == "seed" else 1)
        elif key == "input":
            if not (value is None or isinstance(value, str) or isinstance(value, list)
                    and all(isinstance(p, str) for p in value)):
                raise TypeError(f"input must be a path or a list of paths, got {value!r}")
        elif key == "resize" and value is not None:
            if not isinstance(value, list):
                raise TypeError(f"resize must be null or [w, h], got {value!r}")
            if len(value) != 2:
                raise ValueError(f"resize must be null or [w, h], got {value!r}")
            for what, n in zip(("resize width", "resize height"), value):
                _require_count(what, n, 1)
        elif isinstance(default, list) or (key in ("methods", "grid_values")
                                           and value is not None):
            if not isinstance(value, list):
                raise TypeError(f"{key} must be a list, got {value!r}")
            if not value:
                raise ValueError(f"{key} is empty: nothing to run")
            for v in value:
                if key == "methods":
                    _require_choice("method", v)
                elif not _is_number(v):
                    raise TypeError(f"{key} entries must be numbers, got {v!r}")
    return cfg


def _require_choice(key, value):
    """Check that `value` is one of the values that choice key `key` may take."""
    if value not in _CHOICES[key]:
        raise ValueError(f"unknown {key} {value!r}: must be one of "
                         + ", ".join(map(repr, _CHOICES[key])))


def _require_count(what, n, least):
    """Check that `n` is an integer of at least `least`; a bool is no integer."""
    if not _is_number(n):
        raise TypeError(f"{what} must be an integer, got {n!r}")
    if not isinstance(n, numbers.Integral) or n < least:
        raise ValueError(f"{what} must be an integer of at least {least}, got {n!r}")


def _config_hash(cfg):
    """SHA-256 of the experiment: the config without its output and input paths."""
    experiment = {k: v for k, v in cfg.items() if k not in ("out", "input")}
    return hashlib.sha256(json.dumps(experiment, sort_keys=True, default=str).encode()).hexdigest()


def _threads_record():
    return {
        "LOLREC_THREADS": _threads(),
        "blas_per_solve": blas.solve_threads(),
        "openblas": [{"library": lib.library, "version": lib.version}
                     for lib in blas.loaded_openblas()],
        "numpy": np.__version__,
        # Only the SVD fallback in prox.thin_svd imports scipy.
        "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
    }


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _threads()  # a bad LOLREC_THREADS exits 2 before any solve
        cfg = load_config(args)
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        # Written last, so a directory without one holds a failed or interrupted run.
        (out / "manifest.json").unlink(missing_ok=True)
        t0 = time.time()
        with blas.one_blas_thread():
            summary, solves = _COMMANDS[args.subcommand](cfg, out)
        wall = {args.subcommand: time.time() - t0}
        for r in solves:
            if not r["converged"]:
                what = f"{r['method']} {r['label']}".rstrip()
                print(f"warning: {args.subcommand}: {what} did not converge in "
                      f"{r['iterations']} iterations (final residual {r['final_residual']:.3g})",
                      file=sys.stderr)
        summary["unconverged"] = sum(not r["converged"] for r in solves)
        manifest = {
            "subcommand": args.subcommand,
            "config": {k: cfg[k] for k in sorted(cfg)},
            "config_hash": _config_hash(cfg),
            "version": __version__,
            "threads": _threads_record(),
            "wall_clock_seconds": wall,
            "summary": summary,
            "solves": solves,
        }
        with open(out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, default=str)
    except (ToolkitError, ValueError, TypeError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
