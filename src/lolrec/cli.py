"""Experiment harness.

Subcommands: decompose | denoise | classify | bench-synth | grid.
Configuration comes from a flat-key JSON file (--config); each flag
overrides the config key of the same name.  Every run writes a manifest with the config
hash, toolkit version, thread settings, the subcommand's wall-clock time,
and one record per solve.  Every subcommand prints one stderr warning per
solve that stopped at max_iter unconverged, and counts them in its summary.
`grid` sweeps ASLRC's alpha and beta, so it takes no other method.

Data: `decompose` and `denoise` read `input` alike: one CSV matrix, or PGM
images as columns on the [0, 1] pixel scale; an empty `input` is an error.
Without an `input` (absent or null), `denoise` draws the synthetic
subspaces of the `SubspaceSpec` keys.  A count key must be an integer:
`seed` at least 0, `splits`, `classes` and the rest at least 1.

Threads: a subcommand runs BLAS on one thread, so its artifacts match a
run with OPENBLAS_NUM_THREADS=1 byte for byte; setting OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS overrides this (see `lolrec.blas`).
LOLREC_THREADS caps sweep parallelism (unset or empty means 1; any other
value must be a positive integer): that many solves run at once.  CSV rows
are ordered by sweep index, not completion order, so output bytes are
reproducible.
"""

import argparse
import concurrent.futures
import dataclasses
import hashlib
import json
import numbers
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, blas
from .classify import one_hot, predict_labels, train_classifier
from .errors import ToolkitError
from .latlrr import latlrr_solve
from .matrix_io import (image_to_matrix, load_matrix_csv, load_pgm,
                        matrix_to_image, save_matrix_csv, save_pgm, tile_images)
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

# Each config key that counts something, by its least value.
_COUNTS = {"seed": 0, **dict.fromkeys(("subspaces", "sub_dim", "ambient", "n_per", "classes",
                                        "dim", "train_count", "test_count", "splits"), 1)}


def _threads():
    """Sweep threads from LOLREC_THREADS: unset or empty means 1."""
    value = os.environ.get("LOLREC_THREADS") or "1"
    if not (value.isdecimal() and int(value) >= 1):
        raise ValueError(f"LOLREC_THREADS must be a positive integer, got {value!r}")
    return int(value)


def _run_indexed(fn, jobs):
    """`fn(*job)`, which returns (rows, records), for each argument tuple in
    `jobs`, possibly in parallel; returns all rows and records in job order."""
    n = _threads()
    if n == 1 or len(jobs) <= 1:
        results = [fn(*job) for job in jobs]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=n) as pool:
            results = list(pool.map(fn, *zip(*jobs)))
    return ([row for rows, _ in results for row in rows],
            [record for _, records in results for record in records])


def _record(method, label, t0, result, residual):
    """Manifest record of a solve begun at perf_counter() `t0` that gave `result`."""
    return {"method": method, "label": label, "iterations": int(result.iterations),
            "converged": bool(result.converged), "final_residual": float(residual),
            "wall_s": time.perf_counter() - t0}


def _solve(method, X, scfg, label, record_lagrangian=False):
    """Run one coding solve; returns (Decomposition, record).  `label` tells the
    subcommand's solves apart ("at level 10"); a lone solve's label is ""."""
    t0 = time.perf_counter()
    if method == "aslrc":
        dec = solve(X, scfg, record_lagrangian=record_lagrangian)
    else:
        dec = latlrr_solve(X, scfg.lam, scfg, record_lagrangian=record_lagrangian)
    return dec, _record(method, label, t0, dec, dec.trace[-1].residual)


def _solver_config(cfg):
    return SolverConfig(**{f.name: cfg[key] for key, f in _SOLVER_FIELDS.items()})


def _sweep(cfg, key):
    """The values swept at config key `key`, which must be a non-empty list."""
    values = cfg[key]
    if not isinstance(values, list):
        raise TypeError(f"{key} must be a list, got {values!r}")
    if not values:
        raise ValueError(f"{key} is empty: nothing to run")
    return values


def _methods(cfg):
    """The methods a subcommand runs: `methods`, or when that is null, `method`."""
    methods = [cfg["method"]] if cfg["methods"] is None else _sweep(cfg, "methods")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    return methods


def _method(cfg):
    """The one method of a subcommand that runs one."""
    methods = _methods(cfg)
    if len(methods) != 1:
        raise ValueError(f"this subcommand runs one method, got methods {methods!r}")
    return methods[0]


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")


def _write_trace(path, trace):
    _write_csv(path, ["iteration", "residual", "mu", "lagrangian"],
               [(p.iteration, float(p.residual), float(p.mu), float(p.lagrangian)) for p in trace])


def _subspace_spec(cfg, **fields):
    """The SubspaceSpec of `cfg`'s keys, with `fields` set by field name."""
    return SubspaceSpec(**{**{f.name: cfg[key] for key, f in _SPEC_FIELDS.items()}, **fields})


def _load_input(cfg):
    """The data at `input`, a path or a list: one CSV, or PGM images as
    columns.  Returns (X, (height, width)) for images, (X, None) for a CSV."""
    inputs = cfg["input"]
    if not inputs:
        raise ValueError("no input path given")
    if isinstance(inputs, str):
        inputs = [inputs]
    if all(str(p).lower().endswith(".pgm") for p in inputs):
        resize = tuple(cfg["resize"]) if cfg["resize"] else None
        grids = [load_pgm(p, resize=resize) for p in inputs]
        return (np.column_stack([image_to_matrix(g).ravel() for g in grids]),
                grids[0].pixels.shape)
    if len(inputs) == 1:
        return load_matrix_csv(inputs[0]), None
    raise ValueError("multiple inputs must all be PGM images")


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
    if protocol == "gaussian":
        return add_gaussian_noise_snr(X, level, seed=seed)
    raise ValueError(f"unknown corruption protocol {protocol!r}")


def cmd_denoise(cfg, out):
    if cfg["input"] is not None:
        X_clean, _ = _load_input(cfg)
    else:
        X_clean, _ = synth_subspaces(_subspace_spec(cfg))
    scfg = _solver_config(cfg)
    methods = _methods(cfg)
    protocol = cfg["protocol"]
    levels = _sweep(cfg, "snr_list" if protocol == "gaussian" else "pct_list")

    def run(idx, level):
        X_noisy = _corrupt(X_clean, protocol, level, seed=cfg["seed"] + idx)
        rows, records = [], []
        for m in methods:
            dec, record = _solve(m, X_noisy, scfg, f"at level {level:g}")
            zeta_rec = reconstruction_accuracy(X_clean, dec.principal)
            zeta_emb = reconstruction_accuracy(X_clean, dec.L_star @ X_clean)
            rows.append((idx, float(level), m, float(zeta_rec), float(zeta_emb)))
            records.append(record)
        return rows, records

    rows, records = _run_indexed(run, list(enumerate(levels)))
    _write_csv(out / "denoise.csv",
               ["sweep_index", "level", "method", "zeta_rec", "zeta_emb"], rows)
    return {"points": len(rows)}, records


def cmd_classify(cfg, out):
    k, train = cfg["classes"], cfg["train_count"]
    per_class = train + cfg["test_count"]
    scfg = _solver_config(cfg)
    method = _method(cfg)
    if cfg["data"] not in ("blobs", "subspaces"):
        raise ValueError(f"data must be 'blobs' or 'subspaces', got {cfg['data']!r}")

    def run(split):
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
        Xtr, ytr = X[:, tr_idx], labels[tr_idx]
        Xte, yte = X[:, te_idx], labels[te_idx]
        label = f"on split {split}"
        dec, record = _solve(method, Xtr, scfg, label)
        t0 = time.perf_counter()
        model = train_classifier(dec.L_star @ Xtr, one_hot(ytr, k), scfg, L_star=dec.L_star)
        fit = _record("classifier", label, t0, model, model.residual)
        pred, _ = predict_labels(model, Xte)
        return [(split, classification_accuracy(pred, yte))], [record, fit]

    rows, records = _run_indexed(run, [(s,) for s in range(cfg["splits"])])
    accs = [a for _, a in rows]
    _write_csv(out / "accuracy.csv", ["split", "accuracy"], rows)
    _write_csv(out / "summary.csv", ["mean_accuracy", "std_accuracy"],
               [(float(np.mean(accs)), float(np.std(accs)))])
    return {"mean_accuracy": float(np.mean(accs))}, records


def cmd_bench_synth(cfg, out):
    X, labels = synth_subspaces(_subspace_spec(cfg))
    scfg = _solver_config(cfg)
    method = _method(cfg)
    dec, record = _solve(method, X, scfg, "", record_lagrangian=True)
    _write_trace(out / "trace.csv", dec.trace)
    _write_csv(out / "bench.csv",
               ["method", "iterations", "converged", "final_residual", "offblock_ratio"],
               [(method, dec.iterations, int(dec.converged),
                 float(dec.trace[-1].residual), float(offblock_ratio(dec.Z_star, labels)))])
    return {"iterations": dec.iterations, "converged": dec.converged}, [record]


def cmd_grid(cfg, out):
    if _methods(cfg) != ["aslrc"]:
        raise ValueError("grid sweeps ASLRC's alpha and beta: method must be 'aslrc'")
    X_clean, labels = synth_subspaces(_subspace_spec(cfg))
    pct = float(cfg["pct"])
    X = corrupt_random_pixels(X_clean, pct, seed=cfg["seed"]) if pct > 0 else X_clean
    values = CANDIDATE_GRID if cfg["grid_values"] is None else _sweep(cfg, "grid_values")
    points = [(a, b) for a in values for b in values]

    def run(idx, a, b):
        scfg = _solver_config({**cfg, "alpha": a, "beta": b})
        dec, record = _solve("aslrc", X, scfg, f"at alpha {a:g}, beta {b:g}")
        zeta = reconstruction_accuracy(X_clean, dec.principal)
        return [(idx, float(a), float(b), float(zeta),
                 float(offblock_ratio(dec.Z_star, labels)), dec.iterations)], [record]

    rows, records = _run_indexed(run, [(i, a, b) for i, (a, b) in enumerate(points)])
    _write_csv(out / "grid.csv",
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
    parser.add_argument("--seed", type=int)
    parser.add_argument("--method", choices=METHODS)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--lambda", dest="lambda", type=float)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--max-iter", dest="max_iter", type=int)
    return parser


def load_config(args):
    cfg = dict(DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    # Each flag's dest is the config key it overrides.
    cfg.update((k, v) for k, v in vars(args).items() if k in DEFAULTS and v is not None)
    for key, least in _COUNTS.items():
        n = cfg[key]
        if isinstance(n, bool) or not isinstance(n, numbers.Number):
            raise TypeError(f"{key} must be an integer, got {n!r}")
        if not isinstance(n, numbers.Integral) or n < least:
            raise ValueError(f"{key} must be an integer of at least {least}, got {n!r}")
    return cfg


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
        "scipy": scipy.__version__,
    }


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _threads()  # a bad LOLREC_THREADS exits 2 before any solve
        cfg = load_config(args)
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
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
