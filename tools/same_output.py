"""Compare what the lolrec CLI writes from two source trees.

    python tools/same_output.py BASE [--size full|tiny]

BASE is a directory that holds a lolrec checkout (its `src/` is run), or a
git ref of this repository, which is checked out with `git worktree add`
into a temporary directory and removed afterwards.  The inputs are made
once, by perfbench's workloads at seed 7 (`workloads.WORKLOADS`).  Then ten
runs, perfbench's four workloads, those in `EXTRA` and "decompose-latlrr",
go through BASE's `src` and through this checkout's, each a
fresh `python -m lolrec.cli` process without perfbench's thread variables
(`workloads.THREAD_VARS`), so every run takes the CLI's defaults.

Each artifact is reported `identical`, or for a CSV by the largest
difference of its numbers relative to the largest |entry| of BASE's file.
Manifests are compared on `summary`, `solves` without `wall_s`, and
`config_hash`.  After a run's artifacts, one line gives the sweep count of
each of its solves on both sides.  The exit status is 0 only when every run
exits 0 on both sides and every artifact is identical.
"""

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 7

# Shapes that keep the runs with no perfbench workload quick at size tiny.
TINY = {"subspaces": 2, "sub_dim": 2, "ambient": 10, "n_per": 8, "dim": 6,
        "train_count": 5, "test_count": 5, "max_iter": 120, "tol": 1e-4}

# The runs beyond perfbench's four workloads: name -> (subcommand, the
# perfbench workload whose shapes it takes or None for TINY at size tiny and
# the CLI's defaults at full, config).  One more, "decompose-latlrr", runs
# perfbench's `decompose-image` arguments with `--method latlrr`.
EXTRA = {
    "denoise-both": ("denoise", None, {"methods": ["aslrc", "latlrr"], "pct_list": [10, 50]}),
    "classify-blobs": ("classify", None, {"splits": 3}),
    "classify-subspaces": ("classify", None, {"data": "subspaces", "splits": 3}),
    "classify-latlrr": ("classify", None, {"method": "latlrr", "splits": 3}),
    "bench-synth-latlrr": ("bench-synth", "bench-synth", {"method": "latlrr"}),
    # d > N (100 x 24), with the Lagrangian recorded in trace.csv.
    "bench-synth-tall": ("bench-synth", None, {"ambient": 100, "subspaces": 4, "n_per": 6}),
}

MANIFEST_KEYS = ("summary", "solves", "config_hash")


def perfbench_workloads():
    """perfbench's `workloads` module; its image inputs are written by this
    checkout's `lolrec.matrix_io`."""
    for path in (str(ROOT / "perfbench"), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    return workloads


def make_inputs(workloads, size, directory):
    """Write every run's inputs under `directory`; returns run name -> CLI
    arguments (without `--out`)."""
    runs = {}
    for name, wl in workloads.WORKLOADS.items():
        where = Path(directory) / name
        where.mkdir(parents=True)
        runs[name] = wl.make_inputs(SEED, size, where)
    for name, (subcommand, shapes, cfg) in EXTRA.items():
        if shapes:
            base = workloads.WORKLOADS[shapes].sizes[size]
        else:
            base = TINY if size == "tiny" else {}
        path = Path(directory) / f"{name}.json"
        path.write_text(json.dumps({**base, **cfg}))
        runs[name] = [subcommand, "--config", str(path)]
    runs["decompose-latlrr"] = [*runs["decompose-image"], "--method", "latlrr"]
    return runs


def run_all(trees, runs, thread_vars, out_root):
    """Run every run with each tree's `src`; returns {(tree, run): (exit code,
    last stderr line)}, artifacts in out_root/<tree>/<run>."""
    env = {k: v for k, v in os.environ.items() if k not in thread_vars}

    def one(tree, name):
        out = Path(out_root) / tree / name
        proc = subprocess.run([sys.executable, "-m", "lolrec.cli", *runs[name], "--out", str(out)],
                              env={**env, "PYTHONPATH": str(trees[tree] / "src")},
                              capture_output=True, text=True, timeout=900)
        lines = proc.stderr.strip().splitlines()
        return proc.returncode, lines[-1] if lines else ""

    keys = [(tree, name) for name in runs for tree in trees]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(keys, pool.map(lambda key: one(*key), keys)))


def csv_difference(workloads, a, b):
    """How the CSV files `a` and `b` differ, in words."""
    ra, rb = (workloads.read_csv(path, header=False)[1] for path in (a, b))
    if [len(r) for r in ra] != [len(r) for r in rb]:
        return "rows or columns differ"
    numbers = []
    for row_a, row_b in zip(ra, rb):
        for x, y in zip(row_a, row_b):
            try:
                numbers.append((float(x), float(y)))
            except ValueError:  # a header or a method name
                if x != y:
                    return "text differs"
    va, vb = np.array(numbers).reshape(-1, 2).T
    nan = np.isnan(va)
    if np.any(nan != np.isnan(vb)):
        return "NaN in one file only"
    diff = np.abs(va - vb)[~nan].max(initial=0.0)
    scale = np.abs(va)[~nan].max(initial=0.0)
    return f"max relative difference {diff / scale if scale else diff:.3g}"


def manifest_view(path):
    m = json.loads(Path(path).read_text())
    m["solves"] = [{k: v for k, v in r.items() if k != "wall_s"} for r in m["solves"]]
    return {k: m[k] for k in MANIFEST_KEYS}


def sweeps(out):
    """The sweep count of each solve in the manifest under `out`."""
    return [r["iterations"] for r in json.loads((out / "manifest.json").read_text())["solves"]]


def compare(workloads, a, b):
    """One (artifact, verdict) per file in either directory; the verdict of
    a same file is "identical"."""
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    for name in names:
        fa, fb = a / name, b / name
        if not (fa.exists() and fb.exists()):
            verdict = "only in " + ("base" if fa.exists() else "this checkout")
        elif name == "manifest.json":
            va, vb = manifest_view(fa), manifest_view(fb)
            bad = [k for k in MANIFEST_KEYS if va[k] != vb[k]]
            verdict = "identical" if not bad else "differs in " + ", ".join(bad)
        elif fa.read_bytes() == fb.read_bytes():
            verdict = "identical"
        elif name.endswith(".csv"):
            verdict = csv_difference(workloads, fa, fb)
        else:
            verdict = "bytes differ"
        yield name, verdict


@contextlib.contextmanager
def base_tree(base):
    """The lolrec checkout that BASE names: a directory, or a git ref checked
    out into a temporary worktree for the duration."""
    if (Path(base) / "src" / "lolrec").is_dir():
        yield Path(base).resolve()
        return
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "base"
        added = subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                                str(tree), base], capture_output=True, text=True)
        if added.returncode:
            raise SystemExit(f"{base}: neither a lolrec checkout nor a git ref "
                             f"({added.stderr.strip()})")
        try:
            yield tree
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True, capture_output=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="a lolrec checkout directory, or a git ref")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp, base_tree(args.base) as base:
        tmp = Path(tmp)
        workloads = perfbench_workloads()
        runs = make_inputs(workloads, args.size, tmp / "inputs")
        trees = {"base": base, "head": ROOT}
        exits = run_all(trees, runs, workloads.THREAD_VARS, tmp / "out")
        same = total = 0
        for name in runs:
            codes = [exits[tree, name] for tree in trees]
            if any(code for code, _ in codes):
                total += 1
                print(f"{name}: exit {codes[0][0]} (base), {codes[1][0]} (this checkout): "
                      + " / ".join(line for _, line in codes if line))
                continue
            outs = [tmp / "out" / tree / name for tree in trees]
            for artifact, verdict in compare(workloads, *outs):
                total += 1
                same += verdict == "identical"
                print(f"{name}/{artifact}: {verdict}")
            counts = [", ".join(map(str, sweeps(out))) for out in outs]
            print(f"{name} sweeps: {counts[0]} (base), {counts[1]} (this checkout)")
        print(f"{same} of {total} artifacts identical")
    return 0 if same == total else 1


if __name__ == "__main__":
    sys.exit(main())
