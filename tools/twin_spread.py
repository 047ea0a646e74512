"""How well a decomposition is determined: the twin-solve spread.

    python tools/twin_spread.py INPUT [--method aslrc|latlrr] [--eps 1e-15]
                                [--twins 3] [--base DIR]

INPUT is a `.npy` or CSV matrix, or `decompose-image` for perfbench's face
images at seed 7 (size full, 400 x 40).  A twin of X is X (1 + eps xi), with
xi standard normal, one per seed 0, 1, ...: it moves each entry by about
eps relative, as rounding does.  `twin_spread` solves X and each twin with
the CLI's default config and reports, for Z, L, LX, E and XZ, the largest
difference from X's answer, in Frobenius norm relative to that of X's
block, with the sweep counts.  An exact-algebra change whose answer moves by
no more than a small multiple of that spread stays within what the
instance's own rounding moves.

With --base DIR, a lolrec checkout, X is also solved by DIR's `src`, loaded
next to this checkout's under another module name, and the difference of
this checkout's answer from DIR's is printed beside the spread.
"""

import argparse
import importlib.util
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = ("Z", "L", "LX", "E", "XZ")


def load_lolrec(src, name):
    """The lolrec package under `src` (a directory that holds `lolrec/`),
    imported as module `name`, so that two trees can run in one process."""
    spec = importlib.util.spec_from_file_location(
        name, Path(src) / "lolrec" / "__init__.py",
        submodule_search_locations=[str(Path(src) / "lolrec")])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def blocks(dec):
    """A Decomposition's blocks by name."""
    return {"Z": dec.Z_star, "L": dec.L_star, "LX": dec.salient, "E": dec.E_star,
            "XZ": dec.principal}


def relative_difference(a, b):
    """||a - b||_F / ||a||_F, or ||a - b||_F when a is zero."""
    scale = np.linalg.norm(a)
    diff = np.linalg.norm(np.asarray(a) - np.asarray(b))
    return float(diff / scale if scale else diff)


def difference(dec, other):
    """`relative_difference` of each block of `other` from `dec`'s."""
    theirs = blocks(other)
    return {name: relative_difference(a, theirs[name]) for name, a in blocks(dec).items()}


def twin_spread(solve, X, eps=1e-15, twins=3):
    """Solve X and `twins` twins X (1 + eps xi), xi standard normal from
    seeds 0, 1, ...  Returns (X's Decomposition, the largest `difference`
    of each block over the twins, the twins' sweep counts)."""
    X = np.asarray(X, dtype=float)
    base = solve(X)
    spread, sweeps = dict.fromkeys(BLOCKS, 0.0), []
    for seed in range(twins):
        xi = np.random.default_rng(seed).standard_normal(X.shape)
        twin = solve(X * (1.0 + eps * xi))
        sweeps.append(twin.iterations)
        for name, value in difference(base, twin).items():
            spread[name] = max(spread[name], value)
    return base, spread, sweeps


def face_images():
    """perfbench's `decompose-image` faces at seed 7, size full, as the CLI
    loads them: one column per image."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import workloads
    from lolrec.matrix_io import image_to_matrix, load_pgm

    with tempfile.TemporaryDirectory() as tmp:
        argv = workloads.WORKLOADS["decompose-image"].make_inputs(7, "full", tmp)
        paths = [arg for flag, arg in zip(argv, argv[1:]) if flag == "--input"]
        return np.column_stack([image_to_matrix(load_pgm(p)).ravel() for p in paths])


def load_input(name):
    if name == "decompose-image":
        return face_images()
    if name.endswith(".npy"):
        return np.load(name)
    sys.path.insert(0, str(ROOT / "src"))
    from lolrec.matrix_io import load_matrix_csv
    return load_matrix_csv(name)


def solver(package, method):
    """`method`'s solve from a lolrec package, at the CLI's default config
    and without the Lagrangian, as `decompose` runs it."""
    run = package.solve if method == "aslrc" else package.latlrr_solve
    return lambda X: run(X, record_lagrangian=False)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("input", help="a .npy or CSV matrix, or decompose-image")
    parser.add_argument("--method", choices=("aslrc", "latlrr"), default="aslrc")
    parser.add_argument("--eps", type=float, default=1e-15)
    parser.add_argument("--twins", type=int, default=3)
    parser.add_argument("--base", help="a lolrec checkout to compare this one with")
    args = parser.parse_args(argv)

    X = load_input(args.input)
    head = load_lolrec(ROOT / "src", "lolrec_head")
    dec, spread, sweeps = twin_spread(solver(head, args.method), X, args.eps, args.twins)
    print(f"{args.input} ({X.shape[0]} x {X.shape[1]}), {args.method}: {dec.iterations} "
          f"sweeps; twins at eps {args.eps:g}: {', '.join(map(str, sweeps))} sweeps")
    drift = None
    if args.base:
        base = solver(load_lolrec(Path(args.base) / "src", "lolrec_base"), args.method)(X)
        drift = difference(base, dec)
        print(f"base {args.base}: {base.iterations} sweeps")
    for name in BLOCKS:
        line = f"{name}: twin spread {spread[name]:.2g}"
        if drift is not None:
            line += f", this checkout against base {drift[name]:.2g}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
