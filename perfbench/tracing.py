"""Spans around calls into lolrec's modules, and the per-layer metrics
computed from them.

The product imports names by value, so a wrapper only sees a call when it
replaces the name in the module where the caller looks it up: `cli.solve`,
not `solver.solve`.  Spans live in memory (a list append is atomic under the
interpreter lock) with a per-thread stack for parents, because `grid` runs
solves on several sweep threads.  A wrapped name that a later refactor
removes is recorded as absent, and every metric that needs it is reported as
absent instead of crashing the run.
"""

import functools
import itertools
import os
import threading
import time
from collections import defaultdict

# (module under lolrec, attribute) -> span name.  Each name is wrapped in the
# module where its caller looks it up.
SOLVER_BLOCKS = "LZERJFQWS"
WRAPPED = {
    ("cli", "solve"): "cli.solve",
    ("cli", "latlrr_solve"): "cli.latlrr_solve",
    ("cli", "save_matrix_csv"): "cli.save_matrix_csv",
    ("cli", "save_pgm"): "cli.save_pgm",
    ("cli", "load_pgm"): "cli.load_pgm",
    ("cli", "synth_subspaces"): "cli.synth_subspaces",
    ("cli", "corrupt_random_pixels"): "cli.corrupt_random_pixels",
    ("cli", "reconstruction_accuracy"): "cli.reconstruction_accuracy",
    ("cli", "offblock_ratio"): "cli.offblock_ratio",
    ("solver", "primal_sweep"): "solver.primal_sweep",
    **{("solver", f"update_{b}"): f"solver.update_{b}" for b in SOLVER_BLOCKS},
    ("solver", "check_convergence"): "solver.check_convergence",
    ("solver", "augmented_lagrangian"): "solver.augmented_lagrangian",
    ("solver", "update_multipliers_and_mu"): "solver.update_multipliers_and_mu",
    ("solver", "svt"): "solver.svt",
    ("solver", "thin_svd"): "solver.thin_svd",
    ("prox", "thin_svd"): "prox.thin_svd",
    ("latlrr", "svt"): "latlrr.svt",
    ("latlrr", "thin_svd"): "latlrr.thin_svd",
    ("latlrr", "cho_solve"): "latlrr.cho_solve",
    ("latlrr", "weighted_shrink"): "latlrr.weighted_shrink",
}
# Writers whose second argument is the path written; its size feeds write_mb.
WRITERS = {"cli.save_matrix_csv", "cli.save_pgm"}


class Recorder:
    """Installs wrappers on lolrec's modules and keeps the spans they record.

    A span is (id, name, start, end, parent id, thread id, invocation,
    bytes written).
    """

    def __init__(self):
        self.spans = []
        self.absent = set()
        self.invocation = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed = []

    def _wrap(self, name, fn):
        local, spans, ids = self._local, self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                size = os.path.getsize(args[1]) if name in WRITERS and len(args) > 1 \
                    and os.path.exists(args[1]) else 0
                spans.append((sid, name, start, end, parent, threading.get_ident(),
                              self.invocation, size))
        return wrapper

    def install(self, package):
        """Wrap every name in WRAPPED that exists in `package`'s modules."""
        for (module_name, attr), name in WRAPPED.items():
            module = getattr(package, module_name, None)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.add(name)
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def write(self, path):
        """Write the spans as CSV, times in seconds."""
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,thread,invocation,bytes\n")
            for s in self.spans:
                fh.write(",".join("%.9f" % v if isinstance(v, float) else
                                  ("" if v is None else str(v)) for v in s) + "\n")


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class _Spans:
    """Totals, counts and self times of one invocation's spans, by name."""

    def __init__(self, spans):
        self.spans = spans
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        name_of = {s[0]: s[1] for s in spans}
        child_time = defaultdict(float)
        for sid, name, start, end, parent, *_ in spans:
            if parent is not None:
                child_time[parent] += end - start
        self.useful_svds = 0
        for sid, name, start, end, parent, *_ in spans:
            self.count[name] += 1
            self.total[name] += end - start
            self.self_time[name] += end - start - child_time[sid]
            if name.endswith("thin_svd") and name_of.get(parent, "").endswith(".svt"):
                self.useful_svds += 1
        self.bytes = sum(s[7] for s in spans)

    def n(self, *names):
        return sum(self.count[x] for x in names)

    def t(self, *names):
        return sum(self.total[x] for x in names)

    def self_t(self, *names):
        return sum(self.self_time[x] for x in names)

    def interval_union(self, *names):
        return _union_length([(s[2], s[3]) for s in self.spans if s[1] in names])


def _ratio(num, den):
    return num / den if den else 0.0


SOLVES = ("cli.solve", "cli.latlrr_solve")
SOLVER_PARTS = (tuple(f"solver.update_{b}" for b in SOLVER_BLOCKS)
                + ("solver.check_convergence", "solver.augmented_lagrangian",
                   "solver.update_multipliers_and_mu"))
SVTS = ("solver.svt", "latlrr.svt")
SVDS = ("prox.thin_svd", "solver.thin_svd", "latlrr.thin_svd")
EVALS = ("solver.check_convergence", "solver.augmented_lagrangian",
         "solver.update_multipliers_and_mu")

# name -> (unit, better, span names it needs, fn(spans, wall_s)).  Block times
# are inclusive of the prox calls nested in them, so that the solver's blocks,
# residual, Lagrangian and multiplier times plus solver.other_s add up to
# solver.solve_s.
LAYER_METRICS = {
    "cli.solves": ("count", "higher", SOLVES, lambda s, w: s.n(*SOLVES)),
    "cli.solver_s": ("s", "lower", SOLVES, lambda s, w: s.t(*SOLVES)),
    "cli.overlap": ("ratio", "higher", SOLVES, lambda s, w: _ratio(s.t(*SOLVES), w)),
    "cli.outside_s": ("s", "lower", SOLVES, lambda s, w: w - s.interval_union(*SOLVES)),
    "solver.solve_s": ("s", "lower", ("cli.solve",), lambda s, w: s.t("cli.solve")),
    "solver.sweeps": ("count", "lower", ("solver.primal_sweep",),
                      lambda s, w: s.n("solver.primal_sweep")),
    "solver.sweep_ms": ("ms", "lower", ("cli.solve", "solver.primal_sweep"),
                        lambda s, w: 1e3 * _ratio(s.t("cli.solve"), s.n("solver.primal_sweep"))),
    **{f"solver.{b}_s": ("s", "lower", (f"solver.update_{b}",),
                         lambda s, w, b=b: s.t(f"solver.update_{b}")) for b in SOLVER_BLOCKS},
    "solver.residual_s": ("s", "lower", ("solver.check_convergence",),
                          lambda s, w: s.t("solver.check_convergence")),
    "solver.lagrangian_s": ("s", "lower", ("solver.augmented_lagrangian",),
                            lambda s, w: s.t("solver.augmented_lagrangian")),
    "solver.multiplier_s": ("s", "lower", ("solver.update_multipliers_and_mu",),
                            lambda s, w: s.t("solver.update_multipliers_and_mu")),
    "solver.other_s": ("s", "lower", ("cli.solve", "solver.primal_sweep") + SOLVER_PARTS,
                       lambda s, w: s.self_t("cli.solve", "solver.primal_sweep")),
    "solver.residual_evals_per_sweep": ("count", "lower", EVALS + ("solver.primal_sweep",),
                                        lambda s, w: _ratio(s.n(*EVALS),
                                                            s.n("solver.primal_sweep"))),
    "prox.svt_calls": ("count", "lower", SVTS, lambda s, w: s.n(*SVTS)),
    "prox.svt_s": ("s", "lower", SVTS, lambda s, w: s.t(*SVTS)),
    "prox.svd_calls": ("count", "lower", SVDS, lambda s, w: s.n(*SVDS)),
    "prox.svd_useful_ratio": ("ratio", "higher", SVDS + SVTS,
                              lambda s, w: _ratio(s.useful_svds, s.n(*SVDS))),
    "latlrr.solve_s": ("s", "lower", ("cli.latlrr_solve",), lambda s, w: s.t("cli.latlrr_solve")),
    "latlrr.sweeps": ("count", "lower", ("latlrr.weighted_shrink",),
                      lambda s, w: s.n("latlrr.weighted_shrink")),
    "latlrr.svt_s": ("s", "lower", ("latlrr.svt",), lambda s, w: s.t("latlrr.svt")),
    "latlrr.linsolve_s": ("s", "lower", ("latlrr.cho_solve",),
                          lambda s, w: s.t("latlrr.cho_solve")),
    "latlrr.shrink_s": ("s", "lower", ("latlrr.weighted_shrink",),
                        lambda s, w: s.t("latlrr.weighted_shrink")),
    "latlrr.other_s": ("s", "lower", ("cli.latlrr_solve", "latlrr.svt", "latlrr.cho_solve",
                                      "latlrr.weighted_shrink", "latlrr.thin_svd"),
                       lambda s, w: s.self_t("cli.latlrr_solve")),
    "matrix_io.read_s": ("s", "lower", ("cli.load_pgm",), lambda s, w: s.t("cli.load_pgm")),
    "matrix_io.write_s": ("s", "lower", tuple(WRITERS), lambda s, w: s.t(*WRITERS)),
    "matrix_io.write_mb": ("MB", "lower", tuple(WRITERS), lambda s, w: s.bytes / 1e6),
    "synth.gen_s": ("s", "lower", ("cli.synth_subspaces", "cli.corrupt_random_pixels"),
                    lambda s, w: s.t("cli.synth_subspaces", "cli.corrupt_random_pixels")),
    "synth.metric_s": ("s", "lower", ("cli.reconstruction_accuracy", "cli.offblock_ratio"),
                       lambda s, w: s.t("cli.reconstruction_accuracy", "cli.offblock_ratio")),
}
SHARE_BASE = "cli.solver_s"


def invocation_metrics(spans, wall_s, absent):
    """Per-layer metrics of one invocation; absent ones map to None.

    Every `_s` metric is also given as `<name>_share`, its fraction of
    cli.solver_s (time inside solve and latlrr_solve).
    """
    s = _Spans(spans)
    out = {}
    for name, (_, _, needs, fn) in LAYER_METRICS.items():
        out[name] = None if absent.intersection(needs) else float(fn(s, wall_s))
    base = out[SHARE_BASE]
    for name in share_names():
        value = out[name[:-len("_share")]]
        out[name] = None if value is None or base is None else _ratio(value, base)
    return out


def share_names():
    return [f"{n}_share" for n, spec in LAYER_METRICS.items()
            if spec[0] == "s" and n != SHARE_BASE]


def metric_specs():
    """name -> (unit, better) for every per-layer metric computed from spans."""
    specs = {n: spec[:2] for n, spec in LAYER_METRICS.items()}
    specs.update((n, ("fraction", "lower")) for n in share_names())
    return specs
