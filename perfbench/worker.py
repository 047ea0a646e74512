"""One benchmark process: set up a workload's inputs, then call
`lolrec.cli.main` in a closed loop and check what each call wrote.

run.py starts this script in a fresh interpreter with the workload's thread
settings already in the environment, so they reach OpenBLAS before numpy is
imported.  The result goes to the JSON file named by --result.

Modes:
  setup    stop once the inputs are written (a set-up time sample)
  measure  untraced invocations
  trace    invocations with spans recorded around lolrec's modules
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

# name -> (symbol for the thread count, symbol for the version string)
OPENBLAS_EXPORTS = {
    "libscipy_openblas64_": ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    "libscipy_openblas": ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
}


def openblas_record():
    """Each OpenBLAS loaded in this process, with its version and threads."""
    with open("/proc/self/maps") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and "/" in ln})
    libs = []
    for path in paths:
        base = Path(path).name
        key = next((k for k in OPENBLAS_EXPORTS if base.startswith(k + "-") or base == k + ".so"),
                   None)
        entry = {"library": base}
        if key:
            lib = ctypes.CDLL(path)
            threads, config = (getattr(lib, sym, None) for sym in OPENBLAS_EXPORTS[key])
            if threads is not None:
                threads.restype = ctypes.c_int
                entry["threads"] = threads()
            if config is not None:
                config.restype = ctypes.c_char_p
                entry["config"] = config().decode()
        libs.append(entry)
    return libs


def environment_record():
    import numpy
    import scipy

    return {
        "openblas": openblas_record(),
        "env": {k: os.environ[k] for k in workloads.THREAD_VARS if k in os.environ},
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def invoke(main, argv):
    """One CLI call; returns (exit code, error text or None)."""
    try:
        return main(argv), None
    except SystemExit as exc:
        return exc.code, f"SystemExit({exc.code})"
    except Exception as exc:  # a crash counts as a failed invocation
        traceback.print_exc()
        return None, f"{type(exc).__name__}: {exc}"


def closed_loop(wl, size, argv, work, budget, recorder=None):
    """Invoke the CLI one call at a time until the next call would overrun
    `budget` seconds; always at least once."""
    from lolrec import cli

    invocations = []
    start = time.monotonic()
    while True:
        out = work / f"out{len(invocations)}"
        if recorder is not None:
            recorder.invocation = len(invocations)
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        code, error = invoke(cli.main, argv + ["--out", str(out)])
        t1 = time.perf_counter()
        cpu1 = cpu_seconds()
        problems, found = wl.check(out, work, size) if code == 0 else ([], {})
        if code != 0:
            problems = [error or f"exit code {code}"]
        invocations.append({"wall_s": t1 - t0, "cpu_s": cpu1 - cpu0, "start": t0, "end": t1,
                            "problems": problems, "found": found})
        shutil.rmtree(out, ignore_errors=True)
        typical = statistics.median(i["wall_s"] for i in invocations)
        if time.monotonic() - start + typical > budget:
            return invocations


def traced_metrics(recorder, invocations):
    """Per-invocation layer metrics, then the median of each across invocations."""
    import tracing

    per_inv = []
    for idx, inv in enumerate(invocations):
        spans = [s for s in recorder.spans if s[6] == idx]
        per_inv.append(tracing.invocation_metrics(spans, inv["wall_s"], recorder.absent))
    return {name: (None if per_inv[0][name] is None
                   else statistics.median(m[name] for m in per_inv))
            for name in per_inv[0]}


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--budget", type=float, default=0.0)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", help="where trace mode writes its spans (CSV)")
    args = p.parse_args()

    import lolrec
    import lolrec.cli  # noqa: F401  (part of set-up: the CLI's imports)

    src = Path.cwd() / "src"
    if Path(lolrec.__file__).resolve().parent != (src / "lolrec").resolve():
        sys.exit(f"imported lolrec from {lolrec.__file__}, not from {src}")

    wl = workloads.WORKLOADS[args.workload]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    argv = wl.make_inputs(args.seed, args.size, work)
    result = {"inputs_ready": time.monotonic()}

    if args.mode != "setup":
        recorder = None
        if args.mode == "trace":
            import tracing

            recorder = tracing.Recorder()
            recorder.install(lolrec)
        invocations = closed_loop(wl, args.size, argv, work, args.budget, recorder)
        result.update(invocations=invocations, peak_rss_mb=peak_rss_mb(),
                      environment=environment_record())
        if recorder is not None:
            recorder.uninstall()
            result["layers"] = traced_metrics(recorder, invocations)
            result["absent"] = sorted(recorder.absent)
            if args.spans:
                recorder.write(args.spans)
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
