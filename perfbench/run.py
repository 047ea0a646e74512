"""lolrec benchmark: run one workload from outside the program and report its
metrics.

    python3 perfbench/run.py --workload denoise --seed 7 --seconds 55 --trace 0

Run it from the root of a lolrec source tree; the program is imported from
./src.  Each measuring process is a fresh interpreter with the workload's
thread settings set before numpy loads (see worker.py); it calls
`lolrec.cli.main` one invocation at a time and checks every invocation's
artifacts.  With --trace 0 the report gives the end-to-end metrics; with
--trace 1 it gives the per-layer metrics from a traced run, next to an
untraced run and a single-thread run of the same workload.

The report goes to standard output; its last line is one JSON object with
the keys correct, attempted, failed and metrics.  Scratch files live under
./.perfbench_work, and a copy of each report is kept there in reports/.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

SETUP_SAMPLES = 7
DEADLINE_S = 170  # a run must end within 180 s

# name -> (unit, better).  Timings are medians over the invocations of a run.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("CPU-s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "error_rate": ("fraction", "lower"),
    "zeta": ("fraction", "higher"),
    "zeta_latlrr": ("fraction", "higher"),
    "offblock": ("fraction", "lower"),
}
# The end-to-end metrics in the result line: those every workload has and
# none reads 0.  error_rate is the line's failed / attempted, and the quality
# metrics are part of each invocation's check.
RESULT_METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")

RUN_METRICS = {
    "untraced.wall_s": ("s", "lower"),
    "single_thread.wall_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead": ("fraction", "lower"),
}


def per_layer_specs():
    return {**tracing.metric_specs(), **RUN_METRICS}


class BenchError(Exception):
    pass


class Runner:
    """Starts worker processes for one workload and collects their results."""

    def __init__(self, root, workload, seed, size):
        self.root = root
        self.wl = workloads.WORKLOADS[workload]
        self.seed = seed
        self.size = size
        self.work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.deadline = time.monotonic() + DEADLINE_S
        self.children = 0

    def env(self, overrides):
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        for key, value in overrides.items():
            if value is None:
                env.pop(key, None)
            else:
                env[key] = value
        return env

    def child(self, mode, overrides, budget=0.0, spans=None):
        """Run worker.py once; returns its result with `setup_s` added."""
        self.children += 1
        tag = f"{mode}{self.children}"
        result_path = self.work / f"{tag}.json"
        cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
               "--workload", self.wl.name, "--seed", str(self.seed), "--size", self.size,
               "--mode", mode, "--budget", str(budget), "--work", str(self.work / tag),
               "--result", str(result_path)]
        if spans:
            cmd += ["--spans", str(spans)]
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env(overrides), cwd=self.root,
                                  stdout=sys.stderr, timeout=self.deadline - started)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{tag} did not finish before the deadline") from exc
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(f"{tag} exited with code {proc.returncode}")
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["inputs_ready"] - started
        return result


def median_of(invocations, key):
    return statistics.median(i[key] for i in invocations)


def failures(invocations):
    return sum(1 for i in invocations if i["problems"])


def end_to_end(runner, seconds):
    """Untraced: several set-ups, then the closed loop in the last process."""
    env = runner.wl.env()
    setups = [runner.child("setup", env)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    res = runner.child("measure", env, budget=seconds)
    setups.append(res["setup_s"])
    invs = res["invocations"]
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (median_of(invs, "wall_s"), len(invs)),
        "cpu_s": (median_of(invs, "cpu_s"), len(invs)),
        "peak_rss_mb": (res["peak_rss_mb"], 1),
        "error_rate": (failures(invs) / len(invs), len(invs)),
    }
    found = invs[0]["found"]
    for name in runner.wl.quality_bounds[runner.size]:
        if name in found:
            values[name] = (found[name], len(invs))
    return values, invs, res["environment"], []


def per_layer(runner, seconds, spans_path):
    """Traced run, plus an untraced and a single-thread run for comparison."""
    env, share = runner.wl.env(), seconds / 3
    plain = runner.child("measure", env, budget=share)
    traced = runner.child("trace", env, budget=share, spans=spans_path)
    single = runner.child("measure", workloads.pinned_env(1), budget=share)
    wall = median_of(plain["invocations"], "wall_s")
    traced_wall = median_of(traced["invocations"], "wall_s")
    values = {name: (value, len(traced["invocations"]))
              for name, value in traced["layers"].items()}
    values.update({
        "untraced.wall_s": (wall, len(plain["invocations"])),
        "single_thread.wall_s": (median_of(single["invocations"], "wall_s"),
                                 len(single["invocations"])),
        "trace.wall_s": (traced_wall, len(traced["invocations"])),
        "trace.overhead": (traced_wall / wall - 1.0, len(traced["invocations"])),
    })
    invs = plain["invocations"] + traced["invocations"] + single["invocations"]
    return values, invs, traced["environment"], traced["absent"]


def git_commit(root):
    """HEAD of `root` when it is a git checkout; git does not look above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def report(args, values, specs, invs, environment, absent):
    """Print the human-readable report, then the result line."""
    failed = failures(invs)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}: "
          f"closed loop, one client, {len(invs)} invocations, {failed} failed")
    for name, (unit, better) in specs.items():
        if name not in values:
            continue
        value, n = values[name]
        shown = "absent" if value is None else f"{value:.6g}"
        base = f", of {tracing.SHARE_BASE}" if name.endswith("_share") else ""
        print(f"  {name:34s} {shown:>12s} {unit:8s} {better} is better  (n={n}{base})")
    for inv in invs:
        for problem in inv["problems"]:
            print(f"  FAILED CHECK: {problem}")
    if absent:
        print(f"  absent wrappers: {', '.join(absent)}")
    print("environment: " + json.dumps(environment, sort_keys=True))
    names = RESULT_METRICS if args.trace == 0 else list(specs)
    metrics = {}
    for name in names:
        value, _ = values.get(name, (None, 0))
        entry = {"value": value, "unit": specs[name][0]}
        if value is None:
            entry["absent"] = True
        metrics[name] = entry
    line = {"correct": failed == 0, "attempted": len(invs), "failed": failed,
            "metrics": metrics}
    print(json.dumps(line))
    return line


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shapes are for the benchmark's self-test")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lolrec" / "cli.py").is_file():
        print("error: run from the root of a lolrec source tree (no src/lolrec/cli.py here)",
              file=sys.stderr)
        return 2

    # On SIGTERM, unwind: subprocess.run then kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    runner = Runner(root, args.workload, args.seed, args.size)
    state = root / ".perfbench_work"
    for sub in ("reports", "traces"):
        (state / sub).mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    load_before = os.getloadavg()[0]
    try:
        if args.trace:
            values, invs, environment, absent = per_layer(
                runner, args.seconds, state / "traces" / f"{args.workload}-seed{args.seed}.csv")
            specs = per_layer_specs()
        else:
            values, invs, environment, absent = end_to_end(runner, args.seconds)
            specs = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    environment.update(git_commit=git_commit(root), loadavg_1m_before=load_before,
                       loadavg_1m_after=os.getloadavg()[0])
    line = report(args, values, specs, invs, environment, absent)
    (state / "reports" / f"{stem}.json").write_text(json.dumps(
        {"result": line, "values": values, "environment": environment,
         "invocations": [{k: i[k] for k in ("wall_s", "cpu_s", "problems")} for i in invs]},
        indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
