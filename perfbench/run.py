"""The repository's end-to-end benchmark (see NOTES.md and BENCHMARK.json).

One run of one workload::

    python3 perfbench/run.py --workload cold-cli --seed 1 --seconds 18 --trace 0

prints a readable report, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics of the traced replay with
``--trace 1``.  It exits 1 when any payload is wrong.

Every workload, untraced then traced, every metric with its unit::

    python3 perfbench/run.py --workload all

Steadiness (N runs on seeds S..S+N-1, each metric's median, quartiles and
spread against its bound)::

    python3 perfbench/run.py --workload warm-sweep --steady 10
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import workloads
from workloads import ROOT, WORKLOADS

SPEC_FILE = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench_out"

#: What ``main`` / ``side`` / ``ops_per_s`` mean on each workload.
ROLES = {
    "cold-cli": {"main": "cold analyze command", "side": "cold filter command",
                 "ops": "commands completed / time spent in them"},
    "warm-sweep": {"main": "miss (every distinct spec)", "side": "enrich (source=filtered) miss",
                   "ops": "distinct specs completed / miss-phase wall",
                   "hit": "cache hit (per-layer serve.hit_mean_ms, not an end-to-end metric)"},
    "warm-update": {"main": "update", "side": "classify right after an update",
                    "ops": "ops completed / window"},
}


def load_spec() -> dict[str, Any]:
    return json.loads(SPEC_FILE.read_text())


def environment(name: str, seed: int) -> dict[str, Any]:
    """What the figures depend on besides the code: never compare across these silently."""
    import numpy
    import scipy

    workloads.import_program()
    from repro.kernels import kernel_tier_info

    tiers = kernel_tier_info()
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(), "machine": platform.machine(),
        "kernel_tier": tiers["active"], "jit_available": tiers["jit_available"],
        "dataset": workloads.DATASET, "scale": workloads.SCALE, "workload": name,
        "seed": seed, "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in load_spec()[section]}


def run_once(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict[str, Any], bool]:
    """One run; prints the report and returns (result object, correct)."""
    run = workloads.run_workload(name, seed, seconds)
    if trace:
        import tracing

        metrics, decomposition, tracer = tracing.traced_run(run)
        trace_file = OUT / f"trace-{name}-seed{seed}.json"
        tracing.write_trace(tracer, trace_file)
        (OUT / f"decomposition-{name}-seed{seed}.json").write_text(json.dumps(decomposition, indent=1))
        section = "per_layer"
    else:
        workloads.check_workload(run)
        metrics = workloads.end_to_end(run)
        section = "end_to_end"
    attempted = len(run.ops)
    failed = sum(op.error is not None for op in run.ops)
    correct = not run.failures
    print(f"env {json.dumps(environment(name, seed), sort_keys=True)}")
    for role, meaning in ROLES[name].items():
        print(f"role {role}: {meaning}")
    print(f"samples main={len(run.latencies('main'))} side={len(run.latencies('side'))} "
          f"setups={len(run.setup_times)}")
    for metric, (value, n) in workloads.tails(run).items():
        print(f"tail {metric} = {value:.6f} s (n={n})")
    print(f"failed_ratio = {failed / max(attempted, 1):.4f} ({failed} of {attempted})")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    if trace:
        print(f"trace written to {trace_file.relative_to(ROOT)}")
    unit = units(section)
    for metric, value in metrics.items():
        print(f"{section} {metric} = {value:.6g} {unit[metric]}")
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }
    return result, correct


def steady(name: str, first_seed: int, runs: int, seconds: float, trace: int) -> int:
    """Repeat one workload on ``runs`` seeds (fresh processes) and report spreads."""
    spec = load_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(first_seed, first_seed + runs):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for metric, entry in result["metrics"].items():
            values.setdefault(metric, []).append(entry["value"])
    worst = 0
    summary = {}
    for metric, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(metric)
        status = ""
        if bound is not None:
            status = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "OVER")
            if status == "OVER":
                worst = 1
        summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
        print(f"{metric:32s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"spread={spread:.3f} bound={bound} {status}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"steady-{name}-seed{first_seed}-trace{trace}.json").write_text(json.dumps(summary, indent=1))
    return worst


#: ``prctl`` option that makes orphaned descendants children of this process.
PR_SET_CHILD_SUBREAPER = 36
#: How long the children still running at exit may take to end before they are killed.
CHILD_GRACE_S = 20.0


def adopt_orphans() -> None:
    """Become the reaper of every descendant orphaned during the run (Linux).

    A daemon's worker pool and resource tracker outlive the daemon by a few
    milliseconds; as our children they can be waited for by
    :func:`stop_children` instead of lingering after the benchmark exits.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def live_children() -> list[int]:
    """Pids of this process's children that have not exited yet."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            state, ppid = (entry / "stat").read_text().rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError):
            continue
        if int(ppid) == me and state != "Z":
            pids.append(int(entry.name))
    return pids


def reap_exited() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    The in-process checks and the traced replay may have brought up a
    worker pool and the multiprocessing resource tracker in this process;
    both are shut down first.  Any child still running after
    ``CHILD_GRACE_S`` is killed.
    """
    if "repro.parallel.runner" in sys.modules:
        sys.modules["repro.parallel.runner"].shutdown_worker_pool()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + CHILD_GRACE_S
    while True:
        reap_exited()
        alive = live_children()
        if not alive:
            return
        if time.monotonic() > deadline:
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


def main(argv: list[str] | None = None) -> int:
    adopt_orphans()
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (first seed with --steady)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="repeat the workload N times and report each metric's spread")
    args = parser.parse_args(argv)
    workloads.require_program()
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.steady:
        return steady(args.workload, args.seed, args.steady, seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        ok = True
        for name in WORKLOADS:
            for trace in (False, True):
                print(f"== {name} trace={int(trace)}", flush=True)
                _, correct = run_once(name, args.seed, seconds, trace)
                ok = ok and correct
        return 0 if ok else 1
    result, correct = run_once(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
