"""The three benchmark workloads, driven through the program's public surfaces.

Each workload turns a seed into an op list, sets up (several times, so the
set-up time is a median), runs the ops in a closed loop and returns a
:class:`WorkloadRun`: client-side latencies, the canonical payload bytes of
every op and the counters the traced run needs.

``--seconds`` sets how much work a run does, not when it stops: the op
count is derived from it, sized so that a run measures about that long on a
2-vCPU machine.  A fixed op list keeps the mix the same whatever the speed
of the machine or the commit; a time-bounded window would finish fewer of
the expensive early warm-update cycles on a slow run and report a skewed
mean.  Every op of the list runs; the per-request timeouts stop a hung run.
Nothing here imports ``repro`` at module load: the cold workload must not
pay the import before its window, and a checkout without ``src/repro`` must
fail before any run.

* ``cold-cli`` runs ``python -m repro analyze|filter --json`` subprocesses.
* ``warm-sweep`` and ``warm-update`` talk to one ``repro serve`` daemon
  subprocess through :class:`repro.serve.ServeClient`.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

DATASET = "CRE"
SCALE = 0.15
ORDERINGS = ("natural", "high_degree", "low_degree", "rcm")
#: Daemons set up per serve run; ``setup_s`` is the median of their set-ups.
SETUP_REPEATS = 3
#: Work per ``--seconds``: cold-cli rounds (each 3 analyze + 3 filter
#: commands, one per P), sweep misses per daemon, update cycles per daemon.
#: With the default ``--seconds 18`` a run of each workload takes 30-55 s
#: on a 2-vCPU machine, so the full set of runs a benchmark check makes
#: stays well inside its time limit.
COLD_ROUNDS_PER_S = 0.1
SWEEP_MISSES_PER_S = 0.67
UPDATE_CYCLES_PER_S = 0.6
#: cold-cli times a priming command before every this many commands.
COLD_PRIME_EVERY = 4
#: Each daemon replays its misses this many times as cache hits.  A hit
#: takes milliseconds, so fewer rounds would time a fraction of a second.
HIT_ROUNDS = 50
#: Served sweep payloads compared in-process per untraced run.
SWEEP_CHECK_SAMPLE = 4
UPDATE_KINDS = ("add_samples", "add_genes", "add_annotations", "add_terms")
#: Size range of each update kind (inclusive), drawn from the workload seed.
#: These are the sizes the repository documents: the single-row and mixed
#: updates of ``benchmarks/bench_incremental.py`` (1-2 rows of a kind, one
#: term, one sample) and the README's ``--add-samples 1 --add-annotations 3``.
UPDATE_SIZES = {
    "add_samples": (1, 1),
    "add_genes": (1, 2),
    "add_annotations": (1, 3),
    "add_terms": (1, 1),
}
#: The fixed read specs of each warm-update cycle.
UPDATE_CLASSIFY = {"method": "chordal", "ordering": "natural", "partitions": 1}
UPDATE_FILTER = {"method": "chordal", "ordering": "natural", "partitions": 4}


def require_program() -> None:
    """Exit non-zero unless the program's source tree sits next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC}/repro; run from a repo checkout\n")
        raise SystemExit(2)


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_program() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def canonical(payload: Any) -> str:
    """The byte-exact serialisation the CLI prints and the daemon serves."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class Op:
    """One timed request: a CLI command or a served op."""

    kind: str  #: analyze / filter (cold) or classify / enrich / filter / update (served)
    params: dict[str, Any]
    role: str = "main"  #: main / side (the latency metric it feeds), hit or other
    latency: float = 0.0
    payload: Optional[str] = None  #: canonical response bytes (work ops)
    result: Optional[dict[str, Any]] = None  #: parsed response (update ops)
    cached: Optional[bool] = None
    error: Optional[str] = None
    daemon: int = 0  #: which of the run's daemons served it


@dataclass
class WorkloadRun:
    name: str
    seed: int
    setup_times: list[float]
    ops: list[Op]
    window_s: float  #: wall time of the phase ``throughput_ops`` ran in
    throughput_ops: int
    peak_rss_mb: float
    stats: list[dict[str, Any]] = field(default_factory=list)  #: each daemon's final ``stats``
    ping_ms: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def latencies(self, role: str) -> list[float]:
        return [op.latency for op in self.ops if op.role == role and op.error is None]


# ----------------------------------------------------------------------
# cold-cli
# ----------------------------------------------------------------------
def cli_args(op: Op) -> list[str]:
    if op.kind == "datasets":
        return [sys.executable, "-m", "repro", "datasets", "--scale", str(SCALE)]
    p = op.params
    return [
        sys.executable, "-m", "repro", op.kind,
        "--dataset", DATASET, "--scale", str(SCALE),
        "--method", p["method"], "--ordering", p["ordering"],
        "--partitions", str(p["partitions"]), "--json",
    ]


def cold_cli_ops(seed: int, seconds: float) -> list[Op]:
    """Alternating analyze / filter commands over the paper grid.

    Each round runs each command kind once per P in {1, 4, 16}, in a seeded
    order; method and ordering are drawn from the seed.
    """
    rng = random.Random(seed)
    ops = []
    for _ in range(max(1, round(seconds * COLD_ROUNDS_PER_S))):
        orders = {kind: rng.sample((1, 4, 16), 3) for kind in ("analyze", "filter")}
        for k in range(3):
            for kind, role in (("analyze", "main"), ("filter", "side")):
                params = {
                    "method": rng.choice(("chordal", "chordal_comm")),
                    "ordering": rng.choice(ORDERINGS),
                    "partitions": orders[kind][k],
                }
                ops.append(Op(kind, params, role))
    return ops


def _run_cli(op: Op) -> None:
    start = time.perf_counter()
    proc = subprocess.run(
        cli_args(op), cwd=ROOT, env=program_env(), capture_output=True, text=True, timeout=170
    )
    op.latency = time.perf_counter() - start
    if proc.returncode != 0:
        op.error = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    else:
        op.payload = proc.stdout


def run_cold_cli(seed: int, seconds: float) -> WorkloadRun:
    """Set-up is a priming command: ``datasets`` imports everything the timed
    commands import and computes nothing.  One untimed priming loads the
    interpreter and imports into the page cache (and writes the bytecode on
    a fresh checkout); a timed one then precedes every ``COLD_PRIME_EVERY``
    commands, so the ``setup_s`` median samples the whole run, as the
    latencies do.
    """
    def prime() -> float:
        op = Op("datasets", {})
        _run_cli(op)
        if op.error:
            raise RuntimeError(f"priming command failed: {op.error}")
        return op.latency

    prime()
    setup_times = []
    done = cold_cli_ops(seed, seconds)
    for i, op in enumerate(done):
        if i % COLD_PRIME_EVERY == 0:
            setup_times.append(prime())
        _run_cli(op)
    window = sum(op.latency for op in done)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    run = WorkloadRun("cold-cli", seed, setup_times, done, window, len(done), rss_kb / 1024.0)
    run.failures.extend(f"{op.kind} {op.params}: {op.error}" for op in done if op.error)
    return run


def check_cold_cli(run: WorkloadRun) -> None:
    """Compare every command's ``--json`` bytes with the in-process payload."""
    import_program()
    from repro.core.sampling import apply_filter
    from repro.pipeline.workflow import (
        analysis_payload,
        analyze_filter,
        filter_payload,
        prepare_dataset,
    )

    bundle = prepare_dataset(DATASET, scale=SCALE)
    expected: dict[str, str] = {}
    for op in run.ops:
        if op.error is not None:
            continue
        key = canonical([op.kind, op.params])
        if key not in expected:
            p = op.params
            if op.kind == "analyze":
                payload = analysis_payload(
                    analyze_filter(bundle, p["method"], p["ordering"], p["partitions"],
                                   partition_method="block", seed=0)
                )
            else:
                payload = filter_payload(
                    apply_filter(bundle.network, p["method"], p["ordering"], p["partitions"],
                                 partition_method="block", seed=0, backend=None)
                )
            expected[key] = canonical(payload) + "\n"
        if op.payload != expected[key]:
            op.error = "payload differs from the in-process result"
            run.failures.append(f"{op.kind} {op.params}: {op.error}")


# ----------------------------------------------------------------------
# the daemon
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve --preload CRE`` subprocess and a client to it."""

    def __init__(self, workdir: Path, tag: str) -> None:
        self.workdir = workdir
        self.port_file = workdir / f"port-{tag}"
        self.log_file = workdir / f"serve-{tag}.log"
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Spawn, wait for the port file, ping; returns the seconds it took."""
        from repro.serve import ServeClient

        start = time.perf_counter()
        self.port_file.unlink(missing_ok=True)
        with open(self.log_file, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--preload", DATASET,
                 "--scale", str(SCALE), "--port-file", str(self.port_file)],
                cwd=ROOT, env=program_env(), stdout=log, stderr=subprocess.STDOUT,
            )
        while True:
            text = self.port_file.read_text().strip() if self.port_file.exists() else ""
            if text:
                self.port = int(text)
                break
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited during start-up: {self.log_file.read_text()[-500:]}")
            if time.perf_counter() - start > 150:
                raise RuntimeError("daemon did not start within 150 s")
            time.sleep(0.005)
        with ServeClient(port=self.port, timeout=150) as client:
            client.ping()
        return time.perf_counter() - start

    def client(self):
        from repro.serve import ServeClient

        return ServeClient(port=self.port, timeout=170)

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                with self.client() as client:
                    client.result("shutdown")
                self.proc.wait(timeout=60)
        except Exception:  # noqa: BLE001 - a stuck daemon is killed below
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc = None


def on_daemons(workdir: Path, prime: Optional[Op], body: Callable[[int, Daemon], None],
               run: "WorkloadRun") -> None:
    """Set up ``SETUP_REPEATS`` daemons in turn and run ``body`` on each.

    Set-up is spawn → preload → first ping, plus ``prime`` (the first
    process-shm request, which brings the worker pool up) when given.  Each
    daemon serves a share of the window, so a run averages over several
    daemon lifetimes instead of one.
    """
    for i in range(SETUP_REPEATS):
        daemon = Daemon(workdir, str(i))
        try:
            seconds = daemon.start()
            if prime is not None:
                with daemon.client() as client:
                    start = time.perf_counter()
                    client.result(prime.kind, dataset=DATASET, **prime.params)
                    seconds += time.perf_counter() - start
            run.setup_times.append(seconds)
            body(i, daemon)
            with daemon.client() as client:
                for _ in range(20):
                    start = time.perf_counter()
                    client.ping()
                    run.ping_ms.append((time.perf_counter() - start) * 1000.0)
                run.stats.append(client.result("stats"))
            run.peak_rss_mb = max(run.peak_rss_mb, daemon.peak_rss_mb())
        finally:
            daemon.stop()


def served(client, op: Op) -> None:
    """Send one op, timing it client-side and keeping its canonical bytes."""
    from repro.serve import ServeError, ServeTimeout

    start = time.perf_counter()
    try:
        response = client.request(op.kind, dataset=DATASET, **op.params)
    except (ServeError, ServeTimeout, OSError) as err:
        op.error = f"{type(err).__name__}: {err}"
        op.latency = time.perf_counter() - start
        return
    op.latency = time.perf_counter() - start
    if not response.get("ok"):
        error = response.get("error") or {}
        op.error = f"[{error.get('code')}] {error.get('message')}"
        return
    op.cached = response.get("cached")
    op.payload = canonical(response["result"])
    if op.kind == "update":
        op.result = response["result"]


# ----------------------------------------------------------------------
# warm-sweep
# ----------------------------------------------------------------------
def sweep_specs() -> list[Op]:
    """The >= 100 distinct miss specs of the sensitivity sweep (unordered).

    Every miss feeds ``main_mean_s``; the ``enrich`` misses (role ``side``)
    also feed ``side_mean_s``.
    """
    ops = []
    for op, role in (("classify", "main"), ("enrich", "side")):
        extra = {"source": "filtered"} if op == "enrich" else {}
        for parts in (1, 2, 4, 8, 16):
            for method in ("chordal", "chordal_comm"):
                for ordering in ORDERINGS:
                    ops.append(Op(op, {"method": method, "ordering": ordering,
                                       "partitions": parts, **extra}, role))
            for walk_seed in (0, 1):
                ops.append(Op(op, {"method": "random_walk", "partitions": parts,
                                   "seed": walk_seed, **extra}, role))
    for method in ("chordal", "chordal_comm"):
        for ordering in ORDERINGS:
            ops.append(Op("filter", {"method": method, "ordering": ordering,
                                     "partitions": 2, "backend": "process-shm"}, "other"))
    return ops


def sweep_order(seed: int) -> list[Op]:
    """The sweep specs in rounds over fixed (op, method, P) strata.

    Each stratum is shuffled by seed and every round takes the next spec of
    each stratum in a fixed stratum order, so the prefix a run completes has
    the same mix of ops, methods and processor counts on every seed; the
    seed picks orderings and walk seeds.  The stratum order alternates
    classify and enrich, so even a short prefix has both.
    """
    rng = random.Random(seed)
    strata: dict[tuple, list[Op]] = {}
    for op in sweep_specs():
        key = (op.kind, op.params["method"], op.params["partitions"])
        strata.setdefault(key, []).append(op)
    for members in strata.values():
        rng.shuffle(members)
    keys = sorted(strata, key=lambda k: (k[1], k[2], k[0]))  # method, P, op
    order = []
    for i in range(max(len(m) for m in strata.values())):
        order.extend(strata[k][i] for k in keys if i < len(strata[k]))
    return order


#: Brings the process-shm pool up during set-up; not part of the sweep grid.
SWEEP_PRIME = Op("filter", {"method": "chordal", "ordering": "natural", "partitions": 2,
                            "backend": "process-shm", "seed": 7})


def run_warm_sweep(seed: int, seconds: float, workdir: Path) -> WorkloadRun:
    """One closed-loop connection per daemon: misses, then the hit replays.

    Two connections, one per core, were measured first: the daemon served no
    more specs per second, and each request waited for the other.
    """
    import_program()
    run = WorkloadRun("warm-sweep", seed, [], [], 0.0, 0, 0.0)
    order = sweep_order(seed)
    per_daemon = max(1, round(seconds * SWEEP_MISSES_PER_S))
    rng = random.Random(seed + 1)

    def body(index: int, daemon: Daemon) -> None:
        misses = order[index * per_daemon:(index + 1) * per_daemon]
        with daemon.client() as client:
            start = time.perf_counter()
            for op in misses:
                served(client, op)
            run.window_s += time.perf_counter() - start
            replay = [op for op in misses if op.error is None]
            hits = [Op(op.kind, op.params, "hit")
                    for _ in range(HIT_ROUNDS) for op in rng.sample(replay, len(replay))]
            for op in hits:
                served(client, op)
        run.throughput_ops += len(misses)
        expected = {canonical([op.kind, op.params]): op.payload for op in misses}
        for op in hits:
            if op.error is None and op.payload != expected[canonical([op.kind, op.params])]:
                op.error = "hit payload differs from the miss payload"
        for op in misses + hits:
            op.daemon = index
        run.ops.extend(misses + hits)

    on_daemons(workdir, SWEEP_PRIME, body, run)
    for op in run.ops:
        if op.error is not None:
            run.failures.append(f"{op.kind} {op.params}: {op.error}")
    return run


def in_process_state():
    """A warm dataset state built the way the daemon builds it."""
    from repro.serve import ServerState

    server_state = ServerState(SCALE)
    return server_state, server_state.get(DATASET)


def check_warm_sweep(run: WorkloadRun) -> None:
    """Byte-compare a seeded sample of served misses with in-process handlers."""
    from repro.parallel.runner import shutdown_worker_pool
    from repro.parallel.shm import arena_scope
    from repro.serve import HANDLERS, normalize_params

    misses = [op for op in run.ops if op.role != "hit" and op.error is None]
    sample = random.Random(run.seed + 2).sample(misses, min(SWEEP_CHECK_SAMPLE, len(misses)))
    server_state, state = in_process_state()
    try:
        with arena_scope():
            for op in sample:
                params = normalize_params(op.kind, {"dataset": DATASET, **op.params}, SCALE)
                if canonical(HANDLERS[op.kind](state, params)) != op.payload:
                    op.error = "served payload differs from the in-process result"
                    run.failures.append(f"{op.kind} {op.params}: {op.error}")
    finally:
        server_state.close()
        shutdown_worker_pool()


# ----------------------------------------------------------------------
# warm-update
# ----------------------------------------------------------------------
def update_ops(seed: int, cycles: int) -> list[Op]:
    """``cycles`` cycles of update → classify → filter → enrich original."""
    rng = random.Random(seed)
    ops = []
    for cycle in range(cycles):
        kind = UPDATE_KINDS[cycle % len(UPDATE_KINDS)]
        lo, hi = UPDATE_SIZES[kind]
        ops.append(Op("update", {kind: rng.randint(lo, hi), "seed": rng.randrange(1 << 30)}, "main"))
        ops.append(Op("classify", dict(UPDATE_CLASSIFY), "side"))
        ops.append(Op("filter", dict(UPDATE_FILTER), "other"))
        ops.append(Op("enrich", {"source": "original"}, "other"))
    return ops


def run_warm_update(seed: int, seconds: float, workdir: Path) -> WorkloadRun:
    """The same update sequence on each daemon, so every daemon ends in the same state."""
    import_program()
    run = WorkloadRun("warm-update", seed, [], [], 0.0, 0, 0.0)
    cycles = max(1, round(seconds * UPDATE_CYCLES_PER_S))

    def body(index: int, daemon: Daemon) -> None:
        done: list[Op] = []
        with daemon.client() as client:
            start = time.perf_counter()
            for op in update_ops(seed, cycles):
                served(client, op)
                op.daemon = index
                done.append(op)
            run.window_s += time.perf_counter() - start
        run.throughput_ops += len(done)
        run.ops.extend(done)

    on_daemons(workdir, None, body, run)
    for op in run.ops:
        if op.error is not None:
            run.failures.append(f"{op.kind} {op.params}: {op.error}")
    return run


def check_warm_update(run: WorkloadRun) -> None:
    """Every daemon must serve the same bytes for the same op, and the last
    classify all daemons reached must equal the full-rebuild oracle's
    (untimed)."""
    from repro.incremental import UpdateSpec, replay_reference
    from repro.pipeline.workflow import analysis_payload, analyze_filter

    per_daemon: dict[int, list[Op]] = {}
    for op in run.ops:
        per_daemon.setdefault(op.daemon, []).append(op)
    first = per_daemon[0]
    for ops in per_daemon.values():
        for mine, theirs in zip(ops, first):
            if mine.kind != "update" and mine.payload != theirs.payload:
                mine.error = "payload differs between daemons"
                run.failures.append(f"{mine.kind} {mine.params}: {mine.error}")
    reads = [[op for op in ops if op.kind == "classify"] for ops in per_daemon.values()]
    reached = min(len(r) for r in reads)
    specs = [UpdateSpec(**op.params) for op in first if op.kind == "update"][:reached]
    bundle = replay_reference(DATASET, SCALE, None, specs)
    p = UPDATE_CLASSIFY
    expected = canonical(analysis_payload(
        analyze_filter(bundle, p["method"], p["ordering"], p["partitions"],
                       partition_method="block", seed=0, backend=None)
    ))
    for r in reads:
        if r[reached - 1].payload != expected:
            r[reached - 1].error = "final classify differs from incremental.replay_reference"
            run.failures.append(r[reached - 1].error)


# ----------------------------------------------------------------------
WORKLOADS = ("cold-cli", "warm-sweep", "warm-update")


def run_workload(name: str, seed: int, seconds: float) -> WorkloadRun:
    """Set up, run the timed window, tear down; correctness is checked by the caller."""
    workdir = TMP / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if name == "cold-cli":
            return run_cold_cli(seed, seconds)
        if name == "warm-sweep":
            return run_warm_sweep(seed, seconds, workdir)
        if name == "warm-update":
            return run_warm_update(seed, seconds, workdir)
        raise ValueError(f"unknown workload {name!r}; valid: {WORKLOADS}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass


def check_workload(run: WorkloadRun) -> None:
    import_program()
    {"cold-cli": check_cold_cli, "warm-sweep": check_warm_sweep,
     "warm-update": check_warm_update}[run.name](run)


def end_to_end(run: WorkloadRun) -> dict[str, float]:
    """The end-to-end metrics every workload reports (see NOTES.md for roles).

    Latencies are means, not medians: the warm-update ops mix four update
    kinds whose costs differ by 30x, and the median of such a mixture jumps
    between clusters from run to run.
    """
    main = run.latencies("main")
    if run.name == "warm-sweep":
        # Every miss: the classify misses alone (17 a run) spread 0.21 over
        # 10 seeds, more than the enrich misses and the miss rate did.
        main += run.latencies("side") + run.latencies("other")
    return {
        "setup_s": statistics.median(run.setup_times),
        "peak_rss_mb": run.peak_rss_mb,
        "ops_per_s": run.throughput_ops / run.window_s,
        "main_mean_s": statistics.fmean(main),
        "side_mean_s": statistics.fmean(run.latencies("side")),
    }


def tails(run: WorkloadRun) -> dict[str, tuple[float, int]]:
    """Tail latencies the sample supports (>= 10 samples beyond), with counts."""
    out = {}
    for role in ("main", "side", "hit"):
        values = run.latencies(role)
        for q in (99, 95, 90, 75):
            if len(values) * (100 - q) / 100.0 >= 10:
                out[f"{role}_p{q}_s"] = (percentile(values, q), len(values))
                break
    return out
