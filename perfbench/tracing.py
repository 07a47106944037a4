"""The traced run: per-layer timings taken from outside the program.

After an untraced run has recorded each op's client-side latency and payload,
the op list is replayed in-process through the same public calls the CLI
commands and the serve handlers make.  :func:`instrumented` wraps the public
functions of each layer (``repro.expression``, ``repro.ontology``, …) where
their callers look them up, so every call records a span — name, start, end,
parent — on the replaying thread.  Calls on other threads (SPMD ranks, the
enrichment batcher) fall inside the span that waits for them.  Spans stay in
memory and are written out at the end as Chrome trace-event JSON.

A span's self time is its duration minus its children's.  Per op, the named
layers' self times plus ``unattributed`` equal the untraced latency:
``unattributed`` is what the replay does not contain — interpreter start-up
and import for ``cold-cli``, transport, admission and queueing for the warm
workloads.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from workloads import (
    DATASET,
    ROOT,
    SCALE,
    SWEEP_PRIME,
    UPDATE_KINDS,
    WorkloadRun,
    canonical,
    check_warm_update,
    cli_args,
    digest,
    import_program,
    in_process_state,
    program_env,
)

LAYERS = ("expression", "ontology", "graph", "core", "parallel", "clustering",
          "pipeline", "serve", "incremental")
IMPORT_MODULES = ("scipy.stats", "scipy.special", "repro.serve", "repro.parallel",
                  "repro.kernels", "repro.incremental")
FILTER_METHODS = ("chordal", "chordal_comm", "random_walk")
FILTER_PARTS = (1, 2, 4, 8, 16)
UPDATE_COMPONENTS = ("expression", "network", "ontology", "annotations")

ALL = ("cold-cli", "warm-sweep", "warm-update")

#: Which end-to-end metrics each per-layer metric should move, and on which
#: workloads the move should show.  A metric reads 0 on a workload that does
#: not run its layer.  Prefix entries (ending in ".") cover a metric family.
MOVES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    # Start-up and dataset build: per command on cold-cli, in the daemons'
    # preload (so in setup_s) on the warm workloads.
    "import.": (("main_mean_s", "side_mean_s", "setup_s"), ALL),
    "expression.": (("main_mean_s", "side_mean_s", "setup_s"), ALL),
    "ontology.build_s": (("main_mean_s", "setup_s"), ALL),
    "ontology.term_index_s": (("main_mean_s", "setup_s"), ALL),
    "ontology.annotation_index_s": (("main_mean_s", "setup_s"), ALL),
    "ontology.enrich_cold_s": (("main_mean_s",), ("cold-cli",)),
    "ontology.enrich_warm_s": (("side_mean_s", "main_mean_s"), ("warm-update", "warm-sweep")),
    "graph.": (("main_mean_s", "ops_per_s"), ("warm-sweep", "cold-cli")),
    "core.filter_s.": (("main_mean_s", "ops_per_s"), ("warm-sweep", "cold-cli")),
    "core.rank_work_imbalance": (("main_mean_s", "ops_per_s"), ("warm-sweep", "cold-cli")),
    "parallel.pool_spawn_s": (("setup_s",), ("warm-sweep",)),
    "parallel.": (("main_mean_s", "ops_per_s"), ("warm-sweep",)),
    "clustering.mcode_original_s": (("main_mean_s", "setup_s"), ALL),
    "clustering.": (("main_mean_s", "ops_per_s"), ALL),
    "pipeline.payload_s": (("side_mean_s", "main_mean_s"), ALL),
    "serve.": (("side_mean_s", "ops_per_s"), ("warm-sweep", "warm-update")),
    # Hit latency is too noisy on a shared host to gate (see NOTES.md); a
    # faster hit path shows in warm-update, whose filter reads often hit.
    "serve.hit_mean_ms": (("ops_per_s",), ("warm-update",)),
    "incremental.": (("main_mean_s", "ops_per_s"), ("warm-update",)),
    "self_s.": (("main_mean_s", "side_mean_s", "ops_per_s"), ALL),
    "unattributed_s": (("main_mean_s", "side_mean_s"), ALL),
}


def moves(metric: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The ``MOVES`` entry of one per-layer metric (exact name, then longest prefix)."""
    if metric in MOVES:
        return MOVES[metric]
    prefixes = [p for p in MOVES if p.endswith(".") and metric.startswith(p)]
    if not prefixes:
        raise KeyError(f"no MOVES entry for per-layer metric {metric!r}")
    return MOVES[max(prefixes, key=len)]


def per_layer_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = ["import.interpreter_s", "import.repro_s", "import.cli_s"]
    names += [f"import.{m.replace('.', '_')}_s" for m in IMPORT_MODULES]
    names += ["expression.make_study_s", "expression.correlation_s", "expression.csr_s",
              "ontology.build_s", "ontology.term_index_s", "ontology.annotation_index_s",
              "ontology.enrich_cold_s", "ontology.enrich_warm_s",
              "graph.ordering_s", "graph.partition_s"]
    names += [f"core.filter_s.{m}.P{p}" for m in FILTER_METHODS for p in FILTER_PARTS]
    names += ["core.rank_work_imbalance",
              "parallel.pool_spawn_s", "parallel.shm_vs_serial", "parallel.messages",
              "parallel.items", "parallel.bytes", "parallel.retries", "parallel.degrades",
              "clustering.mcode_original_s", "clustering.mcode_filtered_s",
              "clustering.match_s", "clustering.classify_s",
              "pipeline.payload_s",
              "serve.ping_p50_ms", "serve.hit_mean_ms", "serve.overhead_s",
              "serve.cache_hit_ratio",
              "serve.cache_invalidated", "serve.admission_rejected",
              "serve.worker_respawns", "serve.coalesced_per_batch"]
    names += [f"incremental.apply_s.{k}" for k in UPDATE_KINDS]
    names += ["incremental.delta_ratio"]
    names += [f"incremental.dirty.{c}" for c in UPDATE_COMPONENTS]
    names += [f"self_s.{layer}" for layer in LAYERS] + ["unattributed_s"]
    return names


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    root: int = 0  #: index of the outermost span around this one
    op: Optional[int] = None  #: index into the run's ops; None for set-up and probes
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Span recorder for the replaying thread; other threads pass through."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.thread = threading.get_ident()
        self._stack: list[int] = []
        self._op: Optional[int] = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Optional[Span]]:
        if threading.get_ident() != self.thread:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        root = self.spans[parent].root if parent is not None else len(self.spans)
        record = Span(name, time.perf_counter(), parent=parent, root=root, op=self._op, attrs=attrs)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def op(self, index: Optional[int], name: str = "op") -> Iterator[Optional[Span]]:
        """A root span; the spans opened inside it belong to op ``index``."""
        self._op = index
        try:
            with self.span(name, op=index) as record:
                yield record
        finally:
            self._op = None

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def chrome_trace(self) -> dict[str, Any]:
        base = min((s.start for s in self.spans), default=0.0)
        events = [
            {"name": s.name, "cat": s.layer, "ph": "X", "pid": 1, "tid": 1,
             "ts": round((s.start - base) * 1e6, 3), "dur": round(s.duration * 1e6, 3),
             "args": {k: v for k, v in s.attrs.items() if isinstance(v, (int, float, str))}}
            for s in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _filter_attrs(args: tuple, kwargs: dict) -> dict[str, Any]:
    method = kwargs.get("method", args[1] if len(args) > 1 else "chordal")
    parts = kwargs.get("n_partitions", args[3] if len(args) > 3 else 1)
    return {"method": method, "parts": parts, "backend": kwargs.get("backend") or "default"}


def _filter_result(span: Span, result: Any) -> None:
    work = [w.edges_examined for w in result.rank_work]
    if len(work) > 1 and sum(work):
        span.attrs["imbalance"] = max(work) / (sum(work) / len(work))


#: (module, qualified name, span name, attrs from call, hook on result).
TARGETS: list[tuple[str, str, str, Optional[Callable], Optional[Callable]]] = [
    ("repro.expression.datasets", "make_study", "expression.make_study", None, None),
    ("repro.expression.datasets", "SyntheticStudy.network", "expression.correlation", None, None),
    ("repro.expression.datasets", "SyntheticStudy.network_csr", "expression.csr", None, None),
    ("repro.expression.correlation", "correlated_pair_arrays", "expression.pairs", None, None),
    ("repro.expression.correlation", "correlated_pair_arrays_delta", "expression.pairs", None, None),
    ("repro.ontology.generator", "make_study_ontology", "ontology.build", None, None),
    ("repro.ontology.go_dag", "GODag.term_index", "ontology.term_index",
     lambda a, k: {"obj": id(a[0])}, None),
    ("repro.ontology.annotation", "AnnotationTable.indexed", "ontology.annotation_index",
     lambda a, k: {"obj": id(a[0])}, None),
    ("repro.ontology.enrichment", "EnrichmentScorer.cluster_aees", "ontology.enrich",
     lambda a, k: {"obj": id(a[0])}, None),
    ("repro.serve.coalesce", "EnrichmentBatcher.score", "ontology.enrich",
     lambda a, k: {"obj": id(a[0])}, None),
    ("repro.graph.ordering", "ordering_indices", "graph.ordering", None, None),
    ("repro.graph.partition", "block_partition_indices", "graph.partition", None, None),
    ("repro.graph.partition", "bfs_partition_indices", "graph.partition", None, None),
    ("repro.graph.partition", "hash_partition_indices", "graph.partition", None, None),
    ("repro.graph.partition", "greedy_partition_indices", "graph.partition", None, None),
    ("repro.core.sampling", "apply_filter", "core.filter", _filter_attrs, _filter_result),
    ("repro.parallel.runner", "run_spmd", "parallel.spmd", None, None),
    ("repro.parallel.runner", "parallel_map", "parallel.map", None, None),
    ("repro.clustering.mcode", "mcode_clusters", "clustering.mcode",
     lambda a, k: {"original": str(k.get("source", "")).endswith("/original")}, None),
    ("repro.clustering.overlap", "match_and_lost_clusters", "clustering.match", None, None),
    ("repro.clustering.evaluation", "classify_matches", "clustering.classify", None, None),
    ("repro.pipeline.workflow", "prepare_dataset", "pipeline.prepare", None, None),
    ("repro.pipeline.workflow", "analyze_filter", "pipeline.analyze", None, None),
    ("repro.pipeline.workflow", "analysis_payload", "pipeline.payload", None, None),
    ("repro.pipeline.workflow", "filter_payload", "pipeline.payload", None, None),
    ("repro.pipeline.workflow", "enrichment_payload", "pipeline.payload", None, None),
    ("repro.serve.handlers", "normalize_params", "serve.normalize", None, None),
    ("repro.serve.handlers", "normalize_update_params", "serve.normalize", None, None),
    ("repro.serve.protocol", "spec_hash", "serve.spec_hash", None, None),
    ("repro.serve.cache", "ResultCache.get", "serve.cache", None, None),
    ("repro.serve.cache", "ResultCache.put", "serve.cache", None, None),
    ("repro.serve.state", "ServerState.update", "serve.update", None, None),
    ("repro.incremental", "apply_update", "incremental.apply",
     lambda a, k: {"kind": next(n for n in UPDATE_KINDS if getattr(a[1], n))}, None),
]

#: Imported before patching, so every module that binds a target is patched.
_CALLERS = ("repro.cli", "repro.serve", "repro.incremental", "repro.pipeline.workflow")


def _wrap(tracer: Tracer, name: str, fn: Callable, attrs_of, on_result) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        attrs = attrs_of(args, kwargs) if attrs_of is not None else {}
        with tracer.span(name, **attrs) as span:
            result = fn(*args, **kwargs)
            if span is not None and on_result is not None:
                on_result(span, result)
            return result

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    wrapper.__module__ = getattr(fn, "__module__", __name__)
    return wrapper


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Wrap every ``TARGETS`` function in every module binding it; undo on exit."""
    import_program()
    for module in _CALLERS:
        importlib.import_module(module)
    undo: list[tuple[Any, str, Any]] = []
    try:
        for module_name, qualname, span_name, attrs_of, on_result in TARGETS:
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, _wrap(tracer, span_name, original, attrs_of, on_result))
                continue
            original = getattr(module, qualname)
            wrapper = _wrap(tracer, span_name, original, attrs_of, on_result)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("repro") or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# replays
# ----------------------------------------------------------------------
def replay_cold_cli(run: WorkloadRun, tracer: Tracer) -> dict[int, str]:
    """Each command through ``repro.cli.main`` in-process; returns payload digests."""
    from repro import cli

    digests = {}
    for i, op in enumerate(run.ops):
        if op.error is not None:
            continue
        out = io.StringIO()
        with tracer.op(i), contextlib.redirect_stdout(out):
            code = cli.main(cli_args(op)[3:])
        if code != 0:
            raise RuntimeError(f"in-process {op.kind} exited {code}")
        digests[i] = digest(out.getvalue())
    return digests


def replay_served(run: WorkloadRun, tracer: Tracer, probes: dict[str, list[float]]) -> dict[int, str]:
    """Each served op through the serve handlers, cache and update path in-process."""
    from repro.core.sampling import apply_filter
    from repro.parallel.runner import shutdown_worker_pool
    from repro.parallel.shm import arena_scope
    from repro.serve import ResultCache

    digests: dict[int, str] = {}
    shm_specs = any(op.params.get("backend") == "process-shm" for op in run.ops)
    with arena_scope():
        try:
            for daemon in sorted({op.daemon for op in run.ops}):
                # A fresh warm state and cache per daemon, as each daemon had.
                with tracer.op(None, "setup"):
                    server_state, state = in_process_state()
                cache = ResultCache(256)
                try:
                    if shm_specs and "pool_spawn_s" not in probes:
                        network = state.bundle.network
                        p = SWEEP_PRIME.params
                        first, again = (_timed(lambda: apply_filter(
                            network, p["method"], p["ordering"], p["partitions"], seed=p["seed"],
                            backend=p["backend"])) for _ in range(2))
                        probes["pool_spawn_s"] = [first - again]
                    for i, op in enumerate(run.ops):
                        if op.daemon == daemon and op.error is None:
                            digests[i] = _replay_op(op, i, tracer, server_state, state, cache, probes)
                finally:
                    server_state.close()
        finally:
            shutdown_worker_pool()
    return digests


def _replay_op(op, i, tracer, server_state, state, cache, probes) -> str:
    """One served op in-process: serve's normalise → cache → handler path."""
    from repro.core.sampling import apply_filter
    from repro.incremental import UpdateSpec
    from repro.serve import HANDLERS, normalize_params, spec_hash
    from repro.serve.handlers import normalize_update_params

    params = {"dataset": DATASET, **op.params}
    with tracer.op(i):
        if op.kind == "update":
            normalized = normalize_update_params(params, SCALE)
            report = server_state.update(state, UpdateSpec(
                **{k: normalized[k] for k in UPDATE_KINDS}, seed=normalized["seed"]))
            text = canonical({"mode": report.mode, "dirty": sorted(report.dirty)})
            served = canonical({"mode": op.result["mode"], "dirty": op.result["dirty"]})
            return digest(text) if served == text else "mismatch"
        normalized = normalize_params(op.kind, params, SCALE)
        key = spec_hash(op.kind, normalized)
        token = state.cache_token(op.kind)
        payload = cache.get(key, token)
        if payload is None:
            payload = HANDLERS[op.kind](state, normalized)
            cache.put(key, state.key, token, payload)
        with tracer.span("pipeline.payload"):
            text = canonical(payload)
    if op.params.get("backend") == "process-shm" and not op.cached:
        p = op.params
        serial = _timed(lambda: apply_filter(state.bundle.network, p["method"], p["ordering"],
                                             p["partitions"], backend="serial"))
        shm = next(s.duration for s in tracer.spans if s.op == i and s.name == "core.filter")
        probes.setdefault("shm_vs_serial", []).append(shm / serial)
    return digest(text)


def _timed(fn: Callable[[], Any]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def import_times() -> dict[str, float]:
    """Interpreter start-up, then the ``-X importtime`` cumulative times of
    ``repro``, of what ``repro.cli`` adds to it and of the heavy modules."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=program_env(), check=True)
        samples.append(time.perf_counter() - start)
    # scipy.stats loads lazily through scipy's module __getattr__, which
    # -X importtime does not report, so it gets its own interpreter.
    cumulative = {}
    for code in ("import scipy.stats", "import repro.cli, repro.serve, repro.incremental"):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            cwd=ROOT, env=program_env(), capture_output=True, text=True, check=True,
        )
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
            if m:
                cumulative.setdefault(m.group(2), int(m.group(1)) / 1e6)
    out = {
        "import.interpreter_s": statistics.median(samples),
        "import.repro_s": cumulative["repro"],
        "import.cli_s": cumulative["repro.cli"] - cumulative["repro"],
    }
    for module in IMPORT_MODULES:
        out[f"import.{module.replace('.', '_')}_s"] = cumulative.get(module, 0.0)
    return out


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(run: WorkloadRun, tracer: Tracer, probes: dict[str, list[float]],
              imports: dict[str, float]) -> tuple[dict[str, float], list[dict[str, Any]]]:
    """Per-layer metrics and the per-op decomposition of the untraced latency."""
    spans = tracer.spans
    self_time = tracer.self_times()
    ops = sorted({s.op for s in spans if s.op is not None})
    by_op: dict[int, list[int]] = {i: [] for i in ops}
    for idx, s in enumerate(spans):
        if s.op is not None:
            by_op[s.op].append(idx)

    # Cache hits run no layer below serve: per-op figures cover the other
    # ops, plus the replayed daemon preloads (set-up roots) for the build
    # layers a warm op never reaches.
    units: dict[int, list[int]] = {}
    for idx, s in enumerate(spans):
        root = spans[s.root]
        if root.name == "setup" or (root.op is not None and not run.ops[root.op].cached):
            units.setdefault(s.root, []).append(idx)

    def per_op_sum(pred: Callable[[Span], bool]) -> list[float]:
        sums = [sum(spans[j].duration for j in members if pred(spans[j])) for members in units.values()]
        return [v for v in sums if v > 0]

    def first_calls(name: str) -> tuple[list[float], list[float]]:
        """Durations of the first call on each object, and of the later ones."""
        seen: set[int] = set()
        first, later = [], []
        for s in spans:
            if s.name == name and (s.parent is None or spans[s.parent].name != name) \
                    and spans[s.root].name in ("op", "setup"):
                (later if s.attrs["obj"] in seen else first).append(s.duration)
                seen.add(s.attrs["obj"])
        return first, later

    def named(name: str, **attrs: Any) -> float:
        return _median(per_op_sum(lambda s: s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())))

    m: dict[str, float] = {name: 0.0 for name in per_layer_names()}
    m.update(imports)
    m["expression.make_study_s"] = named("expression.make_study")
    m["expression.correlation_s"] = named("expression.correlation")
    m["expression.csr_s"] = named("expression.csr")
    m["ontology.build_s"] = named("ontology.build")
    m["ontology.term_index_s"] = _median(first_calls("ontology.term_index")[0])
    m["ontology.annotation_index_s"] = _median(first_calls("ontology.annotation_index")[0])
    cold, warm = first_calls("ontology.enrich")
    m["ontology.enrich_cold_s"] = _median(cold)
    m["ontology.enrich_warm_s"] = _median(warm)
    m["graph.ordering_s"] = named("graph.ordering")
    m["graph.partition_s"] = named("graph.partition")
    filters = [s for s in spans if s.name == "core.filter" and s.op is not None
               and s.attrs.get("backend") != "process-shm"]
    for method in FILTER_METHODS:
        for parts in FILTER_PARTS:
            m[f"core.filter_s.{method}.P{parts}"] = _median(
                [s.duration for s in filters if s.attrs["method"] == method and s.attrs["parts"] == parts])
    m["core.rank_work_imbalance"] = _median([s.attrs["imbalance"] for s in filters if "imbalance" in s.attrs])
    m["parallel.pool_spawn_s"] = _median(probes.get("pool_spawn_s", []))
    m["parallel.shm_vs_serial"] = _median(probes.get("shm_vs_serial", []))
    comm = probes.get("comm", [])
    if comm:
        m["parallel.messages"], m["parallel.items"], m["parallel.bytes"] = comm
    m["parallel.retries"] = float(sum(st["supervision"]["retries"] for st in run.stats))
    m["parallel.degrades"] = float(sum(st["supervision"]["degrades"] for st in run.stats))
    m["clustering.mcode_original_s"] = named("clustering.mcode", original=True)
    m["clustering.mcode_filtered_s"] = named("clustering.mcode", original=False)
    m["clustering.match_s"] = named("clustering.match")
    m["clustering.classify_s"] = named("clustering.classify")
    m["pipeline.payload_s"] = _median(per_op_sum(
        lambda s: s.name == "pipeline.payload"
        and (s.parent is None or spans[s.parent].name != "pipeline.payload")))

    decomposition = []
    for i in ops:
        op = run.ops[i]
        layers = {layer: 0.0 for layer in LAYERS}
        for j in by_op[i]:
            if spans[j].layer in layers:
                layers[spans[j].layer] += self_time[j]
        root = next(spans[j] for j in by_op[i] if spans[j].parent is None)
        decomposition.append({
            "op": i, "kind": op.kind, "cached": bool(op.cached), "latency_s": op.latency,
            "replay_s": root.duration, "self_s": layers,
            "unattributed_s": op.latency - sum(layers.values()),
        })
    worked = [d for d in decomposition if not d["cached"]]
    for layer in LAYERS:
        m[f"self_s.{layer}"] = statistics.fmean([d["self_s"][layer] for d in worked]) if worked else 0.0
    m["unattributed_s"] = statistics.fmean([d["unattributed_s"] for d in worked]) if worked else 0.0

    if run.stats:
        m["serve.ping_p50_ms"] = _median(run.ping_ms)
        hits = [op.latency * 1000.0 for op in run.ops if op.cached and op.error is None]
        m["serve.hit_mean_ms"] = statistics.fmean(hits) if hits else 0.0
        m["serve.overhead_s"] = _median([d["latency_s"] - d["replay_s"] for d in worked])
        def total(section: str, key: str) -> float:
            return float(sum(st[section][key] for st in run.stats))

        lookups = total("cache", "hits") + total("cache", "misses")
        m["serve.cache_hit_ratio"] = total("cache", "hits") / lookups if lookups else 0.0
        m["serve.cache_invalidated"] = total("cache", "invalidated")
        m["serve.admission_rejected"] = total("admission", "rejected")
        m["serve.worker_respawns"] = total("admission", "worker_respawns")
        if total("enrichment", "batches"):
            m["serve.coalesced_per_batch"] = (
                total("enrichment", "coalesced_requests") / total("enrichment", "batches"))
    updates = [op for op in run.ops if op.kind == "update" and op.result is not None]
    for kind in UPDATE_KINDS:
        m[f"incremental.apply_s.{kind}"] = _median(
            [s.duration for s in spans if s.name == "incremental.apply" and s.attrs["kind"] == kind])
    if updates:
        m["incremental.delta_ratio"] = sum(op.result["mode"] == "delta" for op in updates) / len(updates)
        for component in UPDATE_COMPONENTS:
            m[f"incremental.dirty.{component}"] = float(
                sum(component in op.result["dirty"] for op in updates))
    return m, decomposition


def traced_run(run: WorkloadRun) -> tuple[dict[str, float], list[dict[str, Any]], Tracer]:
    """Replay ``run`` in-process with spans; digests must match the untraced run's."""
    import_program()
    from repro.parallel.runner import comm_counters

    tracer = Tracer()
    probes: dict[str, list[float]] = {}
    before = comm_counters()
    with instrumented(tracer):
        if run.name == "cold-cli":
            digests = replay_cold_cli(run, tracer)
        else:
            digests = replay_served(run, tracer, probes)
    after = comm_counters()
    worked = max(1, sum(1 for op in run.ops if op.kind != "update" and not op.cached))
    probes["comm"] = [(after[k] - before[k]) / worked
                      for k in ("messages_sent", "items_sent", "bytes_sent")]
    for i, value in digests.items():
        op = run.ops[i]
        expected = digest(op.payload) if op.kind != "update" else value
        if value != expected or value == "mismatch":
            op.error = "traced replay payload differs from the untraced run"
            run.failures.append(f"{op.kind} {op.params}: {op.error}")
    if run.name == "warm-update":
        check_warm_update(run)
    imports = import_times()
    metrics, decomposition = per_layer(run, tracer, probes, imports)
    return metrics, decomposition, tracer


def write_trace(tracer: Tracer, path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(tracer.chrome_trace()))
