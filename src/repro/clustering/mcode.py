"""MCODE clustering (Bader & Hogue 2003), the algorithm behind AllegroMCODE.

The paper identifies clusters with AllegroMCODE 1.0 under default parameters
and keeps every cluster scoring 3.0 or higher.  AllegroMCODE is a
GPU-accelerated port of MCODE, so the clusters it reports are MCODE clusters;
this module reimplements the original three-stage algorithm:

1. **Vertex weighting** — for every vertex the highest *k*-core of its open
   neighbourhood is found; the vertex weight is ``k × density`` of that core
   (the "core-clustering coefficient" scaled by the core number).
2. **Complex prediction** — complexes are seeded from the highest-weighted
   unvisited vertex and grown outward over vertices whose weight is within
   ``vertex_weight_percentage`` of the seed's weight.
3. **Post-processing** — optional *haircut* (iteratively strip singly
   connected vertices) and *fluff* (add dense neighbours), plus the 2-core
   requirement; complexes are scored ``density × size`` and returned sorted by
   score.

Defaults match the published MCODE defaults (haircut on, fluff off,
VWP = 0.2), which is what "run under default parameters" means.

Since PR 3 the public functions run **index-native on the CSR kernel**: the
graph is converted once (:class:`~repro.graph.csr.CSRGraph`), stage 1 computes
neighbourhood core numbers by bucketless min-degree peeling over integer
adjacency rows, stages 2–3 grow and prune complexes as index sets, and labels
reappear only when the final :class:`Cluster` objects are materialised.  The
seed label-level implementations are retained as ``reference_*`` functions and
the test suite pins cluster member sets, scores and ordering to them
bit-for-bit (``tests/test_csr_analysis.py``), the same discipline PR 1–2
applied to the chordality kernels and the sampler pipeline.
"""

from __future__ import annotations

import heapq
from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.graph import Graph
from ..kernels import jit_impl, resolve_kernels
from .cluster import Cluster

__all__ = [
    "MCODEParams",
    "mcode_vertex_weights",
    "mcode_clusters",
    "mcode_score",
    "k_core",
    "highest_k_core",
    "core_numbers_indices",
    "mcode_vertex_weights_indices",
    "mcode_clusters_indices",
    "IndexComplex",
    "reference_k_core",
    "reference_highest_k_core",
    "reference_mcode_vertex_weights",
    "reference_mcode_clusters",
]

Vertex = Hashable


@dataclass(frozen=True)
class MCODEParams:
    """MCODE tuning knobs (defaults follow Bader & Hogue / AllegroMCODE 1.0)."""

    vertex_weight_percentage: float = 0.2
    haircut: bool = True
    fluff: bool = False
    fluff_density_threshold: float = 0.5
    min_score: float = 3.0
    min_size: int = 3
    require_two_core: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.vertex_weight_percentage <= 1.0:
            raise ValueError("vertex_weight_percentage must lie in [0, 1]")
        if self.min_size < 1:
            raise ValueError("min_size must be >= 1")


@dataclass(frozen=True)
class IndexComplex:
    """One MCODE complex on vertex indices (pre-materialisation form)."""

    seed: int
    members: tuple[int, ...]
    score: float


# ----------------------------------------------------------------------
# CSR-native kernels
# ----------------------------------------------------------------------
def _peel_subset(
    row_sets: list[set[int]], members: Sequence[int], k: int
) -> set[int]:
    """Survivors of ``k``-core peeling restricted to ``members``.

    Iteratively removes members whose degree *within the member set* is below
    ``k``; the fixpoint is the (unique) k-core of the induced subgraph, so
    removal order cannot matter.  ``k = 2`` doubles as MCODE's haircut
    (degree ≤ 1 stripping reaches the same fixpoint).
    """
    alive = set(members)
    deg = {u: len(row_sets[u] & alive) for u in alive}
    stack = [u for u, d in deg.items() if d < k]
    while stack:
        u = stack.pop()
        if u not in alive:
            continue
        alive.discard(u)
        for w in row_sets[u]:
            if w in alive:
                deg[w] -= 1
                if deg[w] == k - 1:  # just crossed below k; queue exactly once
                    stack.append(w)
    return alive


def _subset_edge_count(row_sets: list[set[int]], members: set[int]) -> int:
    """Number of edges of the subgraph induced by ``members``."""
    return sum(len(row_sets[u] & members) for u in members) // 2


def _core_decompose(
    members: Sequence[int], adj: "Sequence[set[int]] | dict[int, set[int]]"
) -> tuple[int, dict[int, int]]:
    """Core numbers of a small induced subgraph via lazy min-degree peeling.

    Returns ``(kmax, core)`` where ``core[u]`` is the classic core number
    (the largest k such that u belongs to the k-core) and ``kmax`` the
    degeneracy — the highest non-empty core is exactly
    ``{u : core[u] == kmax}``.
    """
    deg = {u: len(adj[u]) for u in members}
    heap = [(d, u) for u, d in deg.items()]
    heapq.heapify(heap)
    removed: set[int] = set()
    core: dict[int, int] = {}
    k = 0
    while heap:
        d, u = heapq.heappop(heap)
        if u in removed or d != deg[u]:
            continue
        if d > k:
            k = d
        core[u] = k
        removed.add(u)
        for w in adj[u]:
            if w not in removed:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return k, core


def _top_core(
    members: Sequence[int], adj: dict[int, set[int]]
) -> Optional[tuple[int, set[int]]]:
    """Highest non-empty k-core of a small induced subgraph, by level peeling.

    Returns ``(kmax, core_vertices)`` or ``None`` for an edgeless input.
    Cheaper than a full core decomposition for the stage-1 inner loop: no
    heap, one incremental peel per level, and only the final level's vertex
    set is copied.
    """
    alive = set(members)
    deg = {u: len(adj[u]) for u in members}
    k = 0
    best: Optional[tuple[int, set[int]]] = None
    while alive:
        k += 1
        stack = [u for u in alive if deg[u] < k]
        while stack:
            u = stack.pop()
            if u not in alive:
                continue
            alive.remove(u)
            for w in adj[u]:
                if w in alive:
                    deg[w] -= 1
                    if deg[w] == k - 1:
                        stack.append(w)
        if alive:
            best = (k, set(alive))
    return best


def core_numbers_indices(csr: CSRGraph) -> np.ndarray:
    """Core number of every vertex of ``csr`` as one ``int64`` array."""
    n = csr.n_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    _, core = _core_decompose(range(n), csr.neighbor_sets())
    out = np.zeros(n, dtype=np.int64)
    for u, c in core.items():
        out[u] = c
    return out


def mcode_vertex_weights_indices(csr: CSRGraph, kernels: Optional[str] = None) -> np.ndarray:
    """Stage 1 on indices: weight = k × density of each neighbourhood's top core.

    ``kernels`` selects the execution tier (see :mod:`repro.kernels`); the
    ``jit`` tier runs the identical per-vertex peel with a preserved weight
    expression, so the float64 results are bit-identical.  At this index
    level ``reference`` is served by the ``numpy`` tier.
    """
    n = csr.n_vertices
    if resolve_kernels(kernels) == "jit":
        return jit_impl("mcode_weights")(csr.indptr, csr.indices)
    weights = np.zeros(n, dtype=np.float64)
    row_sets = csr.neighbor_sets()
    rows = csr.neighbor_lists()
    for v in range(n):
        nbrs = rows[v]
        if len(nbrs) < 2:
            continue
        nv = row_sets[v]
        adj = {u: row_sets[u] & nv for u in nbrs}
        top = _top_core(nbrs, adj)
        if top is None:
            continue
        kmax, core_set = top
        s = len(core_set)
        if s < 2:
            continue
        e = sum(len(adj[u] & core_set) for u in core_set) // 2
        weights[v] = float(kmax) * (2.0 * e / (s * (s - 1)))
    return weights


def _grow_complex_indices(
    rows: list[list[int]],
    weights: list[float],
    seed: int,
    seen: set[int],
    threshold_fraction: float,
) -> list[int]:
    """Stage 2 growth on indices — mirrors the reference DFS exactly.

    ``rows`` preserve the :class:`Graph` neighbour iteration order (the CSR
    is built in insertion order), so the member list comes out in the same
    sequence as the label reference.
    """
    bar = weights[seed] * (1.0 - threshold_fraction)
    members = [seed]
    in_complex = {seed}
    stack = [seed]
    while stack:
        u = stack.pop()
        for w in rows[u]:
            if w in in_complex or w in seen:
                continue
            if weights[w] > bar:
                in_complex.add(w)
                members.append(w)
                stack.append(w)
    return members


def _fluff_indices(
    rows: list[list[int]],
    row_sets: list[set[int]],
    members: list[int],
    density_threshold: float,
) -> list[int]:
    """Fluff on indices: add neighbours with dense closed neighbourhoods."""
    member_set = set(members)
    added: list[int] = []
    for v in members:
        for w in rows[v]:
            if w in member_set:
                continue
            closed = row_sets[w] | {w}
            s = len(closed)
            if s < 2:
                continue
            e = sum(len(row_sets[x] & closed) for x in closed) // 2
            if 2.0 * e / (s * (s - 1)) > density_threshold:
                member_set.add(w)
                added.append(w)
    return members + added


def mcode_clusters_indices(
    csr: CSRGraph,
    params: Optional[MCODEParams] = None,
    kernels: Optional[str] = None,
) -> list[IndexComplex]:
    """Run MCODE on a CSR view and return index-level complexes, sorted.

    The result order and scores are exactly those of
    :func:`reference_mcode_clusters` (ties broken by ``repr`` of the vertex
    labels, as in the seed); only the label materialisation is left to the
    caller.

    ``kernels`` selects the execution tier for stage 1 and the peel/count
    loops (see :mod:`repro.kernels`); the ``jit`` tier additionally skips
    materialising the Python neighbour sets unless fluff needs them.
    """
    params = params or MCODEParams()
    kernels = resolve_kernels(kernels)
    use_jit = kernels == "jit"
    n = csr.n_vertices
    rows = csr.neighbor_lists()
    row_sets = None if use_jit and not params.fluff else csr.neighbor_sets()
    weights = mcode_vertex_weights_indices(csr, kernels=kernels).tolist()
    reprs = [repr(v) for v in csr.labels]
    order = sorted(range(n), key=lambda i: (-weights[i], reprs[i]))
    seen: set[int] = set()
    raw: list[tuple[int, list[int]]] = []
    for seed in order:
        if seed in seen or weights[seed] <= 0.0:
            continue
        members = _grow_complex_indices(
            rows, weights, seed, seen, params.vertex_weight_percentage
        )
        seen.update(members)
        if len(members) >= 2:
            raw.append((seed, members))

    prune = params.haircut or params.require_two_core
    complexes: list[IndexComplex] = []
    for seed, members in raw:
        if params.fluff:
            members = _fluff_indices(rows, row_sets, members, params.fluff_density_threshold)
        if prune:
            if use_jit:
                member_arr = np.fromiter(members, dtype=np.int64, count=len(members))
                alive = jit_impl("peel")(csr.indptr, csr.indices, member_arr, 2)
                survivors = {u for u in members if alive[u]}
            else:
                survivors = _peel_subset(row_sets, members, 2)
        else:
            survivors = set(members)
        n_sub = len(survivors)
        if n_sub < params.min_size:
            continue
        if n_sub < 2:
            density = 0.0
        else:
            if use_jit:
                surv_arr = np.fromiter(survivors, dtype=np.int64, count=n_sub)
                e_sub = int(jit_impl("subset_edge_count")(csr.indptr, csr.indices, surv_arr))
            else:
                e_sub = _subset_edge_count(row_sets, survivors)
            density = 2.0 * e_sub / (n_sub * (n_sub - 1))
        score = density * n_sub
        if score < params.min_score:
            continue
        kept = tuple(u for u in members if u in survivors)
        complexes.append(IndexComplex(seed=seed, members=kept, score=score))
    complexes.sort(key=lambda c: (-c.score, -len(c.members), reprs[c.seed]))
    return complexes


# ----------------------------------------------------------------------
# public label-level API (CSR-native, labels only at the boundary)
# ----------------------------------------------------------------------
def k_core(graph: Graph, k: int, kernels: Optional[str] = None) -> Graph:
    """Return the ``k``-core of ``graph`` (maximal subgraph with min degree ≥ k).

    ``kernels`` selects the execution tier: ``reference`` reruns the seed
    full-rescan peel, ``jit`` the compiled peel; the k-core is unique, so
    every tier returns the same subgraph.
    """
    if graph.n_vertices == 0 or k <= 0:
        return graph.copy()
    kernels = resolve_kernels(kernels)
    if kernels == "reference":
        return reference_k_core(graph, k)
    csr = CSRGraph.from_graph(graph)
    if kernels == "jit":
        mask = jit_impl("peel")(
            csr.indptr, csr.indices, np.arange(csr.n_vertices, dtype=np.int64), int(k)
        )
        return graph.subgraph([csr.labels[i] for i in np.flatnonzero(mask)])
    alive = _peel_subset(csr.neighbor_sets(), range(csr.n_vertices), k)
    return graph.subgraph([csr.labels[i] for i in range(csr.n_vertices) if i in alive])


def highest_k_core(graph: Graph) -> tuple[int, Graph]:
    """Return ``(k, core)`` for the highest non-empty k-core of ``graph``.

    The empty graph yields ``(0, empty graph)``; an edgeless graph yields
    ``(0, full copy)`` — both matching the peeling reference.
    """
    if graph.n_vertices == 0:
        return 0, graph.copy()
    csr = CSRGraph.from_graph(graph)
    core = core_numbers_indices(csr)
    kmax = int(core.max())
    if kmax == 0:
        return 0, graph.copy()
    keep = np.flatnonzero(core == kmax)
    return kmax, graph.subgraph([csr.labels[int(i)] for i in keep])


def _weight_density(core: Graph) -> float:
    """MCODE neighbourhood density: 2·E / (V·(V−1)); 0 for fewer than 2 vertices."""
    n = core.n_vertices
    if n < 2:
        return 0.0
    return 2.0 * core.n_edges / (n * (n - 1))


def mcode_vertex_weights(graph: Graph, kernels: Optional[str] = None) -> dict[Vertex, float]:
    """Stage 1: weight every vertex by k × density of its neighbourhood's highest core."""
    kernels = resolve_kernels(kernels)
    if kernels == "reference":
        return reference_mcode_vertex_weights(graph)
    csr = CSRGraph.from_graph(graph)
    weights = mcode_vertex_weights_indices(csr, kernels=kernels)
    return {v: float(w) for v, w in zip(csr.labels, weights.tolist())}


def mcode_score(subgraph: Graph) -> float:
    """MCODE complex score: density × number of vertices."""
    return _weight_density(subgraph) * subgraph.n_vertices


def mcode_clusters(
    graph: Optional[Graph],
    params: Optional[MCODEParams] = None,
    source: str = "",
    csr: Optional[CSRGraph] = None,
    kernels: Optional[str] = None,
    edge_attrs: Optional[Graph] = None,
) -> list[Cluster]:
    """Run MCODE on ``graph`` and return clusters sorted by descending score.

    Only clusters meeting ``params.min_score`` and ``params.min_size`` (after
    post-processing) are returned; the paper's threshold of 3.0 deliberately
    discards bare triangles ("scores of 2.9 or lower tend to indicate small
    cliques, or K3 graphs").

    The computation is index-native: ``graph`` is converted to a CSR view
    once (or ``csr`` — which must be ``CSRGraph.from_graph(graph)``-equivalent,
    e.g. the cached :meth:`SyntheticStudy.network_csr` view — is reused), and
    indices are mapped back to labels exactly once, when the returned
    :class:`Cluster` objects are built; their subgraphs come from the CSR rows
    (:meth:`CSRGraph.induced_graph`), identical to ``graph.subgraph(members)``.

    ``graph`` may be ``None`` when ``csr`` is given — a filtered network that
    never became a label graph.  The cluster subgraphs then take their edge
    attributes from ``edge_attrs`` (a graph holding every edge of ``csr``,
    such as the unfiltered network), and the ``reference`` tier, which runs on
    labels, materialises the graph with :meth:`CSRGraph.to_graph`.
    """
    params = params or MCODEParams()
    kernels = resolve_kernels(kernels)
    if graph is None and csr is None:
        raise ValueError("mcode_clusters needs a graph or its CSR view")
    if edge_attrs is None:
        edge_attrs = graph
    if kernels == "reference":
        if graph is None:
            graph = csr.to_graph(edge_attrs)
        return reference_mcode_clusters(graph, params, source)
    if csr is None:
        csr = CSRGraph.from_graph(graph)
    labels = csr.labels
    clusters: list[Cluster] = []
    for i, complex_ in enumerate(mcode_clusters_indices(csr, params, kernels=kernels)):
        members = [labels[u] for u in complex_.members]
        clusters.append(
            Cluster(
                cluster_id=i,
                members=members,
                subgraph=csr.induced_graph(complex_.members, edge_attrs),
                score=complex_.score,
                seed=labels[complex_.seed],
                source=source,
            )
        )
    return clusters


# ----------------------------------------------------------------------
# retained seed implementations (behavioural references)
# ----------------------------------------------------------------------
def reference_k_core(graph: Graph, k: int) -> Graph:
    """Seed ``k_core``: repeated full-vertex rescans on the label graph."""
    work = graph.copy()
    changed = True
    while changed:
        changed = False
        for v in list(work.vertices()):
            if work.degree(v) < k:
                work.remove_vertex(v)
                changed = True
    return work


def reference_highest_k_core(graph: Graph) -> tuple[int, Graph]:
    """Seed ``highest_k_core``: peel k = 1, 2, … until the core empties."""
    if graph.n_vertices == 0:
        return 0, graph.copy()
    k = 1
    best_k = 0
    best = graph.copy()
    current = graph.copy()
    while True:
        current = reference_k_core(current, k)
        if current.n_vertices == 0:
            break
        best_k, best = k, current.copy()
        k += 1
    return best_k, best


def reference_mcode_vertex_weights(graph: Graph) -> dict[Vertex, float]:
    """Seed stage 1: per-vertex ``Graph.subgraph`` + iterated label k-cores."""
    weights: dict[Vertex, float] = {}
    for v in graph.vertices():
        nbrs = graph.neighbors(v)
        if len(nbrs) < 2:
            weights[v] = 0.0
            continue
        neighborhood = graph.subgraph(nbrs)
        k, core = reference_highest_k_core(neighborhood)
        weights[v] = float(k) * _weight_density(core)
    return weights


def _grow_complex(
    graph: Graph,
    weights: dict[Vertex, float],
    seed: Vertex,
    seen: set[Vertex],
    threshold_fraction: float,
) -> list[Vertex]:
    """Stage 2 growth: BFS over vertices whose weight clears the seed-derived bar."""
    bar = weights[seed] * (1.0 - threshold_fraction)
    members = [seed]
    in_complex = {seed}
    stack = [seed]
    while stack:
        u = stack.pop()
        for w in graph.neighbors(u):
            if w in in_complex or w in seen:
                continue
            if weights[w] > bar:
                in_complex.add(w)
                members.append(w)
                stack.append(w)
    return members


def _haircut(subgraph: Graph) -> Graph:
    """Iteratively remove vertices of degree ≤ 1 (MCODE's haircut post-processing)."""
    work = subgraph.copy()
    changed = True
    while changed:
        changed = False
        for v in list(work.vertices()):
            if work.degree(v) <= 1:
                work.remove_vertex(v)
                changed = True
    return work


def _fluff(graph: Graph, members: list[Vertex], density_threshold: float) -> list[Vertex]:
    """Add neighbours whose closed-neighbourhood density clears the fluff threshold."""
    member_set = set(members)
    added: list[Vertex] = []
    for v in members:
        for w in graph.neighbors(v):
            if w in member_set:
                continue
            closed = graph.subgraph([w] + graph.neighbors(w))
            if _weight_density(closed) > density_threshold:
                member_set.add(w)
                added.append(w)
    return members + added


def reference_mcode_clusters(
    graph: Graph,
    params: Optional[MCODEParams] = None,
    source: str = "",
) -> list[Cluster]:
    """Seed ``mcode_clusters``: the pure label-level three-stage pipeline."""
    params = params or MCODEParams()
    weights = reference_mcode_vertex_weights(graph)
    order = sorted(graph.vertices(), key=lambda v: (-weights[v], repr(v)))
    seen: set[Vertex] = set()
    raw: list[tuple[Vertex, list[Vertex]]] = []
    for seed in order:
        if seed in seen or weights[seed] <= 0.0:
            continue
        members = _grow_complex(graph, weights, seed, seen, params.vertex_weight_percentage)
        seen.update(members)
        if len(members) >= 2:
            raw.append((seed, members))

    clusters: list[Cluster] = []
    for seed, members in raw:
        if params.fluff:
            members = _fluff(graph, members, params.fluff_density_threshold)
        sub = graph.subgraph(members)
        if params.haircut:
            sub = _haircut(sub)
        if params.require_two_core:
            sub = reference_k_core(sub, 2)
        if sub.n_vertices < params.min_size:
            continue
        score = mcode_score(sub)
        if score < params.min_score:
            continue
        kept_members = [v for v in members if sub.has_vertex(v)]
        clusters.append(
            Cluster(
                cluster_id=-1,
                members=kept_members,
                subgraph=sub,
                score=score,
                seed=seed,
                source=source,
            )
        )
    clusters.sort(key=lambda c: (-c.score, -c.n_vertices, repr(c.seed)))
    for i, c in enumerate(clusters):
        c.cluster_id = i
    return clusters
