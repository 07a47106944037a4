"""Parallel random-walk sampling — the control filter.

The paper compares its adaptive chordal filter against a standard
structure-agnostic sampler: a random walk.  The parallel variant mirrors the
chordal samplers' structure (partition, local phase, border phase) but every
decision is random:

* **local phase** — each rank performs a random walk on its partition's
  internal edges; at every step one of the ``d`` incident edges of the current
  vertex is selected with probability ``1/d`` (no visited list — vertices and
  edges may repeat); the walk stops once the number of selections reaches half
  of the partition's edge count.
* **border phase** — every border edge is assigned an independent Bernoulli(½)
  value and is kept when the value is 1.  No communication is required, so the
  filter is perfectly scalable and cheaper per edge than the chordal variant.

The rationale quoted by the paper is that tightly connected vertex groups are
revisited often and should therefore survive, but the experiments (and our
reproduction) show the surviving edge set is too thin for MCODE to recover any
cluster — which is precisely the paper's point H0a.
"""

from __future__ import annotations

import time
from collections.abc import Hashable, Sequence
from typing import Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.graph import Graph, edge_key
from ..graph.partition import Partition, partition_graph
from ..parallel.rng import rank_rngs
from ..parallel.timing import RankWork
from .results import FilterResult
from .sequential import network_csr, pair_arrays

__all__ = ["parallel_random_walk_filter", "random_walk_edges"]

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


def random_walk_edges(
    graph: Graph,
    rng: np.random.Generator,
    selection_fraction: float = 0.5,
) -> tuple[list[Edge], int]:
    """Run one random walk over ``graph`` and return (selected edges, n selections).

    The walk restarts at a uniformly random vertex whenever it reaches an
    isolated vertex.  Selection counting includes repeats, per the paper.
    """
    if not 0.0 < selection_fraction <= 1.0:
        raise ValueError("selection_fraction must lie in (0, 1]")
    vertices = graph.vertices()
    kept: set[Edge] = set()
    selections = 0
    target = int(selection_fraction * graph.n_edges)
    if not vertices or graph.n_edges == 0 or target == 0:
        return [], 0
    current = vertices[int(rng.integers(0, len(vertices)))]
    while selections < target:
        nbrs = graph.neighbors(current)
        if not nbrs:
            current = vertices[int(rng.integers(0, len(vertices)))]
            continue
        nxt = nbrs[int(rng.integers(0, len(nbrs)))]
        kept.add(edge_key(current, nxt))
        selections += 1
        current = nxt
    return sorted(kept, key=repr), selections


def parallel_random_walk_filter(
    graph: Graph,
    n_partitions: int,
    seed: int = 0,
    selection_fraction: float = 0.5,
    border_keep_probability: float = 0.5,
    partition_method: str = "block",
    partition: Optional[Partition] = None,
    explicit_order: Optional[Sequence[Vertex]] = None,
    csr: Optional[CSRGraph] = None,
) -> FilterResult:
    """Run the parallel random-walk control filter.

    Parameters
    ----------
    seed:
        Root seed; each rank receives an independent derived stream, so the
        per-rank walks are uncorrelated and reproducible.
    selection_fraction:
        Stop each local walk after this fraction of the partition's edges have
        been selected (with repetition).  The paper uses one half.
    border_keep_probability:
        Probability that a border edge survives (its "binary random value").
    csr:
        Prebuilt CSR view of ``graph``
        (see :func:`repro.core.sequential.network_csr`); the walks run on the
        label partition, and their kept edges index into this view.
    """
    if n_partitions < 1:
        raise ValueError(f"n_partitions must be >= 1, got {n_partitions}")
    if not 0.0 <= border_keep_probability <= 1.0:
        raise ValueError("border_keep_probability must lie in [0, 1]")
    start = time.perf_counter()
    if partition is None:
        if partition_method == "block" and explicit_order is not None:
            partition = partition_graph(graph, n_partitions, method="block", order=explicit_order)
        else:
            partition = partition_graph(graph, n_partitions, method=partition_method)

    rngs = rank_rngs(seed, partition.n_parts + 1)
    border_rng = rngs[-1]

    kept_edges: list[Edge] = []
    works: list[RankWork] = []
    for rank in range(partition.n_parts):
        part_graph = partition.part_subgraph(rank)
        edges, selections = random_walk_edges(part_graph, rngs[rank], selection_fraction)
        kept_edges.extend(edges)
        works.append(
            RankWork(
                edges_examined=selections,
                chordality_checks=0,
                border_edges=len(partition.border_edges_of(rank)),
                messages=0,
                items_sent=0,
                max_degree=max(part_graph.max_degree(), 1),
            )
        )

    accepted_border: list[Edge] = []
    for e in partition.border_edges:
        if border_rng.random() < border_keep_probability:
            accepted_border.append(e)
    csr = network_csr(graph, csr)
    index = csr.label_index
    kept = [(index[u], index[v]) for u, v in kept_edges + accepted_border]
    filtered = csr.spanning_subgraph(*pair_arrays(kept))
    wall = time.perf_counter() - start

    result = FilterResult(
        csr=filtered,
        original=graph,
        method="random_walk",
        ordering=None,
        n_partitions=partition.n_parts,
        partition_method=partition_method,
        border_edges=list(partition.border_edges),
        accepted_border_edges=accepted_border,
        duplicate_border_edges=0,
        rank_work=works,
        wall_time=wall,
        extra={
            "seed": seed,
            "selection_fraction": selection_fraction,
            "border_keep_probability": border_keep_probability,
        },
    )
    result.compute_simulated_time(with_communication=False)
    return result
