"""Result containers shared by all sampling filters.

Every filter — sequential or parallel, chordal or random walk — returns a
:class:`FilterResult` so that the downstream pipeline (clustering, enrichment,
overlap analysis, cost modelling) can treat them uniformly.  The result keeps
full provenance: which algorithm and ordering produced it, how the graph was
partitioned, how much work every rank performed, how many border edges were
duplicated and the simulated execution time.

The filtered network itself is held index-native, as the CSR over the original
network's vertex numbering (:attr:`FilterResult.csr`).  The label
:class:`~repro.graph.graph.Graph` is materialised only when a caller reads
:attr:`FilterResult.graph`.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import Any, Optional

from ..graph.csr import CSRGraph
from ..graph.graph import Graph
from ..parallel.timing import CostModel, RankWork

__all__ = ["FilterResult"]

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


@dataclass
class FilterResult:
    """The outcome of applying a sampling filter to a network.

    Attributes
    ----------
    csr:
        The filtered network (all original vertices, surviving edges only)
        as a CSR sharing the original network's labels; row ``i`` lists the
        kept neighbours of vertex ``i`` in the order the sampler kept them.
    original:
        The network the filter was applied to (not copied).
    method:
        Registry name of the filter (``"chordal"``, ``"chordal_comm"``,
        ``"random_walk"``, …).
    ordering:
        Name of the vertex ordering used (``"natural"``, ``"high_degree"``,
        ``"low_degree"``, ``"rcm"``) — ``None`` when not applicable.
    n_partitions:
        Number of partitions / simulated processors (1 for sequential runs).
    partition_method:
        Name of the partitioner used (``None`` for sequential runs).
    border_edges:
        Canonical border edges of the partition (empty for sequential runs).
    accepted_border_edges:
        Border edges that survived the filter.
    duplicate_border_edges:
        Number of border edges accepted independently by both owning ranks;
        the paper notes these must be removed during the sequential analysis
        phase (at most ``b`` of them).
    rank_work:
        Per-rank work counters consumed by the scalability cost model.
    simulated_time:
        Modelled wall-clock seconds for the run (None until computed).
    wall_time:
        Actual seconds spent in this process (host measurement, informational).
    extra:
        Free-form provenance (seed, thresholds, cycle statistics, …).

    :attr:`graph` is the filtered network as a label :class:`Graph`, built
    from :attr:`csr` on first access with the original network's edge
    attributes — the graph ``original.spanning_subgraph(kept)`` would give.
    """

    csr: CSRGraph
    original: Graph
    method: str
    ordering: Optional[str] = None
    n_partitions: int = 1
    partition_method: Optional[str] = None
    border_edges: list[Edge] = field(default_factory=list)
    accepted_border_edges: list[Edge] = field(default_factory=list)
    duplicate_border_edges: int = 0
    rank_work: list[RankWork] = field(default_factory=list)
    simulated_time: Optional[float] = None
    wall_time: Optional[float] = None
    extra: dict[str, Any] = field(default_factory=dict)
    _graph: Optional[Graph] = field(default=None, init=False, repr=False, compare=False)

    @property
    def graph(self) -> Graph:
        """The filtered network as a label graph (materialised once, on demand)."""
        if self._graph is None:
            self._graph = self.csr.to_graph(edge_attrs=self.original)
        return self._graph

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def n_edges_kept(self) -> int:
        return self.csr.n_edges

    @property
    def n_edges_removed(self) -> int:
        return self.original.n_edges - self.csr.n_edges

    @property
    def edge_reduction(self) -> float:
        """Fraction of original edges removed by the filter.

        The paper interprets this as an estimate of the noise content of the
        network ("ideally, if the data is noise free, no reduction should
        occur").
        """
        if self.original.n_edges == 0:
            return 0.0
        return self.n_edges_removed / self.original.n_edges

    @property
    def n_border_edges(self) -> int:
        return len(self.border_edges)

    def compute_simulated_time(self, model: Optional[CostModel] = None, with_communication: Optional[bool] = None) -> float:
        """Fill in and return :attr:`simulated_time` using the cost model.

        ``with_communication`` defaults to whether the method name indicates
        the communicating variant.
        """
        if with_communication is None:
            with_communication = "comm" in self.method and "nocomm" not in self.method
        model = model or CostModel()
        self.simulated_time = model.execution_time(
            self.rank_work,
            with_communication=with_communication,
            duplicate_border_edges=self.duplicate_border_edges,
        )
        return self.simulated_time

    def summary(self) -> dict[str, Any]:
        """Return a flat dict suitable for tabulation in reports."""
        return {
            "method": self.method,
            "ordering": self.ordering,
            "n_partitions": self.n_partitions,
            "partition_method": self.partition_method,
            "n_vertices": self.csr.n_vertices,
            "edges_original": self.original.n_edges,
            "edges_kept": self.n_edges_kept,
            "edge_reduction": round(self.edge_reduction, 4),
            "border_edges": self.n_border_edges,
            "accepted_border_edges": len(self.accepted_border_edges),
            "duplicate_border_edges": self.duplicate_border_edges,
            "simulated_time": self.simulated_time,
        }
