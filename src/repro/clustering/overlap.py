"""Cluster overlap: matching filtered clusters against original-network clusters.

The paper compares every cluster of a filtered network with every cluster of
the original network using two measures:

* **node overlap** — the fraction of the original cluster's genes present in
  the filtered cluster;
* **edge overlap** — the fraction of the original cluster's edges present in
  the filtered cluster.

Clusters of the filtered network that share nothing with any original cluster
are *found* (newly uncovered structure); original clusters that share nothing
with any filtered cluster are *lost*.  Those categories, together with the
overlap values and the enrichment score, drive the TP/FP/FN/TN quadrant
analysis in :mod:`repro.clustering.evaluation`.

The all-pairs matching used to walk every (original, filtered) pair through
Python set intersections; :func:`match_clusters` and :func:`lost_clusters`
now take an index-native fast path for the two standard measures.  The
original clusters' members (and edges) are numbered into an incidence index —
element id → the original clusters holding it — which a caller can build once
(:class:`OriginalClusterIndex`; a dataset bundle keeps one per generation)
instead of once per filter run.  Each filtered cluster's elements are then looked up in it,
and every pairwise intersection count is one ``bincount`` over the joined
``(original, filtered)`` pairs: work proportional to the shared elements, not
to the dense cluster × universe matrices.  The counts are exact integers, so
the overlap fractions are bit-identical.  The generic-``key`` behaviour is
retained as ``reference_match_clusters`` / ``reference_lost_clusters`` and the
fast path is pinned to it by the test suite.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cluster import Cluster

__all__ = [
    "node_overlap",
    "edge_overlap",
    "jaccard_node_overlap",
    "ClusterMatch",
    "OriginalClusterIndex",
    "match_clusters",
    "match_and_lost_clusters",
    "lost_clusters",
    "found_clusters",
    "reference_match_clusters",
    "reference_lost_clusters",
]

Vertex = Hashable


def node_overlap(original: Cluster, candidate: Cluster) -> float:
    """Fraction of the original cluster's nodes present in the candidate cluster."""
    orig = original.node_set()
    if not orig:
        return 0.0
    return len(orig & candidate.node_set()) / len(orig)


def edge_overlap(original: Cluster, candidate: Cluster) -> float:
    """Fraction of the original cluster's edges present in the candidate cluster."""
    orig = original.edge_set()
    if not orig:
        return 0.0
    return len(orig & candidate.edge_set()) / len(orig)


def jaccard_node_overlap(a: Cluster, b: Cluster) -> float:
    """Jaccard index of the two clusters' node sets (symmetric alternative)."""
    na, nb = a.node_set(), b.node_set()
    union = na | nb
    if not union:
        return 0.0
    return len(na & nb) / len(union)


@dataclass
class ClusterMatch:
    """The best original-network counterpart of one filtered cluster."""

    filtered: Cluster
    original: Optional[Cluster]
    node_overlap: float
    edge_overlap: float

    @property
    def is_found(self) -> bool:
        """True when the filtered cluster has no counterpart at all (newly found)."""
        return self.original is None or (self.node_overlap == 0.0 and self.edge_overlap == 0.0)


# ----------------------------------------------------------------------
# index-native pairwise intersection counts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Incidence:
    """One element universe of the original clusters (their nodes or their edges).

    ``ids`` numbers every element of any original cluster; the original
    clusters holding element ``e`` are ``rows[ptr[e]:ptr[e + 1]]``.  ``sizes``
    is each original cluster's set size (the overlap denominators).
    """

    ids: dict
    ptr: np.ndarray
    rows: np.ndarray
    sizes: np.ndarray

    @classmethod
    def build(cls, sets: Sequence[set]) -> "_Incidence":
        ids: dict = {}
        element: list[int] = []
        row: list[int] = []
        for r, members in enumerate(sets):
            for x in members:
                element.append(ids.setdefault(x, len(ids)))
                row.append(r)
        element_arr = np.asarray(element, dtype=np.int64)
        order = np.argsort(element_arr, kind="stable")
        ptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(element_arr, minlength=len(ids)), out=ptr[1:])
        return cls(
            ids=ids,
            ptr=ptr,
            rows=np.asarray(row, dtype=np.int64)[order],
            sizes=np.array([len(m) for m in sets], dtype=np.float64),
        )

    def overlaps(self, filtered_sets: Sequence[Iterable]) -> np.ndarray:
        """``(|original|, |filtered|)`` overlap fractions ``|o ∩ f| / |o|``.

        Each filtered set's elements that occur in some original cluster are
        joined with their incidence rows; ``bincount`` over the flattened
        ``(original, filtered)`` pair codes gives every intersection size.
        Empty original clusters read 0.
        """
        n_orig, n_filt = self.sizes.shape[0], len(filtered_sets)
        ids = self.ids
        hit: list[int] = []
        col: list[int] = []
        for j, members in enumerate(filtered_sets):
            found = [e for e in map(ids.get, members) if e is not None]
            hit.extend(found)
            col.extend([j] * len(found))
        hit_arr = np.asarray(hit, dtype=np.int64)
        starts = self.ptr[hit_arr]
        counts = self.ptr[hit_arr + 1] - starts
        total = int(counts.sum())
        base = np.zeros(hit_arr.shape[0], dtype=np.int64)
        np.cumsum(counts[:-1], out=base[1:])
        take = np.repeat(starts - base, counts) + np.arange(total, dtype=np.int64)
        codes = self.rows[take] * n_filt + np.repeat(np.asarray(col, dtype=np.int64), counts)
        inter = np.bincount(codes, minlength=n_orig * n_filt).reshape(n_orig, n_filt)
        safe = np.where(self.sizes == 0, 1.0, self.sizes)
        return inter / safe[:, None]


class OriginalClusterIndex:
    """The original clusters' nodes and edges, numbered for the overlap join.

    Build it once per original cluster list (a dataset bundle holds one per
    generation, see ``DatasetBundle.overlap_index``) and pass it to
    :func:`match_and_lost_clusters`, so matching a filter run's clusters
    costs only the lookups of the filtered side.  Clusters are results: a
    cluster mutated after it was indexed is not seen here.
    """

    __slots__ = ("clusters", "nodes", "edges")

    def __init__(self, original_clusters: Sequence[Cluster]) -> None:
        self.clusters = tuple(original_clusters)
        self.nodes = _Incidence.build([c.node_set() for c in self.clusters])
        self.edges = _Incidence.build([c.edge_set() for c in self.clusters])

    def indexes(self, original_clusters: Sequence[Cluster]) -> bool:
        """Whether this index was built from exactly these cluster objects."""
        return len(original_clusters) == len(self.clusters) and all(
            a is b for a, b in zip(original_clusters, self.clusters)
        )


def _overlap_values_for(
    index: OriginalClusterIndex, filtered_clusters: Sequence[Cluster], by_edges: bool
) -> np.ndarray:
    """One overlap-fraction matrix (node- or edge-based) for every pair."""
    if by_edges:
        # iter_edges yields canonical keys already: the edge_set() elements.
        return index.edges.overlaps([c.subgraph.iter_edges() for c in filtered_clusters])
    return index.nodes.overlaps([c.node_set() for c in filtered_clusters])


def _overlap_matrices(
    index: OriginalClusterIndex, filtered_clusters: Sequence[Cluster]
) -> tuple[np.ndarray, np.ndarray]:
    """``(node_overlaps, edge_overlaps)`` matrices for every cluster pair."""
    return (
        _overlap_values_for(index, filtered_clusters, by_edges=False),
        _overlap_values_for(index, filtered_clusters, by_edges=True),
    )


def _is_fast_key(key: Callable[[Cluster, Cluster], float]) -> bool:
    """Whether ``key`` is one of the two measures the matrix fast path serves.

    The single dispatch predicate for :func:`match_clusters`,
    :func:`match_and_lost_clusters` and :func:`lost_clusters` — extend it in
    one place if another measure gains a matrix form.
    """
    return key is node_overlap or key is edge_overlap


def _matches_from_values(
    original_clusters: Sequence[Cluster],
    filtered_clusters: Sequence[Cluster],
    node_vals: np.ndarray,
    edge_vals: np.ndarray,
    key_vals: np.ndarray,
) -> list[ClusterMatch]:
    """Best-match selection off precomputed overlap matrices."""
    matches: list[ClusterMatch] = []
    for j, fc in enumerate(filtered_clusters):
        col = key_vals[:, j]
        best = int(np.argmax(col))  # first index attaining the maximum
        if col[best] <= 0.0:
            matches.append(
                ClusterMatch(filtered=fc, original=None, node_overlap=0.0, edge_overlap=0.0)
            )
        else:
            matches.append(
                ClusterMatch(
                    filtered=fc,
                    original=original_clusters[best],
                    node_overlap=float(node_vals[best, j]),
                    edge_overlap=float(edge_vals[best, j]),
                )
            )
    return matches


def match_clusters(
    original_clusters: Sequence[Cluster],
    filtered_clusters: Sequence[Cluster],
    key: Callable[[Cluster, Cluster], float] = node_overlap,
) -> list[ClusterMatch]:
    """Match every filtered cluster to its best-overlapping original cluster.

    ``key(original, filtered)`` determines "best" (node overlap by default);
    both node and edge overlap of the chosen pairing are reported.  Filtered
    clusters with zero overlap against every original cluster are matched to
    ``None`` — the paper's *found* clusters.

    For the two standard measures (:func:`node_overlap` / :func:`edge_overlap`)
    the matching runs on the incidence join (see :class:`_Incidence`); any
    other ``key`` falls back to :func:`reference_match_clusters`.
    """
    if not _is_fast_key(key):
        return reference_match_clusters(original_clusters, filtered_clusters, key)
    if not original_clusters:
        return [
            ClusterMatch(filtered=fc, original=None, node_overlap=0.0, edge_overlap=0.0)
            for fc in filtered_clusters
        ]
    node_vals, edge_vals = _overlap_matrices(
        OriginalClusterIndex(original_clusters), filtered_clusters
    )
    key_vals = node_vals if key is node_overlap else edge_vals
    return _matches_from_values(
        original_clusters, filtered_clusters, node_vals, edge_vals, key_vals
    )


def match_and_lost_clusters(
    original_clusters: Sequence[Cluster],
    filtered_clusters: Sequence[Cluster],
    key: Callable[[Cluster, Cluster], float] = node_overlap,
    index: Optional[OriginalClusterIndex] = None,
) -> tuple[list[ClusterMatch], list[Cluster]]:
    """:func:`match_clusters` and :func:`lost_clusters` in one pass.

    The workflow needs both over the same cluster lists; for the standard
    measures this computes the overlap matrices once and reads the matches
    and the zero-overlap (lost) originals off them.  ``index`` is a prebuilt
    :class:`OriginalClusterIndex` of ``original_clusters`` (built here when
    omitted); one built from other clusters raises :class:`ValueError`.
    """
    if index is not None and not index.indexes(original_clusters):
        raise ValueError("index was built from a different original cluster list")
    if not _is_fast_key(key):
        return (
            reference_match_clusters(original_clusters, filtered_clusters, key),
            reference_lost_clusters(original_clusters, filtered_clusters, key),
        )
    if not original_clusters:
        return match_clusters(original_clusters, filtered_clusters, key), []
    if not filtered_clusters:
        return [], list(original_clusters)
    node_vals, edge_vals = _overlap_matrices(
        index or OriginalClusterIndex(original_clusters), filtered_clusters
    )
    key_vals = node_vals if key is node_overlap else edge_vals
    matches = _matches_from_values(
        original_clusters, filtered_clusters, node_vals, edge_vals, key_vals
    )
    zero_rows = (key_vals == 0.0).all(axis=1)
    lost = [oc for r, oc in enumerate(original_clusters) if zero_rows[r]]
    return matches, lost


def found_clusters(matches: Sequence[ClusterMatch]) -> list[Cluster]:
    """Filtered clusters with no original counterpart (structure uncovered by filtering)."""
    return [m.filtered for m in matches if m.is_found]


def lost_clusters(
    original_clusters: Sequence[Cluster],
    filtered_clusters: Sequence[Cluster],
    key: Callable[[Cluster, Cluster], float] = node_overlap,
) -> list[Cluster]:
    """Original clusters that share nothing with any filtered cluster (lost to filtering)."""
    if not _is_fast_key(key):
        return reference_lost_clusters(original_clusters, filtered_clusters, key)
    if not original_clusters:
        return []
    if not filtered_clusters:
        return list(original_clusters)
    key_vals = _overlap_values_for(
        OriginalClusterIndex(original_clusters), filtered_clusters, by_edges=key is edge_overlap
    )
    zero_rows = (key_vals == 0.0).all(axis=1)
    return [oc for r, oc in enumerate(original_clusters) if zero_rows[r]]


# ----------------------------------------------------------------------
# retained label-level references (generic-key behaviour)
# ----------------------------------------------------------------------
def reference_match_clusters(
    original_clusters: Sequence[Cluster],
    filtered_clusters: Sequence[Cluster],
    key: Callable[[Cluster, Cluster], float] = node_overlap,
) -> list[ClusterMatch]:
    """Seed all-pairs matching loop (the behavioural reference for the fast path)."""
    matches: list[ClusterMatch] = []
    for fc in filtered_clusters:
        best: Optional[Cluster] = None
        best_key = 0.0
        for oc in original_clusters:
            k = key(oc, fc)
            if k > best_key:
                best_key = k
                best = oc
        if best is None:
            matches.append(ClusterMatch(filtered=fc, original=None, node_overlap=0.0, edge_overlap=0.0))
        else:
            matches.append(
                ClusterMatch(
                    filtered=fc,
                    original=best,
                    node_overlap=node_overlap(best, fc),
                    edge_overlap=edge_overlap(best, fc),
                )
            )
    return matches


def reference_lost_clusters(
    original_clusters: Sequence[Cluster],
    filtered_clusters: Sequence[Cluster],
    key: Callable[[Cluster, Cluster], float] = node_overlap,
) -> list[Cluster]:
    """Seed lost-cluster scan (the behavioural reference for the fast path)."""
    lost: list[Cluster] = []
    for oc in original_clusters:
        if all(key(oc, fc) == 0.0 for fc in filtered_clusters):
            lost.append(oc)
    return lost
