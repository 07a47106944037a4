"""The index-native warm miss path: filter → MCODE → overlap on the CSR.

The samplers hand their kept edges to :meth:`CSRGraph.spanning_subgraph`, the
filtered network stays a CSR (:attr:`FilterResult.csr`), MCODE clusters it
with subgraphs built from CSR rows, the overlap counts come from an incidence
join, and the ``filter`` payload digest is read off index arrays.  Each piece
is pinned here to the label-level construction it replaces: equal arrays,
equal graphs (neighbour order and edge attributes included) and equal bytes.
"""

from __future__ import annotations

import dataclasses
import random
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.cluster import Cluster
from repro.clustering.mcode import mcode_clusters
from repro.clustering.overlap import (
    OriginalClusterIndex,
    edge_overlap,
    lost_clusters,
    match_and_lost_clusters,
    match_clusters,
    node_overlap,
    reference_lost_clusters,
    reference_match_clusters,
)
from repro.core.sampling import apply_filter
from repro.graph import CSRGraph, Graph
from repro.graph.ordering import ordering_names, rcm_order, reference_rcm_order
from repro.kernels import kernel_backend
from repro.pipeline.workflow import cluster_filtered, filter_payload, payload_digest
from repro.serve.handlers import HANDLERS, normalize_params
from repro.serve.state import DatasetState

METHODS = ("chordal", "chordal_comm", "random_walk")


def assert_same_graph(got: Graph, want: Graph) -> None:
    """Same vertices in the same order, same neighbour order, same attributes."""
    assert got.adjacency_lists() == want.adjacency_lists()
    assert got.n_edges == want.n_edges
    assert got._edge_attrs == want._edge_attrs


@st.composite
def graphs_with_kept(draw, max_vertices: int = 14):
    """A random attributed graph plus a kept list over its edges.

    The kept list repeats edges, flips orientations, comes in any order and
    carries a few pairs that are not edges (which the label builder skips).
    """
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    labels = [i * 7 % 11 if i % 3 == 0 else f"v{i}" for i in range(n)]
    labels = list(dict.fromkeys(labels))
    g = Graph(vertices=labels)
    n = len(labels)
    if n >= 2:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for i, j in draw(st.lists(pairs, max_size=30)):
            if i != j:
                g.add_edge(labels[i], labels[j], rho=float(i - j) / 7.0)
    edges = g.edges()
    kept = []
    if edges:
        picks = st.tuples(st.integers(0, len(edges) - 1), st.booleans())
        for k, flip in draw(st.lists(picks, max_size=40)):
            u, v = edges[k]
            kept.append((v, u) if flip else (u, v))
    if n >= 2:
        strays = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for i, j in draw(st.lists(strays, max_size=3)):
            kept.append((labels[i], labels[j]))
    return g, kept


class TestFilteredCSR:
    @settings(max_examples=150, deadline=None)
    @given(graphs_with_kept())
    def test_vectorised_builder_equals_label_round_trip(self, case):
        g, kept = case
        parent = CSRGraph.from_graph(g)
        index = parent.label_index
        us = np.array([index[u] for u, _ in kept], dtype=np.int64)
        vs = np.array([index[v] for _, v in kept], dtype=np.int64)
        got = parent.spanning_subgraph(us, vs)
        want = CSRGraph.from_graph(g.spanning_subgraph(kept))
        assert got.labels == want.labels
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        # The materialised label graph is the eager one, attributes included.
        assert_same_graph(got.to_graph(edge_attrs=g), g.spanning_subgraph(kept))

    def test_labels_tuple_is_shared(self):
        g = Graph(edges=[("a", "b"), ("b", "c")])
        parent = CSRGraph.from_graph(g)
        assert parent.spanning_subgraph([0], [1]).labels is parent.labels

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_kept(), st.data())
    def test_induced_graph_equals_label_subgraph(self, case, data):
        g, _ = case
        csr = CSRGraph.from_graph(g)
        members = data.draw(st.permutations(range(csr.n_vertices)))
        members = members[: data.draw(st.integers(0, len(members)))]
        want = g.subgraph([csr.labels[i] for i in members])
        assert_same_graph(csr.induced_graph(members, edge_attrs=g), want)


def _capture_kept(monkeypatch) -> list:
    """Record the kept pairs every sampler hands to the filtered-CSR builder."""
    seen = []
    original = CSRGraph.spanning_subgraph

    def recording(self, us, vs):
        seen.append((np.asarray(us).copy(), np.asarray(vs).copy()))
        return original(self, us, vs)

    monkeypatch.setattr(CSRGraph, "spanning_subgraph", recording)
    return seen


class TestLazyGraph:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("ordering", ordering_names())
    @pytest.mark.parametrize("parts", (1, 4, 16))
    def test_lazy_graph_equals_eager(self, cre_bundle, monkeypatch, method, ordering, parts):
        network = cre_bundle.network
        seen = _capture_kept(monkeypatch)
        result = apply_filter(
            network,
            method=method,
            ordering=None if method == "random_walk" else ordering,
            n_partitions=parts,
            csr=cre_bundle.network_csr,
        )
        assert result._graph is None  # nothing built a label graph yet
        (us, vs), = seen
        labels = cre_bundle.network_csr.labels
        eager = network.spanning_subgraph(
            (labels[u], labels[v]) for u, v in zip(us.tolist(), vs.tolist())
        )
        assert_same_graph(result.graph, eager)
        assert CSRGraph.from_graph(result.graph) == result.csr
        assert result.n_edges_kept == eager.n_edges

    def test_prebuilt_csr_matches_conversion(self, cre_bundle):
        for method in METHODS:
            fresh = apply_filter(cre_bundle.network, method=method, ordering="rcm", n_partitions=4)
            shared = apply_filter(
                cre_bundle.network, method=method, ordering="rcm", n_partitions=4,
                csr=cre_bundle.network_csr,
            )
            assert fresh.csr == shared.csr
            assert filter_payload(fresh, include_edges=True) == filter_payload(
                shared, include_edges=True
            )


class TestClustersFromCSR:
    @pytest.mark.parametrize("tier", ("numpy", "reference"))
    @pytest.mark.parametrize("method", METHODS)
    def test_clusters_identical_to_label_graph(self, cre_bundle, method, tier):
        result = apply_filter(
            cre_bundle.network, method=method, ordering="high_degree", n_partitions=4,
            csr=cre_bundle.network_csr,
        )
        with kernel_backend(tier):
            got = cluster_filtered(result, cre_bundle.mcode_params, source="x")
        want = mcode_clusters(result.graph, cre_bundle.mcode_params, source="x", kernels=tier)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a.cluster_id, a.members, a.score, a.seed, a.source) == (
                b.cluster_id, b.members, b.score, b.seed, b.source,
            )
            assert_same_graph(a.subgraph, b.subgraph)

    def test_original_clusters_identical_with_and_without_csr(self, cre_bundle):
        network = cre_bundle.network
        plain = mcode_clusters(network, cre_bundle.mcode_params)
        for a, b in zip(cre_bundle.original_clusters, plain):
            assert a.members == b.members and a.score == b.score
            assert_same_graph(a.subgraph, network.subgraph(a.members))
            assert_same_graph(a.subgraph, b.subgraph)

    def test_graph_or_csr_required(self):
        with pytest.raises(ValueError):
            mcode_clusters(None)


class TestFilterPayloadDigest:
    @staticmethod
    def label_digest(graph: Graph):
        edges = sorted(sorted((str(u), str(v))) for u, v in graph.iter_edges())
        return edges, payload_digest(edges)

    def test_digest_bytes_match_label_form_mixed_labels(self):
        # str order differs from repr/int order here: 10 < 9 as strings,
        # "B" < "a", and 1 vs "1" collide as strings.
        labels = [10, 9, "a", "B", 1, "1", "é", 'q"t']
        rng = random.Random(5)
        g = Graph(vertices=labels)
        for _ in range(20):
            u, v = rng.sample(labels, 2)
            g.add_edge(u, v)
        for method in METHODS:
            result = apply_filter(g, method=method, ordering="natural", n_partitions=2)
            edges, digest = self.label_digest(result.graph)
            payload = filter_payload(result, include_edges=True)
            assert payload["edges"] == edges
            assert payload["edges_sha256"] == digest
            assert payload["edges_kept"] == result.graph.n_edges

    def test_empty_filtered_network(self):
        g = Graph(vertices=["a", "b"])
        result = apply_filter(g, method="chordal")
        assert filter_payload(result, include_edges=True)["edges"] == []
        assert filter_payload(result)["edges_sha256"] == payload_digest([])


def _random_clusters(rng: random.Random, n: int, universe: int, tag: str) -> list[Cluster]:
    clusters = []
    for i in range(n):
        size = rng.randint(0, 7)
        members = rng.sample(range(universe), min(size, universe))
        sub = Graph(vertices=members)
        for _ in range(rng.randint(0, 2 * size)):
            if len(members) >= 2:
                u, v = rng.sample(members, 2)
                sub.add_edge(u, v)
        clusters.append(Cluster(cluster_id=i, members=members, subgraph=sub, score=1.0, source=tag))
    return clusters


class TestSparseOverlap:
    @pytest.mark.parametrize("seed", range(40))
    def test_join_equals_reference(self, seed):
        rng = random.Random(seed)
        n_orig = rng.choice([0, 1, 3, 8])
        n_filt = rng.choice([0, 1, 4, 9])
        universe = rng.choice([3, 12, 30])
        original = _random_clusters(rng, n_orig, universe, "o")
        filtered = _random_clusters(rng, n_filt, universe, "f")
        for key in (node_overlap, edge_overlap):
            matches, lost = match_and_lost_clusters(original, filtered, key)
            want = reference_match_clusters(original, filtered, key)
            assert len(matches) == len(want)
            for got, ref in zip(matches, want):
                assert got.filtered is ref.filtered
                assert got.original is ref.original
                assert float(got.node_overlap).hex() == float(ref.node_overlap).hex()
                assert float(got.edge_overlap).hex() == float(ref.edge_overlap).hex()
            ref_lost = reference_lost_clusters(original, filtered, key)
            assert [id(c) for c in lost] == [id(c) for c in ref_lost]
            assert [id(c) for c in lost_clusters(original, filtered, key)] == [
                id(c) for c in ref_lost
            ]
            again = match_clusters(original, filtered, key)
            assert [(m.original is r.original) for m, r in zip(again, want)] == [True] * len(want)

    def test_one_sided_lists(self):
        rng = random.Random(1)
        clusters = _random_clusters(rng, 3, 10, "x")
        matches, lost = match_and_lost_clusters([], clusters)
        assert [m.original for m in matches] == [None] * 3 and lost == []
        matches, lost = match_and_lost_clusters(clusters, [])
        assert matches == [] and lost == clusters

    def test_prebuilt_index(self):
        rng = random.Random(2)
        original = _random_clusters(rng, 5, 10, "o")
        filtered = _random_clusters(rng, 4, 10, "f")
        index = OriginalClusterIndex(original)
        for key in (node_overlap, edge_overlap):
            assert match_and_lost_clusters(original, filtered, key, index=index) == (
                match_and_lost_clusters(original, filtered, key)
            )
        with pytest.raises(ValueError):
            match_and_lost_clusters(_random_clusters(rng, 5, 10, "o"), filtered, index=index)

    def test_bundle_index_is_per_generation(self, cre_bundle):
        index = cre_bundle.overlap_index
        assert cre_bundle.overlap_index is index
        assert index.indexes(cre_bundle.original_clusters)
        next_generation = dataclasses.replace(cre_bundle, generation=cre_bundle.generation + 1)
        assert next_generation.overlap_index is not index
        # Clusters replaced in place: the stale index is not reused.
        next_generation.original_clusters = next_generation.original_clusters[:1]
        assert next_generation.overlap_index.indexes(next_generation.original_clusters)


@st.composite
def multi_component_graphs(draw):
    """Disjoint random components plus isolated vertices, labels interleaved."""
    n_comp = draw(st.integers(1, 5))
    g = Graph()
    label_pool = list(range(60))
    order = draw(st.permutations(label_pool))
    cursor = 0
    comps = []
    for _ in range(n_comp):
        size = draw(st.integers(1, 9))
        comps.append(order[cursor : cursor + size])
        cursor += size
    isolated = order[cursor : cursor + draw(st.integers(0, 4))]
    vertices = [v for comp in comps for v in comp] + list(isolated)
    shuffled = draw(st.permutations(vertices))
    g.add_vertices(f"g{v}" for v in shuffled)
    for comp in comps:
        names = [f"g{v}" for v in comp]
        for a, b in zip(names, names[1:]):  # a spanning path keeps it connected
            g.add_edge(a, b)
        chords = st.tuples(st.integers(0, len(names) - 1), st.integers(0, len(names) - 1))
        for i, j in draw(st.lists(chords, max_size=12)):
            if i != j:
                g.add_edge(names[i], names[j])
    return g


class TestRCMPerComponent:
    @settings(max_examples=120, deadline=None)
    @given(multi_component_graphs())
    def test_rcm_matches_reference_on_multi_component_graphs(self, g):
        assert rcm_order(g) == reference_rcm_order(g)

    @settings(max_examples=40, deadline=None)
    @given(multi_component_graphs(), st.data())
    def test_rcm_start_matches_reference(self, g, data):
        start = data.draw(st.sampled_from(g.vertices()))
        assert rcm_order(g, start=start) == reference_rcm_order(g, start=start)


class TestWarmPathStaysOnIndices:
    """A warm miss never rebuilds the network's CSR nor a filtered label graph."""

    OPS = (
        ("classify", {}),
        ("enrich", {"source": "filtered"}),
        ("filter", {}),
    )

    def test_no_label_round_trip(self, cre_bundle, monkeypatch):
        state = DatasetState("CRE", 0.02, cre_bundle)
        callers: dict[str, list[str]] = {"from_graph": [], "spanning_subgraph": []}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                stack = traceback.extract_stack(limit=4)[:-1]
                callers[name].append(
                    " <- ".join(f"{f.filename}:{f.lineno} {f.name}" for f in reversed(stack))
                )
                return fn(*args, **kwargs)

            return wrapper

        from_graph = CSRGraph.__dict__["from_graph"].__func__
        monkeypatch.setattr(
            CSRGraph, "from_graph", classmethod(counted("from_graph", from_graph))
        )
        monkeypatch.setattr(
            Graph, "spanning_subgraph", counted("spanning_subgraph", Graph.spanning_subgraph)
        )
        try:
            for method in METHODS:
                for parts in (1, 4):
                    for op, extra in self.OPS:
                        params = normalize_params(
                            op,
                            {"dataset": "CRE", "method": method, "ordering": "rcm",
                             "partitions": parts, **extra},
                            0.02,
                        )
                        HANDLERS[op](state, params)
        finally:
            state.batcher.stop()
        assert callers == {"from_graph": [], "spanning_subgraph": []}, callers
