"""Tests for the dataset registry and its synthetic proxies."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidParameterError, UnknownDatasetError
from repro.graphs.datasets import (
    PAPER_DATASETS,
    SMALL_DATASETS,
    dataset_spec,
    list_datasets,
    load_dataset,
)
from repro.graphs.karate_data import KARATE_NUM_DIRECTED_EDGES, KARATE_NUM_VERTICES


class TestRegistry:
    def test_all_paper_datasets_registered(self):
        registered = set(list_datasets())
        assert set(PAPER_DATASETS) <= registered

    def test_small_datasets_subset_of_paper(self):
        assert set(SMALL_DATASETS) <= set(PAPER_DATASETS)

    def test_unknown_dataset_raises(self):
        with pytest.raises(UnknownDatasetError):
            dataset_spec("not_a_dataset")
        with pytest.raises(UnknownDatasetError):
            load_dataset("not_a_dataset")

    def test_spec_metadata_present(self):
        for name in PAPER_DATASETS:
            spec = dataset_spec(name)
            assert spec.description
            assert spec.substitution


class TestKarate:
    def test_exact_paper_size(self):
        graph = load_dataset("karate")
        assert graph.num_vertices == KARATE_NUM_VERTICES == 34
        assert graph.num_edges == KARATE_NUM_DIRECTED_EDGES == 156

    def test_symmetric(self):
        graph = load_dataset("karate")
        pairs = {(e.source, e.target) for e in graph.edges()}
        assert all((target, source) in pairs for source, target in pairs)

    def test_scale_ignored_for_real_data(self):
        assert load_dataset("karate", scale=0.1).num_vertices == 34

    def test_hubs_are_instructor_and_president(self):
        # Vertices 0 and 33 are the two factions' centres in Zachary's data.
        graph = load_dataset("karate")
        degrees = graph.out_degrees()
        top_two = set(int(v) for v in degrees.argsort()[-2:])
        assert top_two == {0, 33}


class TestSyntheticProxies:
    @pytest.mark.parametrize("name", ["ba_s", "ba_d"])
    def test_ba_sizes_match_paper(self, name):
        graph = load_dataset(name)
        spec = dataset_spec(name)
        assert graph.num_vertices == spec.paper_num_vertices
        # Edge counts match the BA construction (999 and 10,879 +- the clique).
        assert graph.num_edges == pytest.approx(spec.paper_num_edges, rel=0.05)

    @pytest.mark.parametrize("name", ["physicians", "ca_grqc", "wiki_vote"])
    def test_proxies_build_and_are_nontrivial(self, name):
        graph = load_dataset(name, scale=0.2)
        assert graph.num_vertices > 10
        assert graph.num_edges > graph.num_vertices / 2

    @pytest.mark.parametrize("name", ["com_youtube", "soc_pokec"])
    def test_large_proxies_scaled_down(self, name):
        graph = load_dataset(name, scale=0.1)
        spec = dataset_spec(name)
        assert graph.num_vertices < spec.paper_num_vertices

    def test_scale_changes_size(self):
        small = load_dataset("physicians", scale=0.5)
        large = load_dataset("physicians", scale=1.0)
        assert small.num_vertices < large.num_vertices

    def test_seed_changes_topology_but_not_size(self):
        a = load_dataset("ba_s", seed=1)
        b = load_dataset("ba_s", seed=2)
        assert a.num_vertices == b.num_vertices
        assert a != b

    def test_deterministic_given_seed(self):
        assert load_dataset("ba_d", seed=5) == load_dataset("ba_d", seed=5)

    def test_invalid_scale(self):
        for bad in (0.0, -1, float("nan"), float("inf"), float("-inf"), True):
            with pytest.raises(InvalidParameterError, match=rf"scale .*got {bad!r}$"):
                load_dataset("ba_s", scale=bad)

    def test_graph_named_after_dataset(self):
        assert load_dataset("wiki_vote", scale=0.2).name == "wiki_vote"

    @staticmethod
    def _checksum(graph) -> tuple[int, int]:
        sources, targets, _ = graph.edge_arrays()
        n = graph.num_vertices
        total = sum(
            (i + 1) * (int(u) * n + int(v))
            for i, (u, v) in enumerate(zip(sources, targets))
        )
        return len(sources), total % 1_000_000_007

    @pytest.mark.parametrize(
        "name, pinned",
        [
            ("wiki_vote", (34970, 220715648)),
            ("com_youtube", (21134, 355228429)),
            ("soc_pokec", (56752, 321620488)),
            ("physicians", (1048, 874260719)),
        ],
    )
    def test_directed_scale_free_proxies_pinned(self, name, pinned):
        # Captured with the per-draw Generator.choice generator: building one
        # preferential CDF per source must not change a single edge.
        assert self._checksum(load_dataset(name)) == pinned

    def test_pokec_denser_than_youtube(self):
        youtube = load_dataset("com_youtube", scale=0.2)
        pokec = load_dataset("soc_pokec", scale=0.2)
        assert (pokec.num_edges / pokec.num_vertices) > (
            youtube.num_edges / youtube.num_vertices
        )
