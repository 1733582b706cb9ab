"""Tests for edge-list read/write round trips."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphConstructionError, InvalidParameterError
from repro.graphs.builder import GraphBuilder
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.probability import assign_probabilities
from repro.graphs.datasets import load_dataset


def same_edges(graph, other):
    """Equal edge multisets and probabilities, ignoring the display name."""
    def key(g):
        return sorted((e.source, e.target, round(e.probability, 12)) for e in g.edges())

    return graph.num_vertices == other.num_vertices and key(graph) == key(other)


@pytest.fixture
def sample_graph():
    builder = GraphBuilder(5)
    builder.add_edge(0, 1, 0.5)
    builder.add_edge(1, 2, 0.25)
    builder.add_edge(3, 4, 1.0)
    return builder.build(name="sample")


class TestWriteRead:
    def test_round_trip_with_probabilities(self, sample_graph, tmp_path):
        path = tmp_path / "graph.txt"
        write_edge_list(sample_graph, path)
        loaded = read_edge_list(path, num_vertices=5)
        assert same_edges(sample_graph, loaded)

    def test_round_trip_without_probabilities(self, sample_graph, tmp_path):
        path = tmp_path / "graph.txt"
        write_edge_list(sample_graph, path, include_probabilities=False)
        loaded = read_edge_list(path, num_vertices=5)
        assert loaded.num_edges == sample_graph.num_edges
        # probabilities default to 1.0 when the column is absent
        assert all(edge.probability == 1.0 for edge in loaded.edges())

    def test_round_trip_karate_iwc(self, tmp_path):
        graph = assign_probabilities(load_dataset("karate"), "iwc")
        path = tmp_path / "karate.txt"
        write_edge_list(graph, path)
        loaded = read_edge_list(path, num_vertices=graph.num_vertices)
        assert same_edges(graph, loaded)

    def test_header_and_comments_ignored(self, sample_graph, tmp_path):
        path = tmp_path / "graph.txt"
        write_edge_list(sample_graph, path, header="first line\nsecond line")
        text = path.read_text()
        assert text.startswith("# first line")
        loaded = read_edge_list(path, num_vertices=5)
        assert same_edges(sample_graph, loaded)

    def test_name_defaults_to_stem(self, sample_graph, tmp_path):
        path = tmp_path / "mynetwork.txt"
        write_edge_list(sample_graph, path)
        assert read_edge_list(path).name == "mynetwork"

    def test_undirected_read_doubles_edges(self, tmp_path):
        path = tmp_path / "undirected.txt"
        path.write_text("0 1\n1 2\n")
        graph = read_edge_list(path, directed=False)
        assert graph.num_edges == 4


class TestMalformedInput:
    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 0.5 extra\n")
        with pytest.raises(GraphConstructionError):
            read_edge_list(path)

    def test_non_integer_endpoint(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphConstructionError):
            read_edge_list(path)

    def test_non_numeric_probability(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 high\n")
        with pytest.raises(GraphConstructionError):
            read_edge_list(path)

    @pytest.mark.parametrize(
        "record, error, message",
        [
            ("0 1 nan", InvalidParameterError, r"probability must lie in \(0, 1\], got nan"),
            ("0 1 1.5", InvalidParameterError, r"probability must lie in \(0, 1\], got 1.5"),
            ("-1 2 0.5", GraphConstructionError, r"vertex ids must be non-negative"),
            ("2 2 0.5", GraphConstructionError, r"self-loop \(2, 2\)"),
            ("0 5 0.5", GraphConstructionError, r"edge \(0, 5\) exceeds fixed vertex count 5"),
        ],
    )
    def test_rejected_record_names_its_line(self, tmp_path, record, error, message):
        path = tmp_path / "bad.txt"
        path.write_text(f"# header\n0 1 0.5\n{record}\n")
        with pytest.raises(error, match=rf"^line 3: {message}"):
            read_edge_list(path, num_vertices=5)

    def test_undecodable_file_names_its_path(self, tmp_path):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe0\x00 \x001\x00\n\x00")
        with pytest.raises(GraphConstructionError, match="utf16.txt: not a UTF-8"):
            read_edge_list(path)

    def test_percent_comments_skipped(self, tmp_path):
        path = tmp_path / "konect.txt"
        path.write_text("% KONECT header\n0 1\n")
        assert read_edge_list(path).num_edges == 1

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_text("\n0 1\n\n1 2\n")
        assert read_edge_list(path).num_edges == 2


class TestDuplicateRecords:
    """read_edge_list rejects silent duplicate arcs by default."""

    def test_duplicate_arc_raises_with_line_numbers(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("0 1\n1 2\n0 1\n")
        with pytest.raises(
            GraphConstructionError, match=r"line 3.*duplicate edge \(0, 1\).*line 1"
        ):
            read_edge_list(path)

    def test_comment_lines_count_toward_line_numbers(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("# header\n0 1\n\n0 1 0.5\n")
        with pytest.raises(GraphConstructionError, match="line 4"):
            read_edge_list(path)

    def test_undirected_double_listing_raises(self, tmp_path):
        # One undirected tie listed in both orientations: under
        # directed=False each line expands to both arcs, so line 2 would
        # double-flip the tie.
        path = tmp_path / "undirected_dup.txt"
        path.write_text("0 1\n1 0\n")
        with pytest.raises(GraphConstructionError, match=r"line 2.*duplicate"):
            read_edge_list(path, directed=False)

    def test_undirected_double_listing_first_policy(self, tmp_path):
        path = tmp_path / "undirected_dup.txt"
        path.write_text("0 1 0.5\n1 0 0.25\n1 2 0.75\n")
        graph = read_edge_list(path, directed=False, on_duplicate="first")
        assert graph.num_edges == 4  # {0,1} once in each direction + {1,2}
        assert graph.out_probabilities(0)[0] == 0.5
        assert graph.out_probabilities(1).tolist() == [0.5, 0.75]

    def test_duplicate_first_keeps_first_probability(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("0 1 0.5\n0 1 0.25\n")
        graph = read_edge_list(path, on_duplicate="first")
        assert graph.num_edges == 1
        assert graph.out_probabilities(0)[0] == 0.5

    def test_duplicate_last_keeps_last_probability(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("0 1 0.5\n0 1 0.25\n")
        graph = read_edge_list(path, on_duplicate="last")
        assert graph.num_edges == 1
        assert graph.out_probabilities(0)[0] == 0.25

    def test_duplicate_allow_restores_parallel_edges(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("0 1\n0 1\n")
        graph = read_edge_list(path, on_duplicate="allow")
        assert graph.num_edges == 2

    def test_unknown_policy_rejected(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("0 1\n")
        with pytest.raises(GraphConstructionError, match="on_duplicate"):
            read_edge_list(path, on_duplicate="merge")

    def test_distinct_arcs_unaffected_by_default(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("0 1\n1 0\n1 2\n")
        assert read_edge_list(path).num_edges == 3
