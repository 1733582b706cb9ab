"""Regression pins for the determinism bugs the linter's first self-run found.

Each fixed site is pinned twice: behaviourally here, and statically by the
self-clean gate (reverting a fix re-fires ORD001 in
``tests/lint/test_self_clean.py``).
"""

from __future__ import annotations

from repro.graphs.generators import barabasi_albert, directed_scale_free


#: Post-fix edge-list pins (length, position-weighted checksum mod 1e9+7).
BA_EDGES, BA_SUM = 174, 28397256
DSF_EDGES, DSF_SUM = 308, 204109180


class TestGeneratorEdgeOrder:
    """Generated edge lists are a deterministic function of the seed alone.

    The checksums pin the post-fix byte-exact edge sequence: they fail both
    on a revert to set-order emission and on any accidental cross-version
    drift in the generation path.
    """

    @staticmethod
    def _checksum(graph) -> tuple[int, int]:
        sources, targets, _ = graph.edge_arrays()
        n = graph.num_vertices
        total = sum(
            (i + 1) * (int(u) * n + int(v))
            for i, (u, v) in enumerate(zip(sources, targets))
        )
        return len(sources), total % 1_000_000_007

    def test_barabasi_albert_edge_list_pinned(self):
        assert self._checksum(barabasi_albert(60, 3, seed=11)) == (BA_EDGES, BA_SUM)

    def test_directed_scale_free_edge_list_pinned(self):
        graph = directed_scale_free(80, average_out_degree=4.0, seed=5)
        assert self._checksum(graph) == (DSF_EDGES, DSF_SUM)

    def test_generation_is_repeatable(self):
        first = barabasi_albert(40, 2, seed=3)
        second = barabasi_albert(40, 2, seed=3)
        assert [tuple(a.tolist()) for a in first.edge_arrays()] == [
            tuple(a.tolist()) for a in second.edge_arrays()
        ]
