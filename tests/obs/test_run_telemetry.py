"""Integration: telemetry through ``repro.run`` and the CLI entry points.

Pins the three contract points of the observability subsystem:

* opt-in — a spec without telemetry produces the exact pre-telemetry
  payload (no ``"telemetry"`` key, same numbers);
* fidelity — the counters reproduce the legacy cost accounting exactly;
* determinism — the draw-deterministic counters and the span-tree shape are
  identical for every explicit ``jobs`` value.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro import (
    EstimatorSpec,
    GraphSpec,
    MaximizeSpec,
    RunContext,
    Telemetry,
    TrialsSpec,
)
from repro.cli import main
from repro.obs import read_trace, validate_trace

KARATE = GraphSpec(dataset="karate", probability="uc0.1")


def _maximize_spec(telemetry=None, jobs=None) -> MaximizeSpec:
    return MaximizeSpec(
        graph=KARATE,
        estimator=EstimatorSpec(approach="ris", num_samples=64),
        k=2,
        pool_size=300,
        context=RunContext(seed=1, jobs=jobs, telemetry=telemetry),
    )


def _trials_spec(telemetry=None, jobs=None) -> TrialsSpec:
    return TrialsSpec(
        graph=KARATE,
        estimator=EstimatorSpec(approach="ris", num_samples=16),
        k=1,
        num_trials=4,
        pool_size=200,
        context=RunContext(seed=1, jobs=jobs, telemetry=telemetry),
    )


class TestOptIn:
    def test_plain_spec_has_no_telemetry_block(self):
        result = repro.run(_maximize_spec())
        assert result.telemetry is None
        assert "telemetry" not in result.to_dict()

    def test_payload_is_unchanged_by_instrumentation(self):
        plain = repro.run(_maximize_spec()).to_dict()
        observed = repro.run(_maximize_spec(telemetry=Telemetry())).to_dict()
        telemetry_block = observed.pop("telemetry")
        assert telemetry_block  # recorded something...
        assert observed == plain  # ...without touching the payload

    def test_spec_document_does_not_leak_telemetry(self):
        result = repro.run(_maximize_spec(telemetry=Telemetry()))
        document = result.to_dict()
        assert "telemetry" not in json.dumps(document["spec"])


class TestCostFidelity:
    def test_counters_reproduce_maximize_cost_totals(self):
        tel = Telemetry()
        result = repro.run(_maximize_spec(telemetry=tel))
        cost = result.to_dict()["cost"]
        counters = tel.counters
        assert counters["traversal.vertices"] == cost["traversal_vertices"]
        assert counters["traversal.edges"] == cost["traversal_edges"]
        assert counters["sample.vertices"] == cost["sample_vertices"]
        assert counters["sample.edges"] == cost["sample_edges"]

    def test_counters_reproduce_trials_cost_totals(self):
        tel = Telemetry()
        result = repro.run(_trials_spec(telemetry=tel))
        totals = {"traversal_vertices": 0, "traversal_edges": 0}
        for outcome in result.trial_set.outcomes:
            totals["traversal_vertices"] += outcome.cost.traversal.vertices
            totals["traversal_edges"] += outcome.cost.traversal.edges
        assert tel.counters["traversal.vertices"] == totals["traversal_vertices"]
        assert tel.counters["traversal.edges"] == totals["traversal_edges"]
        assert tel.counters["trials.count"] == 4

    def test_span_tree_covers_the_run_phases(self):
        tel = Telemetry()
        repro.run(_maximize_spec(telemetry=tel))
        paths = {path for path, _, _ in tel.span_table()}
        assert ("run.maximize",) in paths
        assert ("run.maximize", "graph.build") in paths
        assert ("run.maximize", "greedy.build") in paths
        assert ("run.maximize", "oracle.build") in paths
        assert ("run.maximize", "oracle.score") in paths


class TestJobsDeterminism:
    def test_deterministic_counters_match_across_jobs(self):
        tel_serial, tel_parallel = Telemetry(), Telemetry()
        serial = repro.run(_trials_spec(telemetry=tel_serial, jobs=1))
        parallel = repro.run(_trials_spec(telemetry=tel_parallel, jobs=4))
        assert serial.trial_set == parallel.trial_set  # draws bit-identical
        assert (
            tel_serial.deterministic_counters()
            == tel_parallel.deterministic_counters()
        )

    def test_span_shape_matches_across_jobs_outside_runtime(self):
        tel_serial, tel_parallel = Telemetry(), Telemetry()
        repro.run(_trials_spec(telemetry=tel_serial, jobs=1))
        repro.run(_trials_spec(telemetry=tel_parallel, jobs=4))

        def shape(tel):
            return {
                path
                for path, _, _ in tel.span_table()
                if not path[-1].startswith("runtime.")
            }

        assert shape(tel_serial) == shape(tel_parallel)

    def test_parallel_run_records_runtime_metrics(self):
        tel = Telemetry()
        repro.run(_trials_spec(telemetry=tel, jobs=2))
        counters = tel.counters
        assert counters["runtime.tasks"] >= 4
        assert counters["runtime.pickle_bytes"] > 0
        assert counters["runtime.kernel_seconds"] > 0.0


class TestCLI:
    ARGS = [
        "maximize", "--dataset", "karate", "--samples", "64", "-k", "2",
        "--pool-size", "300",
    ]

    def test_json_output_carries_telemetry_block(self, capsys):
        assert main(self.ARGS + ["--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        telemetry = document["telemetry"]
        assert telemetry["counters"]["traversal.vertices"] == (
            document["cost"]["traversal_vertices"]
        )
        assert telemetry["spans"][0]["name"] == "run.maximize"

    def test_trace_flag_writes_a_valid_trace(self, tmp_path, capsys):
        target = tmp_path / "run.jsonl"
        assert main(self.ARGS + ["--trace", str(target)]) == 0
        capsys.readouterr()
        records = read_trace(target)
        assert validate_trace(records) == len(records)
        counter_names = {r["name"] for r in records if r["type"] == "counter"}
        assert "traversal.vertices" in counter_names

    def test_repro_trace_env_sets_the_default(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(target))
        assert main(self.ARGS) == 0
        capsys.readouterr()
        assert validate_trace(read_trace(target)) > 0

    def test_profile_flag_prints_tree_to_stderr(self, capsys):
        assert main(self.ARGS + ["--profile"]) == 0
        captured = capsys.readouterr()
        assert "telemetry profile" in captured.err
        assert "run.maximize" in captured.err
        assert "telemetry profile" not in captured.out

    def test_out_file_is_complete_json_matching_stdout(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        assert main(self.ARGS + ["--format", "json", "--out", str(target)]) == 0
        stdout_document = json.loads(capsys.readouterr().out)
        file_document = json.loads(target.read_text())
        assert file_document == stdout_document
        assert [p.name for p in tmp_path.iterdir()] == ["result.json"]
