"""Self-test of the repository benchmark harness (``benchmarks/perf/run.py``)."""

from __future__ import annotations

import copy
import json
import re

import pytest

from . import run as harness

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
METRIC_KEYS = {"name", "unit", "better", "bound"}


@pytest.fixture(scope="module")
def definition():
    return harness.load_definition()


def test_benchmark_json_follows_its_schema(definition):
    benchmark, _, _ = definition
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert benchmark["paths"] == ["benchmarks/perf"]
    assert isinstance(benchmark["run_seconds"], int) and 1 <= benchmark["run_seconds"] <= 60
    assert 2 <= len(benchmark["workloads"]) <= 8
    assert 1 <= len(benchmark["end_to_end"]) <= 16
    assert 1 <= len(benchmark["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in benchmark[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in benchmark["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in benchmark["end_to_end"]:
        assert set(entry) == METRIC_KEYS and UNIT.fullmatch(entry["unit"])
        assert entry["better"] in ("lower", "higher") and 0 < entry["bound"] <= 0.25
    setup = [entry for entry in benchmark["end_to_end"] if entry["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(entry["bound"] for entry in benchmark["end_to_end"])
    for entry in benchmark["per_layer"]:
        assert set(entry) == METRIC_KEYS - {"bound"} and UNIT.fullmatch(entry["unit"])
        assert entry["better"] in ("lower", "higher")


def test_every_workload_document_loads(definition):
    benchmark, _, workloads = definition
    assert list(workloads) == [entry["name"] for entry in benchmark["workloads"]]
    assert all(workload.documents for workload in workloads.values())
    assert workloads["trials_wiki_vote_jobs2"].jobs == 2
    assert workloads["lint_self"].kind == "lint"


def test_definition_disagreement_is_refused(definition):
    benchmark, manifest, _ = definition
    broken = copy.deepcopy(manifest)
    del broken["workloads"]["lint_self"]
    with pytest.raises(harness.BenchmarkError, match="lint_self"):
        harness.load_workloads(benchmark, broken)
    broken = copy.deepcopy(manifest)
    broken["workloads"]["sweep_karate"]["documents"].pop()
    with pytest.raises(harness.BenchmarkError, match="sweep_karate"):
        harness.load_workloads(benchmark, broken)


def test_malformed_document_names_file_and_key(tmp_path):
    directory = tmp_path / "bad"
    directory.mkdir()
    (directory / "maximize.json").write_text(
        json.dumps({"kind": "maximize", "graph": {"dataset": "karate"}, "kk": 3})
    )
    benchmark = {"workloads": [{"name": "bad", "why": "test"}]}
    manifest = {"workloads": {"bad": {"documents": ["maximize.json"], "reps": 1}}}
    with pytest.raises(harness.BenchmarkError, match=r"maximize\.json.*'kk'"):
        harness.load_workloads(benchmark, manifest, tmp_path)


def test_layer_metrics_cover_the_declared_per_layer_names(definition):
    from repro.obs import Telemetry

    benchmark, _, workloads = definition
    values = harness.layer_metrics(workloads["ris_wiki_vote"], Telemetry(), None, 0.0)
    assert list(values) == [entry["name"] for entry in benchmark["per_layer"]]


def _metric(*samples: float) -> dict:
    q1, median, q3 = harness.quartiles(list(samples))
    return {"median": median, "q1": q1, "q3": q3, "samples": list(samples)}


LOWER = {"better": "lower", "bound": 0.1}


@pytest.mark.parametrize(
    "name, spec, base, new, expected",
    [
        ("wall_s", LOWER, (1.0, 1.01, 0.99), (1.02, 1.03, 1.01), "same"),
        ("wall_s", LOWER, (1.0, 1.01, 0.99), (1.3, 1.31, 1.29), "worse"),
        ("wall_s", LOWER, (1.0, 1.01, 0.99), (0.7, 0.71, 0.69), "better"),
        ("wall_s", LOWER, (1.0, 1.01, 0.99), (0.6, 1.0, 1.4), "unresolved"),
        # Spread wider than the bound, but every new sample beats every base one.
        ("wall_s", LOWER, (1.5, 2.0, 2.5), (0.5, 0.9, 1.3), "better"),
        ("influence", {"better": "higher", "bound": 0.02}, (100.0,), (95.0,), "worse"),
        ("influence", {"better": "higher", "bound": 0.02}, (100.0,), (101.0,), "same"),
        ("failed_ops", {"better": "lower", "bound": 0}, (0.0,), (0.25,), "worse"),
        ("failed_ops", {"better": "lower", "bound": 0}, (0.0,), (0.0,), "same"),
        # Doubling a 20 ms set-up stays under the absolute set-up floor.
        ("setup_s", {"better": "lower", "bound": 0.25}, (0.02,), (0.04,), "same"),
        ("setup_s", {"better": "lower", "bound": 0.25}, (1.0,), (1.5,), "worse"),
    ],
)
def test_compare_verdicts(name, spec, base, new, expected):
    assert harness.verdict(name, spec, _metric(*base), _metric(*new)) == expected


def _record(wall: tuple[float, ...], **overrides) -> dict:
    workload = {
        "seed": 0,
        "documents": {"maximize.json": "abc"},
        "digests": ["d0"],
        "counters": {"rr.sets": 20000},
        "end_to_end": {"wall_s": _metric(*wall), "failed_ops": _metric(0.0)},
    }
    workload.update(overrides)
    return {"workloads": {"ris_wiki_vote": workload}}


def test_compare_reports_verdicts_and_changed_work(definition):
    benchmark, manifest, _ = definition
    base = _record((1.0, 1.01, 0.99))
    lines, worse = harness.compare(base, _record((1.0, 1.0, 1.0)), benchmark, manifest)
    assert not worse and [line.split()[-1] for line in lines[1:]] == ["same", "same"]
    changed = _record((1.5, 1.5, 1.5), counters={"rr.sets": 40000}, digests=["d1"])
    lines, worse = harness.compare(base, changed, benchmark, manifest)
    assert worse
    assert any("work changed: rr.sets 20000 -> 40000" in line for line in lines)
    assert any("output changed" in line for line in lines)


@pytest.mark.parametrize(
    "override", [{"seed": 1}, {"documents": {"maximize.json": "other"}}]
)
def test_compare_refuses_other_documents_or_seed(definition, override):
    benchmark, manifest, _ = definition
    with pytest.raises(harness.BenchmarkError, match="ris_wiki_vote"):
        harness.compare(_record((1.0,)), _record((1.0,), **override), benchmark, manifest)


def test_one_lint_repetition_emits_every_end_to_end_metric(definition):
    benchmark, _, workloads = definition
    workload = workloads["lint_self"]
    rep = harness.run_repetition(workload, 0)
    assert rep.problems == []
    samples = harness.end_to_end_samples(workload, [rep])
    run = harness.WorkloadRun(workload, 0, [rep], samples, None, {})
    line = json.loads(harness.result_line(run, benchmark, False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] == 1 and line["failed"] == 0
    declared = {entry["name"]: entry["unit"] for entry in benchmark["end_to_end"]}
    assert {name: metric["unit"] for name, metric in line["metrics"].items()} == declared
    assert all(metric["value"] > 0 for metric in line["metrics"].values())
