"""Repository benchmark: fixed workloads run through ``repro.run`` / ``repro lint``.

Run from the repository root::

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace {0,1}] [--out FILE] [--compare BASE.json]

(``PYTHONPATH=src python -m benchmarks.perf`` takes the same flags.)

``BENCHMARK.json`` at the repository root names the workloads, the
end-to-end metrics with their regression bounds and the per-layer metrics.
``workloads.json`` beside this file gives each workload's documents (under
``workloads/<name>/``), its minimum repetition count and the outputs it must
reproduce at seed 0.

Each repetition runs in a fresh interpreter (``child.py``) with telemetry
off and ``OMP_NUM_THREADS=1``; repetitions continue until both the
workload's repetition count and ``--seconds`` are reached, and the
end-to-end metrics are medians over them.  ``--trace 1`` adds one traced
repetition whose telemetry gives the per-layer metrics (a workload whose
documents set ``context.jobs`` adds a traced ``jobs=1`` repetition too).
Without ``--trace`` both are reported.  With one workload selected, the last
line of stdout is a JSON object::

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}

``--out`` writes every sample, the per-layer values and the deterministic
counters as JSON, with the traced repetitions' telemetry beside it as JSONL
traces.  ``--compare BASE.json`` prints a verdict per workload and
end-to-end metric against such a file and exits 1 if any is ``worse``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
MANIFEST_FILE = HERE / "workloads.json"
WORKLOAD_DIR = HERE / "workloads"
CHILD = HERE / "child.py"

#: A repetition that has not replied by then is a hung run, not a slow one.
CHILD_TIMEOUT_S = 150.0
#: Relative tolerance of the bit-parallel influence check (its draw order
#: differs from the scalar golden stream, so no digest is pinned).
INFLUENCE_TOLERANCE = 0.02
#: Set-up differences below this many seconds are never a regression: the
#: lint set-up is about 0.06 s, where timer noise alone is a large share.
SETUP_FLOOR_S = 0.05
#: Environment variables that would change what a document runs.
_SCRUBBED_ENV = ("REPRO_BITPARALLEL", "REPRO_TRACE")


class BenchmarkError(Exception):
    """A benchmark definition, document or child process is unusable."""


# --------------------------------------------------------------------------- #
# definition: BENCHMARK.json + workloads.json + the committed documents
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Workload:
    """One workload: its documents and what they must reproduce at seed 0."""

    name: str
    reps: int
    documents: tuple[Path, ...]
    kind: str
    jobs: int | None = None
    digests: tuple[str, ...] | None = None
    influence: float | None = None

    def document_hashes(self) -> dict[str, str]:
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in self.documents
        }


def _read_json(path: Path) -> Any:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise BenchmarkError(f"{path}: {error}") from None


def _load_document(path: Path) -> tuple[str, int | None]:
    """Validate one workload document; return its kind and ``context.jobs``."""
    data = _read_json(path)
    if isinstance(data, dict) and data.get("kind") == "lint":
        paths = data.get("paths")
        if set(data) != {"kind", "paths"} or not isinstance(paths, list) or not paths:
            raise BenchmarkError(f"{path}: a lint document has exactly 'kind' and 'paths'")
        for entry in paths:
            if not (isinstance(entry, str) and (ROOT / entry).is_dir()):
                raise BenchmarkError(f"{path}: key 'paths': {entry!r} is not a directory")
        return "lint", None
    from repro import load_spec
    from repro.exceptions import SpecValidationError

    try:
        spec = load_spec(path)
    except SpecValidationError as error:
        raise BenchmarkError(f"{path}: {error}") from None
    return spec.kind, spec.context.jobs


def load_workloads(
    benchmark: dict, manifest: dict, workload_dir: Path = WORKLOAD_DIR
) -> dict[str, Workload]:
    """Cross-check BENCHMARK.json, the manifest and the documents on disk.

    Every document is loaded here, so a malformed one stops the run before
    anything is timed, with an error naming the file and the key.
    """
    declared = [entry["name"] for entry in benchmark["workloads"]]
    described = manifest.get("workloads", {})
    if sorted(declared) != sorted(described):
        raise BenchmarkError(
            f"BENCHMARK.json declares workloads {sorted(declared)} but "
            f"{MANIFEST_FILE.name} describes {sorted(described)}"
        )
    workloads = {}
    for name in declared:
        entry = described[name]
        directory = workload_dir / name
        listed = sorted(entry.get("documents", []))
        on_disk = sorted(path.name for path in directory.glob("*.json"))
        if not listed or listed != on_disk:
            raise BenchmarkError(
                f"workload {name!r} lists documents {listed} but {directory} holds {on_disk}"
            )
        reps = entry.get("reps")
        if not isinstance(reps, int) or isinstance(reps, bool) or reps < 1:
            raise BenchmarkError(f"workload {name!r}: 'reps' must be a positive int")
        documents = tuple(directory / file for file in listed)
        loaded = [_load_document(path) for path in documents]
        kinds = {kind for kind, _ in loaded}
        if "lint" in kinds and len(documents) > 1:
            raise BenchmarkError(f"workload {name!r}: a lint workload has one document")
        digests = entry.get("digests")
        if digests is not None and len(digests) != len(documents):
            raise BenchmarkError(
                f"workload {name!r}: {len(digests)} digests for {len(documents)} documents"
            )
        workloads[name] = Workload(
            name=name,
            reps=reps,
            documents=documents,
            kind="lint" if "lint" in kinds else "spec",
            jobs=max((jobs for _, jobs in loaded if jobs is not None), default=None),
            digests=tuple(digests) if digests is not None else None,
            influence=entry.get("influence"),
        )
    return workloads


def load_definition() -> tuple[dict, dict, dict[str, Workload]]:
    """BENCHMARK.json, the manifest, and the validated workloads."""
    benchmark = _read_json(BENCHMARK_FILE)
    manifest = _read_json(MANIFEST_FILE)
    return benchmark, manifest, load_workloads(benchmark, manifest)


# --------------------------------------------------------------------------- #
# repetitions
# --------------------------------------------------------------------------- #
@dataclass
class Rep:
    """One child repetition's reply plus the problems its outputs showed."""

    reply: dict
    traced: bool
    problems: list[str] = field(default_factory=list)

    @property
    def digests(self) -> list[str]:
        return [document["digest"] for document in self.reply.get("documents", [])]

    def telemetry(self) -> Any:
        """The repetition's telemetry rebuilt as a :class:`repro.obs.Telemetry`."""
        from repro.obs import Telemetry, TelemetrySnapshot

        state = self.reply["telemetry"]
        telemetry = Telemetry()
        telemetry.merge(
            TelemetrySnapshot(
                counters=tuple((name, value) for name, value in state["counters"]),
                gauges=tuple((name, value) for name, value in state["gauges"]),
                spans=tuple((tuple(path), count, sec) for path, count, sec in state["spans"]),
                events=tuple(state["events"]),
            )
        )
        return telemetry


def _child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in _SCRUBBED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    env["OMP_NUM_THREADS"] = "1"
    # Outputs never depend on hash order; timings should not either.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_repetition(
    workload: Workload, seed: int, *, traced: bool = False, jobs: int | None = None
) -> Rep:
    """Run one repetition in a fresh interpreter and check its outputs."""
    request: dict[str, Any] = {"seed": seed, "trace": traced, "jobs": jobs}
    if workload.kind == "lint":
        request["lint"] = _read_json(workload.documents[0])["paths"]
    else:
        request["specs"] = [str(path.relative_to(ROOT)) for path in workload.documents]
    request["spawned"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(request)],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(
            f"{workload.name}: a repetition did not finish within {CHILD_TIMEOUT_S:.0f} s"
        ) from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchmarkError(
            f"{workload.name}: repetition exited with code {proc.returncode}\n{tail}"
        )
    rep = Rep(reply=json.loads(proc.stdout.strip().splitlines()[-1]), traced=traced)
    rep.problems = check_outputs(workload, rep, seed)
    return rep


def check_outputs(workload: Workload, rep: Rep, seed: int) -> list[str]:
    """Problems with one repetition's outputs (empty when they are correct)."""
    if workload.kind == "lint":
        findings = rep.reply["lint"]["findings"]
        return [f"lint reported {findings} findings"] if findings else []
    problems = []
    for path, document in zip(workload.documents, rep.reply["documents"]):
        k, n = document["k"], document["n"]
        for seed_set, influence in document["solutions"]:
            if len(set(seed_set)) != k or not all(0 <= vertex < n for vertex in seed_set):
                problems.append(
                    f"{path.name}: seed set {seed_set} is not {k} distinct vertices of {n}"
                )
            if not (math.isfinite(influence) and k <= influence <= n):
                problems.append(f"{path.name}: influence {influence} outside [{k}, {n}]")
    if seed == 0 and workload.digests is not None and tuple(rep.digests) != workload.digests:
        problems.append("result digest differs from the one recorded for seed 0")
    if seed == 0 and workload.influence is not None:
        influence = mean_influence(rep)
        if abs(influence - workload.influence) > INFLUENCE_TOLERANCE * workload.influence:
            problems.append(
                f"influence {influence:.3f} is not within {INFLUENCE_TOLERANCE:.0%} "
                f"of the recorded {workload.influence}"
            )
    return problems


def mean_influence(rep: Rep) -> float:
    values = [
        influence
        for document in rep.reply["documents"]
        for _, influence in document["solutions"]
    ]
    return sum(values) / len(values)


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of the samples (inclusive method; one sample repeats)."""
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, median, q3


def end_to_end_samples(workload: Workload, reps: list[Rep]) -> dict[str, list[float]]:
    """Per-repetition samples of every end-to-end metric.

    Timings come from the untraced repetitions only; ``failed_ops`` counts
    every repetition, traced ones included.
    """
    timed = [rep for rep in reps if not rep.traced]
    samples = {
        "wall_s": [rep.reply["wall_s"] for rep in timed],
        "setup_s": [rep.reply["setup_s"] for rep in timed],
        "peak_rss_mb": [rep.reply["peak_rss_mb"] for rep in timed],
    }
    if workload.kind != "lint":
        samples["influence"] = [mean_influence(rep) for rep in timed]
    samples["failed_ops"] = [sum(1 for rep in reps if rep.problems) / len(reps)]
    return samples


def layer_metrics(
    workload: Workload, tel: Any, jobs1: Any | None, trace_overhead_s: float
) -> dict[str, float | None]:
    """Per-layer values from the traced repetition's telemetry ``tel`` (and
    ``jobs1``, the same documents traced at ``jobs=1``); ``None`` when the
    program records no such span or counter."""
    table = tel.span_table()
    counters = tel.counters

    def span(name: str) -> float | None:
        seconds = [sec for path, _, sec in table if path[-1] == name]
        return sum(seconds) if seconds else None

    def ratio(numerator: float | None, denominator: float | None, scale: float = 1.0):
        if numerator is None or not denominator:
            return None
        return numerator / denominator * scale

    def add(*values: float | None) -> float | None:
        present = [value for value in values if value is not None]
        return sum(present) if present else None

    build, select = span("greedy.build"), span("greedy.select")
    calls = counters.get("greedy.estimate_calls")
    dispatch, kernel = span("runtime.dispatch"), counters.get("runtime.kernel_seconds")
    trials, trials_s = counters.get("trials.count"), span("trials.run")
    lint_files = counters.get("lint.files")
    under_run = [(path, sec) for path, _, sec in table if path[0].startswith("run.")]
    roots = [(path, sec) for path, sec in under_run if len(path) == 1]
    self_s = None
    if roots:
        children = sum(sec for path, sec in under_run if len(path) == 2)
        self_s = sum(sec for _, sec in roots) - children
    efficiency = None
    if jobs1 is not None and roots:
        (run_name,), _ = roots[0]
        efficiency = ratio(
            jobs1.span_seconds(run_name), workload.jobs * tel.span_seconds(run_name)
        )
    return {
        "graphs.build_s": span("graph.build"),
        "graphs.edges": tel.gauges.get("graph.edges"),
        "algorithms.build_s": build,
        "algorithms.select_s": select,
        "algorithms.estimate_calls": calls,
        "algorithms.select_us_per_call": ratio(select, calls, 1e6),
        "diffusion.traversal_edges": counters.get("traversal.edges"),
        "diffusion.traversal_vertices": counters.get("traversal.vertices"),
        "diffusion.sample_vertices": counters.get("sample.vertices"),
        "diffusion.sample_edges": counters.get("sample.edges"),
        "diffusion.edges_per_s": ratio(counters.get("traversal.edges"), add(build, select)),
        "estimation.oracle_build_s": span("oracle.build"),
        "estimation.oracle_score_s": span("oracle.score"),
        "estimation.oracle_rr_sets": counters.get("oracle.rr_sets"),
        "estimation.oracle_rr_vertices": counters.get("oracle.rr_vertices"),
        "runtime.chunks": counters.get("runtime.chunks"),
        "runtime.pickle_bytes": counters.get("runtime.pickle_bytes"),
        "runtime.serialize_s": span("runtime.serialize"),
        "runtime.dispatch_s": dispatch,
        "runtime.kernel_s": kernel,
        "runtime.idle_s": (
            workload.jobs * dispatch - kernel
            if workload.jobs and dispatch is not None and kernel is not None
            else None
        ),
        "runtime.parallel_efficiency": efficiency,
        "experiments.trials": trials,
        "experiments.sweep_points": counters.get("sweep.points"),
        "experiments.trials_s": trials_s,
        "experiments.ms_per_trial": ratio(trials_s, trials, 1e3),
        "api.self_s": self_s,
        "obs.trace_overhead_s": trace_overhead_s,
        "lint.files": lint_files,
        "lint.findings": counters.get("lint.findings"),
        "lint.ms_per_file": ratio(span("lint.run"), lint_files, 1e3),
    }


@dataclass
class WorkloadRun:
    """Everything one workload's run measured."""

    workload: Workload
    seed: int
    reps: list[Rep]
    end_to_end: dict[str, list[float]]
    per_layer: dict[str, float | None] | None
    traces: dict[str, Any]

    @property
    def failed(self) -> int:
        return sum(1 for rep in self.reps if rep.problems)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool | None) -> WorkloadRun:
    """Measure one workload: timed repetitions, then (unless ``trace`` is
    False) the traced repetition(s) that give the per-layer split."""
    reps: list[Rep] = []
    start = time.perf_counter()
    while len(reps) < workload.reps or time.perf_counter() - start < seconds:
        reps.append(run_repetition(workload, seed))
    per_layer, traces = None, {}
    if trace is not False:
        untraced_wall_s = quartiles([rep.reply["wall_s"] for rep in reps])[1]
        traced = run_repetition(workload, seed, traced=True)
        reps.append(traced)
        traces["trace"] = traced.telemetry()
        if workload.jobs is not None and workload.jobs > 1:
            jobs1 = run_repetition(workload, seed, traced=True, jobs=1)
            reps.append(jobs1)
            traces["jobs1.trace"] = jobs1.telemetry()
            if jobs1.digests != traced.digests:
                traced.problems.append("payload differs from the same documents at jobs=1")
        per_layer = layer_metrics(
            workload,
            traces["trace"],
            traces.get("jobs1.trace"),
            traced.reply["wall_s"] - untraced_wall_s,
        )
    return WorkloadRun(workload, seed, reps, end_to_end_samples(workload, reps), per_layer, traces)


# --------------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------------- #
def metric_specs(benchmark: dict, manifest: dict) -> dict[str, dict]:
    """End-to-end metric definitions: BENCHMARK.json's plus the manifest's quality ones."""
    return {entry["name"]: entry for entry in [*benchmark["end_to_end"], *manifest["quality"]]}


def _fmt(value: float | None) -> str:
    if value is None:
        return "absent"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def render_run(run: WorkloadRun, benchmark: dict, manifest: dict) -> str:
    specs = metric_specs(benchmark, manifest)
    timed = sum(1 for rep in run.reps if not rep.traced)
    lines = [
        f"== {run.workload.name}  seed {run.seed}  {timed} timed + "
        f"{len(run.reps) - timed} traced repetitions  ({run.failed} failed) =="
    ]
    for name, samples in run.end_to_end.items():
        q1, median, q3 = quartiles(samples)
        lines.append(
            f"  {name:<14s} {_fmt(median):>12s} {specs[name]['unit']:<8s}"
            f" median of {len(samples)}  [q1 {_fmt(q1)}, q3 {_fmt(q3)}]"
        )
    for rep in run.reps:
        for problem in rep.problems:
            lines.append(f"  FAILED: {problem}")
    if run.per_layer is not None:
        units = {entry["name"]: entry["unit"] for entry in benchmark["per_layer"]}
        lines.append("  per layer (traced repetition):")
        for name, value in run.per_layer.items():
            lines.append(f"    {name:<32s} {_fmt(value):>14s} {units[name]}")
    return "\n".join(lines)


def run_record(run: WorkloadRun, benchmark: dict, manifest: dict) -> dict:
    """The ``--out`` JSON form of one workload's run."""
    from repro.obs import is_deterministic_counter

    specs = metric_specs(benchmark, manifest)
    end_to_end = {}
    for name, samples in run.end_to_end.items():
        q1, median, q3 = quartiles(samples)
        end_to_end[name] = {
            "unit": specs[name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "samples": samples,
        }
    counters = {}
    if "trace" in run.traces:
        counters = {
            name: value
            for name, value in sorted(run.traces["trace"].counters.items())
            if is_deterministic_counter(name)
        }
    return {
        "seed": run.seed,
        "documents": run.workload.document_hashes(),
        "attempted": len(run.reps),
        "failed": run.failed,
        "problems": [problem for rep in run.reps for problem in rep.problems],
        "digests": run.reps[0].digests,
        "end_to_end": end_to_end,
        "per_layer": run.per_layer,
        "counters": counters,
    }


def result_line(run: WorkloadRun, benchmark: dict, trace: bool | None) -> str:
    """The last stdout line: correctness counts and the BENCHMARK.json metrics."""
    metrics = {}
    if trace is not True:
        for entry in benchmark["end_to_end"]:
            value = quartiles(run.end_to_end[entry["name"]])[1]
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    if run.per_layer is not None:
        for entry in benchmark["per_layer"]:
            # A layer the workload never enters reports 0 work and 0 time.
            value = run.per_layer[entry["name"]]
            metrics[entry["name"]] = {"value": 0 if value is None else value, "unit": entry["unit"]}
    return json.dumps(
        {
            "correct": run.failed == 0,
            "attempted": len(run.reps),
            "failed": run.failed,
            "metrics": metrics,
        }
    )


# --------------------------------------------------------------------------- #
# --compare
# --------------------------------------------------------------------------- #
def verdict(name: str, spec: dict, base: dict, new: dict) -> str:
    """better / same / worse (beyond the bound) / unresolved (spread > bound)."""
    bound, lower = spec["bound"], spec["better"] == "lower"
    sign = 1.0 if lower else -1.0
    scale = abs(base["median"]) or 1.0
    if bound > 0:
        spreads = [(side["q3"] - side["q1"]) / (abs(side["median"]) or 1.0) for side in (base, new)]
        if max(spreads) > bound:
            # Wider than the bound: only a clean separation counts.
            if all(sign * (b - n) > 0 for b in base["samples"] for n in new["samples"]):
                return "better"
            return "unresolved"
    allowed = bound * scale
    if name == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    worsening = sign * (new["median"] - base["median"])
    if worsening > allowed:
        return "worse"
    if -worsening > allowed:
        return "better"
    return "same"


def compare(base: dict, current: dict, benchmark: dict, manifest: dict) -> tuple[list[str], bool]:
    """Verdict lines for every shared (workload, end-to-end metric) pair.

    Returns the lines and whether any verdict is ``worse``.  Refuses, with a
    :class:`BenchmarkError`, when a shared workload ran other documents or
    another seed, because then the two runs measured different work.
    """
    specs = metric_specs(benchmark, manifest)
    lines = [
        f"{'workload':<26s} {'metric':<12s} {'base median [q1, q3]':>32s}"
        f" {'new median [q1, q3]':>32s} {'change':>8s}  verdict"
    ]
    any_worse = False
    shared = [name for name in current["workloads"] if name in base["workloads"]]
    if not shared:
        raise BenchmarkError("the two runs share no workload")
    for name in shared:
        old, new = base["workloads"][name], current["workloads"][name]
        refuse_incomparable(name, old, new["documents"], new["seed"])
        for metric, new_metric in new["end_to_end"].items():
            old_metric = old["end_to_end"].get(metric)
            if old_metric is None:
                continue
            result = verdict(metric, specs[metric], old_metric, new_metric)
            any_worse = any_worse or result == "worse"
            change = (
                (new_metric["median"] - old_metric["median"]) / old_metric["median"]
                if old_metric["median"]
                else 0.0
            )
            lines.append(
                f"{name:<26s} {metric:<12s}"
                f" {_side(old_metric):>32s} {_side(new_metric):>32s} {change:>+8.1%}  {result}"
            )
        if old["digests"] != new["digests"]:
            lines.append(f"{name:<26s} output changed: result digests differ")
        old_counters, new_counters = old["counters"], new["counters"]
        if not (old_counters and new_counters):
            continue  # counters come from the traced repetition; --trace 0 has none
        for counter in sorted(set(old_counters) | set(new_counters)):
            if old_counters.get(counter) != new_counters.get(counter):
                lines.append(
                    f"{name:<26s} work changed: {counter} "
                    f"{old_counters.get(counter)} -> {new_counters.get(counter)}"
                )
    return lines, any_worse


def refuse_incomparable(name: str, base: dict, documents: dict, seed: int) -> None:
    """Raise unless ``base`` ran the same documents at the same seed."""
    if base["documents"] != documents:
        raise BenchmarkError(f"{name}: the workload documents differ between the runs")
    if base["seed"] != seed:
        raise BenchmarkError(f"{name}: seed {base['seed']} against seed {seed}")


def _side(metric: dict) -> str:
    return f"{metric['median']:.4g} [{metric['q1']:.4g}, {metric['q3']:.4g}]"


# --------------------------------------------------------------------------- #
# command line
# --------------------------------------------------------------------------- #
def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks/perf/run.py", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--workload", action="append", help="workload to run (repeatable; default all)"
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument(
        "--seconds", type=float, help="least seconds of timed repetitions per workload"
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), help="0: end-to-end only; 1: per-layer only"
    )
    parser.add_argument("--out", type=Path, help="write the full results (and traces) here")
    parser.add_argument(
        "--compare", type=Path, metavar="BASE.json", help="compare against a --out file"
    )
    return parser.parse_args(argv)


def _main(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchmarkError(f"no src/repro under {ROOT}; run from a full checkout")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    # Byte-compile the package once, as an install would, so that no
    # repetition's set-up pays compilation, whether or not the environment
    # lets interpreters write bytecode (PYTHONDONTWRITEBYTECODE).
    compileall.compile_dir(ROOT / "src" / "repro", quiet=1)
    benchmark, manifest, workloads = load_definition()
    names = args.workload or list(workloads)
    unknown = [name for name in names if name not in workloads]
    if unknown:
        raise BenchmarkError(f"unknown workload(s) {unknown}; available: {list(workloads)}")
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    trace = None if args.trace is None else bool(args.trace)
    base = _read_json(args.compare) if args.compare else None
    if base is not None:
        # Refuse before minutes of timing, not after.
        for name in names:
            if name in base["workloads"]:
                refuse_incomparable(
                    name, base["workloads"][name], workloads[name].document_hashes(), args.seed
                )

    runs = []
    for name in names:
        run = run_workload(workloads[name], args.seed, seconds, trace)
        print(render_run(run, benchmark, manifest), flush=True)
        runs.append(run)
    record = {
        "schema": 1,
        "seconds": seconds,
        "workloads": {run.workload.name: run_record(run, benchmark, manifest) for run in runs},
    }
    if args.out is not None:
        from repro.obs import atomic_write_json, host_info, write_trace

        record["host"] = host_info()
        atomic_write_json(args.out, record)
        for run in runs:
            for suffix, telemetry in run.traces.items():
                name = f"{args.out.stem}.{run.workload.name}.{suffix}.jsonl"
                write_trace(telemetry, args.out.with_name(name))
    status = 0
    if base is not None:
        lines, any_worse = compare(base, record, benchmark, manifest)
        print("\n".join(lines))
        status = 1 if any_worse else 0
    if len(runs) == 1:
        print(result_line(runs[0], benchmark, trace))
    return status


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(parse_args(argv))
    except BenchmarkError as error:
        print(f"perf: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
