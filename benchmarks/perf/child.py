"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

A fresh process per repetition keeps imports, dataset builds and process
pools from carrying over, so every repetition pays what one user invocation
pays.  The request is a JSON object in ``argv[1]``::

    {"specs": ["path/to/doc.json", ...] | "lint": ["src/repro"],
     "seed": 0, "trace": false, "jobs": null, "spawned": <time.monotonic()>}

The reply is one JSON object on the last line of stdout.  Timed regions:

* ``setup_s``: from the parent's spawn (``spawned``, on the system-wide
  monotonic clock) through interpreter start, ``import repro``, and
  ``load_spec`` plus ``GraphSpec.resolve()`` for every document, plus a
  process-pool start and warm-up when a document sets ``context.jobs``;
* ``wall_s``: ``repro.run(spec)`` over every document, or ``run_lint``.

With ``"trace": true`` a :class:`repro.obs.Telemetry` is attached through
``RunContext`` and its state is returned; the lint call has no span of its
own, so the child reports a ``lint.run`` span from its own timing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def payload_digest(document: dict) -> str:
    """sha256 of a result document without its ``spec`` and ``telemetry`` blocks."""
    body = {key: value for key, value in document.items() if key not in ("spec", "telemetry")}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def solutions(document: dict) -> list[list]:
    """Every ``[seed_set, influence]`` pair a result document returns."""
    if document["kind"] == "maximize":
        return [[document["seed_set"], document["influence"]]]
    rows = document["trials"]
    if document["kind"] == "sweep":
        rows = [row for point in rows.values() for row in point]
    return [[row["seed_set"], row["influence"]] for row in rows]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def telemetry_state(telemetry) -> dict | None:
    """JSON form of a :class:`repro.obs.TelemetrySnapshot` (``None`` untraced)."""
    if telemetry is None:
        return None
    snap = telemetry.snapshot()
    return {
        "counters": [list(pair) for pair in snap.counters],
        "gauges": [list(pair) for pair in snap.gauges],
        "spans": [[list(path), count, seconds] for path, count, seconds in snap.spans],
        "events": list(snap.events),
    }


def run_specs(paths: list[str], seed: int, trace: bool, jobs: int | None) -> dict:
    import repro

    telemetry = repro.Telemetry() if trace else None
    specs, sizes = [], []
    for path in paths:
        spec = repro.load_spec(path)
        context = dataclasses.replace(
            spec.context,
            seed=seed,
            telemetry=telemetry,
            jobs=spec.context.jobs if jobs is None else jobs,
        )
        spec = dataclasses.replace(
            spec, graph=dataclasses.replace(spec.graph, seed=seed), context=context
        )
        sizes.append(spec.graph.resolve().num_vertices)
        if context.jobs is not None and context.jobs > 1:
            with repro.ParallelExecutor(context.jobs) as pool:
                pool.map(abs, range(context.jobs))
        specs.append(spec)
    setup_end = time.monotonic()
    run_start = time.perf_counter()
    results = [repro.run(spec) for spec in specs]
    run_end = time.perf_counter()

    documents = []
    for spec, size, result in zip(specs, sizes, results):
        document = json.loads(result.to_json(indent=None))
        documents.append(
            {
                "k": spec.k,
                "n": size,
                "digest": payload_digest(document),
                "solutions": solutions(document),
            }
        )
    return {
        "setup_end": setup_end,
        "wall_s": run_end - run_start,
        "documents": documents,
        "telemetry": telemetry_state(telemetry),
    }


def run_lint_paths(paths: list[str], trace: bool) -> dict:
    import repro  # noqa: F401  (set-up covers the package import, as for specs)
    from repro.lint import collect_files, load_config, run_lint

    load_config(Path(paths[0]))
    collect_files(paths)
    setup_end = time.monotonic()
    run_start = time.perf_counter()
    lint = run_lint(paths)
    run_end = time.perf_counter()
    files, findings = lint.stats["files"], len(lint.findings)
    telemetry = None
    if trace:
        # The lint package records no telemetry (it stays numpy-free), so
        # the traced state is built from the harness's own timing.
        telemetry = {
            "counters": [["lint.files", files], ["lint.findings", findings]],
            "gauges": [],
            "spans": [[["lint.run"], 1, run_end - run_start]],
            "events": [],
        }
    return {
        "setup_end": setup_end,
        "wall_s": run_end - run_start,
        "lint": {"files": files, "findings": findings},
        "telemetry": telemetry,
    }


def main(argv: list[str]) -> int:
    request = json.loads(argv[1])
    if "lint" in request:
        reply = run_lint_paths(request["lint"], request["trace"])
    else:
        reply = run_specs(request["specs"], request["seed"], request["trace"], request.get("jobs"))
    reply["setup_s"] = reply.pop("setup_end") - request["spawned"]
    reply["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(reply, default=lambda value: value.item()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
