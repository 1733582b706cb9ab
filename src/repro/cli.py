"""Command-line interface: ``python -m repro <command> ...``.

Five subcommands cover the workflows a user needs without writing Python:

``stats``
    Print Table-3-style statistics for one or all registry datasets.
``maximize``
    Select a seed set on a dataset with a chosen approach and sample number,
    and report its oracle influence and traversal cost.
``sweep``
    Sweep the sample number for one approach and print the entropy and mean
    influence per grid point (the Figure 1 / Figure 4 methodology).
``traversal``
    Print the per-sample traversal-cost rows (Table 8 methodology) for one
    dataset and probability model.
``run``
    Execute any experiment spec JSON file (see :mod:`repro.api.specs`) —
    including the ``trials`` kind that has no dedicated subcommand.
``lint``
    Statically check the source tree against the determinism and
    serialization contracts (see :mod:`repro.lint`).  Dispatched before the
    experiment machinery loads — ``repro lint`` never imports numpy.

Since the declarative-API redesign, the first four subcommands are thin spec
constructors: each builds the equivalent :mod:`repro.api` spec and hands it
to :func:`repro.api.runner.run`, so the CLI and ``repro.run()`` are the same
code path by construction.  Text output is byte-identical to the pre-spec
CLI (pinned by the golden tests in ``tests/api/``).

Every subcommand accepts ``--format {text,json}`` (JSON via
``ExperimentResult.to_json``) and ``--out FILE`` to additionally write the
JSON result to a file (atomically: temp file + rename), ``--jobs N`` for
the runtime's bit-identical multi-process execution, and ``--diffusion
{ic,lt,...}`` to choose the diffusion model (validated up front, before any
sampling).  The simulating subcommands (``maximize``, ``sweep``,
``traversal``) additionally accept ``--batch-mode
{scalar,bitparallel}``: the opt-in bit-parallel kernels run 64 simulated
worlds per machine word (see :mod:`repro.diffusion.bitparallel`), while the
scalar default keeps the golden byte-identical stream.

Observability: the CLI attaches a live :class:`~repro.obs.Telemetry` to
every run, so ``--format json`` results carry a ``"telemetry"`` block;
``--trace FILE`` (or the ``REPRO_TRACE`` environment variable) additionally
writes the run's JSONL trace, and ``--profile`` prints the human span/counter
tree to stderr.  Text output on stdout is unaffected (pinned by the golden
tests).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import Sequence

from .api.runner import run
from .api.results import ExperimentResult
from .api.specs import (
    EstimatorSpec,
    ExperimentSpec,
    GraphSpec,
    MaximizeSpec,
    StatsSpec,
    SweepSpec,
    TraversalSpec,
    load_spec,
)
from .context import RunContext
from .diffusion.models import available_models
from .experiments.factories import available_approaches
from .graphs.datasets import list_datasets
from .graphs.probability import PROBABILITY_MODELS
from .obs import Telemetry, atomic_write_text, write_trace


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", default="text", choices=("text", "json"), dest="output_format",
        help="stdout rendering: the classic text table or the JSON result",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="additionally write the JSON result to FILE (atomic write)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help=(
            "write the run's telemetry as a JSONL trace to FILE "
            "(the REPRO_TRACE environment variable sets a default)"
        ),
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the span/counter profile tree to stderr after the run",
    )


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help=(
            "worker processes; any explicit N (including 1) uses the runtime's "
            "split-stream seeding and gives bit-identical results for every N, "
            "while omitting the flag keeps the historical serial stream"
        ),
    )


def _add_batch_mode_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--batch-mode", default=None, choices=("scalar", "bitparallel"),
        dest="batch_mode",
        help=(
            "simulation batching: 'scalar' is the golden per-simulation "
            "stream (default), 'bitparallel' packs 64 simulated worlds per "
            "machine word (faster, different draw-order contract)"
        ),
    )


def _add_diffusion_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--diffusion", default="ic", choices=sorted(available_models()),
        help=(
            "diffusion model (ic = independent cascade, lt = linear "
            "threshold); feasibility is validated before sampling"
        ),
    )


def _add_instance_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", default="karate", choices=sorted(list_datasets()),
        help="registry dataset name",
    )
    parser.add_argument(
        "--model", default="uc0.1",
        help=f"edge-probability model ({', '.join(PROBABILITY_MODELS)} or uc<value>)",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="proxy size multiplier")
    parser.add_argument("--graph-seed", type=int, default=0, help="proxy generation seed")
    _add_diffusion_argument(parser)
    _add_jobs_argument(parser)
    _add_batch_mode_argument(parser)
    _add_output_arguments(parser)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the repro CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'The Solution Distribution of Influence Maximization'",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    stats = subparsers.add_parser("stats", help="network statistics (Table 3)")
    stats.add_argument(
        "--dataset", default="all",
        help="dataset name or 'all' for every paper dataset",
    )
    stats.add_argument("--scale", type=float, default=1.0)
    # Accepted for interface uniformity; Table 3 statistics are structural
    # and identical under every diffusion model.
    _add_diffusion_argument(stats)
    _add_jobs_argument(stats)
    _add_output_arguments(stats)

    maximize = subparsers.add_parser("maximize", help="run greedy seed selection")
    _add_instance_arguments(maximize)
    maximize.add_argument("--approach", default="ris", choices=sorted(available_approaches()))
    maximize.add_argument("--samples", type=int, default=1024, help="sample number")
    maximize.add_argument("-k", "--seeds", type=int, default=4, help="seed-set size")
    maximize.add_argument("--run-seed", type=int, default=0)
    maximize.add_argument("--pool-size", type=int, default=20_000, help="oracle RR pool size")

    sweep = subparsers.add_parser("sweep", help="sample-number sweep (Figures 1/4)")
    _add_instance_arguments(sweep)
    sweep.add_argument("--approach", default="ris", choices=sorted(available_approaches()))
    sweep.add_argument("-k", "--seeds", type=int, default=1)
    sweep.add_argument("--max-exponent", type=int, default=10)
    sweep.add_argument("--min-exponent", type=int, default=0)
    sweep.add_argument("--trials", type=int, default=20)
    sweep.add_argument("--pool-size", type=int, default=20_000)
    sweep.add_argument("--run-seed", type=int, default=0)

    traversal = subparsers.add_parser("traversal", help="per-sample traversal cost (Table 8)")
    _add_instance_arguments(traversal)
    traversal.add_argument("--repetitions", type=int, default=3)

    run_command = subparsers.add_parser(
        "run", help="execute an experiment spec JSON file"
    )
    run_command.add_argument("spec", help="path to the spec JSON document")
    _add_output_arguments(run_command)

    # Listed here so ``repro --help`` shows it; actual parsing happens in
    # the lint package's own parser (main() dispatches before parse_args).
    subparsers.add_parser(
        "lint",
        help="statically check determinism & serialization contracts",
        add_help=False,
    )

    return parser


def _emit(
    result: ExperimentResult, args: argparse.Namespace, telemetry: Telemetry
) -> int:
    """Render a result per ``--format``/``--out``/``--trace``/``--profile``."""
    if args.output_format == "json":
        print(result.to_json())
    else:
        print(result.to_text())
    if args.out is not None:
        atomic_write_text(Path(args.out), result.to_json() + "\n")
    trace_target = args.trace or os.environ.get("REPRO_TRACE")
    if trace_target:
        write_trace(telemetry, trace_target)
    if args.profile:
        print(telemetry.render_profile(), file=sys.stderr)
    return 0


def _graph_spec(args: argparse.Namespace) -> GraphSpec:
    """The instance spec shared by maximize/sweep/traversal."""
    return GraphSpec(
        dataset=args.dataset,
        probability=args.model,
        scale=args.scale,
        seed=args.graph_seed,
    )


def _spec_stats(args: argparse.Namespace) -> StatsSpec:
    return StatsSpec(
        dataset=args.dataset,
        scale=args.scale,
        context=RunContext(jobs=args.jobs, model=args.diffusion),
    )


def _spec_maximize(args: argparse.Namespace) -> MaximizeSpec:
    return MaximizeSpec(
        graph=_graph_spec(args),
        estimator=EstimatorSpec(approach=args.approach, num_samples=args.samples),
        k=args.seeds,
        pool_size=args.pool_size,
        context=RunContext(
            seed=args.run_seed, jobs=args.jobs, model=args.diffusion,
            batch_mode=args.batch_mode,
        ),
    )


def _spec_sweep(args: argparse.Namespace) -> SweepSpec:
    return SweepSpec(
        graph=_graph_spec(args),
        approach=args.approach,
        k=args.seeds,
        max_exponent=args.max_exponent,
        min_exponent=args.min_exponent,
        num_trials=args.trials,
        pool_size=args.pool_size,
        context=RunContext(
            seed=args.run_seed, jobs=args.jobs, model=args.diffusion,
            batch_mode=args.batch_mode,
        ),
    )


def _spec_traversal(args: argparse.Namespace) -> TraversalSpec:
    return TraversalSpec(
        graph=_graph_spec(args),
        repetitions=args.repetitions,
        context=RunContext(
            jobs=args.jobs, model=args.diffusion, batch_mode=args.batch_mode
        ),
    )


def _spec_run(args: argparse.Namespace) -> ExperimentSpec:
    return load_spec(args.spec)


_SPEC_BUILDERS = {
    "stats": _spec_stats,
    "maximize": _spec_maximize,
    "sweep": _spec_sweep,
    "traversal": _spec_traversal,
    "run": _spec_run,
}


def _attach_telemetry(spec: ExperimentSpec, telemetry: Telemetry) -> ExperimentSpec:
    """A copy of ``spec`` whose context carries ``telemetry`` (runtime-only)."""
    return dataclasses.replace(
        spec, context=dataclasses.replace(spec.context, telemetry=telemetry)
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Every invocation runs with a live telemetry object: the draws are
    unaffected (recording is passive), text output is byte-identical to the
    uninstrumented CLI, and JSON output gains the ``telemetry`` block.
    """
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "lint":
        # The linter has its own flag set (--rules, --list-rules, a
        # different --format) and its own exit-code contract (0/1/2).
        from .lint.cli import main as lint_main

        return lint_main(arguments[1:], prog="repro lint")
    parser = build_parser()
    args = parser.parse_args(arguments)
    telemetry = Telemetry()
    spec = _attach_telemetry(_SPEC_BUILDERS[args.command](args), telemetry)
    return _emit(run(spec), args, telemetry)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
