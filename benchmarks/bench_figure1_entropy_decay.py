"""Figure 1: Shannon-entropy decay of seed-set distributions on Karate (uc0.1).

The paper's Figure 1 plots, for k = 1, 4, 16, the entropy of the seed-set
distribution of Oneshot, Snapshot, and RIS against the sample number; all
three curves drop at the same rate up to a horizontal scaling, and for k = 1
and 4 they converge to zero.  This bench regenerates the k = 1 and k = 4
series at reduced trial counts and sample-number ceilings (the paper sweeps
to 2^16 / 2^24 with 1,000 trials; pure Python cannot, see the scale map in
docs/DESIGN.md).
"""

from __future__ import annotations

from repro.experiments.factories import estimator_factory
from repro.experiments.reporting import format_multi_series
from repro.experiments.sweeps import powers_of_two, sweep_sample_numbers

from .conftest import emit

#: Per-seed-size sample-number grids (Oneshot is the pure-Python bottleneck).
GRIDS = {
    1: {
        "oneshot": powers_of_two(6),
        "snapshot": powers_of_two(6),
        "ris": powers_of_two(10, min_exponent=2),
    },
    4: {
        "oneshot": powers_of_two(5),
        "snapshot": powers_of_two(5),
        "ris": powers_of_two(10, min_exponent=2),
    },
}

TRIALS = {1: 25, 4: 20}


def entropy_series(instance_cache, oracle_cache, k: int):
    graph = instance_cache("karate", "uc0.1")
    oracle = oracle_cache("karate", "uc0.1")
    series = {}
    for approach, grid in GRIDS[k].items():
        sweep = sweep_sample_numbers(
            graph, k, estimator_factory(approach), grid,
            num_trials=TRIALS[k], oracle=oracle, experiment_seed=10 + k,
        )
        series[approach] = {
            s: round(entropy, 3) for s, entropy in sweep.entropies().items()
        }
    return series


def test_figure1a_entropy_karate_k1(benchmark, instance_cache, oracle_cache):
    series = benchmark.pedantic(
        entropy_series, args=(instance_cache, oracle_cache, 1), rounds=1, iterations=1
    )
    emit(
        "figure1a_entropy_karate_k1",
        format_multi_series(
            series, title="Figure 1a: entropy of seed-set distributions, Karate (uc0.1, k=1)"
        ),
    )
    for approach, curve in series.items():
        samples = sorted(curve)
        assert curve[samples[-1]] <= curve[samples[0]], approach


def test_figure1b_entropy_karate_k4(benchmark, instance_cache, oracle_cache):
    series = benchmark.pedantic(
        entropy_series, args=(instance_cache, oracle_cache, 4), rounds=1, iterations=1
    )
    emit(
        "figure1b_entropy_karate_k4",
        format_multi_series(
            series, title="Figure 1b: entropy of seed-set distributions, Karate (uc0.1, k=4)"
        ),
    )
    # Larger seed size -> larger solution space -> entropy starts high.
    assert max(series["ris"].values()) > 0.0
