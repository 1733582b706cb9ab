"""Figure 5: quick vs slow influence convergence by probability model.

On ca-GrQc the paper contrasts uc0.1 (mean influence starts below 20% of the
maximum and converges quickly — a giant component forms in the core and
identifying any core vertex suffices) with owc (mean starts above half the
maximum but improves very slowly — all vertices have one expected live
out-edge and are nearly interchangeable).  This bench regenerates the RIS
influence trajectories on the ca-GrQc proxy (power-law cluster graph with
core-whisker structure) under both models.
"""

from __future__ import annotations

from repro.experiments.factories import estimator_factory
from repro.experiments.reporting import format_multi_series
from repro.experiments.sweeps import powers_of_two, sweep_sample_numbers

from .conftest import emit

GRID = powers_of_two(12, min_exponent=2)
SCALE = 0.3  # ~600-vertex proxy


def normalised_mean_series(instance_cache, oracle_cache, probability: str):
    graph = instance_cache("ca_grqc", probability, scale=SCALE)
    oracle = oracle_cache("ca_grqc", probability, scale=SCALE, pool_size=10_000)
    sweep = sweep_sample_numbers(
        graph, 1, estimator_factory("ris"), GRID,
        num_trials=20, oracle=oracle, experiment_seed=51,
    )
    means = sweep.mean_influences()
    best = max(means.values())
    return {s: round(value / best, 4) for s, value in means.items()}, means


def test_figure5_convergence_contrast(benchmark, instance_cache, oracle_cache):
    def compute():
        uc_series, uc_raw = normalised_mean_series(instance_cache, oracle_cache, "uc0.1")
        owc_series, owc_raw = normalised_mean_series(instance_cache, oracle_cache, "owc")
        return uc_series, owc_series, uc_raw, owc_raw

    uc_series, owc_series, uc_raw, owc_raw = benchmark.pedantic(
        compute, rounds=1, iterations=1
    )
    emit(
        "figure5_convergence_contrast",
        format_multi_series(
            {"uc0.1 (normalised mean)": uc_series, "owc (normalised mean)": owc_series},
            title="Figure 5: RIS mean influence vs sample number, ca-GrQc proxy (k=1)",
        ),
    )
    # Paper's contrast: under uc0.1 the first grid point sits far below the
    # final value (quick convergence from a poor start), while under owc the
    # first grid point is already a sizable fraction of the final value.
    first, last = GRID[0], GRID[-1]
    assert uc_series[first] < owc_series[first]
    assert uc_raw[last] >= uc_raw[first]
    assert owc_raw[last] >= owc_raw[first]
