"""End-to-end integration tests: the paper's methodology on small instances.

Each test exercises a full vertical slice — dataset, probability model,
repeated trials across sample numbers, and an analysis step — and asserts the
paper's *qualitative* findings at reduced scale:

1. The seed-set distribution becomes degenerate and all three approaches share
   the same limit solution (Section 5.1).
2. The mean influence increases with the sample number and reaches
   near-optimality (Section 5.2).
3. RIS needs more (but much smaller) samples than Snapshot, and Snapshot needs
   no more samples than Oneshot (Section 5.2.3).
4. Per-sample traversal cost orders RIS < Snapshot < Oneshot (Section 5.3).
"""

from __future__ import annotations

import pytest

from repro import (
    RRPoolOracle,
    assign_probabilities,
    load_dataset,
    powers_of_two,
    sweep_sample_numbers,
)
from repro.experiments.comparison import comparable_ratio_curve
from repro.experiments.convergence import least_sample_number, reference_spread_from_sweep
from repro.experiments.factories import estimator_factory
from repro.experiments.traversal import traversal_cost_table


@pytest.fixture(scope="module")
def karate_instance():
    graph = assign_probabilities(load_dataset("karate"), "uc0.1")
    oracle = RRPoolOracle(graph, pool_size=20_000, seed=11)
    return graph, oracle


@pytest.fixture(scope="module")
def karate_sweeps(karate_instance):
    graph, oracle = karate_instance
    grids = {
        "oneshot": powers_of_two(8),                    # 1 .. 256
        "snapshot": powers_of_two(8),                   # 1 .. 256
        "ris": powers_of_two(12, min_exponent=2),       # 4 .. 4096
    }
    sweeps = {}
    for approach, grid in grids.items():
        sweeps[approach] = sweep_sample_numbers(
            graph,
            1,
            estimator_factory(approach),
            grid,
            num_trials=30,
            oracle=oracle,
            experiment_seed=7,
        )
    return sweeps


class TestSeedSetDistributionConvergence:
    def test_entropy_decays_for_every_approach(self, karate_sweeps):
        for approach, sweep in karate_sweeps.items():
            entropies = sweep.entropies()
            first = entropies[sweep.sample_numbers[0]]
            last = entropies[sweep.sample_numbers[-1]]
            assert last < first, approach

    def test_limit_solutions_concentrate_on_top_vertices(self, karate_sweeps, karate_instance):
        # Karate uc0.1 (k=1) has two nearly tied top vertices (0 and 33), so
        # full entropy collapse to a single shared solution needs sample
        # numbers beyond this reduced sweep (the paper uses up to 2^16 / 2^24).
        # What must already hold is that every approach's modal solution is
        # dominant and drawn from the same top-2 candidates.
        _, oracle = karate_instance
        top_two = {(vertex,) for vertex, _ in oracle.top_vertices(2)}
        for approach, sweep in karate_sweeps.items():
            distribution = sweep.final_trial_set().seed_set_distribution()
            mode, probability = distribution.mode()
            assert probability >= 0.5, approach
            assert mode in top_two, approach

    def test_limit_solution_is_a_top_vertex(self, karate_sweeps, karate_instance):
        _, oracle = karate_instance
        top_vertices = {vertex for vertex, _ in oracle.top_vertices(3)}
        for sweep in karate_sweeps.values():
            mode, _ = sweep.final_trial_set().seed_set_distribution().mode()
            assert mode[0] in top_vertices


class TestInfluenceDistributionConvergence:
    def test_mean_influence_non_decreasing_overall(self, karate_sweeps):
        for sweep in karate_sweeps.values():
            means = sweep.mean_influences()
            assert means[sweep.sample_numbers[-1]] >= means[sweep.sample_numbers[0]] - 1e-9

    def test_near_optimal_sample_number_exists(self, karate_sweeps):
        for approach, sweep in karate_sweeps.items():
            reference = reference_spread_from_sweep(sweep)
            result = least_sample_number(sweep, reference, quality=0.9, probability=0.85)
            assert result.found, approach

    def test_final_distribution_tight(self, karate_sweeps):
        for sweep in karate_sweeps.values():
            final = sweep.influence_distributions()[sweep.sample_numbers[-1]]
            assert final.std <= 0.25 * final.mean


class TestComparableRatios:
    def test_snapshot_not_worse_than_oneshot(self, karate_sweeps):
        ratio = comparable_ratio_curve(
            karate_sweeps["snapshot"], karate_sweeps["oneshot"]
        ).median_number_ratio()
        # Paper Table 6 (karate, k=1): comparable ratio of Oneshot to Snapshot
        # is around 1-2, never below ~1/2.
        assert ratio is not None
        assert ratio >= 0.5

    def test_ris_needs_many_more_samples_than_snapshot(self, karate_sweeps):
        ratio = comparable_ratio_curve(
            karate_sweeps["snapshot"], karate_sweeps["ris"]
        ).median_number_ratio()
        # Paper Table 7 (karate uc0.1, k=1): ratio about 32.
        assert ratio is not None
        assert ratio >= 4.0


class TestTraversalCostOrdering:
    def test_per_sample_cost_ordering(self, karate_instance):
        graph, _ = karate_instance
        rows = traversal_cost_table(
            graph,
            {name: estimator_factory(name) for name in ("oneshot", "snapshot", "ris")},
            k=1,
            num_samples=1,
            num_repetitions=5,
        )
        totals = {row.approach: row.total_cost for row in rows}
        assert totals["ris"] < totals["snapshot"] < totals["oneshot"]


class TestPublicApiSurface:
    def test_star_quickstart(self):
        from repro import RISEstimator, greedy_maximize
        from repro.graphs.generators import star

        graph = star(10)
        result = greedy_maximize(graph, 1, RISEstimator(256), seed=0)
        assert result.seed_set == (0,)

    def test_version_exported(self):
        import repro

        assert repro.__version__ == "1.0.0"
