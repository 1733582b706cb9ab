"""Tests for sample-number sweeps."""

from __future__ import annotations

import pytest

from repro.estimation.oracle import RRPoolOracle
from repro.exceptions import ExperimentConfigurationError, InvalidParameterError
from repro.experiments.factories import estimator_factory
from repro.experiments.sweeps import SweepResult, powers_of_two, sweep_sample_numbers
from repro.experiments.trials import run_trials
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import star
from repro.graphs.probability import assign_probabilities


class TestPowersOfTwo:
    def test_default_range(self):
        assert powers_of_two(4) == (1, 2, 4, 8, 16)

    def test_min_exponent(self):
        assert powers_of_two(5, min_exponent=3) == (8, 16, 32)

    def test_single_point(self):
        assert powers_of_two(0) == (1,)

    def test_invalid_range(self):
        with pytest.raises(ExperimentConfigurationError):
            powers_of_two(2, min_exponent=5)


@pytest.fixture(scope="module")
def karate_sweep():
    graph = assign_probabilities(load_dataset("karate"), "uc0.1")
    oracle = RRPoolOracle(graph, pool_size=10_000, seed=5)
    sweep = sweep_sample_numbers(
        graph,
        1,
        estimator_factory("ris"),
        powers_of_two(8, min_exponent=2),
        num_trials=20,
        oracle=oracle,
        experiment_seed=1,
    )
    return graph, oracle, sweep


class TestSweepSampleNumbers:
    def test_grid_covered(self, karate_sweep):
        _, _, sweep = karate_sweep
        assert sweep.sample_numbers == (4, 8, 16, 32, 64, 128, 256)

    def test_metadata(self, karate_sweep):
        graph, _, sweep = karate_sweep
        assert sweep.approach == "ris"
        assert sweep.k == 1
        assert sweep.graph_name == graph.name

    def test_trial_set_lookup(self, karate_sweep):
        _, _, sweep = karate_sweep
        assert sweep.trial_set(16).num_samples == 16
        with pytest.raises(ExperimentConfigurationError):
            sweep.trial_set(1024)

    def test_entropy_decreases_overall(self, karate_sweep):
        _, _, sweep = karate_sweep
        entropies = sweep.entropies()
        assert entropies[sweep.sample_numbers[-1]] <= entropies[sweep.sample_numbers[0]]

    def test_mean_influence_improves_overall(self, karate_sweep):
        _, _, sweep = karate_sweep
        means = sweep.mean_influences()
        assert means[sweep.sample_numbers[-1]] >= means[sweep.sample_numbers[0]]

    def test_influence_distributions_keys(self, karate_sweep):
        _, _, sweep = karate_sweep
        distributions = sweep.influence_distributions()
        assert set(distributions) == set(sweep.sample_numbers)

    def test_sample_sizes_grow_with_sample_number(self, karate_sweep):
        _, _, sweep = karate_sweep
        sizes = sweep.mean_sample_sizes()
        assert sizes[256] > sizes[4]

    def test_final_trial_set(self, karate_sweep):
        _, _, sweep = karate_sweep
        assert sweep.final_trial_set().num_samples == 256

    def test_empty_sample_numbers_rejected(self, karate_sweep):
        graph, oracle, _ = karate_sweep
        with pytest.raises(ExperimentConfigurationError):
            sweep_sample_numbers(
                graph, 1, estimator_factory("ris"), [], 5, oracle=oracle
            )

    @pytest.mark.parametrize(
        "grid", [[2.7, 8], [True, 8], [8, 0], [8, "16"], [8, None]], ids=repr
    )
    def test_invalid_sample_numbers_rejected(self, karate_sweep, grid):
        graph, oracle, _ = karate_sweep
        with pytest.raises(InvalidParameterError, match="sample_numbers entry"):
            sweep_sample_numbers(
                graph, 1, estimator_factory("ris"), grid, 5, oracle=oracle
            )

    def test_oracle_for_another_graph_rejected_like_run_trials(self, karate_sweep):
        graph, _, _ = karate_sweep
        star_oracle = RRPoolOracle(star(5), pool_size=100, seed=0)
        factory = estimator_factory("ris")
        with pytest.raises(ExperimentConfigurationError, match="number of vertices"):
            run_trials(graph, 1, factory, 8, 2, oracle=star_oracle)
        with pytest.raises(ExperimentConfigurationError, match="number of vertices"):
            sweep_sample_numbers(graph, 1, factory, [8, 16], 2, oracle=star_oracle)

    def test_duplicate_sample_numbers_deduplicated(self, karate_sweep):
        graph, oracle, _ = karate_sweep
        sweep = sweep_sample_numbers(
            graph, 1, estimator_factory("ris"), [8, 8, 16], 5, oracle=oracle
        )
        assert sweep.sample_numbers == (8, 16)
