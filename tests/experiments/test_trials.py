"""Tests for the repeated-trial harness."""

from __future__ import annotations

import pytest

from repro.estimation.oracle import RRPoolOracle
from repro.exceptions import ExperimentConfigurationError, InvalidParameterError
from repro.experiments.factories import estimator_factory
from repro.experiments.trials import run_trials


@pytest.fixture(scope="module")
def star_oracle():
    from repro.graphs.generators import star

    graph = star(5)
    return graph, RRPoolOracle(graph, pool_size=2000, seed=0)


class TestRunTrials:
    def test_trial_count_and_metadata(self, star_oracle):
        graph, oracle = star_oracle
        trial_set = run_trials(
            graph, 1, estimator_factory("ris"), 64, 10, oracle=oracle, experiment_seed=1
        )
        assert trial_set.num_trials == 10
        assert trial_set.approach == "ris"
        assert trial_set.num_samples == 64
        assert trial_set.k == 1
        assert trial_set.graph_name == graph.name

    def test_deterministic_given_experiment_seed(self, star_oracle):
        graph, oracle = star_oracle
        a = run_trials(graph, 1, estimator_factory("snapshot"), 4, 6, oracle=oracle, experiment_seed=3)
        b = run_trials(graph, 1, estimator_factory("snapshot"), 4, 6, oracle=oracle, experiment_seed=3)
        assert [o.seed_set for o in a.outcomes] == [o.seed_set for o in b.outcomes]
        assert a.influences.tolist() == b.influences.tolist()

    def test_deterministic_graph_always_finds_centre(self, star_oracle):
        graph, oracle = star_oracle
        trial_set = run_trials(
            graph, 1, estimator_factory("snapshot"), 2, 8, oracle=oracle, experiment_seed=0
        )
        distribution = trial_set.seed_set_distribution()
        assert distribution.support_size == 1
        assert distribution.mode()[0] == (0,)

    def test_influences_scored_by_oracle(self, star_oracle):
        graph, oracle = star_oracle
        trial_set = run_trials(
            graph, 1, estimator_factory("ris"), 32, 5, oracle=oracle, experiment_seed=0
        )
        assert trial_set.mean_influence == pytest.approx(6.0)
        assert (trial_set.influences >= 5.9).all()

    def test_mean_cost_positive_for_sampling_methods(self, karate_uc01, karate_oracle):
        trial_set = run_trials(
            karate_uc01, 1, estimator_factory("ris"), 32, 3,
            oracle=karate_oracle, experiment_seed=0,
        )
        cost = trial_set.mean_cost()
        assert cost["traversal_vertices"] > 0
        assert cost["sample_vertices"] > 0

    def test_oracle_graph_mismatch_rejected(self, star_oracle, karate_uc01):
        _, oracle = star_oracle
        with pytest.raises(ExperimentConfigurationError):
            run_trials(karate_uc01, 1, estimator_factory("ris"), 8, 2, oracle=oracle)

    def test_oracle_model_mismatch_rejected(self, karate_iwc):
        from repro.estimation.oracle import RRPoolOracle

        ic_oracle = RRPoolOracle(karate_iwc, pool_size=200, seed=1)
        with pytest.raises(ExperimentConfigurationError, match="diffusion model"):
            run_trials(
                karate_iwc, 1, estimator_factory("ris", model="lt"), 8, 2,
                oracle=ic_oracle, model="lt",
            )

    def test_factory_model_probed_without_explicit_model(self, karate_iwc):
        # Even with model= omitted, an LT-bound factory against an IC oracle
        # must be rejected — the estimator's own binding is probed.
        from repro.estimation.oracle import RRPoolOracle

        ic_oracle = RRPoolOracle(karate_iwc, pool_size=200, seed=1)
        with pytest.raises(ExperimentConfigurationError, match="diffusion model"):
            run_trials(
                karate_iwc, 1, estimator_factory("ris", model="lt"), 8, 2,
                oracle=ic_oracle,
            )

    def test_declared_model_must_match_factory_binding(self, karate_iwc):
        from repro.estimation.oracle import RRPoolOracle

        lt_oracle = RRPoolOracle(karate_iwc, pool_size=200, seed=1, model="lt")
        with pytest.raises(ExperimentConfigurationError, match="estimator"):
            run_trials(
                karate_iwc, 1, estimator_factory("ris"), 8, 2,
                oracle=lt_oracle, model="lt",
            )

    def test_heuristic_factories_exempt_from_model_check(self, karate_iwc):
        # Structural heuristics have no model binding; scoring them under
        # any oracle model is a legitimate cross-model comparison.
        from repro.estimation.oracle import RRPoolOracle

        lt_oracle = RRPoolOracle(karate_iwc, pool_size=200, seed=1, model="lt")
        trial_set = run_trials(
            karate_iwc, 1, estimator_factory("degree"), 8, 2, oracle=lt_oracle
        )
        assert trial_set.num_trials == 2

    def test_invalid_parameters(self, star_oracle):
        graph, oracle = star_oracle
        with pytest.raises(InvalidParameterError):
            run_trials(graph, 0, estimator_factory("ris"), 8, 2, oracle=oracle)
        with pytest.raises(InvalidParameterError):
            run_trials(graph, 1, estimator_factory("ris"), 0, 2, oracle=oracle)
        with pytest.raises(InvalidParameterError):
            run_trials(graph, 1, estimator_factory("ris"), 8, 0, oracle=oracle)
