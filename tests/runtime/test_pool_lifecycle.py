"""Every call that opens a worker pool closes it before returning.

``jobs`` is the only parallelism knob, so the pool lifecycle is always the
same: the call that needs workers opens one pool per dispatch and shuts it
down before it returns.  No worker process may outlive the call.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.estimation.monte_carlo import monte_carlo_spread
from repro.estimation.oracle import RRPoolOracle
from repro.experiments.factories import PAPER_APPROACHES, estimator_factory
from repro.experiments.sweeps import sweep_sample_numbers
from repro.experiments.traversal import traversal_cost_table
from repro.experiments.trials import run_trials
from repro.graphs.datasets import load_dataset
from repro.graphs.probability import assign_probabilities

CALLS = {
    "run_trials": lambda graph, oracle: run_trials(
        graph, 2, estimator_factory("snapshot"), 8, 4, oracle=oracle, jobs=2
    ),
    "sweep_sample_numbers": lambda graph, oracle: sweep_sample_numbers(
        graph, 1, estimator_factory("ris"), [4, 8], 4, oracle=oracle, jobs=2
    ),
    "traversal_cost_table": lambda graph, oracle: traversal_cost_table(
        graph,
        {name: estimator_factory(name) for name in PAPER_APPROACHES},
        num_repetitions=2,
        jobs=2,
    ),
    "RRPoolOracle": lambda graph, oracle: RRPoolOracle(
        graph, pool_size=2_000, seed=1, jobs=2
    ),
    "monte_carlo_spread": lambda graph, oracle: monte_carlo_spread(
        graph, (0,), 200, jobs=2
    ),
}


@pytest.fixture(scope="module")
def karate():
    return assign_probabilities(load_dataset("karate"), "uc0.1")


@pytest.fixture(scope="module")
def serial_oracle(karate):
    return RRPoolOracle(karate, pool_size=2_000, seed=1)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_no_worker_outlives_the_call(name, karate, serial_oracle, opened_pools):
    CALLS[name](karate, serial_oracle)
    assert opened_pools, "the call never opened a worker pool"
    assert all(pool._pool is None for pool in opened_pools)
    assert multiprocessing.active_children() == []
