"""Table 9: traversal cost when conditioned to identical accuracy.

Setting beta = cr1 * gamma, tau = gamma, theta = cr2 * gamma — where cr1 and
cr2 are the comparable number ratios of Oneshot and RIS to Snapshot — makes
the three approaches produce influence distributions of identical mean; the
equal-accuracy cost per unit gamma is then the per-sample traversal cost
multiplied by the respective ratio.  The paper's conclusions (Section 6):
Oneshot is almost always the least time-efficient, RIS wins on large complex
networks, and Snapshot wins on small low-probability networks.

This bench combines the measured comparable ratios with the measured
per-sample costs on Karate (uc0.1 and uc0.01) and the com-Youtube proxy (iwc).
"""

from __future__ import annotations

from repro.experiments.comparison import comparable_ratio_curve
from repro.experiments.factories import estimator_factory
from repro.experiments.reporting import format_table
from repro.experiments.sweeps import powers_of_two, sweep_sample_numbers
from repro.experiments.traversal import equal_accuracy_costs, traversal_cost_table

from .conftest import emit

TRIALS = 20


def equal_accuracy_rows(instance_cache, oracle_cache, dataset, probability, scale, grids, seed):
    graph = instance_cache(dataset, probability, scale=scale)
    oracle = oracle_cache(dataset, probability, scale=scale, pool_size=10_000)
    sweeps = {
        approach: sweep_sample_numbers(
            graph, 1, estimator_factory(approach), grid,
            num_trials=TRIALS, oracle=oracle, experiment_seed=seed + index,
        )
        for index, (approach, grid) in enumerate(grids.items())
    }
    ratios = {"snapshot": 1.0}
    oneshot_curve = comparable_ratio_curve(sweeps["snapshot"], sweeps["oneshot"])
    ris_curve = comparable_ratio_curve(sweeps["snapshot"], sweeps["ris"])
    if oneshot_curve.median_number_ratio() is not None:
        ratios["oneshot"] = oneshot_curve.median_number_ratio()
    if ris_curve.median_number_ratio() is not None:
        ratios["ris"] = ris_curve.median_number_ratio()
    per_sample = traversal_cost_table(
        graph,
        {name: estimator_factory(name) for name in ("oneshot", "snapshot", "ris")},
        k=1,
        num_samples=1,
        num_repetitions=3,
    )
    rows = []
    for cost_row in equal_accuracy_costs(per_sample, ratios):
        rendered = cost_row.as_row()
        rendered["network"] = f"{dataset} ({probability})"
        rows.append(rendered)
    return rows


def compute_all(instance_cache, oracle_cache):
    small_grids = {
        "oneshot": powers_of_two(6),
        "snapshot": powers_of_two(5),
        "ris": powers_of_two(11, min_exponent=2),
    }
    rows = []
    rows += equal_accuracy_rows(
        instance_cache, oracle_cache, "karate", "uc0.1", 1.0, small_grids, seed=101
    )
    rows += equal_accuracy_rows(
        instance_cache, oracle_cache, "karate", "uc0.01", 1.0, small_grids, seed=111
    )
    youtube_grids = {
        "oneshot": powers_of_two(3),
        "snapshot": powers_of_two(3),
        "ris": powers_of_two(11, min_exponent=4),
    }
    rows += equal_accuracy_rows(
        instance_cache, oracle_cache, "com_youtube", "iwc", 0.25, youtube_grids, seed=121
    )
    return rows


def test_table9_equal_accuracy_cost(benchmark, instance_cache, oracle_cache):
    rows = benchmark.pedantic(
        compute_all, args=(instance_cache, oracle_cache), rounds=1, iterations=1
    )
    emit(
        "table9_equal_accuracy_cost",
        format_table(
            rows,
            columns=["network", "algorithm", "comparable_ratio", "cost_per_gamma"],
            title="Table 9: traversal cost per unit gamma at identical accuracy",
        ),
    )
    by_network: dict[str, dict[str, float]] = {}
    for row in rows:
        by_network.setdefault(row["network"], {})[row["algorithm"]] = row["cost_per_gamma"]
    # Section 6: "Oneshot is never the cheapest" — some other approach costs
    # less per unit gamma on every network.
    for network, costs in by_network.items():
        assert costs["oneshot"] > min(costs["snapshot"], costs["ris"]), network
    # On the large sparse low-probability proxy, RIS beats Oneshot decisively.
    youtube = by_network["com_youtube (iwc)"]
    assert youtube["ris"] < youtube["oneshot"]
