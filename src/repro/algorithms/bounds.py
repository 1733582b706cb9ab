"""Worst-case sample-number bounds (Sections 3.3.3, 3.4.3, 3.5.3, 5.2.1).

The paper contrasts *empirical* least sample numbers (Table 5) with the
*worst-case* bounds from the literature and finds gaps of several orders of
magnitude.  This module implements the bound formulas so that the Table 5
bench can reproduce that comparison:

* Oneshot (Tang et al. 2014, Lemma 10): achieving a ``(1 - 1/e - eps)``
  approximation with probability ``1 - delta`` needs
  ``beta = eps^-2 k^2 n (ln(1/delta) + ln k) / OPT_k`` simulations per
  Estimate call (stated up to a hidden constant, which we take as 1 — the
  same convention that reproduces the paper's quoted 1.0e8 for Wiki-Vote
  uc0.01, k = 4, eps = 0.05, delta = 0.01).
* RIS (Borgs et al. 2014 / Tang et al. 2014): ``theta`` on the order of
  ``eps^-2 k n ln n / OPT_k`` RR sets.

All functions return ``float`` (the bounds routinely exceed 2^63 on larger
instances) and validate their inputs.
"""

from __future__ import annotations

import math

from .._validation import require_fraction, require_positive_int


def _validate_common(epsilon: float, delta: float, num_vertices: int, k: int) -> None:
    require_fraction(epsilon, "epsilon")
    require_fraction(delta, "delta")
    require_positive_int(num_vertices, "num_vertices")
    require_positive_int(k, "k")


def oneshot_sample_bound(
    epsilon: float, delta: float, num_vertices: int, k: int, optimal_spread: float
) -> float:
    """Worst-case simulation count ``beta`` for Oneshot (Tang et al. 2014)."""
    _validate_common(epsilon, delta, num_vertices, k)
    if optimal_spread <= 0:
        raise ValueError(f"optimal_spread must be positive, got {optimal_spread}")
    return (
        epsilon ** -2
        * k ** 2
        * num_vertices
        * (math.log(1.0 / delta) + math.log(k) if k > 1 else math.log(1.0 / delta))
        / optimal_spread
    )


def ris_sample_bound(
    epsilon: float, delta: float, num_vertices: int, k: int, optimal_spread: float
) -> float:
    """Worst-case RR-set count ``theta`` (Borgs et al. / Tang et al., up to constants)."""
    _validate_common(epsilon, delta, num_vertices, k)
    if optimal_spread <= 0:
        raise ValueError(f"optimal_spread must be positive, got {optimal_spread}")
    log_term = k * math.log(num_vertices) + math.log(1.0 / delta)
    return epsilon ** -2 * num_vertices * log_term / optimal_spread


def theoretical_cost_ratios(
    num_vertices: int, num_edges: int, expected_live_edges: float
) -> dict[str, float]:
    """Table 1 / Section 5.3 per-sample cost ratios among the three approaches.

    Returns the predicted vertex-traversal ratio (Oneshot : Snapshot : RIS =
    1 : 1 : 1/n) and edge-traversal ratio (1 : m~/m : 1/n), keyed by approach,
    normalised so Oneshot = 1.
    """
    require_positive_int(num_vertices, "num_vertices")
    require_positive_int(num_edges, "num_edges")
    if expected_live_edges <= 0:
        raise ValueError(
            f"expected_live_edges must be positive, got {expected_live_edges}"
        )
    return {
        "oneshot_vertex": 1.0,
        "snapshot_vertex": 1.0,
        "ris_vertex": 1.0 / num_vertices,
        "oneshot_edge": 1.0,
        "snapshot_edge": expected_live_edges / num_edges,
        "ris_edge": 1.0 / num_vertices,
    }
