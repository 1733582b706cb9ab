"""Edge-probability models (Section 4.3 of the paper).

Publicly available network data rarely ships with influence probabilities, so
the paper assigns them artificially using four well-established strategies:

``uc0.1`` / ``uc0.01``
    *Uniform cascade*: every edge has the same constant probability.
``iwc``
    *In-degree weighted cascade*: ``p(u, v) = 1 / d-(v)``, so the expected
    number of live in-edges of every vertex is exactly one.
``owc``
    *Out-degree weighted cascade*: ``p(u, v) = 1 / d+(u)``, so every vertex
    spends exactly one unit of expected outgoing influence.
``trivalency``
    The classical TRIVALENCY model (not evaluated in the paper's main tables
    but common in the IM literature): each edge draws uniformly from
    ``{0.1, 0.01, 0.001}``.  Included as an extension.

All functions return a **new** graph; the input graph is never modified.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import UnknownProbabilityModelError
from .._validation import require_probability
from .influence_graph import InfluenceGraph

#: Names accepted by :func:`assign_probabilities`.
PROBABILITY_MODELS: tuple[str, ...] = ("uc0.1", "uc0.01", "iwc", "owc", "trivalency")

#: Probability values used by the trivalency model.
TRIVALENCY_VALUES: tuple[float, ...] = (0.1, 0.01, 0.001)


def uniform_cascade(graph: InfluenceGraph, probability: float) -> InfluenceGraph:
    """Assign the same ``probability`` to every edge."""
    p = require_probability(probability, "probability")
    probs = np.full(graph.num_edges, p, dtype=np.float64)
    return graph.with_probabilities(probs)


def in_degree_weighted_cascade(graph: InfluenceGraph) -> InfluenceGraph:
    """Assign ``p(u, v) = 1 / d-(v)`` (the paper's ``iwc`` model)."""
    sources, targets, _ = graph.edge_arrays()
    in_degrees = graph.in_degrees().astype(np.float64)
    # Every edge's target has in-degree >= 1 by construction, so no division
    # by zero can occur; the assertion documents the invariant.
    target_degrees = in_degrees[targets]
    assert np.all(target_degrees >= 1.0)
    probs = 1.0 / target_degrees
    del sources
    return graph.with_probabilities(probs)


def out_degree_weighted_cascade(graph: InfluenceGraph) -> InfluenceGraph:
    """Assign ``p(u, v) = 1 / d+(u)`` (the paper's ``owc`` model)."""
    sources, _, _ = graph.edge_arrays()
    out_degrees = graph.out_degrees().astype(np.float64)
    source_degrees = out_degrees[sources]
    assert np.all(source_degrees >= 1.0)
    probs = 1.0 / source_degrees
    return graph.with_probabilities(probs)


def trivalency(graph: InfluenceGraph, *, seed: int = 0) -> InfluenceGraph:
    """Assign each edge a probability drawn uniformly from ``{0.1, 0.01, 0.001}``."""
    rng = np.random.default_rng(seed)
    values = np.asarray(TRIVALENCY_VALUES, dtype=np.float64)
    probs = rng.choice(values, size=graph.num_edges)
    return graph.with_probabilities(probs)


def _parse_uniform(model: str) -> float | None:
    """Return the constant probability for names of the form ``uc<value>``."""
    if not model.startswith("uc"):
        return None
    try:
        return float(model[2:])
    except ValueError:
        return None


def is_valid_probability_model(model: str) -> bool:
    """Whether ``model`` names a scheme :func:`assign_probabilities` accepts.

    Used for eager validation in declarative specs: any registered name, or
    ``uc<value>`` with a constant in the half-open interval (0, 1].
    """
    constant = _parse_uniform(model)
    if constant is not None:
        return 0.0 < constant <= 1.0
    return model in PROBABILITY_MODELS


def assign_probabilities(
    graph: InfluenceGraph, model: str, *, seed: int = 0
) -> InfluenceGraph:
    """Assign influence probabilities to ``graph`` according to ``model``.

    ``model`` is one of :data:`PROBABILITY_MODELS`; additionally any name of
    the form ``uc<value>`` (e.g. ``uc0.05``) selects a uniform cascade with
    that constant.  The returned graph's name is suffixed with the model name
    so that experiment reports identify the instance unambiguously.
    """
    constant = _parse_uniform(model)
    if constant is not None:
        result = uniform_cascade(graph, constant)
    elif model == "iwc":
        result = in_degree_weighted_cascade(graph)
    elif model == "owc":
        result = out_degree_weighted_cascade(graph)
    elif model == "trivalency":
        result = trivalency(graph, seed=seed)
    else:
        raise UnknownProbabilityModelError(
            f"unknown probability model {model!r}; expected one of {PROBABILITY_MODELS}"
        )
    return result.with_name(f"{graph.name} ({model})")
