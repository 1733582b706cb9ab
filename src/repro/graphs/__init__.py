"""Graph substrate: influence graphs, generators, datasets, probabilities, statistics."""

from .builder import GraphBuilder, graph_from_edge_list
from .datasets import (
    PAPER_DATASETS,
    SMALL_DATASETS,
    DatasetSpec,
    dataset_spec,
    list_datasets,
    load_dataset,
)
from .influence_graph import EdgeView, InfluenceGraph
from .io import read_edge_list, write_edge_list
from .probability import (
    PROBABILITY_MODELS,
    assign_probabilities,
    in_degree_weighted_cascade,
    out_degree_weighted_cascade,
    trivalency,
    uniform_cascade,
)
from .statistics import (
    NetworkStatistics,
    average_distance,
    clustering_coefficient,
    network_statistics,
    weak_components,
)
from . import generators

__all__ = [
    "EdgeView",
    "InfluenceGraph",
    "GraphBuilder",
    "graph_from_edge_list",
    "read_edge_list",
    "write_edge_list",
    "DatasetSpec",
    "PAPER_DATASETS",
    "SMALL_DATASETS",
    "dataset_spec",
    "list_datasets",
    "load_dataset",
    "PROBABILITY_MODELS",
    "assign_probabilities",
    "uniform_cascade",
    "in_degree_weighted_cascade",
    "out_degree_weighted_cascade",
    "trivalency",
    "NetworkStatistics",
    "network_statistics",
    "clustering_coefficient",
    "average_distance",
    "weak_components",
    "generators",
]
