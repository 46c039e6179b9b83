"""Covering dag patterns by acyclic subgraphs: parameters and experiments.

The package computes, exactly and at desk scale, the combinatorial
quantities behind the covering-threshold dichotomy for dag patterns in
random digraphs: fractional arboricity and maximal density, the
skewness of a dag, the covering number tau(H, G), consistent vertex
families for permutation sets, and a seeded Monte Carlo harness.
"""

from .covering import (
    ConsistentFamily,
    Copy,
    CopySet,
    CoverSolution,
    TauExactResult,
    TauOneResult,
    consistent_sets,
    enumerate_copies,
    find_consistent_copy,
    skew_witness_pipeline,
    tau_exact,
    tau_greedy,
    tau_le_one,
    tau_lower_clique,
    union_graph,
    verify_consistent,
)
from .density import (
    DensityReport,
    fractional_arboricity,
    is_totally_balanced,
    maximal_density,
)
from .digraph import (
    Digraph,
    Permutation,
    forward_count,
    is_dag,
    is_rooted_star,
    make_directed_path,
    make_rooted_star,
    make_transitive_tournament,
    shortest_directed_cycle,
    topological_order,
)
from .errors import (
    DagCoverError,
    InfeasibleSizeError,
    InvalidInputError,
    SizeLimitError,
    UndefinedParameterError,
)
from .experiments import (
    CensusResult,
    SweepConfig,
    SweepRow,
    balanced_census,
    figure1_graph,
    rows_to_csv,
    rows_to_json,
    sample_digraph,
    sample_undirected,
    threshold_sweep,
)
from .skewness import (
    Partition,
    SkewReport,
    coloring_skew,
    skewness_exact,
    skewness_upper_random,
)

__version__ = "0.1.0"
