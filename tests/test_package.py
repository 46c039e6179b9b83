import importlib.util
import sys
import types
from pathlib import Path

import dagcover

# The package's public surface.  A name joins or leaves it on purpose:
# change this list together with the import list in dagcover/__init__.py.
PUBLIC_NAMES = [
    "CensusResult",
    "ConsistentFamily",
    "Copy",
    "CopySet",
    "CoverSolution",
    "DagCoverError",
    "DensityReport",
    "Digraph",
    "InfeasibleSizeError",
    "InvalidInputError",
    "Partition",
    "Permutation",
    "SizeLimitError",
    "SkewReport",
    "SweepConfig",
    "SweepRow",
    "TauExactResult",
    "TauOneResult",
    "UndefinedParameterError",
    "balanced_census",
    "coloring_skew",
    "consistent_sets",
    "enumerate_copies",
    "figure1_graph",
    "find_consistent_copy",
    "forward_count",
    "fractional_arboricity",
    "is_dag",
    "is_rooted_star",
    "is_totally_balanced",
    "make_directed_path",
    "make_rooted_star",
    "make_transitive_tournament",
    "maximal_density",
    "rows_to_csv",
    "rows_to_json",
    "sample_digraph",
    "sample_undirected",
    "shortest_directed_cycle",
    "skew_witness_pipeline",
    "skewness_exact",
    "skewness_upper_random",
    "tau_exact",
    "tau_greedy",
    "tau_le_one",
    "tau_lower_clique",
    "threshold_sweep",
    "topological_order",
    "union_graph",
    "verify_consistent",
]


def test_public_surface_is_pinned(monkeypatch):
    public = sorted(
        name
        for name in dir(dagcover)
        if not name.startswith("_") and not isinstance(getattr(dagcover, name), types.ModuleType)
    )
    assert public == PUBLIC_NAMES

    # the benchmark's tracer patches its layer functions by name on the package
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look their module up there
    spec.loader.exec_module(tracing)
    traced = {name for name, *_ in tracing.LAYERS}
    assert traced and traced <= set(PUBLIC_NAMES), traced - set(PUBLIC_NAMES)
