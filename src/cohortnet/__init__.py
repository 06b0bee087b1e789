"""Cohort friendship-network analysis and group-assignment planning.

Builds a directed friendship network from survey nominations, detects
communities with divisive edge-betweenness removal and modularity
selection, ranks representatives by betweenness, classifies clusters by
mean mark, and plans assignment groups that keep high-performing clusters
intact while dispersing low-performing ones.

The public names below are re-exported from their submodules. Each
submodule loads on first access to one of its names (PEP 562), so
importing the package, or one submodule, does not import the rest.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "centrality": (
        "CentralityScores", "betweenness", "closeness", "degree", "eigenvector",
        "rank_representatives",
    ),
    "community": (
        "DivisionStep", "DivisionTrace", "best_partition",
        "edge_betweenness", "girvan_newman", "modularity",
    ),
    "config": ("RunConfig",),
    "demo": ("generate_demo_cohort",),
    "intervention": (
        "AssignmentPlan", "GroupProfile", "InterventionPolicy", "PlanGroup", "Role",
        "plan_intervention", "predicted_group_profile",
    ),
    "model": (
        "Cohort", "FriendshipNetwork", "Gender", "Measure", "Mode", "Partition", "Student",
        "SymmetrizeRule", "UndirectedView", "build_network", "make_cohort",
        "partition_from_blocks", "symmetrize",
    ),
    "stats": (
        "ClusterPerformance", "DistributionSummary", "GroupComparison", "PerfClass", "Shape",
        "cluster_performance", "compare_groups", "skewness", "summarize",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
