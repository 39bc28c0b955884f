"""graphelim: elimination-cost analysis and measurement pruning for
factor-graph SLAM.

The library models SLAM problems as block factor graphs, simulates node
elimination to quantify sparse-factorization cost as a function of graph
structure alone, and evaluates measurement-pruning policies (random,
tree-connectivity greedy, keyframing, decimation) by the cost reductions
they achieve.

Each exported name is imported from its module on first access (PEP 562),
so `import graphelim` loads no numpy; only the modules behind the names a
program reads are loaded.
"""

import importlib

_EXPORTS = {
    "cliquetree": (
        "Clique",
        "CliqueTree",
        "build_clique_tree",
        "ec_of_clique_tree",
        "format_clique_tree",
    ),
    "elimination": (
        "EliminationTrace",
        "Step",
        "elimination_complexity",
        "elimination_tree",
        "landmark_first_ordering",
        "load_ordering",
        "min_degree_ordering",
        "natural_ordering",
        "optimal_ordering_bruteforce",
        "save_ordering",
        "scalar_mult_count",
        "simulate_elimination",
        "trace_to_csv",
    ),
    "experiment": ("ExperimentSpec", "run_experiment"),
    "graph": (
        "Factor",
        "FactorGraph",
        "Kind",
        "Variable",
        "graph_from_text",
        "graph_to_text",
        "load_graph",
        "save_graph",
    ),
    "oracle": (
        "CholeskyCount",
        "FactorCheckError",
        "NotPositiveDefiniteError",
        "SparseSystem",
        "cholesky_count",
        "pearson_correlation",
        "synthesize_system",
    ),
    "pruning": (
        "PruneResult",
        "apply_policy",
        "decimation_offsets",
        "predicted_ec_decimate",
        "predicted_ec_full",
        "predicted_ec_keyframe",
        "prune_decimate",
        "prune_keyframe",
        "prune_random",
        "prune_tgreedy",
    ),
    "report": (
        "ParseError",
        "ReportRow",
        "read_report_csv",
        "rows_to_csv",
        "summarize",
        "write_report_csv",
    ),
    "simulate": (
        "Frame",
        "ObservationLog",
        "Region",
        "SimConfig",
        "Trajectory",
        "Visibility",
        "WorstCaseParams",
        "build_graph",
        "default_config",
        "from_json_object",
        "log_from_text",
        "log_to_text",
        "save_log",
        "simulate_trajectory",
        "to_json",
        "worst_case_graph",
        "worst_case_log",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
