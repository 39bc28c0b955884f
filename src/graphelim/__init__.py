"""graphelim: elimination-cost analysis and measurement pruning for
factor-graph SLAM.

The library models SLAM problems as block factor graphs, simulates node
elimination to quantify sparse-factorization cost as a function of graph
structure alone, and evaluates measurement-pruning policies (random,
tree-connectivity greedy, keyframing, decimation) by the cost reductions
they achieve.
"""

from .cliquetree import (
    Clique,
    CliqueTree,
    build_clique_tree,
    ec_of_clique_tree,
    format_clique_tree,
)
from .elimination import (
    EliminationTrace,
    Step,
    elimination_complexity,
    elimination_tree,
    landmark_first_ordering,
    load_ordering,
    min_degree_ordering,
    natural_ordering,
    optimal_ordering_bruteforce,
    save_ordering,
    scalar_mult_count,
    simulate_elimination,
    trace_to_csv,
)
from .experiment import (
    ExperimentSpec,
    ReportRow,
    WorstCaseParams,
    read_report_csv,
    rows_to_csv,
    run_experiment,
    summarize,
    write_report_csv,
)
from .graph import (
    Factor,
    FactorGraph,
    Kind,
    ParseError,
    Variable,
    graph_from_text,
    graph_to_text,
    load_graph,
    save_graph,
)
from .oracle import (
    CholeskyCount,
    NotPositiveDefiniteError,
    SparseSystem,
    cholesky_count,
    pearson_correlation,
    solve_with_factor,
    synthesize_system,
)
from .pruning import (
    PruneResult,
    apply_policy,
    decimation_offsets,
    predicted_ec_decimate,
    predicted_ec_full,
    predicted_ec_keyframe,
    prune_decimate,
    prune_keyframe,
    prune_random,
    prune_tgreedy,
)
from .simulate import (
    Frame,
    ObservationLog,
    Region,
    SimConfig,
    Trajectory,
    Visibility,
    build_graph,
    default_config,
    from_json_object,
    log_from_text,
    log_to_text,
    save_log,
    simulate_trajectory,
    to_json,
    worst_case_graph,
    worst_case_log,
)

__version__ = "0.1.0"
