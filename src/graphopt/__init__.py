"""Noisy optimization over graphs.

The package covers four connected pieces: budgeted best-arm
identification (successive rejects plus its error bound), local descent
that uses the bandit as its move oracle, noisy simulated annealing with
an exponential-weight kernel, and smoothed nearest-neighbor search on
proximity graphs. Convexity certificates tie the optimizers to their
theory, and a seeded harness produces gap-vs-budget CSVs.
"""

from .annealing import (
    SAConfig,
    sa_round_bound_convex,
    sa_round_bound_nearly,
    sa_step,
    sa_transition_probs,
    simulated_annealing,
    theory_sample_size,
)
from .bandit import (
    budget_schedule,
    hardness,
    log_bar,
    oracle_sampler,
    sr_bound_loose,
    sr_error_bound,
    successive_reject,
)
from .convexity import (
    NearConvexityReport,
    StrongConvexityCertificate,
    certify_nearly_convex,
    certify_strongly_convex,
)
from .descend import (
    descent_oracle,
    ed_error_bound,
    explore_descend,
    explore_descend_restarts,
)
from .graphs import (
    Graph,
    GraphFormatError,
    GridSpec,
    Path,
    grid_value,
    load_graph,
    make_grid_graph,
    make_knn_graph,
    make_plain_grid,
    random_walk,
    save_graph,
)
from .harness import (
    ExperimentConfig,
    GapStats,
    TrialRecord,
    gap_statistics,
    records_to_csv,
    run_trials,
    stats_to_csv,
    trial_rng,
)
from .nnsearch import (
    DistanceCache,
    PointSet,
    QueryResult,
    classify_majority,
    default_rounds,
    exact_nn,
    exact_nn_all,
    load_points,
    recall_at_k,
    save_points,
    sgnn_query,
    smoothed_sa_search,
)
from .oracle import BudgetExhaustedError, NoisyOracle
from .values import (
    ValueFormatError,
    ValueTable,
    common_denominator,
    exact_ratio,
    load_values,
    parse_values,
    save_values,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
