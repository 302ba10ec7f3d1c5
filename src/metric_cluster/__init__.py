"""Weighted rooted graphs as asymptotic clusters of metric spaces.

The library decides whether a finite weighted rooted graph can arise as the
cluster of pretangent spaces of an unbounded metric space at infinity, builds
a finite truncation of a realizing space when it can, and recovers the cluster
back from finite-scale point data. Everything combinatorial runs on exact
rational arithmetic; only the generated point clouds carry binary64 data (with
exact rational shadows alongside).
"""

from .graph_core import (
    Cycle,
    GraphError,
    IsoMapping,
    WeightedRootedGraph,
    is_dominating,
    is_weight_preserving_homomorphism,
    is_weight_preserving_monomorphism,
    isomorphic,
    maximal_cliques,
)
from .metrization import (
    DistanceMatrix,
    IntervalQ,
    Metrizability,
    MetrizabilityVerdict,
    admissible_interval,
    check_metrizable,
    cycle_from_graph,
    embed_cycle_on_circle,
    embed_tight_cycle_on_line,
    extend_metric,
    forced_completion,
    shortest_path_metric,
    unique_pairs,
)
from .fpc import (
    CliqueBoundReport,
    FpcCertificate,
    RootLabeling,
    certify_fpc,
    clique_bound_check,
    graph_from_metric_space,
    moon_moser_f,
    root_labeling,
    synthesize_weights,
    witness_is_genuine,
)
from .realization import (
    LeveledPointCloud,
    RealizationPlan,
    ScalingRule,
    build_plan,
    generate_cloud,
    realize,
    single_point_space,
)
from .recovery import (
    RecoveredCluster,
    alternating_period_indices,
    annulus_diameter_table,
    period_stride_indices,
    recover_cluster,
    spread_functional,
    subsample_levels,
    validate_recovered_cluster,
)

__version__ = "0.1.0"
