"""Weighted rooted graphs as asymptotic clusters of metric spaces.

The library decides whether a finite weighted rooted graph can arise as the
cluster of pretangent spaces of an unbounded metric space at infinity, builds
a finite truncation of a realizing space when it can, and recovers the cluster
back from finite-scale point data. Every decision runs on exact rational
arithmetic, recovery's and the diagnostics' too: a point cloud's binary64
coordinates, where it has no exact rational shadows, are read as the dyadic
rationals they are.
"""

from .graph_core import (
    Cycle,
    GraphError,
    WeightedRootedGraph,
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
)
from .fpc import (
    CliqueBoundReport,
    FpcCertificate,
    certify_fpc,
    clique_bound_check,
    graph_from_metric_space,
    moon_moser_f,
    synthesize_weights,
    witness_is_genuine,
)
from .realization import (
    LeveledPointCloud,
    RealizationPlan,
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
