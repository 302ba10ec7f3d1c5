import ast
import sys
from pathlib import Path

import metric_cluster

PACKAGE_DIR = Path(metric_cluster.__file__).parent


def imported_modules(path: Path):
    """Top-level names of the absolute imports in one module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_only_the_standard_library():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    foreign = {
        f"{path.name}: {name}"
        for path in modules
        for name in imported_modules(path)
        if name not in sys.stdlib_module_names
    }
    assert not foreign, f"imports outside the standard library: {sorted(foreign)}"


# the public surface: a change that adds or removes a public name edits this list
PUBLIC_NAMES = [
    "CliqueBoundReport", "Cycle", "DistanceMatrix", "FpcCertificate", "GraphError", "IntervalQ",
    "LeveledPointCloud", "Metrizability", "MetrizabilityVerdict", "RealizationPlan", "RecoveredCluster",
    "WeightedRootedGraph", "admissible_interval", "alternating_period_indices",
    "annulus_diameter_table", "build_plan", "certify_fpc", "check_metrizable", "clique_bound_check",
    "cycle_from_graph", "embed_cycle_on_circle", "embed_tight_cycle_on_line", "extend_metric",
    "forced_completion", "generate_cloud", "graph_from_metric_space", "is_weight_preserving_homomorphism",
    "is_weight_preserving_monomorphism", "isomorphic", "maximal_cliques", "moon_moser_f",
    "period_stride_indices", "realize", "recover_cluster", "shortest_path_metric", "single_point_space",
    "spread_functional", "subsample_levels", "synthesize_weights",
    "validate_recovered_cluster", "witness_is_genuine",
]


def test_the_package_exports_the_public_names():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(imported) == PUBLIC_NAMES
    assert all(hasattr(metric_cluster, name) for name in PUBLIC_NAMES)
