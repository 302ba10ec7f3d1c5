"""Mutation check for the library's decisions: recovery's, the cloud reader's,
certification's, the admissible interval's, the isomorphism's near-ties and
the realization plan's.

Each mutant below changes one comparison of the library: a file under src/,
an exact old text that must occur there once, the new text, and the tests
that must fail once the edit is made. For each mutant the script copies src/
to a temporary directory, applies the edit there and runs its tests with
pytest against the copy. It first runs every selection on an unedited copy,
which must pass, so that a failing selection cannot pass for a kill.

Run from anywhere, standard library and pytest only:

    python3 tests/mutants.py

It exits 1 when a mutant survives, when an old text no longer occurs exactly
once, or when the unedited copy fails a selection. The file name keeps pytest
from collecting it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECOVERY = "metric_cluster/recovery.py"
REALIZATION = "metric_cluster/realization.py"
FPC = "metric_cluster/fpc.py"
METRIZATION = "metric_cluster/metrization.py"
GRAPH_CORE = "metric_cluster/graph_core.py"
THRESHOLDS = "tests/test_recovery.py::test_{}_at_its_threshold"
UNITS = "tests/test_cli.py::test_malformed_shadows_in_units_of_the_scale_exit_2[{}]"
LOWER = "tests/test_realization.py::test_lower_member_equals_the_fraction_construction[{}]"

# (file under src/, old text, new text, the tests that must fail)
MUTANTS = [
    # identification: a value at most E = tol_abs + tol_rel * base_scale is zero
    (RECOVERY, "if all(v <= eq_bound for v in values[x, y]):", "if all(v < eq_bound for v in values[x, y]):",
     [THRESHOLDS.format("identification")]),
    (RECOVERY, "eq_bound = zero_gap(base_scale, common)", "eq_bound = zero_gap(base_scale, 2 * common)",
     [THRESHOLDS.format("identification")]),
    # decay: non-increasing up to E, and the last value at most half the first
    (RECOVERY, "vals[i + 1] <= vals[i] + eq_bound", "vals[i + 1] <= vals[i]", [THRESHOLDS.format("decay")]),
    (RECOVERY, "2 * vals[-1] <= vals[0]", "2 * vals[-1] < vals[0]", [THRESHOLDS.format("decay")]),
    # closure: a merged pair's mean may reach 3 E, and no further
    (RECOVERY, "if sum(vals) > zero_gap(3 * window * base_scale, 3 * window * common):",
     "if sum(vals) >= zero_gap(3 * window * base_scale, 3 * window * common):", [THRESHOLDS.format("closure_error")]),
    (RECOVERY, "if sum(vals) > zero_gap(3 * window * base_scale, 3 * window * common):",
     "if sum(vals) > zero_gap(2 * window * base_scale, 2 * window * common):", [THRESHOLDS.format("closure_error")]),
    (RECOVERY, "if sum(vals) > zero_gap(3 * window * base_scale, 3 * window * common):",
     "if sum(vals) > zero_gap(4 * window * base_scale, 4 * window * common):", [THRESHOLDS.format("closure_error")]),
    # adjacency and basepoint stability: a spread at most tol_abs + tol_rel * mean
    (RECOVERY, "return spread * window <= zero_gap(total, window * common)",
     "return spread * window < zero_gap(total, window * common)",
     [THRESHOLDS.format("adjacency"), THRESHOLDS.format("basepoint_stability")]),
    # an edge weighs the tail mean
    (RECOVERY, "edges[(name_a, name_b)] = Fraction(total, window * common)",
     "edges[(name_a, name_b)] = Fraction(total, common)", [THRESHOLDS.format("adjacency")]),
    # the values a level holds: shadows over q, each binary64 coordinate as its
    # dyadic rational over the scale, and r_exact as the scale where a level has one
    (RECOVERY, "k = common // (q or 1)", "k = 1",
     ["tests/test_recovery.py::test_shadows_and_binary64_values_of_a_level_share_one_denominator"]),
    (REALIZATION, "return Fraction(r) if r_exact is None else r_exact", "return Fraction(r)",
     ["tests/test_recovery.py::test_exact_values_match_fraction_oracle[hand_built]"]),
    # _zero_gap: the largest integer gap within tol_abs + tol_rel * size
    (RECOVERY, "return lambda size, q: (ab * q + rel * size) // den",
     "return lambda size, q: (ab * q + rel * size) // den - 1", [THRESHOLDS.format("adjacency")]),
    (RECOVERY, "return lambda size, q: (ab * q + rel * size) // den",
     "return lambda size, q: (ab * size + rel * q) // den", [THRESHOLDS.format("identification")]),
    # subsample_levels keeps the period when the k-th kept level sits at k modulo p
    (RECOVERY, "available[n][0] % p != k % p", "available[n][0] != k",
     ["tests/test_recovery.py::test_a_subsample_of_whole_periods_in_order_keeps_the_period"]),
    (RECOVERY, "available[n][0] % p != k % p", "available[n][0] % p != 0",
     ["tests/test_recovery.py::test_a_subsample_of_whole_periods_in_order_keeps_the_period"]),
    # the one-pass reader takes shadows alone, in units of the scale over a
    # positive over only, in lowest terms, and rounds none beyond binary64
    (REALIZATION, "over > 0 and r_exact is not None", "over != 0 and r_exact is not None",
     [UNITS.format("over-negative")]),
    (REALIZATION, "over > 0 and r_exact is not None", "over >= 0 and r_exact is not None",
     [UNITS.format("over-zero")]),
    (REALIZATION, " and given == [None] * len(points)", "",
     ["tests/test_cli.py::test_coordinates_or_a_scale_apart_from_their_shadows_exit_2"]),
    (REALIZATION, "over = _integer(entry[\"over\"], 1,", "over = _integer(entry[\"over\"], 0,",
     [UNITS.format("over-zero")]),
    (REALIZATION, "q, (numerators,) = _in_lowest_terms(over, [numerators])", "q = over",
     ["tests/test_realization.py::test_unreduced_shadows_load_over_the_least_denominator"]),
    (REALIZATION, "        _binary64_guard(numerators, q, r_exact)\n", "",
     ["tests/test_realization.py::test_the_level_guard_refuses_exactly_a_shadow_beyond_binary64"]),
    # a level without over holds coordinates, put over the scale in lowest terms
    (REALIZATION, "    return _in_lowest_terms(q, [tuple([k * a for a in row]) if row else None for row in rows])",
     "    return q, [tuple([k * a for a in row]) if row else None for row in rows]",
     ["tests/test_realization.py::test_load_and_write_reproduces_the_cloud"]),
    # a level with over is read in units of its scale on the checked path
    (REALIZATION, 'if "over" in entry:\n            q = _in_units_of_scale(',
     'if False:\n            q = _in_units_of_scale(',
     ["tests/test_realization.py::test_partly_shadowed_level_loads_writes_back_and_is_not_exact"]),
    # generate_cloud refuses a level whose largest distance leaves binary64
    (REALIZATION, "            r * diameter / q_diameter\n", "",
     ["tests/test_cli.py::test_realize_a_level_whose_points_lie_past_binary64_exit_2"]),
    # build_plan: each non-edge goes in at c * d(u, v) - delta, c = min(m + 1, n)
    (REALIZATION, "c = min(len(non_edges) + 1, len(g))", "c = min(len(non_edges), len(g))",
     [LOWER.format(3)]),
    (REALIZATION, "c = min(len(non_edges) + 1, len(g))", "c = min(len(non_edges) + 1, len(g) + 1)",
     [LOWER.format(12)]),
    (REALIZATION, "edges.append((i, j, c * sg.row(i)[j] - delta))", "edges.append((i, j, c * sg.row(i)[j] - 2 * delta))",
     [LOWER.format(3)]),
    # certification's three conditions, a gap within the tolerance counting as zero
    (FPC, "if abs(a - b) <= zero_gap(max(a, b), q)", "if abs(a - b) < zero_gap(max(a, b), q)",
     ["tests/test_fpc.py::test_star_labeling_collision_witness"]),
    (FPC, "if w - sg.row(i)[j] > zero_gap(w, sg.scale):", "if w - sg.row(i)[j] >= zero_gap(w, sg.scale):",
     ["tests/test_fpc.py::test_star_labeling_injective"]),
    (FPC, "if hi - lo <= zero_gap(hi, sg.scale):", "if hi - lo < zero_gap(hi, sg.scale):",
     ["tests/test_fpc.py::test_certify_tight_cycle_not_clique"]),
    # an admissible interval's lower end is never below 0
    (METRIZATION, "lo = max(0, max(map(operator.sub, sg.slack(sg.index[mu]), from_nu)))",
     "lo = max(map(operator.sub, sg.slack(sg.index[mu]), from_nu))",
     ["tests/test_metrization.py::test_interval_matches_simple_path_oracle"]),
    # a near-tie: labels a <= b with a >= (1 - tol)**2 * b
    (GRAPH_CORE, "if labels[u] >= factor * labels[v]), None)", "if labels[u] > factor * labels[v]), None)",
     ["tests/test_graph_core.py::test_a_near_tie_at_its_boundary_is_refused"]),
]


def run_tests(src: Path, selection: list[str]) -> int:
    """pytest's exit status on the selection, with the package imported from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def copy_of_src(tmp: str, name: str) -> Path:
    copy = Path(tmp) / name
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def main() -> int:
    start = time.monotonic()
    faults = []
    with tempfile.TemporaryDirectory() as tmp:
        selections = sorted({test for *_, selection in MUTANTS for test in selection})
        if run_tests(copy_of_src(tmp, "unedited"), selections) != 0:
            faults.append("the unedited sources fail the selected tests")
        for i, (path, old, new, selection) in enumerate(MUTANTS):
            source = (SRC / path).read_text(encoding="utf-8")
            label = f"mutant {i} ({path}: {old!r} -> {new!r})"
            if source.count(old) != 1:
                faults.append(f"{label}: the old text occurs {source.count(old)} times")
                continue
            copy = copy_of_src(tmp, f"mutant{i}")
            (copy / path).write_text(source.replace(old, new), encoding="utf-8")
            status = run_tests(copy, selection)
            # pytest exits 1 when a test fails; any other status is no kill
            verdict = "killed" if status == 1 else "SURVIVED" if status == 0 else f"pytest exited {status}"
            print(f"{label}: {verdict}")
            if status != 1:
                faults.append(f"{label}: {verdict}")
    print(f"{len(MUTANTS)} mutants, {len(faults)} faults, {time.monotonic() - start:.1f} s")
    for fault in faults:
        print(f"FAULT: {fault}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
