"""Mutation check for the library's decisions: recovery's, the diagnostics',
the cloud reader's and constructor's, the binary64 writer's, certification's,
metrizability's, the admissible interval's, the forced distances', the
isomorphism's near-ties, the realization plan's and its depth rule, the
number rules', the JSON writer's refusal of an int past the digit limit,
and the embedding command's choice of the line or the circle.

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
CLI = "metric_cluster/cli.py"
THRESHOLDS = "tests/test_recovery.py::test_{}_at_its_threshold"
UNITS = "tests/test_cli.py::test_malformed_shadows_in_units_of_the_scale_exit_2[{}]"
LOWER = "tests/test_realization.py::test_lower_member_equals_the_fraction_construction[{}]"
NAMED = "tests/test_cli.py::test_bad_cloud_number_exit_2[{}]"
SPELLING = "tests/test_graph_core.py::test_{}"
DIGIT_LIMIT = "tests/test_arguments.py::test_an_int_past_the_digit_limit_is_named_by_its_bits"
SCALE_LIMIT = [
    "tests/test_realization.py::test_realization_refuses_the_first_scale_the_writer_cannot_spell",
    "tests/test_realization.py::test_single_point_space_refuses_the_first_scale_the_writer_cannot_spell",
    "tests/test_realization.py::test_the_scale_loop_refuses_the_first_scale_past_the_digit_limit_exactly",
]

# (file under src/, old text, new text, the tests that must fail)
MUTANTS = [
    # identification: a value at most E = tol_abs + tol_rel * base_scale is zero
    (RECOVERY, "if high <= eq_bound:\n            union(x, y)", "if high < eq_bound:\n            union(x, y)",
     [THRESHOLDS.format("identification")]),
    (RECOVERY, "eq_bound = zero_gap(base_scale, common)", "eq_bound = zero_gap(base_scale, 2 * common)",
     [THRESHOLDS.format("identification")]),
    # the base scale is the largest basepoint pair's value: the first pairs, one per label
    (RECOVERY, "base_scale = max(highs[: len(labels)], default=0)", "base_scale = max(highs, default=0)",
     [THRESHOLDS.format("identification")]),
    # decay: non-increasing up to E, and the last value at most half the first
    (RECOVERY, "vals[i + 1] <= vals[i] + eq_bound", "vals[i + 1] <= vals[i]", [THRESHOLDS.format("decay")]),
    (RECOVERY, "2 * vals[-1] <= vals[0]", "2 * vals[-1] < vals[0]", [THRESHOLDS.format("decay")]),
    # closure: a merged pair's mean may reach 3 E, and no further
    (RECOVERY, "if total > zero_gap(3 * window * base_scale, 3 * window * common):",
     "if total >= zero_gap(3 * window * base_scale, 3 * window * common):", [THRESHOLDS.format("closure_error")]),
    (RECOVERY, "if total > zero_gap(3 * window * base_scale, 3 * window * common):",
     "if total > zero_gap(2 * window * base_scale, 2 * window * common):", [THRESHOLDS.format("closure_error")]),
    (RECOVERY, "if total > zero_gap(3 * window * base_scale, 3 * window * common):",
     "if total > zero_gap(4 * window * base_scale, 4 * window * common):", [THRESHOLDS.format("closure_error")]),
    # adjacency and basepoint stability: a spread at most tol_abs + tol_rel * mean
    (RECOVERY, "return spread * window <= zero_gap(total, window * common)",
     "return spread * window < zero_gap(total, window * common)",
     [THRESHOLDS.format("adjacency"), THRESHOLDS.format("basepoint_stability")]),
    # a pair's values are kept under the pair in trace order alone, the basepoint first
    (RECOVERY, "values[(rep_b, rep_a) if rep_b is _BASE else (rep_a, rep_b)]",
     "values[(rep_a, rep_b) if rep_b is _BASE else (rep_b, rep_a)]", [THRESHOLDS.format("adjacency")]),
    # a cloud's labels are every level's, each run of levels with equal labels read once
    (REALIZATION, "groupby(lvl.labels for lvl in self.levels)", "groupby(lvl.labels for lvl in self.levels[:1])",
     ["tests/test_recovery.py::test_the_labels_of_a_cloud_are_the_union_of_its_levels"]),
    # an edge weighs the tail mean
    (RECOVERY, "edges[(name_a, name_b)] = Fraction(total, window * common)",
     "edges[(name_a, name_b)] = Fraction(total, common)", [THRESHOLDS.format("adjacency")]),
    # the values a binary64 level holds: each coordinate x as the rational
    # x / r, over the least common denominator r.numerator * lcm(b)
    (RECOVERY, "common = scale.numerator * math.lcm(", "common = math.lcm(",
     ["tests/test_recovery.py::test_exact_and_binary64_levels_of_a_window_share_one_denominator"]),
    (RECOVERY, "a * scale.denominator * (common", "a * (common",
     ["tests/test_recovery.py::test_exact_and_binary64_levels_of_a_window_share_one_denominator"]),
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
    # an annulus holds the norms N / Q of [r / k, r * k]: from ceil(r Q / k) to floor(r Q k), both ends in
    (RECOVERY, "low, high = math.ceil(r * common / k),", "low, high = math.floor(r * common / k),",
     ["tests/test_recovery.py::test_an_annulus_holds_the_norms_of_its_closed_interval"]),
    (RECOVERY, "bisect_right(norms, high)]", "bisect_left(norms, high)]",
     ["tests/test_recovery.py::test_an_annulus_holds_the_norms_of_its_closed_interval"]),
    # the spread functional divides by the largest basepoint distance to the power m + 1, m pairs
    (RECOVERY, "top ** (len(pairs) + 1)", "top ** len(pairs)",
     ["tests/test_recovery.py::test_spread_functional_is_scale_free"]),
    # the reader reads each level in units of its scale over a positive over
    (REALIZATION, "over = _integer(entry[\"over\"], 1,", "over = _integer(entry[\"over\"], 0,",
     [UNITS.format("over-zero")]),
    # a level that names by points_of an earlier exact level with points,
    # by an int that is no bool, has neither points nor over and has r_exact
    (REALIZATION, "if type(points_of) is int else None", "if isinstance(points_of, int) else None",
     [NAMED.format("points_of-true")]),
    (REALIZATION, "        if lvl.q is not None:\n            exact[lvl.n] = lvl", "        if True:\n            exact[lvl.n] = lvl",
     [NAMED.format("points_of-a-binary64-level")]),
    (REALIZATION, 'for field in ("points", "over"):', 'for field in ("points",):',
     [NAMED.format("over-beside-points_of")]),
    (REALIZATION, '    if entry.get("r_exact") is None:\n        raise', '    if False:\n        raise',
     [NAMED.format("points_of-beside-r")]),
    # an exact value is spelled in ASCII digits alone, which int() reads
    (GRAPH_CORE, 'if ",".join(texts).encode().translate(None, b"0123456789-,") else ()', "if False else ()",
     ["tests/test_cli.py::test_each_refused_spelling_of_an_exact_value_exit_2[plus]"]),
    # the writer names an earlier level by points_of only where both are written as numerators
    (REALIZATION, "if shadowed and lvl.q is not None else None", "if lvl.q is not None else None",
     ["tests/test_realization.py::test_files_without_shadows_in_units_are_pinned[12-None-floats]"]),
    # a level with over is read in units of its scale on the checked path
    (REALIZATION, 'if "over" in entry:\n        over = _integer(', 'if False:\n        over = _integer(',
     ["tests/test_realization.py::test_unreduced_shadows_load_over_the_least_denominator"]),
    # one scale and one kind per level: numerators over q beside r_exact, and
    # coordinates beside r; a point's shadow without coords; the file and code alike
    (REALIZATION, "        if r is not None:\n            raise _retired(", "        if False:\n            raise _retired(",
     ["tests/test_realization.py::test_each_retired_shape_built_in_code_is_refused"]),
    (REALIZATION, "            if shadowed and coords is not None:", "            if False:",
     ["tests/test_realization.py::test_each_retired_layout_is_refused_at_its_level[coords_beside_exact]"]),
    (REALIZATION, "                if shadowed != kind:", "                if False:",
     ["tests/test_realization.py::test_each_retired_layout_is_refused_at_its_level[exact_and_coords_mixed]"]),
    (REALIZATION, "    if rows and not exact and r_exact is not None:", "    if False:",
     ["tests/test_realization.py::test_each_retired_shape_built_in_code_is_refused"]),
    (REALIZATION, "    if r_exact is None:\n        raise GraphError(", "    if False:\n        raise GraphError(",
     ["tests/test_realization.py::test_each_retired_shape_built_in_code_is_refused",
      "tests/test_realization.py::test_a_file_and_code_refuse_alike"]),
    (REALIZATION, "    if over is None:\n        raise _retired(", "    if False:\n        raise _retired(",
     ["tests/test_realization.py::test_each_retired_layout_is_refused_at_its_level[absolute]"]),
    # the one scale loop of realization and of the one-point space refuses the
    # first level whose r_n str() cannot spell, and builds none past it
    (REALIZATION, "        if r.bit_length() > bits and r >= 10**limit:", "        if False:", SCALE_LIMIT),
    (REALIZATION, "and r >= 10**limit:", "and r >= 10 ** (limit + 1):", SCALE_LIMIT),
    # 10**limit is built only for an r past limit * 33219 // 10000 bits, and always then
    (REALIZATION, "if r.bit_length() > bits and", "if r.bit_length() > bits + 64 and", SCALE_LIMIT),
    # the one-point space scales level n by r_n = r_{n-1} * 4**n = 2**(n*n + n)
    (REALIZATION, "_exact_scales(depth, lambda n: 4**n)", "_exact_scales(depth, lambda n: 2**n)",
     ["tests/test_realization.py::test_power_square_rule"]),
    # the binary64 writer refuses a value beyond binary64 with GraphError, never OverflowError
    (REALIZATION, "    except OverflowError:\n        # some point's division overflowed",
     "    except ZeroDivisionError:\n        # some point's division overflowed",
     ["tests/test_realization.py::test_a_coordinate_that_rounds_to_infinity_is_refused_by_each_binary64_reader"]),
    (REALIZATION, "float(lvl.r_exact))\n                except OverflowError as exc:",
     "float(lvl.r_exact))\n                except ZeroDivisionError as exc:",
     ["tests/test_realization.py::test_a_coordinate_that_rounds_to_infinity_is_refused_by_each_binary64_reader"]),
    # a plan is made by build_plan alone, whose depth rule refuses a depth below
    # the family's period, and only that: a complete graph, of one member,
    # realizes at depth 1
    (REALIZATION, 'raise TypeError("a RealizationPlan is made by build_plan")',
     'vars(self).update(zip(("graph", "family", "depth"), args), **kwargs)',
     ["tests/test_realization.py::test_a_plan_is_made_by_build_plan_alone"]),
    (REALIZATION, "if depth < len(family):", "if depth <= len(family):",
     ["tests/test_realization.py::test_a_depth_shorter_than_the_family_period_is_refused"]),
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
    # a graph is metrizable iff every edge weight equals the shortest-path distance, which is never more
    (METRIZATION, "if w > sg.row(i)[j]:", "if w >= sg.row(i)[j]:",
     ["tests/test_metrization.py::test_tight_four_cycle_is_metrizable"]),
    # a non-edge's distance is forced only where its admissible interval is one point
    (METRIZATION, "if lo == hi:", "if lo <= hi:", ["tests/test_metrization.py::test_strict_quad_has_no_unique_pairs"]),
    # an admissible interval's lower end is never below 0
    (METRIZATION, "lo = max(0, max(map(operator.sub, sg.slack(sg.index[mu]), from_nu)))",
     "lo = max(map(operator.sub, sg.slack(sg.index[mu]), from_nu))",
     ["tests/test_metrization.py::test_interval_matches_simple_path_oracle"]),
    # a number is spelled in ASCII digits: \d also matches other scripts' digits, which int() reads
    (GRAPH_CORE, '_INTEGER = re.compile("-?[0-9]+")', '_INTEGER = re.compile(r"-?\\d+")',
     [SPELLING.format("a_rational_literal_is_spelled_in_ascii_digits_alone"),
      SPELLING.format("the_bulk_integer_reader_reads_as_the_integer_rule")]),
    (GRAPH_CORE, "([0-9]+)/([0-9]+)", "([0-9]+)/(\\d+)",
     [SPELLING.format("a_rational_literal_is_spelled_in_ascii_digits_alone"),
      SPELLING.format("every_short_spelling_reads_alike_on_every_python_version")]),
    # a decimal literal has no p/q
    (GRAPH_CORE, "if match is None or match[3] is not None:", "if match is None:",
     [SPELLING.format("a_decimal_literal_is_a_rational_literal_without_a_ratio")]),
    # the power of ten of an exponent or of places: 10**k has k + 1 digits, within the limit and no more
    (GRAPH_CORE, "len(p.lstrip(\"0\")) + shift) > (_digit_limit() or 4300)",
     "len(p.lstrip(\"0\")) + shift) >= (_digit_limit() or 4300)",
     [SPELLING.format("a_literal_is_refused_past_the_digit_limit_at_its_bound")]),
    (GRAPH_CORE, "if (1 - shift if shift < 0 else", "if (-shift if shift < 0 else",
     [SPELLING.format("a_literal_is_refused_past_the_digit_limit_at_its_bound")]),
    # a near-tie: labels a <= b with a >= (1 - tol)**2 * b
    (GRAPH_CORE, "if labels[u] >= factor * labels[v]), None)", "if labels[u] > factor * labels[v]), None)",
     ["tests/test_graph_core.py::test_a_near_tie_at_its_boundary_is_refused"]),
    # the JSON writer names an int past the digit limit as format_rational does: its walk tests
    # each int it writes, goes into each list and goes into each dict's values
    (GRAPH_CORE, "            if isinstance(scalar, int):", "            if isinstance(scalar, bool):", [DIGIT_LIMIT]),
    (GRAPH_CORE, "        yield from _scalars(item)", "        yield item", [DIGIT_LIMIT]),
    (GRAPH_CORE, "        value = value.values()", "        value = ()", [DIGIT_LIMIT]),
    # embed puts a tight cycle on the line and any other on the circle
    (CLI, "if cycle.is_tight():", "if not cycle.is_tight():",
     ["tests/test_cli.py::test_embed_puts_a_tight_cycle_on_the_line"]),
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
