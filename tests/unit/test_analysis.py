"""Unit tests for the analysis layer: sweeps, crossovers, comparison,
selection, reporting."""

import numpy as np
import pytest

from repro.analysis import (
    Crossover,
    bisect_crossover,
    compare_assemblies,
    find_crossovers,
    format_comparison,
    format_sweep,
    format_table,
    select_assembly,
    sparkline,
    sweep_parameter,
)
from repro.core import ReliabilityEvaluator
from repro.errors import EvaluationError
from repro.scenarios import (
    SearchSortParameters,
    build_sort_component,
    local_assembly,
    remote_assembly,
)

FIXED = {"elem": 1, "res": 1}
GRID = np.linspace(1, 1000, 25)


class TestSweep:
    def test_symbolic_and_numeric_agree(self):
        assembly = local_assembly()
        symbolic = sweep_parameter(assembly, "search", "list", GRID, FIXED, "symbolic")
        numeric = sweep_parameter(assembly, "search", "list", GRID, FIXED, "numeric")
        np.testing.assert_allclose(symbolic.pfail, numeric.pfail, rtol=1e-10)

    def test_reliability_complements(self):
        sweep = sweep_parameter(local_assembly(), "search", "list", GRID, FIXED)
        np.testing.assert_allclose(sweep.reliability, 1.0 - sweep.pfail)

    def test_at_grid_point(self):
        sweep = sweep_parameter(local_assembly(), "search", "list", [10, 20], FIXED)
        assert sweep.at(20) == sweep.pfail[1]
        with pytest.raises(EvaluationError):
            sweep.at(15)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(EvaluationError):
            sweep_parameter(local_assembly(), "search", "bogus", GRID, FIXED)

    def test_unknown_method_rejected(self):
        with pytest.raises(EvaluationError):
            sweep_parameter(local_assembly(), "search", "list", GRID, FIXED, "magic")

    def test_empty_grid_rejected(self):
        with pytest.raises(EvaluationError):
            sweep_parameter(local_assembly(), "search", "list", [], FIXED)

    def test_rows(self):
        sweep = sweep_parameter(local_assembly(), "search", "list", [10.0], FIXED)
        rows = sweep.rows()
        assert len(rows) == 1
        value, pfail, reliability = rows[0]
        assert reliability == pytest.approx(1 - pfail)


class TestCrossovers:
    def test_linear_interpolation(self):
        grid = np.array([0.0, 1.0, 2.0])
        a = np.array([0.0, 1.0, 2.0])
        b = np.array([1.0, 1.0, 1.0])
        crossings = find_crossovers(grid, a, b)
        assert len(crossings) == 1
        assert crossings[0].location == pytest.approx(1.0)
        assert crossings[0].sign_before == -1

    def test_no_crossing(self):
        grid = np.array([0.0, 1.0])
        assert find_crossovers(grid, [0.0, 0.1], [1.0, 1.1]) == []

    def test_multiple_crossings(self):
        grid = np.linspace(0, 4 * np.pi, 400)
        crossings = find_crossovers(grid, np.sin(grid), np.zeros_like(grid))
        # interior sign changes at pi, 2pi, 3pi
        assert len(crossings) == 3
        assert crossings[0].location == pytest.approx(np.pi, abs=1e-1)
        assert crossings[1].location == pytest.approx(2 * np.pi, abs=1e-1)

    def test_tie_on_grid_point_reported_once(self):
        grid = np.array([0.0, 1.0, 2.0])
        crossings = find_crossovers(grid, [0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        assert len(crossings) == 1
        assert crossings[0].location == pytest.approx(1.0)

    def test_touch_without_sign_change_not_reported(self):
        grid = np.array([0.0, 1.0, 2.0])
        # curves touch at the middle point but A stays below B
        crossings = find_crossovers(grid, [0.0, 1.0, 0.0], [1.0, 1.0, 1.0])
        assert crossings == []

    def test_refinement_via_bisection(self):
        grid = np.array([1.0, 3.0])
        f = lambda x: x * x - 4.0  # root at 2
        crossings = find_crossovers(grid, grid**2, np.full_like(grid, 4.0), refine=f)
        assert crossings[0].location == pytest.approx(2.0, abs=1e-8)

    def test_bisect_requires_bracket(self):
        with pytest.raises(EvaluationError):
            bisect_crossover(lambda x: x + 10, 0.0, 1.0)

    def test_bisect_exact_endpoint(self):
        assert bisect_crossover(lambda x: x, 0.0, 1.0) == 0.0

    def test_unsorted_grid_rejected(self):
        with pytest.raises(EvaluationError):
            find_crossovers([1.0, 0.5], [0, 1], [1, 0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(EvaluationError):
            find_crossovers([1.0, 2.0], [0.0], [1.0, 2.0])


class TestComparison:
    def make(self, gamma=5e-3):
        p = SearchSortParameters().with_figure6_point(1e-6, gamma)
        return compare_assemblies(
            local_assembly(p), remote_assembly(p), "search", "list", GRID, FIXED
        )

    def test_crossover_found_at_low_gamma(self):
        comparison = self.make(gamma=5e-3)
        assert comparison.crossovers
        assert comparison.dominant() is None

    def test_local_dominates_at_high_gamma(self):
        comparison = self.make(gamma=1e-1)
        assert comparison.dominant() == "local"
        assert not comparison.crossovers

    def test_winner_at_grid_points(self):
        comparison = self.make(gamma=5e-3)
        assert comparison.winner_at(1.0) == "local"
        assert comparison.winner_at(1000.0) == "remote"

    def test_max_advantage_positive(self):
        winner, at, gain = self.make(gamma=1e-1).max_advantage()
        assert winner == "local"
        assert gain > 0.0

    def test_same_name_rejected(self):
        assembly = local_assembly()
        with pytest.raises(EvaluationError):
            compare_assemblies(assembly, assembly, "search", "list", GRID, FIXED)

    def test_rows_name_winner(self):
        rows = self.make(gamma=1e-1).rows()
        assert all(r[3] == "local" for r in rows)


class TestSelection:
    def test_selection_prefers_reliable_assembly(self):
        p_low_gamma = SearchSortParameters().with_figure6_point(1e-6, 5e-3)

        def build(kind):
            return local_assembly(p_low_gamma) if kind == "local" else remote_assembly(p_low_gamma)

        ranked = select_assembly(
            ["local", "remote"], build, "search",
            {"elem": 1, "list": 1000, "res": 1},
        )
        assert ranked[0].candidate == "remote"  # Figure 6: remote wins at low gamma
        assert ranked[0].reliability > ranked[1].reliability

    def test_failed_candidates_kept_with_error(self):
        def build(kind):
            if kind == "broken":
                from repro.model import Assembly

                return Assembly("broken")  # no services: evaluation will fail
            return local_assembly()

        ranked = select_assembly(
            ["ok", "broken"], build, "search", {"elem": 1, "list": 10, "res": 1}
        )
        assert ranked[0].candidate == "ok" and ranked[0].ok
        assert ranked[1].candidate == "broken" and not ranked[1].ok
        assert ranked[1].error

    def test_empty_candidates_rejected(self):
        with pytest.raises(EvaluationError):
            select_assembly([], lambda c: local_assembly(), "search", {})

    def test_matches_direct_evaluation(self):
        ranked = select_assembly(
            ["only"], lambda c: local_assembly(), "search",
            {"elem": 1, "list": 100, "res": 1},
        )
        direct = ReliabilityEvaluator(local_assembly()).pfail(
            "search", elem=1, list=100, res=1
        )
        assert ranked[0].pfail == pytest.approx(direct)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1.0, "x"], [22.5, "yy"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # fixed width

    def test_sparkline_monotone(self):
        line = sparkline([0, 1, 2, 3])
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_flat(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_sparkline_all_nan_is_placeholders(self):
        assert sparkline([float("nan")] * 3) == "···"

    def test_sparkline_mixed_scales_over_finite_values(self):
        nan, inf = float("nan"), float("inf")
        assert sparkline([0.0, nan, 3.0, inf]) == "▁·█·"
        assert sparkline([nan, 2.0, 2.0]) == "·▁▁"

    def test_format_sweep_renders(self):
        sweep = sweep_parameter(local_assembly(), "search", "list", GRID, FIXED)
        text = format_sweep(sweep)
        assert "local / search" in text
        assert "Pfail" in text

    def test_format_comparison_mentions_crossover(self):
        p = SearchSortParameters().with_figure6_point(1e-6, 5e-3)
        comparison = compare_assemblies(
            local_assembly(p), remote_assembly(p), "search", "list", GRID, FIXED
        )
        text = format_comparison(comparison)
        assert "ranking flips" in text

    def test_format_comparison_mentions_dominance(self):
        p = SearchSortParameters().with_figure6_point(1e-6, 1e-1)
        comparison = compare_assemblies(
            local_assembly(p), remote_assembly(p), "search", "list", GRID, FIXED
        )
        assert "dominates" in format_comparison(comparison)
