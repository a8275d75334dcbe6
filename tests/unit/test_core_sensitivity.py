"""Unit tests for sensitivity analysis."""

import pytest

from repro.core import (
    attribute_sensitivities,
    finite_difference_attribute_sensitivity,
    finite_difference_sensitivity,
    parameter_sensitivities,
)
from repro.scenarios import (
    SearchSortParameters,
    local_assembly,
    remote_assembly,
)

ACTUALS = {"elem": 1.0, "list": 500.0, "res": 1.0}


class TestParameterSensitivities:
    def test_list_dominates(self):
        """Unreliability grows with the list size; elem/res barely matter
        in the local assembly."""
        results = parameter_sensitivities(local_assembly(), "search", ACTUALS)
        by_name = {r.name: r for r in results}
        assert by_name["list"].derivative > 0
        assert results[0].name == "list"

    def test_matches_finite_differences(self):
        assembly = local_assembly()
        results = parameter_sensitivities(assembly, "search", ACTUALS)
        by_name = {r.name: r for r in results}
        numeric = finite_difference_sensitivity(
            assembly, "search", ACTUALS, "list"
        )
        assert by_name["list"].derivative == pytest.approx(numeric, rel=1e-4)

    def test_elem_matters_only_remotely(self):
        """elem is transported by the RPC connector, so it affects the
        remote assembly but not the local one (shared memory)."""
        local_results = {
            r.name: r for r in parameter_sensitivities(local_assembly(), "search", ACTUALS)
        }
        remote_results = {
            r.name: r for r in parameter_sensitivities(remote_assembly(), "search", ACTUALS)
        }
        assert local_results["elem"].derivative == pytest.approx(0.0, abs=1e-15)
        assert remote_results["elem"].derivative > 0.0

    def test_ranked_by_absolute_elasticity(self):
        results = parameter_sensitivities(remote_assembly(), "search", ACTUALS)
        magnitudes = [abs(r.elasticity) for r in results]
        assert magnitudes == sorted(magnitudes, reverse=True)


class TestAttributeSensitivities:
    def test_network_rate_dominates_remote_at_high_gamma(self):
        params = SearchSortParameters().with_figure6_point(phi1=1e-6, gamma=1e-1)
        results = attribute_sensitivities(
            remote_assembly(params), "search", ACTUALS, top=3
        )
        assert results[0].name == "net12::failure_rate"

    def test_sort_rate_dominates_local(self):
        results = attribute_sensitivities(local_assembly(), "search", ACTUALS, top=3)
        assert results[0].name == "sort1::software_failure_rate"

    def test_derivatives_positive_for_failure_rates(self):
        results = attribute_sensitivities(local_assembly(), "search", ACTUALS)
        for r in results:
            if r.name.endswith("failure_rate") and r.derivative != 0.0:
                assert r.derivative > 0.0

    def test_speed_increase_helps(self):
        """d Pfail / d speed must be non-positive: faster cpu, less
        exposure time."""
        results = attribute_sensitivities(local_assembly(), "search", ACTUALS)
        by_name = {r.name: r for r in results}
        assert by_name["cpu1::speed"].derivative <= 0.0

    def test_top_truncation(self):
        results = attribute_sensitivities(local_assembly(), "search", ACTUALS, top=2)
        assert len(results) == 2


class TestFiniteDifference:
    def test_positive_slope_in_list(self):
        slope = finite_difference_sensitivity(
            local_assembly(), "search", ACTUALS, "list"
        )
        assert slope > 0.0

    def test_step_scaling(self):
        coarse = finite_difference_sensitivity(
            local_assembly(), "search", ACTUALS, "list", step=1e-3
        )
        fine = finite_difference_sensitivity(
            local_assembly(), "search", ACTUALS, "list", step=1e-5
        )
        assert coarse == pytest.approx(fine, rel=1e-3)

    def test_attribute_below_the_step_probes_forward(self):
        # v = 1e-6 < h = 1e-4: the central probe v - h would be a negative
        # failure rate, so the derivative is a forward difference
        symbol = "search::software_failure_rate"
        assembly = local_assembly()
        reference = {
            r.name: r for r in attribute_sensitivities(assembly, "search", ACTUALS)
        }[symbol]
        assert reference.value == 1e-6
        slope = finite_difference_attribute_sensitivity(
            assembly, "search", ACTUALS, symbol
        )
        assert slope == pytest.approx(reference.derivative, rel=1e-3)
