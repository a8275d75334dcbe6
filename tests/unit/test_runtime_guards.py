"""Unit tests for the numerical guards (:mod:`repro.runtime.guards`) and
the hardened absorbing-chain solve that uses them.

The failure mode under attack: floating-point garbage (NaN attributes,
ill-conditioned ``I - Q`` systems) flowing through unguarded arithmetic
into a *plausible-looking wrong probability*.  Every guard must convert
that into a typed error instead.
"""

import numpy as np
import pytest

from repro.errors import NumericalInstabilityError, ProbabilityRangeError
from repro.markov import AbsorbingChainAnalysis, ChainBuilder
from repro.runtime.guards import CLAMP_TOL, check_finite_array, check_probability


class TestScalarGuards:
    def test_finite_passthrough(self):
        assert check_probability("x", 0.25) == 0.25

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_raises(self, bad):
        """A non-finite probability is out of range, not an instability,
        and the error carries the offending value."""
        with pytest.raises(ProbabilityRangeError) as info:
            check_probability("x", bad)
        assert info.value.what == "x"
        assert np.array_equal(info.value.value, bad, equal_nan=True)

    def test_probability_in_range(self):
        assert check_probability("p", 0.0) == 0.0
        assert check_probability("p", 1.0) == 1.0
        assert check_probability("p", 0.5) == 0.5

    def test_probability_roundoff_is_clamped(self):
        assert check_probability("p", -CLAMP_TOL / 2) == 0.0
        assert check_probability("p", 1.0 + CLAMP_TOL / 2) == 1.0

    def test_probability_gross_violation_raises(self):
        with pytest.raises(ProbabilityRangeError):
            check_probability("p", 1.5)
        with pytest.raises(ProbabilityRangeError):
            check_probability("p", -0.2)

    def test_probability_nan_raises_range_error(self):
        with pytest.raises(ProbabilityRangeError):
            check_probability("p", float("nan"))

    def test_numpy_scalar_comes_back_a_python_float(self):
        out = check_probability("p", np.float64(0.25))
        assert type(out) is float and out == 0.25

    def test_error_message_names_the_quantity(self):
        with pytest.raises(ProbabilityRangeError, match="Pfail"):
            check_probability("Pfail(search)", 2.0)


class TestArrayGuards:
    def test_finite_array(self):
        array = np.array([0.1, 0.9])
        assert check_finite_array("a", array) is array

    def test_nan_entry_raises_with_count(self):
        with pytest.raises(NumericalInstabilityError, match="2"):
            check_finite_array("a", np.array([0.1, np.nan, np.inf]))

    def test_unit_interval_clamps_roundoff(self):
        out = check_probability("b", np.array([-1e-12, 0.5, 1.0 + 1e-12]))
        assert out[0] == 0.0 and out[2] == 1.0

    def test_unit_interval_rejects_gross_escape(self):
        with pytest.raises(ProbabilityRangeError):
            check_probability("b", np.array([0.5, 1.7]))

    def test_first_offender_is_named(self):
        """The array form reports the first element out of range, NaN
        included, exactly as the scalar form would have for it."""
        with pytest.raises(ProbabilityRangeError) as info:
            check_probability("b", np.array([0.5, np.nan, 2.0]))
        assert np.isnan(info.value.value)

    def test_element_names_name_the_offender(self):
        with pytest.raises(ProbabilityRangeError) as info:
            check_probability("p of", np.array([0.5, 1.5, -1.0]), ("x", "y", "z"))
        assert info.value.what == "p of 'y'"
        assert info.value.value == 1.5


class TestHardenedAbsorbingChain:
    def fail_end_chain(self, f: float):
        return (
            ChainBuilder()
            .add_edge("Start", "work", 1.0)
            .add_edge("work", "End", 1.0 - f)
            .add_edge("work", "Fail", f)
            .build()
        )

    def test_healthy_chain_reports_zero_drift(self):
        analysis = AbsorbingChainAnalysis(self.fail_end_chain(0.25))
        assert analysis.clamp_drift <= CLAMP_TOL
        assert analysis.absorption_probability("Start", "Fail") == pytest.approx(0.25)

    def test_near_singular_ping_pong_cycle_raises(self):
        """A two-state cycle leaking only 1e-13 of its mass per lap keeps
        both states transient (no self-loop, so the absorbing-state
        tolerance cannot reclassify them) while pushing the (I - Q)
        condition number past the 1e12 trust threshold — the
        fundamental-matrix solve must refuse rather than emit an
        absorption split it cannot vouch for."""
        eps = 1e-13
        chain = (
            ChainBuilder()
            .add_edge("Start", "w1", 1.0)
            .add_edge("w1", "w2", 1.0 - eps)
            .add_edge("w1", "Fail", eps)
            .add_edge("w2", "w1", 1.0 - eps)
            .add_edge("w2", "End", eps)
            .build()
        )
        with pytest.raises(NumericalInstabilityError):
            AbsorbingChainAnalysis(chain)

    def test_long_retry_chain_is_still_trusted(self):
        """A 0.999 retry loop is ill-conditioned-ish but well within the
        trust envelope — the guard must not reject workable models."""
        r = 0.999
        chain = (
            ChainBuilder()
            .add_edge("Start", "work", 1.0)
            .add_edge("work", "work", r)
            .add_edge("work", "End", (1 - r) * 0.9)
            .add_edge("work", "Fail", (1 - r) * 0.1)
            .build()
        )
        analysis = AbsorbingChainAnalysis(chain)
        assert analysis.absorption_probability("Start", "Fail") == pytest.approx(0.1)
