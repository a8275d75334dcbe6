"""Unit tests for :class:`repro.runtime.RobustEvaluator` — the graceful
degradation chain.

The central acceptance test forces the symbolic and direct-solve tiers to
fail and asserts the returned result (a) comes from a lower tier,
(b) matches the analytic value within its reported confidence interval,
and (c) records a typed diagnostic for every tier that failed.
"""

import pytest

from repro.core import ReliabilityEvaluator
from repro.errors import (
    AllTiersFailedError,
    BudgetExceededError,
    CyclicAssemblyError,
    EvaluationError,
    NumericalInstabilityError,
    ReproError,
)
from repro.runtime import EvaluationBudget, RobustEvaluator
from repro.scenarios import (
    closed_form_pfail,
    local_assembly,
    recursive_assembly,
)

ACTUALS = {"elem": 1, "list": 500, "res": 1}


def analytic_pfail() -> float:
    return ReliabilityEvaluator(local_assembly()).pfail("search", **ACTUALS)


class TestHappyPath:
    def test_symbolic_tier_wins_on_acyclic_assembly(self):
        result = RobustEvaluator(local_assembly()).evaluate("search", **ACTUALS)
        assert result.tier == "symbolic"
        assert result.exact
        assert not result.degraded
        assert result.diagnostics == ()
        assert result.pfail == pytest.approx(analytic_pfail(), rel=1e-9)

    def test_exact_result_has_degenerate_interval(self):
        result = RobustEvaluator(local_assembly()).evaluate("search", **ACTUALS)
        assert result.confidence_interval == (result.pfail, result.pfail)
        assert result.standard_error == 0.0
        assert result.trials is None

    def test_pfail_and_reliability_helpers(self):
        evaluator = RobustEvaluator(local_assembly())
        pfail = evaluator.pfail("search", **ACTUALS)
        assert evaluator.reliability("search", **ACTUALS) == pytest.approx(
            1.0 - pfail
        )

    def test_unknown_tier_rejected(self):
        with pytest.raises(EvaluationError, match="unknown"):
            RobustEvaluator(local_assembly(), tiers=("symbolic", "psychic"))


class TestNaturalDegradation:
    def test_recursive_assembly_falls_through_to_fixed_point(self):
        """The symbolic tier refuses a cyclic assembly with
        CyclicAssemblyError; the numeric tier solves its least fixed point,
        bitwise the plain evaluator's answer, and the result carries the
        one refusal as a diagnostic."""
        result = RobustEvaluator(recursive_assembly()).evaluate("A", size=1)
        assert result.tier == "numeric"
        assert result.exact
        assert result.degraded
        failed = [d.tier for d in result.diagnostics]
        assert failed == ["symbolic"]
        assert isinstance(result.diagnostics[0].error, CyclicAssemblyError)
        plain = ReliabilityEvaluator(recursive_assembly()).pfail("A", size=1)
        assert result.pfail.hex() == plain.hex()
        expected, _ = closed_form_pfail()
        assert result.pfail == pytest.approx(expected, rel=1e-6)

    def test_str_reports_tier_and_degradations(self):
        result = RobustEvaluator(recursive_assembly()).evaluate("A", size=1)
        rendered = str(result)
        assert "via numeric tier" in rendered
        assert "degraded past symbolic" in rendered
        assert "CyclicAssemblyError" in rendered


class TestForcedDegradationToMonteCarlo:
    """The headline acceptance criterion: break every analytic tier and
    check the Monte Carlo floor still delivers an honest estimate."""

    @pytest.fixture
    def crippled(self, monkeypatch):
        evaluator = RobustEvaluator(local_assembly(), trials=20_000, seed=7)

        def broken(tier):
            def _fail(service, actuals):
                raise NumericalInstabilityError(f"{tier} tier forced to fail")
            return _fail

        monkeypatch.setattr(evaluator, "_tier_symbolic", broken("symbolic"))
        monkeypatch.setattr(evaluator, "_tier_numeric", broken("numeric"))
        return evaluator

    def test_result_comes_from_lower_tier(self, crippled):
        result = crippled.evaluate("search", **ACTUALS)
        assert result.tier == "monte-carlo"
        assert not result.exact
        assert result.trials == 20_000

    def test_estimate_matches_analytic_within_reported_interval(self, crippled):
        result = crippled.evaluate("search", **ACTUALS)
        low, high = result.confidence_interval
        assert low <= analytic_pfail() <= high
        assert low <= result.pfail <= high
        assert result.standard_error > 0.0

    def test_diagnostics_record_every_failed_tier(self, crippled):
        result = crippled.evaluate("search", **ACTUALS)
        assert [d.tier for d in result.diagnostics] == ["symbolic", "numeric"]
        for diag in result.diagnostics:
            assert isinstance(diag.error, NumericalInstabilityError)
            assert "forced to fail" in str(diag.error)
            assert diag.elapsed >= 0.0


class TestChainContract:
    def test_all_tiers_failing_raises_typed_error(self, monkeypatch):
        evaluator = RobustEvaluator(local_assembly())

        def _fail(service, actuals):
            raise NumericalInstabilityError("forced")

        for tier in ("symbolic", "numeric", "monte_carlo"):
            monkeypatch.setattr(evaluator, f"_tier_{tier}", _fail)
        with pytest.raises(AllTiersFailedError) as excinfo:
            evaluator.evaluate("search", **ACTUALS)
        assert isinstance(excinfo.value, ReproError)
        assert len(excinfo.value.diagnostics) == 3

    def test_untyped_tier_crash_is_wrapped_not_leaked(self, monkeypatch):
        """A tier raising a bare exception must surface as a typed
        diagnostic while the chain continues."""
        evaluator = RobustEvaluator(local_assembly())

        def _crash(service, actuals):
            raise ZeroDivisionError("tier bug")

        monkeypatch.setattr(evaluator, "_tier_symbolic", _crash)
        result = evaluator.evaluate("search", **ACTUALS)
        assert result.tier == "numeric"
        assert isinstance(result.diagnostics[0].error, EvaluationError)
        assert "ZeroDivisionError" in str(result.diagnostics[0].error)

    def test_missing_actuals_are_one_typed_error_in_both_lower_tiers(self):
        """The numeric and Monte Carlo tiers refuse missing actuals with
        the same EvaluationError; the Monte Carlo tier does not crash."""
        with pytest.raises(AllTiersFailedError) as excinfo:
            RobustEvaluator(local_assembly()).evaluate("search", elem=1)
        errors = {d.tier: d.error for d in excinfo.value.diagnostics}
        want = "service 'search': missing actual parameters ['list', 'res']"
        for tier in ("numeric", "monte-carlo"):
            assert type(errors[tier]) is EvaluationError
            assert str(errors[tier]) == want

    def test_non_deadline_budget_trip_degrades(self, monkeypatch):
        """A state-count budget trip in the numeric path is recoverable —
        the chain should fall to Monte Carlo, not abort."""
        budget = EvaluationBudget(max_states=1, max_trials=4_000)
        evaluator = RobustEvaluator(
            local_assembly(), budget=budget, trials=2_000, seed=3,
            tiers=("numeric", "monte-carlo"),
        )
        result = evaluator.evaluate("search", **ACTUALS)
        assert result.tier == "monte-carlo"
        assert isinstance(result.diagnostics[0].error, BudgetExceededError)

    def test_monte_carlo_trials_shed_to_budget(self):
        budget = EvaluationBudget(max_trials=500)
        evaluator = RobustEvaluator(
            local_assembly(), budget=budget, trials=5_000, seed=3,
            tiers=("monte-carlo",),
        )
        result = evaluator.evaluate("search", **ACTUALS)
        assert result.trials == 500
        assert budget.trials_used == 500

    def test_shared_budget_spans_the_chain(self):
        """One envelope across all tiers: what the Monte Carlo tier may
        spend is whatever the earlier tiers left over."""
        budget = EvaluationBudget(max_trials=1_000)
        budget.charge_trials(800)
        evaluator = RobustEvaluator(
            local_assembly(), budget=budget, trials=5_000, seed=3,
            tiers=("monte-carlo",),
        )
        assert evaluator.evaluate("search", **ACTUALS).trials == 200
