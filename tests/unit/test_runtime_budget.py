"""Unit tests for :class:`repro.runtime.EvaluationBudget` and its
enforcement across every evaluation entry point.

The acceptance bar for the hardened runtime: a deadline of ~0 and a
max-sweep cap of 1 each provoke a typed
:class:`~repro.errors.BudgetExceededError` — never a hang — on every
evaluator the library exposes.
"""

import pytest

from repro.core import ReliabilityEvaluator, SymbolicEvaluator
from repro.errors import BudgetExceededError
from repro.runtime import EvaluationBudget
from repro.scenarios import local_assembly, recursive_assembly
from repro.simulation import MonteCarloSimulator

ACTUALS = {"elem": 1, "list": 500, "res": 1}


class TestBudgetSemantics:
    def test_unlimited_by_default(self):
        budget = EvaluationBudget()
        budget.check_deadline("x")
        budget.check_states(10**9, "x")
        budget.check_depth(10**9, "x")
        budget.check_sweeps(10**9, "x")
        budget.charge_trials(10**9, "x")

    def test_negative_limits_rejected(self):
        with pytest.raises(ValueError):
            EvaluationBudget(deadline=-1.0)
        with pytest.raises(ValueError):
            EvaluationBudget(max_trials=-5)

    def test_zero_deadline_is_already_expired(self):
        budget = EvaluationBudget(deadline=0.0)
        with pytest.raises(BudgetExceededError) as excinfo:
            budget.check_deadline("probe")
        assert excinfo.value.resource == "deadline"
        assert "probe" in str(excinfo.value)

    def test_clock_is_lazy_and_idempotent(self):
        budget = EvaluationBudget(deadline=100.0)
        assert budget.elapsed() == 0.0
        budget.start()
        first = budget._started
        budget.start()
        assert budget._started == first
        assert budget.remaining_time() <= 100.0

    def test_reset_reopens_the_envelope(self):
        budget = EvaluationBudget(deadline=0.0, max_trials=10)
        budget.charge_trials(10)
        with pytest.raises(BudgetExceededError):
            budget.check_deadline()
        budget.reset()
        assert budget.trials_used == 0
        assert budget.elapsed() == 0.0

    def test_trials_are_charged_cumulatively(self):
        budget = EvaluationBudget(max_trials=100)
        budget.charge_trials(60)
        budget.charge_trials(40)
        with pytest.raises(BudgetExceededError) as excinfo:
            budget.charge_trials(1)
        assert excinfo.value.resource == "trials"
        # the failed charge is not booked
        assert budget.trials_used == 100

    def test_state_depth_sweep_gates(self):
        budget = EvaluationBudget(max_states=5, max_depth=3, max_sweeps=2)
        budget.check_states(5)
        with pytest.raises(BudgetExceededError):
            budget.check_states(6)
        budget.check_depth(3)
        with pytest.raises(BudgetExceededError):
            budget.check_depth(4)
        budget.check_sweeps(2)
        with pytest.raises(BudgetExceededError):
            budget.check_sweeps(3)

    def test_effective_trials_sheds_to_remaining(self):
        budget = EvaluationBudget(max_trials=1000)
        assert budget.effective_trials(5000) == 1000
        budget.charge_trials(400)
        assert budget.effective_trials(5000) == 600
        assert EvaluationBudget().effective_trials(5000) == 5000

    def test_error_message_names_resource_and_limit(self):
        error = BudgetExceededError("states", 10, 25, "chain solve")
        assert "states" in str(error)
        assert "10" in str(error)
        assert "chain solve" in str(error)


class TestEveryEvaluatorHonorsDeadline:
    """Deadline ~0 must produce a typed refusal from every entry point."""

    def test_numeric_evaluator(self):
        evaluator = ReliabilityEvaluator(
            local_assembly(), budget=EvaluationBudget(deadline=0.0)
        )
        with pytest.raises(BudgetExceededError):
            evaluator.pfail("search", **ACTUALS)

    def test_numeric_report(self):
        evaluator = ReliabilityEvaluator(
            local_assembly(), budget=EvaluationBudget(deadline=0.0)
        )
        with pytest.raises(BudgetExceededError):
            evaluator.report("search", **ACTUALS)

    def test_symbolic_evaluator(self):
        evaluator = SymbolicEvaluator(
            local_assembly(), budget=EvaluationBudget(deadline=0.0)
        )
        with pytest.raises(BudgetExceededError):
            evaluator.pfail_expression("search")

    def test_fixed_point_evaluator(self):
        evaluator = ReliabilityEvaluator(
            recursive_assembly(), budget=EvaluationBudget(deadline=0.0)
        )
        with pytest.raises(BudgetExceededError):
            evaluator.pfail("A", size=1)

    def test_monte_carlo_simulator(self):
        simulator = MonteCarloSimulator(
            local_assembly(), seed=1, budget=EvaluationBudget(deadline=0.0)
        )
        with pytest.raises(BudgetExceededError):
            simulator.estimate_pfail("search", 100, **ACTUALS)

    def test_robust_evaluator_propagates_expired_deadline(self):
        from repro.runtime import RobustEvaluator

        evaluator = RobustEvaluator(
            local_assembly(), budget=EvaluationBudget(deadline=0.0)
        )
        # no lower tier can beat an expired clock: the chain re-raises
        with pytest.raises(BudgetExceededError) as excinfo:
            evaluator.evaluate("search", **ACTUALS)
        assert excinfo.value.resource == "deadline"


class TestResourceCaps:
    def test_sweep_cap_of_one_stops_fixed_point(self):
        evaluator = ReliabilityEvaluator(
            recursive_assembly(), budget=EvaluationBudget(max_sweeps=1)
        )
        with pytest.raises(BudgetExceededError) as excinfo:
            evaluator.pfail("A", size=1)
        assert excinfo.value.resource == "sweeps"

    def test_sweep_cap_binds_only_fixed_point_solves(self):
        """An acyclic call runs no fixed-point sweep, so even a cap of 0
        leaves it alone; a recursive call's first pass is sweep 1."""
        budget = EvaluationBudget(max_sweeps=0)
        acyclic = ReliabilityEvaluator(local_assembly(), budget=budget)
        assert acyclic.pfail("search", **ACTUALS) == (
            ReliabilityEvaluator(local_assembly()).pfail("search", **ACTUALS)
        )
        recursive = ReliabilityEvaluator(recursive_assembly(), budget=budget)
        with pytest.raises(BudgetExceededError) as excinfo:
            recursive.pfail("A", size=1)
        assert excinfo.value.resource == "sweeps"

    def test_generous_sweep_cap_still_converges(self):
        from repro.scenarios import closed_form_pfail

        evaluator = ReliabilityEvaluator(
            recursive_assembly(), budget=EvaluationBudget(max_sweeps=500)
        )
        expected, _ = closed_form_pfail()
        assert evaluator.pfail("A", size=1) == pytest.approx(expected, rel=1e-6)

    def test_state_cap_stops_chain_solve(self):
        evaluator = ReliabilityEvaluator(
            local_assembly(), budget=EvaluationBudget(max_states=1)
        )
        with pytest.raises(BudgetExceededError) as excinfo:
            evaluator.pfail("search", **ACTUALS)
        assert excinfo.value.resource == "states"

    def test_depth_cap_stops_recursion(self):
        evaluator = ReliabilityEvaluator(
            local_assembly(), budget=EvaluationBudget(max_depth=1)
        )
        with pytest.raises(BudgetExceededError) as excinfo:
            evaluator.pfail("search", **ACTUALS)
        assert excinfo.value.resource == "depth"

    def test_symbolic_depth_cap(self):
        evaluator = SymbolicEvaluator(
            local_assembly(), budget=EvaluationBudget(max_depth=1)
        )
        with pytest.raises(BudgetExceededError):
            evaluator.pfail_expression("search")

    def test_trial_cap_stops_simulation(self):
        simulator = MonteCarloSimulator(
            local_assembly(), seed=1, budget=EvaluationBudget(max_trials=50)
        )
        with pytest.raises(BudgetExceededError) as excinfo:
            simulator.estimate_pfail("search", 100, **ACTUALS)
        assert excinfo.value.resource == "trials"

    def test_simulate_once_charges_one_trial(self):
        budget = EvaluationBudget(max_trials=3)
        simulator = MonteCarloSimulator(local_assembly(), seed=1, budget=budget)
        for _ in range(3):
            simulator.simulate_once("search", **ACTUALS)
        assert budget.trials_used == 3
        with pytest.raises(BudgetExceededError):
            simulator.simulate_once("search", **ACTUALS)

    def test_budget_within_limits_matches_unbudgeted(self):
        budget = EvaluationBudget(
            deadline=60.0, max_states=1000, max_depth=64, max_trials=10**6
        )
        with_budget = ReliabilityEvaluator(local_assembly(), budget=budget)
        without = ReliabilityEvaluator(local_assembly())
        assert with_budget.pfail("search", **ACTUALS) == pytest.approx(
            without.pfail("search", **ACTUALS)
        )
