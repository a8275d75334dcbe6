"""Unit tests for the exception hierarchy."""

import pytest

from repro.errors import (
    CyclicAssemblyError,
    DuplicateNameError,
    EvaluationError,
    ExpressionParseError,
    FixedPointDivergenceError,
    InvalidDistributionError,
    InvalidFlowError,
    InvalidSharingError,
    MarkovError,
    ModelError,
    NotAbsorbingError,
    ProbabilityRangeError,
    ReproError,
    SymbolicError,
    UnboundParameterError,
    UnboundRequirementError,
    UnknownFunctionError,
    UnknownServiceError,
    UnknownStateError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            SymbolicError, MarkovError, ModelError, EvaluationError,
            UnboundParameterError("x"), UnknownFunctionError("f"),
            ExpressionParseError, InvalidDistributionError,
            UnknownStateError("s"), NotAbsorbingError,
            DuplicateNameError("service", "x"), UnknownServiceError("x"),
            UnboundRequirementError("a", "b"), InvalidFlowError,
            InvalidSharingError, CyclicAssemblyError(("a", "a")),
            FixedPointDivergenceError, ProbabilityRangeError("p", 2.0),
        ],
    )
    def test_everything_is_a_repro_error(self, exc):
        instance = exc if isinstance(exc, Exception) else exc("boom")
        assert isinstance(instance, ReproError)

    def test_layer_bases(self):
        assert issubclass(UnboundParameterError, SymbolicError)
        assert issubclass(UnknownFunctionError, SymbolicError)
        assert issubclass(ExpressionParseError, SymbolicError)
        assert issubclass(InvalidDistributionError, MarkovError)
        assert issubclass(UnknownStateError, MarkovError)
        assert issubclass(NotAbsorbingError, MarkovError)
        assert issubclass(DuplicateNameError, ModelError)
        assert issubclass(UnknownServiceError, ModelError)
        assert issubclass(UnboundRequirementError, ModelError)
        assert issubclass(InvalidFlowError, ModelError)
        assert issubclass(InvalidSharingError, ModelError)
        assert issubclass(CyclicAssemblyError, EvaluationError)
        assert issubclass(FixedPointDivergenceError, EvaluationError)
        assert issubclass(ProbabilityRangeError, EvaluationError)


class TestPayloads:
    def test_unbound_parameter_carries_name(self):
        assert UnboundParameterError("list").name == "list"

    def test_cyclic_assembly_carries_cycle(self):
        error = CyclicAssemblyError(("a", "b", "a"))
        assert error.cycle == ("a", "b", "a")
        assert "a -> b -> a" in str(error)
        assert "FixedPointEvaluator" in str(error)

    def test_duplicate_name_message(self):
        error = DuplicateNameError("binding", "app.cpu")
        assert error.kind == "binding" and error.name == "app.cpu"
        assert "app.cpu" in str(error)

    def test_unbound_requirement_message(self):
        error = UnboundRequirementError("search", "sort")
        assert "search" in str(error) and "sort" in str(error)

    def test_probability_range_carries_value(self):
        error = ProbabilityRangeError("Pfail", 1.5)
        assert error.value == 1.5
        assert "[0, 1]" in str(error)

    def test_one_base_catches_the_library(self):
        """The API-boundary pattern: one except clause suffices."""
        from repro.symbolic import Parameter

        with pytest.raises(ReproError):
            Parameter("x").evaluate({})


def _sample(cls):
    """One instance of ``cls`` built through its own constructor."""
    from repro import errors

    structured = {
        errors.UnboundParameterError: ("x",),
        errors.UnknownFunctionError: ("f",),
        errors.UnknownStateError: ("s",),
        errors.DuplicateNameError: ("service", "x"),
        errors.UnknownServiceError: ("x",),
        errors.UnboundRequirementError: ("a", "b"),
        errors.CyclicAssemblyError: (("cycle", "loop", "cycle"),),
        errors.ProbabilityRangeError: ("p", 2.0),
        errors.BudgetExceededError: ("deadline", 0.5, 0.75, "plan evaluation"),
        errors.WorkerCrashedError: ("batch evaluation", (3, 1)),
        errors.RequestValidationError: ("/v1/batch", ("bad a", "bad b")),
        errors.ServerOverloadedError: (4, 4),
        errors.AllTiersFailedError: ("A", ()),
    }
    if cls is errors.NumericalInstabilityError:
        return cls("singular system", condition=1e18, rank=3)
    return cls(*structured.get(cls, (f"{cls.__name__} message",)))


def _subclasses():
    import inspect

    from repro import errors

    return [
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, ReproError)
    ]


class TestPickleRoundTrip:
    """Every error class crosses a process boundary as itself: same type,
    same message, same attributes — ``__init__`` is not re-run on the
    rendered message."""

    @pytest.mark.parametrize("cls", _subclasses(), ids=lambda c: c.__name__)
    def test_round_trip(self, cls):
        import pickle

        error = _sample(cls)
        rebuilt = pickle.loads(pickle.dumps(error))
        assert type(rebuilt) is cls
        assert str(rebuilt) == str(error)
        assert rebuilt.__dict__ == error.__dict__

    def test_budget_error_keeps_its_fields(self):
        import pickle

        from repro.errors import BudgetExceededError

        rebuilt = pickle.loads(pickle.dumps(
            BudgetExceededError("states", 10, 11, "chain build")
        ))
        assert (rebuilt.resource, rebuilt.limit, rebuilt.used) == (
            "states", 10, 11
        )

    def test_all_tiers_failed_keeps_tier_errors(self):
        import pickle

        from repro.errors import AllTiersFailedError
        from repro.runtime.robust import TierDiagnostic

        cyclic = CyclicAssemblyError(("A", "B", "A"))
        error = AllTiersFailedError("A", [TierDiagnostic("symbolic", cyclic, 0.0)])
        rebuilt = pickle.loads(pickle.dumps(error))
        assert str(rebuilt) == str(error)
        (diagnostic,) = rebuilt.diagnostics
        assert type(diagnostic.error) is CyclicAssemblyError
        assert diagnostic.error.cycle == ("A", "B", "A")
