"""Unit tests for the hardened error paths: loader rejection of broken
documents, fixed-point divergence, and absorbing-chain failure
propagation through the evaluators.

Every path must end in a typed :class:`~repro.errors.ReproError`
subclass — never a ``KeyError``/``TypeError`` traceback leaking library
internals to a caller who fed it a broken model.
"""

import copy
import json

import pytest

from repro.core import FixedPointEvaluator, ReliabilityEvaluator
from repro.dsl import assembly_to_dict, dump_assembly
from repro.dsl.loader import assembly_from_dict, load_assembly
from repro.errors import (
    EvaluationError,
    FixedPointDivergenceError,
    MarkovError,
    ModelError,
    NotAbsorbingError,
    ReproError,
    error_chain,
    format_error_chain,
)
from repro.scenarios import local_assembly, recursive_assembly


def healthy_document() -> dict:
    return assembly_to_dict(local_assembly())


class TestLoaderRejectsBrokenDocuments:
    def test_malformed_json(self):
        with pytest.raises(ModelError, match="not valid JSON"):
            load_assembly("{this is not json")

    def test_truncated_json(self):
        text = dump_assembly(local_assembly())
        for cut in (1, len(text) // 3, len(text) - 2):
            with pytest.raises(ModelError):
                load_assembly(text[:cut])

    def test_empty_string(self):
        with pytest.raises(ModelError):
            load_assembly("")

    def test_non_object_document(self):
        with pytest.raises(ModelError):
            load_assembly(json.dumps([1, 2, 3]))
        with pytest.raises(ModelError):
            load_assembly(json.dumps("just a string"))

    def test_non_dict_argument(self):
        with pytest.raises(ModelError):
            assembly_from_dict(None)

    def test_service_entry_must_be_a_dict(self):
        doc = healthy_document()
        doc["services"][0] = "not-a-service"
        with pytest.raises(ModelError):
            assembly_from_dict(doc)

    def test_service_entry_needs_a_name(self):
        doc = healthy_document()
        del doc["services"][0]["name"]
        with pytest.raises(ModelError):
            assembly_from_dict(doc)

    def test_binding_entry_must_be_a_dict(self):
        doc = healthy_document()
        doc["bindings"][0] = ["search", "slot", "provider"]
        with pytest.raises(ModelError):
            assembly_from_dict(doc)

    def test_binding_entry_needs_all_fields(self):
        for missing in ("consumer", "slot", "provider"):
            doc = healthy_document()
            del doc["bindings"][0][missing]
            with pytest.raises(ModelError):
                assembly_from_dict(doc)

    def test_loader_errors_are_repro_errors(self):
        """Callers catch one root type for the whole load path."""
        with pytest.raises(ReproError):
            load_assembly("{")


class TestFixedPointDivergence:
    def test_sweep_starved_iteration_raises_divergence(self):
        """The recursive scenario needs dozens of Kleene sweeps; a cap of
        2 must surface as FixedPointDivergenceError, not a wrong number."""
        evaluator = FixedPointEvaluator(recursive_assembly(), max_iterations=2)
        with pytest.raises(FixedPointDivergenceError) as excinfo:
            evaluator.pfail("A", size=1)
        assert "2" in str(excinfo.value)

    def test_divergence_is_an_evaluation_error(self):
        from repro.errors import EvaluationError

        assert issubclass(FixedPointDivergenceError, EvaluationError)


class TestNotAbsorbingPropagation:
    def limbo_assembly(self):
        """local assembly whose 'search' flow gains a two-state cycle that
        is reachable from Start but can never reach End and never fails —
        structurally valid (End stays reachable), yet the failure-augmented
        chain traps probability mass forever, so the absorbing analysis is
        ill-posed."""
        doc = healthy_document()
        flow = next(
            s for s in doc["services"] if s.get("name") == "search"
        )["flow"]
        flow["states"].extend(
            [{"name": "limbo1", "requests": []},
             {"name": "limbo2", "requests": []}]
        )
        one = {"kind": "const", "value": 1.0}
        for t in flow["transitions"]:
            if t["source"] == "Start" and t["target"] == "sort":
                t["probability"] = {"kind": "const", "value": 0.5}
        flow["transitions"].extend(
            [
                {"source": "Start", "target": "limbo1",
                 "probability": {"kind": "const", "value": 0.4}},
                {"source": "limbo1", "target": "limbo2", "probability": one},
                {"source": "limbo2", "target": "limbo1", "probability": one},
            ]
        )
        return assembly_from_dict(doc)

    def test_unvalidated_evaluation_raises_markov_error(self):
        """With validation off, the broken chain reaches the absorbing
        solver, which must refuse with a typed Markov-layer error."""
        evaluator = ReliabilityEvaluator(self.limbo_assembly(), validate=False)
        with pytest.raises(MarkovError):
            evaluator.pfail("search", elem=1, list=500, res=1)

    def test_not_absorbing_is_a_markov_error(self):
        assert issubclass(NotAbsorbingError, MarkovError)

    def test_robust_evaluator_refuses_with_typed_error(self):
        """The hardened front door also never crashes on it: either a
        validation refusal or an all-tiers failure, both typed."""
        from repro.runtime import EvaluationBudget, RobustEvaluator

        with pytest.raises(ReproError):
            RobustEvaluator(
                self.limbo_assembly(),
                budget=EvaluationBudget(deadline=5.0, max_trials=500),
                trials=200,
            ).evaluate("search", elem=1, list=500, res=1)


def _nested_error() -> EvaluationError:
    """An EvaluationError with a two-deep explicit cause chain."""
    try:
        try:
            raise KeyError("missing-state")
        except KeyError as root:
            raise MarkovError("chain rebuild failed") from root
    except MarkovError as mid:
        return_value = EvaluationError("evaluation failed")
        return_value.__cause__ = mid
        return return_value


class TestErrorChainHelpers:
    def test_chain_walks_causes_outermost_first(self):
        chain = error_chain(_nested_error())
        assert chain == (
            "EvaluationError: evaluation failed",
            "MarkovError: chain rebuild failed",
            "KeyError: 'missing-state'",
        )

    def test_chain_follows_implicit_context(self):
        try:
            try:
                raise ValueError("original")
            except ValueError:
                raise EvaluationError("while handling")  # implicit __context__
        except EvaluationError as exc:
            assert error_chain(exc) == (
                "EvaluationError: while handling",
                "ValueError: original",
            )

    def test_suppressed_context_is_skipped(self):
        try:
            try:
                raise ValueError("hidden")
            except ValueError:
                raise EvaluationError("standalone") from None
        except EvaluationError as exc:
            assert error_chain(exc) == ("EvaluationError: standalone",)

    def test_chain_terminates_on_cycles(self):
        a = EvaluationError("a")
        b = EvaluationError("b")
        a.__cause__ = b
        b.__cause__ = a
        assert error_chain(a) == (
            "EvaluationError: a", "EvaluationError: b"
        )

    def test_format_flattens_to_one_line(self):
        assert format_error_chain(_nested_error()) == (
            "EvaluationError: evaluation failed "
            "(caused by MarkovError: chain rebuild failed; "
            "caused by KeyError: 'missing-state')"
        )

    def test_format_single_error_has_no_suffix(self):
        assert format_error_chain(EvaluationError("flat")) == (
            "EvaluationError: flat"
        )


class TestCauseChainIsolationPaths:
    """The error-isolation boundaries must propagate cause chains, not
    swallow them (the pre-fix behaviour kept only the outermost message)."""

    def test_fuzz_case_record_keeps_root_cause(self, monkeypatch):
        """A nested failure inside a fuzz case lands in the case record
        with its full cause chain."""
        from repro.robustness import harness as harness_module
        from repro.robustness.harness import run_fuzz_case
        from repro.robustness.mutator import ModelMutator

        mutation = ModelMutator(assembly_to_dict(local_assembly())).mutate()

        def raising_evaluator(*args, **kwargs):
            raise _nested_error()

        monkeypatch.setattr(
            harness_module, "RobustEvaluator", raising_evaluator
        )
        case = run_fuzz_case(
            0, mutation, service="search",
            actuals={"elem": 1.0, "list": 5.0, "res": 1.0},
            seed=0, trials=100, deadline=5.0,
        )
        assert case.status == "typed-error"
        assert "caused by MarkovError: chain rebuild failed" in case.error
        assert "caused by KeyError: 'missing-state'" in case.error

    def test_pickled_error_carries_cause_chain_as_notes(self):
        import pickle

        rebuilt = pickle.loads(pickle.dumps(_nested_error()))
        assert type(rebuilt) is EvaluationError
        assert str(rebuilt) == "evaluation failed"
        notes = getattr(rebuilt, "__notes__", [])
        assert "caused by MarkovError: chain rebuild failed" in notes
        assert "caused by KeyError: 'missing-state'" in notes

    def test_notes_survive_a_second_round_trip(self):
        import pickle

        once = pickle.loads(pickle.dumps(_nested_error()))
        twice = pickle.loads(pickle.dumps(once))
        # the chain crosses every boundary intact, and only once
        assert twice.__notes__ == once.__notes__
        assert len(twice.__notes__) == 2

    def test_flat_error_round_trips_without_notes(self):
        import pickle

        rebuilt = pickle.loads(pickle.dumps(EvaluationError("flat")))
        assert str(rebuilt) == "flat"
        assert not getattr(rebuilt, "__notes__", [])
