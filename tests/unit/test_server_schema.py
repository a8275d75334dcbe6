"""Unit tests for the server's schema validator, status taxonomy,
coalescer and transport-agnostic service core — no sockets anywhere."""

import threading

import pytest

from repro.cli import EXIT_CODES, exit_code_for
from repro.errors import (
    BudgetExceededError,
    EvaluationError,
    MarkovError,
    ModelError,
    NumericalInstabilityError,
    ReproError,
    RequestValidationError,
    ServerError,
    ServerOverloadedError,
    SymbolicError,
)
from repro.runtime.budget import EvaluationBudget
from repro.server import (
    BATCH_REQUEST,
    ENDPOINTS,
    EVALUATE_REQUEST,
    SWEEP_REQUEST,
    Coalescer,
    EvaluationService,
    HTTP_STATUS,
    http_status_for,
    schema_problems,
    validate_request,
)

# ---------------------------------------------------------------------------
# the schema-subset validator
# ---------------------------------------------------------------------------


def test_valid_evaluate_body_has_no_problems():
    body = {
        "model": {"schema": "repro/1"},
        "service": "search",
        "actuals": {"list": 500},
        "solver": "auto",
        "budget": {"deadline": 5.0, "max_states": 100},
    }
    assert schema_problems(body, EVALUATE_REQUEST) == []


def test_missing_required_key_is_reported():
    problems = schema_problems({"service": "search"}, EVALUATE_REQUEST)
    assert any("missing required key 'model'" in p for p in problems)


def test_unexpected_key_is_reported():
    body = {"model": {}, "service": "s", "extra": 1}
    problems = schema_problems(body, EVALUATE_REQUEST)
    assert any("unexpected key 'extra'" in p for p in problems)


def test_wrong_types_are_reported_with_paths():
    body = {"model": [], "service": 7}
    problems = schema_problems(body, EVALUATE_REQUEST)
    assert any(p.startswith("$.model:") for p in problems)
    assert any(p.startswith("$.service:") for p in problems)


def test_bool_is_not_an_integer_or_number():
    body = {"model": {}, "service": "s", "budget": {"max_states": True}}
    problems = schema_problems(body, EVALUATE_REQUEST)
    assert any("$.budget.max_states" in p for p in problems)
    body = {"model": {}, "service": "s", "actuals": {"list": True}}
    problems = schema_problems(body, EVALUATE_REQUEST)
    assert any("$.actuals.list" in p for p in problems)


def test_enum_violation_is_reported():
    body = {"model": {}, "service": "s", "solver": "quantum"}
    problems = schema_problems(body, EVALUATE_REQUEST)
    assert any("$.solver" in p and "quantum" in p for p in problems)


def test_bounds_are_enforced():
    body = {"model": {}, "service": "s", "budget": {"deadline": -1}}
    assert any(
        "minimum" in p for p in schema_problems(body, EVALUATE_REQUEST)
    )
    sweep = {"model": {}, "service": "s", "parameter": "p",
             "start": 0, "stop": 1, "points": 1}
    assert any("minimum" in p for p in schema_problems(sweep, SWEEP_REQUEST))


def test_array_items_and_minitems():
    assert any(
        "minItems" in p
        for p in schema_problems({"requests": []}, BATCH_REQUEST)
    )
    body = {"requests": [{"service": "s"}]}
    problems = schema_problems(body, BATCH_REQUEST)
    assert any("$.requests[0]" in p and "model" in p for p in problems)


def test_validate_request_raises_typed_error():
    with pytest.raises(RequestValidationError) as excinfo:
        validate_request("/v1/evaluate", {}, EVALUATE_REQUEST)
    assert excinfo.value.endpoint == "/v1/evaluate"
    assert excinfo.value.problems
    # the taxonomy: a validation error is a ServerError is a ReproError
    assert isinstance(excinfo.value, ServerError)
    assert isinstance(excinfo.value, ReproError)


def test_validation_error_message_caps_listed_problems():
    error = RequestValidationError("/x", [f"problem {i}" for i in range(9)])
    assert "problem 4" in str(error)
    assert "problem 5" not in str(error)
    assert "9 problems total" in str(error)
    assert len(error.problems) == 9


# ---------------------------------------------------------------------------
# endpoint metadata
# ---------------------------------------------------------------------------


def test_every_post_endpoint_documents_its_schema():
    for endpoint in ENDPOINTS:
        if endpoint.method == "POST":
            assert endpoint.request_schema is not None, endpoint.path
            assert endpoint.request_example is not None, endpoint.path
        assert endpoint.response_example is not None, endpoint.path
        assert endpoint.status_codes, endpoint.path


def test_request_examples_validate_against_their_schemas():
    for endpoint in ENDPOINTS:
        if endpoint.request_schema is None:
            continue
        problems = schema_problems(
            endpoint.request_example, endpoint.request_schema
        )
        assert problems == [], endpoint.path


# ---------------------------------------------------------------------------
# HTTP status taxonomy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("error, status", [
    (ServerOverloadedError(3, 3), 429),
    (RequestValidationError("/x", ["bad"]), 400),
    (BudgetExceededError("deadline", 1.0, 2.0), 503),
    (NumericalInstabilityError("nan"), 500),
    (ModelError("bad model"), 400),
    (SymbolicError("bad expr"), 422),
    (MarkovError("bad chain"), 422),
    (EvaluationError("bad eval"), 422),
    (ReproError("anything else"), 500),
])
def test_http_status_taxonomy(error, status):
    assert http_status_for(error) == status


def test_every_http_status_class_has_a_cli_exit_code():
    # the two surfaces must stay branchable in parallel: every error the
    # HTTP taxonomy names resolves to a CLI exit code as well
    for cls, _status in HTTP_STATUS:
        error = cls.__new__(cls)
        assert isinstance(exit_code_for(error), int)
    # and every CLI-coded class resolves to an HTTP status
    for cls, _code in EXIT_CODES:
        error = cls.__new__(cls)
        assert 400 <= http_status_for(error) <= 599


# ---------------------------------------------------------------------------
# budget parsing
# ---------------------------------------------------------------------------


def test_budget_from_dict_empty_means_unlimited():
    assert EvaluationBudget.from_dict(None) is None
    assert EvaluationBudget.from_dict({}) is None


def test_budget_from_dict_coerces_types():
    budget = EvaluationBudget.from_dict(
        {"deadline": 5, "max_states": 100.0}
    )
    assert budget.deadline == 5.0
    assert budget.max_states == 100


def test_budget_from_dict_rejects_unknown_limits():
    with pytest.raises(ValueError):
        EvaluationBudget.from_dict({"max_bananas": 3})


# ---------------------------------------------------------------------------
# the coalescer
# ---------------------------------------------------------------------------


def test_single_caller_is_a_leader():
    coalescer = Coalescer()
    result, coalesced = coalescer.run("k", lambda: 42)
    assert (result, coalesced) == (42, False)
    assert coalescer.leaders == 1
    assert coalescer.followers == 0
    # the key is gone the moment the leader finishes
    assert coalescer.waiting("k") == 0


def test_sequential_calls_never_coalesce():
    coalescer = Coalescer()
    calls = []
    for _ in range(3):
        _, coalesced = coalescer.run("k", lambda: calls.append(1))
        assert coalesced is False
    assert len(calls) == 3


def test_concurrent_followers_share_one_computation():
    coalescer = Coalescer()
    gate = threading.Event()
    calls = []

    def compute():
        calls.append(threading.get_ident())
        assert gate.wait(timeout=10)
        return "shared"

    results = []

    def request():
        results.append(coalescer.run("k", compute))

    threads = [threading.Thread(target=request) for _ in range(5)]
    for thread in threads:
        thread.start()
    # wait until all four followers are registered behind the leader,
    # then release the leader's computation
    for _ in range(1000):
        if coalescer.waiting("k") == 4:
            break
        threading.Event().wait(0.01)
    assert coalescer.waiting("k") == 4
    gate.set()
    for thread in threads:
        thread.join(timeout=10)

    assert len(calls) == 1  # exactly one thread computed
    assert [r[0] for r in results] == ["shared"] * 5
    assert sorted(r[1] for r in results) == [False, True, True, True, True]
    assert coalescer.leaders == 1
    assert coalescer.followers == 4


def test_leader_error_propagates_to_followers():
    coalescer = Coalescer()
    gate = threading.Event()

    def compute():
        assert gate.wait(timeout=10)
        raise MarkovError("chain went wrong")

    outcomes = []

    def request():
        try:
            coalescer.run("k", compute)
            outcomes.append("ok")
        except MarkovError:
            outcomes.append("error")

    threads = [threading.Thread(target=request) for _ in range(3)]
    for thread in threads:
        thread.start()
    for _ in range(1000):
        if coalescer.waiting("k") == 2:
            break
        threading.Event().wait(0.01)
    gate.set()
    for thread in threads:
        thread.join(timeout=10)
    assert outcomes == ["error"] * 3
    # a failed flight is forgotten too: the next call recomputes
    result, coalesced = coalescer.run("k", lambda: "fresh")
    assert (result, coalesced) == ("fresh", False)


def test_distinct_keys_do_not_serialize():
    coalescer = Coalescer()
    assert coalescer.run("a", lambda: 1)[0] == 1
    assert coalescer.run("b", lambda: 2)[0] == 2
    assert coalescer.leaders == 2
    assert coalescer.followers == 0


# ---------------------------------------------------------------------------
# the service core, transport-free
# ---------------------------------------------------------------------------


@pytest.fixture
def model_document():
    import json

    from repro.dsl import dump_assembly
    from repro.scenarios import local_assembly

    return json.loads(dump_assembly(local_assembly()))


def test_service_evaluate_round_trip(model_document):
    service = EvaluationService()
    reply = service.evaluate({
        "model": model_document,
        "service": "search",
        "actuals": {"elem": 1, "list": 500, "res": 1},
    })
    assert reply["pfail"] == pytest.approx(0.004035, abs=5e-6)
    assert reply["reliability"] == pytest.approx(1 - reply["pfail"])
    assert reply["backend"] == "symbolic"
    assert reply["coalesced"] is False
    assert service.evaluations == 1


def test_service_reuses_warm_caches(model_document):
    service = EvaluationService()
    payload = {
        "model": model_document,
        "service": "search",
        "actuals": {"elem": 1, "list": 500, "res": 1},
    }
    service.evaluate(payload)
    before = service.plan_cache.stats.hits
    service.evaluate(payload)
    stats = service.cache_stats()
    assert service.plan_cache.stats.hits > before
    assert stats["model"]["hits"] >= 1
    assert stats["server"]["evaluations"] == 2
    # the solver block carries plan/factorization counters and the
    # low-rank update outcomes next to the LRU stats
    solver = stats["solver"]
    assert solver["plans"] >= 0
    assert solver["factorizations"] >= 0
    assert set(solver["updates"]) == {
        "applied", "fallback_rank", "fallback_condition"
    }


def test_service_rejects_invalid_payloads(model_document):
    service = EvaluationService()
    with pytest.raises(RequestValidationError):
        service.evaluate({"service": "search"})
    with pytest.raises(RequestValidationError):
        service.sweep({"model": model_document, "service": "search"})
    with pytest.raises(RequestValidationError):
        service.batch({"requests": []})


def test_service_default_budget_applies(model_document):
    service = EvaluationService(default_budget={"deadline": 0.0})
    with pytest.raises(BudgetExceededError):
        service.evaluate({
            "model": model_document,
            "service": "search",
            "actuals": {"elem": 1, "list": 500, "res": 1},
        })
    # a request-level budget replaces the default
    reply = service.evaluate({
        "model": model_document,
        "service": "search",
        "actuals": {"elem": 1, "list": 500, "res": 1},
        "budget": {"deadline": 60.0},
    })
    assert reply["pfail"] > 0


def test_admission_sheds_past_max_inflight(model_document):
    service = EvaluationService(max_inflight=1)
    with service.admit():
        assert service.inflight == 1
        with pytest.raises(ServerOverloadedError):
            with service.admit():
                pass  # pragma: no cover - admission must refuse
    assert service.inflight == 0
    assert service.shed == 1
    assert service.requests == 2
    # capacity is available again after the first request finished
    with service.admit():
        pass


def test_service_health_shape():
    health = EvaluationService().health()
    assert health["status"] == "ok"
    assert health["requests"] == {"total": 0, "inflight": 0, "shed": 0}
    assert health["uptime_seconds"] >= 0
