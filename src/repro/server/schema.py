"""Request schemas for the HTTP service surface — one source of truth.

Every ``POST`` endpoint of :mod:`repro.server` validates its JSON body
against a declarative schema defined here, written in the same small
JSON-Schema subset that ``tools/metrics_schema.json`` uses (``type``,
``required``, ``properties``, ``additionalProperties``, ``enum``,
``minimum``, ``maximum``, ``items``, ``minItems``, ``maxItems``) plus a
``description`` per field.  The subset interpreter lives here too
(:func:`schema_problems` / :func:`validate_request`), so the daemon needs
no third-party validator.

The same definitions drive the generated endpoint reference:
``tools/gen_api_reference.py`` renders :data:`ENDPOINTS` into
``docs/api_reference.md``, and CI fails when the committed page drifts
from this module — the serving contract is the *schema*, never the code
behind it (the architecture-model-as-contract stance of arXiv:2401.14320).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RequestValidationError

__all__ = [
    "ENDPOINTS",
    "Endpoint",
    "BATCH_REQUEST",
    "EVALUATE_REQUEST",
    "SWEEP_REQUEST",
    "schema_problems",
    "validate_request",
]

#: Schema tag carried by every JSON response body.
RESPONSE_SCHEMA = "repro/server/1"

# ---------------------------------------------------------------------------
# shared fragments
# ---------------------------------------------------------------------------

MODEL = {
    "type": "object",
    "description": "a `repro/1` assembly document (the exact JSON "
                   "`python -m repro export-scenario` writes); parsed "
                   "through the hardened model loader and cached by the "
                   "SHA-256 of the decoded document's pickle; a re-sent "
                   "body reuses the parsed assembly and its memoized "
                   "canonical fingerprint, a key-reordered copy is parsed "
                   "again and shares the plan",
}

ACTUALS = {
    "type": "object",
    "additionalProperties": {"type": "number"},
    "description": "actual parameter bindings, `{name: value}`",
}

BUDGET = {
    "type": "object",
    "additionalProperties": False,
    "description": "per-request resource envelope; exceeding any limit "
                   "answers `503` (the CLI's exit code 8)",
    "properties": {
        "deadline": {
            "type": "number", "minimum": 0,
            "description": "wall-clock seconds for this request",
        },
        "max_states": {
            "type": "integer", "minimum": 0,
            "description": "largest absorbing DTMC the solver may factor",
        },
        "max_depth": {
            "type": "integer", "minimum": 0,
            "description": "maximum service-composition recursion depth",
        },
        "max_sweeps": {
            "type": "integer", "minimum": 0,
            "description": "maximum fixed-point sweeps",
        },
        "max_trials": {
            "type": "integer", "minimum": 0,
            "description": "maximum Monte Carlo trials",
        },
    },
}

# ---------------------------------------------------------------------------
# request bodies
# ---------------------------------------------------------------------------

EVALUATE_REQUEST = {
    "type": "object",
    "required": ["model", "service"],
    "additionalProperties": False,
    "properties": {
        "model": MODEL,
        "service": {
            "type": "string",
            "description": "name of the service to evaluate",
        },
        "actuals": ACTUALS,
        "budget": BUDGET,
    },
}

BATCH_REQUEST = {
    "type": "object",
    "required": ["requests"],
    "additionalProperties": False,
    "properties": {
        "requests": {
            "type": "array",
            "minItems": 1,
            "maxItems": 1024,
            "description": "the evaluation points; entries sharing a model "
                           "digest compile one plan between them",
            "items": {
                "type": "object",
                "required": ["model", "service"],
                "additionalProperties": False,
                "properties": {
                    "model": MODEL,
                    "service": {
                        "type": "string",
                        "description": "name of the service to evaluate",
                    },
                    "actuals": ACTUALS,
                    "label": {
                        "type": "string",
                        "description": "caller tag echoed on the entry "
                                       "(e.g. a candidate id)",
                    },
                },
            },
        },
        "budget": BUDGET,
    },
}

SWEEP_REQUEST = {
    "type": "object",
    "required": ["model", "service", "parameter", "start", "stop"],
    "additionalProperties": False,
    "properties": {
        "model": MODEL,
        "service": {
            "type": "string",
            "description": "name of the service to evaluate",
        },
        "parameter": {
            "type": "string",
            "description": "the formal parameter swept across the grid",
        },
        "start": {"type": "number", "description": "first grid value"},
        "stop": {"type": "number", "description": "last grid value"},
        "points": {
            "type": "integer", "minimum": 2, "maximum": 100000,
            "description": "grid size (default 20)",
        },
        "fixed": {
            "type": "object",
            "additionalProperties": {"type": "number"},
            "description": "values for the remaining formal parameters",
        },
        "method": {
            "enum": ["symbolic", "numeric"],
            "description": "grid back-end: vectorized closed form "
                           "(default) or per-point recursion",
        },
        "budget": BUDGET,
    },
}

# ---------------------------------------------------------------------------
# the schema-subset interpreter
# ---------------------------------------------------------------------------

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
}


def _type_ok(value, expected: str) -> bool:
    if expected == "integer":
        # bool is an int subclass but never a valid count
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, _TYPES[expected])


def schema_problems(value, schema: dict, path: str = "$") -> list[str]:
    """Every violation of ``schema`` in ``value`` (empty list = valid).

    Interprets the subset listed in the module docstring; problems are
    human-readable one-liners anchored at a JSONPath-ish location.
    """
    problems: list[str] = []
    if "enum" in schema:
        if value not in schema["enum"]:
            problems.append(
                f"{path}: expected one of {schema['enum']!r}, got {value!r}"
            )
        return problems
    expected = schema.get("type")
    if expected is not None and not _type_ok(value, expected):
        problems.append(
            f"{path}: expected {expected}, got {type(value).__name__}"
        )
        return problems
    if "minimum" in schema and value < schema["minimum"]:
        problems.append(f"{path}: {value!r} < minimum {schema['minimum']!r}")
    if "maximum" in schema and value > schema["maximum"]:
        problems.append(f"{path}: {value!r} > maximum {schema['maximum']!r}")
    if expected == "array":
        if "minItems" in schema and len(value) < schema["minItems"]:
            problems.append(
                f"{path}: {len(value)} item(s) < minItems {schema['minItems']}"
            )
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            problems.append(
                f"{path}: {len(value)} item(s) > maxItems {schema['maxItems']}"
            )
        items = schema.get("items")
        if items is not None:
            for i, item in enumerate(value):
                problems.extend(schema_problems(item, items, f"{path}[{i}]"))
    if expected == "object":
        properties = schema.get("properties", {})
        for name in schema.get("required", ()):
            if name not in value:
                problems.append(f"{path}: missing required key {name!r}")
        extra = schema.get("additionalProperties")
        for name, item in value.items():
            if name in properties:
                problems.extend(
                    schema_problems(item, properties[name], f"{path}.{name}")
                )
            elif isinstance(extra, dict):
                problems.extend(schema_problems(item, extra, f"{path}.{name}"))
            elif extra is False:
                problems.append(f"{path}: unexpected key {name!r}")
    return problems


def validate_request(endpoint: str, payload, schema: dict) -> None:
    """Raise :class:`~repro.errors.RequestValidationError` on any violation."""
    problems = schema_problems(payload, schema)
    if problems:
        raise RequestValidationError(endpoint, problems)


# ---------------------------------------------------------------------------
# endpoint metadata (drives docs/api_reference.md)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Endpoint:
    """One route of the service surface, documented.

    ``tools/gen_api_reference.py`` renders these into the committed
    endpoint reference; anything not expressible here does not belong in
    the HTTP contract.
    """

    method: str
    path: str
    summary: str
    description: str
    request_schema: dict | None = None
    request_example: dict | None = None
    response_example: dict | None = None
    status_codes: tuple[tuple[int, str], ...] = field(default_factory=tuple)


_LOCAL_MODEL_NOTE = {"...": "a repro/1 assembly document"}

_COMMON_ERRORS = (
    (400, "malformed JSON, schema violation, or model error (CLI exit 3)"),
    (422, "valid request the engine refuses: symbolic/markov/evaluation "
          "error (CLI exits 4-6)"),
    (429, "server at its concurrent-request capacity; retry later"),
    (503, "request budget exhausted — deadline/state/depth caps "
          "(CLI exit 8); carries `Retry-After`"),
    (500, "numerical instability or internal error (CLI exits 7, 10, 11)"),
)

ENDPOINTS: tuple[Endpoint, ...] = (
    Endpoint(
        method="GET",
        path="/healthz",
        summary="Liveness probe.",
        description="Always answers `200` while the daemon accepts "
                    "connections; reports uptime, the process id, and "
                    "request totals.  Never touches the evaluation stack.",
        response_example={
            "schema": RESPONSE_SCHEMA,
            "status": "ok",
            "pid": 4242,
            "uptime_seconds": 12.5,
            "requests": {"total": 17, "inflight": 1, "shed": 0},
        },
        status_codes=((200, "always, while the process lives"),),
    ),
    Endpoint(
        method="GET",
        path="/metrics",
        summary="The observability registry as a `repro/metrics/1` snapshot.",
        description="The same JSON document `--metrics json:PATH` writes, "
                    "validated by `tools/validate_metrics.py` against "
                    "`tools/metrics_schema.json`.  Counters accumulate for "
                    "the process lifetime; scrape deltas, not absolutes.",
        response_example={
            "schema": "repro/metrics/1",
            "counters": {"cache.plan.hits": 12, "server.requests": 13},
            "gauges": {"budget.deadline_consumed": 0.12},
            "histograms": {
                "server.request.seconds": {"count": 13, "sum": 0.81},
            },
        },
        status_codes=((200, "always"),),
    ),
    Endpoint(
        method="GET",
        path="/v1/cache-stats",
        summary="Hit/miss/eviction counters of every warm cache.",
        description="Plan, kernel, solver-plan and parsed-model caches, "
                    "each as `{hits, misses, evictions, hit_rate, size}`, "
                    "plus the coalescer's request accounting.  The "
                    "`solver` block additionally carries the monotone "
                    "per-process totals: structural `plans` built and "
                    "numeric `factorizations` performed.  The "
                    "`engine.fused` block counts stacked-kernel group "
                    "executions (`groups`/`entries`/`fallbacks`).  The "
                    "numbers are live "
                    "regardless of whether metrics collection is enabled — "
                    "this is the endpoint warm-cache smoke tests watch.",
        response_example={
            "schema": RESPONSE_SCHEMA,
            "plan": {"hits": 9, "misses": 3, "evictions": 0,
                     "hit_rate": 0.75, "size": 3},
            "kernel": {"hits": 6, "misses": 2, "evictions": 0,
                       "hit_rate": 0.75, "size": 2},
            "solver": {"hits": 4, "misses": 1, "evictions": 0,
                       "hit_rate": 0.8, "size": 1,
                       "plans": 5, "factorizations": 7},
            "model": {"hits": 10, "misses": 2, "evictions": 0,
                      "hit_rate": 0.833, "size": 2},
            "engine": {"fused": {"groups": 2, "entries": 9, "fallbacks": 0}},
            "server": {"requests": 12, "evaluations": 3, "coalesced": 2},
        },
        status_codes=((200, "always"),),
    ),
    Endpoint(
        method="POST",
        path="/v1/evaluate",
        summary="One reliability prediction: `Pfail(service, actuals)`.",
        description="The HTTP form of `python -m repro evaluate`.  The "
                    "model travels in the body; the parsed assembly, its "
                    "compiled plan, the numpy kernels and the solver "
                    "factorization all land in the daemon's warm caches, so "
                    "repeating a request pays only the closed-form "
                    "arithmetic.  Concurrent requests with the same "
                    "model digest and point coalesce behind a "
                    "single computation — followers carry "
                    "`\"coalesced\": true`.",
        request_schema=EVALUATE_REQUEST,
        request_example={
            "model": _LOCAL_MODEL_NOTE,
            "service": "search",
            "actuals": {"elem": 1, "list": 500, "res": 1},
            "budget": {"deadline": 5.0},
        },
        response_example={
            "schema": RESPONSE_SCHEMA,
            "service": "search",
            "actuals": {"elem": 1.0, "list": 500.0, "res": 1.0},
            "pfail": 4.0353e-3,
            "reliability": 0.9959647,
            "backend": "symbolic",
            "fingerprint": "0a1b2c3d4e5f...",
            "coalesced": False,
            "elapsed_seconds": 0.004,
        },
        status_codes=((200, "prediction produced"),) + _COMMON_ERRORS,
    ),
    Endpoint(
        method="POST",
        path="/v1/batch",
        summary="Many (model, service, point) evaluations in one pass.",
        description="The HTTP form of `python -m repro batch`.  Failures "
                    "stay per-entry: a bad point yields a typed `error` "
                    "object on that entry while the rest of the batch "
                    "completes, so the response is always `200` when the "
                    "batch itself was admissible.  Distinct models compile "
                    "once each through the shared plan cache, and entries "
                    "sharing a symbolic plan evaluate through one stacked "
                    "kernel call.",
        request_schema=BATCH_REQUEST,
        request_example={
            "requests": [
                {"model": _LOCAL_MODEL_NOTE, "service": "search",
                 "actuals": {"elem": 1, "list": 500, "res": 1},
                 "label": "local@500"},
                {"model": _LOCAL_MODEL_NOTE, "service": "search",
                 "actuals": {"elem": 1, "list": 1000, "res": 1},
                 "label": "local@1000"},
            ],
        },
        response_example={
            "schema": RESPONSE_SCHEMA,
            "ok": True,
            "entries": [
                {"index": 0, "label": "local@500", "service": "search",
                 "actuals": {"elem": 1.0, "list": 500.0, "res": 1.0},
                 "ok": True, "pfail": 4.0353e-3, "reliability": 0.9959647,
                 "backend": "symbolic", "error": None},
            ],
            "stats": {"entries": 2, "plans": 1, "compilations": 0,
                      "cache_hits": 1, "fused_entries": 2,
                      "elapsed": 0.003},
        },
        status_codes=(
            (200, "batch ran; per-entry errors are in the body"),
        ) + _COMMON_ERRORS,
    ),
    Endpoint(
        method="POST",
        path="/v1/sweep",
        summary="`Pfail` across a grid of one formal parameter.",
        description="The HTTP form of `python -m repro sweep`.  The "
                    "symbolic method evaluates the compiled kernel "
                    "vectorized over the whole grid; the numeric method "
                    "loops with cooperative deadline checks.  Identical "
                    "concurrent sweeps coalesce exactly like `/v1/evaluate` "
                    "requests.",
        request_schema=SWEEP_REQUEST,
        request_example={
            "model": _LOCAL_MODEL_NOTE,
            "service": "search",
            "parameter": "list",
            "start": 1, "stop": 1000, "points": 5,
            "fixed": {"elem": 1, "res": 1},
        },
        response_example={
            "schema": RESPONSE_SCHEMA,
            "service": "search",
            "parameter": "list",
            "method": "symbolic",
            "values": [1.0, 250.75, 500.5, 750.25, 1000.0],
            "pfail": [6.1e-4, 2.1e-3, 4.0e-3, 6.2e-3, 8.9e-3],
            "coalesced": False,
            "elapsed_seconds": 0.005,
        },
        status_codes=((200, "sweep produced"),) + _COMMON_ERRORS,
    ),
)
