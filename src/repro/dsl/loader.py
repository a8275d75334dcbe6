"""Deserialization of models from the ``repro/1`` JSON schema.

Inverse of :mod:`repro.dsl.serializer`.  Expression fields accept either
the AST-dictionary form or a plain string (parsed with
:func:`repro.symbolic.parse_expression`), so hand-written model files stay
readable::

    {"target": "cpu", "actuals": {"N": "list * log2(list)"}, ...}
"""

from __future__ import annotations

import json

from repro.errors import ModelError, ReproError
from repro.model.assembly import Assembly
from repro.model.completion import AND, OR, CompletionModel, KOfNCompletion
from repro.model.connector import CompositeConnector, SimpleConnector
from repro.model.flow import FlowState, FlowTransition, ServiceFlow
from repro.model.parameters import (
    FiniteDomain,
    FormalParameter,
    IntegerDomain,
    ParameterDomain,
    RealDomain,
)
from repro.model.requests import ServiceRequest
from repro.model.service import (
    AnalyticInterface,
    CompositeService,
    Service,
    SimpleService,
)
from repro.symbolic import Expression, parse_expression
from repro.symbolic.expr import _from_dict

__all__ = ["service_from_dict", "assembly_from_dict", "load_assembly"]


def _expression(data, leaves: dict) -> Expression:
    """``data`` as an expression; ``leaves`` is the load call's memo, so each
    distinct ``const``/``param`` leaf of a document is built once."""
    if isinstance(data, str):
        return parse_expression(data)
    if isinstance(data, (int, float)) and not isinstance(data, bool):
        return _from_dict({"kind": "const", "value": data}, leaves)
    if isinstance(data, dict):
        return _from_dict(data, leaves)
    raise ModelError(f"cannot interpret {data!r} as an expression")


def _bound(value, default: float) -> float:
    return default if value is None else float(value)


def _domain_from_dict(data: dict) -> ParameterDomain:
    kind = data.get("kind")
    if kind == "integer":
        return IntegerDomain(
            low=int(_bound(data.get("low"), 0)),
            high=_bound(data.get("high"), float("inf")),
        )
    if kind == "real":
        return RealDomain(
            low=_bound(data.get("low"), float("-inf")),
            high=_bound(data.get("high"), float("inf")),
        )
    if kind == "finite":
        return FiniteDomain(tuple(data["values"]))
    raise ModelError(f"unknown domain kind {kind!r}")


def _completion_from_dict(data: dict) -> CompletionModel:
    kind = data.get("kind")
    if kind == "and":
        return AND
    if kind == "or":
        return OR
    if kind == "k_of_n":
        return KOfNCompletion(int(data["k"]))
    raise ModelError(f"unknown completion kind {kind!r}")


def _interface_from_dict(data: dict) -> AnalyticInterface:
    parameters = tuple(
        FormalParameter(
            p["name"],
            domain=_domain_from_dict(p.get("domain", {"kind": "integer", "low": 0})),
            direction=p.get("direction", "in"),
            description=p.get("description", ""),
        )
        for p in data.get("parameters", ())
    )
    return AnalyticInterface(
        formal_parameters=parameters,
        attributes=data.get("attributes", {}),
        description=data.get("description", ""),
    )


def _flow_from_dict(data: dict, leaves: dict) -> ServiceFlow:
    def expression(value) -> Expression:
        return _expression(value, leaves)

    def expressions(mapping) -> tuple:
        return tuple((k, expression(v)) for k, v in mapping.items())

    # equal request dicts of the document share one ServiceRequest
    built: dict[tuple, ServiceRequest] = {}
    states = []
    for s in data.get("states", ()):
        requests = []
        for r in s.get("requests", ()):
            connector = r.get("connector_actuals")
            key = (
                r["target"], expressions(r.get("actuals", {})),
                expression(r.get("internal_failure", 0)),
                expression(r.get("masking", 0)),
                connector if connector is None else expressions(connector),
                r.get("label", ""),
            )
            if key not in built:
                target, actuals, internal, masking, connector, label = key
                built[key] = ServiceRequest(
                    target, actuals=dict(actuals), internal_failure=internal,
                    masking=masking, label=label,
                    connector_actuals=None if connector is None else dict(connector),
                )
            requests.append(built[key])
        raw_groups = s.get("sharing_groups")
        states.append(
            FlowState(
                s["name"],
                tuple(requests),
                completion=_completion_from_dict(s.get("completion", {"kind": "and"})),
                shared=bool(s.get("shared", False)),
                sharing_groups=(
                    None
                    if raw_groups is None
                    else tuple(tuple(int(i) for i in g) for g in raw_groups)
                ),
            )
        )
    transitions = [
        FlowTransition(t["source"], t["target"], expression(t["probability"]))
        for t in data.get("transitions", ())
    ]
    return ServiceFlow(tuple(data.get("formals", ())), states, transitions)


def service_from_dict(data: dict) -> Service:
    """Rebuild one service from its serialized form."""
    return _service(data, {})


def _service(data: dict, leaves: dict) -> Service:
    if not isinstance(data, dict):
        raise ModelError(f"service entry must be an object, got {type(data).__name__}")
    kind = data.get("kind")
    if "name" not in data:
        raise ModelError("service entry is missing the 'name' field")
    name = data["name"]
    interface = _interface_from_dict(data.get("interface", {}))
    is_connector = bool(data.get("connector", False))
    if kind == "simple":
        cls = SimpleConnector if is_connector else SimpleService
        failure = _expression(data.get("failure_probability", 0), leaves)
        raw_duration = data.get("duration")
        return cls(
            name, interface, failure,
            duration=None if raw_duration is None else _expression(raw_duration, leaves),
        )
    if kind == "composite":
        cls = CompositeConnector if is_connector else CompositeService
        return cls(name, interface, _flow_from_dict(data["flow"], leaves))
    raise ModelError(f"unknown service kind {kind!r}")


def assembly_from_dict(data: dict) -> Assembly:
    """Rebuild a whole assembly from its serialized form.

    Structural problems in the input — wrong types, missing required
    fields — surface as :class:`~repro.errors.ModelError`, never as raw
    ``KeyError``/``TypeError`` tracebacks: the loader is an API boundary
    fed by untrusted files.
    """
    if not isinstance(data, dict):
        raise ModelError(
            f"assembly document must be a JSON object, "
            f"got {type(data).__name__}"
        )
    leaves: dict = {}
    try:
        assembly = Assembly(data.get("name", "assembly"))
        for service_data in data.get("services", ()):
            assembly.add_service(_service(service_data, leaves))
        for binding in data.get("bindings", ()):
            if not isinstance(binding, dict):
                raise ModelError(
                    f"binding entry must be an object, "
                    f"got {type(binding).__name__}"
                )
            missing = [k for k in ("consumer", "slot", "provider")
                       if k not in binding]
            if missing:
                raise ModelError(f"binding entry is missing fields {missing}")
            assembly.bind(
                binding["consumer"],
                binding["slot"],
                binding["provider"],
                connector=binding.get("connector"),
                connector_actuals={
                    k: _expression(v, leaves)
                    for k, v in (binding.get("connector_actuals") or {}).items()
                },
            )
    except ReproError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ModelError(
            f"malformed assembly document: {type(exc).__name__}: {exc}"
        ) from exc
    return assembly


def load_assembly(text: str) -> Assembly:
    """Parse a JSON string produced by
    :func:`repro.dsl.serializer.dump_assembly`.

    Raises :class:`~repro.errors.ModelError` on malformed or truncated
    JSON (wrapping :class:`json.JSONDecodeError`) and on structurally
    invalid documents.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"not valid JSON: {exc}") from exc
    return assembly_from_dict(data)
