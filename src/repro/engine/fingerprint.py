"""Canonical structural fingerprints of assemblies and evaluation targets.

The plan cache (:mod:`repro.engine.cache`) must answer one question fast:
*is this the same model I already compiled?*  Object identity cannot answer
it — callers rebuild assemblies from JSON, mutate copies, or construct the
same architecture twice — so the engine hashes the model's **canonical
serialized form** instead: the ``repro/1`` dictionary produced by
:func:`repro.dsl.serializer.assembly_to_dict`, rendered as sorted-key JSON
and digested with SHA-256.

Because the serialized form covers everything the evaluators read — flow
topology, transition-probability expressions, request actuals, completion
and sharing declarations, interface formals *and published attribute
values* — two assemblies share a fingerprint exactly when every evaluation
backend would return identical results for them.  In particular, mutating a
published attribute (a new ``failure_rate``, a retuned ``speed``) changes
the fingerprint and therefore invalidates any cached plan, which is the
invalidation rule the cache relies on.

Fingerprints are plain hex strings: hashable, picklable, loggable, and
stable across processes and Python versions (the serializer sorts keys and
uses no floating-point repr shortcuts).

The digest (never the JSON text) is memoized on the assembly with the name
it was taken under; ``add_service`` and ``bind`` reset it and a rename
misses it.  Services are taken as frozen once added: build a new model
rather than replacing a registered service's ``interface``.
"""

from __future__ import annotations

import hashlib
import json

from repro.errors import ModelError
from repro.model.assembly import Assembly
from repro.model.service import Service

__all__ = [
    "assembly_fingerprint",
    "canonical_json",
    "plan_key",
    "service_fingerprint",
]


def canonical_json(assembly: Assembly) -> str:
    """The canonical ``repro/1`` JSON text of an assembly.

    Sorted keys, no extraneous whitespace — byte-identical for
    structurally identical assemblies, and loadable by
    :func:`repro.dsl.load_assembly` (the form shipped to worker
    processes, which cannot receive live assemblies: bindings hold
    mapping proxies that do not pickle).
    """
    from repro.dsl.serializer import assembly_to_dict

    try:
        document = assembly_to_dict(assembly)
    except ModelError:
        raise
    except Exception as exc:  # defensive: fingerprinting must be typed
        raise ModelError(
            f"cannot serialize assembly {assembly.name!r} for "
            f"fingerprinting: {type(exc).__name__}: {exc}"
        ) from exc
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assembly._canonical = (assembly.name, digest)
    return text


def assembly_fingerprint(assembly: Assembly) -> str:
    """SHA-256 hex digest of the assembly's canonical serialized form.

    Equal fingerprints imply identical evaluation results on every
    backend; any structural or attribute change yields a new digest.
    """
    memo = getattr(assembly, "_canonical", None)  # duck-typed models have none
    if memo is None or memo[0] != assembly.name:
        canonical_json(assembly)
        memo = assembly._canonical
    return memo[1]


def service_fingerprint(assembly: Assembly, service: str | Service) -> str:
    """Fingerprint of one evaluation target: assembly digest + service name.

    The service's closed form depends on the whole assembly (bindings,
    connectors, transitively reached providers), so the digest covers the
    full model; the service name scopes it to one entry point.
    """
    name = service.name if isinstance(service, Service) else str(service)
    # ensure the target exists — a typo must not poison the cache
    assembly.service(name)
    digest = assembly_fingerprint(assembly)
    return hashlib.sha256(f"{digest}:{name}".encode("utf-8")).hexdigest()


def plan_key(
    assembly: Assembly,
    service: str | Service,
    symbolic_attributes: bool = False,
) -> tuple[str, str, bool]:
    """The cache key of one evaluation plan.

    A tuple ``(assembly digest, service name, symbolic_attributes)`` —
    attribute-symbolic plans answer different questions (attribute
    sweeps, sensitivities) than fully bound ones, so they cache
    separately.
    """
    name = service.name if isinstance(service, Service) else str(service)
    return (assembly_fingerprint(assembly), name, bool(symbolic_attributes))
