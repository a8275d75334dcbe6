"""Assemblies — wiring required services to offered services via connectors.

An :class:`Assembly` is the architectural configuration the paper evaluates:
a set of services (including connector services) plus *bindings* that map
each required-service slot of each composite service to an offered service,
transported by a connector.  Figures 3 and 4 of the paper are two
assemblies over the same component set differing only in bindings and
connectors — reproducing that comparison is the core use case.

A :class:`Binding` carries the connector's default actual parameters as
expressions over the *consumer's* formal parameters (the ``[S_j, ap_j]``
connector argument of eq. 8; in section 4, ``ip = elem + list`` and
``op = res``).  Individual :class:`~repro.model.requests.ServiceRequest`\\ s
may override them.

Connectors are services, so composite connectors (LPC/RPC) have bindings of
their own — e.g. the RPC connector's ``net`` slot binds to ``net12``.  This
uniformity yields exactly the recursion levels the paper walks through in
section 4 (:meth:`Assembly.recursion_levels`).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.errors import (
    DuplicateNameError,
    ModelError,
    UnboundRequirementError,
    UnknownServiceError,
)
from repro.model.requests import ServiceRequest
from repro.model.service import CompositeService, Service
from repro.symbolic import Expression, ExpressionLike, as_expression

__all__ = ["Binding", "ResolvedRequest", "Assembly"]


@dataclass(frozen=True)
class Binding:
    """A (consumer, slot) -> (provider, connector) wiring entry.

    Attributes:
        consumer: name of the composite service whose flow names the slot.
        slot: the required-service alias used in the consumer's flow.
        provider: name of the offered service bound to the slot.
        connector: name of the connector service transporting requests, or
            ``None`` for a direct (implicitly perfect) association.
        connector_actuals: default actual-parameter expressions for the
            connector, over the consumer's formal parameters.
    """

    consumer: str
    slot: str
    provider: str
    connector: str | None = None
    connector_actuals: Mapping[str, Expression] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for label, value in (("consumer", self.consumer), ("slot", self.slot),
                             ("provider", self.provider)):
            if not isinstance(value, str) or not value:
                raise ModelError(f"binding {label} must be a non-empty string")
        frozen = {
            name: as_expression(expr)
            for name, expr in dict(self.connector_actuals).items()
        }
        object.__setattr__(self, "connector_actuals", MappingProxyType(frozen))


@dataclass(frozen=True)
class ResolvedRequest:
    """A service request resolved against an assembly.

    Attributes:
        request: the original request.
        provider: the offered service the slot is bound to.
        connector: the connector service, or ``None``.
        connector_actuals: the effective connector actual parameters
            (request-level override if present, else binding defaults).
    """

    request: ServiceRequest
    provider: Service
    connector: Service | None
    connector_actuals: Mapping[str, Expression]


class Assembly:
    """A named set of services plus the bindings wiring them together."""

    def __init__(self, name: str = "assembly"):
        if not isinstance(name, str) or not name:
            raise ModelError(f"invalid assembly name {name!r}")
        self.name = name
        self._services: dict[str, Service] = {}
        self._bindings: dict[tuple[str, str], Binding] = {}
        # (name, digest) memo of repro.engine.fingerprint; mutators reset it
        self._canonical: tuple[str, str] | None = None

    # -- construction -----------------------------------------------------

    def add_service(self, service: Service) -> "Assembly":
        """Register a service (or connector service)."""
        if not isinstance(service, Service):
            raise ModelError(f"{service!r} is not a Service")
        if service.name in self._services:
            raise DuplicateNameError("service", service.name)
        self._services[service.name] = service
        self._canonical = None
        return self

    def add_services(self, *services: Service) -> "Assembly":
        """Register several services at once."""
        for service in services:
            self.add_service(service)
        return self

    def bind(
        self,
        consumer: str,
        slot: str,
        provider: str,
        connector: str | None = None,
        connector_actuals: Mapping[str, ExpressionLike] | None = None,
    ) -> "Assembly":
        """Bind a required-service slot of ``consumer`` to ``provider``.

        Duplicate bindings for the same (consumer, slot) are rejected —
        rebinding would silently change the architecture being analyzed.
        """
        key = (consumer, slot)
        if key in self._bindings:
            raise DuplicateNameError("binding", f"{consumer}.{slot}")
        self._bindings[key] = Binding(
            consumer,
            slot,
            provider,
            connector,
            {k: as_expression(v) for k, v in (connector_actuals or {}).items()},
        )
        self._canonical = None
        return self

    # -- lookup -----------------------------------------------------------

    @property
    def services(self) -> tuple[Service, ...]:
        """All registered services, in registration order."""
        return tuple(self._services.values())

    @property
    def bindings(self) -> tuple[Binding, ...]:
        """All bindings, in creation order."""
        return tuple(self._bindings.values())

    def service(self, name: str) -> Service:
        """Look up a service by name."""
        try:
            return self._services[name]
        except KeyError:
            raise UnknownServiceError(name) from None

    def binding(self, consumer: str, slot: str) -> Binding:
        """Look up the binding for a (consumer, slot) pair."""
        try:
            return self._bindings[(consumer, slot)]
        except KeyError:
            raise UnboundRequirementError(consumer, slot) from None

    def resolve_request(self, consumer: str, request: ServiceRequest) -> ResolvedRequest:
        """Resolve a request of ``consumer``'s flow to its provider and
        connector, with effective connector actuals."""
        binding = self.binding(consumer, request.target)
        provider = self.service(binding.provider)
        connector = self.service(binding.connector) if binding.connector else None
        actuals = (
            request.connector_actuals
            if request.connector_actuals is not None
            else binding.connector_actuals
        )
        return ResolvedRequest(request, provider, connector, actuals)

    # -- structure ----------------------------------------------------------

    def dependency_graph(self) -> dict[str, frozenset[str]]:
        """Service-name -> names of the services it directly depends on.

        A composite service depends on the provider *and* the connector of
        every bound slot its flow references.  Simple services depend on
        nothing (the recursion base of section 3.3).
        """
        graph: dict[str, frozenset[str]] = {}
        for name, service in self._services.items():
            deps: set[str] = set()
            if isinstance(service, CompositeService):
                for slot in service.requirements():
                    binding = self._bindings.get((name, slot))
                    if binding is None:
                        continue  # reported by validation, not here
                    deps.add(binding.provider)
                    if binding.connector:
                        deps.add(binding.connector)
            graph[name] = frozenset(deps)
        return graph

    def find_cycle(self) -> tuple[str, ...] | None:
        """A dependency cycle as a name tuple (closed: first == last), or
        ``None`` when the assembly is acyclic."""
        graph = self.dependency_graph()
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {name: WHITE for name in graph}
        stack: list[str] = []

        def visit(node: str) -> tuple[str, ...] | None:
            color[node] = GRAY
            stack.append(node)
            for dep in sorted(graph.get(node, ())):
                if dep not in color:
                    continue
                if color[dep] == GRAY:
                    start = stack.index(dep)
                    return tuple(stack[start:]) + (dep,)
                if color[dep] == WHITE:
                    found = visit(dep)
                    if found:
                        return found
            stack.pop()
            color[node] = BLACK
            return None

        for name in graph:
            if color[name] == WHITE:
                found = visit(name)
                if found:
                    return found
        return None

    def recursion_levels(self) -> dict[str, int]:
        """The stratification of section 4: level 0 services depend on
        nothing; level ``k`` services depend only on levels ``< k``.

        Raises :class:`ModelError` if the assembly is cyclic.
        """
        if self.find_cycle() is not None:
            raise ModelError(
                f"assembly {self.name!r} is cyclic; recursion levels are "
                f"undefined (its Pfail is a least fixed point)"
            )
        graph = self.dependency_graph()
        levels: dict[str, int] = {}

        def level_of(node: str) -> int:
            if node in levels:
                return levels[node]
            deps = [d for d in graph.get(node, ()) if d in graph]
            value = 0 if not deps else 1 + max(level_of(d) for d in deps)
            levels[node] = value
            return value

        for name in graph:
            level_of(name)
        return levels

    def describe(self) -> str:
        """Textual rendering of the assembly in the style of Figures 3/4."""
        lines = [f"assembly {self.name!r}:"]
        for service in self._services.values():
            tag = "connector" if service.is_connector else (
                "simple" if service.is_simple else "composite"
            )
            lines.append(f"  {tag:9s} {service.name}")
        for binding in self._bindings.values():
            via = f" via {binding.connector}" if binding.connector else ""
            lines.append(
                f"  {binding.consumer}.{binding.slot} -> {binding.provider}{via}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Assembly({self.name!r}, services={len(self._services)}, "
            f"bindings={len(self._bindings)})"
        )
