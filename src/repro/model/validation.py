"""Structural validation of assemblies.

The paper's recursive evaluation procedure assumes a well-formed assembly;
the SOC setting ("automated selection and composition") makes eager,
machine-checkable validation essential.  :func:`validate_assembly` checks an
:class:`~repro.model.assembly.Assembly` and returns a
:class:`ValidationReport` with every problem found (it does not stop at the
first), covering:

- every required slot of every composite service (including composite
  connectors) is bound;
- bindings reference known consumer/provider/connector services, and the
  consumer is composite (simple services issue no requests);
- every formal parameter of a bound provider is supplied by each request's
  actuals;
- connector formal parameters are covered by the effective connector
  actuals (request override or binding default);
- shared states respect the paper's single-service restriction (also
  enforced at flow construction; re-checked here against *resolved*
  bindings so the "same connector" half of the restriction is validated
  too);
- cyclic dependency chains are reported (as a warning: the numeric
  evaluator solves them as a least fixed point, but the closed-form
  derivation, the performance analysis and the simulator refuse them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ModelError, UnknownServiceError
from repro.model.assembly import Assembly, ResolvedRequest
from repro.model.requests import ServiceRequest
from repro.model.service import CompositeService

__all__ = ["ValidationIssue", "ValidationReport", "validate_assembly"]

#: Issue severities.
ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found by validation."""

    severity: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.location}: {self.message}"


@dataclass
class ValidationReport:
    """The outcome of validating an assembly."""

    assembly: str
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def errors(self) -> list[ValidationIssue]:
        """Issues with error severity."""
        return [i for i in self.issues if i.severity == ERROR]

    @property
    def warnings(self) -> list[ValidationIssue]:
        """Issues with warning severity."""
        return [i for i in self.issues if i.severity == WARNING]

    @property
    def ok(self) -> bool:
        """True when no errors were found (warnings allowed)."""
        return not self.errors

    def raise_if_invalid(self) -> None:
        """Raise :class:`ModelError` summarizing all errors, if any."""
        if self.errors:
            summary = "; ".join(str(i) for i in self.errors)
            raise ModelError(
                f"assembly {self.assembly!r} failed validation: {summary}"
            )

    def __str__(self) -> str:
        if not self.issues:
            return f"assembly {self.assembly!r}: valid"
        lines = [f"assembly {self.assembly!r}: {len(self.errors)} error(s), "
                 f"{len(self.warnings)} warning(s)"]
        lines += [f"  {issue}" for issue in self.issues]
        return "\n".join(lines)


def validate_assembly(assembly: Assembly) -> ValidationReport:
    """Run all structural checks on ``assembly``."""
    report = ValidationReport(assembly.name)

    def error(location: str, message: str) -> None:
        report.issues.append(ValidationIssue(ERROR, location, message))

    def warning(location: str, message: str) -> None:
        report.issues.append(ValidationIssue(WARNING, location, message))

    known = {s.name for s in assembly.services}

    # bindings reference known services and composite consumers
    for binding in assembly.bindings:
        where = f"binding {binding.consumer}.{binding.slot}"
        consumer = None
        if binding.consumer not in known:
            error(where, f"unknown consumer service {binding.consumer!r}")
        else:
            consumer = assembly.service(binding.consumer)
            if not isinstance(consumer, CompositeService):
                error(where, "consumer is a simple service and issues no requests")
            elif binding.slot not in consumer.requirements():
                warning(
                    where,
                    f"slot {binding.slot!r} is never requested by "
                    f"{binding.consumer!r}'s flow",
                )
        if binding.provider not in known:
            error(where, f"unknown provider service {binding.provider!r}")
        if binding.connector is not None and binding.connector not in known:
            error(where, f"unknown connector service {binding.connector!r}")

    # every requirement bound; request/connector actuals complete
    for service in assembly.services:
        if not isinstance(service, CompositeService):
            continue
        checked: dict[tuple, tuple] = {}
        for state in service.flow.states:
            resolved = []
            for request in state.requests:
                connector_names = request.connector_actuals
                shape = (
                    request.target, tuple(request.actuals),
                    None if connector_names is None else tuple(connector_names),
                )
                if shape not in checked:
                    checked[shape] = _check_request(assembly, service.name, request)
                res, issues = checked[shape]
                if issues:
                    where = (
                        f"service {service.name!r}, state {state.name!r}, "
                        f"request -> {request.target!r}"
                    )
                    report.issues += [
                        ValidationIssue(severity, where, message)
                        for severity, message in issues
                    ]
                if res is not None:
                    resolved.append(res)
            # sharing restriction against *resolved* providers/connectors,
            # per dependency group (handles both the classic shared flag
            # and the grouped-sharing extension)
            if resolved and len(resolved) == len(state.requests):
                for group in state.effective_groups():
                    if len(group) < 2:
                        continue
                    providers = {resolved[j].provider.name for j in group}
                    connectors = {
                        resolved[j].connector.name if resolved[j].connector
                        else None
                        for j in group
                    }
                    if len(providers) > 1 or len(connectors) > 1:
                        error(
                            f"service {service.name!r}, state {state.name!r}",
                            f"shared group resolves to providers "
                            f"{sorted(providers)} via connectors "
                            f"{sorted(map(str, connectors))}; the sharing "
                            f"model requires one service through one "
                            f"connector per group (section 3.2)",
                        )

    cycle = assembly.find_cycle()
    if cycle is not None:
        warning(
            "assembly",
            f"dependency cycle {' -> '.join(cycle)}; the numeric evaluator "
            f"solves it as a least fixed point, the closed-form derivation "
            f"and the simulator refuse it",
        )

    return report


def _check_request(
    assembly: Assembly, consumer: str, request: ServiceRequest
) -> tuple[ResolvedRequest | None, list[tuple[str, str]]]:
    """``request`` of ``consumer`` resolved (``None`` when it cannot be)
    and its ``(severity, message)`` issues.  Both depend only on the
    request's target and the names of its actuals and connector actuals,
    so :func:`validate_assembly` checks each such shape once per consumer."""
    try:
        res = assembly.resolve_request(consumer, request)
    except (UnknownServiceError, ModelError) as exc:
        return None, [(ERROR, str(exc))]
    issues = []
    formals = res.provider.formal_parameters
    missing = [p for p in formals if p not in request.actuals]
    if missing:
        issues.append((ERROR, f"actuals missing for provider formals {missing}"))
    extra = [p for p in request.actuals if p not in formals]
    if extra:
        issues.append((WARNING, f"actuals {extra} do not match any provider formal"))
    if res.connector is not None:
        unbound = [
            p for p in res.connector.formal_parameters
            if p not in res.connector_actuals
        ]
        if unbound:
            issues.append((
                ERROR,
                f"connector {res.connector.name!r} formals {unbound} have no "
                f"actuals (request override or binding default)",
            ))
    return res, issues
