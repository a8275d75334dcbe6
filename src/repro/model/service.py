"""Services and their analytic interfaces.

The unified service model of section 2: every architectural entity —
software component, CPU, network, device, or connector — is a *resource
offering services*.  Each offered service publishes an **analytic
interface** comprising

(a) an abstract description of the service: formal parameters over abstract
    domains plus numeric attributes (speed, bandwidth, failure rates);
(b) for composite services, the abstract usage profile: a
    :class:`~repro.model.flow.ServiceFlow`.

The library distinguishes the paper's two service types (section 3):

- :class:`SimpleService` — no cascading requests; reliability is a known
  function of the formal parameters, carried here as a symbolic expression
  over formal-parameter *and attribute* names (eqs. 1 and 2 are built this
  way by :mod:`repro.model.resource`);
- :class:`CompositeService` — reliability derives from a flow of requests to
  other services, evaluated by :mod:`repro.core`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.errors import EvaluationError, ModelError
from repro.model.flow import ServiceFlow
from repro.model.parameters import FormalParameter
from repro.symbolic import Environment, Expression, Value, as_expression

__all__ = ["AnalyticInterface", "Service", "SimpleService", "CompositeService"]


@dataclass(frozen=True)
class AnalyticInterface:
    """The published abstract description of a service.

    Attributes:
        formal_parameters: abstract formal parameters (name + domain).
        attributes: named numeric attributes (e.g. ``speed``,
            ``failure_rate``, ``bandwidth``, ``software_failure_rate``).
            Reliability expressions may reference attribute names; the
            evaluator binds them automatically.
        description: free-text documentation of the offered service.
        parameter_names: formal-parameter names, in declaration order
            (derived once; outside ``==``, ``hash`` and ``repr``).
    """

    formal_parameters: tuple[FormalParameter, ...] = ()
    attributes: Mapping[str, float] = field(default_factory=dict)
    description: str = ""
    parameter_names: tuple[str, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        params = tuple(self.formal_parameters)
        if not all(isinstance(p, FormalParameter) for p in params):
            raise ModelError("formal_parameters must be FormalParameter instances")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ModelError(f"duplicate formal parameter names in {names}")
        attrs = {}
        for key, value in dict(self.attributes).items():
            if not isinstance(key, str) or not key.isidentifier():
                raise ModelError(f"invalid attribute name {key!r}")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ModelError(f"attribute {key!r} must be numeric, got {value!r}")
            if key in names:
                raise ModelError(
                    f"attribute {key!r} collides with a formal parameter name"
                )
            attrs[key] = float(value)
        object.__setattr__(self, "formal_parameters", params)
        object.__setattr__(self, "attributes", MappingProxyType(attrs))
        object.__setattr__(self, "parameter_names", tuple(names))

    def check_actuals(self, env: Mapping[str, Value]) -> None:
        """Check that ``env`` binds every formal parameter within its
        abstract domain."""
        for param in self.formal_parameters:
            if param.name not in env:
                raise ModelError(
                    f"missing actual value for formal parameter {param.name!r}"
                )
            if not param.domain.contains_all(env[param.name]):
                raise ModelError(
                    f"value {env[param.name]!r} outside domain "
                    f"({param.domain.describe()}) of parameter {param.name!r}"
                )


class Service:
    """Base class for offered services.

    Args:
        name: globally unique service name within an assembly/registry.
        interface: the published analytic interface.
    """

    #: True for services offered by connectors (the unified model of §2
    #: treats connectors as services too; the flag only aids validation and
    #: reporting, never the reliability math).
    is_connector: bool = False

    def __init__(self, name: str, interface: AnalyticInterface | None = None):
        if not isinstance(name, str) or not name:
            raise ModelError(f"invalid service name {name!r}")
        self.name = name
        self.interface = interface if interface is not None else AnalyticInterface()

    @property
    def formal_parameters(self) -> tuple[str, ...]:
        """Formal-parameter names of the service."""
        return self.interface.parameter_names

    @property
    def is_simple(self) -> bool:
        """True for services with no cascading requests (recursion base)."""
        raise NotImplementedError

    def check_actual_names(self, actuals: Mapping[str, Value]) -> None:
        """Raise :class:`~repro.errors.EvaluationError` when ``actuals``
        misses a formal parameter or names one the service does not have."""
        formals = self.formal_parameters
        missing = [f for f in formals if f not in actuals]
        if missing:
            raise EvaluationError(
                f"service {self.name!r}: missing actual parameters {missing}"
            )
        extra = [a for a in actuals if a not in formals]
        if extra:
            raise EvaluationError(
                f"service {self.name!r}: unknown actual parameters {extra}"
            )

    def evaluation_environment(
        self, actuals: Mapping[str, Value], check: bool = True
    ) -> Environment:
        """Environment binding formal parameters (from ``actuals``) plus the
        interface attributes, for evaluating this service's expressions.

        ``check=False`` skips the abstract-domain validation: actual
        parameters *derived* by a caller's expressions (e.g. the workload
        ``list * log2(list)``) legitimately land between the representative
        elements of an integer abstract domain, so the evaluator only
        enforces domains on the externally supplied top-level actuals.
        """
        if check:
            self.interface.check_actuals(actuals)
        env = dict(self.interface.attributes)
        for name in self.interface.parameter_names:
            env[name] = actuals[name]
        return Environment(env)

    def __repr__(self) -> str:
        kind = type(self).__name__
        params = ", ".join(self.interface.parameter_names)
        return f"{kind}({self.name!r}, params=({params}))"


class SimpleService(Service):
    """A service whose unreliability is a published closed-form function.

    Args:
        name: service name.
        interface: analytic interface (formals + attributes).
        failure_probability: expression for ``Pfail(S, fp)`` over the formal
            parameter and attribute names of the interface.  Eqs. (1) and
            (2) are instances; a perfectly reliable modeling connector uses
            the constant 0.
        duration: optional expression for the service's execution time over
            the same names (e.g. ``N / speed`` for a processing service) —
            the input of the performance extension
            (:class:`repro.core.performance.PerformanceEvaluator`, the
            "other QoS aspects" of the paper's section 6).  ``None`` means
            the service publishes no timing information.
    """

    def __init__(
        self,
        name: str,
        interface: AnalyticInterface | None = None,
        failure_probability: Expression | float = 0.0,
        duration: Expression | float | None = None,
    ):
        super().__init__(name, interface)
        self.failure_probability = as_expression(failure_probability)
        self.duration = None if duration is None else as_expression(duration)
        allowed = set(self.interface.parameter_names) | set(self.interface.attributes)
        extra = self.failure_probability.free_parameters() - allowed
        if extra:
            raise ModelError(
                f"simple service {name!r}: failure probability references "
                f"unknown names {sorted(extra)}"
            )
        if self.duration is not None:
            extra = self.duration.free_parameters() - allowed
            if extra:
                raise ModelError(
                    f"simple service {name!r}: duration references unknown "
                    f"names {sorted(extra)}"
                )

    @property
    def is_simple(self) -> bool:
        return True

    def pfail(self, **actuals: Value) -> Value:
        """``Pfail(S, fp)`` for concrete (possibly array-valued) actuals."""
        env = self.evaluation_environment(actuals)
        return self.failure_probability.evaluate(env)

    def reliability(self, **actuals: Value) -> Value:
        """``1 - Pfail(S, fp)``."""
        return 1.0 - self.pfail(**actuals)

    def execution_time(self, **actuals: Value) -> Value:
        """The published duration for concrete actuals (raises
        :class:`ModelError` when the service publishes none)."""
        if self.duration is None:
            raise ModelError(
                f"simple service {self.name!r} publishes no duration"
            )
        env = self.evaluation_environment(actuals)
        return self.duration.evaluate(env)


class CompositeService(Service):
    """A service realized by a flow of requests to other services.

    Args:
        name: service name.
        interface: analytic interface.
        flow: the usage-profile template.  Its declared formal parameters
            must match the interface's; its expressions may additionally
            reference interface attribute names (e.g. a software failure
            rate used inside an internal-failure expression).
    """

    def __init__(
        self,
        name: str,
        interface: AnalyticInterface,
        flow: ServiceFlow,
    ):
        super().__init__(name, interface)
        if not isinstance(flow, ServiceFlow):
            raise ModelError(f"composite service {name!r} requires a ServiceFlow")
        declared = set(flow.formal_parameters)
        published = set(self.interface.parameter_names)
        if not declared <= published:
            raise ModelError(
                f"composite service {name!r}: flow declares parameters "
                f"{sorted(declared - published)} absent from the interface"
            )
        allowed = published | set(self.interface.attributes)
        for state in flow.states:
            for request in state.requests:
                extra = request.free_parameters() - allowed
                if extra:
                    raise ModelError(
                        f"composite service {name!r}, state {state.name!r}: "
                        f"request {request.target!r} references unknown names "
                        f"{sorted(extra)}"
                    )
        self.flow = flow

    @property
    def is_simple(self) -> bool:
        return False

    def requirements(self) -> frozenset[str]:
        """The required-service slot names this service's flow calls."""
        return self.flow.request_targets()
