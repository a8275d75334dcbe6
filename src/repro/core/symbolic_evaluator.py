"""Symbolic (closed-form) reliability evaluation.

Section 4 of the paper notes that, "thanks to the possibility of a symbolic
evaluation, we can directly start from the bottom of the recursion ... going
up to upper levels", deriving Pfail(search, ...) as the closed forms
(15)–(22) instead of repeatedly solving matrices numerically.

:class:`SymbolicEvaluator` mechanizes that derivation for *any* assembly:
it returns ``Pfail(S, fp)`` as a single
:class:`~repro.symbolic.Expression` over the formal parameters of ``S``.
The derivation mirrors the numeric evaluator exactly —

- simple services contribute their published expressions with interface
  attributes substituted (numerically, or as named symbols when
  ``symbolic_attributes=True``, which reproduces the paper's fully symbolic
  formulas with ``lambda1``, ``gamma``, ... left free);
- composite services substitute each callee's closed form with the actual
  parameter expressions (the ``N := list * log(list)`` substitution the
  paper highlights below eq. 18), derive each state's ``p(i, Fail)``
  (eqs. 4–13) and eliminate the flow's Markov structure symbolically
  (back-substitution for acyclic flows, symbolic Gaussian elimination for
  flows with loops).

A state is derived from its required successes ``k`` and dependency
partition (``FlowState.effective_groups()``) by one function, the
expression form of the numeric
:func:`~repro.core.state_failure.completion_class_failure`.  When every
masking term is the constant 0, the paper's own closed forms are the fast
paths: eq. (6) == eq. (11) for AND under any partition, eq. (7) for OR
without sharing and eq. (12) for OR with one shared group.

The result can then be evaluated *vectorized* over numpy arrays — this is
how the Figure 6 sweep computes 8 curves x hundreds of points in a single
expression evaluation — and differentiated for sensitivity analysis.

Equivalence with the numeric evaluator (to ~1e-12) is asserted by
``tests/integration/test_section4_closed_forms.py`` and by property tests
over randomized assemblies.
"""

from __future__ import annotations

from itertools import product

from repro.errors import (
    CyclicAssemblyError,
    EvaluationError,
    InvalidFlowError,
    ModelError,
)
from repro.model.assembly import Assembly
from repro.model.flow import END, START, FlowState, ServiceFlow
from repro.model.service import CompositeService, Service, SimpleService
from repro.model.validation import validate_assembly
from repro.runtime.budget import EvaluationBudget
from repro.symbolic import (
    Constant,
    Environment,
    Expression,
    Parameter,
    simplify,
)

__all__ = ["SymbolicEvaluator", "attribute_environment", "attribute_symbol"]

_ONE = Constant(1.0)
_ZERO = Constant(0.0)


def attribute_symbol(service_name: str, attribute: str) -> str:
    """The parameter name used for an interface attribute left symbolic."""
    return f"{service_name}::{attribute}"


def attribute_environment(assembly: Assembly) -> Environment:
    """An environment binding every ``service::attribute`` symbol of the
    assembly to its published numeric value — pairs with
    ``SymbolicEvaluator(symbolic_attributes=True)`` to evaluate or
    differentiate fully symbolic formulas at the published design point."""
    bindings: dict[str, float] = {}
    for service in assembly.services:
        for attr, value in service.interface.attributes.items():
            bindings[attribute_symbol(service.name, attr)] = value
    return Environment(bindings)


class SymbolicEvaluator:
    """Closed-form implementation of ``Pfail_Alg`` over one assembly.

    Args:
        assembly: the (acyclic) service assembly.
        symbolic_attributes: leave interface attributes as free symbols
            named ``service::attribute`` instead of substituting their
            numeric values.
        validate: run structural validation up front.
        budget: optional :class:`~repro.runtime.EvaluationBudget`; the
            derivation load-sheds on the deadline and recursion-depth
            limits with :class:`~repro.errors.BudgetExceededError`.
    """

    def __init__(
        self,
        assembly: Assembly,
        symbolic_attributes: bool = False,
        validate: bool = True,
        budget: EvaluationBudget | None = None,
    ):
        self.assembly = assembly
        self.symbolic_attributes = symbolic_attributes
        self.budget = budget
        #: Per-service derivations actually performed (memo hits are free);
        #: the engine-layer plan cache asserts warm reuse re-derives nothing.
        self.derivation_count = 0
        if validate:
            validate_assembly(assembly).raise_if_invalid()
        self._cache: dict[str, Expression] = {}
        self._kernels: dict[str, "CompiledKernel"] = {}
        self._stack: list[str] = []

    # -- public API ----------------------------------------------------------

    def pfail_expression(self, service: str | Service) -> Expression:
        """``Pfail(S, fp)`` as an expression over S's formal parameters
        (plus ``service::attribute`` symbols when ``symbolic_attributes``)."""
        svc = service if isinstance(service, Service) else self.assembly.service(service)
        return self._pfail(svc)

    def pfail_kernel(self, service: str | Service) -> "CompiledKernel":
        """The compiled numpy kernel of ``Pfail(S, fp)`` — derived and
        compiled on first request, memoized alongside the closed form (and
        shared process-wide through the default kernel cache)."""
        from repro.symbolic.compiler import compile_expression

        name = service.name if isinstance(service, Service) else str(service)
        kernel = self._kernels.get(name)
        if kernel is None:
            kernel = compile_expression(self.pfail_expression(name))
            self._kernels[name] = kernel
        return kernel

    def reliability_expression(self, service: str | Service) -> Expression:
        """``1 - Pfail(S, fp)`` as an expression."""
        return simplify(_ONE - self.pfail_expression(service))

    # -- recursion ----------------------------------------------------------

    def _pfail(self, service: Service) -> Expression:
        if self.budget is not None:
            self.budget.check_deadline("symbolic derivation")
            self.budget.check_depth(
                len(self._stack) + 1, "symbolic-derivation recursion"
            )
        if service.name in self._cache:
            return self._cache[service.name]
        if service.name in self._stack:
            start = self._stack.index(service.name)
            raise CyclicAssemblyError(tuple(self._stack[start:]) + (service.name,))
        self.derivation_count += 1
        self._stack.append(service.name)
        try:
            if isinstance(service, SimpleService):
                expr = self._attribute_substitute(
                    service, service.failure_probability
                )
            elif isinstance(service, CompositeService):
                expr = self._pfail_composite(service)
            else:
                raise ModelError(f"cannot evaluate service type {type(service)!r}")
        finally:
            self._stack.pop()
        expr = simplify(expr)
        self._cache[service.name] = expr
        return expr

    def _attribute_substitute(self, service: Service, expr: Expression) -> Expression:
        mapping: dict[str, Expression] = {}
        for attr, value in service.interface.attributes.items():
            if self.symbolic_attributes:
                mapping[attr] = Parameter(attribute_symbol(service.name, attr))
            else:
                mapping[attr] = Constant(value)
        return expr.substitute(mapping) if mapping else expr

    def _pfail_composite(self, service: CompositeService) -> Expression:
        failures: dict[str, Expression] = {}
        for state in service.flow.states:
            failures[state.name] = self._state_failure(service, state)
        survival = _solve_success_probability(service.flow, failures, service, self)
        return simplify(_ONE - survival)

    def _state_failure(self, service: CompositeService, state: FlowState) -> Expression:
        if not state.requests:
            return _ZERO
        internal: list[Expression] = []
        external: list[Expression] = []
        masking: list[Expression] = []
        for request in state.requests:
            resolved = self.assembly.resolve_request(service.name, request)
            p_int = self._attribute_substitute(service, request.internal_failure)

            callee = self._pfail(resolved.provider)
            callee_actuals = {
                name: self._attribute_substitute(service, request.actuals[name])
                for name in resolved.provider.formal_parameters
            }
            p_service = callee.substitute(callee_actuals)

            if resolved.connector is None:
                p_connector: Expression = _ZERO
            else:
                conn = self._pfail(resolved.connector)
                conn_actuals = {
                    name: self._attribute_substitute(
                        service, resolved.connector_actuals[name]
                    )
                    for name in resolved.connector.formal_parameters
                }
                p_connector = conn.substitute(conn_actuals)

            internal.append(simplify(p_int))
            external.append(
                simplify(_ONE - (_ONE - p_service) * (_ONE - p_connector))
            )
            masking.append(
                simplify(self._attribute_substitute(service, request.masking))
            )
        return simplify(
            _symbolic_state_failure(
                state.completion.required_successes(len(internal)),
                state.effective_groups(), internal, external, masking,
            )
        )


def _symbolic_state_failure(
    k: int,
    groups: tuple[tuple[int, ...], ...],
    internal: list[Expression],
    external: list[Expression],
    masking: list[Expression],
) -> Expression:
    """``p(i, Fail)`` of a state whose ``k`` of ``n`` requests must succeed
    under the dependency partition ``groups`` — eqs. (4)-(13) as an
    expression, mirroring the numeric
    :func:`~repro.core.state_failure.completion_class_failure`: condition
    on each multi-request group's external status, one Poisson-binomial
    tail per status combination.

    Without masking the paper's closed forms are taken directly: eq. (6)
    == eq. (11) for AND under any partition, eq. (7) for OR without
    sharing, eq. (12) for OR with one shared group."""
    n = len(internal)
    if all(isinstance(m, Constant) and m.value == 0.0 for m in masking):
        if k == n:  # eq. (6) == eq. (11)
            survive = _ONE
            for pi, pe in zip(internal, external):
                survive = survive * (_ONE - pi) * (_ONE - pe)
            return _ONE - survive
        if k == 1 and len(groups) == n:  # eq. (7)
            out = _ONE
            for pi, pe in zip(internal, external):
                out = out * (_ONE - (_ONE - pi) * (_ONE - pe))
            return out
        if k == 1 and len(groups) == 1:  # eq. (12)
            no_ext = _ONE
            all_int = _ONE
            for pi, pe in zip(internal, external):
                no_ext = no_ext * (_ONE - pe)
                all_int = all_int * pi
            return _ONE - no_ext * (_ONE - all_int)

    # a request outside any shared group: full eq. (8) failure, masked
    independent = [
        simplify(_ONE - (_ONE - m) * (_ONE - (_ONE - pi) * (_ONE - pe)))
        for pi, pe, m in zip(internal, external, masking)
    ]
    # in a group whose shared service survived, only internal failures remain
    internal_only = [
        simplify(_ONE - (_ONE - m) * pi) for pi, m in zip(internal, masking)
    ]
    multi = [g for g in groups if len(g) >= 2]
    total: Expression = _ZERO
    for statuses in product((False, True), repeat=len(multi)):
        weight: Expression = _ONE
        successes = list(independent)
        for group, group_failed in zip(multi, statuses):
            no_ext: Expression = _ONE
            for j in group:
                no_ext = no_ext * (_ONE - external[j])
            no_ext = simplify(no_ext)
            weight = weight * ((_ONE - no_ext) if group_failed else no_ext)
            # the shared service is gone: fulfilled only if masked
            source = masking if group_failed else internal_only
            for j in group:
                successes[j] = source[j]
        total = total + simplify(weight) * _poisson_binomial_below_expr(
            successes, k
        )
    return simplify(total)


def _poisson_binomial_below_expr(successes: list[Expression], required: int) -> Expression:
    """Symbolic ``P(#successes < required)`` via the same DP as the
    numeric engine."""
    dist: list[Expression] = [_ONE] + [_ZERO] * (required - 1)
    for p in successes:
        new: list[Expression] = []
        for j in range(len(dist)):
            stay = dist[j] * (_ONE - p)
            step = dist[j - 1] * p if j > 0 else _ZERO
            new.append(simplify(stay + step))
        dist = new
    total: Expression = _ZERO
    for term in dist:
        total = total + term
    return simplify(total)


def _solve_success_probability(
    flow: ServiceFlow,
    failures: dict[str, Expression],
    service: CompositeService,
    evaluator: SymbolicEvaluator,
) -> Expression:
    """``p*(Start, End)`` symbolically.

    Unknowns ``x_i`` (probability of eventually reaching End from internal
    state ``i``) satisfy

        ``x_i = (1 - f_i) * ( sum_k p(i, k) x_k + p(i, End) )``

    and ``x_Start = sum_k p(Start, k) x_k + p(Start, End)`` (no failure in
    Start).  Acyclic flows are solved by back-substitution in reverse
    topological order; flows with loops fall back to symbolic Gaussian
    elimination (producing the rational functions one expects from loops).
    """
    internal = [s.name for s in flow.states]
    index = {name: i for i, name in enumerate(internal)}

    def substituted(expr: Expression) -> Expression:
        return evaluator._attribute_substitute(service, expr)

    def check_constant_distribution(source: str) -> None:
        """Reject corrupt constant transition rows at derivation time.

        Parametric rows cannot be checked until actuals arrive, but a row
        whose probabilities are all constants (the common case, and the
        shape model corruption takes) must already form a distribution —
        otherwise the closed form would be a plausible-looking wrong
        number rather than a typed error.
        """
        probs = [substituted(t.probability) for t in flow.outgoing(source)]
        if not probs or not all(isinstance(p, Constant) for p in probs):
            return
        values = [p.value for p in probs]
        total = sum(values)
        if any(v < -1e-9 for v in values) or abs(total - 1.0) > 1e-6:
            raise InvalidFlowError(
                f"transition probabilities out of {source!r} do not form "
                f"a distribution: {values} (sum {total!r})"
            )

    # adjacency among internal states
    edges: dict[str, list[tuple[str, Expression]]] = {name: [] for name in internal}
    to_end: dict[str, Expression] = {name: _ZERO for name in internal}
    for name in [START, *internal]:
        check_constant_distribution(name)
    for name in internal:
        for t in flow.outgoing(name):
            prob = substituted(t.probability)
            if t.target == END:
                to_end[name] = simplify(to_end[name] + prob)
            else:
                edges[name].append((t.target, prob))

    order = _topological(internal, edges)
    if order is not None:
        x: dict[str, Expression] = {}
        for name in reversed(order):
            inner = to_end[name]
            for target, prob in edges[name]:
                inner = inner + prob * x[target]
            x[name] = simplify((_ONE - failures[name]) * inner)
    else:
        x = _gaussian_solve(
            internal, index, edges, to_end, failures, budget=evaluator.budget
        )

    start_value: Expression = _ZERO
    for t in flow.outgoing(START):
        prob = substituted(t.probability)
        if t.target == END:
            start_value = start_value + prob
        else:
            start_value = start_value + prob * x[t.target]
    return simplify(start_value)


def _topological(
    nodes: list[str], edges: dict[str, list[tuple[str, Expression]]]
) -> list[str] | None:
    """Topological order of internal states, or None when cyclic."""
    indegree = {n: 0 for n in nodes}
    for source in nodes:
        for target, _ in edges[source]:
            indegree[target] += 1
    queue = [n for n in nodes if indegree[n] == 0]
    order: list[str] = []
    while queue:
        node = queue.pop()
        order.append(node)
        for target, _ in edges[node]:
            indegree[target] -= 1
            if indegree[target] == 0:
                queue.append(target)
    if len(order) != len(nodes):
        return None
    return order


def _gaussian_solve(
    nodes: list[str],
    index: dict[str, int],
    edges: dict[str, list[tuple[str, Expression]]],
    to_end: dict[str, Expression],
    failures: dict[str, Expression],
    budget: EvaluationBudget | None = None,
) -> dict[str, Expression]:
    """Symbolic Gaussian elimination for cyclic flows.

    Solves ``(I - C) x = b`` where ``C[i][k] = (1 - f_i) p(i, k)`` and
    ``b[i] = (1 - f_i) p(i, End)``.  Pivots are symbolic; a pivot that
    simplifies to the constant zero means the flow wiring makes End
    unreachable from some state, which flow validation already excludes —
    it is reported defensively anyway.
    """
    n = len(nodes)
    matrix: list[list[Expression]] = [
        [_ONE if i == j else _ZERO for j in range(n)] for i in range(n)
    ]
    rhs: list[Expression] = [_ZERO] * n
    for name in nodes:
        i = index[name]
        survive = simplify(_ONE - failures[name])
        rhs[i] = simplify(survive * to_end[name])
        for target, prob in edges[name]:
            j = index[target]
            matrix[i][j] = simplify(matrix[i][j] - survive * prob)

    for col in range(n):
        if budget is not None:
            budget.check_deadline("symbolic Gaussian elimination")
        # pick a pivot row whose diagonal is not literally zero
        pivot_row = None
        for row in range(col, n):
            candidate = simplify(matrix[row][col])
            if not (isinstance(candidate, Constant) and candidate.value == 0.0):
                pivot_row = row
                break
        if pivot_row is None:
            raise EvaluationError(
                "singular symbolic system: End unreachable from some state"
            )
        matrix[col], matrix[pivot_row] = matrix[pivot_row], matrix[col]
        rhs[col], rhs[pivot_row] = rhs[pivot_row], rhs[col]
        pivot = matrix[col][col]
        for row in range(n):
            if row == col:
                continue
            factor = simplify(matrix[row][col] / pivot)
            if isinstance(factor, Constant) and factor.value == 0.0:
                continue
            for k in range(col, n):
                matrix[row][k] = simplify(matrix[row][k] - factor * matrix[col][k])
            rhs[row] = simplify(rhs[row] - factor * rhs[col])

    return {
        name: simplify(rhs[index[name]] / matrix[index[name]][index[name]])
        for name in nodes
    }
