"""Monte Carlo fault-injection simulation of a service assembly.

The paper is purely analytical; this simulator is the reproduction's
independent cross-check.  It executes the *operational* semantics that the
analytic model abstracts — walking each composite service's flow, sampling
transitions, recursively invoking providers and connectors per request, and
injecting failures — under exactly the paper's assumptions:

- **fail-stop, no repair**: any failure aborts the whole invocation;
- **internal failures** are independent Bernoulli draws per request;
- **external failures** follow from recursively simulated provider and
  connector invocations (a request's external invocation fails if *either*
  fails — the operational form of eq. 13);
- **completion models**: a state succeeds when at least ``k`` of its
  requests succeed (AND: all, OR: one);
- **sharing**: if any request in a shared state suffers an external
  failure, the shared service is dead and *every* request in the state
  fails (the conditioning step of eqs. 9/10); otherwise requests fail only
  through their internal draws.

Because every probability in the model is a deterministic function of the
top-level actual parameters, the simulator first *compiles* the invocation
into a plan tree (all expressions evaluated once), then samples the plan —
so per-trial cost is pure random drawing.

Agreement between the estimated and analytic ``Pfail`` (within Monte Carlo
error) is asserted by ``tests/integration/test_monte_carlo_validation.py``
for every scenario in the repository.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import EvaluationError, ModelError
from repro.model.assembly import Assembly
from repro.model.flow import END, START
from repro.model.service import CompositeService, Service, SimpleService
from repro.model.validation import validate_assembly
from repro.runtime.budget import EvaluationBudget
from repro.runtime.guards import check_probability

__all__ = ["SimulationResult", "MonteCarloSimulator"]

#: Recursion-depth cap: the simulator supports the acyclic assemblies the
#: recursive evaluator supports; runaway recursion indicates a cycle.
_MAX_DEPTH = 512

#: Deadline checks are amortized over batches of this many trials.
_DEADLINE_STRIDE = 256

#: Per-trial step cap: healthy flows absorb within a handful of steps, so
#: a walk this long means the flow traps probability mass in a cycle.
_MAX_WALK_STEPS = 100_000


class SimulationResult:
    """Outcome of a Monte Carlo unreliability estimation.

    Attributes:
        trials: number of simulated invocations.
        failures: number that ended in failure.
    """

    def __init__(self, trials: int, failures: int):
        if trials <= 0:
            raise ModelError("a simulation needs at least one trial")
        if not 0 <= failures <= trials:
            raise ModelError(f"failures {failures} out of range for {trials} trials")
        self.trials = trials
        self.failures = failures

    @property
    def pfail(self) -> float:
        """Point estimate of the unreliability."""
        return self.failures / self.trials

    @property
    def reliability(self) -> float:
        """Point estimate of the reliability."""
        return 1.0 - self.pfail

    @property
    def standard_error(self) -> float:
        """Binomial standard error of the ``pfail`` estimate."""
        p = self.pfail
        return math.sqrt(p * (1.0 - p) / self.trials)

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Wilson score interval for ``pfail`` (robust near 0 and 1)."""
        n, p = self.trials, self.pfail
        denominator = 1.0 + z * z / n
        center = (p + z * z / (2 * n)) / denominator
        half = (z / denominator) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
        return (max(0.0, center - half), min(1.0, center + half))

    def consistent_with(self, analytic_pfail: float, z: float = 4.0) -> bool:
        """True when the analytic value lies within ``z`` standard errors
        (or within the z-Wilson interval when the estimate touches 0/1)."""
        if self.failures in (0, self.trials):
            low, high = self.confidence_interval(z)
            return low <= analytic_pfail <= high
        return abs(analytic_pfail - self.pfail) <= z * self.standard_error

    def __repr__(self) -> str:
        return (
            f"SimulationResult(trials={self.trials}, failures={self.failures}, "
            f"pfail={self.pfail:.6e} +/- {self.standard_error:.2e})"
        )


# ---------------------------------------------------------------------------
# compiled invocation plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SimplePlan:
    """A simple-service invocation: one Bernoulli draw."""

    pfail: float


@dataclass(frozen=True)
class _RequestPlan:
    """One request of a state: internal draw + recursive sub-invocations,
    plus the error-masking probability of the extension (0 = fail-stop)."""

    p_internal: float
    provider: "_SimplePlan | _CompositePlan"
    connector: "_SimplePlan | _CompositePlan | None"
    masking: float = 0.0


@dataclass(frozen=True)
class _StatePlan:
    """One internal state: its requests under a completion model and the
    normalized dependency partition (singletons = independent; a
    multi-request group = one shared external service)."""

    name: str
    required_successes: int
    groups: tuple[tuple[int, ...], ...]
    requests: tuple[_RequestPlan, ...]


@dataclass(frozen=True)
class _CompositePlan:
    """A composite-service invocation: states plus concrete transitions."""

    service: str
    states: dict[str, _StatePlan]
    # state name -> (target names, cumulative probabilities)
    transitions: dict[str, tuple[tuple[str, ...], np.ndarray]]


class MonteCarloSimulator:
    """Fault-injection simulator over one (acyclic) assembly.

    Args:
        assembly: the assembly to simulate.
        seed: seed for the numpy PCG64 generator (reproducible runs).
        validate: run structural validation up front.
        budget: optional :class:`~repro.runtime.EvaluationBudget`; trials
            are charged against the cumulative trial cap and the deadline
            is checked every few hundred trials, raising
            :class:`~repro.errors.BudgetExceededError`.
    """

    def __init__(
        self,
        assembly: Assembly,
        seed: int | None = None,
        validate: bool = True,
        budget: EvaluationBudget | None = None,
    ):
        self.assembly = assembly
        self.budget = budget
        if validate:
            validate_assembly(assembly).raise_if_invalid()
        # Kept for parallel estimation: worker blocks derive their streams
        # from SeedSequence(seed).spawn(), so runs stay reproducible per
        # (seed, jobs) pair.
        self._seed = seed
        self.rng = np.random.default_rng(seed)

    # -- public API ----------------------------------------------------------

    def simulate_once(self, service: str | Service, **actuals: float) -> bool:
        """Simulate one invocation; returns True on success."""
        if self.budget is not None:
            self.budget.check_deadline("simulation")
            self.budget.charge_trials(1, "simulation")
        plan = self.compile(service, **actuals)
        return self._run(plan)

    def estimate_pfail(
        self,
        service: str | Service,
        trials: int,
        *,
        jobs: int = 1,
        **actuals: float,
    ) -> SimulationResult:
        """Estimate ``Pfail(service, actuals)`` over ``trials`` invocations.

        With ``jobs > 1`` the trials are split into near-equal blocks and
        run on a process pool, each block with an independent child stream
        spawned from this simulator's seed (``SeedSequence.spawn``), so an
        estimate is reproducible for a given ``(seed, jobs)`` pair.  The
        trials are charged once here, in the caller; each worker runs
        under :meth:`~repro.runtime.EvaluationBudget.for_worker` of this
        simulator's budget, which carries every limit but the trial cap.
        """
        from repro.engine.parallel import resolve_jobs

        if self.budget is not None:
            self.budget.check_deadline("Monte Carlo estimation")
            self.budget.charge_trials(trials, "Monte Carlo estimation")
        jobs = resolve_jobs(jobs)
        if jobs > 1 and trials > 1:
            return self._estimate_parallel(service, trials, jobs, actuals)
        plan = self.compile(service, **actuals)
        failures = 0
        for trial in range(trials):
            if (
                self.budget is not None
                and trial % _DEADLINE_STRIDE == 0
                and trial
            ):
                self.budget.check_deadline("Monte Carlo estimation")
            if not self._run(plan):
                failures += 1
        return SimulationResult(trials, failures)

    def _estimate_parallel(
        self, service: str | Service, trials: int, jobs: int, actuals: dict
    ) -> SimulationResult:
        from repro.engine.fingerprint import canonical_json
        from repro.engine.parallel import fan_out, simulate_block

        name = service.name if isinstance(service, Service) else str(service)
        blocks = min(jobs, trials)
        base, extra = divmod(trials, blocks)
        sizes = [base + (1 if i < extra else 0) for i in range(blocks)]
        seeds = np.random.SeedSequence(self._seed).spawn(blocks)
        assembly_json = canonical_json(self.assembly)
        payloads = [
            {
                "assembly_json": assembly_json,
                "service": name,
                "actuals": dict(actuals),
                "trials": size,
                "seed": seed,
            }
            for size, seed in zip(sizes, seeds)
        ]
        outcomes = fan_out(
            "Monte Carlo trial blocks", simulate_block, payloads,
            [[block] for block in range(blocks)],
            jobs=jobs, budget=self.budget,
        )
        return SimulationResult(
            sum(trials for trials, _ in outcomes),
            sum(failures for _, failures in outcomes),
        )

    def compile(self, service: str | Service, **actuals: float):
        """Compile the invocation of ``service`` with ``actuals`` into a
        plan tree (all model expressions evaluated once)."""
        svc = service if isinstance(service, Service) else self.assembly.service(service)
        svc.check_actual_names(actuals)
        memo: dict[tuple, _SimplePlan | _CompositePlan] = {}
        return self._compile(svc, tuple(sorted(
            (k, float(v)) for k, v in actuals.items()
        )), memo, depth=0)

    # -- compilation -----------------------------------------------------------

    def _compile(self, service: Service, actuals: tuple, memo: dict, depth: int):
        if depth > _MAX_DEPTH:
            raise EvaluationError(
                "simulation recursion too deep; the simulator supports "
                "acyclic assemblies only (ReliabilityEvaluator solves "
                "recursive ones as a least fixed point)"
            )
        if self.budget is not None:
            self.budget.check_depth(depth + 1, "simulation plan compilation")
        key = (service.name, actuals)
        if key in memo:
            return memo[key]
        env = service.evaluation_environment(dict(actuals), check=False)

        if isinstance(service, SimpleService):
            # A NaN or out-of-range draw threshold would silently bias
            # every trial; reject it here with a typed error instead.
            plan = _SimplePlan(check_probability(
                f"Pfail({service.name})",
                float(service.failure_probability.evaluate(env)),
            ))
            memo[key] = plan
            return plan
        if not isinstance(service, CompositeService):
            raise ModelError(f"cannot simulate service type {type(service)!r}")

        states: dict[str, _StatePlan] = {}
        for state in service.flow.states:
            request_plans = []
            for request in state.requests:
                resolved = self.assembly.resolve_request(service.name, request)
                p_int = check_probability(
                    "internal failure probability",
                    float(request.internal_failure.evaluate(env)),
                )
                callee_actuals = tuple(sorted(
                    (name, float(request.actuals[name].evaluate(env)))
                    for name in resolved.provider.formal_parameters
                ))
                provider_plan = self._compile(
                    resolved.provider, callee_actuals, memo, depth + 1
                )
                connector_plan = None
                if resolved.connector is not None:
                    connector_actuals = tuple(sorted(
                        (name, float(resolved.connector_actuals[name].evaluate(env)))
                        for name in resolved.connector.formal_parameters
                    ))
                    connector_plan = self._compile(
                        resolved.connector, connector_actuals, memo, depth + 1
                    )
                request_plans.append(
                    _RequestPlan(
                        p_int, provider_plan, connector_plan,
                        masking=check_probability(
                            "masking probability",
                            float(request.masking.evaluate(env)),
                        ),
                    )
                )
            states[state.name] = _StatePlan(
                state.name,
                state.completion.required_successes(len(state.requests))
                if state.requests else 0,
                state.effective_groups(),
                tuple(request_plans),
            )

        transitions: dict[str, tuple[tuple[str, ...], np.ndarray]] = {}
        for source in [START, *(s.name for s in service.flow.states)]:
            outgoing = service.flow.outgoing(source)
            targets = tuple(t.target for t in outgoing)
            probabilities = np.array(
                [float(t.probability.evaluate(env)) for t in outgoing]
            )
            if np.any(probabilities < -1e-12) or not math.isclose(
                probabilities.sum(), 1.0, abs_tol=1e-9
            ):
                raise EvaluationError(
                    f"transition probabilities out of {source!r} in "
                    f"{service.name!r} do not form a distribution: {probabilities}"
                )
            cumulative = np.cumsum(np.clip(probabilities, 0.0, 1.0))
            cumulative[-1] = 1.0
            transitions[source] = (targets, cumulative)

        plan = _CompositePlan(service.name, states, transitions)
        memo[key] = plan
        return plan

    # -- sampling -----------------------------------------------------------

    def _run(self, plan) -> bool:
        if isinstance(plan, _SimplePlan):
            return bool(self.rng.random() >= plan.pfail)
        current = self._next(plan, START)
        steps = 0
        while current != END:
            # A flow can pass structural validation (End reachable from
            # Start) and still hold a never-failing cycle that traps the
            # walk; bound every trial so a corrupt model cannot hang us.
            steps += 1
            if steps % _DEADLINE_STRIDE == 0 and self.budget is not None:
                self.budget.check_deadline("simulation walk")
            if steps > _MAX_WALK_STEPS:
                raise EvaluationError(
                    f"simulation walk through {plan.service!r} exceeded "
                    f"{_MAX_WALK_STEPS} steps without absorbing; the flow "
                    f"likely traps probability mass in a cycle"
                )
            if not self._execute_state(plan.states[current]):
                return False
            current = self._next(plan, current)
        return True

    def _next(self, plan: _CompositePlan, current: str) -> str:
        targets, cumulative = plan.transitions[current]
        if len(targets) == 1:
            return targets[0]
        draw = self.rng.random()
        index = int(np.searchsorted(cumulative, draw, side="right"))
        return targets[min(index, len(targets) - 1)]

    def _execute_state(self, state: _StatePlan) -> bool:
        if not state.requests:
            return True

        external_ok = []
        internal_ok = []
        for request in state.requests:
            internal_ok.append(self.rng.random() >= request.p_internal)
            ok = self._run(request.provider)
            if request.connector is not None:
                ok = self._run(request.connector) and ok
            external_ok.append(ok)

        def masked(request: _RequestPlan) -> bool:
            """A failed request still counts as fulfilled when masked
            (the error-propagation extension; masking = 0 never fires)."""
            return request.masking > 0.0 and self.rng.random() < request.masking

        # one external failure inside a multi-request group destroys that
        # group's shared service (no repair) and with it every member
        # request — masking aside; distinct groups are independent
        dead: set[int] = set()
        for group in state.groups:
            if len(group) >= 2 and any(not external_ok[j] for j in group):
                dead.update(group)

        successes = 0
        for j, request in enumerate(state.requests):
            if j in dead:
                fulfilled = masked(request)
            else:
                fulfilled = (internal_ok[j] and external_ok[j]) or masked(request)
            if fulfilled:
                successes += 1
        return successes >= state.required_successes
