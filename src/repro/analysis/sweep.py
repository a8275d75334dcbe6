"""Parameter sweeps of predicted reliability.

The Figure 6 experiment is a sweep: ``Pfail(search, ...)`` as a function of
the ``list`` formal parameter, for a grid of attribute settings.  This
module runs such sweeps through either evaluation back-end:

- ``method="symbolic"`` derives the closed form once and evaluates it
  vectorized over the whole value array (fast; the default);
- ``method="numeric"`` runs the recursive evaluator per point (slower;
  useful as a cross-check and for assemblies whose flows the symbolic
  back-end would blow up on).

Both back-ends agree to ~1e-12 — asserted by the integration tests.

Sweeps plug into the engine layer two ways:

- ``cache=`` reuses the closed-form derivation across sweeps of the same
  model through a :class:`~repro.engine.PlanCache` (a Figure-6 style grid
  of 8 sweeps over 2 assemblies derives each closed form once, not 8
  times);
- the symbolic back-end always runs the whole grid through one stacked
  kernel execution in-process; ``jobs=`` fans the numeric back-end's
  per-point recursive evaluation across a process pool.  Chunking is
  contiguous, so the parallel result is element-for-element identical to
  the sequential one (asserted to 1e-12 by the integration tests).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import observability as obs
from repro.core.evaluator import ReliabilityEvaluator
from repro.errors import EvaluationError
from repro.model.assembly import Assembly
from repro.runtime.budget import EvaluationBudget

__all__ = ["SweepResult", "sweep_parameter", "sweep_attribute"]


@dataclass(frozen=True)
class SweepResult:
    """One reliability-vs-parameter series.

    Attributes:
        assembly: name of the swept assembly.
        service: evaluated service.
        parameter: swept formal parameter.
        values: the parameter values (ascending numpy array).
        pfail: ``Pfail`` at each value.
        fixed: the non-swept actuals used.
    """

    assembly: str
    service: str
    parameter: str
    values: np.ndarray
    pfail: np.ndarray
    fixed: Mapping[str, float] = field(default_factory=dict)

    @property
    def reliability(self) -> np.ndarray:
        """``1 - Pfail`` at each value."""
        return 1.0 - self.pfail

    def at(self, value: float) -> float:
        """``Pfail`` at one swept value (must be a grid point)."""
        index = np.where(np.isclose(self.values, value))[0]
        if index.size == 0:
            raise EvaluationError(f"{value!r} is not a swept grid point")
        return float(self.pfail[index[0]])

    def rows(self) -> list[tuple[float, float, float]]:
        """``(value, pfail, reliability)`` rows for tabular output."""
        return [
            (float(v), float(p), float(1.0 - p))
            for v, p in zip(self.values, self.pfail)
        ]


def _validated_grid(values: Sequence[float] | np.ndarray) -> np.ndarray:
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise EvaluationError("sweep values must be a non-empty 1-D sequence")
    return grid


def _fused_symbolic(plan, parameter, grid, fixed, budget) -> np.ndarray:
    """One vectorized kernel pass over the whole grid, in-process.

    For the numpy-vectorized symbolic backend this beats any pool
    fan-out: one straight-line tape execution over the full grid has no
    per-chunk dispatch, no futures, no chunk re-concatenation.
    """
    from repro.engine.parallel import charge_fused

    pfail = plan.pfail_grid(parameter, grid, fixed, budget=budget)
    charge_fused(groups=1, entries=int(grid.size))
    return pfail


def _parallel_numeric(
    assembly, service, parameter, grid, fixed, jobs, budget
) -> np.ndarray:
    from repro.engine.fingerprint import canonical_json
    from repro.engine.parallel import fan_out, numeric_sweep_chunk, split_evenly

    assembly_json = canonical_json(assembly)
    chunks = split_evenly(list(range(grid.size)), jobs)
    payloads = [
        {
            "assembly_json": assembly_json,
            "service": service,
            "parameter": parameter,
            "values": [grid[i] for i in chunk],
            "fixed": dict(fixed),
        }
        for chunk in chunks
    ]
    results = fan_out(
        "numeric sweep evaluation", numeric_sweep_chunk, payloads, chunks,
        jobs=jobs, budget=budget,
    )
    return np.asarray([v for chunk in results for v in chunk], dtype=float)


def sweep_parameter(
    assembly: Assembly,
    service: str,
    parameter: str,
    values: Sequence[float] | np.ndarray,
    fixed: Mapping[str, float] | None = None,
    method: str = "symbolic",
    jobs: int = 1,
    cache=None,
    budget: EvaluationBudget | None = None,
) -> SweepResult:
    """Sweep one formal parameter of ``service`` across ``values``.

    Args:
        assembly: the assembly under analysis.
        service: name of the composite (or simple) service to evaluate.
        parameter: the formal parameter to sweep.
        values: the grid of values.
        fixed: values for the remaining formal parameters.
        method: ``"symbolic"`` (vectorized closed form) or ``"numeric"``
            (per-point recursive evaluation).
        jobs: worker count for the numeric method — 1 (default)
            evaluates in process, 0 uses every core, ``N > 1`` fans the
            grid across ``N`` worker processes in contiguous chunks (a
            worker killed hard raises
            :class:`~repro.errors.WorkerCrashedError` naming the lost grid
            indices).  The symbolic method always runs the whole grid
            through one stacked kernel execution in-process.
        cache: optional :class:`~repro.engine.PlanCache`; the closed-form
            derivation is fetched from / stored into it, so repeated
            sweeps of the same model re-derive nothing.
        budget: optional :class:`~repro.runtime.EvaluationBudget` enforced
            during derivation and cooperatively by every worker.
    """
    from repro.engine.parallel import resolve_jobs

    svc = assembly.service(service)
    fixed = dict(fixed or {})
    if parameter not in svc.formal_parameters:
        raise EvaluationError(
            f"{parameter!r} is not a formal parameter of {service!r} "
            f"(has {svc.formal_parameters})"
        )
    grid = _validated_grid(values)
    jobs = resolve_jobs(jobs)

    with obs.span(
        "sweep.run", service=service, parameter=parameter, method=method,
        points=int(grid.size), jobs=jobs,
    ):
        if method == "symbolic":
            from repro.engine.plan import compile_plan

            if cache is not None:
                plan = cache.get_or_compile(assembly, service,
                                            backend="symbolic", budget=budget)
            else:
                plan = compile_plan(assembly, service, backend="symbolic",
                                    budget=budget)
            pfail = _fused_symbolic(plan, parameter, grid, fixed, budget)
        elif method == "numeric":
            if jobs > 1:
                pfail = _parallel_numeric(
                    assembly, service, parameter, grid, fixed, jobs, budget
                )
            else:
                evaluator = ReliabilityEvaluator(
                    assembly, check_domains=False, budget=budget
                )
                pfail = np.array(
                    [
                        evaluator.pfail(service, **{**fixed, parameter: float(v)})
                        for v in grid
                    ]
                )
        else:
            raise EvaluationError(f"unknown sweep method {method!r}")

    return SweepResult(assembly.name, service, parameter, grid, pfail, fixed)


def sweep_attribute(
    assembly: Assembly,
    service: str,
    attribute: str,
    values: Sequence[float] | np.ndarray,
    actuals: Mapping[str, float],
    cache=None,
    budget: EvaluationBudget | None = None,
) -> SweepResult:
    """Sweep one published **interface attribute** (e.g.
    ``"net12::failure_rate"``) at fixed actual parameters.

    This is the other axis of Figure 6: the paper varies ``gamma`` and
    ``phi1``, which are attributes of the net12 and sort1 services, not
    formal parameters of the search service.  Implemented through the
    symbolic back-end with ``symbolic_attributes=True``: the closed form is
    derived once with the attribute left free, all other attributes bound
    to their published values, and the grid evaluated in one stacked
    kernel execution.

    Args:
        assembly: the assembly under analysis.
        service: the service whose ``Pfail`` is evaluated.
        attribute: ``"<service>::<attribute>"`` symbol (see
            :func:`repro.core.attribute_symbol`).
        values: the attribute grid.
        actuals: the service's actual parameters, all fixed.
        cache: optional :class:`~repro.engine.PlanCache` for the
            attribute-symbolic closed form.
        budget: optional budget enforced during derivation and evaluation.
    """
    from repro.core.symbolic_evaluator import attribute_environment
    from repro.engine.plan import compile_plan

    grid = _validated_grid(values)
    if cache is not None:
        plan = cache.get_or_compile(
            assembly, service, symbolic_attributes=True, backend="symbolic",
            budget=budget,
        )
    else:
        plan = compile_plan(
            assembly, service, symbolic_attributes=True, backend="symbolic",
            budget=budget,
        )
    base = dict(attribute_environment(assembly))
    if attribute not in base:
        raise EvaluationError(
            f"{attribute!r} is not a published attribute of any service in "
            f"{assembly.name!r} (expected '<service>::<attribute>')"
        )
    fixed = {**base, **{k: float(v) for k, v in dict(actuals).items()}}
    fixed.pop(attribute)
    pfail = _fused_symbolic(plan, attribute, grid, fixed, budget)
    return SweepResult(
        assembly.name, service, attribute, grid, pfail, dict(actuals)
    )
