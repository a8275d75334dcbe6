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

import time
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


def _collect_chunks(chunk_results: list) -> np.ndarray:
    """Concatenate ordered chunk outputs, rehydrating worker failures."""
    from repro.engine.parallel import (
        WorkerFailure,
        rebuild_error,
        unpack_worker_payload,
    )

    out: list[float] = []
    for result in chunk_results:
        result = unpack_worker_payload(result)
        if isinstance(result, WorkerFailure):
            raise rebuild_error(result)
        out.extend(result)
    return np.asarray(out, dtype=float)


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
    assembly, service, parameter, grid, fixed, jobs, budget, solver="auto",
    incremental=False,
) -> np.ndarray:
    from repro.engine.fingerprint import canonical_json
    from repro.engine.parallel import (
        make_executor,
        numeric_sweep_chunk,
        observe_token,
        remaining_deadline,
        split_evenly,
    )

    from concurrent.futures.process import BrokenProcessPool

    from repro.engine.parallel import broken_pool_error

    executor = make_executor(jobs, "process")
    assembly_json = canonical_json(assembly)
    chunks = split_evenly(list(grid), jobs)
    with executor:
        futures = [
            executor.submit(
                numeric_sweep_chunk,
                {
                    "assembly_json": assembly_json,
                    "service": service,
                    "parameter": parameter,
                    "values": chunk,
                    "fixed": dict(fixed),
                    "deadline": remaining_deadline(budget),
                    "solver": solver,
                    "incremental": incremental,
                    "observe": observe_token(),
                    "dispatched_at": time.time(),
                },
            )
            for chunk in chunks
        ]
        collected: list = []
        try:
            for future in futures:
                collected.append(future.result())
        except BrokenProcessPool as exc:
            # grid indices whose chunk results were not collected yet
            start = sum(len(chunk) for chunk in chunks[:len(collected)])
            raise broken_pool_error(
                "numeric sweep evaluation", range(start, len(grid)), exc
            ) from exc
        return _collect_chunks(collected)


def _parallel_numeric_shm(
    assembly, service, parameter, grid, fixed, jobs, budget, solver="auto",
    incremental=False,
) -> np.ndarray:
    """Numeric grid fan-out over the zero-pickle shared-memory transport.

    Workers read the model document out of a shared segment (parsed once
    per worker process, cached by content digest) and write result rows
    in place; only typed failures travel back through the futures.  The
    parent owns every segment and reclaims them even when the pool
    breaks; rows still unset after a crash identify the affected grid
    indices exactly.
    """
    from concurrent.futures.process import BrokenProcessPool

    from repro.engine import shm
    from repro.engine.fingerprint import canonical_json
    from repro.engine.parallel import (
        broken_pool_error,
        make_executor,
        observe_token,
        rebuild_error,
        remaining_deadline,
        split_evenly,
        unpack_worker_payload,
    )

    executor = make_executor(jobs, "process")
    n = int(grid.size)
    workspace = shm.ShmWorkspace.create(
        canonical_json(assembly).encode("utf-8"),
        {
            "values": ((n,), "float64"),
            "results": ((n,), "float64"),
            "status": ((n,), "uint8"),
        },
    )
    try:
        workspace.array("values")[:] = grid
        shm._charge(rows=n)
        config = {
            "service": service,
            "parameter": parameter,
            "fixed": dict(fixed),
            "solver": solver,
            "incremental": incremental,
        }
        spec = workspace.spec()
        with executor:
            futures = [
                executor.submit(
                    shm.shm_numeric_sweep_rows,
                    {
                        "spec": spec,
                        "config": config,
                        "start": rows[0],
                        "stop": rows[-1] + 1,
                        "deadline": remaining_deadline(budget),
                        "observe": observe_token(),
                        "dispatched_at": time.time(),
                    },
                )
                for rows in split_evenly(list(range(n)), jobs)
            ]
            try:
                for future in futures:
                    failures = unpack_worker_payload(future.result())
                    if failures:
                        raise rebuild_error(next(iter(failures.values())))
            except BrokenProcessPool as exc:
                status = workspace.array("status")
                affected = [i for i in range(n) if status[i] == shm.ROW_UNSET]
                raise broken_pool_error(
                    "numeric sweep evaluation", affected, exc
                ) from exc
        return workspace.array("results").copy()
    finally:
        workspace.close()


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
    solver: str = "auto",
    incremental: bool = False,
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
            grid across ``N`` worker processes (over the zero-pickle
            shared-memory transport, :mod:`repro.engine.shm`, where the
            platform has it).  The symbolic method always runs the whole
            grid through one stacked kernel execution in-process.
        cache: optional :class:`~repro.engine.PlanCache`; the closed-form
            derivation is fetched from / stored into it, so repeated
            sweeps of the same model re-derive nothing.
        budget: optional :class:`~repro.runtime.EvaluationBudget` enforced
            during derivation and cooperatively by every worker.
        solver: linear-solver backend for the numeric method's absorbing
            solves (``"auto"``, ``"dense"`` or ``"sparse"``; the symbolic
            method never solves numerically and ignores it).
        incremental: serve consecutive numeric points through low-rank
            (Sherman-Morrison-Woodbury) updates of the cached base
            factorization instead of re-factoring per point
            (:mod:`repro.markov.updates`); numeric method only.
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
                from repro.engine import shm as _shm

                if _shm.available():
                    pfail = _parallel_numeric_shm(
                        assembly, service, parameter, grid, fixed, jobs,
                        budget, solver=solver, incremental=incremental,
                    )
                else:
                    pfail = _parallel_numeric(
                        assembly, service, parameter, grid, fixed, jobs,
                        budget, solver=solver, incremental=incremental,
                    )
            else:
                evaluator = ReliabilityEvaluator(
                    assembly, check_domains=False, budget=budget,
                    solver=solver, incremental=incremental,
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
