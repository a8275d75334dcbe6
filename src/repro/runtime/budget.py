"""Evaluation budgets: bounded work for every evaluation path.

The paper's methodology is meant to run *unattended* — inside discovery,
selection and redeployment loops (section 5) — which means a pathological
model must never hang or exhaust the host.  :class:`EvaluationBudget`
expresses the resource envelope of one prediction request:

- ``deadline``       — wall-clock seconds from the start of the request;
- ``max_states``     — largest absorbing DTMC the engine may solve;
- ``max_depth``      — deepest service-composition recursion allowed;
- ``max_sweeps``     — sweep cap of the least-fixed-point solve of a
  recursive assembly (Newton with Kleene fallback; the first pass and the
  Jacobian probes count as sweeps);
- ``max_trials``     — Monte Carlo trial cap for simulation estimates.

Every evaluator accepts an optional budget and *load-sheds* by raising
:class:`~repro.errors.BudgetExceededError` the moment a limit trips —
a typed, catchable signal rather than an unbounded stall.  A budget is
shared state: handing the same instance to the tiers of a
:class:`~repro.runtime.robust.RobustEvaluator` makes the deadline and the
consumption counters span the whole degradation chain.

The clock starts lazily on first use (or explicitly via :meth:`start`), so
a budget built up front does not burn its deadline while the model loads.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro import observability as obs
from repro.errors import BudgetExceededError

__all__ = ["EvaluationBudget"]


@dataclass
class EvaluationBudget:
    """A resource envelope for one evaluation request.

    All limits are optional; ``None`` means unlimited.  Instances are
    mutable consumption trackers — share one instance across evaluators to
    enforce a joint envelope, or call :meth:`reset` to reuse it for a new
    request.

    Args:
        deadline: wall-clock seconds allowed from :meth:`start` (lazy on
            first check).  ``0`` means "already expired" — useful to probe
            load-shedding paths.
        max_states: largest transient-state count the absorbing-chain
            solver may factor.
        max_depth: maximum recursive composition depth (service stack).
        max_sweeps: maximum fixed-point sweeps.
        max_trials: maximum Monte Carlo trials.
    """

    deadline: float | None = None
    max_states: int | None = None
    max_depth: int | None = None
    max_sweeps: int | None = None
    max_trials: int | None = None

    _started: float | None = field(default=None, repr=False, compare=False)
    _trials_used: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("deadline", "max_states", "max_depth", "max_sweeps",
                     "max_trials"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")

    #: The limit names a request document may set (see :meth:`from_dict`).
    LIMIT_NAMES = ("deadline", "max_states", "max_depth", "max_sweeps",
                   "max_trials")

    @classmethod
    def from_dict(cls, data: "Mapping[str, float] | None") -> "EvaluationBudget | None":
        """A budget from a plain mapping (the server's JSON ``budget`` field).

        ``None`` or an empty mapping mean "no limits requested" and return
        ``None`` — the caller's unlimited default.  Unknown keys raise
        :class:`ValueError` (callers at trust boundaries should validate
        the shape first and surface a typed request error instead).
        """
        if not data:
            return None
        unknown = sorted(set(data) - set(cls.LIMIT_NAMES))
        if unknown:
            raise ValueError(
                f"unknown budget limit(s) {unknown!r}; "
                f"expected a subset of {list(cls.LIMIT_NAMES)!r}"
            )
        limits = {name: data[name] for name in cls.LIMIT_NAMES if name in data}
        for name in ("max_states", "max_depth", "max_sweeps", "max_trials"):
            if name in limits:
                limits[name] = int(limits[name])
        if "deadline" in limits:
            limits["deadline"] = float(limits["deadline"])
        return cls(**limits)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "EvaluationBudget":
        """Start the deadline clock if not already running (idempotent)."""
        if self._started is None:
            self._started = time.monotonic()
        return self

    def reset(self) -> "EvaluationBudget":
        """Clear the clock and all consumption counters for reuse."""
        self._started = None
        self._trials_used = 0
        return self

    # -- introspection -----------------------------------------------------

    def elapsed(self) -> float:
        """Seconds since the clock started (0.0 if it has not)."""
        if self._started is None:
            return 0.0
        return time.monotonic() - self._started

    def remaining_time(self) -> float:
        """Seconds left before the deadline (``inf`` when unlimited)."""
        if self.deadline is None:
            return float("inf")
        self.start()
        return self.deadline - self.elapsed()

    def expired(self) -> bool:
        """True when the deadline has passed."""
        return self.remaining_time() <= 0.0

    def sub_deadline(self, cap: float | None = None) -> float | None:
        """The deadline for one sub-task, given an optional per-task cap.

        The campaign layer (:mod:`repro.workunits`) hands every work unit
        its own wall-clock timeout; a unit must also never outlive the
        campaign's overall budget.  Returns the smaller of ``cap`` and the
        remaining budget time (floored at 0.0), or ``None`` when both are
        unlimited.
        """
        remaining = self.remaining_time()
        if remaining == float("inf"):
            return cap
        remaining = max(remaining, 0.0)
        return remaining if cap is None else min(cap, remaining)

    @property
    def trials_used(self) -> int:
        """Monte Carlo trials charged so far."""
        return self._trials_used

    # -- enforcement -------------------------------------------------------

    def check_deadline(self, what: str = "") -> None:
        """Raise :class:`BudgetExceededError` when past the deadline."""
        if self.deadline is None:
            return
        self.start()
        elapsed = self.elapsed()
        obs.gauge("budget.deadline_consumed", elapsed / self.deadline
                  if self.deadline else 1.0)
        if elapsed >= self.deadline:
            obs.count("budget.exhausted.deadline")
            raise BudgetExceededError("deadline", self.deadline, elapsed, what)

    def check_states(self, count: int, what: str = "") -> None:
        """Gate an absorbing-chain solve on ``count`` transient states."""
        if self.max_states is not None and count > self.max_states:
            obs.count("budget.exhausted.states")
            raise BudgetExceededError("states", self.max_states, count, what)

    def check_depth(self, depth: int, what: str = "") -> None:
        """Gate recursive descent at composition depth ``depth``."""
        if self.max_depth is not None and depth > self.max_depth:
            obs.count("budget.exhausted.depth")
            raise BudgetExceededError("depth", self.max_depth, depth, what)

    def check_sweeps(self, sweep: int, what: str = "") -> None:
        """Gate fixed-point sweep number ``sweep`` (1-based)."""
        if self.max_sweeps is not None and sweep > self.max_sweeps:
            obs.count("budget.exhausted.sweeps")
            raise BudgetExceededError("sweeps", self.max_sweeps, sweep, what)

    def charge_trials(self, count: int, what: str = "") -> None:
        """Charge ``count`` Monte Carlo trials against the cumulative cap."""
        if self.max_trials is not None and (
            self._trials_used + count > self.max_trials
        ):
            obs.count("budget.exhausted.trials")
            raise BudgetExceededError(
                "trials", self.max_trials, self._trials_used + count, what
            )
        self._trials_used += count
        obs.gauge("budget.trials_used", self._trials_used)

    def effective_trials(self, requested: int) -> int:
        """The trial count to run given a caller request (no raise; the
        caller decides whether shedding trials is acceptable)."""
        if self.max_trials is None:
            return requested
        return min(requested, max(self.max_trials - self._trials_used, 0))
