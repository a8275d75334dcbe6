"""Process-level fault injection: make workers crash, hang or lie on cue.

:mod:`repro.robustness.mutator` corrupts the *model*; this module corrupts
the *execution substrate*.  A :class:`ChaosPolicy` is a deterministic
schedule of worker-level faults keyed by ``(work-unit index, attempt
number)``:

- ``crash``   — the worker SIGKILLs itself before touching the unit (the
  OOM-killer / hard-crash scenario; the pool breaks and the supervisor
  must recover);
- ``hang``    — the worker sleeps far past any sane deadline (the stuck
  solve; the supervisor must enforce the per-unit timeout and kill it);
- ``corrupt`` — the worker completes but replaces its result with a
  garbage payload (the lying-worker scenario; the supervisor's payload
  validation must reject it and retry).

Schedules are plain data (picklable, serializable) so they travel inside
work-unit payloads to pool workers.  The CLI exposes them as
``--chaos SPEC`` on campaign commands; the chaos-smoke CI job uses exactly
this hook to prove a campaign survives one forced crash and one forced
hang on every push.

Spec grammar (comma-separated)::

    crash@2            unit 2, first attempt only (retry then succeeds)
    hang@5             unit 5, first attempt only
    corrupt@0x3        unit 0, attempts 1..3
    crash@7x*          unit 7, every attempt (a poison unit: must
                       end up quarantined, never loop forever)
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

from repro.errors import EvaluationError

__all__ = ["ChaosPolicy", "CRASH", "HANG", "CORRUPT"]

CRASH = "crash"
HANG = "hang"
CORRUPT = "corrupt"

_ACTIONS = (CRASH, HANG, CORRUPT)

#: The payload a corrupting worker returns — wrong shape on purpose, so
#: supervisor-side validation must catch it (a list where a dict belongs).
GARBAGE_PAYLOAD = ["\x00garbage", -1]


@dataclass(frozen=True)
class ChaosPolicy:
    """A deterministic schedule of injected worker faults.

    Attributes:
        schedule: ``(unit_index, action, last_attempt)`` triples —
            the fault fires for attempts ``1..last_attempt`` of that unit
            (``None`` = every attempt, the poison-unit case).
        hang_seconds: how long a hanging worker sleeps (far beyond any
            per-unit timeout; the supervisor is expected to kill it).
    """

    schedule: tuple[tuple[int, str, int | None], ...]
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        for index, action, last_attempt in self.schedule:
            if action not in _ACTIONS:
                raise EvaluationError(
                    f"unknown chaos action {action!r} "
                    f"(expected one of {', '.join(_ACTIONS)})"
                )
            if index < 0:
                raise EvaluationError(
                    f"chaos unit index must be >= 0, got {index}"
                )
            if last_attempt is not None and last_attempt < 1:
                raise EvaluationError(
                    f"chaos attempt bound must be >= 1, got {last_attempt}"
                )

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, spec: str, hang_seconds: float = 3600.0) -> "ChaosPolicy":
        """Parse a ``--chaos`` spec like ``"crash@1,hang@3,corrupt@0x*"``.

        Each entry is ``ACTION@INDEX`` (first attempt only),
        ``ACTION@INDEXxN`` (attempts 1..N) or ``ACTION@INDEXx*`` (every
        attempt).  Raises :class:`~repro.errors.EvaluationError` on
        malformed specs — a typo must not silently disable the injection.
        """
        schedule: list[tuple[int, str, int | None]] = []
        for raw in spec.split(","):
            entry = raw.strip()
            if not entry:
                continue
            action, sep, target = entry.partition("@")
            if not sep or not target:
                raise EvaluationError(
                    f"chaos entry {entry!r} is not ACTION@INDEX[xN|x*]"
                )
            index_text, sep, attempts_text = target.partition("x")
            last_attempt: int | None = 1
            if sep:
                if attempts_text == "*":
                    last_attempt = None
                else:
                    try:
                        last_attempt = int(attempts_text)
                    except ValueError:
                        raise EvaluationError(
                            f"chaos entry {entry!r}: bad attempt bound "
                            f"{attempts_text!r}"
                        ) from None
            try:
                index = int(index_text)
            except ValueError:
                raise EvaluationError(
                    f"chaos entry {entry!r}: bad unit index {index_text!r}"
                ) from None
            schedule.append((index, action.strip(), last_attempt))
        if not schedule:
            raise EvaluationError(f"empty chaos spec {spec!r}")
        return cls(tuple(schedule), hang_seconds=hang_seconds)

    # -- queries -----------------------------------------------------------

    def action_for(self, unit_index: int, attempt: int) -> str | None:
        """The fault to inject for this ``(unit, attempt)``, or ``None``."""
        for index, action, last_attempt in self.schedule:
            if index == unit_index and (
                last_attempt is None or attempt <= last_attempt
            ):
                return action
        return None

    def describe(self) -> str:
        """One-line human rendering (mirrors the spec grammar)."""
        parts = []
        for index, action, last_attempt in self.schedule:
            suffix = ""
            if last_attempt is None:
                suffix = "x*"
            elif last_attempt != 1:
                suffix = f"x{last_attempt}"
            parts.append(f"{action}@{index}{suffix}")
        return ",".join(parts)

    # -- worker-side application ------------------------------------------

    def apply_before(self, unit_index: int, attempt: int) -> None:
        """Fire crash/hang faults; called by the worker before execution.

        ``crash`` SIGKILLs the *current process* — exactly the signal an
        OOM kill delivers, with no chance to flush or report back.
        """
        action = self.action_for(unit_index, attempt)
        if action == CRASH:
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover
        elif action == HANG:
            time.sleep(self.hang_seconds)

    def corrupt_outcome(self, unit_index: int, attempt: int, outcome: dict) -> dict:
        """Replace a completed result with garbage when scheduled to."""
        if self.action_for(unit_index, attempt) == CORRUPT:
            return {
                "status": "done",
                "payload": list(GARBAGE_PAYLOAD),
                "elapsed": outcome.get("elapsed", 0.0),
            }
        return outcome
