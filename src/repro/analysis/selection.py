"""Reliability-driven service selection — the SOC loop of section 1.

"The prediction of such characteristics is important to drive the selection
of the services to be assembled."  This module closes that loop: given a
set of discovered candidates for a slot (from a
:class:`~repro.model.registry.ServiceRegistry` query or any other source)
and a caller-supplied *assembly builder* that wires one candidate into a
complete architecture, it predicts the reliability of every resulting
assembly and ranks the candidates.

The builder-callback design keeps selection honest: picking the remote sort
service means also adding the RPC connector and network it needs — the
whole point of Figure 6 is that the candidate's own published reliability
is *not* the ranking criterion; the assembled reliability is.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass

from repro.core.evaluator import ReliabilityEvaluator
from repro.errors import EvaluationError, ReproError
from repro.model.assembly import Assembly

__all__ = ["CandidateEvaluation", "select_assembly"]


@dataclass(frozen=True)
class CandidateEvaluation:
    """One candidate's predicted outcome.

    Attributes:
        candidate: the candidate's identifying label.
        assembly: the full assembly built around it (``None`` on error).
        pfail: the predicted unreliability of the target service
            (``None`` when evaluation failed).
        error: the failure message when the candidate could not be
            evaluated (malformed assembly, cyclic wiring, ...).
    """

    candidate: str
    assembly: Assembly | None
    pfail: float | None
    error: str | None = None

    @property
    def reliability(self) -> float | None:
        """``1 - pfail``, or ``None`` when evaluation failed."""
        return None if self.pfail is None else 1.0 - self.pfail

    @property
    def ok(self) -> bool:
        """True when the candidate was evaluated successfully."""
        return self.pfail is not None


def select_assembly(
    candidates: Iterable[object],
    build: Callable[[object], Assembly],
    service: str,
    actuals: Mapping[str, float],
    label: Callable[[object], str] = str,
) -> list[CandidateEvaluation]:
    """Evaluate every candidate and rank by predicted reliability.

    Args:
        candidates: the discovered alternatives (any objects).
        build: maps a candidate to a complete :class:`Assembly`.
        service: the offered service whose reliability is the criterion.
        actuals: the representative actual parameters to predict at (the
            expected usage profile point).
        label: how to name candidates in the results.

    Returns:
        Evaluations sorted best-first (successful ones ranked by ascending
        ``pfail``, failed ones last).  Candidates whose assembly fails to
        build or evaluate are *kept* — with the error message — because in
        an automated SOC broker a silently dropped candidate is a bug
        magnet.
    """
    results: list[CandidateEvaluation] = []
    for candidate in candidates:
        name = label(candidate)
        try:
            assembly = build(candidate)
            pfail = ReliabilityEvaluator(assembly).pfail(service, **dict(actuals))
        except ReproError as exc:
            results.append(CandidateEvaluation(name, None, None, error=str(exc)))
            continue
        results.append(CandidateEvaluation(name, assembly, pfail))
    if not results:
        raise EvaluationError("no candidates supplied to select_assembly")
    results.sort(key=lambda r: (not r.ok, r.pfail if r.ok else 0.0))
    return results
