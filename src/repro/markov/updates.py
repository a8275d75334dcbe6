"""Counters of the retired low-rank (Sherman-Morrison-Woodbury) solve tier.

Every absorbing solve now takes the one :func:`repro.markov.solvers.
factorize_chain` path, so these counters never move.  The module stays
only because the benchmark harness still reads :func:`update_counts`.
"""

from __future__ import annotations

__all__ = ["update_counts"]


def update_counts() -> dict[str, int]:
    """Always zero: no solve is served by a low-rank update any more."""
    return {"applied": 0, "fallback_rank": 0, "fallback_condition": 0}
