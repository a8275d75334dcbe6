"""Per-state failure probabilities: equations (4)–(13) of the paper.

A flow state ``i`` holds requests ``A_i1 .. A_in``.  Each request ``A_ij``
has an *internal* failure probability ``Pfail_int(A_ij)`` and an *external*
one, combining the called service and its connector (eq. 8 / eq. 13):

    ``Pfail_ext(A_ij) = 1 - (1 - Pfail(S_j, ap_j)) * (1 - Pfail(C_j, [S_j, ap_j]))``

The probability ``p(i, Fail)`` that the state fails then depends on the
**completion model** (AND: eq. 4, OR: eq. 5, k-of-n as the paper's named
extension) and on the **dependency model**:

- *no sharing* — requests are independent; eqs. (6) and (7);
- *sharing* — all requests use the same external service through the same
  connector, so (under fail-stop/no-repair) one external failure kills every
  request in the state; eqs. (9)–(12).

One formulation covers every case: a state's ``p(i, Fail)`` is a function
of the required successes ``k`` (AND ``k = n``, OR ``k = 1``, any
``k``-of-n) and the dependency partition (``FlowState.effective_groups()``:
all singletons, one all-request group, or explicit groups).  Conditioning
on each multi-request group's external status leaves independent
Bernoulli trials, so each status combination is one Poisson-binomial
tail.  :func:`completion_class_failure` computes it as array operations
over a ``(rows, n)`` matrix of states of one completion class, and
:func:`state_failure_probability` is its one-state form.  The symbolic
derivation (:mod:`repro.core.symbolic_evaluator`) and the Monte Carlo
simulator read the same ``(k, groups)``; the symbolic one takes the
paper's closed forms as fast paths when no request masks its failures.

The paper's closed forms (:func:`and_no_sharing`, :func:`or_no_sharing`,
:func:`and_sharing`, :func:`or_sharing`) are kept verbatim so tests can
verify the engine reproduces each equation exactly, including the paper's
headline identity *AND+sharing == AND+no-sharing* and inequality
*OR+sharing >= OR+no-sharing*.

All functions accept scalars or numpy arrays (broadcasting elementwise),
which lets closed-form sweeps run vectorized; probabilities are checked by
:func:`repro.runtime.guards.check_probability`.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import product

import numpy as np

from repro.errors import ModelError
from repro.model.completion import CompletionModel
from repro.runtime.guards import check_probability

__all__ = [
    "request_failure_probability",
    "external_failure_probability",
    "poisson_binomial_below",
    "state_failure_probability",
    "grouped_state_failure_probability",
    "completion_class_failure",
    "and_no_sharing",
    "or_no_sharing",
    "and_sharing",
    "or_sharing",
]


def _requests(what: str, values: Sequence) -> np.ndarray:
    """Per-request values (scalars or broadcastable arrays) as one checked
    ``(..., n)`` array, the request index last."""
    if not len(values):
        return np.zeros(0)
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))
    return check_probability(what, np.stack(arrays, axis=-1))


def _columns(what: str, values: Sequence):
    """The checked per-request values, one ``(...)`` slice per request."""
    return np.moveaxis(_requests(what, values), -1, 0)


def external_failure_probability(p_service, p_connector):
    """Equation (13): ``Pfail_ext = 1 - (1 - Pfail(S)) * (1 - Pfail(C))``.

    The request suffers an external failure unless *both* the requested
    service and the transporting connector succeed.
    """
    ps = check_probability("service failure probability", p_service)
    pc = check_probability("connector failure probability", p_connector)
    return 1.0 - (1.0 - ps) * (1.0 - pc)


def request_failure_probability(p_internal, p_external):
    """Equation (8): ``Pr{fail(A_ij)} = 1 - (1 - Pfail_int) * (1 - Pfail_ext)``.

    A request succeeds only if neither an internal nor an external failure
    occurs.
    """
    pi = check_probability("internal failure probability", p_internal)
    pe = check_probability("external failure probability", p_external)
    return 1.0 - (1.0 - pi) * (1.0 - pe)


def _below(successes: np.ndarray, k: int):
    """``P(#successes < k)`` over the last axis of checked ``(..., n)``
    success probabilities, ``1 <= k <= n + 1``.

    Dynamic program over the distribution of the success count; ``O(n*k)``
    and numerically stable (all quantities are convex combinations of
    probabilities).  ``dist[..., j] = P(exactly j successes so far)``; only
    ``j < k`` matters, the ``>= k`` bucket is never tracked.
    """
    n = successes.shape[-1]
    dist = np.zeros(successes.shape[:-1] + (min(k, n + 1),))
    dist[..., 0] = 1.0
    for j in range(n):
        p = successes[..., j, None]
        new = dist * (1.0 - p)
        new[..., 1:] += dist[..., :-1] * p
        dist = new
    return check_probability("Poisson-binomial tail", sum(np.moveaxis(dist, -1, 0)))


def poisson_binomial_below(success_probabilities: Sequence, k: int):
    """``P(#successes < k)`` for independent Bernoulli trials.

    Accepts array-valued per-trial probabilities, which broadcast
    elementwise; the range check runs once over all of them.
    """
    n = len(success_probabilities)
    if k < 0 or k > n + 1:
        raise ModelError(f"required successes k={k} out of range for n={n}")
    if k == 0:
        return 0.0
    if n == 0:
        return 1.0  # k >= 1 successes required but no trials exist
    return _below(_requests("success probability", success_probabilities), k)


def completion_class_failure(
    k: int,
    groups: Sequence[Sequence[int]],
    internal: np.ndarray,
    external: np.ndarray,
    masking: np.ndarray,
):
    """``p(i, Fail)`` for every state of one completion class — eqs. (4)–(13)
    as array operations over the request axis.

    ``internal``, ``external`` and ``masking`` are range-checked
    ``(..., n)`` float arrays (they broadcast); each row is one state of
    ``n`` requests, ``k`` of which must succeed, partitioned into the
    dependency ``groups`` (see :func:`grouped_state_failure_probability`).
    Conditioning on the external-failure status of each multi-request group
    leaves independent Bernoulli trials, so each status combination is one
    Poisson-binomial tail.  Singleton groups give eqs. (6)/(7); one
    all-request group gives eqs. (9)–(12).
    """
    multi = [g for g in groups if len(g) >= 2]
    # a request outside any shared group: full eq. (8) failure, masked
    independent = 1.0 - (1.0 - masking) * (1.0 - (1.0 - internal) * (1.0 - external))
    # in a group whose shared service survived, only internal failures remain
    internal_only = 1.0 - (1.0 - masking) * internal
    total = 0.0
    for statuses in product((False, True), repeat=len(multi)):
        weight = 1.0
        successes = independent.copy()
        for group, group_failed in zip(multi, statuses):
            no_ext = 1.0
            for j in group:
                no_ext = no_ext * (1.0 - external[..., j])
            weight = weight * ((1.0 - no_ext) if group_failed else no_ext)
            # the shared service is gone: fulfilled only if masked
            source = masking if group_failed else internal_only
            successes[..., group] = source[..., group]
        total = total + weight * _below(successes, k)
    return check_probability("state failure probability", total)


def state_failure_probability(
    completion: CompletionModel,
    shared: bool,
    internal: Sequence,
    external: Sequence,
    masking: Sequence | None = None,
    groups: Sequence[Sequence[int]] | None = None,
):
    """``p(i, Fail)`` for one flow state.

    Args:
        completion: the state's completion model (AND / OR / k-of-n).
        shared: the state's dependency model (True = sharing).
        internal: per-request internal failure probabilities
            ``Pfail_int(A_ij)``.
        external: per-request external failure probabilities
            ``Pfail_ext(A_ij)`` (already combined with the connector via
            eq. 13).
        masking: optional per-request error-masking probabilities ``m_j``
            (the error-propagation extension; ``None`` or all-zero is the
            paper's fail-stop semantics).  A failed request still counts
            as fulfilled with probability ``m_j``.
        groups: optional explicit dependency partition (the extended
            sharing model); when given it overrides ``shared`` and the
            computation delegates to
            :func:`grouped_state_failure_probability`.

    With **no sharing**, request ``j`` succeeds independently with
    probability ``1 - (1 - m_j) * Pr{fail(A_ij)}`` (complement of eq. 8,
    attenuated by masking) and the state fails iff fewer than ``k``
    requests succeed — which reduces to eq. (6) for AND and eq. (7) for
    OR at ``m = 0``.

    With **sharing**, the paper conditions on the external-failure event
    (eqs. 9/10): if *any* request suffers an external failure the shared
    service is lost and every request fails — unless masked, i.e. request
    ``j`` is still fulfilled with probability ``m_j``; conditional on no
    external failure anywhere, requests fail independently through their
    internal failures only (again attenuated by masking).  This reduces to
    eq. (11) for AND and eq. (12) for OR at ``m = 0``.

    Both are partitions for :func:`completion_class_failure`: all
    singletons, or one group of every request.
    """
    if groups is None:
        n = len(internal)
        groups = [range(n)] if shared else [(j,) for j in range(n)]
    return grouped_state_failure_probability(
        completion, groups, internal, external, masking
    )


def grouped_state_failure_probability(
    completion: CompletionModel,
    groups: Sequence[Sequence[int]],
    internal: Sequence,
    external: Sequence,
    masking: Sequence | None = None,
):
    """``p(i, Fail)`` under the **extended dependency model**: a partition
    of the requests into independent shared-service groups.

    The paper's section 6 asks for the dependency model "to deal with more
    complex dependencies"; this is the natural generalization of
    eqs. (9)–(12): requests inside one multi-request group share an
    external service (one external failure in the group, under no-repair,
    defeats the whole group — masking aside), while *distinct groups fail
    independently*.  Singleton groups reduce to the no-sharing model; a
    single all-request group reduces to the paper's sharing model — both
    identities are property-tested.  There are ``2^G`` status combinations
    for ``G`` multi-request groups; ``G`` is small in any sane architecture.
    """
    n = len(internal)
    if len(external) != n:
        raise ModelError(
            f"internal ({n}) and external ({len(external)}) probability "
            f"lists differ in length"
        )
    if n == 0:
        return 0.0  # a state with no requests cannot fail
    if masking is None:
        masking = np.zeros(n)
    if len(masking) != n:
        raise ModelError(
            f"masking list ({len(masking)}) does not match request count ({n})"
        )
    normalized = [tuple(int(i) for i in g) for g in groups]
    flattened = sorted(i for g in normalized for i in g)
    if flattened != list(range(n)):
        raise ModelError(
            f"groups {normalized} must partition the request indices 0..{n - 1}"
        )
    k = completion.required_successes(n)
    return completion_class_failure(
        k, normalized,
        _requests("internal failure probability", internal),
        _requests("external failure probability", external),
        _requests("masking probability", masking),
    )


# ---------------------------------------------------------------------------
# The paper's closed forms, kept verbatim for verification
# ---------------------------------------------------------------------------


def and_no_sharing(internal: Sequence, external: Sequence):
    """Equations (6)+(8): ``1 - prod_j (1 - Pr{fail(A_ij)})``."""
    out = 1.0
    for pi, pe in zip(internal, external):
        out = out * (1.0 - request_failure_probability(pi, pe))
    return 1.0 - out


def or_no_sharing(internal: Sequence, external: Sequence):
    """Equations (7)+(8): ``prod_j Pr{fail(A_ij)}``."""
    out = 1.0
    for pi, pe in zip(internal, external):
        out = out * request_failure_probability(pi, pe)
    return out


def and_sharing(internal: Sequence, external: Sequence):
    """Equation (11): ``1 - prod_j (1-Pint_j) * prod_j (1-Pext_j)``.

    Algebraically identical to :func:`and_no_sharing` — the paper's
    observation that AND completion is insensitive to sharing under
    fail-stop/no-repair.
    """
    no_int = 1.0
    no_ext = 1.0
    for pi, pe in zip(_columns("internal", internal), _columns("external", external)):
        no_int = no_int * (1.0 - pi)
        no_ext = no_ext * (1.0 - pe)
    return 1.0 - no_int * no_ext


def or_sharing(internal: Sequence, external: Sequence):
    """Equation (12): ``1 - prod_j (1-Pext_j) * (1 - prod_j Pint_j)``.

    Differs from :func:`or_no_sharing`: with a shared service, the OR
    redundancy only protects against *internal* failures — one external
    failure defeats all replicas at once.
    """
    no_ext = 1.0
    all_int = 1.0
    for pi, pe in zip(_columns("internal", internal), _columns("external", external)):
        no_ext = no_ext * (1.0 - pe)
        all_int = all_int * pi
    return 1.0 - no_ext * (1.0 - all_int)
