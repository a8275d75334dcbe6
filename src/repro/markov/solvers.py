"""Pluggable linear-solver backends for Markov-chain analysis.

Every composite-service evaluation, sweep point and batch entry ends in the
absorbing solve ``(I - Q) x = r`` (eqs. 6-8), on flows where a state calls
a handful of services and ``nnz(Q) << n^2``.  :func:`factorize_chain` is
the one factorization entry point for it: it takes the chain's CSR triple
``(indptr, indices, data)`` and a structural :class:`ChainSolvePlan`, and
factors ``I - Q`` through one backend:

- **dense** — ``Q`` is scattered into ``I - Q``; the first right-hand side
  is one ``numpy.linalg.solve``, a second one forms the LU factors once
  with scipy (``scipy.linalg.lu_factor``) and reuses them.
- **sparse** — ``I - Q`` is assembled as a scipy CSR matrix from the same
  triple and factored once with ``scipy.sparse.linalg.splu``.
- **sparse triangular fast path** — when the transient graph (minus
  self-loops) is a DAG, a topological permutation makes ``I - Q``
  triangular: each solve is one ``O(nnz)`` substitution and **nothing is
  numerically factored**.
- ``auto`` picks per system: dense below :data:`SPARSE_THRESHOLD` states or
  above :data:`SPARSE_DENSITY` fill or without scipy, sparse (triangular
  when possible) otherwise.  It is the only choice the layers above the
  core make; the ``"dense"``/``"sparse"`` overrides stay on the core entry
  points for the goldens and the parity suites.

The solve is guarded by the *exact* 1-norm condition number of
``A = I - Q`` at the price of one transposed solve
(:meth:`Factorization.m_matrix_condition`): ``A`` is an M-matrix, so its
inverse's largest column sum is the largest entry of ``A^{-T} 1``.  scipy is
imported on first need (a sparse backend, a dense system's second
right-hand side), never at import and never below the sparse threshold for
a one-shot solve.

**Structural plan cache.**  The value-independent part of a solve — the
transient/absorbing partition, where ``Q`` and ``R`` sit in the triple, the
topological permutation, the backend choice — is a :class:`ChainSolvePlan`
cached on the shared :class:`repro.caching.LRUCache` under a fingerprint of
order, CSR pattern and absorbing mask.  A sweep that varies only rates hits
the cache on every point.  Hit/miss counters (:func:`solver_cache_stats`)
and the ``solver.plans`` / ``solver.factorizations`` registry counters
(read by :func:`plan_count` / :func:`factorization_count`; zeroed by
``observability.reset()``) make that reuse assertable.
"""

from __future__ import annotations

import hashlib
import importlib.util
import threading
import warnings

import numpy as np

from repro import observability as obs
from repro.caching import CacheStats, LRUCache
from repro.errors import EvaluationError

#: Whether scipy is installed; found without importing it.
_HAVE_SCIPY = importlib.util.find_spec("scipy") is not None
_scipy_package = None

__all__ = [
    "SOLVERS",
    "SPARSE_DENSITY",
    "SPARSE_THRESHOLD",
    "ChainSolvePlan",
    "Factorization",
    "SingularSystemError",
    "chain_fingerprint",
    "chain_plan",
    "default_solver_cache",
    "factorization_count",
    "factorize",
    "factorize_chain",
    "plan_count",
    "scipy_available",
    "solver_cache_stats",
    "validate_solver",
]

#: The recognized solver-backend requests.
SOLVERS = ("auto", "dense", "sparse")

#: Systems below this order stay dense under ``auto`` — LAPACK on a tiny
#: dense block beats any sparse setup cost.
SPARSE_THRESHOLD = 256

#: Fill ratio (``nnz / n^2``) above which ``auto`` stays dense even for
#: large systems; past it the CSR indirection stops paying for itself.
SPARSE_DENSITY = 0.25


class SingularSystemError(Exception):
    """The system factored exactly singular.

    Deliberately *not* a :class:`~repro.errors.ReproError`: what a singular
    system *means* depends on the caller (a trapped transient state for the
    absorbing solve, a reducible chain for the stationary one), so callers
    catch this and raise their own typed error.
    """


def scipy_available() -> bool:
    """True when the sparse backend can be used in this environment."""
    return _HAVE_SCIPY


def _scipy():
    """The ``scipy`` package with ``linalg``, ``sparse`` and
    ``sparse.linalg`` loaded, imported on first call; ``None`` without
    scipy.  A failing import degrades to the numpy-only paths for good."""
    global _HAVE_SCIPY, _scipy_package
    if _scipy_package is None and _HAVE_SCIPY:
        try:
            import scipy.linalg
            import scipy.sparse
            import scipy.sparse.linalg
        except ImportError:  # pragma: no cover - a broken installation
            _HAVE_SCIPY = False
        else:
            _scipy_package = scipy
    return _scipy_package if _HAVE_SCIPY else None


def validate_solver(solver: str) -> str:
    """Normalize and validate a solver request (typed error otherwise)."""
    name = str(solver).lower()
    if name not in SOLVERS:
        raise EvaluationError(
            f"unknown solver backend {solver!r} (expected one of {SOLVERS})"
        )
    if name == "sparse" and _scipy() is None:
        raise EvaluationError(
            "solver 'sparse' requires scipy, which is not installed; "
            "use 'auto' (falls back to dense) or 'dense'"
        )
    return name


# ---------------------------------------------------------------------------
# counters (registry reads; ``obs.count`` bumps them at the call sites)
# ---------------------------------------------------------------------------


def plan_count() -> int:
    """Structural solve plans actually built (cache hits never build)."""
    return obs.registry().counter_value("solver.plans")


def factorization_count() -> int:
    """Numeric LU factorizations performed in this process.

    The triangular fast path never increments it — a permuted triangular
    system is solved by substitution alone — which is exactly what the
    "sweeps skip re-factorization" benchmark asserts.
    """
    return obs.registry().counter_value("solver.factorizations")


# ---------------------------------------------------------------------------
# factorizations
# ---------------------------------------------------------------------------


class Factorization:
    """A reusable factorization of one square system ``A``.

    Subclasses implement :meth:`solve`, :meth:`solve_transpose`,
    :meth:`matvec` and :meth:`norm1`; :meth:`m_matrix_condition` is built
    from the last two.

    Attributes:
        n: the system order.
        method: ``"dense"``, ``"sparse-lu"`` or ``"sparse-tri"``.
        reusable: True when additional right-hand sides are cheap (a kept
            factorization or a triangular substitution) — callers use this
            to pick between per-column and batched lazy strategies.
    """

    method = "abstract"
    reusable = False

    def __init__(self, n: int):
        self.n = int(n)

    # -- interface ---------------------------------------------------------

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` (vector or matrix right-hand side)."""
        raise NotImplementedError

    def solve_transpose(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A^T x = rhs`` (used by the condition guard)."""
        raise NotImplementedError

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` (for residual checks, without re-densifying)."""
        raise NotImplementedError

    def norm1(self) -> float:
        """``||A||_1`` (exact; cheap for every representation)."""
        raise NotImplementedError

    # -- shared ------------------------------------------------------------

    def m_matrix_condition(self) -> float:
        """The exact 1-norm condition number of an absorbing system.

        For ``A = I - Q`` with ``Q >= 0`` substochastic and ``A``
        nonsingular, ``A`` is an M-matrix and ``A^{-1} >= 0``, so the
        largest column sum of ``A^{-1}`` is the largest entry of ``y``
        with ``A^T y = 1``: ``cond_1(A) = ||A||_1 * max|y|`` costs one
        transposed solve.  Not valid for a general system; infinite when
        that solve fails.
        """
        obs.count("solver.condition")
        try:
            y = np.asarray(self.solve_transpose(np.ones(self.n)), dtype=float)
        except SingularSystemError:
            return float("inf")
        if not np.all(np.isfinite(y)):
            return float("inf")
        return self.norm1() * float(np.max(np.abs(y), initial=0.0))


class _DenseFactorization(Factorization):
    """Dense backend: LAPACK via numpy, LU kept from the second solve on.

    The first right-hand side is one ``numpy.linalg.solve`` (``gesv``), so
    a one-shot solve never loads scipy.  A second right-hand side forms
    the ``getrf`` factors with scipy once and reuses them through
    ``getrs``.  Without scipy every solve re-factors — the historical
    ``numpy.linalg.solve`` behavior, preserved on purpose.  A transposed
    solve (the condition guard's) is one ``gesv`` on ``A^T``, not counted
    as a factorization.
    """

    method = "dense"

    def __init__(self, system: np.ndarray):
        super().__init__(system.shape[0])
        self._system = system
        self._lu_piv = None
        self._solved = False
        self.reusable = _HAVE_SCIPY and self.n > 0

    def _factors(self):
        """The kept LU factors (formed on first call); ``None`` without
        scipy."""
        if self._lu_piv is None:
            scipy = _scipy()
            if scipy is None:
                return None
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # lu_factor warns, we raise
                lu, piv = scipy.linalg.lu_factor(
                    self._system, check_finite=False
                )
            obs.count("solver.factorizations")
            if not np.all(np.isfinite(lu)) or np.any(np.diag(lu) == 0.0):
                raise SingularSystemError("dense LU factored singular")
            self._lu_piv = (lu, piv)
        return self._lu_piv

    def _gesv(self, system: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        try:
            return np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(str(exc)) from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if not self._solved:
            self._solved = True
            obs.count("solver.factorizations")
            result = self._gesv(self._system, rhs)
            # a non-finite answer goes through the kept LU below, which
            # rejects a non-finite or singular factor as a typed error
            if not self.reusable or np.all(np.isfinite(result)):
                return result
        factors = self._factors()
        if factors is None:
            obs.count("solver.factorizations")
            return self._gesv(self._system, rhs)
        return _scipy().linalg.lu_solve(factors, rhs, check_finite=False)

    def solve_transpose(self, rhs: np.ndarray) -> np.ndarray:
        return self._gesv(self._system.T, rhs)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._system @ x

    def norm1(self) -> float:
        return float(np.abs(self._system).sum(axis=0).max(initial=0.0))


class _SparseLUFactorization(Factorization):
    """CSR assembly + one ``splu`` factorization, reused for every RHS."""

    method = "sparse-lu"
    reusable = True

    def __init__(self, system_csr):
        super().__init__(system_csr.shape[0])
        self._csr = system_csr
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                self._lu = _scipy().sparse.linalg.splu(system_csr.tocsc())
        except RuntimeError as exc:  # splu signals exact singularity this way
            raise SingularSystemError(str(exc)) from exc
        obs.count("solver.factorizations")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(rhs, dtype=float))

    def solve_transpose(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(rhs, dtype=float), trans="T")

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._csr @ x

    def norm1(self) -> float:
        sums = np.asarray(np.abs(self._csr).sum(axis=0)).ravel()
        return float(np.max(sums, initial=0.0))


class _SparseTriangularFactorization(Factorization):
    """The DAG fast path: permuted ``I - Q`` is upper triangular.

    With the transient states in topological order every edge points
    forward, so the permuted system is upper triangular with diagonal
    ``1 - Q_ii > 0`` — each right-hand side is one ``O(nnz)`` back
    substitution and there is *nothing to factor*.
    """

    method = "sparse-tri"
    reusable = True

    def __init__(self, system_csr, order: np.ndarray):
        super().__init__(system_csr.shape[0])
        self._order = order
        self._inverse = np.empty_like(order)
        self._inverse[order] = np.arange(order.size)
        permuted = system_csr[order][:, order].tocsr()
        diagonal = permuted.diagonal()
        if np.any(diagonal == 0.0):
            raise SingularSystemError(
                "triangular system has a zero diagonal entry"
            )
        self._permuted = permuted
        self._permuted_t = None  # lazily built for the condition guard

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        solution = _scipy().sparse.linalg.spsolve_triangular(
            self._permuted, rhs[self._order], lower=False
        )
        return solution[self._inverse]

    def solve_transpose(self, rhs: np.ndarray) -> np.ndarray:
        if self._permuted_t is None:
            self._permuted_t = self._permuted.T.tocsr()
        rhs = np.asarray(rhs, dtype=float)
        solution = _scipy().sparse.linalg.spsolve_triangular(
            self._permuted_t, rhs[self._order], lower=True
        )
        return solution[self._inverse]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (self._permuted @ x[self._order])[self._inverse]

    def norm1(self) -> float:
        sums = np.asarray(np.abs(self._permuted).sum(axis=0)).ravel()
        return float(np.max(sums, initial=0.0))


# ---------------------------------------------------------------------------
# structural plans + cache
# ---------------------------------------------------------------------------


class ChainSolvePlan:
    """The value-independent structure of one absorbing solve.

    Everything here depends only on the chain's *shape* — which states are
    absorbing, where the CSR triple has entries, the topological
    permutation — so a plan computed once serves every re-solve of a
    structurally identical chain (a sweep varying only rates, a
    fixed-point iteration, a batch of same-flow models).

    Attributes:
        fingerprint: the structural digest this plan was built from.
        backend: resolved backend (``"dense"``, ``"sparse-lu"``,
            ``"sparse-tri"``).
        transient / absorbing / local: each class's state indices, and each
            state's position within its class.
        q_entries, q_rows, q_cols / r_entries, r_rows, r_cols: where ``Q``
            and ``R`` sit in the CSR triple, and their class-local
            coordinates.
        order: topological permutation of the transient states
            (``"sparse-tri"`` only).
    """

    __slots__ = (
        "fingerprint", "backend", "transient", "absorbing", "local",
        "q_entries", "q_rows", "q_cols", "r_entries", "r_rows", "r_cols",
        "order",
    )

    def __init__(self, **fields):
        for name, value in fields.items():
            setattr(self, name, value)


_default_cache: LRUCache | None = None
_default_cache_lock = threading.Lock()


def default_solver_cache() -> LRUCache:
    """The process-wide structural-plan cache (created on first use)."""
    global _default_cache
    with _default_cache_lock:
        if _default_cache is None:
            _default_cache = LRUCache(max_size=256, name="solver")
        return _default_cache


def solver_cache_stats() -> CacheStats:
    """Hit/miss/eviction counters of the default structural-plan cache."""
    return default_solver_cache().stats


def chain_fingerprint(
    indptr: np.ndarray, indices: np.ndarray, absorbing_mask: np.ndarray
) -> str:
    """Structural digest of one chain: order + CSR pattern + partition.

    Two chains share a fingerprint exactly when they have the same order,
    the same transient/absorbing split and the same entry pattern — i.e.
    when one :class:`ChainSolvePlan` serves both.  Values do *not* enter
    the digest: that is the point (sweeps vary values only).
    """
    digest = hashlib.sha256()
    digest.update(np.int64(indptr.size - 1).tobytes())
    digest.update(np.asarray(indptr, dtype=np.int64).tobytes())
    digest.update(np.asarray(indices, dtype=np.int64).tobytes())
    digest.update(np.packbits(np.asarray(absorbing_mask, dtype=bool)).tobytes())
    return digest.hexdigest()


def _topological_order(
    m: int, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray | None:
    """Topological permutation of the transient graph minus self-loops,
    or ``None`` when it has a cycle (Kahn's algorithm on index arrays)."""
    off = rows != cols
    rows, cols = rows[off], cols[off]
    if rows.size == 0:
        return np.arange(m)
    sort = np.argsort(rows, kind="stable")
    rows_sorted, cols_sorted = rows[sort], cols[sort]
    starts = np.searchsorted(rows_sorted, np.arange(m + 1))
    indegree = np.bincount(cols_sorted, minlength=m)
    stack = [int(i) for i in np.flatnonzero(indegree == 0)]
    order: list[int] = []
    while stack:
        node = stack.pop()
        order.append(node)
        for target in cols_sorted[starts[node]:starts[node + 1]]:
            indegree[target] -= 1
            if indegree[target] == 0:
                stack.append(int(target))
    if len(order) != m:
        return None
    return np.asarray(order, dtype=np.int64)


def _resolve_backend(solver: str, m: int, nnz: int) -> str:
    """Backend choice (before the DAG refinement) for one system."""
    if solver == "dense":
        return "dense"
    if solver == "sparse":
        return "sparse"
    # auto: structure-aware heuristic with a dense fallback; scipy is
    # loaded only once a sparse solve is actually chosen
    if not _HAVE_SCIPY or m < SPARSE_THRESHOLD:
        return "dense"
    if m and nnz / (m * m) > SPARSE_DENSITY:
        return "dense"
    return "sparse" if _scipy() is not None else "dense"


def chain_plan(
    csr: tuple,
    absorbing_mask: np.ndarray,
    solver: str = "auto",
    cache: LRUCache | None = None,
) -> ChainSolvePlan:
    """The (cached) structural solve plan for one chain.

    Args:
        csr: the chain's ``(indptr, indices, data)`` transition triple
            (only the pattern is read).
        absorbing_mask: boolean mask of absorbing states, in row order.
        solver: ``"auto"``, ``"dense"`` or ``"sparse"`` (validated).
        cache: the structural-plan :class:`~repro.caching.LRUCache`;
            ``None`` uses the process-wide default, ``False`` disables
            caching for this call.
    """
    solver = validate_solver(solver)
    indptr, indices = csr[0], csr[1]
    mask = np.asarray(absorbing_mask, dtype=bool)
    key = (solver, chain_fingerprint(indptr, indices, mask))
    if cache is False:
        return _build_plan(indptr, indices, mask, solver, key[1])
    lru = cache if cache is not None else default_solver_cache()
    return lru.get_or_create(
        key, lambda: _build_plan(indptr, indices, mask, solver, key[1])
    )


def _build_plan(
    indptr: np.ndarray, indices: np.ndarray, mask: np.ndarray, solver: str,
    fingerprint: str,
) -> ChainSolvePlan:
    obs.count("solver.plans")
    transient, absorbing = np.flatnonzero(~mask), np.flatnonzero(mask)
    local = np.where(mask, np.cumsum(mask), np.cumsum(~mask)) - 1
    rows = np.repeat(np.arange(mask.size), np.diff(indptr))
    q_entries = np.flatnonzero(~mask[rows] & ~mask[indices])
    r_entries = np.flatnonzero(~mask[rows] & mask[indices])
    q_rows, q_cols = local[rows[q_entries]], local[indices[q_entries]]
    backend = _resolve_backend(solver, transient.size, q_entries.size)
    order = None
    if backend == "sparse":
        order = _topological_order(transient.size, q_rows, q_cols)
        backend = "sparse-tri" if order is not None else "sparse-lu"
    return ChainSolvePlan(
        fingerprint=fingerprint, backend=backend, transient=transient,
        absorbing=absorbing, local=local, q_entries=q_entries,
        q_rows=q_rows, q_cols=q_cols, r_entries=r_entries,
        r_rows=local[rows[r_entries]], r_cols=local[indices[r_entries]],
        order=order,
    )


def factorize_chain(csr: tuple, plan: ChainSolvePlan) -> Factorization:
    """Factor ``I - Q`` for the *values* of a chain's CSR triple along a
    structural plan.

    This is the per-solve (value-dependent) half of the split: one gather
    of ``Q``'s entries, then a dense ``I - Q`` (``"dense"``; scipy is not
    touched) or a scipy CSR assembly (the sparse backends) — and for
    ``"sparse-tri"`` nothing is numerically factored at all.

    Raises :class:`SingularSystemError` when the system is exactly
    singular (the caller decides what that means).
    """
    obs.count(f"solver.backend.{plan.backend}")
    m = plan.transient.size
    values = csr[2][plan.q_entries]
    if plan.backend == "dense":
        system = np.eye(m)
        np.subtract.at(system, (plan.q_rows, plan.q_cols), values)  # in entry order
        return _DenseFactorization(system)
    sparse = _scipy().sparse
    q_sparse = sparse.csr_matrix(
        (values, (plan.q_rows, plan.q_cols)), shape=(m, m)
    )
    system = (sparse.identity(m, format="csr") - q_sparse).tocsr()
    if plan.backend == "sparse-tri":
        return _SparseTriangularFactorization(system, plan.order)
    return _SparseLUFactorization(system)


def factorize(a: np.ndarray, solver: str = "auto") -> Factorization:
    """Factor an arbitrary square dense-input system through the backend
    heuristic (no structural cache — for one-off systems like the
    stationary-distribution solve).

    Raises :class:`SingularSystemError` on exact singularity.
    """
    solver = validate_solver(solver)
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise EvaluationError(
            f"factorize expects a square matrix, got shape {a.shape}"
        )
    n = a.shape[0]
    backend = _resolve_backend(solver, n, int(np.count_nonzero(a)))
    if backend == "dense":
        return _DenseFactorization(a)
    return _SparseLUFactorization(_scipy().sparse.csr_matrix(a))
