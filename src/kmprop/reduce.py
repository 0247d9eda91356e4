"""Reduced-set compression of weighted expansions.

A random subset of the expansion's points is kept and its weights are
re-fit by least squares in the RKHS: minimizing
``|| sum_k gamma_k k(z_k, .) - mu ||^2`` over gamma leads to the normal
equations ``(K + ridge I) gamma = b`` with K the Gram matrix of the
kept points and ``b_k = sum_i w_i k(z_k, x_i)``. The fitted weights are
unconstrained - nothing forces them onto a simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .embedding import WeightedExpansion, mmd_sq
from .errors import InputError, SingularSystem
from .kernels import gram, kernel_matvec, quad_form

# Default ridge scale, multiplied by mean Gram diagonal (trace/target).
_RIDGE_SCALE = 1e-8


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of a reduced-set fit.

    ``achieved_error_sq`` is the squared RKHS distance between the
    original and the reduced expansion (None when the caller skipped
    its computation); ``solver`` records which linear solver produced
    the weights ('cholesky', or 'lstsq' on fallback).
    """

    reduced: WeightedExpansion
    kept_indices: np.ndarray
    achieved_error_sq: float | None
    solver: str


def reduce_random(mu: WeightedExpansion, target: int,
                  ridge: float | None = None, seed: int = 0,
                  compute_error: bool = True) -> ReductionResult:
    """Compress ``mu`` onto ``target`` randomly chosen support points.

    ``ridge=None`` picks ``1e-8 * trace(K) / target`` (i.e. 1e-8 times
    the mean Gram diagonal of the kept points). An explicit ``ridge=0``
    requests the unregularized solve and raises
    :class:`SingularSystem` when the Gram matrix is singular; with a
    positive ridge a failed Cholesky factorization falls back to a
    least-squares solve, recorded in the result.

    ``compute_error=False`` skips the O(size^2) evaluation of the
    achieved error, which dominates the cost when ``mu`` is large.
    """
    if not isinstance(mu, WeightedExpansion):
        raise InputError(f"mu must be a WeightedExpansion, got {type(mu).__name__}")
    if not (isinstance(target, (int, np.integer)) and 1 <= target <= mu.size):
        raise InputError(
            f"target must be an integer in [1, {mu.size}], got {target!r}"
        )
    if ridge is not None and not (math.isfinite(ridge) and ridge >= 0.0):
        raise InputError(f"ridge must be >= 0, got {ridge!r}")

    rng = np.random.default_rng(seed)
    kept = np.sort(rng.choice(mu.size, size=int(target), replace=False))
    Z = mu.points[kept]

    K = gram(mu.spec, Z)
    b = kernel_matvec(mu.spec, Z, mu.points, mu.weights)
    if ridge is None:
        ridge = _RIDGE_SCALE * float(np.trace(K)) / target
    A = K if ridge == 0.0 else K + ridge * np.eye(target)

    try:
        c, low = scipy.linalg.cho_factor(A)
        gamma = scipy.linalg.cho_solve((c, low), b)
        solver = "cholesky"
    except scipy.linalg.LinAlgError:
        if ridge == 0.0:
            raise SingularSystem(
                "Gram matrix of the kept points is singular; use ridge > 0"
            ) from None
        gamma, *_ = scipy.linalg.lstsq(A, b)
        solver = "lstsq"

    reduced = WeightedExpansion(Z, gamma, mu.spec)
    err = None
    if compute_error:
        err = (quad_form(mu.spec, Z, gamma)
               - 2.0 * float(gamma @ b)
               + quad_form(mu.spec, mu.points, mu.weights))
        err = max(err, 0.0)
    return ReductionResult(reduced=reduced, kept_indices=kept,
                           achieved_error_sq=err, solver=solver)


def residual_check(mu: WeightedExpansion, result: ReductionResult) -> float:
    """Recompute ||mu - reduced||^2 from scratch.

    Returns the recomputed squared error so callers can compare it with
    ``result.achieved_error_sq``; the two agree to high accuracy when
    the result is consistent with ``mu``.
    """
    return mmd_sq(mu, result.reduced)
