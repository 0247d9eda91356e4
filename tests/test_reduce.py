import tracemalloc

import numpy as np
import pytest

import kmprop.kernels as kernels
from kmprop import (
    KernelSpec,
    WeightedExpansion,
    embed_sample,
    mmd_sq,
    reduce_random,
    residual_check,
)
from kmprop.errors import InputError, SingularSystem

G1 = KernelSpec.gaussian(1.0)


def test_full_target_recovers_exactly():
    rng = np.random.default_rng(0)
    mu = embed_sample(rng.normal(size=30), G1)
    res = reduce_random(mu, 30)
    assert res.achieved_error_sq <= 1e-10
    assert res.solver == "cholesky"
    assert np.allclose(res.reduced.weights, mu.weights, atol=1e-6)
    assert np.array_equal(np.sort(res.kept_indices), np.arange(30))


def test_fitted_weights_beat_uniform_on_same_support():
    # Re-fitting is a least-squares projection, so it can only do as
    # well or better than keeping uniform weights on the same points.
    rng = np.random.default_rng(1)
    losses = []
    for seed in range(20):
        mu = embed_sample(rng.normal(size=60), G1)
        res = reduce_random(mu, 15, seed=seed)
        uniform = WeightedExpansion(mu.points[res.kept_indices],
                                    np.full(15, 1.0 / 15), G1)
        fitted_err = res.achieved_error_sq
        uniform_err = mmd_sq(mu, uniform)
        assert fitted_err <= uniform_err + 1e-10
        losses.append((fitted_err, uniform_err))
    assert all(f < u for f, u in losses)


def test_error_decreases_with_target():
    rng = np.random.default_rng(2)
    wins = 0
    for seed in range(20):
        mu = embed_sample(rng.normal(size=50), G1)
        lo = reduce_random(mu, 10, seed=seed).achieved_error_sq
        hi = reduce_random(mu, 40, seed=seed).achieved_error_sq
        wins += hi <= lo + 1e-12
    assert wins >= 18


def test_local_optimality_probe():
    # Perturbing the fitted coefficients in random directions cannot
    # reduce the (convex) objective.
    rng = np.random.default_rng(3)
    mu = embed_sample(rng.normal(size=40), G1)
    res = reduce_random(mu, 10, ridge=0.0, seed=5)
    base = res.achieved_error_sq
    pts = res.reduced.points
    for _ in range(10):
        delta = rng.normal(size=10)
        delta *= 1e-3 / np.linalg.norm(delta)
        perturbed = WeightedExpansion(pts, res.reduced.weights + delta, G1)
        assert mmd_sq(mu, perturbed) >= base - 1e-12


def test_no_simplex_constraint_is_imposed():
    # The optimal coefficients are generally not a probability vector:
    # find a reduction whose weights do not sum to one.
    mu = WeightedExpansion([[0.0], [0.5], [8.0]], [1 / 3, 1 / 3, 1 / 3], G1)
    seen_non_simplex = False
    for seed in range(64):
        res = reduce_random(mu, 2, seed=seed)
        if set(res.kept_indices.tolist()) == {0, 2}:
            assert abs(res.reduced.weights.sum() - 1.0) > 1e-3
            seen_non_simplex = True
            break
    assert seen_non_simplex


def test_negative_coefficients_allowed():
    mu = WeightedExpansion([[0.0], [0.05], [0.1]], [1.0, -1.5, 1.2], G1)
    res = reduce_random(mu, 3, seed=0)
    assert np.any(res.reduced.weights < 0.0)


def test_ridge_zero_on_singular_system_raises():
    mu = WeightedExpansion([[1.0], [1.0], [2.0]], [0.3, 0.3, 0.4], G1)
    with pytest.raises(SingularSystem):
        reduce_random(mu, 3, ridge=0.0)


def test_lstsq_fallback_engages_when_cholesky_cannot():
    # A ridge too small to lift the singular Gram matrix exercises the
    # least-squares fallback path.
    mu = WeightedExpansion([[1.0], [1.0], [2.0]], [0.3, 0.3, 0.4], G1)
    res = reduce_random(mu, 3, ridge=1e-300)
    assert res.solver == "lstsq"
    assert res.achieved_error_sq <= 1e-8


def test_residual_check_agrees():
    rng = np.random.default_rng(4)
    for seed in range(5):
        mu = embed_sample(rng.normal(size=35), G1)
        res = reduce_random(mu, 12, seed=seed)
        assert residual_check(mu, res) == pytest.approx(
            res.achieved_error_sq, abs=1e-8)


def test_compute_error_skip():
    mu = embed_sample(np.arange(10.0), G1)
    res = reduce_random(mu, 5, compute_error=False)
    assert res.achieved_error_sq is None
    assert residual_check(mu, res) >= 0.0


def test_deterministic_per_seed():
    mu = embed_sample(np.arange(20.0), G1)
    a = reduce_random(mu, 7, seed=42)
    b = reduce_random(mu, 7, seed=42)
    assert np.array_equal(a.kept_indices, b.kept_indices)
    assert np.array_equal(a.reduced.weights, b.reduced.weights)
    c = reduce_random(mu, 7, seed=43)
    assert not np.array_equal(a.kept_indices, c.kept_indices)


def test_validation():
    mu = embed_sample(np.arange(5.0), G1)
    with pytest.raises(InputError):
        reduce_random(mu, 0)
    with pytest.raises(InputError):
        reduce_random(mu, 6)
    with pytest.raises(InputError):
        reduce_random(mu, 3, ridge=-1.0)
    with pytest.raises(InputError):
        reduce_random([1.0, 2.0], 1)


def test_large_expansion_never_builds_dense_cross_gram():
    # A dense 500 x 10^5 K(Z, X) alone would take 400 MB.
    rng = np.random.default_rng(5)
    mu = embed_sample(rng.normal(size=100_000), G1)
    tracemalloc.start()
    try:
        res = reduce_random(mu, 500, compute_error=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert res.reduced.size == 500


def test_error_check_on_large_1d_gaussian_expansion_is_subquadratic(monkeypatch):
    # ||mu||^2 over a 90 000-point grid took ~30 s as tiles. Count the
    # kernel entries the tiles evaluate: only the target x target Gram
    # of the kept points may remain.
    rng = np.random.default_rng(6)
    grid = np.multiply.outer(rng.normal(3, 0.5, 300), rng.normal(4, 0.5, 300)).ravel()
    mu = embed_sample(grid, KernelSpec.gaussian(1.0))
    shapes = []
    block = kernels._kernel_block

    def counted_block(spec, A, B):
        shapes.append((A.shape[0], B.shape[0]))
        return block(spec, A, B)

    monkeypatch.setattr(kernels, "_kernel_block", counted_block)
    res = reduce_random(mu, 200, seed=1, compute_error=True)
    assert all(rows <= 200 and cols <= 200 for rows, cols in shapes), shapes
    assert sum(rows * cols for rows, cols in shapes) <= 200 * 200
    assert res.achieved_error_sq == pytest.approx(mmd_sq(mu, res.reduced), abs=1e-11)
