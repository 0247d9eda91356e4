"""Hand-derived references the tests check library output against.

Everything here is computed independently of the package: closed-form
Gaussian integrals, brute-force double-loop kernel sums, and direct
density sampling. Keeping them separate from the implementation is the
point - a bug would have to appear in both places, in the same way, to
go unnoticed.
"""

import math

import numpy as np


def gauss_k(x, y, sigma):
    d = np.linalg.norm(np.atleast_1d(np.asarray(x, float) - np.asarray(y, float)))
    return math.exp(-(d * d) / (2.0 * sigma * sigma))


def poly_k(x, y, degree, offset):
    return (float(np.dot(np.atleast_1d(x), np.atleast_1d(y))) + offset) ** degree


def brute_inner(kfun, xs, wx, ys, wy) -> float:
    """Plain double loop over expansion terms."""
    total = 0.0
    for xi, wi in zip(xs, wx):
        for yj, wj in zip(ys, wy):
            total += wi * wj * kfun(xi, yj)
    return total


# --- closed-form Gaussian-kernel integrals for X ~ N(a, s^2) in R^1 ---
#
# For the Gaussian kernel with bandwidth sigma:
#   E_X k(x, X)    = sigma / sqrt(sigma^2 + s^2)
#                    * exp(-(x - a)^2 / (2 (sigma^2 + s^2)))
#   E_{X,X'} k(X, X') = sigma / sqrt(sigma^2 + 2 s^2)
# (convolution of Gaussians; X' an independent copy of X).


def expect_k_point_normal(x, a, s, sigma) -> float:
    v = sigma * sigma + s * s
    return sigma / math.sqrt(v) * math.exp(-((x - a) ** 2) / (2.0 * v))


def expect_k_normal_normal(a, s, sigma) -> float:
    return sigma / math.sqrt(sigma * sigma + 2.0 * s * s)


def weighted_embedding_error_sq(points, weights, a, s, sigma, quad) -> float:
    """||sum_i w_i phi(x_i) - mean embedding of N(a, s^2)||^2.

    The quadratic term is supplied by the caller (typically the library
    function under test); the cross and constant terms come from the
    closed forms above, so the reference does not depend on the
    library's kernel sums.
    """
    pts = np.asarray(points, float).reshape(-1)
    w = np.asarray(weights, float).reshape(-1)
    cross = sum(wi * expect_k_point_normal(xi, a, s, sigma) for xi, wi in zip(pts, w))
    return quad - 2.0 * cross + expect_k_normal_normal(a, s, sigma)


def expected_error_sq_uniform_pinned(weights, a, s, sigma) -> float:
    """E ||sum_i alpha_i phi(X_i) - mu||^2 for i.i.d. X_i ~ N(a, s^2).

    Expanding the square and using exchangeability gives
      (1 - sum(alpha))^2 E k(X, X') + sum(alpha^2) (E k(X, X) - E k(X, X')),
    with E k(X, X) = 1 for the Gaussian kernel.
    """
    al = np.asarray(weights, float)
    c = expect_k_normal_normal(a, s, sigma)
    return (1.0 - al.sum()) ** 2 * c + float(al @ al) * (1.0 - c)


def rff_grid_score(effect, fitted, resid, freqs) -> float:
    """Squared distance between the mean random-feature vectors of
    ``effect`` and of the explicit grid fitted_i + resid_j.

    Features are [cos(w v), sin(w v)] / sqrt(D) for the D frequencies
    ``freqs``; the grid is built point by point.
    """
    w = np.asarray(freqs, float).reshape(-1)

    def mean_features(values):
        z = np.outer(np.asarray(values, float), w)
        return np.concatenate([np.cos(z).mean(axis=0), np.sin(z).mean(axis=0)]) / math.sqrt(w.size)

    grid = [f + u for f in fitted for u in resid]
    d = mean_features(effect) - mean_features(grid)
    return float(d @ d)
