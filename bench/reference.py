"""Dense float64 kernel sums written apart from kmprop.

The output checks compare the program against these. They share no code
with ``kmprop.kernels``: Gaussian entries come from explicit coordinate
differences rather than the norm expansion, and every block is float64.
"""

from __future__ import annotations

import numpy as np

# Entries of K evaluated per block (8 MiB in float64), so a check never
# raises the peak memory of the run it checks.
_BLOCK_ENTRIES = 1 << 20


def _points(a) -> np.ndarray:
    p = np.asarray(a, dtype=np.float64)
    return p.reshape(-1, 1) if p.ndim < 2 else p


def _block(spec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if spec.kind == "gaussian":
        sq = np.zeros((A.shape[0], B.shape[0]))
        for j in range(A.shape[1]):
            d = A[:, j][:, None] - B[:, j][None, :]
            sq += d * d
        return np.exp(sq / (-2.0 * spec.sigma ** 2))
    lin = A @ B.T
    if spec.kind == "linear":
        return lin
    return (lin + spec.offset) ** spec.degree


def kernel_sum(spec, X, wx, Y=None, wy=None) -> float:
    """w_x^T K(X, Y) w_y; ``Y=None`` means Y = X and wy = wx."""
    A = _points(X)
    a = np.asarray(wx, dtype=np.float64).reshape(-1)
    if Y is None:
        B, b = A, a
    else:
        B = _points(Y)
        b = np.asarray(wy, dtype=np.float64).reshape(-1)
    rows = max(1, _BLOCK_ENTRIES // max(B.shape[0], 1))
    total = 0.0
    for i in range(0, A.shape[0], rows):
        total += float(a[i:i + rows] @ (_block(spec, A[i:i + rows], B) @ b))
    return total


def abs_scale(wx, wy=None) -> float:
    """Bound on |w_x^T K w_y| used to scale deviations: sum|wx| * sum|wy|
    (times max|k|, which is 1 for the Gaussian kernel)."""
    a = np.abs(np.asarray(wx, dtype=np.float64)).sum()
    b = a if wy is None else np.abs(np.asarray(wy, dtype=np.float64)).sum()
    return float(a * b)


def mmd_sq(spec, X, wx, Y, wy, xx: float | None = None) -> float:
    """||sum wx k(x,.) - sum wy k(y,.)||^2; ``xx`` may supply the X self
    term when it is already known."""
    if xx is None:
        xx = kernel_sum(spec, X, wx)
    return xx - 2.0 * kernel_sum(spec, X, wx, Y, wy) + kernel_sum(spec, Y, wy)

