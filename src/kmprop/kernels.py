"""Positive definite kernels, Gram machinery, bandwidth selection, and
random Fourier features.

Three kernel families are supported:

* ``gaussian``:    k(x, y) = exp(-||x - y||^2 / (2 sigma^2))
* ``linear``:      k(x, y) = <x, y>
* ``poly``:        k(x, y) = (<x, y> + offset)^degree

Everything downstream works with a :class:`KernelSpec` value rather than
a callable, so kernels can be compared, serialized, and embedded in file
headers.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .errors import DegenerateBandwidth, DimensionMismatch, InputError, NoDistinctPairs

GAUSSIAN = "gaussian"
LINEAR = "linear"
POLYNOMIAL = "poly"

_KINDS = (GAUSSIAN, LINEAR, POLYNOMIAL)

# Kernel blocks are evaluated in tiles of at most this many entries
# (~32 MB in float64) so quadratic forms over large expansions never
# materialize the full Gram matrix.
_BLOCK_ELEMS = 1 << 22


@dataclass(frozen=True)
class KernelSpec:
    """A positive definite kernel plus its parameters.

    ``sigma`` is required for ``gaussian``; ``degree`` and ``offset``
    are required for ``poly``; ``linear`` takes no parameters.
    """

    kind: str
    sigma: float | None = None
    degree: int | None = None
    offset: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"unknown kernel kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == GAUSSIAN:
            if self.sigma is None or not math.isfinite(self.sigma) or self.sigma <= 0:
                raise InputError(f"gaussian kernel needs sigma > 0, got {self.sigma!r}")
        elif self.kind == POLYNOMIAL:
            if self.degree is None or int(self.degree) != self.degree or self.degree < 1:
                raise InputError(f"poly kernel needs integer degree >= 1, got {self.degree!r}")
            if self.offset is None or not math.isfinite(self.offset):
                raise InputError(f"poly kernel needs a finite offset, got {self.offset!r}")

    @staticmethod
    def gaussian(sigma: float) -> "KernelSpec":
        return KernelSpec(GAUSSIAN, sigma=float(sigma))

    @staticmethod
    def linear() -> "KernelSpec":
        return KernelSpec(LINEAR)

    @staticmethod
    def polynomial(degree: int, offset: float = 1.0) -> "KernelSpec":
        return KernelSpec(POLYNOMIAL, degree=int(degree), offset=float(offset))

    def to_dict(self) -> dict:
        d = {"kernel": self.kind}
        if self.kind == GAUSSIAN:
            d["sigma"] = self.sigma
        elif self.kind == POLYNOMIAL:
            d["degree"] = self.degree
            d["offset"] = self.offset
        return d

    @staticmethod
    def from_dict(d: dict) -> "KernelSpec":
        if not isinstance(d, dict) or "kernel" not in d:
            raise InputError(f"kernel config must be a mapping with a 'kernel' key, got {d!r}")
        kind = d["kernel"]
        if kind == GAUSSIAN:
            if "sigma" not in d:
                raise InputError("gaussian kernel config needs 'sigma'")
            return KernelSpec.gaussian(d["sigma"])
        if kind == LINEAR:
            return KernelSpec.linear()
        if kind == POLYNOMIAL:
            if "degree" not in d:
                raise InputError("poly kernel config needs 'degree'")
            return KernelSpec.polynomial(d["degree"], d.get("offset", 1.0))
        raise InputError(f"unknown kernel kind {kind!r}; expected one of {_KINDS}")


def as_points(points) -> np.ndarray:
    """Coerce to a float64 array of shape (n, d).

    Accepts scalars-per-row sequences, 1-d arrays (treated as n points in
    R^1), or 2-d arrays. Non-finite entries are rejected.
    """
    X = np.asarray(points, dtype=np.float64)
    if X.ndim == 0:
        X = X.reshape(1, 1)
    elif X.ndim == 1:
        X = X.reshape(-1, 1)
    elif X.ndim != 2:
        raise InputError(f"points must be at most 2-d, got shape {X.shape}")
    if X.size and not np.all(np.isfinite(X)):
        raise InputError("points contain non-finite values")
    return X


def as_single_point(x) -> np.ndarray:
    """Coerce one point to shape (1, d); a 1-d array is read as a single
    point in R^d (unlike :func:`as_points`, which reads it as d points
    in R^1)."""
    X = np.asarray(x, dtype=np.float64)
    if X.ndim == 0:
        X = X.reshape(1, 1)
    elif X.ndim == 1:
        X = X.reshape(1, -1)
    elif X.ndim != 2 or X.shape[0] != 1:
        raise InputError(f"expected a single point, got shape {X.shape}")
    if X.size == 0:
        raise InputError("a point needs at least one coordinate")
    if not np.all(np.isfinite(X)):
        raise InputError("points contain non-finite values")
    return X


def _check_same_dim(X: np.ndarray, Y: np.ndarray) -> None:
    if X.shape[1] != Y.shape[1]:
        raise DimensionMismatch(
            f"point dimensions differ: {X.shape[1]} vs {Y.shape[1]}"
        )


def _kernel_block(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dense kernel matrix between two point blocks of matching dtype."""
    if spec.kind == GAUSSIAN:
        if A.shape[1] == 1:
            D = np.subtract(A[:, 0][:, None], B[:, 0][None, :])
            np.multiply(D, D, out=D)
        else:
            D = A @ B.T
            D *= -2.0
            D += np.einsum("ij,ij->i", A, A)[:, None]
            D += np.einsum("ij,ij->i", B, B)[None, :]
            np.maximum(D, 0.0, out=D)
        D *= -0.5 / (spec.sigma * spec.sigma)
        np.exp(D, out=D)
        return D
    if spec.kind == LINEAR:
        return A @ B.T
    D = A @ B.T
    D += spec.offset
    return D ** spec.degree


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """k(x, y) for two single points (1-d input reads as one point in R^d)."""
    X = as_single_point(x)
    Y = as_single_point(y)
    _check_same_dim(X, Y)
    return float(_kernel_block(spec, X, Y)[0, 0])


def gram(spec: KernelSpec, X, Y=None) -> np.ndarray:
    """Full kernel matrix K[i, j] = k(X[i], Y[j]).

    With ``Y=None`` computes the symmetric Gram matrix of ``X``. The
    result is materialized densely; for quadratic forms over large sets
    prefer :func:`quad_form`, which tiles the computation.
    """
    A = as_points(X)
    if A.shape[0] == 0:
        raise InputError("gram needs at least one point")
    if Y is None:
        B = A
    else:
        B = as_points(Y)
        if B.shape[0] == 0:
            raise InputError("gram needs at least one point")
        _check_same_dim(A, B)
    return _kernel_block(spec, A, B)


def kernel_matvec(spec: KernelSpec, A: np.ndarray, B: np.ndarray, w: np.ndarray) -> np.ndarray:
    """K(A, B) @ w for point arrays of shape (n, d) and (m, d).

    The kernel matrix is evaluated in tiles of at most ``_BLOCK_ELEMS``
    entries, so memory stays bounded however large n * m is. Tiles are
    computed in the dtype of ``A``, ``B`` and ``w``, which must match,
    and summed into a float64 result.
    """
    n, m = A.shape[0], B.shape[0]
    cols = max(1, min(m, _BLOCK_ELEMS))
    rows = max(1, _BLOCK_ELEMS // cols)
    out = np.zeros(n)
    for i in range(0, n, rows):
        Ai = A[i : i + rows]
        for j in range(0, m, cols):
            out[i : i + rows] += _kernel_block(spec, Ai, B[j : j + cols]) @ w[j : j + cols]
    return out


def quad_form(spec: KernelSpec, X, wx, Y=None, wy=None, dtype=np.float64) -> float:
    """w_x^T K(X, Y) w_y without materializing K.

    With ``Y=None`` exploits symmetry and only evaluates the upper
    block triangle of K(X, X). ``dtype=np.float32`` roughly triples
    throughput for large one-dimensional Gaussian forms at ~1e-6
    relative accuracy, which is plenty for loss curves; the default
    keeps full float64 precision.
    """
    Xp = as_points(X)
    wxa = np.asarray(wx, dtype=np.float64).reshape(-1)
    if wxa.shape[0] != Xp.shape[0]:
        raise DimensionMismatch(
            f"{Xp.shape[0]} points but {wxa.shape[0]} weights"
        )
    dt = np.dtype(dtype)
    symmetric = Y is None
    if symmetric:
        Yp, wya = Xp, wxa
    else:
        Yp = as_points(Y)
        wya = np.asarray(wy, dtype=np.float64).reshape(-1)
        if wya.shape[0] != Yp.shape[0]:
            raise DimensionMismatch(
                f"{Yp.shape[0]} points but {wya.shape[0]} weights"
            )
        _check_same_dim(Xp, Yp)
    if Xp.shape[0] == 0 or Yp.shape[0] == 0:
        return 0.0

    A = np.ascontiguousarray(Xp, dtype=dt)
    wa = wxa.astype(dt, copy=False)
    if symmetric:
        B, wb = A, wa
    else:
        B = np.ascontiguousarray(Yp, dtype=dt)
        wb = wya.astype(dt, copy=False)

    n = A.shape[0]
    total = 0.0
    if symmetric:
        step = int(math.sqrt(_BLOCK_ELEMS))
        starts = range(0, n, step)
        for i in starts:
            Ai, wi = A[i : i + step], wa[i : i + step]
            for j in range(i, n, step):
                K = _kernel_block(spec, Ai, B[j : j + step])
                s = float(wi @ (K @ wb[j : j + step]))
                total += s if i == j else 2.0 * s
        return total
    return float(wa @ kernel_matvec(spec, A, B, wb))


def median_heuristic(points) -> float:
    """Median of the pairwise Euclidean distances between distinct points.

    Zero distances (coincident points) are dropped before taking the
    median; if every pair coincides there is no scale to pick and
    :class:`NoDistinctPairs` is raised. Cost is quadratic in the number
    of points, so callers working with large sets should subsample
    first.
    """
    P = as_points(points)
    if P.shape[0] < 2:
        raise NoDistinctPairs("median heuristic needs at least two distinct points")
    d = pdist(P)
    d = d[d > 0.0]
    if d.size == 0:
        raise NoDistinctPairs("all points coincide; no distinct pairs")
    out = float(np.median(d))
    if not math.isfinite(out) or out <= 0.0:
        raise DegenerateBandwidth(f"median pairwise distance is {out!r}")
    return out


def derive_seed(seed: int, label: str) -> int:
    """Stable 64-bit seed for a labelled stream, derived from ``seed`` by
    hashing (unlike Python's salted ``hash``), so it is the same in
    every process."""
    h = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(h[:8], "little")


@dataclass(frozen=True)
class RffMap:
    """Frozen random Fourier feature map for a Gaussian kernel.

    ``frequencies`` has shape (n_features, dim) with rows drawn from
    N(0, I/sigma^2). The feature vector stacks paired cosine and sine
    components scaled by 1/sqrt(n_features), so dot products of feature
    vectors estimate the kernel and each feature vector has unit norm
    exactly.
    """

    frequencies: np.ndarray
    sigma: float
    seed: int

    @property
    def n_features(self) -> int:
        return self.frequencies.shape[0]

    @property
    def dim(self) -> int:
        return self.frequencies.shape[1]

    @property
    def feature_dim(self) -> int:
        return 2 * self.frequencies.shape[0]


def rff_build(sigma: float, n_features: int, dim: int, seed: int) -> RffMap:
    """Draw a feature map of ``n_features`` frequencies for points in R^dim."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise InputError(f"rff_build needs sigma > 0, got {sigma!r}")
    if n_features < 1:
        raise InputError(f"rff_build needs n_features >= 1, got {n_features}")
    if dim < 1:
        raise InputError(f"rff_build needs dim >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    freqs = rng.normal(0.0, 1.0 / sigma, size=(int(n_features), int(dim)))
    return RffMap(frequencies=freqs, sigma=float(sigma), seed=int(seed))


def rff_feature_matrix(rmap: RffMap, X) -> np.ndarray:
    """Feature vectors for a batch of points, shape (n, 2 * n_features)."""
    P = as_points(X)
    if P.shape[1] != rmap.dim:
        raise DimensionMismatch(
            f"feature map expects dimension {rmap.dim}, got {P.shape[1]}"
        )
    Z = P @ rmap.frequencies.T
    scale = 1.0 / math.sqrt(rmap.n_features)
    return np.hstack([np.cos(Z), np.sin(Z)]) * scale


def rff_features(rmap: RffMap, x) -> np.ndarray:
    """Feature vector of a single point, shape (2 * n_features,)."""
    return rff_feature_matrix(rmap, as_single_point(x))[0]
