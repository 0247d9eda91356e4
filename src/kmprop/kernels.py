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


# ---------------------------------------------------------------------------
# spectral backend for one-dimensional Gaussian kernels
#
# k(x, y) = ∫ cos(ω (x - y)) N(ω; 0, σ⁻²) dω, so w^T K v is the integral
# of N(ω; 0, σ⁻²) Re φ_w(ω) conj(φ_v(ω)), with φ_w(ω) = Σ_i w_i e^{iω x_i}.
# The trapezoid rule with step h = 2π / (R + 16σ), R the range of all
# points, aliases k(d) onto k(d + 2πk/h), |d + 2πk/h| >= 16σ for k != 0,
# an error of e^-128. Truncating at ω = 8/σ drops a density tail below
# 1e-15. That leaves Q = floor(8 / (σh)) + 1 ≈ 1.27 R/σ + 21 nodes, and
# a kernel sum over n + m points costs O((n + m) Q) instead of O(n m).

# e^{iωx} is built in blocks of this many nodes: a ladder of steps
# e^{ijhx}, j < B, and one of block bases e^{iBbhx}, each from one
# complex exp per point and then products.
_SPECTRAL_BLOCK = 8
# Points per chunk of characteristic-function work (further capped at
# _BLOCK_ELEMS // Q), so its buffers stay far below one kernel tile.
_SPECTRAL_ROWS = 4096

# Planner costs in nanoseconds, timed on a 2-core Xeon VM (numpy 2.4,
# OpenBLAS 0.3, 2 threads). A 1-D Gaussian tile entry costs 1.5 ns in
# float32 and 3.5-5 ns in float64 in the mat-vec loop (2500 x 10^4 and
# 200 x 90 000); the symmetric loop's square tiles cost about twice
# that, so the lower figures make the planner lean towards the tiles.
# The spectral backend costs 25-30 us per call and 100-140 ns per point
# at Q = 26-34, which is 3.4-5.6 ns per point and node; at Q = 72 it is
# 1.9-2.6 ns. At 200 x 90 000 with Q = 34 the mat-vec takes 9-11 ms
# against about 63 ms for float64 tiles. Most of the per-point cost is
# the two complex exps (19 ns each here), which is why
# "Q (n + m) < n m" alone is no rule. The constants below keep the
# 8 ns and 40 us measured when each point paid one exp per block of
# nodes: they err towards the tiles, and they leave the backend, and so
# the result, of every single kernel sum as it was.
_TILE_NS = {np.dtype(np.float32): 1.5, np.dtype(np.float64): 3.5}
_SPECTRAL_NS = 8.0
_SPECTRAL_CALL_NS = 40_000.0


@dataclass(frozen=True)
class _Nodes:
    """Trapezoid nodes ω_q = q * step, q < len(weights), on centred points."""

    centre: float
    step: float
    weights: np.ndarray


def _tri_elems(n: int) -> int:
    """Kernel entries the symmetric tile loop of :func:`quad_form`
    evaluates for n points: the upper block triangle, diagonal blocks
    in full."""
    step = int(math.sqrt(_BLOCK_ELEMS))
    sizes = [min(step, n - i) for i in range(0, n, step)]
    return (n * n + sum(s * s for s in sizes)) // 2


def _plan(spec: KernelSpec, point_sets, tile_elems: int, dtype=np.float64) -> _Nodes | None:
    """Spectral nodes for a kernel sum over ``point_sets`` when that is
    cheaper than evaluating ``tile_elems`` tile entries in ``dtype``;
    None keeps the tiles (any kernel but a Gaussian on 1-D points,
    small inputs, or a range so wide in bandwidths that Q grows large).
    """
    if spec.kind != GAUSSIAN or any(P.shape[1] != 1 or P.shape[0] == 0 for P in point_sets):
        return None
    lo = min(float(P.min()) for P in point_sets)
    hi = max(float(P.max()) for P in point_sets)
    span = (hi - lo) + 16.0 * spec.sigma
    q = 4.0 * span / (math.pi * spec.sigma)  # 8/σ over the step 2π/span
    n = sum(P.shape[0] for P in point_sets)
    cost = _SPECTRAL_NS * (q + 1.0) * n + _SPECTRAL_CALL_NS
    if not math.isfinite(cost) or cost >= _TILE_NS[np.dtype(dtype)] * tile_elems:
        return None
    step = 2.0 * math.pi / span
    omega = step * np.arange(int(q) + 1)
    density = spec.sigma / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * (spec.sigma * omega) ** 2)
    weights = 2.0 * step * density
    weights[0] *= 0.5
    return _Nodes(centre=lo + 0.5 * (hi - lo), step=step, weights=weights)


def _phases(nodes: _Nodes, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e^{iω_q (x - centre)} factored for q = B b + j, B = _SPECTRAL_BLOCK:
    the block bases e^{i B b step t}, shape (nb, len(x)), and the steps
    e^{i j step t}, shape (B, len(x)), for t = x - centre. Each ladder
    is one complex exp per point and then products, so the phase error
    grows by about an ulp per rung, B + nb ulps in all."""
    B = _SPECTRAL_BLOCK
    t = x - nodes.centre
    steps = _ladder(np.exp((1j * nodes.step) * t), B)
    base = _ladder(np.exp((1j * B * nodes.step) * t), -(-nodes.weights.size // B))
    return base, steps


def _ladder(z: np.ndarray, k: int) -> np.ndarray:
    """Rows z^0, ..., z^(k-1), each the previous row times z."""
    out = np.empty((k, z.size), dtype=np.complex128)
    out[0] = 1.0
    if k > 1:
        out[1] = z
    for j in range(2, k):
        np.multiply(out[j - 1], z, out=out[j])
    return out


def _chunk_rows(nodes: _Nodes) -> int:
    return max(1, min(_SPECTRAL_ROWS, _BLOCK_ELEMS // nodes.weights.size))


def _char_fn(nodes: _Nodes, P: np.ndarray, w: np.ndarray) -> np.ndarray:
    """φ_w(ω_q) = Σ_i w_i e^{iω_q (x_i - centre)} at every node, in float64
    whatever the dtype of ``P`` and ``w``."""
    B = _SPECTRAL_BLOCK
    Q = nodes.weights.size
    rows = _chunk_rows(nodes)
    x = np.asarray(P[:, 0], dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    acc = np.zeros((-(-Q // B), B), dtype=np.complex128)
    for s in range(0, x.size, rows):
        base, steps = _phases(nodes, x[s : s + rows])
        base *= w[s : s + rows]
        acc += base @ steps.T
    return acc.reshape(-1)[:Q]


def _spectral_matvec(nodes: _Nodes, A: np.ndarray, B: np.ndarray, w: np.ndarray) -> np.ndarray:
    """K(A, B) @ w = Re Σ_q a_q e^{iω_q a_i} conj(φ_w(ω_q)) per row of A."""
    Q = nodes.weights.size
    g = np.zeros(-(-Q // _SPECTRAL_BLOCK) * _SPECTRAL_BLOCK, dtype=np.complex128)
    g[:Q] = nodes.weights * np.conj(_char_fn(nodes, B, w))
    G = g.reshape(-1, _SPECTRAL_BLOCK)
    x = np.asarray(A[:, 0], dtype=np.float64)
    rows = _chunk_rows(nodes)
    out = np.empty(x.size)
    for s in range(0, x.size, rows):
        base, steps = _phases(nodes, x[s : s + rows])
        out[s : s + rows] = np.einsum("ji,ji->i", G.T @ base, steps).real
    return out


def spectral_mmd_sq(spec: KernelSpec, X: np.ndarray, wx: np.ndarray,
                    others) -> list[float] | None:
    """||Σ wy_j k(Y_j, .) - Σ wx_i k(X_i, .)||^2 for every (Y, wy) in
    ``others``, each as Σ_q a_q |φ_y(ω_q) - φ_x(ω_q)|^2, which is
    nonnegative by construction. The nodes are planned once over X and
    every Y, and φ_x is computed once, so k expansions measured against
    one reference cost k + 1 transforms. None when the planner prefers
    the tiles to the spectral backend, pricing the tiles as the three
    tiled terms of every pair."""
    n = X.shape[0]
    tiles = sum(_tri_elems(n) + n * Y.shape[0] + _tri_elems(Y.shape[0]) for Y, _ in others)
    nodes = _plan(spec, (X, *(Y for Y, _ in others)), tiles)
    if nodes is None:
        return None
    ref = _char_fn(nodes, X, wx)
    out = []
    for Y, wy in others:
        d = _char_fn(nodes, Y, wy) - ref
        out.append(float(nodes.weights @ (d.real ** 2 + d.imag ** 2)))
    return out


def kernel_matvec(spec: KernelSpec, A: np.ndarray, B: np.ndarray, w: np.ndarray) -> np.ndarray:
    """K(A, B) @ w for point arrays of shape (n, d) and (m, d).

    A 1-D Gaussian kernel goes through the spectral backend, in float64,
    when the planner finds it cheaper. Otherwise the kernel matrix is
    evaluated in tiles of at most ``_BLOCK_ELEMS`` entries, so memory
    stays bounded however large n * m is. Tiles are computed in the
    dtype of ``A``, ``B`` and ``w``, which must match, and summed into a
    float64 result.
    """
    nodes = _plan(spec, (A, B), A.shape[0] * B.shape[0], A.dtype)
    if nodes is not None:
        return _spectral_matvec(nodes, A, B, w)
    return _tile_matvec(spec, A, B, w)


def _tile_matvec(spec: KernelSpec, A: np.ndarray, B: np.ndarray, w: np.ndarray) -> np.ndarray:
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

    A Gaussian kernel on 1-D points goes through the spectral backend
    whenever the planner finds it cheaper than the tiles: O((n + m) Q)
    work over Q ≈ 1.27 R/σ + 21 frequency nodes, R the range of all
    points, always in float64. Everything else is evaluated in tiles.
    With ``Y=None`` the tiles cover only the upper block triangle of
    K(X, X). ``dtype`` governs the tiles alone: ``np.float32`` roughly
    triples their throughput at ~1e-6 relative accuracy, which is
    plenty for loss curves, and it makes tiles cheaper in the
    planner's cost model; the default keeps full float64 precision.
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

    n = Xp.shape[0]
    if symmetric:
        nodes = _plan(spec, (Xp,), _tri_elems(n), dt)
        if nodes is not None:
            phi = _char_fn(nodes, Xp, wxa)
            return float(nodes.weights @ (phi.real ** 2 + phi.imag ** 2))
    else:
        nodes = _plan(spec, (Xp, Yp), n * Yp.shape[0], dt)
        if nodes is not None:
            phi = _char_fn(nodes, Xp, wxa) * np.conj(_char_fn(nodes, Yp, wya))
            return float(nodes.weights @ phi.real)

    A = np.ascontiguousarray(Xp, dtype=dt)
    wa = wxa.astype(dt, copy=False)
    if symmetric:
        B, wb = A, wa
    else:
        B = np.ascontiguousarray(Yp, dtype=dt)
        wb = wya.astype(dt, copy=False)

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
    return float(wa @ _tile_matvec(spec, A, B, wb))


def median_heuristic(points) -> float:
    """Median of the pairwise Euclidean distances between distinct points.

    Zero distances (coincident points) are dropped before taking the
    median; if every pair coincides there is no scale to pick and
    :class:`NoDistinctPairs` is raised. On 1-D points the median is
    selected from the sorted points in O(n log n) expected time, bit
    for bit equal to ``np.median`` over ``pdist``. Otherwise the cost is
    quadratic in the number of points, so callers working with large
    sets should subsample first.
    """
    P = as_points(points)
    if P.shape[0] < 2:
        raise NoDistinctPairs("median heuristic needs at least two distinct points")
    if P.shape[1] == 1:
        out = _median_distance_1d(np.sort(P[:, 0]))
    else:
        d = pdist(P)
        d = d[d > 0.0]
        if d.size == 0:
            raise NoDistinctPairs("all points coincide; no distinct pairs")
        out = float(np.median(d))
    if not math.isfinite(out) or out <= 0.0:
        raise DegenerateBandwidth(f"median pairwise distance is {out!r}")
    return out


# Candidates drawn per pivoting round of the 1-D median selection, and
# the candidate count at or below which the rest are materialized.
_MEDIAN_SAMPLE = 2048
_MEDIAN_DIRECT = 1 << 15


# The largest double whose square underflows to zero: for d >= 0,
# d * d > 0 exactly when d > _SQ_ZERO.
_SQ_ZERO = float.fromhex("0x1.6a09e667f3bccp-538")


def _first_above(x, rows, lo, hi, t) -> np.ndarray:
    """Per lane k, the first j in [lo[k], hi[k]) where the computed
    difference x[j] - x[rows[k]] exceeds t[k] (or a scalar t), else
    hi[k]. A searchsorted of x[rows[k]] + t[k] guesses each boundary,
    but that sum rounds differently from the difference, so a guess
    stands only where the difference passes at it and fails just
    before it; the other lanes are binary-searched on the difference."""
    t = np.broadcast_to(t, rows.shape)
    xr = x[rows]
    g = np.clip(np.searchsorted(x, xr + t, side="right"), lo, hi)
    last = x.size - 1
    passes = (g == hi) | (x[np.minimum(g, last)] - xr > t)
    fails_before = (g == lo) | ~(x[np.maximum(g - 1, 0)] - xr > t)
    # A guess that fails at g moves lo past it; one that passes at
    # g - 1 caps the answer there.
    lo = np.where(passes, np.where(fails_before, g, lo), g + 1)
    hi = np.where(fails_before, np.where(passes, g, hi), g - 1)
    live = np.flatnonzero(lo < hi)
    while live.size:
        mid = (lo[live] + hi[live]) // 2
        up = x[mid] - xr[live] > t[live]
        hi[live[up]] = mid[up]
        lo[live[~up]] = mid[~up] + 1
        live = live[lo[live] < hi[live]]
    return lo


def _select_difference(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, r: int) -> float:
    """The r-th smallest (from 0) of x[j] - x[i] over i and lo[i] <= j < hi[i],
    for sorted x. Each round brackets rank r between two pivots picked
    from a sample of the candidates and narrows every row's window to
    the values between them; the sample is seeded, so the work done is
    reproducible, and the answer never depends on it."""
    n = x.size
    rows = np.arange(n)
    rows4 = np.tile(rows, 4)
    rng = np.random.default_rng(0)
    half_width = 2.0 * math.sqrt(_MEDIAN_SAMPLE)
    while True:
        cnt = hi - lo
        ends = np.cumsum(cnt)
        total = int(ends[-1])
        if total <= max(_MEDIAN_DIRECT, 8 * n):
            own = np.repeat(rows, cnt)
            cols = np.arange(total) - np.repeat(ends - cnt - lo, cnt)
            return float(np.partition(x[cols] - x[own], r)[r])
        u = rng.integers(0, total, _MEDIAN_SAMPLE)
        row = ends.searchsorted(u, side="right")
        sample = np.sort(x[u - ends[row] + hi[row]] - x[row])
        f = r * _MEDIAN_SAMPLE / total
        p1 = sample[max(0, int(f - half_width))]
        p2 = sample[min(_MEDIAN_SAMPLE - 1, int(f + half_width))]
        # Per row: the ends of the runs < p1, <= p1, < p2 and <= p2.
        t = np.repeat([np.nextafter(p1, -np.inf), p1, np.nextafter(p2, -np.inf), p2], n)
        pos = _first_above(x, rows4, np.tile(lo, 4), np.tile(hi, 4), t).reshape(4, n)
        below = (pos - lo).sum(axis=1)
        if r < below[0]:
            hi = pos[0]
        elif r < below[1]:
            return float(p1)
        elif r < below[2]:
            r -= int(below[1])
            lo, hi = pos[1], pos[2]
        elif r < below[3]:
            return float(p2)
        else:
            r -= int(below[3])
            lo = pos[3]


def _median_distance_1d(x: np.ndarray) -> float:
    """``np.median`` of the nonzero entries of ``pdist(x[:, None])`` for
    sorted 1-D ``x``. pdist's distance is sqrt(d * d) for the computed
    difference d, which is monotone in d and zero where d * d
    underflows, so order statistics of d map onto those of pdist."""
    n = x.size
    rows = np.arange(n)
    hi = np.full(n, n)
    with np.errstate(over="ignore"):
        lo = _first_above(x, rows, rows + 1, hi, _SQ_ZERO)
        count = int((hi - lo).sum())
        if count == 0:
            raise NoDistinctPairs("all points coincide; no distinct pairs")
        k = count // 2
        if count % 2:
            mid = np.array([_select_difference(x, lo, hi, k)])
        else:
            below = _select_difference(x, lo, hi, k - 1)
            after = _first_above(x, rows, lo, hi, below)
            if int((after - lo).sum()) > k:
                above = below
            else:
                has = after < hi
                above = float((x[after[has]] - x[has]).min())
            mid = np.array([below, above])
        return float(np.median(np.sqrt(mid * mid)))


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
