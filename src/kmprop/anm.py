"""Cause-effect direction scoring for additive-noise pairs.

For a candidate direction X -> Y, fit y ~ f(x) by polynomial least
squares, compute residuals u = y - f(x), and measure how far the
embedding of the observed effect is from the embedding of f(X) + U
reconstructed on the product grid of fitted values and residuals. Under
a correct additive-noise model with independent noise this discrepancy
vanishes with sample size, while the reverse direction's does not, so
the direction with the smaller score is inferred to be causal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.polynomial import polynomial as npoly

from .embedding import WeightedExpansion, embed_sample, mmd_sq
from .errors import InputError, NoDistinctPairs, SingularSystem
from .kernels import (GAUSSIAN, KernelSpec, RffMap, derive_seed, median_heuristic, rff_build,
                      rff_feature_matrix)

_DIRECTION_XY = "x->y"
_DIRECTION_YX = "y->x"
_ABSTAIN = "abstain"

_MIN_PAIR_ROWS = 5


@dataclass(frozen=True)
class PairedSample:
    """An observed (x, y) sample with optional ground-truth direction."""

    x: np.ndarray
    y: np.ndarray
    pair_id: str
    ground_truth: str | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64).reshape(-1)
        y = np.asarray(self.y, dtype=np.float64).reshape(-1)
        if x.shape[0] != y.shape[0]:
            raise InputError(
                f"pair {self.pair_id!r}: x has {x.shape[0]} rows but y has {y.shape[0]}"
            )
        if x.shape[0] < _MIN_PAIR_ROWS:
            raise InputError(
                f"pair {self.pair_id!r}: needs at least {_MIN_PAIR_ROWS} rows, got {x.shape[0]}"
            )
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InputError(f"pair {self.pair_id!r}: non-finite values")
        if self.ground_truth not in (None, _DIRECTION_XY, _DIRECTION_YX):
            raise InputError(
                f"pair {self.pair_id!r}: ground truth must be 'x->y' or 'y->x', "
                f"got {self.ground_truth!r}"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def size(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class PolyFit:
    """Polynomial regression fit in standardized coordinates.

    ``coefficients`` are ascending-degree coefficients for the model
    (y - output_mean)/output_scale = p((x - input_mean)/input_scale).
    """

    coefficients: np.ndarray
    input_mean: float
    input_scale: float
    output_mean: float
    output_scale: float

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def predict(self, x) -> np.ndarray:
        xs = (np.asarray(x, dtype=np.float64) - self.input_mean) / self.input_scale
        return self.output_mean + self.output_scale * npoly.polyval(xs, self.coefficients)


def polyfit(x, y, degree: int, ridge: float = 0.0) -> PolyFit:
    """Least-squares polynomial fit of y on x.

    Inputs are standardized before fitting for conditioning; ``ridge``
    penalizes the standardized coefficients. A rank-deficient design
    with ``ridge=0`` raises :class:`SingularSystem`.
    """
    xa = np.asarray(x, dtype=np.float64).reshape(-1)
    ya = np.asarray(y, dtype=np.float64).reshape(-1)
    if xa.shape[0] != ya.shape[0]:
        raise InputError(f"x has {xa.shape[0]} rows but y has {ya.shape[0]}")
    if not (isinstance(degree, (int, np.integer)) and degree >= 0):
        raise InputError(f"degree must be an integer >= 0, got {degree!r}")
    if xa.shape[0] < degree + 1:
        raise InputError(
            f"need at least degree+1 = {degree + 1} rows to fit, got {xa.shape[0]}"
        )
    if not (math.isfinite(ridge) and ridge >= 0.0):
        raise InputError(f"ridge must be >= 0, got {ridge!r}")

    mx, sx = float(np.mean(xa)), float(np.std(xa))
    my, sy = float(np.mean(ya)), float(np.std(ya))
    sx = sx if sx > 0.0 else 1.0
    sy = sy if sy > 0.0 else 1.0
    xs = (xa - mx) / sx
    ys = (ya - my) / sy
    V = np.vander(xs, degree + 1, increasing=True)
    if ridge == 0.0:
        coef, _, rank, _ = np.linalg.lstsq(V, ys, rcond=None)
        if rank < degree + 1:
            raise SingularSystem(
                f"design matrix has rank {rank} < {degree + 1}; use ridge > 0"
            )
    else:
        A = V.T @ V + ridge * np.eye(degree + 1)
        coef = scipy.linalg.solve(A, V.T @ ys, assume_a="pos")
    return PolyFit(coefficients=coef, input_mean=mx, input_scale=sx,
                   output_mean=my, output_scale=sy)


def residuals(sample: PairedSample, fit: PolyFit, direction: str) -> np.ndarray:
    """Residuals of ``fit`` on a pair, in the given direction.

    ``'x->y'`` returns y - fit(x); ``'y->x'`` returns x - fit(y).
    """
    if direction == _DIRECTION_XY:
        return sample.y - fit.predict(sample.x)
    if direction == _DIRECTION_YX:
        return sample.x - fit.predict(sample.y)
    raise InputError(f"direction must be 'x->y' or 'y->x', got {direction!r}")


def _union_at(effect: np.ndarray, fitted: np.ndarray, resid: np.ndarray,
              idx: np.ndarray) -> np.ndarray:
    """Entries ``idx`` of concat(effect, add.outer(fitted, resid).ravel()),
    computed without building the product grid."""
    e, r = effect.shape[0], resid.shape[0]
    out = np.empty(idx.shape[0])
    in_effect = idx < e
    out[in_effect] = effect[idx[in_effect]]
    g = idx[~in_effect] - e
    out[~in_effect] = fitted[g // r] + resid[g % r]
    return out


def _pick_bandwidth(effect: np.ndarray, fitted: np.ndarray, resid: np.ndarray,
                    cap: int, seed: int) -> float:
    total = effect.shape[0] + fitted.shape[0] * resid.shape[0]
    if total > cap:
        rng = np.random.default_rng([seed, 101])
        idx = rng.choice(total, size=cap, replace=False)
    else:
        idx = np.arange(total)
    try:
        return median_heuristic(_union_at(effect, fitted, resid, idx))
    except NoDistinctPairs:
        # The subsample collapsed onto one value; fall back to the
        # distinct values of the full union (capped by striding).
        grid = np.add.outer(np.unique(fitted), np.unique(resid)).ravel()
        uniq = np.unique(np.concatenate([effect, grid]))
        if uniq.shape[0] > cap:
            uniq = uniq[:: max(1, uniq.shape[0] // cap)]
        return median_heuristic(uniq)


def _char_mean(rmap: RffMap, values: np.ndarray) -> np.ndarray:
    """Mean of exp(i w v) / sqrt(D) over ``values``, one entry per
    frequency w: the cosine and sine halves of the mean feature vector
    as real and imaginary parts."""
    f = rff_feature_matrix(rmap, values).mean(axis=0)
    D = rmap.n_features
    return f[:D] + 1j * f[D:]


def anm_delta(cause, effect, fit: PolyFit, resid, spec: KernelSpec | None = None,
              mode: str = "exact", n_rff: int = 100, seed: int = 0,
              bandwidth_points: int = 2000) -> float:
    """Squared discrepancy between the effect sample's embedding and the
    additive-noise reconstruction fit(cause_i) + resid_j.

    The reconstruction runs over all (i, j) combinations, so its support
    has m * r points for m = len(cause) and r = len(resid). ``spec=None``
    selects a Gaussian bandwidth by the median heuristic over effect and
    reconstruction points jointly (subsampled to ``bandwidth_points``).
    ``mode='exact'`` builds the m * r grid and takes ``mmd_sq`` of it,
    which for a Gaussian kernel goes through the spectral backend at
    O((len(effect) + m * r) * Q) for Q frequency nodes, and costs
    O((m * r)^2) as tiles otherwise. ``mode='rff'`` approximates with
    ``n_rff`` random Fourier features and never builds the grid: the
    reconstruction's terms are independent, so its feature mean is the
    product of the feature means of the fitted values and of the
    residuals, and the cost is O((len(effect) + m + r) * n_rff).
    If every effect and reconstruction point coincides the discrepancy
    is exactly zero and is returned without picking a bandwidth.
    """
    ca = np.asarray(cause, dtype=np.float64).reshape(-1)
    ea = np.asarray(effect, dtype=np.float64).reshape(-1)
    ra = np.asarray(resid, dtype=np.float64).reshape(-1)
    if ca.shape[0] == 0 or ea.shape[0] == 0 or ra.shape[0] == 0:
        raise InputError("anm_delta needs nonempty cause, effect, and residual arrays")
    if mode not in ("exact", "rff"):
        raise InputError(f"mode must be 'exact' or 'rff', got {mode!r}")

    fitted = fit.predict(ca)
    # Rounding is monotone, so the grid's extremes are the sums of the
    # extremes of its two factors.
    lo = min(ea.min(), fitted.min() + ra.min())
    hi = max(ea.max(), fitted.max() + ra.max())
    if lo == hi:
        return 0.0

    if spec is None:
        spec = KernelSpec.gaussian(_pick_bandwidth(ea, fitted, ra, bandwidth_points, seed))

    if mode == "exact":
        mu_eff = embed_sample(ea, spec)
        mu_rec = embed_sample(np.add.outer(fitted, ra).ravel(), spec)
        return mmd_sq(mu_eff, mu_rec)

    if spec.kind != GAUSSIAN:
        raise InputError("rff mode needs a gaussian kernel")
    rff_seed = int(np.random.SeedSequence([seed, 202]).generate_state(1)[0])
    rmap = rff_build(spec.sigma, n_rff, 1, rff_seed)
    recon = math.sqrt(rmap.n_features) * _char_mean(rmap, fitted) * _char_mean(rmap, ra)
    d = _char_mean(rmap, ea) - recon
    return float(np.sum(d.real ** 2 + d.imag ** 2))


def decide(delta_xy: float, delta_yx: float, abstain_margin: float = 0.0) -> str:
    """Direction with the smaller score; 'abstain' on a tie or when the
    gap is below ``abstain_margin``."""
    if delta_xy == delta_yx or abs(delta_xy - delta_yx) < abstain_margin:
        return _ABSTAIN
    return _DIRECTION_XY if delta_xy < delta_yx else _DIRECTION_YX


@dataclass(frozen=True)
class AnmConfig:
    """Settings for scoring a pair in both directions."""

    degree: int = 4
    mode: str = "rff"
    n_rff: int = 100
    abstain_margin: float = 0.0
    split_fit: bool = False
    ridge: float = 0.0
    kernel: KernelSpec | None = None
    bandwidth_points: int = 2000
    seed: int = 0


@dataclass(frozen=True)
class AnmReport:
    """Scores and decision for one pair."""

    pair_id: str
    delta_xy: float
    delta_yx: float
    margin: float
    decision: str
    ground_truth: str | None = None


def pair_seed(global_seed: int, pair_id: str) -> int:
    """Stable per-pair seed derived by hashing (unlike Python's salted hash)."""
    return derive_seed(global_seed, pair_id)


def infer_pair(sample: PairedSample, config: AnmConfig = AnmConfig()) -> AnmReport:
    """Score both directions of a pair and decide.

    With ``split_fit`` the first half of the rows fits the polynomials
    and the second half supplies residuals and scores; otherwise the
    whole sample does both. Both directions share the same derived seed
    so that swapping x and y swaps the two scores exactly.
    """
    seed = pair_seed(config.seed, sample.pair_id)
    x, y = sample.x, sample.y
    if config.split_fit:
        mid = sample.size // 2
        if mid < config.degree + 1:
            raise InputError(
                f"pair {sample.pair_id!r}: {sample.size} rows is too few to split-fit "
                f"a degree-{config.degree} polynomial"
            )
        xf, yf = x[:mid], y[:mid]
        xe, ye = x[mid:], y[mid:]
    else:
        xf, yf, xe, ye = x, y, x, y

    f = polyfit(xf, yf, config.degree, ridge=config.ridge)
    u = ye - f.predict(xe)
    delta_xy = anm_delta(xe, ye, f, u, spec=config.kernel, mode=config.mode,
                         n_rff=config.n_rff, seed=seed,
                         bandwidth_points=config.bandwidth_points)

    g = polyfit(yf, xf, config.degree, ridge=config.ridge)
    v = xe - g.predict(ye)
    delta_yx = anm_delta(ye, xe, g, v, spec=config.kernel, mode=config.mode,
                         n_rff=config.n_rff, seed=seed,
                         bandwidth_points=config.bandwidth_points)

    return AnmReport(
        pair_id=sample.pair_id,
        delta_xy=delta_xy,
        delta_yx=delta_yx,
        margin=abs(delta_xy - delta_yx),
        decision=decide(delta_xy, delta_yx, config.abstain_margin),
        ground_truth=sample.ground_truth,
    )


def forced_decision(report: AnmReport) -> str:
    """The no-abstain decision implied by a report's scores."""
    return decide(report.delta_xy, report.delta_yx, abstain_margin=0.0)


def accuracy_curve(reports: list[AnmReport]) -> list[tuple[float, float]]:
    """Accuracy when only the k most confident pairs are decided.

    Pairs are ranked by margin (descending, pair id breaking ties) and
    forced to a decision; for each k from n down to 1 the pair
    (k/n, accuracy over the top k) is emitted. Needs ground truth on
    every report. A zero-margin forced tie counts as incorrect.
    """
    if not reports:
        raise InputError("accuracy_curve needs at least one report")
    for r in reports:
        if r.ground_truth is None:
            raise InputError(f"pair {r.pair_id!r} lacks ground truth")
    ranked = sorted(reports, key=lambda r: (-r.margin, r.pair_id))
    n = len(ranked)
    correct = np.cumsum([1 if forced_decision(r) == r.ground_truth else 0
                         for r in ranked])
    return [(k / n, float(correct[k - 1]) / k) for k in range(n, 0, -1)]
