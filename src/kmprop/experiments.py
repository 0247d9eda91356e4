"""Reproducible experiment harnesses behind the command-line interface.

``run_synth`` measures convergence of three estimators of the embedding
of f(X, Y) for independent Gaussians against a large product-grid proxy
for the truth; ``run_pairs`` scores a directory of cause-effect pairs.
Every random draw is keyed by (seed, m, repetition, stream) so records
are reproducible independently of execution order.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .anm import AnmConfig, AnmReport, PairedSample, accuracy_curve, infer_pair
from .embedding import WeightedExpansion, embed_sample
from .errors import InputError, ParseError, TooFewRows
from .kernels import KernelSpec, eval_kernel, median_heuristic, quad_form, spectral_mmd_sq
from .propagate import BUILTIN_FUNCTIONS, apply_binary, apply_paired
from .reduce import reduce_random

_ESTIMATORS = ("mu1", "mu2", "mu3")
_BINARY_OPS = ("add", "sub", "mul", "div", "pow")

# random streams per (seed, m, repetition)
_STREAM_SAMPLE = 0
_STREAM_PROXY = 1
_STREAM_REDUCE = 2
_STREAM_BANDWIDTH = 3

# Draws feeding div/pow are resampled until they clear this margin, so
# the product grid never hits the functions' domain guards.
_GUARD_MARGIN = 1e-6


@dataclass(frozen=True)
class SynthConfig:
    """Settings for the synthetic convergence run.

    X ~ N(x_mean, x_sd^2) and Y ~ N(y_mean, y_sd^2) are independent;
    ``operation`` combines them pointwise. The proxy for the true
    embedding of f(X, Y) is, with ``proxy_kind="grid"``, the product
    grid of ``proxy_size`` draws per input (proxy_size^2 terms but only
    proxy_size independent draws each way, so its own squared error is
    O(1/proxy_size)); with ``proxy_kind="paired"`` it is the uniform
    embedding of ``proxy_size`` aligned pairs, whose error is
    O(1/proxy_size) in the *term count* and therefore the right
    reference when m approaches or exceeds proxy_size. ``mu1`` is the
    product-grid estimator on the sample, ``mu2`` re-fits each input
    onto ceil(reduced_fraction * m) points before combining, ``mu3``
    uses only the m aligned pairs.
    """

    operation: str = "mul"
    m_values: tuple[int, ...] = (10, 20, 30, 40, 50)
    repetitions: int = 30
    proxy_size: int = 100
    proxy_kind: str = "grid"
    reduced_fraction: float = 0.4
    # Tikhonov level for the mu2 input re-fits, in units of the mean
    # kernel diagonal. Much stiffer than the reduce-module default on
    # purpose: an ill-conditioned input Gram yields re-fit coefficients
    # with huge alternating entries whose cancellation holds in the
    # *input* RKHS but not after a nonlinear output map (x^y can turn a
    # 1e-4 input-norm residual into an output-norm blowup). The re-fit
    # only has to track the input embedding to well below the O(1/m)
    # sampling error, which 1e-4 comfortably does.
    refit_ridge: float = 1e-4
    estimators: tuple[str, ...] = _ESTIMATORS
    x_mean: float = 3.0
    x_sd: float = math.sqrt(0.5)
    y_mean: float = 4.0
    y_sd: float = math.sqrt(0.5)
    seed: int = 0
    bandwidth_points: int = 2000
    # None selects a Gaussian kernel by the median heuristic (on the
    # proxy grid for outputs, per input for mu2's re-fit); a fixed
    # KernelSpec is used everywhere instead.
    kernel: KernelSpec | None = None

    def __post_init__(self):
        if self.kernel is not None and not isinstance(self.kernel, KernelSpec):
            raise InputError(f"kernel must be a KernelSpec or None, got {self.kernel!r}")
        if self.operation not in _BINARY_OPS:
            raise InputError(
                f"operation must be one of {_BINARY_OPS}, got {self.operation!r}"
            )
        if not self.m_values or any(int(m) != m or m < 2 for m in self.m_values):
            raise InputError(f"m_values must be integers >= 2, got {self.m_values!r}")
        if self.repetitions < 1:
            raise InputError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.proxy_size < 2:
            raise InputError(f"proxy_size must be >= 2, got {self.proxy_size}")
        if self.proxy_kind not in ("grid", "paired"):
            raise InputError(
                f"proxy_kind must be 'grid' or 'paired', got {self.proxy_kind!r}"
            )
        if not (0.0 < self.reduced_fraction <= 1.0):
            raise InputError(
                f"reduced_fraction must be in (0, 1], got {self.reduced_fraction}"
            )
        if not self.refit_ridge >= 0.0:
            raise InputError(f"refit_ridge must be >= 0, got {self.refit_ridge}")
        bad = [e for e in self.estimators if e not in _ESTIMATORS]
        if bad or not self.estimators:
            raise InputError(
                f"estimators must be a nonempty subset of {_ESTIMATORS}, got {self.estimators!r}"
            )
        if not (self.x_sd > 0 and self.y_sd > 0):
            raise InputError("x_sd and y_sd must be positive")


@dataclass(frozen=True)
class RunRecord:
    """One estimator's loss at one (m, repetition).

    ``wall_time`` is the time in seconds spent building the estimator
    (its input embeddings included) plus its share, by point count, of
    scoring the replicate. The proxy's build and its share of the
    scoring, its transform shared by every estimator, are left out.
    It is kept in memory for profiling but never serialized, so written
    outputs are byte-for-byte reproducible.
    """

    estimator: str
    m: int
    repetition: int
    loss: float
    wall_time: float


def _draw(rng: np.random.Generator, n: int, mean: float, sd: float, guard=None) -> np.ndarray:
    vals = rng.normal(mean, sd, n)
    if guard is not None:
        bad = ~guard(vals)
        while np.any(bad):
            vals[bad] = rng.normal(mean, sd, int(bad.sum()))
            bad = ~guard(vals)
    return vals


def _guards(operation: str):
    gx = gy = None
    if operation == "div":
        gy = lambda v: np.abs(v) > _GUARD_MARGIN
    elif operation == "pow":
        gx = lambda v: v > _GUARD_MARGIN
    return gx, gy


def _stream(config: SynthConfig, m: int, rep: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([config.seed, m, rep, tag]))


def _loss_sq(spec: KernelSpec, mu: WeightedExpansion,
             proxy_pts: np.ndarray, proxy_w: np.ndarray, proxy_norm: float) -> float:
    v = (quad_form(spec, mu.points, mu.weights, dtype=np.float32)
         - 2.0 * quad_form(spec, mu.points, mu.weights, proxy_pts, proxy_w,
                           dtype=np.float32)
         + proxy_norm)
    return max(v, 0.0)


def _score(spec: KernelSpec, mus: list[WeightedExpansion],
           proxy_pts: np.ndarray, proxy_w: np.ndarray) -> list[float]:
    """Squared distance of each estimator to the proxy.

    The spectral backend transforms the proxy once for all of them and
    gives float64 squared MMD, nonnegative by construction. Otherwise
    each estimator pays float32 self and cross terms against one
    float32 proxy norm, clamped at zero.
    """
    losses = spectral_mmd_sq(spec, proxy_pts, proxy_w, [(mu.points, mu.weights) for mu in mus])
    if losses is not None:
        return losses
    proxy_norm = quad_form(spec, proxy_pts, proxy_w, dtype=np.float32)
    return [_loss_sq(spec, mu, proxy_pts, proxy_w, proxy_norm) for mu in mus]


def run_synth(config: SynthConfig) -> list[RunRecord]:
    """Run the convergence experiment and return records sorted by
    (m, repetition, estimator)."""
    f = BUILTIN_FUNCTIONS[config.operation]
    gx, gy = _guards(config.operation)
    m_values = tuple(sorted(int(m) for m in config.m_values))
    estimators = tuple(e for e in _ESTIMATORS if e in config.estimators)
    records: list[RunRecord] = []

    for m in m_values:
        for rep in range(config.repetitions):
            rng_proxy = _stream(config, m, rep, _STREAM_PROXY)
            px = _draw(rng_proxy, config.proxy_size, config.x_mean, config.x_sd, gx)
            py = _draw(rng_proxy, config.proxy_size, config.y_mean, config.y_sd, gy)
            # Placeholder kernel for grid construction; the bandwidth is
            # chosen from the resulting proxy points, then attached.
            tmp_spec = KernelSpec.gaussian(1.0)
            if config.proxy_kind == "paired":
                proxy_tmp = apply_paired(px, py, f, tmp_spec)
            else:
                proxy_tmp = apply_binary(embed_sample(px, tmp_spec),
                                         embed_sample(py, tmp_spec), f, tmp_spec)
            ppts = proxy_tmp.points
            if config.kernel is not None:
                out_spec = config.kernel
            else:
                if ppts.shape[0] > config.bandwidth_points:
                    rng_band = _stream(config, m, rep, _STREAM_BANDWIDTH)
                    sub = ppts[rng_band.choice(ppts.shape[0], config.bandwidth_points,
                                               replace=False)]
                else:
                    sub = ppts
                out_spec = KernelSpec.gaussian(median_heuristic(sub))

            rng_est = _stream(config, m, rep, _STREAM_SAMPLE)
            X = _draw(rng_est, m, config.x_mean, config.x_sd, gx)
            Y = _draw(rng_est, m, config.y_mean, config.y_sd, gy)

            # mu1 and mu2 start from the same input embeddings; each
            # one's build time includes them.
            t0 = time.perf_counter()
            inputs = (_embed_inputs(X, Y, config)
                      if "mu1" in estimators or "mu2" in estimators else None)
            inputs_time = time.perf_counter() - t0
            mus, build_times = [], []
            for est in estimators:
                t0 = time.perf_counter()
                mus.append(_build_estimator(est, X, Y, inputs, f, out_spec, config, m, rep))
                build_times.append(time.perf_counter() - t0
                                   + (inputs_time if est != "mu3" else 0.0))
            t0 = time.perf_counter()
            losses = _score(out_spec, mus, ppts, proxy_tmp.weights)
            per_point = (time.perf_counter() - t0) / (ppts.shape[0] + sum(mu.size for mu in mus))
            for est, mu, loss, tb in zip(estimators, mus, losses, build_times):
                records.append(RunRecord(estimator=est, m=m, repetition=rep, loss=loss,
                                         wall_time=tb + per_point * mu.size))
    records.sort(key=lambda r: (r.m, r.repetition, _ESTIMATORS.index(r.estimator)))
    return records


def _embed_inputs(X: np.ndarray, Y: np.ndarray,
                  config: SynthConfig) -> tuple[WeightedExpansion, WeightedExpansion]:
    """The input embeddings mu1 and mu2 both start from."""
    if config.kernel is not None:
        spec_x = spec_y = config.kernel
    else:
        spec_x = KernelSpec.gaussian(median_heuristic(X))
        spec_y = KernelSpec.gaussian(median_heuristic(Y))
    return embed_sample(X, spec_x), embed_sample(Y, spec_y)


def _build_estimator(est: str, X: np.ndarray, Y: np.ndarray, inputs, f,
                     out_spec: KernelSpec, config: SynthConfig,
                     m: int, rep: int) -> WeightedExpansion:
    if est == "mu3":
        return apply_paired(X, Y, f, out_spec)
    mu_x, mu_y = inputs
    if est == "mu2":
        target = math.ceil(config.reduced_fraction * m)
        rng = _stream(config, m, rep, _STREAM_REDUCE)
        sx, sy = (int(s) for s in rng.integers(0, 2 ** 63, size=2))
        rx = config.refit_ridge * _mean_self_kernel(mu_x.spec, mu_x.points)
        ry = config.refit_ridge * _mean_self_kernel(mu_y.spec, mu_y.points)
        mu_x = reduce_random(mu_x, target, ridge=rx, seed=sx,
                             compute_error=False).reduced
        mu_y = reduce_random(mu_y, target, ridge=ry, seed=sy,
                             compute_error=False).reduced
    return apply_binary(mu_x, mu_y, f, out_spec)


def _mean_self_kernel(spec: KernelSpec, points: np.ndarray, cap: int = 64) -> float:
    """Mean of k(z, z), the scale the re-fit ridge is expressed in."""
    if spec.kind == "gaussian":
        return 1.0
    sub = points[:: max(1, points.shape[0] // cap)]
    return float(np.mean([eval_kernel(spec, p, p) for p in sub]))


# ---------------------------------------------------------------------------
# cause-effect pair runs


def ingest_pair_file(path, pair_id: str | None = None,
                     ground_truth: str | None = None) -> PairedSample:
    """Read a two-column whitespace-separated pair file.

    Blank lines are skipped and extra columns ignored; a malformed row
    raises :class:`ParseError` naming the file and line. Fewer than
    five usable rows raises :class:`TooFewRows`.
    """
    xs, ys = [], []
    try:
        fh = open(path)
    except OSError as e:
        raise InputError(f"cannot read pair file {path}: {e}") from e
    with fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise ParseError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
            try:
                xs.append(float(parts[0]))
                ys.append(float(parts[1]))
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: could not parse {parts[0]!r} {parts[1]!r} as numbers"
                ) from None
    if len(xs) < 5:
        raise TooFewRows(f"{path}: {len(xs)} usable rows, need at least 5")
    if pair_id is None:
        pair_id = os.path.splitext(os.path.basename(str(path)))[0]
    return PairedSample(x=np.array(xs), y=np.array(ys), pair_id=pair_id,
                        ground_truth=ground_truth)


def read_metadata(path) -> list[tuple[str, str]]:
    """Read a pair metadata CSV with header pair_id,ground_truth."""
    try:
        fh = open(path, newline="")
    except OSError as e:
        raise InputError(f"cannot read metadata file {path}: {e}") from e
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["pair_id", "ground_truth"]:
            raise InputError(
                f"{path}: metadata must start with a 'pair_id,ground_truth' header"
            )
        out = []
        for lineno, row in enumerate(reader, start=2):
            if not row or not "".join(row).strip():
                continue
            if len(row) < 2:
                raise ParseError(f"{path}:{lineno}: expected pair_id,ground_truth")
            out.append((row[0].strip(), row[1].strip()))
    if not out:
        raise InputError(f"{path}: metadata lists no pairs")
    return out


def _resolve_pair_path(data_dir, pair_id: str) -> str:
    for candidate in (os.path.join(data_dir, f"{pair_id}.txt"),
                      os.path.join(data_dir, pair_id)):
        if os.path.isfile(candidate):
            return candidate
    raise InputError(f"no data file for pair {pair_id!r} under {data_dir}")


def run_pairs(data_dir, meta_path, config: AnmConfig = AnmConfig()
              ) -> tuple[list[AnmReport], list[tuple[float, float]]]:
    """Score every pair listed in the metadata file.

    Returns the per-pair reports (metadata order) and the accuracy
    versus decision-rate curve over all pairs.
    """
    entries = read_metadata(meta_path)
    reports = []
    for pair_id, truth in entries:
        sample = ingest_pair_file(_resolve_pair_path(data_dir, pair_id),
                                  pair_id=pair_id, ground_truth=truth)
        reports.append(infer_pair(sample, config))
    return reports, accuracy_curve(reports)


# ---------------------------------------------------------------------------
# deterministic serialization


def records_to_csv(records: list[RunRecord]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["estimator", "m", "repetition", "loss"])
    for r in records:
        w.writerow([r.estimator, r.m, r.repetition, repr(float(r.loss))])
    return buf.getvalue()


def records_to_json(records: list[RunRecord]) -> list[dict]:
    return [{"estimator": r.estimator, "m": r.m, "repetition": r.repetition,
             "loss": r.loss} for r in records]


def summarize_records(records: list[RunRecord]) -> str:
    """Per-(estimator, m) mean and sample standard deviation of the loss."""
    groups: dict[tuple[str, int], list[float]] = {}
    for r in records:
        groups.setdefault((r.estimator, r.m), []).append(r.loss)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["estimator", "m", "mean_loss", "sd_loss", "n"])
    for (est, m) in sorted(groups, key=lambda k: (_ESTIMATORS.index(k[0]), k[1])):
        losses = np.array(groups[(est, m)])
        sd = float(np.std(losses, ddof=1)) if losses.size > 1 else 0.0
        w.writerow([est, m, repr(float(np.mean(losses))), repr(sd), losses.size])
    return buf.getvalue()


def reports_to_csv(reports: list[AnmReport]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["pair_id", "delta_xy", "delta_yx", "margin", "decision",
                "ground_truth", "correct"])
    for r in reports:
        correct = "" if r.ground_truth is None else int(r.decision == r.ground_truth)
        w.writerow([r.pair_id, repr(r.delta_xy), repr(r.delta_yx), repr(r.margin),
                    r.decision, r.ground_truth or "", correct])
    return buf.getvalue()


def curve_to_csv(curve: list[tuple[float, float]]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["decision_rate", "accuracy"])
    for rate, acc in curve:
        w.writerow([repr(float(rate)), repr(float(acc))])
    return buf.getvalue()
