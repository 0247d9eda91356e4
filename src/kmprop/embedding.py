"""Weighted expansions representing kernel mean embeddings.

A distribution's mean embedding is approximated by a finite expansion
``sum_i w_i k(x_i, .)``. This module provides the expansion container,
inner products and squared MMD between expansions, expectation of
expansion-represented functions, a finite-sample error bound for the
empirical mean embedding, and CSV/JSON (de)serialization.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from .errors import (
    DimensionMismatch,
    InputError,
    KernelMismatch,
    NumericalError,
)
from .kernels import KernelSpec, as_points, quad_form

# mmd_sq clamps negative round-off to zero when it is within this share
# of |<a,a>| + 2|<a,b>| + |<b,b>|, the size of the terms it cancels;
# anything lower indicates a real numerical problem and raises instead.
_MMD_REL_FLOOR = 1e-10


class WeightedExpansion:
    """Finite expansion sum_i weights[i] * k(points[i], .).

    Weights are arbitrary reals (not constrained to a simplex) and the
    points/weights arrays are frozen after construction.
    """

    __slots__ = ("points", "weights", "spec")

    def __init__(self, points, weights, spec: KernelSpec):
        P = as_points(points)
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if P.shape[0] != w.shape[0]:
            raise DimensionMismatch(
                f"{P.shape[0]} points but {w.shape[0]} weights"
            )
        if P.shape[0] == 0:
            raise InputError("an expansion needs at least one point")
        if not np.all(np.isfinite(w)):
            raise InputError("weights contain non-finite values")
        if not isinstance(spec, KernelSpec):
            raise InputError(f"spec must be a KernelSpec, got {type(spec).__name__}")
        P.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", P)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "spec", spec)

    def __setattr__(self, name, value):
        raise AttributeError("WeightedExpansion is immutable")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __repr__(self) -> str:
        return (
            f"WeightedExpansion(size={self.size}, dim={self.dim}, "
            f"spec={self.spec.to_dict()})"
        )


def embed_sample(sample, spec: KernelSpec) -> WeightedExpansion:
    """Empirical mean embedding: uniform weights 1/m on the sample points."""
    P = as_points(sample)
    m = P.shape[0]
    if m == 0:
        raise InputError("embed_sample needs a nonempty sample")
    return WeightedExpansion(P, np.full(m, 1.0 / m), spec)


def _check_compatible(a: WeightedExpansion, b: WeightedExpansion) -> None:
    if a.spec != b.spec:
        raise KernelMismatch(
            f"kernels differ: {a.spec.to_dict()} vs {b.spec.to_dict()}"
        )
    if a.dim != b.dim:
        raise DimensionMismatch(f"point dimensions differ: {a.dim} vs {b.dim}")


def inner(a: WeightedExpansion, b: WeightedExpansion) -> float:
    """RKHS inner product <a, b> = sum_ij a.w[i] b.w[j] k(a.x[i], b.x[j])."""
    _check_compatible(a, b)
    if a is b:
        return quad_form(a.spec, a.points, a.weights)
    return quad_form(a.spec, a.points, a.weights, b.points, b.weights)


def mmd_sq(a: WeightedExpansion, b: WeightedExpansion) -> float:
    """Squared RKHS distance ||a - b||^2.

    Round-off can push the exact-zero case slightly negative, by an
    amount that grows with the three terms being cancelled. Negative
    values within 1e-10 * (|<a,a>| + 2|<a,b>| + |<b,b>|) are clamped to
    0 and anything lower raises :class:`NumericalError`.
    """
    aa, ab, bb = inner(a, a), inner(a, b), inner(b, b)
    v = aa - 2.0 * ab + bb
    if v < 0.0:
        floor = -_MMD_REL_FLOOR * (abs(aa) + 2.0 * abs(ab) + abs(bb))
        if v < floor:
            raise NumericalError(f"squared MMD came out {v}, below the clamp floor {floor}")
        return 0.0
    return v


def expect_function(mu: WeightedExpansion, f: WeightedExpansion) -> float:
    """Expectation of the function represented by expansion ``f`` under ``mu``.

    For f = sum_j c_j k(z_j, .) this is sum_i sum_j w_i c_j k(x_i, z_j),
    i.e. the reproducing-property pairing <mu, f>.
    """
    return inner(mu, f)


def error_bound(m: int, trace_k: float, delta: float) -> float:
    """High-probability bound on the empirical embedding error.

    With probability at least 1 - delta over an i.i.d. sample of size m,
    the RKHS distance between the empirical and true embeddings is at
    most ``(2/m) sqrt(trace_k) + sqrt(2 log(2/delta) / m)`` where
    ``trace_k`` is (an upper bound on) the expected trace of the m x m
    Gram matrix of the sample.
    """
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise InputError(f"error_bound needs integer m >= 1, got {m!r}")
    if not (math.isfinite(trace_k) and trace_k >= 0):
        raise InputError(f"error_bound needs trace_k >= 0, got {trace_k!r}")
    if not (0.0 < delta < 1.0):
        raise InputError(f"error_bound needs 0 < delta < 1, got {delta!r}")
    return (2.0 / m) * math.sqrt(trace_k) + math.sqrt(2.0 * math.log(2.0 / delta) / m)


def combine(a: WeightedExpansion, b: WeightedExpansion,
            weight_a: float = 1.0, weight_b: float = 1.0) -> WeightedExpansion:
    """Linear combination weight_a * a + weight_b * b by concatenation."""
    _check_compatible(a, b)
    points = np.vstack([a.points, b.points])
    weights = np.concatenate([weight_a * a.weights, weight_b * b.weights])
    return WeightedExpansion(points, weights, a.spec)


def canonicalize(mu: WeightedExpansion) -> WeightedExpansion:
    """Merge duplicate points, summing their weights.

    The result represents the same RKHS element; point order follows
    numpy's lexicographic row ordering.
    """
    uniq, inverse = np.unique(mu.points, axis=0, return_inverse=True)
    if uniq.shape[0] == mu.size:
        return mu
    weights = np.bincount(inverse.reshape(-1), weights=mu.weights,
                          minlength=uniq.shape[0])
    return WeightedExpansion(uniq, weights, mu.spec)


# ---------------------------------------------------------------------------
# serialization


def to_json_dict(mu: WeightedExpansion) -> dict:
    d = mu.spec.to_dict()
    d["weights"] = mu.weights.tolist()
    d["points"] = mu.points.tolist()
    return d


def from_json_dict(d: dict) -> WeightedExpansion:
    if not isinstance(d, dict):
        raise InputError(f"expected a JSON object, got {type(d).__name__}")
    for key in ("weights", "points"):
        if key not in d:
            raise InputError(f"expansion JSON is missing {key!r}")
    spec = KernelSpec.from_dict(d)
    return WeightedExpansion(d["points"], d["weights"], spec)


def dumps_json(mu: WeightedExpansion) -> str:
    return json.dumps(to_json_dict(mu))


def loads_json(text: str) -> WeightedExpansion:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid expansion JSON: {e}") from e
    return from_json_dict(d)


def dumps_csv(mu: WeightedExpansion) -> str:
    """CSV with a kernel header comment, then one row per expansion term.

    Floats are written with shortest round-trip repr, so writing and
    re-reading reproduces the expansion bit for bit.
    """
    buf = io.StringIO()
    buf.write(f"# kernel: {json.dumps(mu.spec.to_dict())}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["weight"] + [f"x{j}" for j in range(mu.dim)])
    for w, row in zip(mu.weights, mu.points):
        writer.writerow([repr(float(w))] + [repr(float(v)) for v in row])
    return buf.getvalue()


def loads_csv(text: str) -> WeightedExpansion:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# kernel:"):
        raise InputError("expansion CSV must start with a '# kernel:' header line")
    try:
        spec = KernelSpec.from_dict(json.loads(lines[0][len("# kernel:"):].strip()))
    except json.JSONDecodeError as e:
        raise InputError(f"invalid kernel header: {e}") from e
    reader = csv.reader(lines[1:])
    header = next(reader, None)
    if header is None or not header or header[0] != "weight":
        raise InputError("expansion CSV needs a 'weight,x0,...' column header")
    weights, points = [], []
    for lineno, row in enumerate(reader, start=3):
        if not row:
            continue
        try:
            weights.append(float(row[0]))
            points.append([float(v) for v in row[1:]])
        except ValueError as e:
            raise InputError(f"bad number on line {lineno}: {e}") from e
    if not weights:
        raise InputError("expansion CSV contains no rows")
    widths = {len(p) for p in points}
    if len(widths) != 1:
        raise InputError("expansion CSV rows have inconsistent dimensions")
    return WeightedExpansion(points, weights, spec)


def save(mu: WeightedExpansion, path, fmt: str | None = None) -> None:
    """Write an expansion to ``path`` as 'csv' or 'json' (inferred from
    the extension when ``fmt`` is None)."""
    fmt = _resolve_format(path, fmt)
    text = dumps_json(mu) if fmt == "json" else dumps_csv(mu)
    with open(path, "w") as fh:
        fh.write(text)
        if fmt == "json":
            fh.write("\n")


def load(path, fmt: str | None = None) -> WeightedExpansion:
    """Read an expansion written by :func:`save`."""
    fmt = _resolve_format(path, fmt)
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read expansion file {path}: {e}") from e
    return loads_json(text) if fmt == "json" else loads_csv(text)


def _resolve_format(path, fmt: str | None) -> str:
    if fmt is None:
        fmt = "json" if str(path).endswith(".json") else "csv"
    if fmt not in ("csv", "json"):
        raise InputError(f"unknown expansion format {fmt!r}; expected csv or json")
    return fmt
