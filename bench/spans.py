"""Spans around kmprop's public functions, recorded from outside.

:class:`Tracer` replaces each traced function wherever a ``kmprop``
module holds it, so ``kmprop.experiments.quad_form`` and
``kmprop.embedding.quad_form`` are wrapped as well as
``kmprop.kernels.quad_form``. Spans are kept in memory: name, start,
end, parent span and the operation they belong to. Counts are computed
from argument shapes, not measured inside the program.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np


def _rows(a) -> int:
    return int(np.shape(a)[0]) if np.ndim(a) else 1


def _count_quad_form(a, result):
    n = _rows(a["X"])
    m = n if a.get("Y") is None else _rows(a["Y"])
    return {"evals": n * m}


def _count_median(a, result):
    n = _rows(a["points"])
    return {"pairs": n * (n - 1) // 2}


def _count_rff(a, result):
    return {"evals": _rows(a["X"]) * a["rmap"].feature_dim}


def _count_gram(a, result):
    n = _rows(a["X"])
    m = n if a.get("Y") is None else _rows(a["Y"])
    return {"bytes": 8 * n * m}


def _count_anm(a, result):
    return {"recon_points": np.size(a["cause"]) * np.size(a["resid"])}


def _count_reduce(a, result):
    t = int(a["target"])
    return {"gram_bytes": 8 * t * (a["mu"].size + t),
            "lstsq_fallbacks": int(result.solver == "lstsq")}


def _count_apply_nary(a, result):
    return {"grid_points": math.prod(mu.size for mu in a["means"])}


# module, function, counter, and the names of the counts the counter
# returns; those names are part of the per-layer metric names.
TRACED = (
    ("kernels", "quad_form", _count_quad_form, ("evals",)),
    ("kernels", "median_heuristic", _count_median, ("pairs",)),
    ("kernels", "rff_feature_matrix", _count_rff, ("evals",)),
    ("kernels", "gram", _count_gram, ("bytes",)),
    ("embedding", "mmd_sq", None, ()),
    ("embedding", "load", None, ()),
    ("embedding", "save", None, ()),
    ("propagate", "apply_nary", _count_apply_nary, ("grid_points",)),
    ("propagate", "apply_paired", None, ()),
    ("reduce", "reduce_random", _count_reduce, ("gram_bytes", "lstsq_fallbacks")),
    ("anm", "anm_delta", _count_anm, ("recon_points",)),
    ("anm", "polyfit", None, ()),
    ("anm", "infer_pair", None, ()),
    ("dsl", "evaluate", None, ()),
    ("dsl", "parse_text", None, ()),
    ("experiments", "run_synth", None, ()),
    ("experiments", "ingest_pair_file", None, ()),
    ("cli", "main", None, ()),
)

# Sampled quad_form calls are re-done by the benchmark's own float64
# sum after the traced phase: every QUAD_SAMPLE_EVERY-th call, at most
# QUAD_SAMPLE_MAX of them. The stride is prime to the calls per
# operation of every workload (35 and 5), so the samples fall on
# different calls of an operation.
QUAD_SAMPLE_EVERY = 11
QUAD_SAMPLE_MAX = 6


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self.quad_calls = 0
        self.quad_samples: list[tuple] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn, counter):
        sig = inspect.signature(fn)
        is_quad = name == "kernels.quad_form"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, v in counter(bound.arguments, result).items():
                    self.counts[f"{name}.{key}"] += v
                if is_quad:
                    self._sample_quad(bound.arguments, result)
            return result

        return traced

    def _sample_quad(self, a, result):
        k = self.quad_calls
        self.quad_calls += 1
        if k % QUAD_SAMPLE_EVERY or len(self.quad_samples) >= QUAD_SAMPLE_MAX:
            return
        copy = lambda v: None if v is None else np.array(v, dtype=np.float64)
        self.quad_samples.append((a["spec"], copy(a["X"]), copy(a["wx"]), copy(a["Y"]),
                                  copy(a["wy"]), np.dtype(a["dtype"]), float(result)))

    def install(self) -> None:
        for mod_name, fn_name, counter, _ in TRACED:
            fn = getattr(sys.modules[f"kmprop.{mod_name}"], fn_name)
            traced = self._wrap(f"{mod_name}.{fn_name}", fn, counter)
            for key, mod in list(sys.modules.items()):
                if key != "kmprop" and not key.startswith("kmprop."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, attr, fn))
                        setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, busy_s and self_s per traced function, summed over spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {f"{m}.{f}": {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for m, f, _, _ in TRACED}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            s = out[name]
            s["calls"] += 1
            s["busy_s"] += t1 - t0
            s["self_s"] += (t1 - t0) - child[i]
        return out

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": t0, "end": t1, "parent": p, "op": op}
                for n, t0, t1, p, op in self.spans]
