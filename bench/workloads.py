"""The benchmark's four workloads.

Each workload builds its inputs from the run seed, runs one operation at
a time through kmprop's public API, and checks the outputs against a
computation made here (``reference.py``) or against a property the
method must have. Operations come in rounds; a run always completes
whole rounds, so every run attempts the same mix of operations.

kmprop functions are looked up on their module at call time
(``experiments.run_synth``, not a name bound at import), so that the
traced run sees the calls.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

import kmprop.anm as anm
import kmprop.cli as cli
import kmprop.datasets as datasets
import kmprop.dsl as dsl
import kmprop.embedding as embedding
import kmprop.experiments as experiments
import kmprop.kernels as kernels

import reference


def op_seed(seed: int, k: int) -> int:
    """Seed of operation k of a run; does not depend on the run length."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


class Workload:
    name = ""
    round_len = 1
    min_rounds = 1

    def setup(self, seed: int, workdir: str) -> None:
        """Generate the inputs and write any files the operations read."""

    def warm(self) -> None:
        """Run the operation's code path once on small inputs."""

    def op(self, k: int):
        """Run operation k and return its output."""
        raise NotImplementedError

    def check(self, k: int, out) -> list[str]:
        """Problems with the output of operation k (empty when correct)."""
        return []

    def check_run(self, outs: dict[int, object]) -> list[str]:
        """Problems visible only across the operations of a run."""
        return []

    def corrupt(self, out):
        """A wrong copy of an output, to show that :meth:`check` or
        :meth:`check_run` catches it."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class SynthGrid(Workload):
    name = "synth-grid"
    OPS = ("mul", "div", "pow")
    round_len = 3
    # The pooled checks need enough replicates. On replicates drawn
    # from a correct program they failed in 1 of 20 two-round pools and
    # in 1 of 2000 six-round pools.
    min_rounds = 7
    M_VALUES = (10, 20, 30, 40, 50)
    ESTIMATORS = ("mu1", "mu2", "mu3")

    def setup(self, seed, workdir):
        self.seed = seed

    def warm(self):
        experiments.run_synth(experiments.SynthConfig(
            operation="mul", m_values=(10,), repetitions=1, seed=0))

    def op(self, k):
        return experiments.run_synth(experiments.SynthConfig(
            operation=self.OPS[k % 3], repetitions=1, seed=op_seed(self.seed, k)))

    def check(self, k, records):
        problems = []
        keys = sorted((r.estimator, r.m) for r in records)
        want = sorted((e, m) for e in self.ESTIMATORS for m in self.M_VALUES)
        if keys != want:
            problems.append(f"op {k}: record keys {keys} != {want}")
        bad = [r for r in records if not (math.isfinite(r.loss) and r.loss >= 0.0)]
        if bad:
            problems.append(f"op {k}: {len(bad)} records with a negative or non-finite loss")
        return problems

    def check_run(self, outs):
        pooled: dict[tuple[str, int], list[float]] = {}
        for records in outs.values():
            for r in records:
                pooled.setdefault((r.estimator, r.m), []).append(r.loss)
        mean = lambda e, ms: float(np.mean([v for m in ms for v in pooled.get((e, m), [np.nan])]))
        problems = []
        lo, hi = min(self.M_VALUES), max(self.M_VALUES)
        for e in self.ESTIMATORS:
            if not mean(e, (hi,)) < mean(e, (lo,)):
                problems.append(f"{e}: pooled mean loss at m={hi} ({mean(e, (hi,)):.4g}) "
                                f"is not below m={lo} ({mean(e, (lo,)):.4g})")
        a, b = mean("mu1", self.M_VALUES), mean("mu2", self.M_VALUES)
        if not a <= b:
            problems.append(f"pooled mean loss of mu1 ({a:.4g}) exceeds mu2 ({b:.4g})")
        return problems

    def corrupt(self, records):
        # Negate the first record's loss.
        r = records[0]
        return [type(r)(r.estimator, r.m, r.repetition, -r.loss, r.wall_time)] + records[1:]


# ---------------------------------------------------------------------------


class PairsRff(Workload):
    name = "pairs-rff"
    round_len = 12
    MIN_CORRECT = 10
    SWAP_CHECKS = 2

    def setup(self, seed, workdir):
        self.seed = seed
        suite = datasets.synthetic_pair_suite(seed=seed)
        datasets.write_pair_dir(suite, os.path.join(workdir, "pairs"))
        self.pairs = [(s.pair_id, s.ground_truth, os.path.join(workdir, "pairs", f"{s.pair_id}.txt"))
                      for s in suite]

    def warm(self):
        pid, truth, path = self.pairs[0]
        s = experiments.ingest_pair_file(path, pair_id=pid, ground_truth=truth)
        anm.infer_pair(anm.PairedSample(s.x[:60], s.y[:60], pid, truth), anm.AnmConfig())

    def op(self, k):
        pid, truth, path = self.pairs[k % 12]
        sample = experiments.ingest_pair_file(path, pair_id=pid, ground_truth=truth)
        return anm.infer_pair(sample, anm.AnmConfig())

    def check(self, k, rep):
        pid = self.pairs[k % 12][0]
        problems = []
        if rep.pair_id != pid:
            problems.append(f"op {k}: report for {rep.pair_id!r}, expected {pid!r}")
        if rep.decision == "abstain":
            problems.append(f"op {k}: {pid} abstained")
        if not all(math.isfinite(v) and v >= 0.0 for v in (rep.delta_xy, rep.delta_yx)):
            problems.append(f"op {k}: {pid} has a negative or non-finite score")
        elif rep.decision != ("x->y" if rep.delta_xy < rep.delta_yx else "y->x"):
            problems.append(f"op {k}: {pid} decided {rep.decision} against its scores "
                            f"({rep.delta_xy!r}, {rep.delta_yx!r})")
        return problems

    def check_run(self, outs):
        problems = []
        for start in range(0, max(outs) + 1, 12):
            reps = [outs[k] for k in range(start, start + 12) if k in outs]
            correct = sum(r.decision == r.ground_truth for r in reps)
            if len(reps) == 12 and correct < self.MIN_CORRECT:
                problems.append(f"round at op {start}: {correct}/12 decisions correct, "
                                f"need {self.MIN_CORRECT}")
        # Scoring a pair with x and y swapped must swap its two scores exactly.
        rng = np.random.default_rng([self.seed, 7])
        for i in rng.choice(12, size=self.SWAP_CHECKS, replace=False):
            if int(i) not in outs:
                continue
            rep = outs[int(i)]
            pid, truth, path = self.pairs[int(i)]
            s = experiments.ingest_pair_file(path, pair_id=pid)
            swapped = anm.infer_pair(anm.PairedSample(s.y, s.x, pid), anm.AnmConfig())
            if (swapped.delta_xy, swapped.delta_yx) != (rep.delta_yx, rep.delta_xy):
                problems.append(f"{pid}: swapped scores ({swapped.delta_xy!r}, "
                                f"{swapped.delta_yx!r}) are not ({rep.delta_yx!r}, "
                                f"{rep.delta_xy!r})")
        return problems

    def corrupt(self, rep):
        # Swap the two scores but keep the decision.
        return type(rep)(rep.pair_id, rep.delta_yx, rep.delta_xy, rep.margin,
                         rep.decision, rep.ground_truth)


# ---------------------------------------------------------------------------


def _draw(rng, n, mean, sd, lo):
    """n draws of N(mean, sd^2), redrawing any at or below ``lo``."""
    v = rng.normal(mean, sd, n)
    while np.any(bad := v <= lo):
        v[bad] = rng.normal(mean, sd, int(bad.sum()))
    return v


class DslBudget(Workload):
    name = "dsl-budget"
    EXPRS = {
        "(X*Y)/Z+1": lambda X, Y, Z: (X * Y) / Z + 1.0,
        "X^(Y/4)-Z": lambda X, Y, Z: X ** (Y / 4.0) - Z,
        "exp(X/Y)*Z": lambda X, Y, Z: np.exp(X / Y) * Z,
    }
    round_len = 3
    SIZE = 300
    BUDGET = 200
    # Monte Carlo reference: REF_DRAWS independent draws of (X, Y, Z).
    REF_DRAWS = 2500
    # The result's squared MMD to the reference may be this many times
    # the reference's own expected squared error (1 - E k(s, s')) / N.
    # Compression at each node adds to the result's error; measured
    # ratios stay below 5.
    MC_FACTOR = 20.0

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, 11])
        self.samples = {"X": _draw(rng, self.SIZE, 3.0, 0.5, 0.5),
                        "Y": _draw(rng, self.SIZE, 4.0, 0.5, 0.5),
                        "Z": _draw(rng, self.SIZE, 2.0, 0.3, 0.5)}
        self.env = {n: embedding.embed_sample(v, kernels.KernelSpec.gaussian(
                        kernels.median_heuristic(v))) for n, v in self.samples.items()}
        self.seed = seed
        idx = {n: rng.integers(0, self.SIZE, self.REF_DRAWS) for n in "XYZ"}
        draws = [self.samples[n][idx[n]] for n in "XYZ"]
        self.ref = {text: f(*draws) for text, f in self.EXPRS.items()}
        self.texts = list(self.EXPRS)

    def warm(self):
        small = {n: embedding.embed_sample(v[:30], mu.spec)
                 for (n, v), mu in zip(self.samples.items(), self.env.values())}
        for text in self.texts:
            dsl.evaluate_text(text, small, dsl.EvalPolicy(budget=self.BUDGET, seed=0))

    def op(self, k):
        return dsl.evaluate_text(self.texts[k % 3], self.env,
                                 dsl.EvalPolicy(budget=self.BUDGET, seed=op_seed(self.seed, k)))

    def check(self, k, mu):
        text = self.texts[k % 3]
        if mu.size > self.BUDGET:
            return [f"op {k} {text}: {mu.size} points exceed the budget {self.BUDGET}"]
        if mu.spec.kind != "gaussian" or not (math.isfinite(mu.spec.sigma) and mu.spec.sigma > 0):
            return [f"op {k} {text}: kernel {mu.spec.to_dict()} lacks a positive bandwidth"]
        s = self.ref[text]
        n = s.shape[0]
        w = np.full(n, 1.0 / n)
        ss = reference.kernel_sum(mu.spec, s, w)
        mc_err = (1.0 - (ss * n * n - n) / (n * (n - 1))) / n
        got = reference.mmd_sq(mu.spec, s, w, mu.points, mu.weights, xx=ss)
        if not got <= self.MC_FACTOR * mc_err:
            return [f"op {k} {text}: squared MMD to the Monte Carlo reference is {got:.3g}, "
                    f"over {self.MC_FACTOR:g} x its error {mc_err:.3g}"]
        return []

    def corrupt(self, mu):
        # Shift every point by half a bandwidth.
        return embedding.WeightedExpansion(mu.points + 0.5 * mu.spec.sigma, mu.weights, mu.spec)


# ---------------------------------------------------------------------------


def _read_expansion_csv(path):
    """Weights and 1-d points of an expansion CSV, parsed here rather
    than by kmprop."""
    data = np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)
    return data[:, 1:], data[:, 0]


class CompressCheck(Workload):
    name = "compress-check"
    round_len = 1
    GRID = 100  # input = product grid of GRID x GRID draws
    TARGET = 200
    # Agreement of achieved_error_sq, kmprop mmd and the float64
    # reference, relative to the input's squared norm: three float64
    # sums of 10^8 terms each agree far closer than this.
    AGREE_REL = 1e-11

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, 13])
        x = rng.normal(3.0, 0.5, self.GRID)
        y = rng.normal(4.0, 0.5, self.GRID)
        self.points = np.multiply.outer(x, y).reshape(-1, 1)
        self.weights = np.full(self.points.shape[0], 1.0 / self.points.shape[0])
        sub = self.points[rng.choice(self.points.shape[0], size=2000, replace=False)]
        self.spec = kernels.KernelSpec.gaussian(kernels.median_heuristic(sub))
        self.workdir = workdir
        self.input = os.path.join(workdir, "input.csv")
        embedding.save(embedding.WeightedExpansion(self.points, self.weights, self.spec), self.input)
        self.small = os.path.join(workdir, "small.csv")
        embedding.save(embedding.WeightedExpansion(self.points[::25], self.weights[::25] * 25,
                                                   self.spec), self.small)
        self.seed = seed
        self.self_norm = None

    def _cli(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, err.getvalue()

    def _run(self, src, k, seed):
        red = os.path.join(self.workdir, f"reduced{k}.csv")
        out = os.path.join(self.workdir, f"mmd{k}.txt")
        rc1, err1 = self._cli(["reduce", "--input", src, "--target", str(self.TARGET),
                               "--seed", str(seed), "--out", red])
        rc2, err2 = self._cli(["mmd", "--a", src, "--b", red, "--out", out])
        if (rc1, rc2) != (0, 0):
            raise RuntimeError(f"kmprop exit codes {(rc1, rc2)}: {(err1 + err2).strip()}")
        return {"stderr": err1, "reduced": red, "mmd": out}

    def warm(self):
        self._run(self.small, "warm", 0)

    def op(self, k):
        return self._run(self.input, k, op_seed(self.seed, k) % (1 << 31))

    def check(self, k, out):
        try:
            achieved = float(out["stderr"].split("achieved_error_sq=")[1].split()[0])
            with open(out["mmd"]) as fh:
                mmd = float(fh.read())
            Z, gamma = _read_expansion_csv(out["reduced"])
        except (IndexError, ValueError, OSError) as e:
            return [f"op {k}: unreadable output: {e}"]
        if Z.shape[0] != self.TARGET or not np.all(np.isin(Z[:, 0], self.points[:, 0])):
            return [f"op {k}: reduced set is not {self.TARGET} of the input points"]
        if self.self_norm is None:
            self.self_norm = reference.kernel_sum(self.spec, self.points, self.weights)
        own = reference.mmd_sq(self.spec, self.points, self.weights, Z, gamma, xx=self.self_norm)
        uniform = reference.mmd_sq(self.spec, self.points, self.weights, Z,
                                   np.full(Z.shape[0], 1.0 / Z.shape[0]), xx=self.self_norm)
        tol = self.AGREE_REL * self.self_norm
        problems = []
        if not (abs(achieved - mmd) <= tol and abs(achieved - own) <= tol):
            problems.append(f"op {k}: achieved_error_sq {achieved!r}, kmprop mmd {mmd!r} and "
                            f"reference {own!r} differ by more than {tol:.3g}")
        if not own < uniform:
            problems.append(f"op {k}: re-fit error {own:.3g} is not below uniform "
                            f"weights' {uniform:.3g}")
        return problems

    def corrupt(self, out):
        # Scale the fitted weights by 1.01 in the written file.
        Z, gamma = _read_expansion_csv(out["reduced"])
        path = out["reduced"] + ".corrupt.csv"
        embedding.save(embedding.WeightedExpansion(Z, gamma * 1.01, self.spec), path)
        return dict(out, reduced=path)


WORKLOADS = {w.name: w for w in (SynthGrid, PairsRff, DslBudget, CompressCheck)}
