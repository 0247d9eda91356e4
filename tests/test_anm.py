import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kmprop import (
    AnmConfig,
    AnmReport,
    KernelSpec,
    PairedSample,
    PolyFit,
    accuracy_curve,
    anm_delta,
    infer_pair,
    median_heuristic,
    polyfit,
    residuals,
    rff_build,
)
import kmprop.kernels as kernels
from kmprop import anm
from kmprop.anm import decide, forced_decision, pair_seed
from kmprop.errors import InputError, SingularSystem

from oracles import rff_grid_score

# predict(x) == x exactly, so the fitted values are the cause values.
IDENTITY = PolyFit(coefficients=np.array([0.0, 1.0]), input_mean=0.0, input_scale=1.0,
                   output_mean=0.0, output_scale=1.0)


def cubic_pair(seed, m, noise=0.1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, m)
    y = x + x ** 3 + rng.normal(0.0, noise, m)
    return x, y


class TestPolyfit:
    def test_exact_line(self):
        fit = polyfit([0.0, 1.0, 2.0], [1.0, 3.0, 5.0], degree=1)
        assert fit.predict(1.5) == pytest.approx(4.0, abs=1e-9)
        assert fit.predict([0.0, 2.0]) == pytest.approx([1.0, 5.0], abs=1e-9)

    def test_degree_zero_is_mean(self):
        fit = polyfit([1.0, 2.0, 3.0], [2.0, 4.0, 9.0], degree=0)
        assert fit.predict(100.0) == pytest.approx(5.0, abs=1e-12)

    def test_recovers_quartic(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, 50)
        y = 0.5 - x + 0.25 * x ** 2 + 2.0 * x ** 3 - 0.125 * x ** 4
        fit = polyfit(x, y, degree=4)
        xs = np.linspace(-2, 2, 11)
        truth = 0.5 - xs + 0.25 * xs ** 2 + 2.0 * xs ** 3 - 0.125 * xs ** 4
        assert np.allclose(fit.predict(xs), truth, atol=1e-8)

    def test_residuals_recover_noise(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, 400)
        eps = rng.normal(0.0, 0.1, 400)
        y = 2.0 * x + 1.0 + eps
        fit = polyfit(x, y, degree=1)
        sample = PairedSample(x=x, y=y, pair_id="lin")
        u = residuals(sample, fit, "x->y")
        assert np.max(np.abs(u - eps)) < 0.06

    def test_backward_direction(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        y = 2.0 * x
        fit = polyfit(y, x, degree=1)
        sample = PairedSample(x=x, y=y, pair_id="bw")
        v = residuals(sample, fit, "y->x")
        assert np.allclose(v, 0.0, atol=1e-10)
        with pytest.raises(InputError):
            residuals(sample, fit, "sideways")

    def test_too_few_rows(self):
        with pytest.raises(InputError):
            polyfit([1.0, 2.0], [1.0, 2.0], degree=4)

    def test_rank_deficient_raises_without_ridge(self):
        x = np.array([0.0, 0.0, 1.0, 1.0, 2.0])
        y = np.array([1.0, 1.2, 2.0, 2.1, 3.0])
        with pytest.raises(SingularSystem):
            polyfit(x, y, degree=4)
        fit = polyfit(x, y, degree=4, ridge=1e-6)
        assert np.all(np.isfinite(fit.coefficients))

    def test_validation(self):
        with pytest.raises(InputError):
            polyfit([1.0, 2.0], [1.0], degree=1)
        with pytest.raises(InputError):
            polyfit([1.0, 2.0], [1.0, 2.0], degree=-1)
        with pytest.raises(InputError):
            polyfit([1.0, 2.0], [1.0, 2.0], degree=1, ridge=-0.5)


class TestPairedSample:
    def test_validation(self):
        with pytest.raises(InputError):
            PairedSample(x=[1.0, 2.0], y=[1.0], pair_id="a")
        with pytest.raises(InputError):
            PairedSample(x=[1.0] * 4, y=[1.0] * 4, pair_id="b")
        with pytest.raises(InputError):
            PairedSample(x=[1.0, 2.0, float("nan"), 4.0, 5.0],
                         y=[1.0] * 5, pair_id="c")
        with pytest.raises(InputError):
            PairedSample(x=[1.0] * 5, y=[1.0] * 5, pair_id="d",
                         ground_truth="up")


class TestAnmDelta:
    def test_single_row_reconstruction_is_exact(self):
        # With one row the reconstruction f(x1) + u1 equals y1, so the
        # discrepancy is exactly zero.
        fit = polyfit([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], degree=1)
        u = np.array([5.0]) - fit.predict(np.array([3.0]))
        assert anm_delta([3.0], [5.0], fit, u) == 0.0

    def test_paired_backward_reconstruction_is_identity(self):
        # Feeding residuals back row-by-row (not on the grid) rebuilds
        # the original inputs exactly, in both directions.
        x, y = cubic_pair(0, 100)
        g = polyfit(y, x, degree=4)
        v = x - g.predict(y)
        assert np.allclose(g.predict(y) + v, x, atol=1e-12)

    def test_forward_smaller_than_backward(self):
        wins = 0
        for seed in range(10):
            x, y = cubic_pair(seed, 200)
            f = polyfit(x, y, degree=4)
            u = y - f.predict(x)
            g = polyfit(y, x, degree=4)
            v = x - g.predict(y)
            dxy = anm_delta(x, y, f, u, mode="rff", seed=seed)
            dyx = anm_delta(y, x, g, v, mode="rff", seed=seed)
            wins += dxy < dyx
        assert wins >= 9

    def test_forward_score_shrinks_with_m(self):
        def mean_delta(m):
            out = []
            for seed in range(8):
                x, y = cubic_pair(seed, m)
                f = polyfit(x, y, degree=4)
                u = y - f.predict(x)
                out.append(anm_delta(x, y, f, u, mode="rff", seed=seed))
            return float(np.mean(out))

        assert mean_delta(400) < mean_delta(25)

    def test_exact_close_to_rff(self):
        x, y = cubic_pair(3, 50)
        f = polyfit(x, y, degree=4)
        u = y - f.predict(x)
        exact = anm_delta(x, y, f, u, mode="exact")
        approx = anm_delta(x, y, f, u, mode="rff", n_rff=2000)
        assert abs(exact - approx) <= 0.02

    def test_exact_mode_at_m300_uses_no_tiles(self, monkeypatch):
        # The 90 000-point grid's exact score goes through the spectral
        # mmd_sq; as tiles it would take ~4e9 kernel entries.
        x, y = cubic_pair(5, 300)
        f = polyfit(x, y, degree=4)
        u = y - f.predict(x)

        def no_tiles(*args):
            raise AssertionError("exact anm_delta evaluated a kernel tile")

        monkeypatch.setattr(kernels, "_kernel_block", no_tiles)
        exact = anm_delta(x, y, f, u, mode="exact")
        approx = anm_delta(x, y, f, u, mode="rff", n_rff=2000)
        assert 0.0 <= exact and abs(exact - approx) <= 0.02

    def test_fixed_kernel_and_modes(self):
        x, y = cubic_pair(4, 30)
        f = polyfit(x, y, degree=4)
        u = y - f.predict(x)
        spec = KernelSpec.gaussian(0.5)
        d1 = anm_delta(x, y, f, u, spec=spec, mode="exact")
        d2 = anm_delta(x, y, f, u, spec=spec, mode="exact")
        assert d1 == d2 >= 0.0
        with pytest.raises(InputError):
            anm_delta(x, y, f, u, spec=KernelSpec.linear(), mode="rff")
        with pytest.raises(InputError):
            anm_delta(x, y, f, u, mode="sketch")
        with pytest.raises(InputError):
            anm_delta([], [], f, [])


def rff_map(sigma, n_rff, seed):
    """The feature map anm_delta draws for ``seed``."""
    rff_seed = int(np.random.SeedSequence([seed, 202]).generate_state(1)[0])
    return rff_build(sigma, n_rff, 1, rff_seed)


def _values(max_size):
    return hnp.arrays(np.float64, st.integers(1, max_size), elements=st.floats(-3.0, 3.0))


_OUTLIERS = st.lists(st.floats(10.0, 50.0) | st.floats(-50.0, -10.0), max_size=2)


class TestRffFactorization:
    @settings(deadline=None, max_examples=60)
    @given(effect=_values(25), fitted=_values(20), resid=_values(20),
           fitted_out=_OUTLIERS, resid_out=_OUTLIERS, n_rff=st.integers(1, 64),
           sigma=st.floats(0.5, 5.0), seed=st.integers(0, 2 ** 64 - 1))
    def test_matches_grid_oracle(self, effect, fitted, resid, fitted_out, resid_out,
                                 n_rff, sigma, seed):
        fitted = np.concatenate([fitted, fitted_out])
        resid = np.concatenate([resid, resid_out])
        got = anm_delta(fitted, effect, IDENTITY, resid, spec=KernelSpec.gaussian(sigma),
                        mode="rff", n_rff=n_rff, seed=seed)
        rmap = rff_map(sigma, n_rff, seed)
        want = rff_grid_score(effect, fitted, resid, rmap.frequencies[:, 0])
        assert got == pytest.approx(want, abs=1e-12)
        for values in (effect, fitted, resid):
            assert np.linalg.norm(anm._char_mean(rmap, values)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("e, m, r, cap", [(30, 40, 60, 500), (3, 5, 7, 500), (30, 40, 60, 2400)])
    def test_bandwidth_matches_materialized_union(self, e, m, r, cap):
        rng = np.random.default_rng(e + m + r)
        effect = rng.normal(size=e)
        fitted = rng.normal(size=m)
        resid = rng.normal(0.0, 0.3, size=r)
        seed = 12345
        union = np.concatenate([effect, np.add.outer(fitted, resid).ravel()])
        sub = union
        if union.size > cap:
            rng = np.random.default_rng([seed, 101])
            sub = union[rng.choice(union.size, size=cap, replace=False)]
        assert anm._pick_bandwidth(effect, fitted, resid, cap, seed) == median_heuristic(sub)

    def test_all_coincident_is_zero(self):
        fitted = np.full(50, 0.5)
        resid = np.full(70, 0.25)
        effect = np.full(40, 0.75)
        for mode in ("rff", "exact"):
            assert anm_delta(fitted, effect, IDENTITY, resid, mode=mode) == 0.0
        effect[0] = 1.0
        assert anm_delta(fitted, effect, IDENTITY, resid, mode="rff") > 0.0

    def test_rff_memory_is_linear_in_sample_size(self):
        # The 3000 x 3000 reconstruction grid alone would take 72 MB.
        x, y = cubic_pair(12, 3000)
        f = polyfit(x, y, degree=4)
        u = y - f.predict(x)
        tracemalloc.start()
        try:
            delta = anm_delta(x, y, f, u, mode="rff")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        assert 0.0 <= delta < 0.01


class TestInferPair:
    def test_decides_cubic_correctly(self):
        x, y = cubic_pair(7, 300)
        s = PairedSample(x=x, y=y, pair_id="cubic", ground_truth="x->y")
        r = infer_pair(s, AnmConfig(seed=0))
        assert r.decision == "x->y"
        assert r.delta_xy < r.delta_yx
        assert r.margin == pytest.approx(abs(r.delta_xy - r.delta_yx), abs=0.0)
        assert r.delta_xy >= 0.0 and r.delta_yx >= 0.0

    def test_swap_antisymmetry_is_exact(self):
        x, y = cubic_pair(8, 150)
        fwd = infer_pair(PairedSample(x=x, y=y, pair_id="p", ground_truth="x->y"),
                         AnmConfig(seed=3))
        rev = infer_pair(PairedSample(x=y, y=x, pair_id="p", ground_truth="y->x"),
                         AnmConfig(seed=3))
        assert fwd.delta_xy == rev.delta_yx
        assert fwd.delta_yx == rev.delta_xy
        assert fwd.margin == rev.margin
        assert rev.decision == "y->x"

    def test_scaling_does_not_flip_clear_decision(self):
        x, y = cubic_pair(9, 300)
        base = infer_pair(PairedSample(x=x, y=y, pair_id="p"), AnmConfig(seed=0))
        scaled = infer_pair(PairedSample(x=x, y=100.0 * y, pair_id="p"),
                            AnmConfig(seed=0))
        assert base.decision == scaled.decision == "x->y"

    def test_split_fit(self):
        # Held-out residuals carry fit-transfer error, so split fitting
        # is noisier than in-sample scoring; expect mostly-correct
        # decisions rather than certainty.
        wins = 0
        for seed in range(10):
            x, y = cubic_pair(1000 + seed, 300)
            s = PairedSample(x=x, y=y, pair_id=f"p{seed}", ground_truth="x->y")
            r = infer_pair(s, AnmConfig(seed=0, split_fit=True))
            wins += r.decision == "x->y"
        assert wins >= 7
        x, y = cubic_pair(10, 300)
        tiny = PairedSample(x=x[:8], y=y[:8], pair_id="tiny")
        with pytest.raises(InputError):
            infer_pair(tiny, AnmConfig(degree=4, split_fit=True))

    def test_abstain_margin(self):
        x, y = cubic_pair(11, 300)
        s = PairedSample(x=x, y=y, pair_id="p")
        r = infer_pair(s, AnmConfig(seed=0, abstain_margin=1e9))
        assert r.decision == "abstain"


class TestDecisions:
    def test_decide(self):
        assert decide(0.1, 0.5) == "x->y"
        assert decide(0.5, 0.1) == "y->x"
        assert decide(0.3, 0.3) == "abstain"
        assert decide(0.1, 0.5, abstain_margin=0.39) == "x->y"
        assert decide(0.1, 0.5, abstain_margin=0.41) == "abstain"

    def test_pair_seed_stable_and_distinct(self):
        # Frozen value: guards the seeding scheme against silent change.
        assert pair_seed(0, "a") == 16685818722191274909
        assert pair_seed(0, "a") == pair_seed(0, "a")
        assert pair_seed(0, "a") != pair_seed(0, "b")
        assert pair_seed(1, "a") != pair_seed(0, "a")


class TestAccuracyCurve:
    def make(self, pid, dxy, dyx, truth):
        return AnmReport(pair_id=pid, delta_xy=dxy, delta_yx=dyx,
                         margin=abs(dxy - dyx),
                         decision=decide(dxy, dyx), ground_truth=truth)

    def test_two_pair_example(self):
        # Highest-margin pair correct, other wrong: full-rate accuracy
        # 1/2, top-1 accuracy 1.
        r1 = self.make("a", 0.1, 0.9, "x->y")
        r2 = self.make("b", 0.5, 0.4, "x->y")
        assert accuracy_curve([r1, r2]) == [(1.0, 0.5), (0.5, 1.0)]

    def test_ties_rank_by_pair_id(self):
        r1 = self.make("b", 0.1, 0.3, "x->y")
        r2 = self.make("a", 0.3, 0.1, "y->x")
        curve = accuracy_curve([r1, r2])
        assert curve == [(1.0, 1.0), (0.5, 1.0)]

    def test_zero_margin_counts_incorrect(self):
        r = self.make("a", 0.2, 0.2, "x->y")
        assert forced_decision(r) == "abstain"
        assert accuracy_curve([r]) == [(1.0, 0.0)]

    def test_requires_ground_truth(self):
        r = self.make("a", 0.1, 0.2, None)
        with pytest.raises(InputError):
            accuracy_curve([r])
        with pytest.raises(InputError):
            accuracy_curve([])
