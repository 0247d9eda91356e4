import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kmprop import (
    KernelSpec,
    WeightedExpansion,
    canonicalize,
    combine,
    embed_sample,
    error_bound,
    eval_kernel,
    expect_function,
    inner,
    mmd_sq,
    quad_form,
)
from kmprop import embedding
from kmprop.errors import DimensionMismatch, InputError, KernelMismatch, NumericalError

from oracles import (
    brute_inner,
    expect_k_normal_normal,
    expect_k_point_normal,
    gauss_k,
    weighted_embedding_error_sq,
)

G1 = KernelSpec.gaussian(1.0)
LIN = KernelSpec.linear()


def random_expansion(rng, spec, n=6, d=1):
    return WeightedExpansion(rng.normal(size=(n, d)), rng.normal(size=n), spec)


class TestWeightedExpansion:
    def test_embed_sample_uniform(self):
        mu = embed_sample([1.0, 2.0, 3.0], G1)
        assert mu.size == 3 and mu.dim == 1
        assert np.allclose(mu.weights, 1.0 / 3.0)
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_immutable(self):
        mu = embed_sample([1.0], G1)
        with pytest.raises(AttributeError):
            mu.weights = np.array([2.0])
        with pytest.raises(ValueError):
            mu.points[0, 0] = 5.0

    def test_validation(self):
        with pytest.raises(InputError):
            WeightedExpansion(np.empty((0, 1)), [], G1)
        with pytest.raises(DimensionMismatch):
            WeightedExpansion([[1.0], [2.0]], [1.0], G1)
        with pytest.raises(InputError):
            WeightedExpansion([[1.0]], [float("inf")], G1)
        with pytest.raises(InputError):
            WeightedExpansion([[float("nan")]], [1.0], G1)
        with pytest.raises(InputError):
            WeightedExpansion([[1.0]], [1.0], "gaussian")


class TestInner:
    def test_point_masses_reduce_to_kernel(self):
        a = embed_sample([0.0], G1)
        b = embed_sample([1.0], G1)
        assert inner(a, b) == pytest.approx(eval_kernel(G1, 0.0, 1.0), abs=1e-15)
        assert inner(a, a) == pytest.approx(1.0, abs=1e-15)

    def test_linear_kernel_mean_product(self):
        mu = embed_sample([1.0, 3.0], LIN)
        assert inner(mu, mu) == pytest.approx(4.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        a = random_expansion(rng, G1, n=7)
        b = random_expansion(rng, G1, n=5)
        expected = brute_inner(lambda x, y: gauss_k(x, y, 1.0),
                               a.points, a.weights, b.points, b.weights)
        assert inner(a, b) == pytest.approx(expected, rel=1e-10)

    def test_symmetry_and_permutation_invariance(self):
        rng = np.random.default_rng(1)
        a = random_expansion(rng, G1, n=8)
        b = random_expansion(rng, G1, n=8)
        assert inner(a, b) == pytest.approx(inner(b, a), rel=1e-12)
        perm = rng.permutation(8)
        a2 = WeightedExpansion(a.points[perm], a.weights[perm], G1)
        assert inner(a2, b) == pytest.approx(inner(a, b), rel=1e-12)

    def test_bilinearity(self):
        rng = np.random.default_rng(2)
        a = random_expansion(rng, G1)
        b = random_expansion(rng, G1)
        c = random_expansion(rng, G1)
        lhs = inner(combine(a, b, 2.0, -0.5), c)
        assert lhs == pytest.approx(2.0 * inner(a, c) - 0.5 * inner(b, c), rel=1e-9)

    def test_kernel_mismatch(self):
        a = embed_sample([1.0], G1)
        b = embed_sample([1.0], KernelSpec.gaussian(2.0))
        with pytest.raises(KernelMismatch):
            inner(a, b)
        with pytest.raises(DimensionMismatch):
            inner(embed_sample([[1.0, 2.0]], G1), embed_sample([1.0], G1))


class TestMmd:
    def test_two_point_masses(self):
        a = embed_sample([0.0], G1)
        b = embed_sample([1.0], G1)
        assert mmd_sq(a, b) == pytest.approx(2.0 - 2.0 * math.exp(-0.5), abs=1e-12)

    def test_identical_is_zero(self):
        rng = np.random.default_rng(3)
        a = random_expansion(rng, G1, n=20)
        assert mmd_sq(a, a) == 0.0

    def test_duplicate_representation_is_zero(self):
        a = WeightedExpansion([[1.0], [1.0]], [0.5, 0.5], G1)
        b = WeightedExpansion([[1.0]], [1.0], G1)
        assert mmd_sq(a, b) == 0.0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_reordered_large_terms_clamp_to_zero(self, seed):
        # Each term is about 1e8 here, so the same sample embedded in two
        # orders cancels to round-off of order 1e-8.
        x = np.random.default_rng(seed).normal(100.0, 1.0, 300)
        spec = KernelSpec.polynomial(2)
        assert mmd_sq(embed_sample(x, spec), embed_sample(x[::-1], spec)) >= 0.0

    def test_non_pd_kernel_still_raises(self):
        # k(x, y) = xy - 1 is not positive definite: ||2 k(0, .) - k(0, .)||^2 = -1.
        spec = KernelSpec.polynomial(1, offset=-1.0)
        a = WeightedExpansion([[0.0]], [2.0], spec)
        b = WeightedExpansion([[0.0]], [1.0], spec)
        with pytest.raises(NumericalError):
            mmd_sq(a, b)

    @settings(deadline=None, max_examples=50)
    @given(
        pa=hnp.arrays(np.float64, (4, 1), elements=st.floats(-5, 5)),
        pb=hnp.arrays(np.float64, (3, 1), elements=st.floats(-5, 5)),
        wa=hnp.arrays(np.float64, 4, elements=st.floats(-1, 1)),
        wb=hnp.arrays(np.float64, 3, elements=st.floats(-1, 1)),
    )
    def test_nonnegative(self, pa, pb, wa, wb):
        a = WeightedExpansion(pa, wa, G1)
        b = WeightedExpansion(pb, wb, G1)
        assert mmd_sq(a, b) >= 0.0


class TestExpectFunction:
    def test_linear_identity_gives_mean(self):
        mu = embed_sample([2.0, 4.0], LIN)
        identity = WeightedExpansion([[1.0]], [1.0], LIN)
        assert expect_function(mu, identity) == pytest.approx(3.0, abs=1e-12)

    def test_point_mass_reproduces_kernel(self):
        mu = embed_sample([0.7], G1)
        f = WeightedExpansion([[0.2]], [1.0], G1)
        assert expect_function(mu, f) == pytest.approx(
            eval_kernel(G1, 0.7, 0.2), abs=1e-15)

    def test_matches_sample_average(self):
        rng = np.random.default_rng(4)
        sample = rng.normal(size=50)
        mu = embed_sample(sample, G1)
        f = WeightedExpansion([[0.3]], [1.0], G1)
        brute = float(np.mean([gauss_k(x, 0.3, 1.0) for x in sample]))
        assert expect_function(mu, f) == pytest.approx(brute, rel=1e-12)


class TestErrorBound:
    def test_reference_value(self):
        # m=100, trace 100, delta 0.05:
        # 2/100*10 + sqrt(2 ln 40 / 100) = 0.2 + 0.271620...
        assert error_bound(100, 100.0, 0.05) == pytest.approx(0.4716203, abs=1e-6)

    def test_decreasing_in_m(self):
        vals = [error_bound(m, float(m), 0.05) for m in (10, 100, 1000, 10000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(InputError):
            error_bound(0, 1.0, 0.1)
        with pytest.raises(InputError):
            error_bound(10, -1.0, 0.1)
        with pytest.raises(InputError):
            error_bound(10, 1.0, 0.0)
        with pytest.raises(InputError):
            error_bound(10, 1.0, 1.0)

    def test_bound_holds_for_gaussian_samples(self):
        # Empirical embedding error for N(0,1), computed with the
        # closed-form cross/constant terms, sits under the bound (which
        # uses E sqrt(trace K) <= sqrt(m) since k(x,x)=1).
        delta = 0.05
        errs = {}
        for m in (25, 100, 400):
            per_seed = []
            for seed in range(5):
                x = np.random.default_rng([m, seed]).normal(0.0, 1.0, m)
                w = np.full(m, 1.0 / m)
                err_sq = weighted_embedding_error_sq(
                    x, w, 0.0, 1.0, 1.0, quad=quad_form(G1, x, w))
                bound = error_bound(m, float(m), delta)
                assert math.sqrt(max(err_sq, 0.0)) <= bound
                per_seed.append(err_sq)
            errs[m] = float(np.mean(per_seed))
        assert errs[400] < errs[25]


class TestCanonicalize:
    def test_merges_duplicates(self):
        mu = WeightedExpansion([[1.0], [2.0], [1.0]], [0.2, 0.5, 0.3], G1)
        c = canonicalize(mu)
        assert c.size == 2
        order = np.argsort(c.points[:, 0])
        assert np.allclose(c.points[order].ravel(), [1.0, 2.0])
        assert np.allclose(c.weights[order], [0.5, 0.5])
        assert mmd_sq(mu, c) <= 1e-12

    def test_noop_when_unique(self):
        mu = embed_sample([1.0, 2.0], G1)
        assert canonicalize(mu) is mu


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        mu = random_expansion(rng, KernelSpec.polynomial(3, 0.5), n=4, d=2)
        path = tmp_path / "mu.json"
        embedding.save(mu, path)
        back = embedding.load(path)
        assert back.spec == mu.spec
        assert np.array_equal(back.points, mu.points)
        assert np.array_equal(back.weights, mu.weights)

    def test_csv_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(6)
        mu = random_expansion(rng, G1, n=5, d=3)
        text = embedding.dumps_csv(mu)
        back = embedding.loads_csv(text)
        assert back.spec == mu.spec
        assert np.array_equal(back.points, mu.points)
        assert np.array_equal(back.weights, mu.weights)
        assert embedding.dumps_csv(back) == text

    def test_csv_header_and_format(self):
        mu = WeightedExpansion([[1.5, -2.0]], [0.25], G1)
        text = embedding.dumps_csv(mu)
        lines = text.splitlines()
        assert lines[0].startswith("# kernel:")
        assert json.loads(lines[0][len("# kernel:"):]) == {"kernel": "gaussian", "sigma": 1.0}
        assert lines[1] == "weight,x0,x1"
        assert lines[2] == "0.25,1.5,-2.0"

    def test_csv_errors(self):
        with pytest.raises(InputError):
            embedding.loads_csv("weight,x0\n1.0,2.0\n")
        with pytest.raises(InputError):
            embedding.loads_csv('# kernel: {"kernel": "gaussian", "sigma": 1.0}\nbad\n')
        with pytest.raises(InputError):
            embedding.loads_csv('# kernel: {"kernel": "gaussian", "sigma": 1.0}\n'
                                "weight,x0\nnot_a_number,1.0\n")

    def test_json_errors(self):
        with pytest.raises(InputError):
            embedding.loads_json("{not json")
        with pytest.raises(InputError):
            embedding.loads_json('{"kernel": "gaussian", "sigma": 1.0}')

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            embedding.load(tmp_path / "absent.csv")

    def test_format_inference(self, tmp_path):
        mu = embed_sample([1.0, 2.0], G1)
        jpath = tmp_path / "mu.json"
        embedding.save(mu, jpath)
        assert jpath.read_text().startswith("{")
        cpath = tmp_path / "mu.csv"
        embedding.save(mu, cpath)
        assert cpath.read_text().startswith("# kernel:")
