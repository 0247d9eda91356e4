import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import pdist

import kmprop.kernels as kernels
from kmprop import (KernelSpec, WeightedExpansion, embed_sample, eval_kernel, gram, median_heuristic,
                    mmd_sq, quad_form, rff_build, rff_feature_matrix, rff_features)
from kmprop.errors import DegenerateBandwidth, DimensionMismatch, InputError, NoDistinctPairs

from oracles import brute_inner, brute_mmd_sq, gauss_k, poly_k

G1 = KernelSpec.gaussian(1.0)


@contextmanager
def backend_calls():
    """Count tile evaluations and spectral characteristic functions."""
    calls = {"tiles": 0, "spectral": 0}
    block, char_fn = kernels._kernel_block, kernels._char_fn

    def counted_block(*args):
        calls["tiles"] += 1
        return block(*args)

    def counted_char_fn(*args):
        calls["spectral"] += 1
        return char_fn(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_kernel_block", counted_block)
        mp.setattr(kernels, "_char_fn", counted_char_fn)
        yield calls


class TestEvalKernel:
    def test_gaussian_examples(self):
        assert eval_kernel(G1, 0.0, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert eval_kernel(G1, 2.5, 2.5) == 1.0
        assert eval_kernel(KernelSpec.gaussian(2.0), 0.0, 2.0) == pytest.approx(
            math.exp(-0.5), abs=1e-12)

    def test_linear(self):
        assert eval_kernel(KernelSpec.linear(), [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_poly(self):
        spec = KernelSpec.polynomial(2, offset=1.0)
        assert eval_kernel(spec, [1.0, 2.0], [3.0, 4.0]) == 144.0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eval_kernel(G1, [1.0, 2.0], [1.0, 2.0, 3.0])

    def test_multivariate_gaussian(self):
        x, y = np.array([0.0, 0.0]), np.array([3.0, 4.0])
        assert eval_kernel(KernelSpec.gaussian(5.0), x, y) == pytest.approx(
            math.exp(-25.0 / 50.0), rel=1e-12)


class TestKernelSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(InputError):
            KernelSpec.gaussian(0.0)
        with pytest.raises(InputError):
            KernelSpec.gaussian(-1.0)
        with pytest.raises(InputError):
            KernelSpec.gaussian(float("nan"))
        with pytest.raises(InputError):
            KernelSpec.polynomial(0)
        with pytest.raises(InputError):
            KernelSpec("triangle")

    def test_dict_round_trip(self):
        for spec in (G1, KernelSpec.linear(), KernelSpec.polynomial(3, 0.5)):
            assert KernelSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(InputError):
            KernelSpec.from_dict({"kernel": "nope"})
        with pytest.raises(InputError):
            KernelSpec.from_dict({"kernel": "gaussian"})
        with pytest.raises(InputError):
            KernelSpec.from_dict("gaussian")


class TestGram:
    @pytest.mark.parametrize("spec,kfun", [
        (G1, lambda a, b: gauss_k(a, b, 1.0)),
        (KernelSpec.gaussian(0.7), lambda a, b: gauss_k(a, b, 0.7)),
        (KernelSpec.linear(), lambda a, b: float(np.dot(a, b))),
        (KernelSpec.polynomial(3, 2.0), lambda a, b: poly_k(a, b, 3, 2.0)),
    ])
    def test_matches_pointwise_loop(self, spec, kfun):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(5, 2))
        Y = rng.normal(size=(4, 2))
        K = gram(spec, X, Y)
        for i in range(5):
            for j in range(4):
                assert K[i, j] == pytest.approx(kfun(X[i], Y[j]), rel=1e-10, abs=1e-12)

    def test_symmetric_default(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, 3))
        K = gram(G1, X)
        assert np.allclose(K, K.T)
        assert np.allclose(np.diag(K), 1.0)

    def test_positive_semidefinite_probe(self):
        rng = np.random.default_rng(20)
        for spec in (G1, KernelSpec.gaussian(0.3), KernelSpec.linear(),
                     KernelSpec.polynomial(2, 1.0)):
            for trial in range(20):
                X = rng.normal(size=(8, 2))
                w = rng.normal(size=8)
                assert float(w @ gram(spec, X) @ w) >= -1e-9

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            gram(G1, np.empty((0, 1)))


class TestQuadForm:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(7, 2))
        Y = rng.normal(size=(5, 2))
        wx = rng.normal(size=7)
        wy = rng.normal(size=5)
        expected = brute_inner(lambda a, b: gauss_k(a, b, 1.0), X, wx, Y, wy)
        assert quad_form(G1, X, wx, Y, wy) == pytest.approx(expected, rel=1e-10)

    def test_symmetric_matches_asymmetric(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 1))
        w = rng.normal(size=40)
        assert quad_form(G1, X, w) == pytest.approx(
            quad_form(G1, X, w, X, w), rel=1e-10)

    def test_blocked_paths_agree(self, monkeypatch):
        # Force multiple tiles through both the triangle and row paths.
        rng = np.random.default_rng(7)
        X = rng.normal(size=(37, 1))
        Y = rng.normal(size=(23, 1))
        wx, wy = rng.normal(size=37), rng.normal(size=23)
        whole_sym = quad_form(G1, X, wx)
        whole_asym = quad_form(G1, X, wx, Y, wy)
        monkeypatch.setattr(kernels, "_BLOCK_ELEMS", 16)
        with backend_calls() as calls:
            assert quad_form(G1, X, wx) == pytest.approx(whole_sym, rel=1e-12)
            assert quad_form(G1, X, wx, Y, wy) == pytest.approx(whole_asym, rel=1e-12)
        assert calls["spectral"] == 0 and calls["tiles"] > 2

    def test_float32_close_to_float64(self, monkeypatch):
        # 3000 1-D points would take the spectral backend, which ignores
        # dtype; keep the comparison on the float32 and float64 tiles.
        monkeypatch.setattr(kernels, "_plan", lambda *args: None)
        rng = np.random.default_rng(8)
        X = rng.normal(size=3000)
        w = np.full(3000, 1.0 / 3000)
        v64 = quad_form(G1, X, w)
        v32 = quad_form(G1, X, w, dtype=np.float32)
        assert v32 == pytest.approx(v64, rel=1e-5)

    def test_multivariate_gemm_path(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 4))
        w = rng.normal(size=30)
        expected = float(w @ gram(G1, X) @ w)
        assert quad_form(G1, X, w) == pytest.approx(expected, rel=1e-10)
        assert quad_form(G1, X, w, dtype=np.float32) == pytest.approx(expected, rel=1e-4)

    def test_weight_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            quad_form(G1, [1.0, 2.0], [1.0])


class TestMedianHeuristic:
    def test_examples(self):
        assert median_heuristic([0.0, 1.0, 3.0]) == 2.0
        assert median_heuristic([0.0, 1.0]) == 1.0
        # pairwise distances {1,2,4,1,3,2} -> median 2
        assert median_heuristic([0.0, 1.0, 2.0, 4.0]) == 2.0

    def test_ignores_coincident_pairs(self):
        assert median_heuristic([0.0, 0.0, 1.0]) == 1.0

    def test_all_coincident_raises(self):
        with pytest.raises(NoDistinctPairs):
            median_heuristic([5.0, 5.0, 5.0])
        with pytest.raises(NoDistinctPairs):
            median_heuristic([5.0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(25, 3))
        dists = sorted(
            float(np.linalg.norm(X[i] - X[j]))
            for i in range(25) for j in range(i + 1, 25)
        )
        assert median_heuristic(X) == pytest.approx(float(np.median(dists)), rel=1e-12)


def pdist_median(points):
    """The quadratic median heuristic: every pairwise distance by pdist,
    zeros dropped, then np.median; an exception class when it fails."""
    P = np.asarray(points, dtype=np.float64).reshape(-1, 1)
    d = pdist(P)
    d = d[d > 0.0]
    if d.size == 0:
        return NoDistinctPairs
    out = float(np.median(d))
    if not math.isfinite(out) or out <= 0.0:
        return DegenerateBandwidth
    return out


@pytest.mark.parametrize("direct,sample", [(kernels._MEDIAN_DIRECT, kernels._MEDIAN_SAMPLE), (0, 8)])
@settings(deadline=None, max_examples=150)
@given(
    values=st.lists(
        st.one_of(
            st.sampled_from([0.0, 1.0, -1.0, 2.5, 1e-170, 3e-170, 1e8, 1e8 + 1.0]),
            st.floats(-1e3, 1e3),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        min_size=2, max_size=300,
    ),
    offset=st.sampled_from([0.0, 1e8, -3e15]),
    heavy=st.booleans(),
)
@example(values=[1.0, 1.0, 2.0, 2.0], offset=0.0, heavy=False)
@example(values=[0.0, 1e-170], offset=0.0, heavy=False)
# 400 gaps of 1 and 400 of 2: the lower middle value ends a run of ties.
@example(values=[0.0] * 20 + [1.0] * 10 + [2.0] * 20, offset=0.0, heavy=False)
def test_median_heuristic_1d_bit_identical_to_pdist(direct, sample, values, offset, heavy):
    # (0, 8) sends even short inputs through the pivoting rounds.
    x = np.asarray(values) + offset
    if heavy:
        x = np.concatenate([x, np.random.default_rng(len(values)).standard_cauchy(200)])
    if not np.all(np.isfinite(x)):
        return
    expected = pdist_median(x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_MEDIAN_DIRECT", direct)
        mp.setattr(kernels, "_MEDIAN_SAMPLE", sample)
        try:
            got = median_heuristic(x)
        except (NoDistinctPairs, DegenerateBandwidth) as e:
            got = type(e)
    if isinstance(expected, float):
        assert isinstance(got, float) and np.float64(got).tobytes() == np.float64(expected).tobytes()
    else:
        assert got is expected


def test_median_heuristic_1d_subquadratic(monkeypatch):
    # 20 000 points have 2e8 pairs; the selection must not touch them all.
    def no_pdist(*args):
        raise AssertionError("1-D median heuristic called pdist")

    monkeypatch.setattr(kernels, "pdist", no_pdist)
    x = np.random.default_rng(3).normal(size=20_000)
    assert 0.5 < median_heuristic(x) < 1.5


@settings(deadline=None, max_examples=100)
@given(
    values=st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0, 8.0]), min_size=2, max_size=200),
    offset=st.sampled_from([0.0, 1e8, -3e15]),
    shifts=st.lists(st.integers(-3, 3), min_size=1, max_size=8),
)
@example(values=[0.0] * 20 + [1.0] * 10 + [2.0] * 20, offset=0.0, shifts=[1, -1])
def test_median_heuristic_1d_guess_fallback_bit_identical(values, offset, shifts):
    # Each searchsorted guess of a boundary is moved by up to 3 places,
    # so most lanes fail their check and fall back to the binary search
    # (the pivot sample's row lookup calls the array method instead).
    # Small integer gaps tie, so pivots land inside runs of equal
    # differences; (0, 8) forces pivoting rounds even on short inputs.
    x = np.asarray(values) + offset
    expected = pdist_median(x)
    searchsorted = np.searchsorted
    guesses = []

    def shifted(a, v, side="left"):
        g = searchsorted(a, v, side=side)
        guesses.append(g.size)
        return np.clip(g + np.resize(shifts, g.shape), 0, len(a))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "searchsorted", shifted)
        mp.setattr(kernels, "_MEDIAN_DIRECT", 0)
        mp.setattr(kernels, "_MEDIAN_SAMPLE", 8)
        try:
            got = median_heuristic(x)
        except (NoDistinctPairs, DegenerateBandwidth) as e:
            got = type(e)
    assert guesses
    if isinstance(expected, float):
        assert isinstance(got, float) and np.float64(got).tobytes() == np.float64(expected).tobytes()
    else:
        assert got is expected


def test_square_underflow_threshold():
    # The 1-D median drops the pairs pdist drops: those whose square is 0.
    t = kernels._SQ_ZERO
    assert t * t == 0.0
    assert np.nextafter(t, 1.0) ** 2 > 0.0


class TestRff:
    def test_frequency_spectrum_variance(self):
        # Frequencies should be N(0, 1/sigma^2): check the sample
        # variance of a large draw against the target.
        sigma = 2.0
        rmap = rff_build(sigma, n_features=20000, dim=1, seed=0)
        var = float(np.var(rmap.frequencies))
        assert var == pytest.approx(1.0 / sigma ** 2, rel=0.05)

    def test_feature_vector_unit_norm(self):
        rmap = rff_build(1.0, 64, 2, seed=1)
        phi = rff_features(rmap, [0.3, -1.2])
        assert phi.shape == (128,)
        assert float(phi @ phi) == pytest.approx(1.0, abs=1e-12)

    def test_estimates_gaussian_kernel(self):
        rmap = rff_build(1.0, 1000, 1, seed=2)
        est = float(rff_features(rmap, 0.0) @ rff_features(rmap, 1.0))
        assert abs(est - math.exp(-0.5)) <= 0.07

    def test_unbiased_across_seeds(self):
        # Average the D=100 estimate over 50 maps at several point pairs.
        xs = np.array([0.0, 0.5, 1.0, 2.0])
        ys = np.array([0.25, -0.5, 1.5, 0.0])
        acc = np.zeros(4)
        for seed in range(50):
            rmap = rff_build(1.0, 100, 1, seed=seed)
            fx = rff_feature_matrix(rmap, xs)
            fy = rff_feature_matrix(rmap, ys)
            acc += np.einsum("ij,ij->i", fx, fy)
        acc /= 50
        truth = np.exp(-((xs - ys) ** 2) / 2.0)
        assert np.all(np.abs(acc - truth) <= 0.03)

    def test_matrix_matches_single(self):
        rmap = rff_build(0.8, 16, 3, seed=3)
        X = np.random.default_rng(4).normal(size=(5, 3))
        M = rff_feature_matrix(rmap, X)
        for i in range(5):
            assert np.allclose(M[i], rff_features(rmap, X[i]), atol=1e-14)

    def test_validation(self):
        with pytest.raises(InputError):
            rff_build(0.0, 10, 1, seed=0)
        with pytest.raises(InputError):
            rff_build(1.0, 0, 1, seed=0)
        with pytest.raises(InputError):
            rff_build(1.0, 10, 0, seed=0)
        rmap = rff_build(1.0, 10, 2, seed=0)
        with pytest.raises(DimensionMismatch):
            rff_feature_matrix(rmap, np.ones((3, 3)))

    def test_deterministic_per_seed(self):
        a = rff_build(1.0, 32, 1, seed=9)
        b = rff_build(1.0, 32, 1, seed=9)
        c = rff_build(1.0, 32, 1, seed=10)
        assert np.array_equal(a.frequencies, b.frequencies)
        assert not np.array_equal(a.frequencies, c.frequencies)


@given(
    x=st.floats(-50, 50),
    y=st.floats(-50, 50),
    sigma=st.floats(0.01, 100.0),
)
def test_gaussian_symmetric_and_bounded(x, y, sigma):
    spec = KernelSpec.gaussian(sigma)
    k = eval_kernel(spec, x, y)
    assert eval_kernel(spec, y, x) == k
    assert 0.0 <= k <= 1.0
    assert eval_kernel(spec, x, x) == 1.0


@settings(deadline=None, max_examples=40)
@given(
    X=hnp.arrays(np.float64, (6, 2), elements=st.floats(-10, 10)),
    w=hnp.arrays(np.float64, 6, elements=st.floats(-2, 2)),
)
def test_gaussian_gram_psd(X, w):
    assert float(w @ gram(G1, X) @ w) >= -1e-8


# Sums that come out below the smallest normal float keep fewer digits,
# so a relative bound alone would demand exact equality there (weights
# near 1e-311 once gave a 5e-324 difference against a bound of 0).
TINY = float(np.finfo(np.float64).tiny)


def spectral_tol(wx, wy):
    return 1e-13 * float(np.abs(wx).sum()) * float(np.abs(wy).sum()) + TINY


def gauss(sigma):
    return lambda a, b: gauss_k(a, b, sigma)


@contextmanager
def spectral_always():
    """Make the planner take the spectral backend for every 1-D Gaussian
    sum, so that small inputs can be checked against the brute oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_SPECTRAL_NS", 0.0)
        mp.setattr(kernels, "_SPECTRAL_CALL_NS", 0.0)
        yield


points_1d = st.one_of(
    hnp.arrays(np.float64, st.integers(1, 25), elements=st.floats(-10, 10)),
    # All coincident: R = 0.
    st.tuples(st.floats(-10, 10), st.integers(1, 25)).map(lambda t: np.full(t[1], t[0])),
)


@st.composite
def expansions_1d(draw):
    """Points and signed weights."""
    X = draw(points_1d)
    return X, draw(hnp.arrays(np.float64, X.size, elements=st.floats(-2, 2)))


SINGLE = (np.array([0.3]), np.array([-1.5]))


class TestSpectralBackend:
    @settings(deadline=None, max_examples=60)
    @given(a=expansions_1d(), b=expansions_1d(), sigma=st.floats(0.5, 5.0))
    @example(a=SINGLE, b=(np.array([4.0]), np.array([2.0])), sigma=1.0)
    def test_quad_form_matches_brute_force(self, a, b, sigma):
        (X, wx), (Y, wy) = a, b
        spec = KernelSpec.gaussian(sigma)
        with spectral_always(), backend_calls() as calls:
            sym = quad_form(spec, X, wx)
            cross = quad_form(spec, X, wx, Y, wy)
            cross32 = quad_form(spec, X, wx, Y, wy, dtype=np.float32)
        assert calls == {"tiles": 0, "spectral": 5}
        assert abs(sym - brute_inner(gauss(sigma), X, wx, X, wx)) <= spectral_tol(wx, wx)
        expected = brute_inner(gauss(sigma), X, wx, Y, wy)
        assert abs(cross - expected) <= spectral_tol(wx, wy)
        # dtype governs the tiles only; the spectral sum stays float64.
        assert cross32 == cross

    @settings(deadline=None, max_examples=40)
    @given(A=points_1d, b=expansions_1d(), sigma=st.floats(0.5, 5.0))
    @example(A=np.array([0.0]), b=SINGLE, sigma=1.0)
    @example(A=np.array([0.0, 1.0]), b=(np.array([0.0]), np.array([2.22507386e-311])), sigma=1.0)
    def test_kernel_matvec_matches_brute_force(self, A, b, sigma):
        B, w = b
        spec = KernelSpec.gaussian(sigma)
        with spectral_always(), backend_calls() as calls:
            got = kernels.kernel_matvec(spec, A.reshape(-1, 1), B.reshape(-1, 1), w)
        assert calls == {"tiles": 0, "spectral": 1}
        for a, g in zip(A, got):
            assert abs(g - brute_inner(gauss(sigma), [a], [1.0], B, w)) <= spectral_tol([1.0], w)

    @settings(deadline=None, max_examples=40)
    @given(a=expansions_1d(), b=expansions_1d(), sigma=st.floats(0.5, 5.0))
    @example(a=SINGLE, b=SINGLE, sigma=1.0)
    def test_mmd_sq_matches_brute_force_and_is_nonnegative(self, a, b, sigma):
        (X, wx), (Y, wy) = a, b
        spec = KernelSpec.gaussian(sigma)
        ea, eb = WeightedExpansion(X, wx, spec), WeightedExpansion(Y, wy, spec)
        k = gauss(sigma)
        with spectral_always(), backend_calls() as calls:
            got = mmd_sq(ea, eb)
            rev = mmd_sq(ea, WeightedExpansion(X[::-1], wx[::-1], spec))
        assert calls == {"tiles": 0, "spectral": 4}
        expected = brute_mmd_sq(k, X, wx, Y, wy)
        total = float(np.abs(wx).sum() + np.abs(wy).sum())
        assert got >= 0.0
        assert abs(got - expected) <= 1e-13 * total * total + TINY
        assert 0.0 <= rev <= spectral_tol(wx, wx)

    @settings(deadline=None, max_examples=40)
    @given(ref=expansions_1d(), others=st.lists(expansions_1d(), min_size=1, max_size=4),
           sigma=st.floats(0.5, 5.0))
    @example(ref=SINGLE, others=[SINGLE, (np.array([4.0]), np.array([2.0]))], sigma=1.0)
    def test_batched_mmd_sq_matches_brute_force(self, ref, others, sigma):
        X, wx = ref
        spec = KernelSpec.gaussian(sigma)
        pairs = [(Y.reshape(-1, 1), wy) for Y, wy in others]
        with spectral_always(), backend_calls() as calls:
            got = kernels.spectral_mmd_sq(spec, X.reshape(-1, 1), wx, pairs)
        # The reference is transformed once, then each other expansion.
        assert calls == {"tiles": 0, "spectral": len(others) + 1}
        assert len(got) == len(others)
        k = gauss(sigma)
        for (Y, wy), g in zip(others, got):
            total = float(np.abs(wx).sum() + np.abs(wy).sum())
            assert g >= 0.0
            assert abs(g - brute_mmd_sq(k, Y, wy, X, wx)) <= 1e-13 * total * total + TINY

    def test_batched_mmd_sq_plans_over_every_expansion(self):
        rng = np.random.default_rng(25)
        X, wx = rng.normal(size=(300, 1)), np.full(300, 1 / 300)
        others = [(rng.normal(size=(n, 1)), rng.normal(size=n)) for n in (30, 60, 90)]
        with backend_calls() as calls:
            got = kernels.spectral_mmd_sq(G1, X, wx, others)
        assert calls == {"tiles": 0, "spectral": 4}
        k = gauss(1.0)
        for (Y, wy), g in zip(others[:1], got):
            assert abs(g - brute_mmd_sq(k, Y, wy, X[:, 0], wx)) <= 1e-13 * (1 + np.abs(wy).sum()) ** 2
        # One outlier 10^5 bandwidths out widens the nodes of the whole batch.
        others.append((np.array([[1e5]]), np.array([1.0])))
        with backend_calls() as calls:
            assert kernels.spectral_mmd_sq(G1, X, wx, others) is None
        assert calls == {"tiles": 0, "spectral": 0}

    def test_phases_match_brute_exponentials_at_many_nodes(self):
        # The ladders climb B + nb rungs; at Q >= 256 that is 8 + 35.
        rng = np.random.default_rng(26)
        x = 1e3 + rng.uniform(-100.0, 100.0, 5000)
        nodes = kernels._plan(G1, (x[:, None],), 10 ** 15)
        Q = nodes.weights.size
        assert Q >= 256
        brute = np.exp(1j * np.multiply.outer(nodes.step * np.arange(Q), x - nodes.centre))
        base, steps = kernels._phases(nodes, x)
        assert base.shape == (-(-Q // kernels._SPECTRAL_BLOCK), x.size)
        assert steps.shape == (kernels._SPECTRAL_BLOCK, x.size)
        phases = (base[:, None, :] * steps[None, :, :]).reshape(-1, x.size)[:Q]
        for w in (np.ones(x.size), rng.normal(size=x.size)):
            tol = 1e-13 * np.abs(w).sum()
            assert np.max(np.abs(phases @ w - brute @ w)) <= tol
            assert np.max(np.abs(kernels._char_fn(nodes, x[:, None], w) - brute @ w)) <= tol

    def test_planner_takes_spectral_for_large_1d_gaussian_sums(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=250)
        wx = rng.normal(size=250)
        with backend_calls() as calls:
            got = quad_form(G1, X, wx)
        assert calls == {"tiles": 0, "spectral": 1}
        assert abs(got - brute_inner(gauss(1.0), X, wx, X, wx)) <= spectral_tol(wx, wx)

    def test_planner_keeps_tiles_elsewhere(self):
        rng = np.random.default_rng(22)
        X, w = rng.normal(size=3000), rng.normal(size=3000)
        cases = [
            (G1, X[:20], w[:20]),                                   # small input
            (G1, X.reshape(-1, 2), w[:1500]),                       # d > 1
            (KernelSpec.linear(), X, w),
            (KernelSpec.polynomial(2), X, w),
        ]
        for spec, P, wp in cases:
            with backend_calls() as calls:
                quad_form(spec, P, wp)
            assert calls["spectral"] == 0 and calls["tiles"] > 0, spec

    def test_outliers_send_the_planner_to_the_tiles(self):
        # One point 10^5 bandwidths away needs ~1.3e5 nodes.
        rng = np.random.default_rng(23)
        X = np.append(rng.normal(size=299), 1e5)
        Y = rng.normal(size=120)
        wx, wy = rng.normal(size=300), rng.normal(size=120)
        with backend_calls() as calls:
            sym = quad_form(G1, X, wx)
            cross = quad_form(G1, X, wx, Y, wy)
            mv = kernels.kernel_matvec(G1, Y.reshape(-1, 1), X.reshape(-1, 1), wx)
            d = mmd_sq(WeightedExpansion(X, wx, G1), WeightedExpansion(Y, wy, G1))
        assert calls["spectral"] == 0
        k = gauss(1.0)
        assert sym == pytest.approx(brute_inner(k, X, wx, X, wx), rel=1e-10)
        assert cross == pytest.approx(brute_inner(k, X, wx, Y, wy), rel=1e-10)
        assert mv[7] == pytest.approx(brute_inner(k, [Y[7]], [1.0], X, wx), rel=1e-10)
        assert d >= 0.0

    def test_matches_float64_tiles_on_a_product_grid(self, monkeypatch):
        # Chunked characteristic functions (several chunks here) against
        # the tiled float64 reference on a heavy-tailed 10^4-point grid.
        rng = np.random.default_rng(24)
        X = np.add.outer(rng.normal(3, 0.7, 100), rng.normal(0, 1, 100)).ravel() ** 3
        w = rng.normal(size=X.size)
        spec = KernelSpec.gaussian(median_heuristic(X[:2000]))
        with backend_calls() as calls:
            got = quad_form(spec, X, w)
            got_mv = kernels.kernel_matvec(spec, X[:300, None], X[:, None], w)
        assert calls == {"tiles": 0, "spectral": 2}
        monkeypatch.setattr(kernels, "_plan", lambda *args: None)
        tol = spectral_tol(w, w)
        assert abs(got - quad_form(spec, X, w)) <= tol
        assert np.max(np.abs(got_mv - kernels.kernel_matvec(spec, X[:300, None], X[:, None], w))) <= tol

    def test_mmd_sq_of_reversed_copy_is_nonnegative(self):
        # The case that once came out negative in the three-term form.
        x = np.random.default_rng(2).normal(100.0, 1.0, 3000)
        spec = KernelSpec.gaussian(median_heuristic(x))
        with backend_calls() as calls:
            d = mmd_sq(embed_sample(x, spec), embed_sample(x[::-1], spec))
        assert calls == {"tiles": 0, "spectral": 2}
        assert 0.0 <= d <= 1e-13
