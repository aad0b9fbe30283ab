"""Weight kernels, normalization, and the information-criterion equivalence."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from matabound import (
    ModelSubset,
    WeightSpec,
    fit_family,
    model_weights,
    w1,
)
from matabound.bound import resolve_d
from matabound.errors import DegenerateFit

from helpers import random_problem, w1_closed_form


def gic(rss_k, card_k, p, spec):
    """Oracle: the criterion ``n ln(rss_K) + d (p - |K|)`` of a model."""
    return spec.n * math.log(rss_k) + spec.d * (p - card_k)


class TestGic:
    def test_custom_spec_and_negative_rss_rejected(self):
        # GIC is the only weight rule: a spec takes a penalty d, no kernel
        with pytest.raises(TypeError):
            WeightSpec(n=20, d=2.0, kernel=lambda x, k: 1.0 / (1.0 + x) ** 10)
        with pytest.raises(TypeError):
            WeightSpec(n=20)
        prob = random_problem(41)
        fits = fit_family(prob, [ModelSubset(0)])
        with pytest.raises(DegenerateFit, match="rss must be positive"):
            model_weights(fits, -1.0, WeightSpec(prob.n, 2.0))


class TestModelWeights:
    def test_single_model_family(self):
        prob = random_problem(101)
        fits = fit_family(prob, [ModelSubset(0)])
        weights = model_weights(fits, fits[ModelSubset(0)].rss, WeightSpec(prob.n, 2.0))
        assert weights == {ModelSubset(0): 1.0}

    def test_normalization_and_range(self):
        prob = random_problem(103, n=30, p=6, q=2)
        fits = fit_family(prob)
        spec = WeightSpec.gic(prob.n, resolve_d("bic", prob.n))
        weights = model_weights(fits, fits[ModelSubset(0)].rss, spec)
        total = math.fsum(weights.values())
        assert total == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 < w < 1.0 for w in weights.values())

    def test_two_model_ratio_equals_gic_form(self):
        # oracle: w(K)/w(0) must equal exp(-(GIC(K) - GIC(0))/2)
        prob = random_problem(107, n=25, p=4, q=2)
        K = ModelSubset.from_indices([3])
        fits = fit_family(prob, [ModelSubset(0), K])
        rss = fits[ModelSubset(0)].rss
        spec = WeightSpec(prob.n, 2.0)
        weights = model_weights(fits, rss, spec)
        lhs = weights[K] / weights[ModelSubset(0)]
        rhs = math.exp(-(gic(fits[K].rss, 1, prob.p, spec)
                         - gic(rss, 0, prob.p, spec)) / 2.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_full_family_matches_softmax_of_gic(self):
        # oracle: log-sum-exp normalization of -GIC/2 over the family
        prob = random_problem(109, n=35, p=7, q=1)
        fits = fit_family(prob)
        rss = fits[ModelSubset(0)].rss
        spec = WeightSpec.gic(prob.n, resolve_d("bic", prob.n))
        weights = model_weights(fits, rss, spec)
        subsets = sorted(fits)
        scores = np.array([-gic(fits[K].rss, K.cardinality, prob.p, spec) / 2.0
                           for K in subsets])
        softmax = np.exp(scores - logsumexp(scores))
        ours = np.array([weights[K] for K in subsets])
        np.testing.assert_allclose(ours, softmax, rtol=1e-10)

    def test_synthetic_blowup_sends_weight_to_zero(self):
        import dataclasses

        prob = random_problem(113, n=25, p=4, q=2)
        K = ModelSubset.from_indices([3])
        fits = dict(fit_family(prob, [ModelSubset(0), K]))
        spec = WeightSpec(prob.n, 2.0)
        rss = fits[ModelSubset(0)].rss
        last = math.inf
        for u in (1.0, 10.0, 1e3, 1e6):
            fits[K] = dataclasses.replace(fits[K], u=u)
            w = model_weights(fits, rss, spec)[K]
            assert w < last
            last = w
        assert last < 1e-12

    def test_weight_normalization_at_4096_models(self):
        prob = random_problem(127, n=40, p=13, q=1)
        fits = fit_family(prob)
        assert len(fits) == 4096
        weights = model_weights(fits, fits[ModelSubset(0)].rss, WeightSpec(prob.n, 2.0))
        assert math.fsum(weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_rss_and_negative_u_rejected(self):
        prob = random_problem(41)
        K = ModelSubset.from_indices([3])
        fits = fit_family(prob, [ModelSubset(0), K])
        spec = WeightSpec(prob.n, 2.0)
        for rss in (0.0, -1.0):
            with pytest.raises(DegenerateFit, match="rss must be positive"):
                model_weights(fits, rss, spec)
        fits[K] = replace(fits[K], u=-1e-3)
        with pytest.raises(ValueError, match="negative restriction statistic"):
            model_weights(fits, fits[ModelSubset(0)].rss, spec)

    def test_nan_u_rejected(self):
        # a NaN u gave every model a NaN weight
        prob = random_problem(41)
        K = ModelSubset.from_indices([3])
        fits = fit_family(prob, [ModelSubset(0), K])
        fits[K] = replace(fits[K], u=math.nan)
        with pytest.raises(ValueError, match="negative restriction statistic"):
            model_weights(fits, fits[ModelSubset(0)].rss, WeightSpec(prob.n, 2.0))

    def test_rss_full_must_be_the_full_models(self):
        prob = random_problem(7, n=30, p=5, q=2)
        fits = fit_family(prob)
        rss = fits[ModelSubset(0)].rss
        with pytest.raises(ValueError, match=f"rss_full={2 * rss!r} .* {rss!r}"):
            model_weights(fits, 2 * rss, WeightSpec(prob.n, 2.0))

    def test_requires_full_model(self):
        prob = random_problem(131)
        K = ModelSubset.from_indices([3])
        fits = fit_family(prob, [ModelSubset(0), K])
        del fits[ModelSubset(0)]
        with pytest.raises(ValueError, match="full model"):
            model_weights(fits, 1.0, WeightSpec(prob.n, 2.0))


class TestWeightProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 10**6), st.floats(0.0, 20.0), st.integers(1, 3),
           st.integers(0, 12), st.data())
    def test_gic_weights_on_simplex(self, n, d, rows, models, data):
        # ``rows`` replicates of a family with ``models`` restricted members
        x = np.array(data.draw(st.lists(st.floats(0.0, 1e6), min_size=rows * models,
                                        max_size=rows * models))).reshape(rows, models)
        card = np.array(data.draw(st.lists(st.integers(1, 30), min_size=models,
                                           max_size=models)), dtype=int)
        w = WeightSpec.gic(n, d).weights(x, card)
        assert w.shape == (rows, models + 1)
        assert np.all((w >= 0.0) & (w <= 1.0))
        for row in w:
            assert math.fsum(row) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 10**6), st.floats(0.0, 100.0),
           st.lists(st.tuples(st.floats(0.0, 1e6), st.integers(1, 30)),
                    min_size=1, max_size=4))
    def test_weights_match_logsumexp_softmax(self, n, d, models):
        # oracle: softmax of [0, log r_1, ...]; log r = d k / 2 reaches
        # 1,500 at x = 0, past exp's overflow at 709
        x, card = (np.array(col) for col in zip(*models))
        log_r = [0.5 * d * k - 0.5 * n * math.log1p(xk) for xk, k in models]
        scores = np.array([0.0, *log_r])
        w = WeightSpec.gic(n, d).weights(x, card)
        np.testing.assert_allclose(w, np.exp(scores - logsumexp(scores)), rtol=0.0, atol=1e-12)


class TestW1:
    def test_zero_statistic(self):
        for d in (0.0, 2.0, math.log(50)):
            assert w1(0.0, m=5, n=20, d=d) == pytest.approx(
                1.0 / (1.0 + math.exp(-d / 2.0)), rel=1e-14
            )

    def test_vanishes_for_large_statistic(self):
        assert w1(1e12, m=5, n=30, d=2.0) == pytest.approx(0.0, abs=1e-100)

    def test_finite_in_extreme_regimes(self):
        vals = w1(np.array([0.0, 1.0, 1e6, 1e12]), m=5, n=1_000_000, d=math.log(1e6))
        assert np.all(np.isfinite(vals))

    def test_strictly_decreasing(self):
        z = np.linspace(0.0, 50.0, 200)
        vals = w1(z, m=8, n=40, d=2.0)
        assert np.all(np.diff(vals) < 0.0)

    def test_matches_family_weight_on_two_model_family(self):
        # Eq-consistency: the two-model submodel weight is w1 of the
        # squared scaled coefficient estimate.
        prob = random_problem(137, n=25, p=5, q=4)
        K = ModelSubset.from_indices([4])
        fits = fit_family(prob)
        assert sorted(fits) == [ModelSubset(0), K]
        rss = fits[ModelSubset(0)].rss
        m = prob.n - prob.p
        sigma2_hat = rss / m
        v_p = np.linalg.inv(prob.X.T @ prob.X)[4, 4]
        beta_hat = fits[ModelSubset(0)].beta_hat
        z = beta_hat[4] ** 2 / (sigma2_hat * v_p)
        for d in (2.0, math.log(prob.n)):
            weights = model_weights(fits, rss, WeightSpec.gic(prob.n, d))
            assert weights[K] == pytest.approx(w1_closed_form(z, m, prob.n, d), rel=1e-12)

    def test_matches_closed_form(self):
        # expit(L) is 1 / (1 + exp(-L)), which is 0 once exp(-L) overflows
        # (L < -709.78, where (1 + z/m)^(n/2) overflows), while w1 stays
        # subnormal down to L = -745: hence the absolute floor at the
        # smallest normal double.
        z = np.geomspace(1e-16, 1e8, 1_000)
        for n in (2, 3, 7, 30, 1_000, 10**4, 10**6):
            for m in (1, 5, 44, 200):
                for d in (0.0, 2.0, math.log(n), 1e3):
                    if m < n:
                        np.testing.assert_allclose(w1(z, m, n, d), w1_closed_form(z, m, n, d),
                                                   rtol=1e-15, atol=np.finfo(float).tiny)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            w1(-0.5, m=5, n=20, d=2.0)

    @pytest.mark.parametrize("z, m, message", [
        (np.array([0.0, 1.0]), 0, "m must be at least 1"), (1.0, 2.5, "m must be an integer"),
        (math.nan, 5, "z must be nonnegative")])
    def test_refuses_nan_z_and_the_m_two_model_config_refuses(self, z, m, message):
        with pytest.raises(ValueError, match=message):
            w1(z, m, 20, 2.0)

    @pytest.mark.parametrize("n, d", [(20.5, 2.0), (20, -1.0), (20, math.nan)])
    def test_refuses_what_weight_spec_refuses(self, n, d):
        with pytest.raises(ValueError):
            w1(1.0, m=5, n=n, d=d)


class TestSpecValidation:
    @pytest.mark.parametrize("x", [math.nan, -1e-300])
    def test_nan_or_negative_ratio_refused(self, x):
        # a NaN ratio gave a NaN weight in every slot
        with pytest.raises(ValueError, match="negative restriction statistic"):
            WeightSpec(10, 2.0).weights(np.array([[0.5, x]]), np.array([1, 2]))

    def test_sample_size_at_least_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            WeightSpec(1, 2.0)

    def test_sample_size_must_be_an_integer(self):
        with pytest.raises(ValueError, match="sample size n must be an integer, not 30.5"):
            WeightSpec(n=30.5, d=2.0)
        assert WeightSpec(np.int64(30), 2.0).n == 30

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            WeightSpec.gic(20, -1.0)

    def test_bic_uses_log_n(self):
        assert WeightSpec.gic(60, resolve_d("bic", 60)).d == pytest.approx(math.log(60))
        assert WeightSpec.gic(60, resolve_d("aic", 60)).d == 2.0
