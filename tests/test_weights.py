"""Weight kernels, normalization, and the information-criterion equivalence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from matabound import (
    ModelSubset,
    WeightSpec,
    fit_family,
    fit_full,
    gic,
    model_weights,
    w1,
)
from matabound.errors import DegenerateFit, InvalidKernel
from matabound.weights import normalized_weights, probe_kernel_conditions

from helpers import random_problem


class TestGic:
    def test_unit_rss_leaves_only_penalty(self):
        spec = WeightSpec.gic(n=30, d=3.0)
        assert gic(1.0, 2, p=7, spec=spec) == pytest.approx(3.0 * 5)

    def test_zero_penalty_orders_like_rss(self):
        spec = WeightSpec.gic(n=30, d=0.0)
        vals = [gic(r, 1, p=5, spec=spec) for r in (0.5, 1.0, 2.0, 9.0)]
        assert vals == sorted(vals)

    def test_direct_substitution(self):
        spec = WeightSpec.bic(60)
        assert gic(math.e, 0, p=16, spec=spec) == pytest.approx(
            60.0 + math.log(60) * 16, rel=1e-14
        )

    def test_perfect_fit_rejected(self):
        with pytest.raises(DegenerateFit):
            gic(0.0, 1, p=4, spec=WeightSpec.aic(20))


class TestModelWeights:
    def test_single_model_family(self):
        prob = random_problem(101)
        fits = fit_family(prob, [ModelSubset(0)])
        weights = model_weights(fits, fits[ModelSubset(0)].rss, WeightSpec.aic(prob.n))
        assert weights == {ModelSubset(0): 1.0}

    def test_normalization_and_range(self):
        prob = random_problem(103, n=30, p=6, q=2)
        fits = fit_family(prob)
        weights = model_weights(fits, fits[ModelSubset(0)].rss, WeightSpec.bic(prob.n))
        total = math.fsum(weights.values())
        assert total == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 < w < 1.0 for w in weights.values())

    def test_two_model_ratio_equals_gic_form(self):
        # oracle: w(K)/w(0) must equal exp(-(GIC(K) - GIC(0))/2)
        prob = random_problem(107, n=25, p=4, q=2)
        K = ModelSubset.from_indices([3])
        fits = fit_family(prob, [ModelSubset(0), K])
        rss = fits[ModelSubset(0)].rss
        spec = WeightSpec.aic(prob.n)
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
        spec = WeightSpec.bic(prob.n)
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
        spec = WeightSpec.aic(prob.n)
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
        weights = model_weights(fits, fits[ModelSubset(0)].rss, WeightSpec.aic(prob.n))
        assert math.fsum(weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_requires_full_model(self):
        prob = random_problem(131)
        K = ModelSubset.from_indices([3])
        fits = fit_family(prob, [ModelSubset(0), K])
        del fits[ModelSubset(0)]
        with pytest.raises(ValueError, match="full model"):
            model_weights(fits, 1.0, WeightSpec.aic(prob.n))


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
        w = normalized_weights(WeightSpec.gic(n, d).log_kernel(x, card))
        assert w.shape == (rows, models + 1)
        assert np.all((w >= 0.0) & (w <= 1.0))
        for row in w:
            assert math.fsum(row) == pytest.approx(1.0, abs=1e-12)


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
        beta_hat, _ = fit_full(prob)
        z = beta_hat[4] ** 2 / (sigma2_hat * v_p)
        for d in (2.0, math.log(prob.n)):
            weights = model_weights(fits, rss, WeightSpec.gic(prob.n, d))
            assert weights[K] == pytest.approx(w1(z, m, prob.n, d), rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            w1(-0.5, m=5, n=20, d=2.0)


class TestKernelProbes:
    def test_gic_kernel_passes_both_probes(self):
        n, d = 40, math.log(40)

        def kernel(x, k):
            return math.exp(d * k / 2.0) / (1.0 + x) ** (n / 2.0)

        probe_kernel_conditions(kernel, k_max=6)

    def test_increasing_in_x_rejected(self):
        with pytest.raises(InvalidKernel, match="C1"):
            probe_kernel_conditions(lambda x, k: 1.0 + x, k_max=3)

    def test_slow_decay_rejected(self):
        # positive otherwise-valid kernel that decays too slowly in x
        with pytest.raises(InvalidKernel, match="C1"):
            probe_kernel_conditions(lambda x, k: 1.0 / (1.0 + x) ** 0.25, k_max=2)

    def test_decreasing_in_k_rejected(self):
        with pytest.raises(InvalidKernel, match="C2"):
            probe_kernel_conditions(lambda x, k: math.exp(-k) / (1.0 + x) ** 5, k_max=3)

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidKernel):
            probe_kernel_conditions(lambda x, k: -1.0, k_max=2)

    def test_custom_spec_runs_probe_at_registration(self):
        with pytest.raises(InvalidKernel):
            WeightSpec.custom(20, lambda x, k: 1.0 + x, k_max=3)
        spec = WeightSpec.custom(20, lambda x, k: k / (1.0 + x) ** 10, k_max=3)
        assert spec.kernel is not None

    def test_custom_kernel_drives_weights(self):
        prob = random_problem(139, n=25, p=4, q=2)
        fits = fit_family(prob)
        rss = fits[ModelSubset(0)].rss
        spec = WeightSpec.custom(prob.n, lambda x, k: k / (1.0 + x) ** 10, k_max=2)
        weights = model_weights(fits, rss, spec)
        assert math.fsum(weights.values()) == pytest.approx(1.0, abs=1e-12)


class TestSpecValidation:
    def test_exactly_one_of_d_or_kernel(self):
        with pytest.raises(ValueError):
            WeightSpec(n=20)
        with pytest.raises(ValueError):
            WeightSpec(n=20, d=2.0, kernel=lambda x, k: 1.0 / (1 + x))

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            WeightSpec.gic(20, -1.0)

    def test_bic_uses_log_n(self):
        assert WeightSpec.bic(60).d == pytest.approx(math.log(60))
        assert WeightSpec.aic(60).d == 2.0
