"""Tail-area interval solver against closed forms and per-replicate events."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from matabound import (
    MataRequest,
    ModelSubset,
    RegressionProblem,
    WeightSpec,
    fit_family,
    fit_full,
    model_weights,
    solve_interval,
    w1,
)
from matabound.interval import _family_arrays, h

from helpers import random_problem


def h_of(z, prob, fits, weights):
    """h at ``z`` for a fitted family, through the solver's own arrays."""
    return float(h(*_family_arrays(fits, weights, prob.a), z))


def classical_t_interval(prob, alpha):
    beta, rss = fit_full(prob)
    m = prob.n - prob.p
    v = float(prob.a @ np.linalg.inv(prob.X.T @ prob.X) @ prob.a)
    s = math.sqrt(rss / m * v)
    theta = float(prob.a @ beta)
    t = sps.t.ppf(1.0 - alpha / 2.0, m)
    return theta - t * s, theta + t * s


class TestSingleModel:
    def test_equals_classical_t_interval(self):
        for seed in range(20):
            prob = random_problem(seed, n=22, p=4, q=2)
            req = MataRequest(prob, WeightSpec.aic(prob.n), alpha=0.05,
                              family=(ModelSubset(0),))
            iv = solve_interval(req)
            lo, hi = classical_t_interval(prob, 0.05)
            assert iv.lower == pytest.approx(lo, abs=1e-10)
            assert iv.upper == pytest.approx(hi, abs=1e-10)
            assert max(iv.h_residuals) < 1e-9

    def test_h_is_half_at_the_estimate(self):
        prob = random_problem(201, n=20, p=4, q=1)
        fam = [ModelSubset(0)]
        fits = fit_family(prob, fam)
        weights = {ModelSubset(0): 1.0}
        theta_hat = float(prob.a @ fits[ModelSubset(0)].beta_hat)
        assert h_of(theta_hat, prob, fits, weights) == pytest.approx(0.5, abs=1e-14)

    def test_h_limits(self):
        prob = random_problem(203)
        fits = fit_family(prob)
        weights = model_weights(fits, fits[ModelSubset(0)].rss, WeightSpec.aic(prob.n))
        assert h_of(-1e9, prob, fits, weights) == pytest.approx(1.0, abs=1e-12)
        assert h_of(1e9, prob, fits, weights) == pytest.approx(0.0, abs=1e-12)


class TestTwoModelDisplayForm:
    def test_h_matches_explicit_two_model_formula(self):
        # independent evaluation of the two-model mixture of t cdfs
        prob = random_problem(207, n=18, p=4, q=3)
        sub = ModelSubset.from_indices([3])
        fam = (ModelSubset(0), sub)
        spec = WeightSpec.gic(prob.n, 2.0)
        fits = fit_family(prob, list(fam))
        rss = fits[ModelSubset(0)].rss
        weights = model_weights(fits, rss, spec)

        m = prob.n - prob.p
        C = np.linalg.inv(prob.X.T @ prob.X)
        v_theta = float(prob.a @ C @ prob.a)
        v_p = C[3, 3]
        rho = float(prob.a @ C[:, 3]) / math.sqrt(v_theta * v_p)
        sigma_hat = math.sqrt(rss / m)
        beta_hat = fits[ModelSubset(0)].beta_hat
        theta_hat = float(prob.a @ beta_hat)
        gamma_hat = beta_hat[3] / (sigma_hat * math.sqrt(v_p))
        wsub = w1(gamma_hat**2, m, prob.n, 2.0)

        for z in np.linspace(theta_hat - 3.0, theta_hat + 3.0, 11):
            arg1 = (math.sqrt((m + 1) / (m + gamma_hat**2))
                    * (theta_hat - math.sqrt(v_theta) * sigma_hat * rho * gamma_hat - z)
                    / (math.sqrt(v_theta) * sigma_hat * math.sqrt(1.0 - rho**2)))
            arg0 = (theta_hat - z) / (sigma_hat * math.sqrt(v_theta))
            expected = wsub * sps.t.cdf(arg1, m + 1) + (1.0 - wsub) * sps.t.cdf(arg0, m)
            assert h_of(z, prob, fits, weights) == pytest.approx(expected, abs=1e-12)


class TestSolveInterval:
    def test_concentrated_weights_recover_single_model_interval(self):
        prob = random_problem(211, n=24, p=5, q=2)
        sub = ModelSubset.from_indices([3])
        fam = (ModelSubset(0), sub, ModelSubset.from_indices([3, 4]))
        fits = fit_family(prob, list(fam))
        req = MataRequest(prob, WeightSpec.aic(prob.n), alpha=0.1, family=fam)
        weights = {K: (1.0 if K == sub else 0.0) for K in fam}
        iv = solve_interval(req, fits=fits, weights=weights)
        fit = fits[sub]
        s = math.sqrt(fit.s2 * fit.v)
        t = sps.t.ppf(0.95, fit.df)
        theta_k = float(prob.a @ fit.beta_hat)
        assert iv.lower == pytest.approx(theta_k - t * s, abs=1e-10)
        assert iv.upper == pytest.approx(theta_k + t * s, abs=1e-10)

    def test_ordering_and_residuals(self):
        for seed in (301, 302, 303):
            prob = random_problem(seed, n=30, p=6, q=2)
            iv = solve_interval(MataRequest(prob, WeightSpec.bic(prob.n)))
            assert iv.lower <= iv.upper
            assert max(iv.h_residuals) < 1e-9
            assert math.fsum(iv.weights_used.values()) == pytest.approx(1.0, abs=1e-12)

    def test_scale_equivariance(self):
        prob = random_problem(307, n=26, p=5, q=2)
        iv = solve_interval(MataRequest(prob, WeightSpec.aic(prob.n)))
        s = 3.75
        prob_s = prob.with_response(s * prob.y)
        iv_s = solve_interval(MataRequest(prob_s, WeightSpec.aic(prob.n)))
        assert iv_s.lower == pytest.approx(s * iv.lower, rel=1e-9)
        assert iv_s.upper == pytest.approx(s * iv.upper, rel=1e-9)
        # weights are scale invariant
        for K, wgt in iv.weights_used.items():
            assert iv_s.weights_used[K] == pytest.approx(wgt, rel=1e-9)

    def test_tighter_target_moves_root_left(self):
        prob = random_problem(311, n=28, p=5, q=2)
        fits = fit_family(prob)
        spec = WeightSpec.aic(prob.n)
        weights = model_weights(fits, fits[ModelSubset(0)].rss, spec)
        req = MataRequest(prob, spec)
        iv90 = solve_interval(MataRequest(prob, spec, alpha=0.10), fits=fits, weights=weights)
        iv99 = solve_interval(MataRequest(prob, spec, alpha=0.01), fits=fits, weights=weights)
        assert iv99.lower < iv90.lower < iv90.upper < iv99.upper
        del req

    def test_coverage_event_equivalence_per_replicate(self):
        # The event {lower <= theta <= upper} must coincide with
        # {alpha/2 <= h(theta) <= 1 - alpha/2} on every replicate.
        rng = np.random.default_rng(313)
        base = random_problem(313, n=16, p=4, q=2, with_y=False)
        beta = np.array([0.5, -0.25, 0.6, 0.0])
        theta = float(base.a @ beta)
        spec = WeightSpec.aic(base.n)
        alpha = 0.2
        mism = 0
        for _ in range(200):
            y = base.X @ beta + rng.standard_normal(base.n)
            prob = base.with_response(y)
            fits = fit_family(prob)
            weights = model_weights(fits, fits[ModelSubset(0)].rss, spec)
            req = MataRequest(prob, spec, alpha=alpha)
            hv = h_of(theta, prob, fits, weights)
            iv = solve_interval(req, fits=fits, weights=weights)
            h_event = alpha / 2.0 <= hv <= 1.0 - alpha / 2.0
            containment = iv.lower <= theta <= iv.upper
            mism += h_event != containment
        assert mism == 0


@st.composite
def requests(draw):
    """MATA requests on random problems with up to 5 droppable columns."""
    p = draw(st.integers(2, 6))
    q = draw(st.integers(max(1, p - 5), p - 1))
    n = draw(st.integers(p + 2, 60))
    prob = random_problem(draw(st.integers(0, 2**32 - 1)), n=n, p=p, q=q,
                          y_scale=draw(st.floats(1e-3, 1e3)))
    spec = WeightSpec.gic(n, draw(st.floats(0.0, 20.0)))
    return MataRequest(prob, spec, alpha=draw(st.floats(1e-3, 0.5)))


class TestTailAreaProperties:
    @settings(max_examples=100, deadline=None)
    @given(requests())
    def test_h_strictly_decreasing(self, req):
        # on the 99.9% interval, where h stays in [5e-4, 1 - 5e-4]
        wide = solve_interval(MataRequest(req.prob, req.spec, alpha=1e-3))
        fits = fit_family(req.prob)
        arrays = _family_arrays(fits, wide.weights_used, req.prob.a)
        hs = h(*arrays, np.linspace(wide.lower, wide.upper, 200))
        assert hs.shape == (200,)
        assert np.all(np.diff(hs) < 0.0)

    @settings(max_examples=100, deadline=None)
    @given(requests())
    def test_endpoint_residuals(self, req):
        iv = solve_interval(req)
        fits = fit_family(req.prob)
        assert max(iv.h_residuals) <= 1e-12
        assert abs(h_of(iv.lower, req.prob, fits, iv.weights_used)
                   - (1.0 - req.alpha / 2.0)) <= 1e-12
        assert abs(h_of(iv.upper, req.prob, fits, iv.weights_used) - req.alpha / 2.0) <= 1e-12


class TestRequestValidation:
    def test_alpha_range(self):
        prob = random_problem(401)
        with pytest.raises(ValueError):
            MataRequest(prob, WeightSpec.aic(prob.n), alpha=0.7)
        with pytest.raises(ValueError):
            MataRequest(prob, WeightSpec.aic(prob.n), alpha=0.0)

    def test_family_must_contain_full_model(self):
        prob = random_problem(403)
        with pytest.raises(ValueError, match="full model"):
            MataRequest(prob, WeightSpec.aic(prob.n),
                        family=(ModelSubset.from_indices([3]),))

    def test_family_members_distinct(self):
        prob = random_problem(405)
        K = ModelSubset.from_indices([3])
        with pytest.raises(ValueError, match="distinct"):
            MataRequest(prob, WeightSpec.aic(prob.n), family=(ModelSubset(0), K, K))
