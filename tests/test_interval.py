"""Tail-area interval solver against closed forms and per-replicate events."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.special import stdtr

from matabound import (
    MataRequest,
    ModelSubset,
    RegressionProblem,
    WeightSpec,
    fit_family,
    model_weights,
    solve_interval,
    w1,
)
from matabound.errors import BracketFailure, DegenerateFit
from matabound.interval import _family_arrays, _newton_step, h

from helpers import random_problem


def h_of(z, prob, fits, weights):
    """h at ``z`` for a fitted family, through the solver's own arrays."""
    return float(h(*_family_arrays(fits, weights, prob.a), z))


def classical_t_interval(prob, alpha):
    full = fit_family(prob, [ModelSubset(0)])[ModelSubset(0)]
    beta, rss = full.beta_hat, full.rss
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
            spec = WeightSpec.aic(prob.n)
            fits = fit_family(prob, [ModelSubset(0)])
            weights = model_weights(fits, fits[ModelSubset(0)].rss, spec)
            iv = solve_interval(MataRequest(prob, spec, alpha=0.05), fits=fits, weights=weights)
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
        req = MataRequest(prob, WeightSpec.aic(prob.n), alpha=0.1)
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

    def test_h_never_evaluated_twice_at_one_z(self, monkeypatch):
        from matabound import interval

        # Each step takes the tail areas of its points, standardized per
        # model as rows of x = (theta - z) / scale, from one stdtr call;
        # every row of every call is recorded.  Rows differ exactly when
        # points do.
        seen = []

        def recording_stdtr(df, x):
            seen.extend(map(tuple, np.reshape(x, (-1, np.shape(x)[-1])).tolist()))
            return stdtr(df, x)

        monkeypatch.setattr(interval, "stdtr", recording_stdtr)
        for seed in (301, 302, 303):
            seen.clear()
            prob = random_problem(seed, n=30, p=6, q=2)
            solve_interval(MataRequest(prob, WeightSpec.bic(prob.n)))
            assert seen and len(seen) == len(set(seen))

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_light_model_far_outside_is_bracketed(self, side):
        # A model with weight 1e-9, far below 1e-6 of the largest, whose
        # interval lies 1e4 scales away from the other models' span.
        prob = random_problem(317, n=24, p=5, q=2)
        fits = fit_family(prob)
        K = ModelSubset.from_indices([3])
        shift = side * 1e4 * math.sqrt(fits[K].s2 * fits[K].v)
        fits[K] = replace(fits[K], beta_hat=fits[K].beta_hat + shift * prob.a / (prob.a @ prob.a))
        weights = dict.fromkeys(fits, 0.0)
        weights[ModelSubset(0)], weights[ModelSubset.from_indices([4])], weights[K] = (
            0.6, 0.4 - 1e-9, 1e-9)
        req = MataRequest(prob, WeightSpec.aic(prob.n), alpha=0.05)
        iv = solve_interval(req, fits=fits, weights=weights)
        assert max(iv.h_residuals) <= 1e-12
        assert abs(h_of(iv.lower, prob, fits, weights) - 0.975) <= 1e-12
        assert abs(h_of(iv.upper, prob, fits, weights) - 0.025) <= 1e-12

    def test_weights_short_of_one_raise_bracket_failure(self):
        prob = random_problem(319, n=24, p=5, q=2)
        fits = fit_family(prob)
        weights = model_weights(fits, fits[ModelSubset(0)].rss, WeightSpec.aic(prob.n))
        half = {K: 0.5 * wgt for K, wgt in weights.items()}
        with pytest.raises(BracketFailure, match="residuals"):
            solve_interval(MataRequest(prob, WeightSpec.aic(prob.n)), fits=fits, weights=half)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, None])
    def test_invalid_weights_rejected(self, bad):
        prob = random_problem(321, n=24, p=5, q=2)
        fits = fit_family(prob)
        weights = model_weights(fits, fits[ModelSubset(0)].rss, WeightSpec.aic(prob.n))
        weights[ModelSubset.from_indices([3])] = bad
        if bad is None:  # all zero
            weights = dict.fromkeys(fits, 0.0)
        with pytest.raises(ValueError, match="weights"):
            solve_interval(MataRequest(prob, WeightSpec.aic(prob.n)), fits=fits, weights=weights)

    def test_iteration_cap_raises_bracket_failure(self, monkeypatch):
        from matabound import interval

        monkeypatch.setattr(interval, "_MAX_ITERATIONS", 1)
        prob = random_problem(323, n=24, p=5, q=2)
        with pytest.raises(BracketFailure, match="not resolved"):
            solve_interval(MataRequest(prob, WeightSpec.aic(prob.n)))

    def test_crossed_endpoints_raise_bracket_failure(self, monkeypatch):
        from matabound import interval

        solve = interval._solve_tails

        def swapped(*args):
            roots, residuals = solve(*args)
            return roots[::-1], residuals

        monkeypatch.setattr(interval, "_solve_tails", swapped)
        prob = random_problem(325, n=24, p=5, q=2)
        with pytest.raises(BracketFailure, match="endpoints crossed"):
            solve_interval(MataRequest(prob, WeightSpec.aic(prob.n)))

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


class TestNewtonStep:
    """The safeguarded step shared by the endpoint solve and the gamma polish."""

    def test_bracket_tightens_by_the_sign(self):
        below, above, root = [0.0, 2.0], [0.0, 2.0], [0.0, 2.0]
        assert _newton_step(0.5, -0.5, 1.0, below, 1e-13) == 1.0
        assert below == [0.5, 2.0]
        assert _newton_step(1.5, 0.5, 1.0, above, 1e-13) == 1.0
        assert above == [0.0, 1.5]
        assert _newton_step(1.0, 0.0, 1.0, root, 1e-13) is None
        assert root == [0.0, 2.0]

    def test_midpoint_when_the_step_leaves_the_bracket(self):
        bracket = [0.0, 2.0]
        # the step from 1.5 lands at 5.5, outside [1.5, 2]
        assert _newton_step(1.5, -4.0, 1.0, bracket, 1e-13) == 1.75
        assert bracket == [1.5, 2.0]

    @pytest.mark.parametrize("slope", [0.0, -1.0, math.nan])
    def test_midpoint_without_a_positive_slope(self, slope):
        bracket = [0.0, 2.0]
        assert _newton_step(0.5, 0.1, slope, bracket, 1e-13) == 0.25
        assert bracket == [0.0, 0.5]

    def test_converged_step_onto_the_bracket_end_is_accepted(self):
        # g > 0 moves the upper end onto x, and x - g / slope rounds back
        # onto it: not inside the bracket, but converged, so no midpoint.
        bracket = [0.0, 2.0]
        assert _newton_step(1.0, 1e-20, 1.0, bracket, 1e-13) is None
        assert bracket == [0.0, 1.0]

    def test_none_once_the_step_is_within_small(self):
        assert _newton_step(1.0, 1e-14, 1.0, [0.0, 2.0], 1e-13) is None
        assert _newton_step(1.0, 1e-12, 1.0, [0.0, 2.0], 1e-13) == 1.0 - 1e-12


class TestRequestValidation:
    def test_alpha_range(self):
        prob = random_problem(401)
        with pytest.raises(ValueError):
            MataRequest(prob, WeightSpec.aic(prob.n), alpha=0.7)
        with pytest.raises(ValueError):
            MataRequest(prob, WeightSpec.aic(prob.n), alpha=0.0)

    def test_zero_residual_scale_rejected(self):
        prob = random_problem(403)
        fits = fit_family(prob)
        weights = model_weights(fits, fits[ModelSubset(0)].rss, WeightSpec.aic(prob.n))
        K = ModelSubset.from_indices([3])
        fits[K] = replace(fits[K], s2=0.0)
        with pytest.raises(DegenerateFit, match="zero residual scale"):
            _family_arrays(fits, weights, prob.a)


class TestBatchEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(requests(), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_rows_match_one_row_path(self, req, R, seed):
        # The audit's path (fit R responses at once, weight them in one
        # pass, inject each row into solve_interval) must agree with the
        # one-response path on every row.
        from matabound.weights import normalized_weights

        prob, spec = req.prob, req.spec
        rng = np.random.default_rng(seed)
        Y = prob.y + np.std(prob.y) * rng.standard_normal((R, prob.n))
        batch = fit_family(prob, None, Y)
        assert len(batch) == R * len(batch.subsets)
        card = np.array([K.cardinality for K in batch.subsets[1:]])
        W = normalized_weights(spec.log_kernel(batch.u[:, 1:] / batch.rss[:, :1], card))
        for r in range(R):
            one = MataRequest(prob.with_response(Y[r]), spec, alpha=req.alpha)
            fits = fit_family(one.prob)
            assert list(fits) == list(batch.subsets)
            for j, (K, fit) in enumerate(fits.items()):
                theta_b = float(prob.a @ batch.beta[r, j])
                theta_1 = float(prob.a @ fit.beta_hat)
                scale = math.sqrt(fit.s2 * fit.v)
                assert abs(theta_b - theta_1) <= 1e-12 * max(abs(theta_1), scale)
                assert batch.rss[r, j] == pytest.approx(fit.rss, rel=1e-12)
                assert batch.u[r, j] == pytest.approx(fit.u, rel=1e-12, abs=1e-12 * fit.rss)
            weights = dict(zip(batch.subsets, W[r].tolist()))
            ref = model_weights(fits, fits[ModelSubset(0)].rss, spec)
            assert max(abs(weights[K] - ref[K]) for K in ref) <= 1e-14
            # Endpoints from the batch against the one-row fits under the
            # same weights: at tiny df an endpoint can sit where h is so
            # flat that a 1e-16 weight change moves it by more than
            # 1e-12 step, so the weights are compared on their own above.
            ivb = solve_interval(one, fits=batch.models(r), weights=weights)
            ivw = solve_interval(one, fits=fits, weights=weights)
            step = max(math.sqrt(f.s2 * f.v) for f in fits.values())
            assert abs(ivb.lower - ivw.lower) <= 1e-12 * step
            assert abs(ivb.upper - ivw.upper) <= 1e-12 * step
            iv1 = solve_interval(one)
            for z in np.linspace(iv1.lower - step, iv1.upper + step, 9):
                assert (ivb.lower <= z <= ivb.upper) == (iv1.lower <= z <= iv1.upper)

    def test_rss_identity_checked_on_every_row(self):
        prob = random_problem(331, n=20, p=5, q=2)
        Y = np.vstack([prob.y, 2.0 * prob.y, -prob.y])
        batch = fit_family(prob, None, Y)
        np.testing.assert_allclose(batch.rss, batch.rss[:, :1] + batch.u, rtol=1e-12)
        np.testing.assert_allclose(batch.rss[1], 4.0 * batch.rss[0], rtol=1e-12)
        with pytest.raises(ValueError, match="shape"):
            fit_family(prob, None, Y[:, 1:])
