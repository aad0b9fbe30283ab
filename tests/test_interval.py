"""Tail-area interval solver against closed forms and per-replicate events."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.special import stdtr, stdtrit

from matabound import (
    MataRequest,
    ModelSubset,
    RegressionProblem,
    WeightSpec,
    fit_family,
    model_weights,
    solve_interval,
)
from matabound.bound import resolve_d
from matabound.errors import BracketFailure, DegenerateFit
from matabound.coverage import _newton_roots
from matabound.interval import _family_arrays, _newton_step, _solve_tails, _t_pdf, h
from matabound.suites import two_model_problem

from helpers import random_problem, w1_closed_form


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
            spec = WeightSpec(prob.n, 2.0)
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
        weights = model_weights(fits, fits[ModelSubset(0)].rss, WeightSpec(prob.n, 2.0))
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
        wsub = w1_closed_form(gamma_hat**2, m, prob.n, 2.0)

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
        req = MataRequest(prob, WeightSpec(prob.n, 2.0), alpha=0.1)
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
            spec = WeightSpec.gic(prob.n, resolve_d("bic", prob.n))
            iv = solve_interval(MataRequest(prob, spec))
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
            spec = WeightSpec.gic(prob.n, resolve_d("bic", prob.n))
            solve_interval(MataRequest(prob, spec))
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
        req = MataRequest(prob, WeightSpec(prob.n, 2.0), alpha=0.05)
        iv = solve_interval(req, fits=fits, weights=weights)
        assert max(iv.h_residuals) <= 1e-12
        assert abs(h_of(iv.lower, prob, fits, weights) - 0.975) <= 1e-12
        assert abs(h_of(iv.upper, prob, fits, weights) - 0.025) <= 1e-12

    def test_weights_short_of_one_raise_bracket_failure(self):
        prob = random_problem(319, n=24, p=5, q=2)
        fits = fit_family(prob)
        weights = model_weights(fits, fits[ModelSubset(0)].rss, WeightSpec(prob.n, 2.0))
        half = {K: 0.5 * wgt for K, wgt in weights.items()}
        with pytest.raises(BracketFailure, match="residuals"):
            solve_interval(MataRequest(prob, WeightSpec(prob.n, 2.0)), fits=fits, weights=half)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, None])
    def test_invalid_weights_rejected(self, bad):
        prob = random_problem(321, n=24, p=5, q=2)
        fits = fit_family(prob)
        weights = model_weights(fits, fits[ModelSubset(0)].rss, WeightSpec(prob.n, 2.0))
        weights[ModelSubset.from_indices([3])] = bad
        if bad is None:  # all zero
            weights = dict.fromkeys(fits, 0.0)
        with pytest.raises(ValueError, match="weights"):
            solve_interval(MataRequest(prob, WeightSpec(prob.n, 2.0)), fits=fits, weights=weights)

    def test_weights_must_match_the_fitted_models(self):
        prob = random_problem(321, n=24, p=5, q=2)
        fits = fit_family(prob)
        req = MataRequest(prob, WeightSpec(prob.n, 2.0))
        weights = model_weights(fits, fits[ModelSubset(0)].rss, req.spec)
        short = {K: w for K, w in weights.items() if K != ModelSubset.from_indices([2])}
        with pytest.raises(ValueError, match=r"no weight for the fitted model ModelSubset\(\{2\}\)"):
            solve_interval(req, fits=fits, weights=short)
        extra = {**weights, ModelSubset.from_indices([0]): 0.0}
        with pytest.raises(ValueError, match=r"models not in fits: \[ModelSubset\(\{0\}\)\]"):
            solve_interval(req, fits=fits, weights=extra)

    def test_family_without_the_full_model_rejected(self):
        prob = random_problem(321, n=24, p=5, q=2)
        fits = fit_family(prob, [ModelSubset.from_indices([3])])
        with pytest.raises(ValueError, match=r"family must contain the full model"):
            solve_interval(MataRequest(prob, WeightSpec(prob.n, 2.0)), fits=fits)

    def test_iteration_cap_raises_bracket_failure(self, monkeypatch):
        from matabound import interval

        monkeypatch.setattr(interval, "_MAX_ITERATIONS", 1)
        prob = random_problem(323, n=24, p=5, q=2)
        with pytest.raises(BracketFailure, match="not resolved"):
            solve_interval(MataRequest(prob, WeightSpec(prob.n, 2.0)))

    def test_crossed_endpoints_raise_bracket_failure(self, monkeypatch):
        from matabound import interval

        solve = interval._solve_tails

        def swapped(*args):
            roots, residuals = solve(*args)
            return roots[::-1], residuals

        monkeypatch.setattr(interval, "_solve_tails", swapped)
        prob = random_problem(325, n=24, p=5, q=2)
        with pytest.raises(BracketFailure, match="endpoints crossed"):
            solve_interval(MataRequest(prob, WeightSpec(prob.n, 2.0)))

    def test_scale_equivariance(self):
        prob = random_problem(307, n=26, p=5, q=2)
        iv = solve_interval(MataRequest(prob, WeightSpec(prob.n, 2.0)))
        s = 3.75
        prob_s = RegressionProblem(prob.X, prob.a, q=prob.q, y=s * prob.y)
        iv_s = solve_interval(MataRequest(prob_s, WeightSpec(prob.n, 2.0)))
        assert iv_s.lower == pytest.approx(s * iv.lower, rel=1e-9)
        assert iv_s.upper == pytest.approx(s * iv.upper, rel=1e-9)
        # weights are scale invariant
        for K, wgt in iv.weights_used.items():
            assert iv_s.weights_used[K] == pytest.approx(wgt, rel=1e-9)

    def test_tighter_target_moves_root_left(self):
        prob = random_problem(311, n=28, p=5, q=2)
        fits = fit_family(prob)
        spec = WeightSpec(prob.n, 2.0)
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
        spec = WeightSpec(base.n, 2.0)
        alpha = 0.2
        mism = 0
        for _ in range(200):
            y = base.X @ beta + rng.standard_normal(base.n)
            prob = RegressionProblem(base.X, base.a, q=base.q, y=y)
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
        below, above, root = ([0.0, 2.0, math.inf] for _ in range(3))
        assert _newton_step(0.5, -0.5, 1.0, below, 1e-13) == 1.0
        assert below == [0.5, 2.0, 0.5]
        assert _newton_step(1.5, 0.5, 1.0, above, 1e-13) == 1.0
        assert above == [0.0, 1.5, 0.5]
        assert _newton_step(1.0, 0.0, 1.0, root, 1e-13) is None
        assert root == [0.0, 2.0, 0.0]

    def test_midpoint_when_the_step_leaves_the_bracket(self):
        state = [0.0, 2.0, math.inf]
        # the step from 1.5 lands at 5.5, outside [1.5, 2]
        assert _newton_step(1.5, -4.0, 1.0, state, 1e-13) == 1.75
        assert state == [1.5, 2.0, 0.25]

    def test_midpoint_when_the_step_is_over_half_the_previous_one(self):
        # The steps 0.5 and then 0.3 both stay in the bracket; the second
        # is more than half the first, so the midpoint of [0.5, 1] is taken.
        state = [0.0, 2.0, math.inf]
        assert _newton_step(0.5, -0.5, 1.0, state, 1e-13) == 1.0
        assert _newton_step(1.0, 0.3, 1.0, state, 1e-13) == 0.5 * (0.5 + 1.0)
        assert state == [0.5, 1.0, 0.25]
        assert _newton_step(0.75, -0.1, 1.0, state, 1e-13) == 0.85

    @pytest.mark.parametrize("slope", [0.0, -1.0, math.nan])
    def test_midpoint_without_a_positive_slope(self, slope):
        state = [0.0, 2.0, math.inf]
        assert _newton_step(0.5, 0.1, slope, state, 1e-13) == 0.25
        assert state == [0.0, 0.5, 0.25]

    def test_converged_step_onto_the_bracket_end_is_accepted(self):
        # g > 0 moves the upper end onto x, and x - g / slope rounds back
        # onto it: not inside the bracket, but converged, so no midpoint.
        state = [0.0, 2.0, math.inf]
        assert _newton_step(1.0, 1e-20, 1.0, state, 1e-13) is None
        assert state[:2] == [0.0, 1.0]

    def test_none_once_the_step_is_within_small(self):
        assert _newton_step(1.0, 1e-14, 1.0, [0.0, 2.0, math.inf], 1e-13) is None
        assert _newton_step(1.0, 1e-12, 1.0, [0.0, 2.0, math.inf], 1e-13) == 1.0 - 1e-12
        # A converged step is taken whatever the previous one was.
        assert _newton_step(1.0, 1e-14, 1.0, [0.0, 2.0, 0.0], 1e-13) is None


@st.composite
def steep_far_mixtures(draw):
    """(w, theta, scale, df) of two t components: weight 1e-4 to 1e-2 on one
    of scale 0.01 to 0.2, 5 to 15 scales from the other, on either side."""
    eps = 10.0 ** draw(st.floats(-4.0, -2.0))
    far = draw(st.floats(5.0, 15.0)) * draw(st.sampled_from([-1.0, 1.0]))
    df = [float(draw(st.integers(1, 30))) for _ in range(2)]
    return (np.array([1.0 - eps, eps]), np.array([0.0, far]),
            np.array([1.0, draw(st.floats(0.01, 0.2))]), np.array(df))


class TestSteepFarComponent:
    """Newton steps that alternate between the ends of a bracket: the
    mixtures where the safeguard must also bound the step's length."""

    # The interval case below, standardized and rounded to the digits
    # shown: both root forms cycled to their cap on it without the length rule.
    CYCLING = (np.array([1.0 - 6.97448625e-4, 6.97448625e-4]), np.array([0.0, 10.248975]),
               np.array([1.0, 0.08448161412400584]), np.array([2.0, 3.0]))

    @settings(max_examples=40, deadline=None)
    @given(steep_far_mixtures())
    @example(CYCLING)
    def test_both_root_forms_converge_within_the_cap(self, mixture):
        w, theta, scale, df = mixture
        alpha = 0.01
        roots, residuals = _solve_tails(w, theta, scale, df, (1.0 - alpha / 2.0, alpha / 2.0))
        assert max(residuals) <= 1e-9

        def mixture_cdf(x, u):
            z = (x[:, None] - theta) / scale
            return (w * stdtr(df, z)).sum(axis=-1) - u, (w / scale * _t_pdf(z, df)).sum(axis=-1)

        u = np.array([alpha / 2.0, 1.0 - alpha / 2.0])
        own = theta + scale * stdtrit(df, u[:, None])
        x = _newton_roots(mixture_cdf, own @ w, own.min(axis=1), own.max(axis=1), u)
        # The two forms solve the same equations, 1 - h(z) = u, to their tolerance.
        np.testing.assert_allclose(x, roots, rtol=0.0, atol=1e-9)

    def test_interval_at_alpha_01(self):
        # The two-model design at rho .9999 with m 2 and BIC; y = X b + r
        # with b[-1] = -10.25 sqrt(v_p), r orthogonal to X and |r|^2 = 2.
        prob, v_p = two_model_problem(2, 4, 0.9999)
        y = prob.X @ np.array([0.0, -10.25 * math.sqrt(v_p)]) + np.array([0.0, 0.0, 1.0, 1.0])
        prob = RegressionProblem(prob.X, prob.a, q=1, y=y)
        spec = WeightSpec(4, math.log(4))
        wide, narrow = (solve_interval(MataRequest(prob, spec, alpha)) for alpha in (0.01, 0.05))
        assert wide.lower < narrow.lower < narrow.upper < wide.upper
        assert max(wide.h_residuals) <= 1e-9


class TestRequestValidation:
    def test_alpha_range(self):
        prob = random_problem(401)
        with pytest.raises(ValueError):
            MataRequest(prob, WeightSpec(prob.n, 2.0), alpha=0.7)
        with pytest.raises(ValueError):
            MataRequest(prob, WeightSpec(prob.n, 2.0), alpha=0.0)

    def test_alpha_whose_upper_target_rounds_to_one(self):
        prob = random_problem(401)
        for alpha in (1e-17, 1e-300):
            with pytest.raises(ValueError, match="1 - alpha/2 rounds to 1"):
                MataRequest(prob, WeightSpec(prob.n, 2.0), alpha=alpha)
        iv = solve_interval(MataRequest(prob, WeightSpec(prob.n, 2.0), alpha=1e-15))
        assert iv.lower < iv.upper

    def test_spec_for_another_sample_size_rejected(self):
        prob = random_problem(7, n=30, p=5, q=2)
        with pytest.raises(ValueError, match="WeightSpec has n=300 but the problem has n=30"):
            MataRequest(prob, WeightSpec(300, 2.0))

    def test_near_exact_fit_is_not_called_exact(self):
        # y + 1e-8 noise leaves rss / |y|^2 near 1e-17, far above the rounding
        # floor n eps^2 |y|^2 of an exact fit (rss / |y|^2 near 4e-32 here).
        # At this scale the tail solve can miss its absolute 1e-9 residual
        # tolerance, a limit of its own; only the exact-fit refusal is checked.
        prob = random_problem(611, n=20, p=4, q=2)
        y = prob.X.sum(axis=1)
        with pytest.raises(DegenerateFit, match="fits the response exactly"):
            solve_interval(MataRequest(replace(prob, y=y), WeightSpec(prob.n, 2.0)))
        for seed in range(10):
            noisy = y + 1e-8 * np.random.default_rng(seed).standard_normal(prob.n)
            try:
                solve_interval(MataRequest(replace(prob, y=noisy), WeightSpec(prob.n, 2.0)))
            except BracketFailure as exc:
                assert "tail-area residuals" in str(exc)

    def test_zero_residual_scale_rejected(self):
        prob = random_problem(403)
        fits = fit_family(prob)
        weights = model_weights(fits, fits[ModelSubset(0)].rss, WeightSpec(prob.n, 2.0))
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
        prob, spec = req.prob, req.spec
        rng = np.random.default_rng(seed)
        Y = prob.y + np.std(prob.y) * rng.standard_normal((R, prob.n))
        batch = fit_family(prob, None, Y)
        assert len(batch) == R * len(batch.subsets)
        card = np.array([K.cardinality for K in batch.subsets[1:]])
        W = spec.weights(batch.u[:, 1:] / batch.rss[:, :1], card)
        for r in range(R):
            one = MataRequest(RegressionProblem(prob.X, prob.a, q=prob.q, y=Y[r]), spec,
                              alpha=req.alpha)
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


class TestWideDesigns:
    """Designs of 64 or more columns, whose model masks need more than 64 bits."""

    @pytest.mark.parametrize("p, q", [(64, 62), (70, 67)])
    def test_endpoints_solve_the_reduced_design_refits(self, p, q):
        prob = random_problem(411 + p, n=p + 20, p=p, q=q)
        spec = WeightSpec.gic(prob.n, resolve_d("bic", prob.n))
        iv = solve_interval(MataRequest(prob, spec, alpha=0.05))
        assert [K.mask for K in iv.weights_used] == [t << q for t in range(1 << (p - q))]
        # independent oracle: refit every model on its kept columns and
        # weight it by exp(-GIC / 2)
        gic, theta, scale, df = [], [], [], []
        for K in iv.weights_used:
            kept = [j for j in range(p) if j not in K.indices]
            Xk, ak = prob.X[:, kept], prob.a[kept]
            beta, *_ = np.linalg.lstsq(Xk, prob.y, rcond=None)
            rss = float(np.sum((prob.y - Xk @ beta) ** 2))
            nu = prob.n - len(kept)
            gic.append(prob.n * math.log(rss) + spec.d * len(kept))
            theta.append(ak @ beta)
            scale.append(math.sqrt(rss / nu * (ak @ np.linalg.solve(Xk.T @ Xk, ak))))
            df.append(nu)
        w = np.exp(-0.5 * (np.array(gic) - min(gic)))
        w /= w.sum()
        np.testing.assert_allclose(list(iv.weights_used.values()), w, rtol=1e-9, atol=1e-15)
        theta, scale, df = map(np.array, (theta, scale, df))
        for z, target in ((iv.lower, 0.975), (iv.upper, 0.025)):
            assert float(w @ stdtr(df, (theta - z) / scale)) == pytest.approx(target, abs=1e-9)
