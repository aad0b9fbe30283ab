"""Simulation layer: reproducibility, invariance, and analytic cross-checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtr, stdtr

from matabound import (
    MataInterval,
    MataRequest,
    ModelSubset,
    RegressionProblem,
    SimScenario,
    TwoModelConfig,
    WeightSpec,
    coverage_probability,
    fit_family,
    min_coverage_scan,
    model_weights,
    simulate_coverage,
    solve_interval,
    w1,
    w1_exceedance,
)
from matabound import suites
from matabound.bound import resolve_d
from matabound.errors import EventMismatch
from matabound.interval import _family_arrays, _t_pdf, h
from matabound.mcverify import (
    _T_PDF_D3_MAX,
    _TABLE_MARGIN,
    _TABLE_RANGE,
    _TABLE_STEP,
    _h_event,
    _residual_direction,
    _SimKernel,
    _TCdfTable,
)
from matabound.suites import _correlated_design, two_model_problem, two_model_scenario

from helpers import random_problem


class TestSimulateCoverage:
    def test_single_model_family_hits_nominal(self):
        # Droppable coefficients 1e4 standard errors from zero leave the
        # restricted models weights below 1e-47 on every replicate: the
        # interval is the full model's t interval, exactly nominal.
        prob = random_problem(501, n=15, p=3, q=1, with_y=False)
        se = np.sqrt(np.diag(prob.stats.xtx_inv))
        sc = SimScenario(
            prob=prob,
            beta_over_sigma=np.array([1.0, -1e4 * se[1], 1e4 * se[2]]),
            reps=20_000,
            seed=42,
            spec=WeightSpec(prob.n, 2.0),
            alpha=0.05,
        )
        est = simulate_coverage(sc)
        assert abs(est.p_hat - 0.95) < 3.0 * est.se
        assert est.se == pytest.approx(
            math.sqrt(est.p_hat * (1 - est.p_hat) / est.reps)
        )

    def test_wide_design_single_model_family_hits_nominal(self):
        # The same collapse on a 70-column design (8 models), whose model
        # masks need more than 64 bits; the audit runs 100 replicates.
        prob = random_problem(503, n=90, p=70, q=67, with_y=False)
        beta = np.zeros(prob.p)
        beta[prob.q:] = 1e4 * np.sqrt(np.diag(prob.stats.xtx_inv))[prob.q:] * [1, -1, 1]
        spec = WeightSpec.gic(prob.n, resolve_d("bic", prob.n))
        est = simulate_coverage(SimScenario(prob=prob, beta_over_sigma=beta, reps=10_000,
                                            seed=43, spec=spec))
        assert abs(est.p_hat - 0.95) < 3.0 * est.se
        assert est.audited == 100
        assert est.audit_max_residual < 1e-9

    def test_two_model_agrees_with_integral(self):
        cfg = TwoModelConfig(m=5, n=7, rho=0.7, d=2.0, alpha=0.05)
        analytic = coverage_probability(1.0, cfg)
        sc = two_model_scenario(5, 7, 0.7, 1.0, 2.0, 0.05,
                                reps=100_000, seed=777)
        est = simulate_coverage(sc)
        assert abs(est.p_hat - analytic) < 3.0 * est.se

    @pytest.mark.parametrize("fraction, audited", [(0.0, 0), (0.01, 100), (0.003, 31),
                                                    (1e-4, 1)])
    def test_audit_record(self, fraction, audited):
        sc = two_model_scenario(5, 7, 0.7, 1.0, 2.0, 0.05, reps=10_000, seed=21,
                                audit_fraction=fraction)
        est = simulate_coverage(sc)
        if fraction:
            stride = max(1, int(round(1.0 / fraction)))
            assert est.audited == len(range(0, sc.reps, stride)) == audited
            assert 0.0 <= est.audit_max_residual <= 1e-12
        else:
            assert est.audited == 0 and est.audit_max_residual == 0.0

    def test_audit_fraction_below_one_over_reps_audits_replicate_0(self):
        # 1e-320 and 5e-324 are subnormal: 1 / fraction overflows to inf.
        for fraction in (1e-300, 1e-320, 5e-324):
            sc = two_model_scenario(5, 7, 0.7, 1.0, 2.0, 0.05, reps=10_000, seed=21,
                                    audit_fraction=fraction)
            assert simulate_coverage(sc).audited == 1

    def test_bit_reproducible(self):
        sc = two_model_scenario(5, 7, 0.5, 0.8, 2.0, 0.05,
                                reps=10_000, seed=99, audit_fraction=0.0)
        a = simulate_coverage(sc)
        b = simulate_coverage(sc)
        assert a.p_hat == b.p_hat
        assert a.se == b.se

    def test_joint_beta_sigma_scaling_is_pathwise_identical(self):
        prob = random_problem(503, n=14, p=4, q=2, with_y=False)
        beta = np.array([0.4, -1.0, 0.9, 0.3])
        kwargs = dict(reps=10_000, seed=11, spec=WeightSpec(prob.n, 2.0),
                      alpha=0.1, audit_fraction=0.0)
        sc1 = SimScenario(prob=prob, beta_over_sigma=beta / 1.0, **kwargs)
        sc2 = SimScenario(prob=prob, beta_over_sigma=(2.0 * beta) / 2.0, **kwargs)
        np.testing.assert_array_equal(sc1.beta_over_sigma, sc2.beta_over_sigma)
        covered = [
            _SimKernel(sc.prob, sc.spec, sc.alpha, sc.reps, sc.seed).covered(sc.beta_over_sigma)
            for sc in (sc1, sc2)
        ]
        np.testing.assert_array_equal(*covered)

    def test_audit_detects_broken_solver(self, monkeypatch):
        import matabound.mcverify as mcv

        sc = two_model_scenario(5, 7, 0.5, 0.8, 2.0, 0.05,
                                reps=10_000, seed=5, audit_fraction=0.001)

        fake = MataInterval(lower=math.inf, upper=math.inf, weights_used={},
                            h_residuals=(0.0, 0.0))
        monkeypatch.setattr(mcv, "solve_interval", lambda *a, **k: fake)
        with pytest.raises(EventMismatch, match="replicate"):
            simulate_coverage(sc)

    def test_audit_detects_broken_kernel(self, monkeypatch):
        # A kernel-side fault: every standard error 1% too wide.
        sc = two_model_scenario(5, 7, 0.5, 0.8, 2.0, 0.05,
                                reps=10_000, seed=5, audit_fraction=0.1)
        family_arrays = _SimKernel.family_arrays

        def widened(self, *args):
            w, theta, scale = family_arrays(self, *args)
            return w, theta, 1.01 * scale

        monkeypatch.setattr(_SimKernel, "family_arrays", widened)
        with pytest.raises(EventMismatch, match="replicate"):
            simulate_coverage(sc)

    def test_reps_floor_enforced(self):
        prob = random_problem(505, with_y=False)
        with pytest.raises(ValueError, match="reps"):
            SimScenario(prob=prob, beta_over_sigma=np.zeros(prob.p), reps=100,
                        seed=1, spec=WeightSpec(prob.n, 2.0))


# Unit roundoff of binary64, and gamma_k = k u / (1 - k u) (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1).
_U = np.finfo(float).eps / 2.0


def _gamma(k):
    return k * _U / (1.0 - k * _U)


def rounding_tolerance(prob, spec, beta, y):
    """Bound on |w(y) - w(X b + noise)| per model, for y = fl(X b + noise).

    The kernel shifts exact noise fits by b, so its weights are those of
    the unrounded response; the fitted path weights y, whose entries are
    off by at most gamma_p |X| |b| (a p-term dot product).  The two paths
    also solve the least-squares problem by different arithmetic: each
    solve's forward error, about kappa(X) times its backward error
    (Higham, ch. 20), is taken back to the response as an error of norm
    gamma_n kappa(X) ||y||.  Both reach the weights through their
    Jacobian in y, taken by central differences; 8 unit roundoffs more
    cover the weight normalization.
    """
    step = 1e-6 * np.maximum(1.0, np.abs(y))
    Y = y + np.concatenate([np.diag(step), -np.diag(step)])
    fits = fit_family(prob, None, Y)
    card = np.array([K.cardinality for K in fits.subsets[1:]])
    w = spec.weights(fits.u[:, 1:] / fits.rss[:, :1], card)
    jac = (w[:prob.n] - w[prob.n:]) / (2.0 * step[:, None])
    shift = _gamma(prob.p) * (np.abs(prob.X) @ np.abs(beta))
    solve = _gamma(prob.n) * np.linalg.cond(prob.X) * np.linalg.norm(y)
    return np.abs(jac).T @ shift + np.linalg.norm(jac, axis=0) * solve + 8.0 * _U


class TestSimKernelProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 3),
           st.integers(2, 40), st.floats(0.0, 20.0),
           st.lists(st.floats(-5.0, 5.0), min_size=5, max_size=5))
    # Replicate 7 has rss = 0.002: the two paths' weights differ by
    # 1.24e-14 there, beyond the former fixed tolerance of 1e-14.
    @example(726744, 4, 1, 2, 3.0, [2.0, 0.0, 0.0, 1.0, 0.0])
    @example(726744, 4, 2, 2, 3.0, [2.0, 0.0, 0.0, 1.0, 0.0])
    @example(726744, 4, 3, 2, 3.0, [2.0, 0.0, 0.0, 1.0, 0.0])
    def test_matches_fitted_path_per_replicate(self, seed, p, free, extra, d, beta):
        # The kernel's shift-based fits must give the weights and h(theta)
        # of fit_family -> model_weights on each replicate's own data.
        q = max(1, p - free)
        prob = random_problem(seed, n=p + extra, p=p, q=q, with_y=False)
        beta = np.array(beta[:p])
        spec = WeightSpec.gic(prob.n, d)
        kernel = _SimKernel(prob, spec, 0.05, reps=8, seed=seed)
        w, theta_k, scale = kernel.family_arrays(beta)
        theta = float(prob.a @ beta)
        h_theta = h(w, theta_k, scale, kernel.df, theta)
        for i in range(8):
            y = kernel.responses([i], beta)[0]
            fits = fit_family(RegressionProblem(prob.X, prob.a, q=prob.q, y=y))
            ref = model_weights(fits, fits[ModelSubset(0)].rss, spec)
            diff = np.abs(w[i] - [ref[K] for K in sorted(ref)])
            assert np.all(diff <= rounding_tolerance(prob, spec, beta, y)), diff
            h_ref = float(h(*_family_arrays(fits, ref, prob.a), theta))
            assert abs(h_theta[i] - h_ref) <= 1e-12


class TestSimKernelBlocks:
    def test_block_size_leaves_every_output_unchanged(self, monkeypatch):
        import matabound.mcverify as mcv

        # At 13,001 x 20 x 4 the noise fit is large enough for OpenBLAS to
        # take other dgemm kernels than for blocks of 7 rows.
        prob = random_problem(517, n=20, p=4, q=1, with_y=False)
        beta = np.array([0.3, -1.0, 2.5, -0.4])
        sc = SimScenario(prob=prob, beta_over_sigma=beta, reps=13_001, seed=23,
                         spec=WeightSpec(prob.n, 2.0))

        def outputs():
            kernel = _SimKernel(prob, sc.spec, sc.alpha, sc.reps, sc.seed)
            est = simulate_coverage(sc)
            h_theta = h(*kernel.family_arrays(beta), kernel.df, float(prob.a @ beta))
            return kernel, (kernel.bn, kernel.rss, h_theta,
                            kernel.covered(beta), est.p_hat, est.audited,
                            est.audit_max_residual)

        default, expected = outputs()
        assert default.rows >= sc.reps
        width = len(default.family) * (prob.p - prob.q + 1)
        monkeypatch.setattr(mcv, "_BLOCK_BYTES", 7 * 8 * width)
        small, got = outputs()
        assert small.rows == 7 and sc.reps % 7 != 0
        for a, b in zip(expected, got):
            np.testing.assert_array_equal(a, b)
        assert got[5] == 131

    def test_replicates_do_not_depend_on_reps(self):
        # 1,025 replicates end on a draw of one row, which BLAS would
        # handle with other kernels than the full draws of 1,536.
        prob = random_problem(519, n=12, p=4, q=1, with_y=False)
        beta = np.array([1.0, 0.5, -2.0, 0.2])
        spec = WeightSpec(prob.n, 2.0)
        short, long = (_SimKernel(prob, spec, 0.05, reps, 29) for reps in (1_025, 1_536))
        np.testing.assert_array_equal(short.bn, long.bn[:1_025])
        np.testing.assert_array_equal(short.rss, long.rss[:1_025])
        short_h, long_h = (h(*k.family_arrays(beta), k.df, float(prob.a @ beta))
                           for k in (short, long))
        np.testing.assert_array_equal(short_h, long_h[:1_025])

    def test_covered_memory_does_not_grow_with_reps(self):
        import tracemalloc

        prob = random_problem(513, n=20, p=8, q=2, with_y=False)
        beta = np.array([0.5, -0.3, 1.0, 0.0, 2.0, -1.0, 0.3, 0.0])
        peaks = []
        for reps in (10_000, 40_000):
            kernel = _SimKernel(prob, WeightSpec(prob.n, 2.0), 0.05, reps, 3)
            assert len(kernel.family) == 64 and kernel.rows < reps
            tracemalloc.start()
            try:
                kernel.covered(beta)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # One (40,000 x 64) float array alone is 20 MB.
        assert abs(peaks[1] - peaks[0]) < 2 * 2**20, peaks


class TestSimKernelDraws:
    def test_audited_responses_reproduce_the_kernel_statistics(self):
        # The rebuilt responses' own fits must return the kernel's bn and
        # rss: their residual must be orthogonal to X, with squared length rss.
        prob = random_problem(523, n=14, p=4, q=1, with_y=False)
        beta = np.array([0.5, -1.0, 0.8, 0.2])
        rows = np.arange(3, 2_000, 97)
        kernel = _SimKernel(prob, WeightSpec(prob.n, 2.0), 0.05, 2_000, 37)
        Y = kernel.responses(rows, beta)
        # A row does not depend on the others asked for with it.
        np.testing.assert_array_equal(kernel.responses(rows[3:4], beta), Y[3:4])
        fits = fit_family(prob, None, Y)
        bn = kernel.bn[rows]
        scale = np.linalg.norm(bn, axis=1, keepdims=True)
        assert np.all(np.abs(fits.beta[:, 0] - beta - bn) <= 1e-12 * scale)
        np.testing.assert_allclose(fits.rss[:, 0], kernel.rss[rows], rtol=1e-12, atol=0.0)

    def test_responses_add_the_design_terms_in_order(self):
        # numpy's sum along the contiguous axis adds 8 or more terms
        # pairwise; a response must be the ordered sum, the loop below, at
        # any row count.  p is 9.
        prob = random_problem(531, n=20, p=9, q=2, with_y=False)
        beta = np.linspace(-1.0, 1.0, prob.p)
        kernel = _SimKernel(prob, WeightSpec(prob.n, 2.0), 0.05, 600, 43)
        rows = np.arange(600)
        Y = kernel.responses(rows, beta)
        e = _residual_direction(prob.stats.Q)
        for i, b in zip(rows, kernel.bn + beta):
            y = prob.X[:, 0] * b[0]
            for j in range(1, prob.p):
                y = y + prob.X[:, j] * b[j]
            np.testing.assert_array_equal(Y[i], y + e * math.sqrt(kernel.rss[i]))
        np.testing.assert_array_equal(kernel.responses(rows[5:6], beta), Y[5:6])

    def test_any_residual_direction_gives_the_same_fits_and_interval(self):
        # The audit puts each residual along one fixed unit vector e
        # orthogonal to X; another such vector must give the same fits and
        # containment.  The ones vector lies in the intercept design's
        # column space; the correlated design's zero rows make e a basis
        # vector.
        rng = np.random.default_rng(527)
        X = np.column_stack([np.ones(12), rng.standard_normal((12, 3))])
        designs = [RegressionProblem(X, np.array([0.0, 1.0, 0.0, 0.0]), q=2),
                   _correlated_design(4, 12, 0.9, q=1)]
        for prob in designs:
            e = _residual_direction(prob.stats.Q)
            assert abs(np.linalg.norm(e) - 1.0) <= 1e-15
            assert np.linalg.norm(prob.X.T @ e) <= 1e-13 * np.linalg.norm(prob.X)
            other = rng.standard_normal(prob.n)
            other -= prob.stats.Q @ (prob.stats.Q.T @ other)
            other /= np.linalg.norm(other)
            spec = WeightSpec(prob.n, 2.0)
            kernel = _SimKernel(prob, spec, 0.05, 200, 41)
            beta = np.array([0.0, 0.0, 1.5, -2.0])
            rows = np.arange(200)
            Y = kernel.responses(rows, beta)
            b_hat = kernel.bn + beta
            Y_other = b_hat @ prob.X.T + np.sqrt(kernel.rss)[:, None] * other
            fits, fits_other = (fit_family(prob, None, y) for y in (Y, Y_other))
            scale = np.abs(fits.beta).max(axis=(1, 2), keepdims=True)
            assert np.all(np.abs(fits.beta - fits_other.beta) <= 1e-12 * scale)
            np.testing.assert_allclose(fits_other.rss, fits.rss, rtol=1e-12, atol=0.0)
            theta = float(prob.a @ beta)
            req = MataRequest(prob, spec, 0.05)
            contained = []
            for f in (fits, fits_other):
                weights = spec.weights(f.u[:, 1:] / f.rss[:, :1], kernel.card)
                ivs = (solve_interval(req, fits=f.models(r),
                                      weights=dict(zip(f.subsets, weights[r].tolist())))
                       for r in rows)
                contained.append([iv.lower <= theta <= iv.upper for iv in ivs])
            assert contained[0] == contained[1] and not all(contained[0])
        assert np.count_nonzero(e) == 1

    def test_draws_have_the_sufficient_statistics_law(self):
        # bn ~ N(0, (X'X)^-1) and rss ~ chi-square(n - p): the sample
        # covariance (about the known mean 0), and the mean and variance of
        # rss / (n - p), each within 5 standard errors.
        prob = _correlated_design(3, 8, 0.9, q=1)
        reps, df = 100_000, prob.n - prob.p
        kernel = _SimKernel(prob, WeightSpec(prob.n, 2.0), 0.05, reps, 43)
        cov = prob.stats.xtx_inv
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / reps)
        assert np.all(np.abs(kernel.bn.T @ kernel.bn / reps - cov) <= 5.0 * se)
        x = kernel.rss / df
        assert abs(x.mean() - 1.0) <= 5.0 * math.sqrt(2.0 / df / reps)
        # Var of a sample variance: (mu_4 - sigma^4) / reps, with central
        # moments of chi-square(df) / df.
        assert abs(x.var() - 2.0 / df) <= 5.0 * math.sqrt((8.0 / df**2 + 48.0 / df**3) / reps)


def t_pdf_d3(x, nu):
    """Third derivative of the t density f: with r = f'/f = -(nu+1) x / (nu+x^2),
    it is (r'' + 3 r r' + r^3) f."""
    s = nu + x * x
    r = -(nu + 1) * x / s
    r1 = -(nu + 1) * (nu - x * x) / s**2
    r2 = 2 * (nu + 1) * x * (3 * nu - x * x) / s**3
    return (r2 + 3 * r * r1 + r**3) * _t_pdf(x, nu)


TABLE_DFS = [float(nu) for nu in range(1, 201)] + [1e3, 1e6]


def recording_h(monkeypatch, rows):
    """Patch mcverify's exact h to append the theta of each call to ``rows``."""
    import matabound.mcverify as mcv

    def recorded(w, theta, *args):
        rows.append(theta)
        return h(w, theta, *args)

    monkeypatch.setattr(mcv, "h", recorded)


class TestTCdfTable:
    def test_within_a_quarter_margin_of_stdtr(self):
        # Midpoints and quarter points of every interval (where the Hermite
        # error peaks), the ends just inside the range, and |x| in
        # [1e-14, 1e-2], where stdtr(1, x) is itself off the Cauchy cdf.
        nodes = np.arange(-_TABLE_RANGE, _TABLE_RANGE, _TABLE_STEP)
        tiny = np.logspace(-14, -2, 400)
        edge = np.nextafter(_TABLE_RANGE, 0.0)
        x = np.concatenate([nodes + 0.25 * _TABLE_STEP, nodes + 0.5 * _TABLE_STEP,
                            nodes + 0.75 * _TABLE_STEP, tiny, -tiny, [edge, -edge]])
        assert np.all(np.abs(x) < _TABLE_RANGE)
        worst = 0.0
        for nu in TABLE_DFS:
            table_cdf, inside = _TCdfTable([nu]).average(np.ones(1), x[:, None].copy())
            assert inside.all()
            worst = max(worst, float(np.max(np.abs(table_cdf - stdtr(nu, x)))))
        assert worst <= _TABLE_MARGIN / 4.0, worst

    def test_third_derivative_constant_bounds_the_t_density(self):
        x = np.linspace(-5.0, 5.0, 20_001)
        step = 1e-3
        fd = (_t_pdf(x + 2 * step, 7.0) - 2 * _t_pdf(x + step, 7.0)
              + 2 * _t_pdf(x - step, 7.0) - _t_pdf(x - 2 * step, 7.0)) / (2 * step**3)
        np.testing.assert_allclose(t_pdf_d3(x, 7.0), fd, rtol=0.0, atol=1e-5)
        # The third derivative is odd in x.
        half_line = np.linspace(0.0, _TABLE_RANGE, 20_001)
        sup = max(float(np.max(np.abs(t_pdf_d3(half_line, nu)))) for nu in TABLE_DFS)
        assert sup <= _T_PDF_D3_MAX
        assert _TABLE_STEP**4 / 384.0 * _T_PDF_D3_MAX < _TABLE_MARGIN / 4.0


class TestHEvent:
    def test_m1_design_matches_h_at_truth_through_the_range_fallback(self, monkeypatch):
        # df 1 and 2: the full model's point is t_1 at the truth, so about
        # 1.6% of replicates have |x| >= 40 and must take the exact h.
        prob, v_p = two_model_problem(1, 3, 0.5)
        beta = np.array([0.0, 0.5 * math.sqrt(v_p)])
        kernel = _SimKernel(prob, WeightSpec(prob.n, 2.0), 0.05, 20_000, 41)
        np.testing.assert_array_equal(kernel.df, [1.0, 2.0])
        exact_rows = []
        recording_h(monkeypatch, exact_rows)
        covered = kernel.covered(beta)
        monkeypatch.undo()
        w, theta, scale = kernel.family_arrays(beta)
        h_theta = h(w, theta, scale, kernel.df, float(prob.a @ beta))
        np.testing.assert_array_equal(covered, (0.025 <= h_theta) & (h_theta <= 0.975))
        outside = np.any(np.abs((theta - prob.a @ beta) / scale) >= _TABLE_RANGE, axis=1)
        assert outside.sum() > 100
        np.testing.assert_array_equal(np.concatenate(exact_rows), theta[outside])

    def test_rows_near_a_cut_point_take_the_exact_path(self, monkeypatch):
        alpha, df, w = 0.1, np.array([3.0, 4.0]), np.array([0.3, 0.7])

        def h_exact(x):
            return float(w @ stdtr(df, x))

        near, far = [], []
        for cut in (alpha / 2.0, 1.0 - alpha / 2.0):
            xi = brentq(lambda v: h_exact(np.full(2, v)) - cut, -10.0, 10.0)
            # Both models' points shifted, or only the first's.
            for shift in (0.0, 1e-9, -1e-8, 3e-8, -3e-8, 1e-6, -1e-6, 1e-3):
                for x in ([xi + shift, xi + shift], [xi + shift / 0.3, xi]):
                    gap = abs(h_exact(np.array(x)) - cut)
                    if gap <= _TABLE_MARGIN / 2.0:
                        near.append(x)
                    elif gap >= 2.0 * _TABLE_MARGIN:
                        far.append(x)
        assert len(near) >= 6 and len(far) >= 6
        edge = np.nextafter(_TABLE_RANGE, 0.0)
        outside = [[_TABLE_RANGE, 0.0], [0.0, -_TABLE_RANGE], [-60.0, 60.0]]
        far += [[edge, 0.0], [0.0, -edge]]
        theta = np.array(near + outside + far)
        scale = np.ones_like(theta)
        weights = np.broadcast_to(w, theta.shape)
        exact_rows = []
        recording_h(monkeypatch, exact_rows)
        got = _h_event(weights, theta, scale, df, 0.0, _TCdfTable(df), alpha)
        np.testing.assert_array_equal(np.concatenate(exact_rows), theta[:-len(far)])
        h_theta = h(weights, theta, scale, df, 0.0)
        np.testing.assert_array_equal(got, (alpha / 2 <= h_theta) & (h_theta <= 1 - alpha / 2))


class TestMinCoverageScan:
    def test_zero_vector_sanity_and_determinism(self):
        prob = two_model_problem(8, 11, 0.6)[0]
        spec = WeightSpec(prob.n, 2.0)
        grid = [np.zeros(1), np.zeros(1), np.array([2.0])]
        est, argmin = min_coverage_scan(prob, spec, 0.05, grid,
                                        reps=5_000, seed=17)
        assert 0.8 < est.p_hat <= 1.0
        est2, argmin2 = min_coverage_scan(prob, spec, 0.05, grid,
                                          reps=5_000, seed=17)
        assert est.p_hat == est2.p_hat
        np.testing.assert_array_equal(argmin, argmin2)

    def test_grid_validation(self):
        prob = random_problem(507, with_y=False)
        spec = WeightSpec(prob.n, 2.0)
        with pytest.raises(ValueError, match="nonempty"):
            min_coverage_scan(prob, spec, 0.05, [], reps=2_000, seed=1)
        with pytest.raises(ValueError, match="length"):
            min_coverage_scan(prob, spec, 0.05, [np.zeros(7)], reps=2_000, seed=1)

    @pytest.mark.parametrize("alpha, message", [(1.5, "lie in"), (0.0, "lie in"), (-0.1, "lie in"),
                                                (math.nan, "lie in"), (1e-17, "rounds to 1")])
    def test_alpha_checked(self, alpha, message):
        prob = _correlated_design(4, 20, 0.85, q=1)
        with pytest.raises(ValueError, match=message):
            min_coverage_scan(prob, WeightSpec(prob.n, 2.0), alpha, [np.zeros(3)],
                              reps=1_000, seed=1)

    def test_free_coefficient_cap(self):
        prob = random_problem(509, n=40, p=23, q=2, with_y=False)
        with pytest.raises(ValueError, match="p - q"):
            min_coverage_scan(prob, WeightSpec(prob.n, 2.0), 0.05,
                              [np.zeros(21)], reps=2_000, seed=1)

    def test_estimate_is_the_minimizer_coverage(self):
        prob = random_problem(515, n=16, p=5, q=2, with_y=False)
        spec = WeightSpec(prob.n, 2.0)
        grid = [np.zeros(3), np.array([1.5, 0.0, -2.0]), np.array([0.0, 3.0, 0.5])]
        est, argmin = min_coverage_scan(prob, spec, 0.05, grid, reps=2_000, seed=19)
        kernel = _SimKernel(prob, spec, 0.05, 2_000, 19)
        p_hats = [np.mean(kernel.covered(np.concatenate([np.zeros(2), v]))) for v in grid]
        assert est.p_hat == min(p_hats)
        np.testing.assert_array_equal(argmin, grid[int(np.argmin(p_hats))])


def theorem4_threshold(eps, m, n, d):
    """c^2 with w1(z) >= eps exactly when z <= c^2."""
    return m * math.expm1(2.0 / n * (math.log((1.0 - eps) / eps) + 0.5 * d))


def exceedance_by_quadrature(eps, gamma, m, n, d):
    """P(|Z + gamma| <= c sqrt(Q/m)) as an integral over Q ~ chi-square(m),
    apart from the Poisson-beta sum of ``w1_exceedance``."""
    c = math.sqrt(theorem4_threshold(eps, m, n, d))
    value, _ = quad(lambda q: stats.chi2.pdf(q, m) * (ndtr(c * math.sqrt(q / m) - gamma)
                                                      - ndtr(-c * math.sqrt(q / m) - gamma)),
                    0.0, math.inf, epsabs=1e-14, epsrel=1e-13, limit=200)
    return value


# The theorem4 suite's cells (BIC, m 5, eps 0.01), an AIC cell and two m = 1
# cells, as (eps, gamma, m, n, d).
THEOREM4_CELLS = ([(0.01, g, 5, n, math.log(n)) for n in (100, 10_000) for g in (0.0, 1.0, 2.0)]
                  + [(0.01, 1.0, 5, 100, 2.0), (0.1, 0.5, 1, 100, math.log(100)),
                     (0.01, 1.0, 1, 10_000, math.log(10_000))])


class TestW1DecayScan:
    """Theorem 4's decay of P(w1 >= eps) over n and gamma, now exact
    (``w1_exceedance``)."""

    @pytest.mark.parametrize("eps, gamma, m, n, d", THEOREM4_CELLS)
    def test_matches_quadrature(self, eps, gamma, m, n, d):
        assert abs(w1_exceedance(eps, gamma, m, n, d)
                   - exceedance_by_quadrature(eps, gamma, m, n, d)) <= 1e-10

    @pytest.mark.parametrize("eps, gamma, m, n, d", THEOREM4_CELLS)
    def test_threshold_splits_the_weight(self, eps, gamma, m, n, d):
        c2 = theorem4_threshold(eps, m, n, d)
        assert w1(c2 * (1.0 - 1e-9), m, n, d) >= eps > w1(c2 * (1.0 + 1e-9), m, n, d)

    def test_probability_decays_in_n(self):
        ns = (100, 1_000, 10_000, 100_000, 1_000_000)
        p = [w1_exceedance(0.01, 0.0, 5, n, math.log(n)) for n in ns]
        assert all(b < a for a, b in zip(p, p[1:])), p
        assert p[-1] < 0.01

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-6, 1.0 - 1e-6), st.floats(-40.0, 40.0), st.integers(1, 200),
           st.integers(2, 10**6), st.floats(0.0, 30.0))
    @example(0.5, 1.75, 7, 2, 23.0)  # the mixture summed to 1 + 2^-52 here
    def test_gamma_zero_dominates(self, eps, gamma, m, n, d):
        p, p0 = w1_exceedance(eps, [gamma, -gamma], m, n, d), w1_exceedance(eps, 0.0, m, n, d)
        assert p[0] <= p0
        assert abs(p[0] - p[1]) <= 1e-15

    @pytest.mark.parametrize("m, d", [(7, 23.0), (200, 30.0)])
    def test_probability_at_most_one(self, m, d):
        # every incomplete beta is 1 or nearly so; the mixture's sum rounded
        # above 1 at 51 and 737 of these gammas
        p = w1_exceedance(0.5, np.linspace(0.0, 40.0, 4_001), m, 2, d)
        assert np.all((p >= 0.0) & (p <= 1.0))

    def test_bic_weight_cap_makes_exceedance_exactly_zero(self):
        # with d = ln n, w1 <= 1 / (1 + n^(-1/2)) <= 10/11 for n <= 100, so
        # w1 never reaches eps = 0.95 and the probability is exactly 0
        for n in (50, 100):
            p = w1_exceedance(0.95, [0.0, 1.0, -3.0], 5, n, math.log(n))
            np.testing.assert_array_equal(p, 0.0)

    def test_vectorized_over_gamma(self):
        gammas = np.array([[0.0, 1.0], [2.0, -0.5]])
        p = w1_exceedance(0.01, gammas, 5, 100, 2.0)
        assert p.shape == (2, 2)
        assert [w1_exceedance(0.01, g, 5, 100, 2.0) for g in gammas.ravel()] == p.ravel().tolist()
        assert isinstance(w1_exceedance(0.01, 1.0, 5, 100, 2.0), float)

    def test_at_least_one_residual_df(self):
        with pytest.raises(ValueError, match="m must be at least 1"):
            w1_exceedance(0.1, 0.0, 0, 100, 2.0)

    def test_non_integral_sizes_refused(self):
        with pytest.raises(ValueError, match="m must be an integer, not 5.5"):
            w1_exceedance(0.1, 0.0, 5.5, 100, 2.0)
        with pytest.raises(ValueError, match="sample size n must be an integer, not 100.7"):
            w1_exceedance(0.1, 0.0, 5, 100.7, 2.0)
        # numpy integers pass
        assert w1_exceedance(0.1, 0.0, np.int64(5), np.int64(100), 2.0) == \
            w1_exceedance(0.1, 0.0, 5, 100, 2.0)

    def test_suite_rows(self):
        rows = suites.theorem4_suite(reps=100_000, seed=20240800)
        assert len(rows) == 11 and all(r.passed for r in rows), rows
        # the decay and sup rows compare exact values
        assert [r.tolerance for r in rows[:5]] == [0.0] * 5


class TestScenarioValidation:
    def test_beta_length_checked(self):
        prob = random_problem(511, with_y=False)
        with pytest.raises(ValueError, match="length"):
            SimScenario(prob=prob, beta_over_sigma=np.zeros(prob.p + 1),
                        reps=10_000, seed=1, spec=WeightSpec(prob.n, 2.0))

    @pytest.mark.parametrize("field, value", [("alpha", 0.0), ("alpha", 0.6), ("alpha", 1e-17),
                                              ("audit_fraction", -0.1),
                                              ("audit_fraction", 1.5)])
    def test_alpha_and_audit_fraction_ranges(self, field, value):
        prob = random_problem(511, with_y=False)
        with pytest.raises(ValueError, match=field):
            SimScenario(prob=prob, beta_over_sigma=np.zeros(prob.p), reps=10_000, seed=1,
                        spec=WeightSpec(prob.n, 2.0), **{field: value})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected_by_name(self, bad):
        prob = random_problem(511, with_y=False)
        spec = WeightSpec(prob.n, 2.0)
        beta = np.zeros(prob.p)
        beta[3] = bad
        with pytest.raises(ValueError, match="beta_over_sigma must be finite"):
            SimScenario(prob=prob, beta_over_sigma=beta, reps=10_000, seed=1, spec=spec,
                        audit_fraction=0.0)
        with pytest.raises(ValueError, match="grid vectors must be finite"):
            min_coverage_scan(prob, spec, 0.05, [np.zeros(3), beta[2:]], reps=2_000, seed=1)
        with pytest.raises(ValueError, match="gamma must be finite"):
            w1_exceedance(0.1, [0.0, bad], 5, 100, 2.0)

    def test_non_integral_reps_refused(self):
        prob = random_problem(511, with_y=False)
        spec = WeightSpec(prob.n, 2.0)
        with pytest.raises(ValueError, match="reps must be an integer"):
            SimScenario(prob=prob, beta_over_sigma=np.zeros(prob.p), reps=10_000.5, seed=1,
                        spec=spec)
        with pytest.raises(ValueError, match="scan reps must be an integer"):
            min_coverage_scan(prob, spec, 0.05, [np.zeros(3)], reps=2_000.5, seed=1)
        with pytest.raises(ValueError, match="reps must be an integer"):
            suites.theorem4_suite(reps=2_000.5, seed=1)
        # numpy integers pass
        SimScenario(prob=prob, beta_over_sigma=np.zeros(prob.p), reps=np.int64(10_000), seed=1,
                    spec=spec)
        assert len(suites.theorem4_suite(reps=np.int64(2_000), seed=1)) == 11

    @pytest.mark.parametrize("entry", ["SimScenario", "min_coverage_scan", "theorem4_suite"])
    def test_non_integral_seed_refused(self, entry):
        # A fractional seed used to run another seed's stream.
        prob = random_problem(511, with_y=False)
        spec = WeightSpec(prob.n, 2.0)
        run = {
            "SimScenario": lambda seed: SimScenario(prob=prob, beta_over_sigma=np.zeros(prob.p),
                                                    reps=10_000, seed=seed, spec=spec),
            "min_coverage_scan": lambda seed: min_coverage_scan(prob, spec, 0.05, [np.zeros(3)],
                                                                reps=1_000, seed=seed),
            "theorem4_suite": lambda seed: suites.theorem4_suite(reps=1_000, seed=seed),
        }[entry]
        with pytest.raises(ValueError, match="seed must be an integer, not 1.5"):
            run(1.5)
        run(np.uint64(1))  # numpy integers pass

    def test_scan_reps_eps_and_grids_checked(self):
        prob = random_problem(511, with_y=False)
        spec = WeightSpec(prob.n, 2.0)
        with pytest.raises(ValueError, match="scan reps"):
            min_coverage_scan(prob, spec, 0.05, [np.zeros(3)], reps=999, seed=1)
        with pytest.raises(ValueError, match="reps must be at least 1000"):
            suites.theorem4_suite(reps=999, seed=1)
        for eps in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match="eps"):
                w1_exceedance(eps, 0.0, 5, 100, 2.0)

    def test_spec_for_another_sample_size_rejected(self, monkeypatch):
        import matabound.mcverify as mcv

        def no_kernel(*args, **kwargs):
            raise AssertionError("drew noise for a mismatched spec")

        monkeypatch.setattr(mcv, "_SimKernel", no_kernel)
        prob = random_problem(511, with_y=False)
        spec = WeightSpec(prob.n + 1, 2.0)
        match = f"WeightSpec has n={prob.n + 1} but the problem has n={prob.n}"
        with pytest.raises(ValueError, match=match):
            SimScenario(prob=prob, beta_over_sigma=np.zeros(prob.p), reps=10_000, seed=1,
                        spec=spec)
        with pytest.raises(ValueError, match=match):
            min_coverage_scan(prob, spec, 0.05, [np.zeros(3)], reps=2_000, seed=1)

    def test_two_model_problem_checks(self):
        with pytest.raises(ValueError, match="n - m >= 2"):
            two_model_problem(5, 6, 0.5)
        for rho in (1.0, -1.0):
            with pytest.raises(ValueError, match="rho"):
                two_model_problem(5, 8, rho)


class TestSuites:
    def test_integral_vs_mc_and_theorem2_rows_are_finite(self, monkeypatch):
        monkeypatch.setattr(suites, "THEOREM2_SCAN_REPS", 1_000)
        for suite, count in ((suites.integral_vs_mc_suite, 24), (suites.theorem2_suite, 2)):
            rows = suite(reps=10_000, seed=5)
            assert len(rows) == count
            for r in rows:
                assert np.isfinite([r.value, r.reference, r.tolerance]).all(), r
        # The last rows are theorem2's.  Theorem 2: the bound is at or above
        # the full-family scan minimum.
        assert all(r.passed for r in rows), rows
