"""Coverage double integral: inner root solve, densities, and MC agreement."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.optimize import brentq
from scipy.special import stdtr

from matabound import (
    CoverageGrid,
    QuadratureConfig,
    TwoModelConfig,
    coverage_probability,
    delta_u,
    f_m_pdf,
)
from matabound.coverage import _gauss_legendre, _y_domain
from matabound.errors import DomainError, QuadratureError
from matabound.weights import w1


def make_cfg(m=8, n=12, rho=0.6, d=2.0, alpha=0.05):
    return TwoModelConfig(m=m, n=n, rho=rho, d=d, alpha=alpha)


class TestFmPdf:
    @pytest.mark.parametrize("m", [1, 2, 5, 44])
    def test_integrates_to_one_under_module_quadrature(self, m):
        # quantile truncation at 1e-12 so the omitted mass sits below the
        # 1e-10 normalization tolerance
        quad = QuadratureConfig(y_lo_quantile=1e-12, y_hi_quantile=1.0 - 1e-12)
        lo, hi = _y_domain(m, quad)
        yn, wy = _gauss_legendre(lo, hi, 400)
        assert float(wy @ f_m_pdf(yn, m)) == pytest.approx(1.0, abs=1e-10)

    def test_m1_is_half_normal(self):
        y = np.linspace(0.05, 3.0, 40)
        np.testing.assert_allclose(f_m_pdf(y, 1), 2.0 * sps.norm.pdf(y), rtol=1e-12)

    @pytest.mark.parametrize("m", [2, 5, 44])
    def test_mode_location(self, m):
        # stationarity of log f at sqrt((m-1)/m), by central difference
        mode = math.sqrt((m - 1) / m)
        h = 1e-6
        dlog = (math.log(f_m_pdf(mode + h, m)) - math.log(f_m_pdf(mode - h, m))) / (2 * h)
        assert abs(dlog) < 1e-6
        assert f_m_pdf(mode, m) > f_m_pdf(mode + 0.05, m)
        assert f_m_pdf(mode, m) > f_m_pdf(mode - 0.05, m)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            f_m_pdf(0.0, 3)
        with pytest.raises(DomainError):
            f_m_pdf(np.array([0.5, -1.0]), 3)


class TestDeltaU:
    def test_median_at_symmetric_point(self):
        for rho in (0.0, 0.5, 0.96):
            cfg = make_cfg(rho=rho)
            assert delta_u(0.0, 1.3, 0.5, cfg) == pytest.approx(0.0, abs=1e-10)

    def test_submodel_limit_closed_form(self):
        # huge penalty constant forces w1 -> 1
        cfg = make_cfg(m=6, n=9, rho=0.4, d=200.0)
        x, y, u = 0.7, 1.1, 0.8
        s = math.sqrt(1 - cfg.rho**2)
        expected = cfg.rho * x + math.sqrt(
            (x * x + cfg.m * y * y) / (cfg.m + 1.0)
        ) * s * sps.t.ppf(u, cfg.m + 1)
        assert delta_u(x, y, u, cfg) == pytest.approx(expected, abs=1e-9)

    def test_full_model_limit_closed_form(self):
        # d = 0 and large x forces w1 -> 0
        cfg = make_cfg(m=6, n=9, rho=0.4, d=0.0)
        x, y, u = 50.0, 0.8, 0.3
        assert delta_u(x, y, u, cfg) == pytest.approx(
            y * sps.t.ppf(u, cfg.m), abs=1e-9
        )

    def test_residual_below_tolerance_on_grid(self):
        cfg = make_cfg(m=5, n=7, rho=0.96, d=math.log(7))
        xs = np.linspace(-6.0, 18.0, 23)[:, None]
        ys = np.linspace(0.05, 2.5, 17)[None, :]
        dlo = delta_u(xs, ys, 0.025, cfg, tol=1e-10)
        dhi = delta_u(xs, ys, 0.975, cfg, tol=1e-10)
        assert dlo.shape == (23, 17)
        assert np.all(dlo < dhi)

    def test_scalar_and_array_agree(self):
        cfg = make_cfg()
        xs = np.array([-1.0, 0.3, 4.0])
        arr = delta_u(xs, 0.9, 0.25, cfg)
        for xi, di in zip(xs, arr):
            assert delta_u(float(xi), 0.9, 0.25, cfg) == pytest.approx(di, abs=1e-12)

    def test_antisymmetry_in_x(self):
        cfg = make_cfg(rho=0.7)
        x, y = 1.4, 0.8
        assert delta_u(-x, y, 0.3, cfg) == pytest.approx(
            -delta_u(x, y, 0.7, cfg), abs=1e-9
        )

    def test_domain_errors(self):
        cfg = make_cfg()
        with pytest.raises(DomainError):
            delta_u(0.0, -1.0, 0.5, cfg)
        with pytest.raises(DomainError):
            delta_u(0.0, 1.0, 1.0, cfg)


@st.composite
def delta_u_cases(draw):
    """(cfg, x, y, u): |x/y| up to 1e10 over the paper's m, rho and n ranges."""
    m = draw(st.sampled_from([1, 5, 44, 200]))
    n = draw(st.integers(m + 1, 10**6))
    rho = draw(st.floats(-0.999999, 0.999999))
    d = draw(st.sampled_from([2.0, math.log(n)]))
    y = draw(st.floats(1e-3, 10.0))
    t = draw(st.one_of(st.floats(-20.0, 20.0), st.floats(-1e10, 1e10)))
    u = draw(st.floats(1e-4, 1.0 - 1e-4))
    return TwoModelConfig(m=m, n=n, rho=rho, d=d, alpha=0.05), t * y, y, u


def direct_lhs(delta, x, y, cfg):
    """Left side of the tail-area equation in the original (x, y) form.

    T_1 is the Cauchy cdf from scipy.stats: scipy.special.stdtr(1, z) is
    off by up to 1.6e-9 near z = 0.
    """
    m, rho = cfg.m, cfg.rho
    s = math.sqrt(1.0 - rho * rho)
    w = w1(x * x / (y * y), m, cfg.n, cfg.d)
    c = math.sqrt((m + 1.0) / (x * x + m * y * y))
    full = sps.cauchy.cdf(delta / y) if m == 1 else stdtr(m, delta / y)
    return w * stdtr(m + 1, c * (delta - rho * x) / s) + (1.0 - w) * full


class TestDeltaUProperties:
    # delta is measured in units of y, so tolerances are relative to
    # max(|delta|, y): a root at delta = 0 has no relative scale of its own.

    @settings(max_examples=200, deadline=None)
    @given(delta_u_cases(), st.floats(1e-3, 1e3))
    def test_scale_equivariance(self, case, k):
        cfg, x, y, u = case
        base = delta_u(x, y, u, cfg)
        scaled = delta_u(k * x, k * y, u, cfg)
        assert abs(scaled - k * base) <= 1e-12 * k * max(abs(base), y)

    @settings(max_examples=200, deadline=None)
    @given(delta_u_cases(), st.sampled_from([1e-10, 1e-12]))
    def test_residual_within_tolerance(self, case, tol):
        cfg, x, y, u = case
        delta = delta_u(x, y, u, cfg, tol=tol)
        assert abs(direct_lhs(delta, x, y, cfg) - u) <= tol

    @settings(max_examples=200, deadline=None)
    @given(delta_u_cases())
    # stdtr(1, z) is flat to 1e-9 near z = 0, and stdtrit(4, u) is 0 near
    # u = 1/2: each broke the solve at these points.
    @example((TwoModelConfig(m=1, n=209, rho=0.5, d=2.0, alpha=0.05), 0.5, 1.0, 0.5))
    @example((TwoModelConfig(m=3, n=5, rho=0.0, d=2.0, alpha=0.05), 0.0, 1.0, 0.49999999))
    def test_agrees_with_brentq(self, case):
        cfg, x, y, u = case
        delta = delta_u(x, y, u, cfg)
        lo, hi = delta - 1e-3 * max(abs(delta), y), delta + 1e-3 * max(abs(delta), y)
        while direct_lhs(lo, x, y, cfg) > u:
            lo -= hi - lo
        while direct_lhs(hi, x, y, cfg) < u:
            hi += hi - lo
        ref = brentq(lambda v: direct_lhs(v, x, y, cfg) - u, lo, hi,
                     xtol=1e-15 * max(abs(delta), y))
        assert abs(delta - ref) <= 1e-9 * max(abs(ref), y)


class TestCoverageProbability:
    def test_within_unit_interval(self):
        cfg = make_cfg(m=5, n=7, rho=0.96, d=math.log(7))
        for gamma in (0.0, 1.0, 3.0):
            assert 0.0 < coverage_probability(gamma, cfg) < 1.0

    def test_even_in_gamma_and_rho(self):
        cfg = make_cfg(m=10, n=14, rho=0.7)
        cfg_neg = make_cfg(m=10, n=14, rho=-0.7)
        for gamma in (0.6, 1.8):
            c = coverage_probability(gamma, cfg)
            assert abs(c - coverage_probability(-gamma, cfg)) < 1e-7
            assert abs(c - coverage_probability(gamma, cfg_neg)) < 1e-7

    def test_node_doubling_stability(self):
        cfg = TwoModelConfig(m=44, n=60, rho=0.9599, d=2.0, alpha=0.05)
        quad = QuadratureConfig()
        doubled = QuadratureConfig(nodes_x=400, nodes_y=400)
        for gamma in (0.0, 1.4):
            a = coverage_probability(gamma, cfg, quad)
            b = coverage_probability(gamma, cfg, doubled)
            assert abs(a - b) < 1e-6

    def test_check_convergence_passes_at_defaults(self):
        cfg = make_cfg(m=5, n=7, rho=0.7)
        val = coverage_probability(1.0, cfg, check_convergence=True)
        assert 0.0 < val < 1.0

    def test_matches_monte_carlo_at_stress_config(self):
        # MC oracle at the near-collinear large-m setup
        from matabound.mcverify import simulate_coverage
        from matabound.suites import two_model_scenario

        cfg = TwoModelConfig(m=44, n=60, rho=0.9599, d=2.0, alpha=0.05)
        analytic = coverage_probability(1.0, cfg)
        sc = two_model_scenario(44, 60, 0.9599, 1.0, 2.0, 0.05,
                                reps=100_000, seed=90210, audit_fraction=0.002)
        est = simulate_coverage(sc)
        assert abs(est.p_hat - analytic) < 3.0 * est.se


class TestCoverageGrid:
    def test_matches_direct_evaluation(self):
        cfg = make_cfg(m=9, n=13, rho=0.85, d=2.0)
        for grid in (CoverageGrid(cfg), CoverageGrid(cfg, gammas=(0.7, 5.0))):
            for gamma in (0.7, 2.0, 5.0):
                direct = coverage_probability(gamma, cfg)
                assert grid.coverage_at(gamma) == pytest.approx(direct, abs=1e-7)
        assert CoverageGrid(cfg).coverage_at(0.0) == pytest.approx(
            coverage_probability(0.0, cfg), abs=1e-7)

    def test_rejects_gamma_outside_cached_range(self):
        grid = CoverageGrid(make_cfg())
        with pytest.raises(ValueError):
            grid.coverage_at(50.0)
        with pytest.raises(ValueError):
            grid.coverage_at(-1.0)
        with pytest.raises(ValueError, match="empty"):
            CoverageGrid(make_cfg(), gammas=(2.0, 1.0))


class TestConfigValidation:
    def test_rho_clamped_near_one(self):
        cfg = TwoModelConfig(m=5, n=7, rho=1.0 - 1e-12, d=2.0, alpha=0.05)
        assert cfg.rho == pytest.approx(1.0 - 1e-9)
        cfg = TwoModelConfig(m=5, n=7, rho=-(1.0 - 1e-12), d=2.0, alpha=0.05)
        assert cfg.rho == pytest.approx(-(1.0 - 1e-9))
        with pytest.raises(ValueError):
            TwoModelConfig(m=5, n=7, rho=1.0, d=2.0, alpha=0.05)

    def test_m_n_consistency(self):
        with pytest.raises(ValueError):
            TwoModelConfig(m=5, n=5, rho=0.5, d=2.0, alpha=0.05)
        with pytest.raises(ValueError):
            TwoModelConfig(m=0, n=5, rho=0.5, d=2.0, alpha=0.05)

    def test_from_problem_uses_design_quantities(self):
        from helpers import gram_problem

        gram = np.eye(3)
        gram[0, 2] = gram[2, 0] = -0.45
        prob = gram_problem(gram, n=12, q=2)
        cfg = TwoModelConfig.from_problem(prob, d=2.0, alpha=0.05)
        assert cfg.m == 9 and cfg.n == 12
        assert cfg.rho == pytest.approx(0.45, abs=1e-12)

    def test_quadrature_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(nodes_x=4)
        with pytest.raises(ValueError):
            QuadratureConfig(y_lo_quantile=0.9, y_hi_quantile=0.5)

    def test_quadrature_error_type_exists(self):
        assert issubclass(QuadratureError, Exception)
