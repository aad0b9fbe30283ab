"""Coverage double integral: inner root solve, densities, and MC agreement."""

import copy
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import stdtr
from scipy.stats import chi2

from matabound import (
    CoverageGrid,
    QuadratureConfig,
    TwoModelConfig,
    WeightSpec,
    coverage_probability,
    delta_u,
    f_m_pdf,
    upper_bound,
)
import matabound.coverage as coverage
from matabound.bound import resolve_d
from matabound.coverage import _NODES, _W_GAUSS, _W_KRONROD, _panel_nodes
from matabound.errors import QuadratureError

from helpers import w1_closed_form


def make_cfg(m=8, n=12, rho=0.6, d=2.0, alpha=0.05):
    return TwoModelConfig(m=m, n=n, rho=rho, d=d, alpha=alpha)


class TestFmPdf:
    @pytest.mark.parametrize("m", [1, 2, 5, 44])
    def test_integrates_to_one_under_module_quadrature(self, m):
        # quantile truncation at 1e-12 so the omitted mass sits below the
        # 1e-10 normalization tolerance
        lo, hi = (math.sqrt(chi2.ppf(q, m) / m) for q in (1e-12, 1.0 - 1e-12))
        edges = np.linspace(lo, hi, 41)
        y, half = _panel_nodes(edges[:-1], edges[1:])
        assert float(half @ (f_m_pdf(y, m) @ _W_KRONROD)) == pytest.approx(1.0, abs=1e-10)

    def test_kronrod_and_gauss_rules_are_exact(self):
        for k in range(23):
            exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
            assert abs(_NODES ** k @ _W_KRONROD - exact) < 1e-14
            if k <= 13:
                assert abs(_NODES ** k @ _W_GAUSS - exact) < 1e-14

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
        with pytest.raises(ValueError, match="f_m_pdf requires y > 0"):
            f_m_pdf(0.0, 3)
        with pytest.raises(ValueError, match="f_m_pdf requires y > 0"):
            f_m_pdf(np.array([0.5, -1.0]), 3)

    @pytest.mark.parametrize("y, m, message", [
        (math.nan, 3, "requires y > 0"), (math.inf, 3, "requires a finite y"),
        (1.0, 0, "m must be at least 1"), (1.0, 2.5, "m must be an integer")])
    def test_rejects_nan_inf_and_the_m_two_model_config_rejects(self, y, m, message):
        with pytest.raises(ValueError, match=message):
            f_m_pdf(y, m)


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
        dlo = delta_u(xs, ys, 0.025, cfg)
        dhi = delta_u(xs, ys, 0.975, cfg)
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
        with pytest.raises(ValueError, match="delta_u requires y > 0"):
            delta_u(0.0, -1.0, 0.5, cfg)
        with pytest.raises(ValueError, match="delta_u requires 0 < u < 1"):
            delta_u(0.0, 1.0, 1.0, cfg)

    def test_infinite_y_rejected(self):
        # it returned -inf
        with pytest.raises(ValueError, match="delta_u requires a finite x and y"):
            delta_u(1.0, math.inf, 0.025, make_cfg())


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
    w = w1_closed_form(x * x / (y * y), m, cfg.n, cfg.d)
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
    @given(delta_u_cases())
    def test_residual_within_tolerance(self, case):
        # delta_u itself refuses residuals above 1e-10; the solve reaches
        # rounding level, so every example is held to 1e-12.
        cfg, x, y, u = case
        delta = delta_u(x, y, u, cfg)
        assert abs(direct_lhs(delta, x, y, cfg) - u) <= 1e-12

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


SWEEP_M = (1, 5, 44, 200)
SWEEP_RHO = (0.3, 0.9, 0.99, 0.999999)


@st.composite
def sweep_configs(draw):
    """Configs over the sweep's ranges: m, n in {m + 2, 1e6}, AIC or BIC,
    and rho up to 0.99."""
    m = draw(st.sampled_from(SWEEP_M))
    n = draw(st.sampled_from([m + 2, 10**6]))
    d = draw(st.sampled_from([2.0, math.log(n)]))
    rho = draw(st.floats(0.0, 0.99))
    return TwoModelConfig(m=m, n=n, rho=rho, d=d, alpha=0.05)


class TestCoverageProbability:
    def test_within_unit_interval(self):
        cfg = make_cfg(m=5, n=7, rho=0.96, d=math.log(7))
        for gamma in (0.0, 1.0, 3.0):
            assert 0.0 < coverage_probability(gamma, cfg) < 1.0

    @settings(max_examples=25, deadline=None)
    @given(sweep_configs(), st.floats(0.0, 5.0))
    @example(make_cfg(m=10, n=14, rho=0.7), 0.6)
    @example(make_cfg(m=10, n=14, rho=0.7), 1.8)
    def test_even_in_gamma_and_rho(self, cfg, gamma):
        c = coverage_probability(gamma, cfg)
        assert abs(c - coverage_probability(-gamma, cfg)) < 1e-7
        flipped = TwoModelConfig(m=cfg.m, n=cfg.n, rho=-cfg.rho, d=cfg.d, alpha=cfg.alpha)
        assert abs(c - coverage_probability(gamma, flipped)) < 1e-7

    def test_error_estimate_bounds_refinement(self, monkeypatch):
        cfg = TwoModelConfig(m=44, n=60, rho=0.9599, d=2.0, alpha=0.05)
        for gamma in (0.0, 1.4):
            a, err = CoverageGrid(cfg).coverage_with_error(gamma)
            with monkeypatch.context() as mp:
                mp.setattr(coverage, "_TOL", 1e-9)
                b, _ = CoverageGrid(cfg).coverage_with_error(gamma)
            assert abs(a - b) <= err + 1e-9

    def test_check_convergence_passes_at_defaults(self):
        cfg = make_cfg(m=5, n=7, rho=0.7)
        val, err = CoverageGrid(cfg).coverage_with_error(1.0)
        assert err <= coverage._TOL
        assert coverage_probability(1.0, cfg) == val
        assert 0.0 < val < 1.0

    def test_w1_band_at_large_n(self):
        # The w1 band |t| <= t* = 0.0083 here; a 200x200 x-y grid missed it
        # and returned 0.9499999999.
        cfg = TwoModelConfig(5, 10**6, 0.95, math.log(1e6), 0.05)
        assert abs(coverage_probability(1.5, cfg) - 0.948335398) < 1e-6

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


PERFBENCH_CELLS = [
    TwoModelConfig(m=1, n=3, rho=0.99, d=2.0, alpha=0.05),
    TwoModelConfig(m=5, n=7, rho=0.7, d=2.0, alpha=0.05),
    TwoModelConfig(m=44, n=46, rho=0.95, d=math.log(46), alpha=0.05),
]


# (value, error estimate) at gamma = 0, 1, 2 on each perfbench cell, from
# the rule that evaluated both normal cdfs at every y node: a fresh
# CoverageGrid's coverage_with_error with coverage._PHI_SATURATED set to
# math.inf, so that no cdf counts as saturated.
PINNED = [
    [(0.9504340491279583, 8.157667029553897e-09), (0.9384069852326764, 2.0794500913455694e-08),
     (0.9406825628481574, 1.8714891693187183e-09)],
    [(0.9540461125132941, 8.101003143087857e-11), (0.9416191007578381, 9.091371372168782e-11),
     (0.9353271872372279, 1.8559335779474998e-10)],
    [(0.9803648314548812, 2.350297253296975e-07), (0.8357691320647911, 7.473965323521359e-08),
     (0.8492362315337709, 8.479319503306664e-07)],
]


class TestCoverageGrid:
    def test_matches_direct_evaluation(self):
        cfg = make_cfg(m=9, n=13, rho=0.85, d=2.0)
        grid = CoverageGrid(cfg)
        for gamma in (0.0, 0.7, 2.0, 5.0):
            assert grid.coverage_at(gamma) == coverage_probability(gamma, cfg)

    @pytest.mark.parametrize("cfg, pinned", zip(PERFBENCH_CELLS, PINNED))
    def test_saturated_cdfs_leave_values_pinned(self, cfg, pinned):
        # Saturated cdfs are 1 in double or below 7.6e-24, so taking them
        # as 1 and 0 moves no value or error estimate by more than rounding.
        grid = CoverageGrid(cfg)
        for gamma, (value, error) in zip((0.0, 1.0, 2.0), pinned):
            got_value, got_error = grid.coverage_with_error(gamma)
            assert abs(got_value - value) <= 1e-15
            assert abs(got_error - error) <= 1e-15


def exact_coverage_at_zero(cfg):
    """C(0) as one t integral.  Given t = x / y, y^2 (m + t^2) is
    chi-square with m + 1 df, so the y integral of each normal cdf is a
    t_{m+1} cdf, and D_u(-t) = -D_{1-u}(t) folds t < 0 onto t > 0:

        C(0) = 2 int_0^inf f_{t_m}(t) [T_{m+1}(c(t) (D_hi - rho t) / s)
                                       - T_{m+1}(c(t) (D_lo - rho t) / s)] dt

    with c(t) = sqrt((m + 1) / (m + t^2)).  No f_m quantile truncates it.
    QUADPACK's adaptive ``quad`` runs on the rule's base t panels, with
    t = 64 / v on the tail panels."""
    m, rho = cfg.m, cfg.rho
    s = math.sqrt(1.0 - rho * rho)
    u = np.array([cfg.alpha / 2.0, 1.0 - cfg.alpha / 2.0])

    def integrand(t):
        dlo, dhi = delta_u(t, 1.0, u, cfg)
        c = math.sqrt((m + 1.0) / (m + t * t)) / s
        return sps.t.pdf(t, m) * (stdtr(m + 1, c * (dhi - rho * t))
                                  - stdtr(m + 1, c * (dlo - rho * t)))

    def tail(v):
        return integrand(64.0 / v) * 64.0 / (v * v)

    total = 0.0
    for a, b, is_tail in zip(*coverage._t_panels(cfg)):
        f = tail if is_tail else integrand
        total += quad(f, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    return 2.0 * total


# (m, rho, n, d rule) configs of the 64-config sweep (tools/digest.py).
EXACT_C0_CONFIGS = [(1, 0.3, 3, "aic"), (1, 0.9, 10**6, "bic"), (1, 0.999999, 10**6, "aic"),
                    (1, 0.999999, 10**6, "bic"), (5, 0.3, 10**6, "aic"), (5, 0.9, 7, "aic"),
                    (5, 0.99, 10**6, "bic"), (44, 0.3, 46, "bic"), (44, 0.9, 46, "aic"),
                    (44, 0.999999, 10**6, "bic"), (200, 0.3, 202, "aic"),
                    (200, 0.99, 10**6, "bic"), (200, 0.999999, 202, "aic")]


class TestExactCoverageAtZero:
    @pytest.mark.parametrize("m, rho, n, rule", EXACT_C0_CONFIGS)
    def test_grid_and_bound_against_exact_c0(self, m, rho, n, rule):
        # 2.5e-10 covers the f_m mass outside the rule's y domain (at most
        # 2e-10), which its error estimate leaves out.
        d = resolve_d(rule, n)
        cfg = TwoModelConfig(m=m, n=n, rho=rho, d=d, alpha=0.05)
        exact = exact_coverage_at_zero(cfg)
        value, error = CoverageGrid(cfg).coverage_with_error(0.0)
        assert abs(value - exact) <= error + 2.5e-10
        res = upper_bound(rho, m, n, d, 0.05)
        assert res.upper_bound <= exact + res.error_estimate


class TestCoverageDerivatives:
    @pytest.mark.parametrize("cfg", PERFBENCH_CELLS)
    def test_match_central_differences(self, cfg):
        # The differences' truncation errors, h^2 C^(3) / 6 and
        # h^2 C^(4) / 12 at h = 1e-3, stay below 4e-7 on these cells.
        grid, h = CoverageGrid(cfg), 1e-3
        for gamma in (0.5, 1.3, 2.0):
            c, d1, d2 = grid.coverage_derivatives(gamma)
            up, down = grid.coverage_at(gamma + h), grid.coverage_at(gamma - h)
            assert abs((up - down) / (2.0 * h) - d1) < 1e-6
            assert abs((up - 2.0 * c + down) / h**2 - d2) < 1e-6

    @settings(max_examples=25, deadline=None)
    @given(sweep_configs(), st.floats(0.0, 5.0))
    def test_first_derivative_odd_in_gamma_and_even_in_rho(self, cfg, gamma):
        d1 = CoverageGrid(cfg).coverage_derivatives(gamma)[1]
        assert abs(d1 + CoverageGrid(cfg).coverage_derivatives(-gamma)[1]) < 1e-7
        flipped = TwoModelConfig(m=cfg.m, n=cfg.n, rho=-cfg.rho, d=cfg.d, alpha=cfg.alpha)
        assert abs(d1 - CoverageGrid(flipped).coverage_derivatives(gamma)[1]) < 1e-7

    @pytest.mark.parametrize("cfg", PERFBENCH_CELLS)
    def test_value_is_coverage_at_bit_for_bit(self, cfg):
        for gamma in (0.0, 0.7, 1.3, 4.0):
            grid = CoverageGrid(cfg)
            assert grid.coverage_derivatives(gamma)[0] == coverage_probability(gamma, cfg)
            # the memo holds the pair that a plain integral gives
            assert grid.coverage_with_error(gamma) == CoverageGrid(cfg).coverage_with_error(gamma)


class TestRegimeCuts:
    # Sign changes of the regime excess on the scan, per m, over the grid
    # below: 412 in all.
    BRACKETS = {1: 76, 5: 112, 44: 112, 200: 112}

    @pytest.mark.parametrize("m", (1, 5, 44, 200))
    def test_within_1e_13_of_brentq_on_every_bracket(self, m):
        # Each cut is checked against scipy's brentq, run to its own
        # 4 eps rtol (xtol 1e-300), on the scan bracket it lies in.
        t = np.geomspace(1e-8, coverage._T_LADDER_END, 4001)
        brackets = 0
        for rho in (0.3, 0.99, 0.999999, -0.5):
            for n in (m + 2, 10**6):
                for rule in ("aic", "bic"):
                    for alpha in (0.01, 0.05):
                        cfg = TwoModelConfig(m, n, rho, resolve_d(rule, n), alpha)
                        cuts = np.sort(coverage._root_regime_changes(cfg))

                        def excess(x, e, u):
                            w = w1_closed_form(x * x, m, n, cfg.d)
                            return e * w + (1.0 - w) * coverage._t_cdf(abs(rho) * x, m) - u

                        refs = []
                        for u in (alpha / 2.0, 1.0 - alpha / 2.0):
                            for e in (0.0, 0.5, 1.0):
                                sign = np.sign(excess(t, e, u))
                                for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0):
                                    refs.append(brentq(lambda x: float(excess(x, e, u)),
                                                       t[i], t[i + 1], xtol=1e-300))
                        refs = np.sort(refs)
                        assert cuts.size == refs.size
                        assert np.all(np.abs(cuts - refs) <= 1e-13 * refs)
                        brackets += refs.size
        assert brackets == self.BRACKETS[m]


class TestCoverageSweep:
    def test_sweep_returns_within_tolerance(self):
        # m x rho x n x AIC/BIC: every rho <= 0.99 config returns; at
        # rho = 0.999999 a value may be refused but never exceed the tolerance.
        for m in SWEEP_M:
            for rho in SWEEP_RHO:
                for n in (m + 2, 10**6):
                    for d in (2.0, math.log(n)):
                        grid = CoverageGrid(TwoModelConfig(m, n, rho, d, 0.05))
                        for gamma in (0.0, 1.0, 2.0, 5.0):
                            try:
                                value, err = grid.coverage_with_error(gamma)
                            except QuadratureError:
                                assert rho == 0.999999
                                continue
                            assert err <= coverage._TOL
                            assert 0.0 < value < 1.0


class TestNumericalFailures:
    """The rule's numerical-failure raises, each reached by breaking one
    piece of it."""

    def test_delta_u_unconverged(self, monkeypatch):
        monkeypatch.setattr(coverage, "_MAX_ITERATIONS", 1)
        with pytest.raises(QuadratureError,
                           match=r"delta_u: 7 points unconverged after 1 iterations"):
            delta_u(np.linspace(-3.0, 3.0, 7), 1.0, 0.025, make_cfg())

    def test_delta_u_residual_over_tolerance(self, monkeypatch):
        rule = copy.copy(coverage._RULE)
        object.__setattr__(rule, "delta_tol", -1.0)
        monkeypatch.setattr(coverage, "_RULE", rule)
        with pytest.raises(QuadratureError,
                           match=r"delta_u residual .* exceeds tolerance -1\.0e\+00"):
            delta_u(0.5, 1.0, 0.025, make_cfg())

    def test_regime_root_unconverged(self, monkeypatch):
        # _t_panels solves the regime cuts before _roots solves delta_u.
        monkeypatch.setattr(coverage, "_MAX_ITERATIONS", 1)
        with pytest.raises(QuadratureError,
                           match=r"regime_cut: \d+ points unconverged after 1 iterations"):
            CoverageGrid(make_cfg())

    def test_quantiles_out_of_order(self, monkeypatch):
        solve = coverage.delta_u
        monkeypatch.setattr(coverage, "delta_u", lambda t, y, u, cfg: solve(t, y, 1.0 - u, cfg))
        with pytest.raises(QuadratureError, match="tail-area quantiles out of order"):
            CoverageGrid(make_cfg())

    def test_coverage_outside_the_unit_interval(self, monkeypatch):
        integrals = CoverageGrid._t_integrals

        def negated(self, *args):
            kron, err, dkron = integrals(self, *args)
            return -kron, err, dkron

        monkeypatch.setattr(CoverageGrid, "_t_integrals", negated)
        with pytest.raises(QuadratureError, match=r"coverage estimate -0\.9\d* escaped \(0, 1\)"):
            CoverageGrid(make_cfg()).coverage_at(1.0)


class TestConfigValidation:
    def test_rho_clamped_near_one(self):
        cfg = TwoModelConfig(m=5, n=7, rho=1.0 - 1e-12, d=2.0, alpha=0.05)
        assert cfg.rho == pytest.approx(1.0 - 1e-9)
        cfg = TwoModelConfig(m=5, n=7, rho=-(1.0 - 1e-12), d=2.0, alpha=0.05)
        assert cfg.rho == pytest.approx(-(1.0 - 1e-9))
        with pytest.raises(ValueError):
            TwoModelConfig(m=5, n=7, rho=1.0, d=2.0, alpha=0.05)

    def test_nan_rho_and_d_rejected(self):
        # NaN fails every ordered comparison, so the checks must be written
        # to fail rather than pass on it
        nan = float("nan")
        with pytest.raises(ValueError, match="penalty constant"):
            upper_bound(0.5, 5, 7, nan, 0.05)
        with pytest.raises(ValueError, match="rho"):
            TwoModelConfig(m=5, n=7, rho=nan, d=2.0, alpha=0.05)
        with pytest.raises(ValueError, match="penalty constant"):
            TwoModelConfig(m=5, n=7, rho=0.5, d=nan, alpha=0.05)
        with pytest.raises(ValueError, match="penalty constant"):
            WeightSpec.gic(7, nan)
        for d in (math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                upper_bound(0.5, 5, 7, d, 0.05)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                TwoModelConfig(m=5, n=7, rho=0.5, d=d, alpha=0.05)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                WeightSpec.gic(7, d)

    # At and below 2**-53, 1 - alpha/2 rounds to 1.
    @pytest.mark.parametrize("alpha", [0.0, 0.6, float("nan"), 1e-17, 2.0**-53])
    def test_alpha_range(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            TwoModelConfig(m=5, n=7, rho=0.5, d=2.0, alpha=alpha)

    def test_m_n_consistency(self):
        with pytest.raises(ValueError):
            TwoModelConfig(m=5, n=5, rho=0.5, d=2.0, alpha=0.05)
        with pytest.raises(ValueError):
            TwoModelConfig(m=0, n=5, rho=0.5, d=2.0, alpha=0.05)

    @pytest.mark.parametrize("m,n,name", [(5.5, 7, "m"), (5, 7.5, "n"), (5.0, 7, "m")])
    def test_m_and_n_must_be_integers(self, m, n, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            TwoModelConfig(m=m, n=n, rho=0.5, d=2.0, alpha=0.05)
        assert TwoModelConfig(m=np.int64(5), n=np.int64(7), rho=0.5, d=2.0, alpha=0.05).m == 5

    def test_quadrature_config_is_fixed(self):
        with pytest.raises(TypeError):
            QuadratureConfig(delta_tol=0.0)
        assert asdict(QuadratureConfig()) == {
            "y_lo_quantile": 1e-10,
            "y_hi_quantile": 1.0 - 1e-10,
            "delta_tol": 1e-10,
            "gamma_grid_max": 12.0,
            "gamma_refine_tol": 1e-6,
        }

    def test_quadrature_error_type_exists(self):
        assert issubclass(QuadratureError, Exception)
