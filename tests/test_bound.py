"""Minimum-coverage bound: search mechanics and qualitative trends."""

import json
import math
import os

import numpy as np
import pytest

import matabound.bound as bound
import matabound.coverage as coverage
from matabound import TwoModelConfig, coverage_probability, upper_bound
from matabound.bound import BoundResult, bound_curve, resolve_d
from matabound.errors import QuadratureError

with open(os.path.join(os.path.dirname(__file__), "..", "perfbench", "references.json")) as _fh:
    REFERENCES = json.load(_fh)


class TestResolveD:
    def test_named_rules(self):
        assert resolve_d("aic", 60) == 2.0
        assert resolve_d("AIC", 60) == 2.0
        assert resolve_d("bic", 60) == pytest.approx(math.log(60))
        assert resolve_d(3.5, 60) == 3.5
        assert resolve_d("fixed:3.0", 60) == 3.0
        assert resolve_d("3.5", 60) == 3.5

    def test_rejects_unknown_and_negative(self):
        with pytest.raises(ValueError):
            resolve_d("mallows", 60)
        with pytest.raises(ValueError):
            resolve_d("fixed:abc", 60)
        with pytest.raises(ValueError):
            resolve_d(-1.0, 60)
        with pytest.raises(ValueError):
            resolve_d("fixed:-1", 60)
        with pytest.raises(ValueError):
            resolve_d("nan", 60)
        with pytest.raises(ValueError, match="finite"):
            resolve_d("inf", 60)
        with pytest.raises(ValueError, match="finite"):
            resolve_d(math.inf, 60)


class TestUpperBound:
    def test_huge_finite_d_matches_saturated_weight(self):
        # d/n > 709.78 overflows exp(d/n); t* is then infinite and w1 is 1
        # at every t, as it already is at d = 3000
        huge = upper_bound(0.5, 5, 7, 1e6, 0.05)
        assert huge.upper_bound == upper_bound(0.5, 5, 7, 3000.0, 0.05).upper_bound

    def test_refinement_never_exceeds_grid_values(self):
        res = upper_bound(0.8, m=10, n=14, d=2.0, alpha=0.05)
        assert res.gamma_star >= 0.0
        assert 0.0 < res.upper_bound < 1.0
        assert res.diagnostics, "coarse grid evaluations missing"
        for _, value in res.diagnostics:
            assert res.upper_bound <= value + 1e-12

    def test_rho_zero_consistent_with_direct_integral(self):
        # no external value claimed: the bound must simply agree with
        # direct coverage evaluations on its own grid
        res = upper_bound(0.0, m=6, n=9, d=2.0, alpha=0.05)
        cfg = res.cfg
        for gamma, value in res.diagnostics[:8]:
            direct = coverage_probability(gamma, cfg)
            assert value == pytest.approx(direct, abs=2e-7)
        assert res.upper_bound <= min(v for _, v in res.diagnostics) + 1e-12

    def test_bic_bound_decreases_in_n_at_high_correlation(self):
        # fixed p = 10, |rho|_max = 0.9: the BIC bound must fall as n grows
        values = []
        for n in (15, 30, 70, 200, 500):
            res = upper_bound(0.9, m=n - 10, n=n, d=math.log(n), alpha=0.05)
            values.append(res.upper_bound)
        diffs = np.diff(values)
        assert np.all(diffs < 2e-4), values
        assert values[-1] < values[0] - 0.05

    def test_validates_rho(self):
        with pytest.raises(ValueError):
            upper_bound(1.0, m=5, n=7, d=2.0, alpha=0.05)
        with pytest.raises(ValueError):
            upper_bound(-0.2, m=5, n=7, d=2.0, alpha=0.05)

    def test_minimum_on_the_grid_edge_raises(self, monkeypatch):
        # coverage falling all the way to gamma = 12: the search refuses
        monkeypatch.setattr(coverage.CoverageGrid, "coverage_at",
                            lambda self, gamma: 0.95 - 1e-3 * gamma)
        with pytest.raises(QuadratureError, match="search boundary 12"):
            upper_bound(0.5, m=5, n=7, d=2.0, alpha=0.05)

    # Cells with the narrowest dip (gamma* about 0.111), a minimum at
    # gamma = 0, and the perfbench high-correlation cell.
    @pytest.mark.parametrize("rho, m, n, rule", [
        (0.999999, 1, 10**6, "bic"),
        (0.3, 5, 7, "aic"),
        (0.95, 44, 46, "bic"),
    ])
    def test_unit_step_grid_misses_no_minimum(self, rho, m, n, rule):
        res = upper_bound(rho, m, n, resolve_d(rule, n), 0.05)
        scan = min(coverage_probability(g, res.cfg) for g in np.arange(0.0, 3.0 + 1e-9, 0.125))
        assert res.upper_bound <= scan + 1e-12

    def test_convergence_check_passes(self):
        res = upper_bound(0.9, m=8, n=12, d=2.0, alpha=0.05)
        assert 0.0 < res.upper_bound < 1.0
        assert res.error_estimate <= coverage._TOL

    @pytest.mark.parametrize("name, rho, m, n, rule", [
        ("rho0.99-m1-n3-aic", 0.99, 1, 3, "aic"),
        ("rho0.7-m5-n7-aic", 0.7, 5, 7, "aic"),
        ("rho0.95-m44-n46-bic", 0.95, 44, 46, "bic"),
    ])
    def test_matches_reference_bounds(self, name, rho, m, n, rule):
        res = upper_bound(rho, m, n, resolve_d(rule, n), 0.05)
        assert abs(res.upper_bound - REFERENCES["bound"][name]["min_coverage"]) < 1e-9

    def test_matches_theorem2_reference_coverage(self):
        ref = REFERENCES["coverage"]["theorem2-8model-n20-aic-rho0.85-g1.5"]
        cfg = TwoModelConfig(m=16, n=20, rho=0.85, d=2.0, alpha=0.05)
        assert abs(coverage_probability(ref["gamma"], cfg) - ref["coverage"]) < 1e-9

    # Cells whose 200x200-node bound moved by 1.1e-4, 1.1e-3 and 5.5e-4
    # under node doubling, which refused them.
    @pytest.mark.parametrize("rho, m, n, rule", [
        (0.99, 1, 3, "aic"),
        (0.95, 5, 10**6, "bic"),
        (0.999999, 5, 7, "aic"),
    ])
    def test_former_doubling_failures_meet_the_estimate(self, rho, m, n, rule):
        try:
            res = upper_bound(rho, m, n, resolve_d(rule, n), 0.05)
        except QuadratureError:
            assert rho == 0.999999  # may refuse, but never return a worse value
            return
        assert res.error_estimate <= coverage._TOL
        if n == 10**6:
            # at most the coverage at gamma = 1.5, 0.948335398
            assert res.upper_bound <= 0.948335398 + 1e-6


def synthetic_curve(monkeypatch, coefs):
    """Make every grid return the polynomial in gamma with these
    coefficients, its derivatives and a zero error estimate; returns the
    gammas at which derivatives are asked for."""
    curve = np.polynomial.Polynomial(coefs)
    first, second = curve.deriv(), curve.deriv(2)
    polished = []

    def derivatives(self, gamma):
        polished.append(gamma)
        return float(curve(gamma)), float(first(gamma)), float(second(gamma))

    grid = coverage.CoverageGrid
    monkeypatch.setattr(grid, "coverage_at", lambda self, gamma: float(curve(gamma)))
    monkeypatch.setattr(grid, "coverage_with_error", lambda self, gamma: (float(curve(gamma)), 0.0))
    monkeypatch.setattr(grid, "coverage_derivatives", derivatives)
    return polished


class TestPolish:
    def test_interior_minimum(self, monkeypatch):
        # 0.94 + 0.01 u^2 + 0.004 u^3 + 0.001 u^4 with u = gamma - 1.37:
        # grid minimum at 1, true minimum at 1.37
        u = np.polynomial.Polynomial([-1.37, 1.0])
        coefs = (0.94 + 0.01 * u**2 + 0.004 * u**3 + 0.001 * u**4).coef
        polished = synthetic_curve(monkeypatch, coefs)
        res = upper_bound(0.5, m=5, n=7, d=2.0, alpha=0.05)
        assert abs(res.gamma_star - 1.37) <= 1e-6
        assert abs(res.upper_bound - 0.94) <= 1e-13
        assert len(polished) <= 5

    def test_true_minimum_at_zero_ends_at_once(self, monkeypatch):
        polished = synthetic_curve(monkeypatch, [0.95, 0.0, 0.01, 0.0, 0.001])
        res = upper_bound(0.5, m=5, n=7, d=2.0, alpha=0.05)
        assert res.gamma_star == 0.0
        assert res.upper_bound == 0.95
        assert len(polished) == 1

    def test_grid_minimum_at_zero_over_a_dip(self, monkeypatch):
        # 0.95 - 0.01 gamma^2 + 0.012 gamma^4: C''(0) < 0, grid minimum at 0
        # and the true one at sqrt(0.01 / 0.024), which no bisection of
        # [0, 1] hits
        synthetic_curve(monkeypatch, [0.95, 0.0, -0.01, 0.0, 0.012])
        res = upper_bound(0.5, m=5, n=7, d=2.0, alpha=0.05)
        assert abs(res.gamma_star - math.sqrt(0.01 / 0.024)) <= 1e-6
        assert abs(res.upper_bound - (0.95 - 0.01**2 / (4 * 0.012))) <= 1e-13


    def test_unconverged_polish_raises(self, monkeypatch):
        u = np.polynomial.Polynomial([-1.37, 1.0])
        synthetic_curve(monkeypatch, (0.94 + 0.01 * u**2 + 0.004 * u**3 + 0.001 * u**4).coef)
        monkeypatch.setattr(bound, "_MAX_ITERATIONS", 1)
        with pytest.raises(QuadratureError, match="gamma polish unconverged after 1 steps"):
            upper_bound(0.5, m=5, n=7, d=2.0, alpha=0.05)


class TestIntegralCount:
    @pytest.fixture
    def integrated(self, monkeypatch):
        """Gammas integrated, and gammas asked of coverage_at or
        coverage_derivatives."""
        calls = {"integrated": [], "asked": []}
        grid = coverage.CoverageGrid
        integrate = grid._integrate

        def counting_integrate(self, gamma, *args, **kwargs):
            calls["integrated"].append(gamma)
            return integrate(self, gamma, *args, **kwargs)

        def recording(method):
            def asked(self, gamma):
                calls["asked"].append(float(gamma))
                return method(self, gamma)
            return asked

        monkeypatch.setattr(grid, "_integrate", counting_integrate)
        for name in ("coverage_at", "coverage_derivatives"):
            monkeypatch.setattr(grid, name, recording(getattr(grid, name)))
        return calls

    # The three perfbench cells, then one whose minimum is at gamma = 0.
    @pytest.mark.parametrize("rho, m, n, rule, gamma_star_max", [
        (0.99, 1, 3, "aic", 12.0),
        (0.7, 5, 7, "aic", 12.0),
        (0.95, 44, 46, "bic", 12.0),
        (0.3, 5, 7, "aic", 1e-5),
    ])
    def test_at_most_thirty_integrals_per_bound(self, integrated, rho, m, n, rule,
                                                gamma_star_max):
        res = upper_bound(rho, m, n, resolve_d(rule, n), 0.05)
        # 13 on the grid, at most 7 in the polish
        assert len(integrated["integrated"]) <= 20
        # one integral per distinct gamma searched; none added at gamma*
        assert sorted(integrated["integrated"]) == sorted(set(integrated["asked"]))
        assert res.gamma_star <= gamma_star_max

    def test_memo_integrates_each_gamma_once(self, integrated):
        grid = coverage.CoverageGrid(TwoModelConfig(m=5, n=7, rho=0.7, d=2.0, alpha=0.05))
        first = grid.coverage_with_error(1.5)
        assert grid.coverage_at(1.5) == first[0]
        assert grid.coverage_with_error(np.float64(1.5)) == first
        assert integrated["integrated"] == [1.5]


class TestBoundCurve:
    def test_rows_ordered_and_monotonicity_reported(self):
        result = bound_curve([0.3, 0.6, 0.9], [(10, 14), (26, 30)], "bic", 0.05)
        keys = [(r.cfg.m, r.cfg.n, r.rho_max_abs) for r in result.rows]
        assert keys == [(10, 14, 0.3), (10, 14, 0.6), (10, 14, 0.9),
                        (26, 30, 0.3), (26, 30, 0.6), (26, 30, 0.9)]
        assert set(result.max_increase) == {(10, 14), (26, 30)}
        for r in result.rows:
            assert r.cfg.d == pytest.approx(math.log(r.cfg.n))
            assert 0.0 < r.upper_bound < 1.0
            assert r.error_estimate <= coverage._TOL

    def test_matches_individual_bound_calls(self):
        result = bound_curve([0.5], [(8, 12)], 2.0, 0.05)
        direct = upper_bound(0.5, 8, 12, 2.0, 0.05)
        assert result.rows[0].upper_bound == direct.upper_bound
        assert result.rows[0].gamma_star == direct.gamma_star

    def test_thread_pool_gives_identical_rows(self):
        # four cells on the pool, each placed where its own call would be
        curve = bound_curve([0.4, 0.8], [(8, 12), (10, 14)], "aic", 0.05)
        assert len(curve.rows) == 4
        cells = [(m, n, rho) for m, n in [(8, 12), (10, 14)] for rho in (0.4, 0.8)]
        for row, (m, n, rho) in zip(curve.rows, cells):
            direct = upper_bound(rho, m, n, 2.0, 0.05)
            assert row.upper_bound == direct.upper_bound
            assert row.gamma_star == direct.gamma_star
            assert row.error_estimate == direct.error_estimate

    def test_pool_sized_from_the_cpus(self, monkeypatch):
        sizes = []

        class Recording(bound.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        def fake_bound(rho, m, n, d, alpha):
            cfg = TwoModelConfig(m=m, n=n, rho=rho, d=d, alpha=alpha)
            return BoundResult(0.9, 0.0, rho, cfg, 0.0)

        monkeypatch.setattr(bound, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(bound, "upper_bound", fake_bound)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        bound_curve([0.4, 0.8], [(8, 12)], "aic", 0.05)
        bound_curve([0.1, 0.2, 0.3, 0.4, 0.5], [(8, 12)], "aic", 0.05)
        # without an affinity query the pool falls back to the CPU count
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        bound_curve([0.4, 0.8], [(8, 12)], "aic", 0.05)
        assert sizes == [2, 3, 1]

    def test_runs_convergence_check(self, monkeypatch):
        monkeypatch.setattr(coverage, "_TOL", 1e-13)
        with pytest.raises(QuadratureError, match="error estimate"):
            bound_curve([0.99], [(1, 3)], "aic", 0.05)

    def test_repeated_pair_rejected(self, monkeypatch):
        # a strictly decreasing curve, which a repeated pair would join into
        # one sweep with a spurious rise of 0.09
        def fake_bound(rho, m, n, d, alpha):
            cfg = TwoModelConfig(m=m, n=n, rho=rho, d=d, alpha=alpha)
            return BoundResult(0.95 - 0.1 * rho, 0.0, rho, cfg, 0.0)

        monkeypatch.setattr(bound, "upper_bound", fake_bound)
        assert bound_curve([0.0, 0.9], [(8, 12)], "aic", 0.05).max_increase == {(8, 12): 0.0}
        with pytest.raises(ValueError, match="repeated"):
            bound_curve([0.0, 0.9], [(8, 12), (8, 12)], "aic", 0.05)

    def test_validates_empty_grids(self):
        with pytest.raises(ValueError):
            bound_curve([], [(8, 12)], "aic", 0.05)
        with pytest.raises(ValueError):
            bound_curve([0.5], [], "aic", 0.05)
