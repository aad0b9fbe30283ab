"""Simulation layer: reproducibility, invariance, and analytic cross-checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matabound import (
    ModelSubset,
    SimScenario,
    TwoModelConfig,
    WeightSpec,
    all_subsets,
    coverage_probability,
    fit_family,
    min_coverage_scan,
    model_weights,
    simulate_coverage,
    w1_decay_scan,
)
from matabound.errors import EventMismatch, InvalidKernel
from matabound.interval import _family_arrays, h
from matabound.mcverify import _SimKernel
from matabound.suites import two_model_problem, two_model_scenario

from helpers import random_problem


class TestSimulateCoverage:
    def test_single_model_family_hits_nominal(self):
        prob = random_problem(501, n=15, p=3, q=1, with_y=False)
        sc = SimScenario(
            prob=prob,
            beta_over_sigma=np.array([1.0, -0.5, 2.0]),
            reps=20_000,
            seed=42,
            spec=WeightSpec.aic(prob.n),
            alpha=0.05,
            family=(ModelSubset(0),),
        )
        est = simulate_coverage(sc)
        assert abs(est.p_hat - 0.95) < 3.0 * est.se
        assert est.se == pytest.approx(
            math.sqrt(est.p_hat * (1 - est.p_hat) / est.reps)
        )

    def test_two_model_agrees_with_integral(self):
        cfg = TwoModelConfig(m=5, n=7, rho=0.7, d=2.0, alpha=0.05)
        analytic = coverage_probability(1.0, cfg)
        sc = two_model_scenario(5, 7, 0.7, 1.0, 2.0, 0.05,
                                reps=100_000, seed=777)
        est = simulate_coverage(sc)
        assert abs(est.p_hat - analytic) < 3.0 * est.se

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
        kwargs = dict(reps=10_000, seed=11, spec=WeightSpec.aic(prob.n),
                      alpha=0.1, audit_fraction=0.0)
        sc1 = SimScenario.from_beta_sigma(prob, beta, 1.0, **kwargs)
        sc2 = SimScenario.from_beta_sigma(prob, 2.0 * beta, 2.0, **kwargs)
        np.testing.assert_array_equal(sc1.beta_over_sigma, sc2.beta_over_sigma)
        covered = [
            _SimKernel(sc.prob, sc.resolved_family(), sc.spec, sc.alpha, sc.reps,
                       sc.seed).covered(sc.beta_over_sigma)
            for sc in (sc1, sc2)
        ]
        np.testing.assert_array_equal(*covered)

    def test_audit_detects_broken_solver(self, monkeypatch):
        import matabound.mcverify as mcv

        sc = two_model_scenario(5, 7, 0.5, 0.8, 2.0, 0.05,
                                reps=10_000, seed=5, audit_fraction=0.001)

        class FakeInterval:
            lower, upper = math.inf, math.inf

        monkeypatch.setattr(mcv, "solve_interval", lambda *a, **k: FakeInterval())
        with pytest.raises(EventMismatch):
            simulate_coverage(sc)

    @pytest.mark.parametrize("bad_value", [0.0, -1.0])
    @pytest.mark.parametrize("audit_fraction", [0.0, 0.01])
    def test_invalid_custom_kernel_value_raises(self, bad_value, audit_fraction):
        # The registration probes sample a finite x grid, so a kernel can
        # pass them and still return an invalid value elsewhere; such a
        # spec is built here directly.
        def kernel(x, k):
            return bad_value if x > 0.5 else k / (1.0 + x) ** 4

        sc = dataclasses.replace(
            two_model_scenario(5, 7, 0.5, 0.8, 2.0, 0.05, reps=10_000, seed=3,
                               audit_fraction=audit_fraction),
            spec=WeightSpec(n=7, kernel=kernel),
        )
        with pytest.raises(InvalidKernel):
            simulate_coverage(sc)

    def test_reps_floor_enforced(self):
        prob = random_problem(505, with_y=False)
        with pytest.raises(ValueError, match="reps"):
            SimScenario(prob=prob, beta_over_sigma=np.zeros(prob.p), reps=100,
                        seed=1, spec=WeightSpec.aic(prob.n))


class TestSimKernelProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 3),
           st.integers(2, 40), st.floats(0.0, 20.0), st.data())
    def test_matches_fitted_path_per_replicate(self, seed, p, free, extra, d, data):
        # The kernel's shift-based fits must give the weights and h(theta)
        # of fit_family -> model_weights on each replicate's own data.
        q = max(1, p - free)
        prob = random_problem(seed, n=p + extra, p=p, q=q, with_y=False)
        beta = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=p, max_size=p)))
        spec = WeightSpec.gic(prob.n, d)
        kernel = _SimKernel(prob, all_subsets(p, q), spec, 0.05, reps=8, seed=seed)
        w, _, _ = kernel.family_arrays(beta)
        h_theta = kernel.h_at_truth(beta)
        theta = float(prob.a @ beta)
        for i in range(8):
            fits = fit_family(prob.with_response(kernel.response(i, beta)))
            ref = model_weights(fits, fits[ModelSubset(0)].rss, spec)
            np.testing.assert_allclose(w[i], [ref[K] for K in sorted(ref)], rtol=0, atol=1e-14)
            h_ref = float(h(*_family_arrays(fits, ref, prob.a), theta))
            assert abs(h_theta[i] - h_ref) <= 1e-12


class TestMinCoverageScan:
    def test_zero_vector_sanity_and_determinism(self):
        prob = two_model_problem(8, 11, 0.6)[0]
        spec = WeightSpec.aic(prob.n)
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
        spec = WeightSpec.aic(prob.n)
        with pytest.raises(ValueError, match="nonempty"):
            min_coverage_scan(prob, spec, 0.05, [], reps=2_000, seed=1)
        with pytest.raises(ValueError, match="length"):
            min_coverage_scan(prob, spec, 0.05, [np.zeros(7)], reps=2_000, seed=1)

    def test_free_coefficient_cap(self):
        prob = random_problem(509, n=40, p=12, q=2, with_y=False)
        with pytest.raises(ValueError, match="p - q"):
            min_coverage_scan(prob, WeightSpec.aic(prob.n), 0.05,
                              [np.zeros(10)], reps=2_000, seed=1)


class TestW1DecayScan:
    def test_probability_decays_in_n(self):
        table = w1_decay_scan(5, [100, 10_000], [0.0, 2.0], eps=0.01,
                              reps=50_000, seed=7)
        p_small, p_large = table.probs[0, 0], table.probs[1, 0]
        assert p_large < p_small - 3.0 * math.hypot(table.ses[0, 0],
                                                    table.ses[1, 0])

    def test_gamma_zero_dominates(self):
        table = w1_decay_scan(5, [100, 1_000], [0.0, 1.0, 2.0], eps=0.01,
                              reps=50_000, seed=8)
        assert table.sup_gamma_index == 0
        for i in range(len(table.ns)):
            for j in (1, 2):
                combined = 3.0 * math.hypot(table.ses[i, j], table.ses[i, 0])
                assert table.probs[i, j] <= table.probs[i, 0] + combined

    def test_zero_penalty_half_threshold_is_exactly_zero(self):
        # with d = 0 the weight w1 is strictly below 1/2 for any positive
        # statistic, so the exceedance estimate is exactly 0
        table = w1_decay_scan(5, [50, 100], [0.0], eps=0.5, reps=20_000,
                              seed=9, d_rule=0.0)
        assert np.all(table.probs == 0.0)

    def test_requires_increasing_n(self):
        with pytest.raises(ValueError, match="increasing"):
            w1_decay_scan(5, [100, 100], [0.0], eps=0.1, reps=2_000, seed=1)


class TestScenarioValidation:
    def test_beta_length_checked(self):
        prob = random_problem(511, with_y=False)
        with pytest.raises(ValueError, match="length"):
            SimScenario(prob=prob, beta_over_sigma=np.zeros(prob.p + 1),
                        reps=10_000, seed=1, spec=WeightSpec.aic(prob.n))

    def test_sigma_positive(self):
        prob = random_problem(513, with_y=False)
        with pytest.raises(ValueError, match="sigma"):
            SimScenario.from_beta_sigma(prob, np.zeros(prob.p), 0.0,
                                        reps=10_000, seed=1,
                                        spec=WeightSpec.aic(prob.n))
