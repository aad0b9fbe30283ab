"""Least-squares machinery against independent oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matabound import (
    ModelSubset,
    RegressionProblem,
    all_subsets,
    correlation_profile,
    fit_family,
)
import matabound.linreg as linreg
from matabound.errors import RankDeficient, SingularRestriction
from matabound.linreg import MAX_FREE_COEFFICIENTS, _downdate, family_table

from helpers import random_problem

FULL = ModelSubset(0)
# The second design's masks need more than 64 bits.
NARROW, WIDE = random_problem(79, n=30, p=6, q=2), random_problem(83, n=90, p=70, q=3)


def families(prob):
    """(prob, 1-12 distinct members over prob's droppable columns)."""
    member = st.integers(0, (1 << (prob.p - prob.q)) - 1).map(lambda t: ModelSubset(t << prob.q))
    return st.tuples(st.just(prob), st.lists(member, min_size=1, max_size=12, unique=True))


def fit_full(prob):
    """(beta_hat, rss) of the full model, through fit_family."""
    fit = fit_family(prob, [FULL])[FULL]
    return fit.beta_hat, fit.rss


def fit_restricted(prob, K):
    """The fit of model K alone, through fit_family."""
    return fit_family(prob, [FULL, K])[K]


def downdate(prob, B, family=None):
    """Coefficients (M, p, R) and u (M, R) of every fitted model of
    ``family`` from full-model coefficients ``B`` (R, p), through the
    steps ``fit_family`` applies, and the members' places."""
    _, keep, card, _, blocks = family_table(prob, family)
    beta, u = np.empty((len(card), prob.p, len(B))), np.empty((len(card), len(B)))
    beta[0], u[0] = B.T, 0.0
    _downdate(beta, u, blocks)
    return beta, u, keep


class TestFitFull:
    def test_identity_design_interpolates(self):
        # identity columns, response in their span: exact interpolation
        prob = RegressionProblem(np.eye(4)[:, :3], np.array([1.0, 0, 0]), q=1,
                                 y=np.array([1.0, 2.0, 3.0, 0.0]))
        beta, rss = fit_full(prob)
        np.testing.assert_allclose(beta, [1.0, 2.0, 3.0], atol=1e-13)
        assert rss == pytest.approx(0.0, abs=1e-20)

    def test_orthonormal_columns_collapse_to_xty(self):
        rng = np.random.default_rng(7)
        Q, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        y = rng.standard_normal(12)
        prob = RegressionProblem(Q, np.array([1.0, 0, 0, 0]), q=1, y=y)
        beta, _ = fit_full(prob)
        np.testing.assert_allclose(beta, Q.T @ y, rtol=1e-12, atol=1e-12)

    def test_matches_normal_equations_oracle(self):
        # independent oracle: solve X'X beta = X'y directly
        rng = np.random.default_rng(11)
        X = rng.standard_normal((20, 4))
        y = rng.standard_normal(20)
        prob = RegressionProblem(X, np.array([1.0, 0, 0, 0]), q=1, y=y)
        beta, rss = fit_full(prob)
        beta_ne = np.linalg.solve(X.T @ X, X.T @ y)
        rss_ne = float((y - X @ beta_ne) @ (y - X @ beta_ne))
        np.testing.assert_allclose(beta, beta_ne, rtol=1e-10)
        assert rss == pytest.approx(rss_ne, rel=1e-10)

    def test_missing_response_raises(self):
        prob = random_problem(0, with_y=False)
        with pytest.raises(ValueError, match="fitting requires a response vector"):
            fit_full(prob)

    def test_rank_deficient_raises(self):
        X = np.ones((10, 3))
        X[:, 1] = 2.0 * X[:, 0]
        X[:, 2] = np.arange(10)
        with pytest.raises(RankDeficient):
            RegressionProblem(X, np.array([1.0, 0, 0]), q=1)


class TestFitRestricted:
    def test_empty_subset_equals_full_fit(self):
        prob = random_problem(3)
        beta, rss = fit_full(prob)
        fit = fit_restricted(prob, ModelSubset(0))
        np.testing.assert_allclose(fit.beta_hat, beta, rtol=1e-12)
        assert fit.rss == pytest.approx(rss, rel=1e-12)
        assert fit.u == 0.0
        stats = np.linalg.inv(prob.X.T @ prob.X)
        assert fit.v == pytest.approx(prob.a @ stats @ prob.a, rel=1e-10)

    def test_orthogonal_design_zeroes_one_coordinate(self):
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((15, 4)))
        X = Q * np.array([1.0, 2.0, 0.5, 3.0])  # orthogonal, non-unit scales
        y = rng.standard_normal(15)
        prob = RegressionProblem(X, np.array([1.0, 0, 0, 0]), q=1, y=y)
        beta, _ = fit_full(prob)
        fit = fit_restricted(prob, ModelSubset.from_indices([3]))
        expected = beta.copy()
        expected[3] = 0.0
        np.testing.assert_allclose(fit.beta_hat, expected, rtol=1e-10, atol=1e-12)

    def test_matches_reduced_design_refit_oracle(self):
        # independent oracle: regress on the kept columns, pad zeros back
        rng = np.random.default_rng(17)
        X = rng.standard_normal((30, 5))
        y = rng.standard_normal(30)
        prob = RegressionProblem(X, np.array([2.0, -1.0, 0, 0, 0]), q=2, y=y)
        K = ModelSubset.from_indices([3, 4])
        fit = fit_restricted(prob, K)
        kept = [0, 1, 2]
        beta_kept, *_ = np.linalg.lstsq(X[:, kept], y, rcond=None)
        oracle = np.zeros(5)
        oracle[kept] = beta_kept
        np.testing.assert_allclose(fit.beta_hat, oracle, rtol=1e-9, atol=1e-11)
        _, rss = fit_full(prob)
        assert fit.rss - rss - fit.u == pytest.approx(0.0, abs=1e-9 * fit.rss)
        # v under the submodel equals the reduced-design variance factor
        v_oracle = (prob.a[kept] @ np.linalg.inv(X[:, kept].T @ X[:, kept])
                    @ prob.a[kept])
        assert fit.v == pytest.approx(v_oracle, rel=1e-9)

    def test_rss_identity_across_whole_family(self):
        prob = random_problem(23, n=40, p=6, q=2)
        _, rss = fit_full(prob)
        for K, fit in fit_family(prob).items():
            assert fit.rss == pytest.approx(rss + fit.u, rel=1e-9)
            assert fit.u >= 0.0
            assert fit.v > 0.0
            assert all(fit.beta_hat[i] == 0.0 for i in K.indices)
            assert fit.s2 == pytest.approx(fit.rss / fit.df, rel=1e-14)

    def test_u_monotone_under_supersets(self):
        prob = random_problem(29, n=35, p=6, q=2)
        fits = fit_family(prob)
        subsets = list(fits)
        for K in subsets:
            for L in subsets:
                if K.mask & ~L.mask == 0:
                    assert fits[K].u <= fits[L].u + 1e-12

    def test_s2_uses_restricted_degrees_of_freedom(self):
        prob = random_problem(31, n=20, p=4, q=1)
        K = ModelSubset.from_indices([2, 3])
        fit = fit_restricted(prob, K)
        assert fit.df == 20 - 4 + 2
        assert fit.s2 == pytest.approx(fit.rss / fit.df)

    def test_degrees_of_freedom_are_required(self):
        # a default of 0 would make every t tail area of the fit NaN
        fit = fit_restricted(random_problem(31, n=20, p=4, q=1), ModelSubset.from_indices([2]))
        with pytest.raises(TypeError, match="df"):
            type(fit)(fit.subset, fit.beta_hat, fit.rss, fit.s2, fit.u, fit.v)

    def test_protected_column_rejected(self):
        prob = random_problem(37, p=5, q=2)
        with pytest.raises(ValueError, match="protected"):
            fit_restricted(prob, ModelSubset.from_indices([0]))

    def test_out_of_range_column_rejected_on_a_wide_design(self):
        # masks of a 64-column design need more than 64 bits
        prob = random_problem(39, n=80, p=64, q=62)
        for bad in ([64], [62, 70], [0, 63]):
            with pytest.raises(ValueError, match="constrains protected or out-of-range columns "
                               r"\(allowed columns are 62\.\.63\)"):
                fit_restricted(prob, ModelSubset.from_indices(bad))


class TestSingularRestriction:
    """Raised defensively: a full-rank design reaches neither raise."""

    def test_nonpositive_pivot(self, monkeypatch):
        # (X'X)^-1 with an indefinite free block: freeing column 2 leaves
        # S_33 = 1 - 2^2 < 0 for the step that then zeroes column 3.
        prob = random_problem(131, n=20, p=4, q=2)
        S = np.eye(4)
        S[2, 3] = S[3, 2] = 2.0
        monkeypatch.setattr(prob.stats, "xtx_inv", S)
        monkeypatch.setattr(prob.stats, "xtx_inv_a", S @ prob.a)
        with pytest.raises(SingularRestriction, match="a restriction of 2 columns is singular"):
            fit_family(prob)
        S[3, 3] = 0.0
        with pytest.raises(SingularRestriction, match="a restriction of 1 columns is singular"):
            fit_family(prob)

    def test_rss_identity_violated(self, monkeypatch):
        prob = random_problem(133, n=20, p=4, q=2)
        direct = linreg._direct_rss
        monkeypatch.setattr(linreg, "_direct_rss", lambda *args: direct(*args) * (1.0 + 1e-6))
        with pytest.raises(SingularRestriction, match="RSS identity violated"):
            fit_family(prob)


class TestCorrelationProfile:
    def test_orthogonal_design_gives_zero(self):
        rng = np.random.default_rng(41)
        Q, _ = np.linalg.qr(rng.standard_normal((20, 5)))
        prob = RegressionProblem(Q, np.array([1.0, 0, 0, 0, 0]), q=2)
        rho, rho_max, _ = correlation_profile(prob)
        np.testing.assert_allclose(rho, 0.0, atol=1e-12)
        assert rho_max == pytest.approx(0.0, abs=1e-12)

    def test_exact_ties_break_to_smallest_index(self):
        from helpers import gram_problem

        prob = gram_problem(np.eye(5), n=9, q=2)
        rho, rho_max, argmax = correlation_profile(prob)
        assert np.all(rho == 0.0)
        assert rho_max == 0.0
        assert argmax == 2

    def test_near_duplicate_column_approaches_one(self):
        rng = np.random.default_rng(43)
        z = rng.standard_normal(50)
        X = np.column_stack([z + 0.01 * rng.standard_normal(50),
                             rng.standard_normal(50), z])
        prob = RegressionProblem(X, np.array([1.0, 0, 0]), q=1)
        _, rho_max, argmax = correlation_profile(prob)
        assert argmax == 2
        assert rho_max > 0.97

    def test_against_simulated_estimator_correlation(self):
        # oracle: empirical correlation of the two estimators over 1e5 draws
        rng = np.random.default_rng(47)
        X = rng.standard_normal((12, 3))
        prob = RegressionProblem(X, np.array([1.0, 0, 0]), q=1)
        rho, _, _ = correlation_profile(prob)
        reps = 100_000
        noise = rng.standard_normal((reps, 12))
        betas = noise @ X @ np.linalg.inv(X.T @ X)
        emp = np.corrcoef(betas[:, 0], betas[:, 2])[0, 1]
        se = (1.0 - rho[1] ** 2) / np.sqrt(reps)
        assert abs(emp - rho[1]) < 3.0 * se

    def test_scale_free_under_column_rescaling(self):
        prob = random_problem(53, n=30, p=5, q=2)
        rho, rho_max, argmax = correlation_profile(prob)
        X2 = prob.X.copy()
        X2[:, 3] *= 10.0
        prob2 = RegressionProblem(X2, prob.a, q=2)
        rho2, rho_max2, argmax2 = correlation_profile(prob2)
        np.testing.assert_allclose(rho2, rho, atol=1e-12)
        assert argmax2 == argmax
        assert rho_max2 == pytest.approx(rho_max, abs=1e-12)
        # positive rescaling of a changes nothing either
        prob3 = RegressionProblem(prob.X, 7.5 * prob.a, q=2)
        rho3, _, _ = correlation_profile(prob3)
        np.testing.assert_allclose(rho3, rho, atol=1e-12)

    def test_bounded_by_one(self):
        for seed in range(6):
            _, rho_max, _ = correlation_profile(random_problem(seed, with_y=False))
            assert 0.0 <= rho_max <= 1.0


class TestNoncentrality:
    # The restriction statistic's quadratic form b_K' D_K^-1 b_K at the
    # true coefficients is twice the noncentrality of the restriction.
    @staticmethod
    def u_of(prob, K, b):
        _, u, keep = downdate(prob, b[None, :], [FULL, K])
        return float(u[keep[1], 0])

    def test_zero_at_restricted_truth(self):
        prob = random_problem(59, p=5, q=2)
        K = ModelSubset.from_indices([3, 4])
        b = np.array([1.0, 2.0, 3.0, 0.0, 0.0])
        assert self.u_of(prob, K, b) == pytest.approx(0.0, abs=1e-15)

    def test_identity_gram_single_index(self):
        prob = RegressionProblem(np.eye(6)[:, :4], np.array([1.0, 0, 0, 0]), q=1)
        b = np.array([0.0, 0.0, 0.0, 2.0])
        lam = 0.5 * self.u_of(prob, ModelSubset.from_indices([3]), b)
        assert lam == pytest.approx(2.0, rel=1e-12)  # (1/2) * 2^2

    def test_quadratic_scaling(self):
        prob = random_problem(61, p=5, q=2)
        K = ModelSubset.from_indices([2, 4])
        b = np.array([0.3, -1.0, 2.0, 0.5, -0.7])
        lam = self.u_of(prob, K, b)
        lam2 = self.u_of(prob, K, np.sqrt(2.0) * b)
        assert lam2 == pytest.approx(2.0 * lam, rel=1e-12)


class TestDowndate:
    def test_rows_do_not_depend_on_the_call_size(self):
        # A response's restricted fits must not depend on how many
        # responses share the call (BLAS picks kernels by shape).
        prob = random_problem(67, n=30, p=6, q=2, with_y=False)
        B = np.random.default_rng(68).standard_normal((5000, prob.p))
        beta, u, _ = downdate(prob, B)
        for rows in (1, 7, 513):
            beta_r, u_r, _ = downdate(prob, B[:rows])
            np.testing.assert_array_equal(beta_r, beta[:, :, :rows])
            np.testing.assert_array_equal(u_r, u[:, :rows])

    def test_every_model_of_a_collinear_design_matches_lstsq(self):
        # 1,024 models; every pair of columns past the intercept has
        # correlation .95.
        rng = np.random.default_rng(69)
        n, p, q = 40, 12, 2
        Z = rng.standard_normal((n, p - 1))
        factor = rng.standard_normal(n)
        X = np.column_stack([np.ones(n), np.sqrt(0.05) * Z + np.sqrt(0.95) * factor[:, None]])
        prob = RegressionProblem(X, np.eye(p)[1], q=q, y=rng.standard_normal(n))
        fits = fit_family(prob)
        assert len(fits) == 1024
        for K, fit in fits.items():
            kept = [i for i in range(p) if i not in K.indices]
            beta_kept, *_ = np.linalg.lstsq(X[:, kept], prob.y, rcond=None)
            oracle = np.zeros(p)
            oracle[kept] = beta_kept
            assert np.all(fit.beta_hat[list(K.indices)] == 0.0)
            np.testing.assert_allclose(fit.beta_hat, oracle, rtol=0, atol=1e-12 * np.abs(oracle).max())
            rss = float(np.sum((prob.y - X[:, kept] @ beta_kept) ** 2))
            assert fit.rss == pytest.approx(rss, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(families(NARROW), families(WIDE)))
    @example((NARROW, [FULL, ModelSubset.from_indices([2, 4, 5])]))
    def test_missing_parents_leave_a_fit_unchanged(self, case):
        # Missing parents are fitted but not returned; a member's steps depend
        # only on its own chain of parents, so its beta_hat, u, v and df are
        # the same in any family, bit for bit.  rss is recomputed from the
        # residuals by one BLAS product over the family's models: numpy
        # sends a single model to gemv, which rounds unlike gemm, and on the
        # wide design gemm's rounding varies with the number of models.  So
        # rss is bit for bit between two gemm products on the narrow design
        # (the family has two or more members) and within rel 1e-12 otherwise.
        prob, family = case
        fits = fit_family(prob, family)
        assert list(fits) == sorted(family)
        every = fit_family(prob) if prob is NARROW else {}
        for K, fit in fits.items():
            refs = [(fit_family(prob, [K])[K], len(family) == 1)]
            if every:
                refs.append((every[K], len(family) > 1))
            for ref, exact in refs:
                np.testing.assert_array_equal(fit.beta_hat, ref.beta_hat)
                assert (fit.u, fit.v, fit.df) == (ref.u, ref.v, ref.df)
                if exact:
                    assert fit.rss == ref.rss
                else:
                    assert fit.rss == pytest.approx(ref.rss, rel=1e-12, abs=0)


class TestSubsets:
    def test_enumeration_ordered_by_mask(self):
        subsets = all_subsets(p=4, q=2)
        assert [K.mask for K in subsets] == [0, 4, 8, 12]
        assert subsets[0].cardinality == 0
        assert subsets[-1].indices == (2, 3)

    def test_enumeration_cap(self):
        with pytest.raises(ValueError, match="cap"):
            all_subsets(p=40, q=2)

    def test_cap_plus_one_refused_before_allocating(self):
        p = MAX_FREE_COEFFICIENTS + 3
        prob = random_problem(63, n=p + 5, p=p, q=2)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                fit_family(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("p, q, message", [(4.5, 1, "p must be an integer, not 4.5"),
                                               (4, 1.0, "q must be an integer, not 1.0")])
    def test_non_integral_sizes_refused(self, p, q, message):
        with pytest.raises(ValueError, match=message):
            all_subsets(p, q)
        # numpy integers pass
        assert len(all_subsets(np.int64(4), np.int64(2))) == 4

    def test_from_indices_roundtrip(self):
        K = ModelSubset.from_indices([5, 2, 9])
        assert K.indices == (2, 5, 9)
        assert K.cardinality == 3
        assert ModelSubset.from_indices(K.indices) == K

    def test_negative_mask_and_index_rejected(self):
        for bad in (-1, np.int64(-1)):
            with pytest.raises(ValueError, match="mask must be nonnegative"):
                ModelSubset(bad)
        with pytest.raises(ValueError, match="indices must be nonnegative"):
            ModelSubset.from_indices([2, -1])

    def test_mask_is_any_integer(self):
        K = ModelSubset(np.int64(4))
        assert type(K.mask) is int and K == ModelSubset(4)
        prob = random_problem(85, n=20, p=4, q=2)
        fit, ref = fit_family(prob, [K])[K], fit_family(prob, [ModelSubset(4)])[ModelSubset(4)]
        np.testing.assert_array_equal(fit.beta_hat, ref.beta_hat)
        assert (fit.rss, fit.u, fit.v, fit.df) == (ref.rss, ref.u, ref.v, ref.df)
        with pytest.raises(ValueError, match="mask must be an integer, not 4.0"):
            ModelSubset(4.0)


class TestProblemValidation:
    def test_interest_vector_tail_must_vanish(self):
        with pytest.raises(ValueError, match="exactly zero"):
            RegressionProblem(np.eye(4)[:, :3], np.array([1.0, 0, 1.0]), q=2)

    def test_needs_more_rows_than_columns(self):
        with pytest.raises(ValueError, match="n > p"):
            RegressionProblem(np.eye(3), np.array([1.0, 0, 0]), q=1)

    def test_shapes_and_ranges_checked(self):
        X, a = np.eye(5)[:, :3], np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="2-d"):
            RegressionProblem(X[:, 0], a, q=1)
        with pytest.raises(ValueError, match="a must have length p=3"):
            RegressionProblem(X, a[:2], q=1)
        for q in (0, 3):
            with pytest.raises(ValueError, match="1 <= q < p"):
                RegressionProblem(X, a, q=q)
        with pytest.raises(ValueError, match="a is zero"):
            RegressionProblem(X, np.zeros(3), q=1)
        with pytest.raises(ValueError, match="y must have length n=5"):
            RegressionProblem(X, a, q=1, y=np.zeros(4))

    @pytest.mark.parametrize("q", [1.5, 2.0])
    def test_non_integral_q_refused(self, q):
        X, a = np.eye(5)[:, :3], np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=f"q must be an integer, not {q}"):
            RegressionProblem(X, a, q=q)
        # numpy integers pass
        assert RegressionProblem(X, a, q=np.int64(2)).q == 2

    def test_arrays_are_frozen(self):
        prob = random_problem(71)
        with pytest.raises(ValueError):
            prob.X[0, 0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_arrays_rejected_by_name(self, bad):
        prob = random_problem(75)
        X, a, y = prob.X.copy(), prob.a.copy(), prob.y.copy()
        X[3, 1], a[0], y[5] = bad, bad, bad
        with pytest.raises(ValueError, match="X contains"):
            RegressionProblem(X, prob.a, q=prob.q, y=prob.y)
        with pytest.raises(ValueError, match="a contains"):
            RegressionProblem(prob.X, a, q=prob.q, y=prob.y)
        with pytest.raises(ValueError, match="y contains"):
            RegressionProblem(prob.X, prob.a, q=prob.q, y=y)


class TestFamilyWithoutFullModel:
    def test_restricted_only_family_matches_refit(self):
        prob = random_problem(73, n=30, p=5, q=2)
        K = ModelSubset.from_indices([2, 4])
        fits = fit_family(prob, [K])
        assert list(fits) == [K]
        kept = [0, 1, 3]
        beta_kept, *_ = np.linalg.lstsq(prob.X[:, kept], prob.y, rcond=None)
        np.testing.assert_allclose(fits[K].beta_hat[kept], beta_kept, rtol=1e-9, atol=1e-11)
        _, rss = fit_full(prob)
        assert fits[K].rss == pytest.approx(rss + fits[K].u, rel=1e-9)
