"""Least-squares machinery for all-subsets model averaging.

A regression problem is a design matrix ``X`` (n x p, full column rank),
an optional response ``y``, an interest vector ``a`` defining the scalar
target ``theta = a @ beta``, and an integer ``q``: the first ``q``
coefficients are protected, the remaining ``p - q`` may each be set to
zero.  A candidate model is identified by the subset ``K`` of zeroed
column indices; ``K`` is encoded as a bitmask over columns ``q .. p-1``
(0-based).  The empty subset is the full model.

All fits are driven by one QR decomposition of ``X``; contractions of
``(X'X)^-1`` go through triangular solves rather than normal-equation
inverses, which matters for the near-collinear designs this package is
aimed at.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    EmptySubset,
    MissingResponse,
    RankDeficient,
    SingularRestriction,
)

# Hard cap on the droppable-coefficient count: the family has 2^(p-q) members.
MAX_FREE_COEFFICIENTS = 30

_RANK_RTOL = 1e-10
_RSS_IDENTITY_RTOL = 1e-8


@dataclass(frozen=True)
class RegressionProblem:
    """A linear regression with a scalar linear combination of interest.

    Parameters
    ----------
    X : ndarray, shape (n, p)
        Design matrix with linearly independent columns, n > p.
    a : ndarray, shape (p,)
        Interest vector for ``theta = a @ beta``.  Entries ``a[q:]`` must
        be exactly zero so that theta means the same thing in every
        candidate model.
    q : int
        Number of protected leading coefficients, ``1 <= q < p``.
    y : ndarray, shape (n,), optional
        Response vector.  May be omitted for design-only computations
        (e.g. the correlation profile).

    The design's QR factor and its contractions are computed once, at
    construction, and kept in ``stats``; the rank check reads that QR.
    """

    X: np.ndarray
    a: np.ndarray
    q: int
    y: np.ndarray | None = None
    stats: DesignStats = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        X = np.array(self.X, dtype=float)
        a = np.array(self.a, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d array")
        n, p = X.shape
        if n <= p:
            raise ValueError(f"need n > p, got n={n}, p={p}")
        if a.shape != (p,):
            raise ValueError(f"a must have length p={p}, got shape {a.shape}")
        if not (1 <= self.q < p):
            raise ValueError(f"need 1 <= q < p, got q={self.q}, p={p}")
        if not np.any(a):
            raise ValueError("interest vector a is zero")
        if np.any(a[self.q:] != 0.0):
            raise ValueError("a[q:] must be exactly zero")
        y = None if self.y is None else _frozen_response(self.y, n)
        stats = DesignStats(X, a)
        X.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "stats", stats)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def with_response(self, y) -> "RegressionProblem":
        """Return a copy of this problem with response ``y`` attached.

        The copy shares this problem's design arrays and ``stats``.
        """
        out = copy.copy(self)
        object.__setattr__(out, "y", _frozen_response(y, self.n))
        return out


def _frozen_response(y, n: int) -> np.ndarray:
    y = np.array(y, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"y must have length n={n}, got shape {y.shape}")
    y.setflags(write=False)
    return y


@dataclass(frozen=True, order=True)
class ModelSubset:
    """A subset of zeroed coefficients, encoded as a column bitmask.

    Bit ``i`` set means column ``i`` (0-based) is constrained to zero.
    ``ModelSubset(0)`` is the full model.
    """

    mask: int

    def __post_init__(self):
        if self.mask < 0:
            raise ValueError("mask must be nonnegative")

    @classmethod
    def from_indices(cls, indices) -> "ModelSubset":
        mask = 0
        for i in indices:
            if i < 0:
                raise ValueError("column indices must be nonnegative")
            mask |= 1 << i
        return cls(mask)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.mask.bit_length()) if self.mask >> i & 1)

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def issubset(self, other: "ModelSubset") -> bool:
        return self.mask & ~other.mask == 0

    def __repr__(self):
        return f"ModelSubset({{{', '.join(map(str, self.indices))}}})"


@dataclass(frozen=True)
class ModelFit:
    """Restricted least-squares fit for one candidate model.

    ``beta_hat`` carries exact zeros at the constrained indices.  The
    identity ``rss == rss_full + u`` (increase in residual sum of squares
    from the restriction) is verified at construction time.
    """

    subset: ModelSubset
    beta_hat: np.ndarray
    rss: float
    s2: float
    u: float
    v: float
    df: int = field(default=0)  # residual degrees of freedom n - p + |K|


def all_subsets(p: int, q: int) -> list[ModelSubset]:
    """Enumerate every subset of the droppable columns ``q .. p-1``.

    Ordered by mask value; first element is the full model.  Refuses
    ``p - q > 30`` (the family would have more than 2^30 members).
    """
    free = p - q
    if free > MAX_FREE_COEFFICIENTS:
        raise ValueError(
            f"p - q = {free} exceeds the enumeration cap of "
            f"{MAX_FREE_COEFFICIENTS} (2^(p-q) models)"
        )
    return [ModelSubset(t << q) for t in range(1 << free)]


class DesignStats:
    """Shared per-design quantities: QR factor, (X'X)^-1 and contractions.

    Everything here depends on (X, a) only, so one instance serves every
    candidate model and every response vector.  A numerically rank
    deficient ``X`` raises ``RankDeficient``.
    """

    def __init__(self, X: np.ndarray, a: np.ndarray):
        Q, R = np.linalg.qr(X, mode="reduced")
        r = np.abs(np.diag(R))
        if r.min() < _RANK_RTOL * r.max():
            raise RankDeficient(
                f"design matrix is numerically rank deficient "
                f"(diag(R) ratio {r.min() / r.max():.2e})"
            )
        self.Q = Q
        self.R = R
        # (X'X)^-1 = G' G with G = R^-T, formed through triangular solves.
        G = scipy.linalg.solve_triangular(R.T, np.eye(X.shape[1]), lower=True)
        self.xtx_inv = G.T @ G
        self.xtx_inv_a = self.xtx_inv @ a
        self.v_theta = float(a @ self.xtx_inv_a)

    def solve_ls(self, y: np.ndarray) -> np.ndarray:
        return scipy.linalg.solve_triangular(self.R, self.Q.T @ y, lower=False)

    def subset_chol(self, K: ModelSubset) -> tuple[np.ndarray, np.ndarray]:
        """Cholesky factor of D_K = (X'X)^-1 restricted to K, plus index array."""
        idx = np.fromiter(K.indices, dtype=int)
        D = self.xtx_inv[np.ix_(idx, idx)]
        try:
            L = np.linalg.cholesky(D)
        except np.linalg.LinAlgError as exc:  # unreachable for full-rank X
            raise SingularRestriction(f"restriction block for {K} is singular") from exc
        return L, idx


def fit_full(prob: RegressionProblem) -> tuple[np.ndarray, float]:
    """Ordinary least-squares fit of the full model.

    Returns
    -------
    beta_hat : ndarray, shape (p,)
    rss : float
        Residual sum of squares ``(y - X beta_hat) @ (y - X beta_hat)``.
    """
    if prob.y is None:
        raise MissingResponse("fit_full requires a response vector")
    beta_hat = prob.stats.solve_ls(prob.y)
    resid = prob.y - prob.X @ beta_hat
    return beta_hat, float(resid @ resid)


def fit_restricted(prob: RegressionProblem, K: ModelSubset) -> ModelFit:
    """Least-squares fit subject to ``beta[i] = 0`` for every ``i`` in K.

    Uses the projection of the full-model estimator; the residual sum of
    squares is recomputed from the residuals and checked against
    ``rss_full + u`` as an internal consistency guard.
    """
    return fit_family(prob, [K])[K]


def fit_family(
    prob: RegressionProblem,
    family: list[ModelSubset] | None = None,
) -> dict[ModelSubset, ModelFit]:
    """Fit every model in ``family`` (default: all subsets), sharing one QR.

    Returns a dict ordered by subset mask value.
    """
    if prob.y is None:
        raise MissingResponse("fitting requires a response vector")
    stats = prob.stats
    if family is None:
        family = all_subsets(prob.p, prob.q)
    _validate_family_masks(prob, family)

    n, p, q = prob.n, prob.p, prob.q
    beta_hat = stats.solve_ls(prob.y)
    resid = prob.y - prob.X @ beta_hat
    rss_full = float(resid @ resid)

    out: dict[ModelSubset, ModelFit] = {}
    for K in sorted(set(family)):
        k = K.cardinality
        df = n - p + k
        if k == 0:
            out[K] = ModelFit(
                subset=K,
                beta_hat=beta_hat.copy(),
                rss=rss_full,
                s2=rss_full / df,
                u=0.0,
                v=stats.v_theta,
                df=df,
            )
            continue
        L, idx = stats.subset_chol(K)
        b = beta_hat[idx]
        z = scipy.linalg.cho_solve((L, True), b)
        u = float(b @ z)
        beta_k = beta_hat - stats.xtx_inv[:, idx] @ z
        beta_k[idx] = 0.0
        resid_k = prob.y - prob.X @ beta_k
        rss_k = float(resid_k @ resid_k)
        expected = rss_full + u
        if abs(rss_k - expected) > _RSS_IDENTITY_RTOL * max(expected, 1e-300):
            raise SingularRestriction(
                f"RSS identity violated for {K}: direct {rss_k!r} vs "
                f"rss + u {expected!r}"
            )
        g = stats.xtx_inv_a[idx]
        v = stats.v_theta - float(g @ scipy.linalg.cho_solve((L, True), g))
        out[K] = ModelFit(
            subset=K,
            beta_hat=beta_k,
            rss=rss_k,
            s2=rss_k / df,
            u=u,
            v=v,
            df=df,
        )
    return out


def _validate_family_masks(prob: RegressionProblem, family) -> None:
    allowed = ((1 << (prob.p - prob.q)) - 1) << prob.q
    for K in family:
        if K.mask & ~allowed:
            raise ValueError(
                f"{K} constrains protected or out-of-range columns "
                f"(allowed columns are {prob.q}..{prob.p - 1})"
            )


def correlation_profile(
    prob: RegressionProblem,
) -> tuple[np.ndarray, float, int]:
    """Correlations between the target estimator and each droppable coefficient.

    For each droppable column ``j`` this is the (design-determined)
    correlation of ``a @ beta_hat`` with ``beta_hat[j]``:

        rho_j = a' (X'X)^-1 e_j / sqrt( a'(X'X)^-1 a * e_j'(X'X)^-1 e_j )

    Returns
    -------
    rho : ndarray, shape (p - q,)
        Correlations for columns ``q .. p-1``.
    rho_max_abs : float
        ``max_j |rho_j|``, in [0, 1].
    argmax_index : int
        Column index (0-based) attaining the maximum; ties broken by the
        smallest index.
    """
    stats = prob.stats
    q, p = prob.q, prob.p
    cov = stats.xtx_inv_a[q:]
    var_j = np.diag(stats.xtx_inv)[q:]
    rho = cov / np.sqrt(stats.v_theta * var_j)
    j = int(np.argmax(np.abs(rho)))
    rho_max_abs = float(min(abs(rho[j]), 1.0))
    return rho, rho_max_abs, q + j


def noncentrality(
    prob: RegressionProblem,
    K: ModelSubset,
    beta_over_sigma: np.ndarray,
) -> float:
    """Noncentrality parameter of the restriction statistic under K.

    ``(1/2) (H_K b)' (H_K (X'X)^-1 H_K')^-1 (H_K b)`` with
    ``b = beta / sigma``.  Diagnostic quantity for the Monte Carlo layer.
    """
    if K.cardinality == 0:
        raise EmptySubset("noncentrality is undefined for the full model")
    _validate_family_masks(prob, [K])
    b = np.asarray(beta_over_sigma, dtype=float)
    if b.shape != (prob.p,):
        raise ValueError(f"beta_over_sigma must have length p={prob.p}")
    L, idx = prob.stats.subset_chol(K)
    bk = b[idx]
    return 0.5 * float(bk @ scipy.linalg.cho_solve((L, True), bk))
