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

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    MissingResponse,
    RankDeficient,
    SingularRestriction,
    _check_integer,
)

# Cap on the droppable-coefficient count: the family has 2^(p-q) members.
# fit_family + model_weights at n = p + 30 and 20 free (2^20 models) took
# 10 s and 2.0 GB peak RSS with one BLAS thread on a 2-core x86-64 VM;
# memory roughly doubles per added column.
MAX_FREE_COEFFICIENTS = 20

_RANK_RTOL = 1e-10
_RSS_IDENTITY_RTOL = 1e-8
# Largest (responses x models x n) residual block formed at once.
_RESIDUAL_BLOCK = 1 << 14


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
        if not 1 <= _check_integer(self.q, "q") < p:
            raise ValueError(f"need 1 <= q < p, got q={self.q}, p={p}")
        for name, arr in (("X", X), ("a", a)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains NaN or infinite entries")
        if not np.any(a):
            raise ValueError("interest vector a is zero")
        if np.any(a[self.q:] != 0.0):
            raise ValueError("a[q:] must be exactly zero")
        y = self.y
        if y is not None:
            y = np.array(y, dtype=float)
            if y.shape != (n,):
                raise ValueError(f"y must have length n={n}, got shape {y.shape}")
            if not np.isfinite(y).all():
                raise ValueError("y contains NaN or infinite entries")
            y.setflags(write=False)
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

    def __repr__(self):
        return f"ModelSubset({{{', '.join(map(str, self.indices))}}})"


@dataclass(frozen=True)
class ModelFit:
    """Restricted least-squares fit for one candidate model.

    ``beta_hat`` carries exact zeros at the constrained indices; ``u`` is
    the increase in residual sum of squares from the restriction.
    """

    subset: ModelSubset
    beta_hat: np.ndarray
    rss: float
    s2: float
    u: float
    v: float
    df: int  # residual degrees of freedom n - p + |K|


def all_subsets(p: int, q: int) -> list[ModelSubset]:
    """Enumerate every subset of the droppable columns ``q .. p-1``.

    Ordered by mask value; first element is the full model.  Refuses
    ``p - q > MAX_FREE_COEFFICIENTS`` before building anything, and sizes
    that are not integers.
    """
    free = _check_integer(p, "p") - _check_integer(q, "q")
    if free > MAX_FREE_COEFFICIENTS:
        raise ValueError(
            f"p - q = {free} exceeds the enumeration cap of "
            f"{MAX_FREE_COEFFICIENTS} (2^(p-q) models)"
        )
    return [ModelSubset(t << q) for t in range(1 << free)]


class DesignStats:
    """Shared per-design quantities: QR factor, R^-T, (X'X)^-1 and contractions.

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
        # So z @ G has covariance (X'X)^-1 for rows z ~ N(0, I_p).
        self.rt_inv = G = scipy.linalg.solve_triangular(R.T, np.eye(X.shape[1]), lower=True)
        self.xtx_inv = G.T @ G
        self.xtx_inv_a = self.xtx_inv @ a
        self.v_theta = float(a @ self.xtx_inv_a)

    def solve_ls(self, Y: np.ndarray) -> np.ndarray:
        """Least-squares coefficients (R, p) of the rows of ``Y`` (R, n)."""
        return scipy.linalg.solve_triangular(self.R, self.Q.T @ Y.T, lower=False).T


def family_table(prob: RegressionProblem, family: list[ModelSubset] | None = None):
    """Sort, check and decode a model family (default: all subsets) once.

    Returns its distinct members in mask order; each model's ``|K|`` and
    variance factor ``v`` of ``a @ beta_K`` (M,); and one block
    ``(pos, idx, L, c)`` per cardinality k > 0: the models' places ``pos``
    (G,), zeroed columns ``idx`` (G, k), Cholesky factors ``L`` (G, k, k)
    of ``D_K = (X'X)^-1`` restricted to K, and ``c = L^-1 g`` (k, G) for
    the entries ``g`` of ``(X'X)^-1 a`` in K, so ``v = v_theta - c'c``.
    Masks are read as Python ints, so a design may have any width; a member
    zeroing a protected or out-of-range column raises ``ValueError``.
    """
    p, q, stats = prob.p, prob.q, prob.stats
    if family is None:
        family = all_subsets(p, q)
    subsets = tuple(sorted(set(family), key=lambda K: K.mask))
    allowed = ((1 << (p - q)) - 1) << q
    for K in subsets:
        if K.mask & ~allowed:
            raise ValueError(f"{K} constrains protected or out-of-range columns "
                             f"(allowed columns are {q}..{p - 1})")
    width = (p + 7) // 8
    packed = np.frombuffer(b"".join(K.mask.to_bytes(width, "little") for K in subsets),
                           dtype=np.uint8).reshape(len(subsets), width)
    zeroed = np.unpackbits(packed, axis=1, count=p, bitorder="little").view(bool)
    card = zeroed.sum(axis=1)
    v = np.full(len(subsets), stats.v_theta)
    blocks = []
    for k in np.unique(card[card > 0]):
        pos = np.flatnonzero(card == k)
        idx = np.nonzero(zeroed[pos])[1].reshape(len(pos), k)
        try:
            L = np.linalg.cholesky(stats.xtx_inv[idx[:, :, None], idx[:, None, :]])
        except np.linalg.LinAlgError as exc:  # unreachable for full-rank X
            raise SingularRestriction(f"a restriction of {k} columns is singular") from exc
        c, cc = forward(L, stats.xtx_inv_a[idx.T][:, :, None])
        v[pos] = stats.v_theta - cc[:, 0]
        blocks.append((pos, idx, L, c[:, :, 0]))
    return subsets, card, v, blocks


def forward(L: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``z = L^-1 b`` in place and ``z'z`` (G, R) for lower-triangular ``L``
    (G, k, k) and ``b`` (k, G, R), by elementwise forward substitution, so
    no entry depends on the other columns of ``b`` or on their number."""
    zz = np.zeros(b.shape[1:])
    for i in range(L.shape[-1]):
        for j in range(i):
            b[i] -= L[:, i, j, None] * b[j]
        b[i] /= L[:, i, i, None]
        zz += b[i] * b[i]
    return b, zz


@dataclass(frozen=True)
class FamilyFit:
    """Fits of one model family to R responses, models in mask order.

    ``beta`` (R, M, p) has exact zeros at each model's constrained
    indices, ``rss`` and ``u`` are (R, M), and ``v`` and ``df`` (M,)
    depend on the design only.  Its length is the number of fits, R * M.
    """

    subsets: tuple[ModelSubset, ...]
    beta: np.ndarray
    rss: np.ndarray
    u: np.ndarray
    v: np.ndarray
    df: np.ndarray

    def __len__(self) -> int:
        return self.rss.size

    def models(self, r: int) -> dict[ModelSubset, ModelFit]:
        """The fits of response ``r`` as a dict ordered by mask."""
        rows = zip(self.subsets, self.beta[r], self.rss[r].tolist(), self.u[r].tolist(),
                   self.v.tolist(), self.df.tolist())
        return {K: ModelFit(K, beta, rss, rss / df, u, v, df) for K, beta, rss, u, v, df in rows}


def fit_family(
    prob: RegressionProblem,
    family: list[ModelSubset] | None = None,
    responses: np.ndarray | None = None,
):
    """Fit every model in ``family`` (default: all subsets) to ``prob.y``,
    returning a mask-ordered dict of ``ModelFit``, or to each row of a
    response matrix ``responses`` (R, n), returning their ``FamilyFit``.

    One QR solve gives every response's full-model coefficients; the
    restricted models of each cardinality share one stacked Cholesky
    factorization and one forward substitution.  Every (response, model)
    fit is checked against ``rss_K = rss + u_K`` with ``rss_K`` recomputed
    from its residuals.
    """
    single = responses is None
    if single and prob.y is None:
        raise MissingResponse("fitting requires a response vector")
    Y = prob.y[None, :] if single else np.asarray(responses, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != prob.n:
        raise ValueError(f"responses must have shape (R, n={prob.n}), got {Y.shape}")
    subsets, card, v, blocks = family_table(prob, family)
    stats = prob.stats

    B = stats.solve_ls(Y)
    resid = Y - B @ prob.X.T
    rss_full = np.einsum("ri,ri->r", resid, resid)
    beta = np.repeat(B[:, None, :], len(subsets), axis=1)
    u = np.zeros((Y.shape[0], len(subsets)))
    for pos, idx, L, _ in blocks:
        z, zz = forward(L, B.T[idx.T])  # z = L^-1 b_K, u_K = z'z
        u[:, pos] = zz.T
        # beta_K = b - E'z with E = L^-1 (X'X)^-1[K, :]
        beta[:, pos] -= np.einsum("kgp,kgr->rgp", forward(L, stats.xtx_inv[idx.T])[0], z)
        beta[:, pos[:, None], idx] = 0.0
    df = prob.n - prob.p + card
    rss = _direct_rss(Y, beta, prob.X)
    expected = rss_full[:, None] + u
    bad = np.argwhere((np.abs(rss - expected) > _RSS_IDENTITY_RTOL * np.maximum(expected, 1e-300))
                      & (card > 0))
    if bad.size:
        r, j = bad[0]
        raise SingularRestriction(f"RSS identity violated for {subsets[j]} on response {r}: "
                                  f"direct {rss[r, j]!r} vs rss + u {expected[r, j]!r}")
    beta.setflags(write=False)
    fits = FamilyFit(subsets, beta, rss, u, v, df)
    return fits.models(0) if single else fits


def _direct_rss(Y: np.ndarray, beta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Residual sum of squares of every (response, model) fit, from its
    residuals, in blocks of at most ``_RESIDUAL_BLOCK`` residuals."""
    R, M, _ = beta.shape
    models = max(1, _RESIDUAL_BLOCK // X.shape[0])
    rows = max(1, models // M)
    rss = np.empty((R, M))
    for r in range(0, R, rows):
        for m in range(0, M, models):
            resid = Y[r:r + rows, None, :] - beta[r:r + rows, m:m + models] @ X.T
            rss[r:r + rows, m:m + models] = np.einsum("rmi,rmi->rm", resid, resid)
    return rss


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
