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
aimed at.  Each restricted model is then fitted from its parent, the model
with one coefficient fewer set to zero, by one rank-one downdate of the
parent's coefficients and covariance factor (the SWEEP operator of
all-subsets enumeration; see ``family_table``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import RankDeficient, SingularRestriction, _check_integer

# Cap on the droppable-coefficient count: the family has 2^(p-q) members.
# fit_family + model_weights at p = 22, q = 2, n = p + 30 (2^20 models)
# took 15 s and 1.2 GB peak RSS with one BLAS thread on a 2-core x86-64
# VM; memory roughly doubles per added column.
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
    ``p - q > MAX_FREE_COEFFICIENTS`` before building anything, sizes that
    are not integers, and a ``q`` outside ``0 .. p``.
    """
    p, q = _check_integer(p, "p"), _check_integer(q, "q")
    if not 0 <= q <= p:
        raise ValueError(f"need 0 <= q <= p, got q={q}, p={p}")
    free = p - q
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
    """Sort, check and decode a model family (default: all subsets) once,
    and derive each model's fit from its parent's.

    A model's parent is the model that frees its highest zeroed column j
    again.  Setting ``beta_j = 0`` in the parent's fit, whose covariance
    factor is S (``(X'X)^-1`` for the full model), is a rank-one downdate
    (the SWEEP operator): with ``e = S[:, j] / S_jj`` and ``r = 1 / S_jj``,

        beta' = beta - beta_j e,   u' = u + beta_j^2 r,
        S' = S - S[:, j] e',       v' = v - (S a)_j^2 r.

    Returns the family's distinct members in mask order; their places
    ``keep`` (M,) among the fitted models, which add every missing parent
    (down to the full model, at place 0) and are in mask order too; each
    fitted model's ``|K|`` and variance factor ``v`` of ``a @ beta_K``;
    and one step block ``(pos, parent, j, e, r)`` per cardinality k > 0:
    the models' places ``pos`` (G,), their parents' places ``parent``
    (G,), the zeroed columns ``j`` (G,), ``e`` (G, p) and ``r`` (G,).
    ``_downdate`` applies the blocks to a response's full-model fit.

    S is held for one cardinality at a time, and only for the models that
    are parents.  ``e_j = S_jj / S_jj`` is exactly 1, so ``beta'_j``, column
    j of S' and entry j of S' a are exact zeros; row j of S' is set to
    exact zeros.  So every later ``e`` is exactly 0 at the columns already
    zeroed, and ``beta`` keeps its exact zeros.  Each step is elementwise
    per model: a model's values depend only on its own chain of parents,
    not on the rest of the family.  ``S_jj <= 0``, which a full-rank design
    never gives, raises ``SingularRestriction``.

    Masks are read as Python ints, so a design may have any width; a member
    zeroing a protected or out-of-range column raises ``ValueError``.
    """
    p, q, stats = prob.p, prob.q, prob.stats
    if family is None:
        family = all_subsets(p, q)
    by_mask = {K.mask: K for K in family}
    masks = sorted(by_mask)
    subsets = tuple(by_mask[m] for m in masks)
    allowed = ((1 << (p - q)) - 1) << q
    for m in masks:
        if m & ~allowed:
            raise ValueError(f"{by_mask[m]} constrains protected or out-of-range columns "
                             f"(allowed columns are {q}..{p - 1})")
    # Masks as big-endian bytes, compared as raw bytes: byte order is mask
    # order, and bit 8 * width - 1 - c of a row is column c.
    width = (p + 7) // 8
    key = np.dtype((np.void, width))
    members = np.frombuffer(b"".join(m.to_bytes(width, "big") for m in masks), dtype=key)
    # The full model comes first, fitted even where it is not a member.
    fitted = members if masks[:1] == [0] else np.concatenate([np.zeros(1, key), members])
    while True:
        bits = np.unpackbits(fitted.view(np.uint8).reshape(len(fitted), width), axis=1)
        top = bits.argmax(axis=1)  # the highest zeroed column; 0 on the full model
        parent_bits = bits.copy()
        parent_bits[np.arange(len(fitted)), top] = 0
        parents = np.packbits(parent_bits, axis=1).view(key)[:, 0]
        parent = np.searchsorted(fitted, parents)  # a parent's mask is below its child's
        found = fitted[parent] == parents
        if found.all():
            break
        fitted = np.unique(np.concatenate([fitted, parents[~found]]))
    keep = np.searchsorted(fitted, members)
    card = np.count_nonzero(bits, axis=1)
    j_of = 8 * width - 1 - top
    v = np.full(len(fitted), stats.v_theta)
    is_parent = np.zeros(len(fitted), dtype=bool)
    is_parent[parent[1:]] = True
    # Row of each parent in the current cardinality's S and S a.
    row = np.zeros(len(fitted), dtype=np.intp)
    S, Sa = stats.xtx_inv[None], stats.xtx_inv_a[None]
    blocks = []
    for k in range(1, card.max(initial=0) + 1):
        pos = np.flatnonzero(card == k)
        par, j = parent[pos], j_of[pos]
        at = row[par]
        col = S[at, :, j]
        s_jj = col[np.arange(len(pos)), j]
        if not np.all(s_jj > 0.0):  # unreachable for full-rank X
            raise SingularRestriction(f"a restriction of {k} columns is singular")
        r = 1.0 / s_jj
        e = col / s_jj[:, None]
        sa_j = Sa[at, j]
        v[pos] = v[par] - sa_j * sa_j * r
        blocks.append((pos, par, j, e, r))
        # S' and S' a of the models that are parents.
        h = np.flatnonzero(is_parent[pos])
        row[pos[h]] = np.arange(len(h))
        S = S[at[h]]
        S -= col[h, :, None] * e[h, None, :]
        S[np.arange(len(h)), j[h]] = 0.0
        Sa = Sa[at[h]] - e[h] * sa_j[h, None]
    return subsets, keep, card, v, blocks


def _downdate(beta: np.ndarray, u: np.ndarray, blocks) -> None:
    """Fill every restricted model's coefficients ``beta`` (M, w, R) and
    restriction statistic ``u`` (M, R) in place from model 0's, the full
    fit, by ``family_table``'s step blocks, one cardinality at a time.

    The last axis holds R responses.  The w values carried may be any
    linear functions of beta, given blocks whose ``e`` holds their steps
    and whose ``j`` indexes the carried value of each zeroed coefficient.
    Each entry is elementwise in its model and response, so no value
    depends on the other responses or their number.
    """
    for pos, parent, j, e, r in blocks:
        b_j = beta[parent, j]
        beta[pos] = beta[parent] - e[:, :, None] * b_j[:, None, :]
        u[pos] = u[parent] + b_j * b_j * r[:, None]


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

    One QR solve gives every response's full-model coefficients; each
    restricted model's coefficients and ``u`` follow from its parent's by
    one downdate step of ``family_table`` (``_downdate``), all models of one
    cardinality at once.  Parents missing from ``family`` are fitted and left
    out of the result.  Every (response, model) fit is checked against
    ``rss_K = rss + u_K`` with ``rss_K`` recomputed from its residuals.
    """
    single = responses is None
    if single and prob.y is None:
        raise ValueError("fitting requires a response vector")
    Y = prob.y[None, :] if single else np.asarray(responses, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != prob.n:
        raise ValueError(f"responses must have shape (R, n={prob.n}), got {Y.shape}")
    subsets, keep, card, v, blocks = family_table(prob, family)

    B = prob.stats.solve_ls(Y)
    resid = Y - B @ prob.X.T
    rss_full = np.einsum("ri,ri->r", resid, resid)
    beta = np.empty((len(card), prob.p, Y.shape[0]))
    u = np.empty((len(card), Y.shape[0]))
    beta[0], u[0] = B.T, 0.0
    _downdate(beta, u, blocks)
    # The family's members only, responses first.
    beta = np.ascontiguousarray(beta[keep].transpose(2, 0, 1))
    u, card, v = np.ascontiguousarray(u[keep].T), card[keep], v[keep]
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
