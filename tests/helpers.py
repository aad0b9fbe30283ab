"""Shared fixtures-in-spirit: problem generators used across test modules."""

import numpy as np
from scipy.special import expit

from matabound import RegressionProblem


def random_problem(seed, n=25, p=5, q=2, with_y=True, y_scale=1.0):
    """A well-conditioned random problem with a = e_1 (padded with zeros)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    a = np.zeros(p)
    a[:q] = rng.standard_normal(q)
    if not np.any(a):
        a[0] = 1.0
    y = y_scale * rng.standard_normal(n) if with_y else None
    return RegressionProblem(X, a, q=q, y=y)


def gram_problem(gram, n, q, a=None, y=None):
    """Problem whose design realizes the given Gram matrix X'X exactly."""
    p = gram.shape[0]
    top = np.linalg.cholesky(gram).T
    X = np.vstack([top, np.zeros((n - p, p))])
    if a is None:
        a = np.zeros(p)
        a[0] = 1.0
    return RegressionProblem(X, a, q=q, y=y)


def w1_closed_form(z, m, n, d):
    """The paper's two-model submodel weight, expit(d/2 - (n/2) log1p(z/m)),
    written apart from ``WeightSpec.weights`` so that tests can check it."""
    return expit(0.5 * d - 0.5 * n * np.log1p(np.asarray(z, dtype=float) / m))
