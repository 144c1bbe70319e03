"""Linear-algebra and statistics kernel for the exposure regression.

Covariance PCA via numpy's symmetric eigensolver, ordinary least squares
with t/p/F diagnostics, and the Student-t CDF through a continued-fraction
regularized incomplete beta.  Everything here is a pure function of its
inputs; sizes are small (tens of rows, seven columns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class NumericsError(ValueError):
    pass


# -- PCA -------------------------------------------------------------------


@dataclass(frozen=True)
class PcaResult:
    means: np.ndarray
    eigenvalues: np.ndarray  # descending, non-negative
    eigenvectors: np.ndarray  # rows, aligned with eigenvalues, orthonormal
    contribution: np.ndarray

    def __post_init__(self):
        for name in ("means", "eigenvalues", "eigenvectors", "contribution"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_components(self) -> int:
        return len(self.eigenvalues)


def pca(data: np.ndarray) -> PcaResult:
    """Covariance PCA of day-rows x feature-columns data.

    Columns are mean-centered (never standardized: raw count magnitudes
    are part of the model).  Eigenvector sign convention: the entry of
    largest magnitude in each row is positive.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise NumericsError("pca needs a 2-D matrix with at least 2 rows")
    if not np.all(np.isfinite(x)):
        raise NumericsError("pca input contains non-finite values")
    means = x.mean(axis=0)
    xc = x - means
    cov = xc.T @ xc / (x.shape[0] - 1)
    _, vecs = np.linalg.eigh(cov)  # ascending, eigenvectors as columns
    vecs = np.ascontiguousarray(vecs[:, ::-1].T)  # rows
    for i in range(vecs.shape[0]):
        j = int(np.argmax(np.abs(vecs[i])))
        if vecs[i, j] < 0:
            vecs[i] = -vecs[i]
    # eigh's eigenvalues are accurate to about eps * the largest; the
    # Rayleigh quotients of its eigenvectors keep a small eigenvalue of the
    # graded count covariance accurate relative to itself
    vals = np.clip(np.einsum("ij,jk,ik->i", vecs, cov, vecs), 0.0, None)
    total = vals.sum()
    contrib = vals / total if total > 0 else np.zeros_like(vals)
    return PcaResult(means, vals, vecs, contrib)


def project(pca_result: PcaResult, data: np.ndarray, k: int) -> np.ndarray:
    """Scores on the first k components: (row - means) . eigvec_i."""
    if not 1 <= k <= pca_result.n_components:
        raise NumericsError(f"k must be in 1..{pca_result.n_components}")
    x = np.asarray(data, dtype=np.float64)
    return (x - pca_result.means) @ pca_result.eigenvectors[:k].T


# -- OLS -------------------------------------------------------------------


@dataclass(frozen=True)
class OlsResult:
    coefficients: np.ndarray
    intercept: float
    stderrs: np.ndarray  # per coefficient, then intercept last
    t_values: np.ndarray
    p_values: np.ndarray
    r_squared: float
    f_value: float
    dof: int
    sst_zero: bool = field(default=False)

    def __post_init__(self):
        for name in ("coefficients", "stderrs", "t_values", "p_values"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def ols(x: np.ndarray, y: np.ndarray) -> OlsResult:
    """Least squares with intercept, plus the usual inference diagnostics.

    t/p entries and stderrs cover the slope coefficients followed by the
    intercept.  A constant response is handled as defined-zero R^2 and
    flagged via `sst_zero`.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != len(y):
        raise NumericsError("x must be 2-D with one row per response value")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NumericsError("x and y must be finite")
    n, k = x.shape
    if n <= k + 1:
        raise NumericsError(f"need more than {k + 1} rows to fit {k} coefficients")
    design = np.column_stack([x, np.ones(n)])
    # rank check via QR; name the offending columns
    _, r = np.linalg.qr(design)
    diag = np.abs(np.diag(r))
    bad = np.where(diag <= 1e-10 * max(diag.max(), 1.0))[0]
    if len(bad):
        names = ["intercept" if j == k else f"column {j}" for j in bad]
        raise NumericsError(f"rank-deficient design ({', '.join(names)} collinear)")
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    ssr = float(resid @ resid)
    sst = float(((y - y.mean()) ** 2).sum())
    dof = n - k - 1
    sigma2 = ssr / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    se = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, beta / se, 0.0)
    p = np.array([2.0 * (1.0 - t_cdf(abs(tv), dof)) for tv in t])
    sst_zero = sst == 0.0
    r2 = 0.0 if sst_zero else 1.0 - ssr / sst
    if sst_zero:
        f = 0.0
    elif ssr == 0.0:
        f = float("inf")
    else:
        f = ((sst - ssr) / k) / (ssr / dof)
    return OlsResult(
        coefficients=beta[:k],
        intercept=float(beta[k]),
        stderrs=se,
        t_values=t,
        p_values=p,
        r_squared=r2,
        f_value=f,
        dof=dof,
        sst_zero=sst_zero,
    )


# -- Student t CDF ---------------------------------------------------------


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = h = 1.0 / (tiny if abs(d) < tiny else d)
    for m in range(1, 300):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            d = 1.0 / (tiny if abs(d) < tiny else d)
            c = 1.0 + aa / c
            c = tiny if abs(c) < tiny else c
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise NumericsError("x must be in [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t: float, dof: int) -> float:
    """Student-t CDF, absolute error well under 1e-10 for moderate dof."""
    if dof < 1:
        raise NumericsError("dof must be >= 1")
    if t == 0.0:
        return 0.5
    x = dof / (dof + t * t)
    tail = 0.5 * betainc_reg(dof / 2.0, 0.5, x)
    return 1.0 - tail if t > 0 else tail
