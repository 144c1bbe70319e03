import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodemic.numerics import (
    NumericsError,
    betainc_reg,
    ols,
    pca,
    project,
    t_cdf,
)

# Frozen oracle: Student-t CDF values from adaptive quadrature of the t
# density (composite integration, absolute error < 1e-11), 20 grid points.
T_CDF_ORACLE = (
    (-6.0, 3, 0.004636357446142333),
    (-3.5, 5, 0.008642215892646675),
    (-2.0, 7, 0.04280966428148803),
    (-1.2, 9, 0.1303865986952308),
    (-0.7, 11, 0.2492322328471981),
    (-0.3, 13, 0.38446020187931595),
    (0.0, 14, 0.5),
    (0.25, 14, 0.5968907510065503),
    (0.6, 14, 0.7209532074636216),
    (1.0, 14, 0.8328590283026711),
    (1.5, 14, 0.9220873409514115),
    (2.0, 14, 0.967356023555444),
    (2.5, 12, 0.9860423002143374),
    (3.0, 10, 0.9933281724887152),
    (3.5, 8, 0.995960458869794),
    (4.0, 6, 0.9964405110181259),
    (5.0, 5, 0.9979476420099733),
    (6.5, 4, 0.9985549964414496),
    (8.0, 3, 0.9979617112061072),
    (12.0, 2, 0.9965635331614208),
)

# Frozen oracle: regularized incomplete beta reference values.
BETAINC_ORACLE = (
    (0.5, 0.5, 0.3, 0.36901011956554536),
    (2.0, 3.0, 0.5, 0.6875),
    (7.0, 0.5, 0.9, 0.23277883249845518),
    (0.5, 7.0, 0.05, 0.5948684952530259),
    (4.5, 4.5, 0.25, 0.058653401507119104),
    (10.0, 2.0, 0.95, 0.8981054088575682),
)

# Frozen oracle: eigenvalues (descending) of a fixed symmetric 5x5 matrix.
EIG_M = np.array(
    [
        [0.061, 0.304, 0.3505, 0.1875, 0.59],
        [0.304, 0.618, -1.0285, -0.67, -1.4955],
        [0.3505, -1.0285, -0.071, -0.1915, -0.661],
        [0.1875, -0.67, -0.1915, 0.688, -1.125],
        [0.59, -1.4955, -0.661, -1.125, 0.007],
    ]
)
EIG_W = np.array(
    [1.967712906827492, 1.453738678937396, 0.26584528551330283,
     0.24445620180342373, -2.6287530730816173]
)

# Frozen oracle: least-squares fit with inference statistics for a fixed
# noisy planted regression (normal-equation solve + t survival function).
OLS_X = np.array(
    [
        [-2.848, 2.527, -1.741],
        [-0.518, -0.151, -1.482],
        [-2.736, 1.298, 0.722],
        [-3.906, 4.695, 1.937],
        [-1.519, 1.804, -0.934],
        [-0.121, 1.578, -2.513],
        [1.152, 2.798, 2.645],
        [-0.599, 1.806, -3.243],
        [-0.316, 0.899, -2.687],
        [-0.163, 3.449, 5.236],
        [1.555, 1.657, -1.918],
        [-2.419, -2.825, 1.083],
    ]
)
OLS_Y = np.array(
    [-2.28945, 2.84185, -1.3021, -4.91585, 0.2757, 2.0934, 4.5395, 1.0704,
     2.29435, 1.88395, 4.74715, 3.11085]
)
OLS_COEF = np.array([1.49520268516553, -0.7765137544682693, 0.20022243953670912])
OLS_INTERCEPT = 4.057993429507107
OLS_STDERR = np.array(
    [0.05116206900373818, 0.04741257960269149, 0.03471894125905257, 0.1264021931127343]
)
OLS_T = np.array(
    [29.224828359781196, -16.377800174032053, 5.766951187905346, 32.103821378224865]
)
OLS_P = np.array(
    [2.0352832201151587e-09, 1.9463189235576164e-07, 4.2074793182811685e-04,
     9.6532732191448561e-10]
)
OLS_R2 = 0.9929182172141969
OLS_F = 373.88634933554175


# -- eigensolver (numpy's eigh behind pca) ------------------------------------


def data_with_covariance(a: np.ndarray, rows: int) -> np.ndarray:
    """Rows whose sample covariance is the positive definite matrix `a`."""
    z = np.random.default_rng(5).normal(size=(rows, len(a)))
    q, _ = np.linalg.qr(z - z.mean(axis=0))  # orthonormal columns, each summing to 0
    return np.sqrt(rows - 1) * q @ np.linalg.cholesky(a).T


def test_pca_matches_frozen_eigenvalues():
    # EIG_M is indefinite; EIG_M + 3I has its eigenvectors and is a covariance
    p = pca(data_with_covariance(EIG_M + 3.0 * np.eye(5), rows=9))
    vals, vecs = p.eigenvalues - 3.0, p.eigenvectors.T
    assert np.allclose(vals, EIG_W, atol=1e-12)
    # eigen residual and orthonormality
    assert np.abs(EIG_M @ vecs - vecs @ np.diag(vals)).max() < 1e-12
    assert np.abs(vecs.T @ vecs - np.eye(5)).max() < 1e-12


def test_pca_random_covariance_residuals():
    rng = np.random.default_rng(0)
    for n in (2, 3, 7, 12):
        x = rng.normal(size=(n + 5, n))
        xc = x - x.mean(axis=0)
        a = xc.T @ xc / (len(x) - 1)
        p = pca(x)
        vals, vecs = p.eigenvalues, p.eigenvectors.T
        assert np.abs(a @ vecs - vecs @ np.diag(vals)).max() < 1e-12
        assert np.allclose(np.sort(vals), np.sort(np.diag(vecs.T @ a @ vecs)), atol=1e-12)


# -- PCA ---------------------------------------------------------------------


def test_pca_reconstructs_covariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(19, 7))
    p = pca(x)
    xc = x - x.mean(axis=0)
    cov = xc.T @ xc / (len(x) - 1)
    rebuilt = p.eigenvectors.T @ np.diag(p.eigenvalues) @ p.eigenvectors
    assert np.abs(cov - rebuilt).max() < 1e-12
    assert np.all(np.diff(p.eigenvalues) <= 1e-12)  # descending
    assert np.all(p.eigenvalues >= 0)


def test_pca_sign_convention_and_contribution():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 5)) * np.array([10.0, 3.0, 1.0, 0.5, 0.1])
    p = pca(x)
    for row in p.eigenvectors:
        assert row[np.argmax(np.abs(row))] > 0
    assert abs(p.contribution.sum() - 1.0) < 1e-12
    assert p.contribution[0] == pytest.approx(p.eigenvalues[0] / p.eigenvalues.sum())


def test_pca_project_reconstruct_roundtrip():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(12, 4))
    p = pca(x)
    full = project(p, x, 4)
    assert np.abs(full @ p.eigenvectors + p.means - x).max() < 1e-10
    with pytest.raises(NumericsError):
        project(p, x, 0)
    with pytest.raises(NumericsError):
        project(p, x, 5)


def test_pca_scores_are_uncorrelated():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(40, 6))
    p = pca(x)
    s = project(p, x, 6)
    cov = s.T @ s / (len(x) - 1)
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() < 1e-10


def test_pca_input_validation():
    with pytest.raises(NumericsError):
        pca(np.ones(3))
    with pytest.raises(NumericsError):
        pca(np.ones((1, 3)))
    with pytest.raises(NumericsError):
        pca(np.array([[1.0, np.nan], [2.0, 3.0]]))


def test_contribution_ratios():
    p = pca(data_with_covariance(np.diag([3.0, 1.0]), rows=6))
    assert np.allclose(p.contribution, [0.75, 0.25])
    # no variance at all: every share is zero
    assert np.array_equal(pca(np.ones((4, 3))).contribution, np.zeros(3))


# -- OLS ---------------------------------------------------------------------


def test_ols_matches_frozen_inference_oracle():
    r = ols(OLS_X, OLS_Y)
    assert np.allclose(r.coefficients, OLS_COEF, atol=1e-12)
    assert r.intercept == pytest.approx(OLS_INTERCEPT, abs=1e-12)
    assert np.allclose(r.stderrs, OLS_STDERR, atol=1e-12)
    assert np.allclose(r.t_values, OLS_T, atol=1e-9)
    assert np.allclose(r.p_values, OLS_P, rtol=1e-7)
    assert r.r_squared == pytest.approx(OLS_R2, abs=1e-12)
    assert r.f_value == pytest.approx(OLS_F, rel=1e-12)
    assert r.dof == 8


def test_ols_recovers_planted_noise_free():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(25, 4))
    beta = np.array([2.0, -1.0, 0.5, 3.0])
    y = x @ beta + 7.0
    r = ols(x, y)
    assert np.abs(r.coefficients - beta).max() < 1e-10
    assert r.intercept == pytest.approx(7.0, abs=1e-10)
    assert r.r_squared == pytest.approx(1.0, abs=1e-12)
    assert r.f_value > 1e15  # residual is rounding-level noise


def test_ols_constant_response():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(10, 2))
    r = ols(x, np.full(10, 3.0))
    assert r.sst_zero
    assert r.r_squared == 0.0
    assert r.f_value == 0.0


@pytest.mark.parametrize("where, bad", [("x", np.nan), ("x", -np.inf), ("y", np.nan), ("y", np.inf)])
def test_ols_rejects_non_finite(where, bad):
    rng = np.random.default_rng(5)
    data = {"x": rng.normal(size=(10, 2)), "y": rng.normal(size=10)}
    data[where].flat[4] = bad
    with pytest.raises(NumericsError, match="finite"):
        ols(data["x"], data["y"])


def test_ols_rank_deficiency_names_columns():
    rng = np.random.default_rng(7)
    a = rng.normal(size=10)
    x = np.column_stack([a, 2 * a])
    with pytest.raises(NumericsError, match="collinear"):
        ols(x, rng.normal(size=10))


def test_ols_shape_validation():
    with pytest.raises(NumericsError):
        ols(np.ones((3, 5)), np.ones(3))  # too few rows
    with pytest.raises(NumericsError):
        ols(np.ones(5), np.ones(5))


# -- t distribution ----------------------------------------------------------


def test_t_cdf_matches_integration_oracle():
    for t, dof, want in T_CDF_ORACLE:
        assert t_cdf(t, dof) == pytest.approx(want, abs=1e-8)


def test_betainc_matches_oracle():
    for a, b, x, want in BETAINC_ORACLE:
        assert betainc_reg(a, b, x) == pytest.approx(want, abs=1e-12)
    assert betainc_reg(2.0, 3.0, 0.0) == 0.0
    assert betainc_reg(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(NumericsError):
        betainc_reg(2.0, 3.0, 1.5)


@given(st.integers(1, 40), st.floats(-30, 30), st.floats(-30, 30))
@settings(max_examples=200, deadline=None)
def test_t_cdf_monotone_and_symmetric(dof, t1, t2):
    lo, hi = sorted((t1, t2))
    assert t_cdf(lo, dof) <= t_cdf(hi, dof) + 1e-15
    assert t_cdf(t1, dof) + t_cdf(-t1, dof) == pytest.approx(1.0, abs=1e-12)


def test_t_cdf_rejects_bad_dof():
    with pytest.raises(NumericsError):
        t_cdf(1.0, 0)
