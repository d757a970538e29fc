import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from geofpca.dataset import WavelengthSet
from geofpca.errors import DataError, NumericalError
from geofpca.fpca import (CovarianceMatrix, FpcaBasis, compute_score_noise_variance,
                          compute_scores, eigendecompose, estimate_error_covariance,
                          estimate_signal_covariance)
from geofpca.mean_model import fit_mean_model
from oracles import jacobi_eigh, quadratic_form_loop, two_pass_signal_covariance

WS3 = WavelengthSet((1, 2, 3))


def affine_dataset(n, width, footprint=4, noise_fn=None, lat0=34.0, step=0.01):
    """Equally spaced latitudes with radiance affine in latitude per wavelength."""
    lats = lat0 + step * np.arange(n)
    base = 30.0 + np.arange(width)
    slope = 1.0 + 0.2 * np.arange(width)
    rad = base[None, :] + slope[None, :] * lats[:, None]
    if noise_fn is not None:
        rad = rad + noise_fn((n, width))
    return make_dataset(lats, [footprint] * n, rad)


class TestErrorCovariance:
    def test_affine_signal_gives_zero(self):
        ds = affine_dataset(12, 3)
        cov = estimate_error_covariance(ds, WS3, 4)
        assert np.abs(cov.values).max() < 1e-12
        assert cov.n_used == 10

    def test_iid_noise_variance_recovered(self, rng):
        sigma = 1.7
        ds = affine_dataset(5000, 1, noise_fn=lambda s: rng.normal(0, sigma, s))
        cov = estimate_error_covariance(ds, WavelengthSet((1,)), 4)
        assert cov.values[0, 0] == pytest.approx(sigma ** 2, rel=0.05)

    def test_cross_wavelength_correlation_recovered(self, rng):
        sigma, corr = 1.3, 0.5
        chol = np.linalg.cholesky(sigma ** 2 * np.array([[1.0, corr], [corr, 1.0]]))
        ds = affine_dataset(5000, 2,
                            noise_fn=lambda s: rng.standard_normal(s) @ chol.T)
        cov = estimate_error_covariance(ds, WavelengthSet((1, 2)), 4)
        assert cov.values[0, 1] == pytest.approx(corr * sigma ** 2, rel=0.07)

    def test_needs_three_soundings(self):
        ds = affine_dataset(2, 3)
        with pytest.raises(DataError, match=">= 3"):
            estimate_error_covariance(ds, WS3, 4)

    def test_max_gap_drops_wide_triples(self, rng):
        # A large latitude jump in the middle: with a gap cap only the
        # triples on each side survive.
        lats = np.concatenate([34.0 + 0.01 * np.arange(6),
                               35.0 + 0.01 * np.arange(6)])
        rad = rng.normal(50.0, 1.0, (12, 2))
        ds = make_dataset(lats, [4] * 12, rad)
        full = estimate_error_covariance(ds, WavelengthSet((1, 2)), 4)
        capped = estimate_error_covariance(ds, WavelengthSet((1, 2)), 4,
                                           max_gap_km=5.0)
        assert full.n_used == 10
        assert capped.n_used == 8  # the two triples straddling the jump drop

    def test_incomplete_soundings_excluded(self, rng):
        ds = affine_dataset(10, 3)
        rad = ds.radiance.copy()
        rad[3, 1] = np.nan
        ds2 = make_dataset(ds.latitudes, ds.footprints, rad)
        cov = estimate_error_covariance(ds2, WS3, 4)
        assert cov.n_used == 7  # nine complete soundings, minus two endpoints


class TestSignalCovariance:
    def test_zero_noise_mean_only_gives_zero(self):
        ds = affine_dataset(15, 3)
        mean = fit_mean_model(ds, WS3)
        errs = {4: estimate_error_covariance(ds, WS3, 4)}
        cov = estimate_signal_covariance(ds, mean, errs)
        assert np.abs(cov.values).max() < 1e-10

    def test_rank_one_signal_recovered(self, rng):
        n, width, lam = 2000, 8, 4.0
        phi = np.sin(np.linspace(0.3, 2.8, width))
        phi /= np.linalg.norm(phi)
        lats = 34.0 + 0.001 * np.arange(n)
        xi = rng.normal(0.0, np.sqrt(lam), n)
        rad = 50.0 + np.outer(xi, phi)
        ds = make_dataset(lats, [4] * n, rad)
        mean = fit_mean_model(ds, WavelengthSet(tuple(range(1, width + 1))))
        errs = {4: CovarianceMatrix(np.zeros((width, width)),
                                    mean.wavelengths, "error:4", n - 2)}
        cov = estimate_signal_covariance(ds, mean, errs)
        assert np.abs(cov.values - lam * np.outer(phi, phi)).max() < 0.05 * lam

    def test_matches_two_pass_oracle(self, rng):
        ds = affine_dataset(40, 3, noise_fn=lambda s: rng.normal(0, 0.5, s))
        mean = fit_mean_model(ds, WS3)
        errs = {4: estimate_error_covariance(ds, WS3, 4)}
        cov = estimate_signal_covariance(ds, mean, errs)
        lat = ds.latitudes
        fitted = mean.coefficients[4][0][None, :] + lat[:, None] * mean.coefficients[4][1][None, :]
        resid = ds.radiance - fitted
        expected = two_pass_signal_covariance(resid, {4: 40}, {4: errs[4].values}, 40)
        np.testing.assert_allclose(cov.values, expected, atol=1e-10)

    def test_missing_footprint_covariance_raises(self, rng):
        ds = affine_dataset(10, 3)
        mean = fit_mean_model(ds, WS3)
        with pytest.raises(DataError, match="footprint 4"):
            estimate_signal_covariance(ds, mean, {})


class TestEigendecompose:
    def cov(self, values):
        values = np.asarray(values, dtype=float)
        ws = WavelengthSet(tuple(range(1, values.shape[0] + 1)))
        return CovarianceMatrix(values, ws, "signal", 10)

    def test_diagonal_spectrum(self):
        basis = eigendecompose(self.cov(np.diag([4.0, 1.0, 0.0])), 0.99)
        assert basis.K == 2
        np.testing.assert_allclose(basis.eigenvalues, [4.0, 1.0])
        np.testing.assert_allclose(basis.fve_curve, [0.8, 1.0])

    def test_identity_half_threshold(self):
        basis = eigendecompose(self.cov(np.eye(3)), 0.5)
        assert basis.K == 2

    def test_matches_jacobi_oracle(self, rng):
        a = rng.standard_normal((12, 12))
        psd = a @ a.T
        basis = eigendecompose(self.cov(psd), 1.0)
        evals, evecs = jacobi_eigh(psd)
        np.testing.assert_allclose(basis.eigenvalues, evals[:basis.K], atol=1e-8)
        np.testing.assert_allclose(basis.eigenvectors, evecs[:, :basis.K], atol=1e-8)

    def test_permutation_similarity(self, rng):
        a = rng.standard_normal((6, 6))
        psd = a @ a.T
        perm = rng.permutation(6)
        basis = eigendecompose(self.cov(psd), 1.0)
        basis_p = eigendecompose(self.cov(psd[np.ix_(perm, perm)]), 1.0)
        np.testing.assert_allclose(basis_p.eigenvalues, basis.eigenvalues, atol=1e-10)
        np.testing.assert_allclose(basis_p.eigenvectors, basis.eigenvectors[perm, :],
                                   atol=1e-8)

    def test_orthonormal_columns(self, rng):
        a = rng.standard_normal((9, 9))
        basis = eigendecompose(self.cov(a @ a.T), 1.0)
        gram = basis.eigenvectors.T @ basis.eigenvectors
        np.testing.assert_allclose(gram, np.eye(basis.K), atol=1e-8)

    def test_all_nonpositive_raises(self):
        with pytest.raises(NumericalError, match="positive"):
            eigendecompose(self.cov(-np.eye(3)), 0.99)

    def test_negative_eigenvalues_discarded(self):
        basis = eigendecompose(self.cov(np.diag([3.0, -1.0, 2.0])), 1.0)
        np.testing.assert_allclose(basis.eigenvalues, [3.0, 2.0])
        np.testing.assert_allclose(basis.fve_curve, [0.6, 1.0])

    def test_asymmetric_raises(self):
        bad = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(DataError, match="symmetric"):
            eigendecompose(self.cov(bad), 0.99)


def basis_from(vectors, eigenvalues, ws):
    vectors = np.asarray(vectors, dtype=float)
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    fve = np.cumsum(eigenvalues) / eigenvalues.sum()
    return FpcaBasis(eigenvalues, vectors, vectors.shape[1], fve, ws)


class TestScores:
    def setup_method(self):
        self.width = 5
        self.ws = WavelengthSet(tuple(range(1, self.width + 1)))
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((self.width, 2)))
        self.basis = basis_from(q, [3.0, 1.0], self.ws)

    def dataset_with_residual(self, resid_rows):
        # Constant latitude slope of zero: mean model fits the constant 10.
        n = len(resid_rows)
        lats = 34.0 + 0.01 * np.arange(n)
        rad = 10.0 + np.asarray(resid_rows, dtype=float)
        return make_dataset(lats, [4] * n, rad)

    def test_eigenvector_residual_scores_one(self):
        from geofpca.mean_model import MeanModel
        phi1 = self.basis.eigenvectors[:, 0]
        ds = self.dataset_with_residual(np.vstack([phi1, phi1, phi1]))
        # A fixed mean of 10 leaves the residual exactly phi1 at every sounding.
        mean = MeanModel(self.ws, "latitude",
                         {4: np.vstack([np.full(self.width, 10.0),
                                        np.zeros(self.width)])})
        field = compute_scores(ds, mean, self.basis)
        np.testing.assert_allclose(field.scores[:, 0], 1.0, atol=1e-8)
        np.testing.assert_allclose(field.scores[:, 1], 0.0, atol=1e-8)

    def test_zero_residual_zero_scores(self):
        ds = self.dataset_with_residual(np.zeros((4, self.width)))
        mean = fit_mean_model(ds, self.ws)
        field = compute_scores(ds, mean, self.basis)
        np.testing.assert_allclose(field.scores, 0.0, atol=1e-10)

    def test_matches_dot_product_oracle(self, rng):
        resid = rng.standard_normal((6, self.width))
        ds = self.dataset_with_residual(resid)
        mean = fit_mean_model(ds, self.ws)
        field = compute_scores(ds, mean, self.basis)
        lat = ds.latitudes
        fitted = mean.coefficients[4][0][None, :] + lat[:, None] * mean.coefficients[4][1][None, :]
        demeaned = ds.radiance - fitted
        for i in range(6):
            for k in range(2):
                expected = float(demeaned[i] @ self.basis.eigenvectors[:, k])
                assert field.scores[i, k] == pytest.approx(expected, abs=1e-12)

    def test_incomplete_soundings_flagged(self, rng):
        resid = rng.standard_normal((6, self.width))
        ds = self.dataset_with_residual(resid)
        rad = ds.radiance.copy()
        rad[2, 0] = np.nan
        ds2 = make_dataset(ds.latitudes, ds.footprints, rad)
        mean = fit_mean_model(ds2, self.ws)
        field = compute_scores(ds2, mean, self.basis)
        assert field.excluded_ids == (3,)
        assert field.scores.shape == (5, 2)
        assert field.latitudes.shape == (5,)


class TestScoreNoiseVariance:
    def setup_method(self):
        self.ws = WavelengthSet((1, 2, 3, 4))
        q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((4, 3)))
        self.basis = basis_from(q, [5.0, 2.0, 1.0], self.ws)

    def test_isotropic_noise(self):
        err = CovarianceMatrix(2.5 * np.eye(4), self.ws, "error:1", 10)
        tau = compute_score_noise_variance(err, self.basis)
        np.testing.assert_allclose(tau, 2.5, atol=1e-12)

    def test_zero_noise(self):
        err = CovarianceMatrix(np.zeros((4, 4)), self.ws, "error:1", 10)
        np.testing.assert_allclose(compute_score_noise_variance(err, self.basis), 0.0)

    def test_matches_triple_loop_oracle(self, rng):
        a = rng.standard_normal((4, 4))
        err = CovarianceMatrix(a @ a.T, self.ws, "error:1", 10)
        tau = compute_score_noise_variance(err, self.basis)
        for k in range(3):
            expected = quadratic_form_loop(err.values, self.basis.eigenvectors[:, k])
            assert tau[k] == pytest.approx(expected, abs=1e-12)

    def test_negative_clamped_with_warning(self):
        err = CovarianceMatrix(-0.5 * np.eye(4), self.ws, "error:1", 10)
        with pytest.warns(UserWarning, match="clamped"):
            tau = compute_score_noise_variance(err, self.basis)
        np.testing.assert_allclose(tau, 0.0)


def test_reconstruction_error_decreases_with_more_components(rng):
    width, n = 10, 50
    lats = 34.0 + 0.01 * np.arange(n)
    q, _ = np.linalg.qr(rng.standard_normal((width, 4)))
    scores_true = rng.normal(0, [4.0, 2.0, 1.0, 0.5], (n, 4))
    rad = 20.0 + scores_true @ q.T
    ds = make_dataset(lats, [4] * n, rad)
    ws = WavelengthSet(tuple(range(1, width + 1)))
    mean = fit_mean_model(ds, ws)
    lat = ds.latitudes
    fitted = mean.coefficients[4][0][None, :] + lat[:, None] * mean.coefficients[4][1][None, :]
    demeaned = ds.radiance - fitted
    errs = []
    for k in (1, 2, 3, 4):
        basis = basis_from(q[:, :k], [4.0, 2.0, 1.0, 0.5][:k], ws)
        field = compute_scores(ds, mean, basis)
        recon = field.scores @ basis.eigenvectors.T
        errs.append(float(((demeaned - recon) ** 2).sum()))
    assert errs == sorted(errs, reverse=True)


def fpca_pieces(ds):
    """The mean coefficients, eigenpairs and per-footprint tau of one dataset."""
    ws = WavelengthSet(tuple(range(1, ds.grid_length + 1)))
    mean = fit_mean_model(ds, ws)
    errs = {p: estimate_error_covariance(ds, ws, p) for p in ds.footprints_present()}
    basis = eigendecompose(estimate_signal_covariance(ds, mean, errs))
    taus = {p: compute_score_noise_variance(errs[p], basis) for p in errs}
    return mean.coefficients, basis, taus


def assert_close(a, b):
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-10 * np.abs(a).max())


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       order=st.permutations([1] * 9 + [2] * 8 + [5] * 10))
def test_interleaving_footprints_keeps_mean_eigenpairs_and_tau(seed, order):
    """Rows interleaved across footprints, each footprint kept in orbit order."""
    rng = np.random.default_rng(seed)
    width = 6
    loadings = np.linalg.qr(rng.standard_normal((width, 3)))[0] * [10.0, 5.0, 2.0]
    rows = {}
    for p in (1, 2, 5):
        n = order.count(p)
        lats = 34.0 + 0.01 * np.arange(n) + 0.001 * p
        rad = (40.0 + p + lats[:, None] * np.arange(1.0, width + 1)
               + rng.standard_normal((n, 3)) @ loadings.T
               + 0.1 * rng.standard_normal((n, width)))
        rows[p] = [(lat, p, r) for lat, r in zip(lats, rad)]
    grouped = [row for p in (1, 2, 5) for row in rows[p]]
    taken = {p: iter(rows[p]) for p in rows}
    interleaved = [next(taken[p]) for p in order]

    def dataset(rs):
        lats, fps, rad = zip(*rs)
        return make_dataset(lats, fps, np.array(rad))

    mean_a, basis_a, tau_a = fpca_pieces(dataset(grouped))
    mean_b, basis_b, tau_b = fpca_pieces(dataset(interleaved))
    for p in mean_a:
        assert_close(mean_a[p], mean_b[p])
        assert_close(tau_a[p], tau_b[p])
    assert basis_a.K == basis_b.K
    assert_close(basis_a.eigenvalues, basis_b.eigenvalues)
    assert_close(basis_a.eigenvectors, basis_b.eigenvectors)
