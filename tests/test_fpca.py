import importlib.util
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from geofpca.dataset import WavelengthSet, pairwise_distances
from geofpca.errors import DataError, NumericalError
from geofpca.fpca import (CovarianceMatrix, FpcaBasis, ScoreField,
                          compute_score_noise_variance, compute_scores, eigendecompose,
                          estimate_error_covariance, estimate_signal_covariance)
from geofpca.geostat import VariogramBins, empirical_semivariogram
from geofpca.imputation import FitConfig, fit_geofpca
from geofpca.mean_model import fit_mean_model
from geofpca.simulation import (STUDY_FIT, SimulationConfig, simulate_mixed_transect,
                                simulate_orbit)
from geofpca.unmixing import detect_mixed_region, unmix_region
from geofpca.validation import run_imputation_experiment
from oracles import (argsort_nearest, jacobi_eigh, quadratic_form_loop, triu_binned_pairs,
                     two_pass_signal_covariance)

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

    def test_span_is_the_kept_second_differences(self, rng):
        lats = np.concatenate([34.0 + 0.01 * np.arange(6), 35.0 + 0.01 * np.arange(6)])
        ds = make_dataset(lats, [4] * 12, rng.normal(50.0, 1.0, (12, 5)))
        ws = WavelengthSet(tuple(range(1, 6)))
        for gap in (np.inf, 5.0):
            cov = estimate_error_covariance(ds, ws, 4, max_gap_km=gap)
            assert cov.span.shape == (cov.n_used, 5)
            assert np.array_equal(cov.values, cov.span.T @ cov.span / (6.0 * cov.n_used))

    def test_overflow_is_a_numerical_error(self):
        ds = affine_dataset(12, 3, noise_fn=lambda s: np.resize([0.0, 3.0], s))
        big = make_dataset(ds.latitudes, ds.footprints, ds.radiance * 1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError,
                               match="footprint 4: error covariance is not finite"):
                estimate_error_covariance(big, WS3, 4)


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

    def test_overflow_is_a_numerical_error(self, rng):
        ds = affine_dataset(10, 3, noise_fn=lambda s: rng.normal(0.0, 1e160, s))
        mean = fit_mean_model(ds, WS3)
        errs = {4: CovarianceMatrix(np.zeros((3, 3)), WS3, "error:4", 8)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="signal covariance is not finite"):
                estimate_signal_covariance(ds, mean, errs)

    def test_span_stacks_residuals_and_differences(self, rng):
        """With n + n_tilde < m rows the span is kept, and it holds S's column space."""
        ds = affine_dataset(12, 40, noise_fn=lambda s: rng.normal(0.0, 0.5, s))
        ws = WavelengthSet(tuple(range(1, 41)))
        mean = fit_mean_model(ds, ws)
        errs = {4: estimate_error_covariance(ds, ws, 4)}
        cov = estimate_signal_covariance(ds, mean, errs)
        assert cov.span.shape == (12 + 10, 40)
        assert np.array_equal(cov.span[12:], errs[4].span)
        q = np.linalg.qr(cov.span.T)[0]
        outside = cov.values - q @ (q.T @ cov.values @ q) @ q.T
        assert np.abs(outside).max() <= 1e-12 * np.abs(cov.values).max()

    def test_no_span_when_rows_reach_m_or_a_footprint_has_none(self, rng):
        ds = affine_dataset(12, 22, noise_fn=lambda s: rng.normal(0.0, 0.5, s))
        ws = WavelengthSet(tuple(range(1, 23)))
        mean = fit_mean_model(ds, ws)
        err = estimate_error_covariance(ds, ws, 4)
        assert estimate_signal_covariance(ds, mean, {4: err}).span is None  # 22 rows
        ws = WavelengthSet(tuple(range(1, 24)))
        wide = affine_dataset(12, 23, noise_fn=lambda s: rng.normal(0.0, 0.5, s))
        mean = fit_mean_model(wide, ws)
        err = estimate_error_covariance(wide, ws, 4)
        assert estimate_signal_covariance(wide, mean, {4: err}).span.shape == (22, 23)
        hand = {4: replace(err, span=None)}
        assert estimate_signal_covariance(wide, mean, hand).span is None


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

    def test_rounding_noise_eigenvalues_dropped(self):
        """At or below m eps lambda_1 (2.7e-15 here) an eigenvalue counts as zero."""
        basis = eigendecompose(self.cov(np.diag([4.0, 1.0, 1e-15])), 1.0)
        assert basis.K == 2
        np.testing.assert_allclose(basis.fve_curve, [0.8, 1.0])

    def test_asymmetric_raises(self):
        bad = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(DataError, match="symmetric"):
            eigendecompose(self.cov(bad), 0.99)


def span_covariance(seed, n, n_tilde, repeated=0, correction=0.1, m=40):
    """A signal covariance S = X^T X / (n-1) - c D^T D / (n-1) over m wavelengths
    and its span [X; D]; the last ``repeated`` rows of D copy rows of X, so the
    span is rank-deficient when it is positive."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, m)) * np.linspace(3.0, 0.5, m)
    d = rng.standard_normal((n_tilde, m))
    d[n_tilde - repeated:] = x[:repeated]
    values = (x.T @ x - correction * d.T @ d) / (n - 1)
    return CovarianceMatrix(values, WavelengthSet(tuple(range(1, m + 1))), "signal", n,
                            np.vstack([x, d]))


def qr_calls(monkeypatch, fn, *args):
    """``fn(*args)`` and the shapes np.linalg.qr was called on while it ran."""
    shapes, real = [], np.linalg.qr
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "qr", lambda a: shapes.append(a.shape) or real(a))
        return fn(*args), shapes


class TestRowSpaceEigendecompose:
    """With a span of r < m rows, eigendecompose works in the span's r dimensions."""

    @pytest.mark.parametrize("n, n_tilde, repeated, correction", [
        (3, 2, 0, 0.1),      # r = 5
        (3, 2, 1, 0.1),      # r = 5, rank 4
        (20, 18, 0, 0.1),    # r = 38, the study's endmember fits
        (20, 18, 4, 0.1),    # r = 38, rank 34
        (20, 18, 0, 8.0),    # r = 38, negative eigenvalues beyond lambda_1
        (20, 19, 3, 0.1),    # r = m - 1, rank 36
        (20, 19, 0, 8.0),    # r = m - 1, negative eigenvalues beyond lambda_1
    ])
    def test_matches_the_m_by_m_path_and_jacobi(self, monkeypatch, n, n_tilde, repeated,
                                                correction):
        cov = span_covariance(n + n_tilde, n, n_tilde, repeated, correction)
        row, shapes = qr_calls(monkeypatch, eigendecompose, cov)
        assert shapes == [(40, n + n_tilde)]
        full = eigendecompose(replace(cov, span=None))
        evals, evecs = jacobi_eigh(cov.values)
        if correction > 1.0:
            assert -evals[-1] > evals[0]
        assert row.K == full.K
        k = row.K
        assert np.abs(row.eigenvalues - evals[:k]).max() <= 1e-12 * evals[0]
        assert np.abs(row.eigenvectors - evecs[:, :k]).max() <= 1e-10
        # The span holds at most its rank's positive eigenvalues; m x m adds rounding noise.
        assert row.fve_curve.size <= np.linalg.matrix_rank(cov.span)
        assert row.fve_curve.size <= full.fve_curve.size

    @pytest.mark.parametrize("rows", [None, 40, 43])
    def test_m_or_more_rows_keep_the_m_by_m_bytes(self, monkeypatch, rows):
        cov = span_covariance(7, 20, 19)
        base = eigendecompose(replace(cov, span=None))
        span = None if rows is None else np.resize(cov.span, (rows, 40))
        monkeypatch.setattr(np.linalg, "qr", None)  # the m x m path calls no QR
        got = eigendecompose(replace(cov, span=span))
        assert got.K == base.K
        for a, b in ((got.eigenvalues, base.eigenvalues),
                     (got.eigenvectors, base.eigenvectors), (got.fve_curve, base.fve_curve)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_noise_floor_is_m_eps_lambda_1(self):
        """The floor counts the matrix's m, not the span's r: 1e-14 lies between
        r eps lambda_1 (2.7e-15 at r = 3) and m eps lambda_1 (3.6e-14 at m = 40)."""
        values = np.diag([4.0, 1.0, 1e-14] + [0.0] * 37)
        cov = CovarianceMatrix(values, WavelengthSet(tuple(range(1, 41))), "signal", 3,
                               np.eye(3, 40))
        basis = eigendecompose(cov, 1.0)
        assert basis.K == 2
        np.testing.assert_allclose(basis.fve_curve, [0.8, 1.0])

    def test_span_must_have_m_columns(self):
        cov = span_covariance(1, 3, 2)
        with pytest.raises(DataError, match="span rows must have 40 columns"):
            replace(cov, span=cov.span[:, :39])


def benchmark_inputs():
    """perfbench/inputs.py, loaded as a module: the benchmark's simulator settings."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestWhoTakesTheRowPath:
    """On the benchmark's inputs, the study's endmember fits take the row path;
    the region-impute fit and the crosstrack-validate cells do not."""

    def test_study_endmember_fits(self, monkeypatch):
        ds, _ = simulate_mixed_transect(SimulationConfig(rho=0.05, seed=(101, 1, 0)))
        spec = detect_mixed_region(ds)
        _, shapes = qr_calls(monkeypatch, unmix_region, ds, spec, STUDY_FIT)
        assert len(shapes) == 2  # land and water
        assert all(m == 120 and r < m for m, r in shapes)

    def test_region_impute_fit(self, monkeypatch):
        ds, _ = simulate_orbit(benchmark_inputs().REGION_ORBIT)
        _, shapes = qr_calls(monkeypatch, fit_geofpca, ds, FitConfig(n_perm=99))
        assert shapes == []

    def test_crosstrack_validate_cell(self, monkeypatch):
        ds, _ = simulate_orbit(benchmark_inputs().CROSSTRACK_ORBIT)
        report, shapes = qr_calls(monkeypatch, run_imputation_experiment, ds, [197], [1],
                                  FitConfig(n_perm=99))
        assert shapes == []
        assert report.rows and not report.failures


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


def location_field(lats, lons):
    n = len(lats)
    return ScoreField(np.arange(n), np.zeros((n, 1)), np.asarray(lats, dtype=float),
                      np.asarray(lons, dtype=float), np.full(n, 4), {4: np.zeros(1)})


def random_field(n):
    rng = np.random.default_rng(n)
    return location_field(35.0 + rng.uniform(0.0, 0.6, n), 23.8 + rng.uniform(-0.05, 0.05, n))


def lattice_field(side=16, step=0.01):
    """A regular lattice: many of its distances tie exactly."""
    k, l = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    return location_field(35.0 + step * k.ravel(), 23.75 + step * l.ravel())


def field_distances(sf):
    return pairwise_distances(sf.latitudes, sf.longitudes)


def assert_tables_equal(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.shape == b.shape
        assert np.array_equal(a, b, equal_nan=True)


def assert_bins_match(sf, n_bins, max_fraction):
    """The semivariogram's pair counts equal the whole-matrix binning's, and its
    bin distances are the mean pair distances within 1e-12 relative."""
    counts, mean_d = triu_binned_pairs(field_distances(sf), n_bins, max_fraction)[3:]
    bins = VariogramBins(n_bins, max_fraction, min_pairs=1)
    if not counts.any():
        with pytest.raises(DataError, match="no variogram bin"):
            empirical_semivariogram(sf, bins)
        return
    ev, = empirical_semivariogram(sf, bins)
    assert np.array_equal(ev.counts, counts[counts > 0])
    np.testing.assert_allclose(ev.distances, mean_d[counts > 0], rtol=1e-12, atol=0)


class TestSpatialTablesMatchFullMatrixOracles:
    """The row-block neighbour table and variogram bins equal the whole-matrix builds."""

    @pytest.mark.parametrize("n", [2, 20, 63, 64, 65, 264, 1200])
    def test_nearest(self, n):
        sf = random_field(n)
        for m in sorted({1, min(10, n - 1), n - 1}):
            got = sf.nearest(m)
            assert_tables_equal(got, argsort_nearest(field_distances(sf), m))
            assert all(a.base is None for a in got)
        # The neighbour pass records the largest distance the variogram bins use.
        assert sf._largest_distance == field_distances(sf).max()

    @pytest.mark.parametrize("n", [2, 20, 63, 64, 65, 264, 1200])
    def test_binned_pairs(self, n):
        sf = random_field(n)
        for n_bins, max_fraction in ((15, 0.5), (8, 1.0)):
            assert_bins_match(sf, n_bins, max_fraction)
        assert sf.largest_distance() == field_distances(sf).max()

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 264])
    def test_largest_distance(self, n):
        sf = random_field(n)
        assert sf.largest_distance() == field_distances(sf).max()

    def test_lattice_ties(self):
        sf = lattice_field()
        d = field_distances(sf)
        np.fill_diagonal(d, np.inf)
        ordered = np.sort(d, axis=1)
        n = d.shape[0]
        boundary_ties = 0
        for m in (1, 2, 3, 4, 10, n - 1):
            boundary_ties += int((ordered[:, m - 1] == ordered[:, min(m, n - 1)]).sum())
            assert_tables_equal(sf.nearest(m), argsort_nearest(field_distances(sf), m))
        assert boundary_ties > 0  # some row's m-th neighbour ties with the next
        for n_bins, max_fraction in ((15, 0.5), (8, 1.0), (4, 0.25)):
            assert_bins_match(sf, n_bins, max_fraction)
