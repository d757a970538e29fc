import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from geofpca.dataset import WavelengthSet, haversine_km, pairwise_distances
from geofpca.errors import DataError
from geofpca.geostat import WEIGHT_SCHEMES, VariogramBins
from geofpca.imputation import (FitConfig, fit_geofpca, impute_radiance,
                                interpolate_radiance, load_model, predict_scores,
                                save_model)
from geofpca.simulation import (OrbitConfig, SimulationConfig, simulate_mixed_transect,
                                simulate_orbit)
from geofpca.validation import rrmse
from oracles import bordered_kriging, cholesky_kriging, interpolate_radiance_point


def rank_k_dataset(rng, n=40, width=12, variances=(6.0,), noise=0.0, spacing=0.012):
    """Constant-mean data plus orthonormal components with i.i.d. scores."""
    lats = 34.0 + spacing * np.arange(n)
    q, _ = np.linalg.qr(rng.standard_normal((width, len(variances))))
    scores = rng.normal(0.0, np.sqrt(variances), (n, len(variances)))
    rad = 40.0 + scores @ q.T + noise * rng.standard_normal((n, width))
    return make_dataset(lats, [4] * n, rad), q, scores


def exact_rank_dataset(rng, ramps, n_per_fp=24, width=10):
    """Noise-free data whose scores are affine in the within-footprint index.

    Unevenly spaced latitudes keep the ramps out of the latitude-linear mean,
    while index-affine scores are annihilated exactly by second differencing,
    so the estimated nugget is zero and kriging reproduces the training data.
    ``ramps`` maps footprint -> list of (offset, step) per component.
    """
    k = len(next(iter(ramps.values())))
    q, _ = np.linalg.qr(rng.standard_normal((width, k)))
    lats, fps, rows = [], [], []
    for j, (p, comps) in enumerate(sorted(ramps.items())):
        idx = np.arange(n_per_fp)
        # Low-frequency deviation from even spacing keeps the index ramps
        # visibly outside the latitude-linear mean.
        lat = 34.0 + 0.001 * j + 0.01 * idx + 0.02 * np.sin(0.25 * idx + j)
        scores = np.column_stack([a + b * idx for a, b in comps])
        rad = 45.0 + scores @ q.T
        lats.extend(lat)
        fps.extend([p] * n_per_fp)
        rows.extend(rad)
    lons = 23.8 + 0.01 * (np.asarray(fps) - 4)
    return make_dataset(lats, fps, np.asarray(rows), lons=lons), q


@pytest.fixture
def water_region(rng):
    ds, truth = simulate_mixed_transect(SimulationConfig(rho=0.02, seed=31))
    from geofpca.dataset import select_region
    lats = ds.latitudes
    return select_region(ds, (float(lats[0]), float(lats[19]))), truth


class TestFitGeofpca:
    def test_smoke_on_simulated_region(self, water_region):
        region, _ = water_region
        model = fit_geofpca(region, FitConfig(n_perm=99))
        assert model.basis.K >= 1
        assert len(model.fits) == model.basis.K
        for fit in model.fits:
            if fit is not None:
                assert np.isfinite(fit.sill) and np.isfinite(fit.range_km)
        assert model.wavelengths.size == region.grid_length

    def test_zero_noise_rank_one_selects_k1(self, rng):
        ds, _ = exact_rank_dataset(rng, {4: [(1.0, 0.2)]})
        model = fit_geofpca(ds, FitConfig(n_perm=99))
        assert model.basis.K == 1

    def test_wide_region_guard(self, rng):
        n = 30
        lats = 34.0 + np.linspace(0.0, 2.0, n)
        ds = make_dataset(lats, [4] * n, 40.0 + rng.standard_normal((n, 6)))
        with pytest.raises(DataError, match="split the region"):
            fit_geofpca(ds)

    def test_stage_labels_on_failure(self):
        ds = make_dataset([34.0, 34.01], [4, 4], np.ones((2, 3)))
        with pytest.raises(DataError, match=r"\[error-covariance\]"):
            fit_geofpca(ds)

    def test_deterministic(self, water_region, tmp_path):
        region, _ = water_region
        cfg = FitConfig(n_perm=99, seed=5)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(fit_geofpca(region, cfg), p1)
        save_model(fit_geofpca(region, cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestImputeRadiance:
    def test_training_location_zero_noise(self, rng):
        ds, _ = exact_rank_dataset(rng, {3: [(2.0, 0.25), (-1.0, 0.15)],
                                         6: [(1.0, 0.10), (0.5, 0.30)]})
        model = fit_geofpca(ds, FitConfig(n_perm=99))
        assert model.basis.K == 2
        for i in (3, 17, 30, 40):
            s = ds.soundings[i]
            imputed = impute_radiance(model, [s.latitude], [s.longitude],
                                      [s.footprint])[0]
            assert rrmse(imputed, s.radiance) < 1e-6

    def test_far_target_decays_to_gls_mean(self, rng):
        ds, _, _ = rank_k_dataset(rng, n=36, variances=(6.0,))
        model = fit_geofpca(ds, FitConfig(n_perm=99))
        # ~3400 km north: every covariance vector entry is numerically zero.
        preds, _ = predict_scores(model, [65.0], [23.8])
        preds = preds[0]
        u = model.scores.scores
        for k in range(model.basis.K):
            if model.dependent(k) and model.fits[k] is not None:
                fit = model.fits[k]
                cov = fit.sill * np.exp(-pairwise_distances(
                    model.scores.latitudes, model.scores.longitudes) / fit.range_km)
                tau = model.scores.tau_for(model.scores.footprints, k)
                np.fill_diagonal(cov, fit.sill + tau + 1e-8 * fit.sill)
                ones = np.ones(len(u))
                sol = np.linalg.solve(cov, u[:, k])
                kappa = float(ones @ sol) / float(ones @ np.linalg.solve(cov, ones))
            else:
                kappa = float(u[:, k].mean())
            assert preds[k] == pytest.approx(kappa, abs=1e-6)

    def test_matches_assembly_oracle(self, water_region):
        region, _ = water_region
        from geofpca.dataset import remove_cross_tracks
        train, held = remove_cross_tracks(region, center=10, r=1)
        model = fit_geofpca(train, FitConfig(n_perm=99))
        s = held.soundings[0]
        imputed = impute_radiance(model, [s.latitude], [s.longitude], [s.footprint])[0]
        # Rebuild the prediction from scratch: mean, per-component bordered
        # kriging (or the score mean), then the basis reconstruction.
        beta = model.mean.coefficients[s.footprint]
        spectrum = beta[0] + s.latitude * beta[1]
        lats, lons = model.scores.latitudes, model.scores.longitudes
        for k in range(model.basis.K):
            u = model.scores.scores[:, k]
            if model.dependent(k):
                fit = model.fits[k]
                cov = fit.sill * np.exp(-pairwise_distances(lats, lons) / fit.range_km)
                tau = model.scores.tau_for(model.scores.footprints, k)
                np.fill_diagonal(cov, fit.sill + tau + 1e-8 * fit.sill)
                nu = fit.sill * np.exp(-haversine_km(s.latitude, s.longitude,
                                                     lats, lons) / fit.range_km)
                xi, _ = bordered_kriging(cov, nu, u, fit.sill)
            else:
                xi = float(u.mean())
            spectrum = spectrum + xi * model.basis.eigenvectors[:, k]
        np.testing.assert_allclose(imputed, spectrum, atol=1e-8)

    def test_unfitted_footprint(self, water_region):
        region, _ = water_region
        model = fit_geofpca(region, FitConfig(n_perm=99))
        with pytest.raises(DataError, match="footprint 7"):
            impute_radiance(model, [35.0], [23.8], [7])

    def test_fractional_footprint_refused(self, water_region):
        region, _ = water_region
        model = fit_geofpca(region, FitConfig(n_perm=99))
        p = int(region.footprints[0])
        lat, lon = float(region.latitudes[0]), float(region.longitudes[0])
        whole = impute_radiance(model, [lat], [lon], [float(p)])
        np.testing.assert_array_equal(whole, impute_radiance(model, [lat], [lon], [p]))
        for bad in (p + 0.7, math.nan):
            with pytest.raises(DataError, match="not an integer"):
                impute_radiance(model, [lat], [lon], [bad])


class TestBatchedPrediction:
    @pytest.fixture
    def fitted(self):
        ds, _ = simulate_orbit(OrbitConfig(n_tracks=14, seed=5, grid_length=24,
                                           track_spacing=0.01))
        model = fit_geofpca(ds, FitConfig(n_perm=99))
        rng = np.random.default_rng(77)
        lats = rng.uniform(*model.region, 24)
        lons = rng.uniform(ds.longitudes.min(), ds.longitudes.max(), 24)
        fps = np.arange(24) % 8 + 1
        return model, lats, lons, fps

    def test_matches_cholesky_oracle(self, fitted):
        model, lats, lons, fps = fitted
        # Both predictor branches are exercised.
        assert {model.dependent(k) for k in range(model.basis.K)} == {True, False}
        preds, variances = predict_scores(model, lats, lons)
        sf = model.scores
        for k in range(model.basis.K):
            u = sf.scores[:, k]
            fit = model.fits[k]
            if model.dependent(k):
                cov = fit.sill * np.exp(-pairwise_distances(
                    sf.latitudes, sf.longitudes) / fit.range_km)
                np.fill_diagonal(cov, fit.sill + sf.tau_for(sf.footprints, k)
                                 + 1e-8 * fit.sill)
            for j in range(lats.size):
                if model.dependent(k):
                    nu = fit.sill * np.exp(-haversine_km(
                        lats[j], lons[j], sf.latitudes, sf.longitudes) / fit.range_km)
                    ref = cholesky_kriging(cov, nu, u, fit.sill)
                else:
                    ref = (float(u.mean()), float(model.basis.eigenvalues[k]))
                assert abs(preds[j, k] - ref[0]) <= 1e-12
                assert abs(variances[j, k] - ref[1]) <= 1e-12

    def test_one_at_a_time_matches_batch(self, fitted):
        model, lats, lons, fps = fitted
        preds, variances = predict_scores(model, lats, lons)
        spectra = impute_radiance(model, lats, lons, fps)
        for j in range(lats.size):
            p1, v1 = predict_scores(model, lats[j:j + 1], lons[j:j + 1])
            np.testing.assert_allclose(p1[0], preds[j], rtol=0, atol=1e-12)
            np.testing.assert_allclose(v1[0], variances[j], rtol=0, atol=1e-12)
            s1 = impute_radiance(model, lats[j:j + 1], lons[j:j + 1], fps[j:j + 1])
            np.testing.assert_allclose(s1[0], spectra[j], rtol=0, atol=1e-12)

    def test_loaded_model_predicts_identically(self, fitted, tmp_path):
        model, lats, lons, fps = fitted
        save_model(model, tmp_path / "model.json")
        restored = load_model(tmp_path / "model.json")
        for a, b in zip(predict_scores(model, lats, lons),
                        predict_scores(restored, lats, lons)):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(impute_radiance(model, lats, lons, fps),
                                      impute_radiance(restored, lats, lons, fps))

    def test_zero_targets(self, fitted):
        model = fitted[0]
        preds, variances = predict_scores(model, [], [])
        assert preds.shape == variances.shape == (0, model.basis.K)
        assert impute_radiance(model, [], [], []).shape == (0, model.wavelengths.size)

    def test_rejects_bad_coordinates(self, fitted):
        model = fitted[0]
        with pytest.raises(DataError, match="equal length"):
            predict_scores(model, [35.0, 35.1], [23.8])
        with pytest.raises(DataError, match="finite"):
            impute_radiance(model, [float("nan")], [23.8], [4])
        with pytest.raises(DataError, match="one footprint per location"):
            impute_radiance(model, [35.0, 35.1], [23.8, 23.8], [4])


class TestFitConfigValidation:
    def test_too_few_permutations(self):
        with pytest.raises(DataError, match="n_perm 5"):
            FitConfig(n_perm=5)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(DataError, match="alpha"):
            FitConfig(alpha=alpha)

    @pytest.mark.parametrize("kwargs, field", [
        ({"fve_threshold": 0.0}, "fve_threshold"),
        ({"fve_threshold": 1.5}, "fve_threshold"),
        ({"fve_threshold": math.nan}, "fve_threshold"),
        ({"min_coverage": 0.0}, "min_coverage"),
        ({"min_coverage": 1.01}, "min_coverage"),
        ({"covariates": "longitude"}, "covariates"),
        ({"weight_scheme": "n3"}, "weight_scheme"),
        ({"max_lat_span": 0.0}, "max_lat_span"),
        ({"max_gap_km": 0.0}, "max_gap_km"),
        ({"max_gap_km": -math.inf}, "max_gap_km"),
        ({"bins": VariogramBins(n_bins=0)}, "n_bins"),
        ({"bins": VariogramBins(min_pairs=0)}, "min_pairs"),
        ({"bins": VariogramBins(max_fraction=0.0)}, "max_fraction"),
        ({"bins": VariogramBins(max_fraction=1.5)}, "max_fraction"),
    ])
    def test_field_out_of_bounds(self, kwargs, field):
        with pytest.raises(DataError, match=field):
            FitConfig(**kwargs)

    def test_bounds_are_inclusive_where_stated(self):
        FitConfig(fve_threshold=1.0, min_coverage=1.0, max_gap_km=math.inf,
                  bins=VariogramBins(n_bins=1, max_fraction=1.0, min_pairs=1))

    @pytest.mark.parametrize("config", [
        FitConfig(),
        FitConfig(fve_threshold=0.9, min_coverage=0.8, covariates="latlon",
                  max_lat_span=0.4, max_gap_km=12.5,
                  bins=VariogramBins(n_bins=9, max_fraction=0.7, min_pairs=4),
                  weight_scheme="n", n_perm=199, alpha=0.1, seed=7),
    ], ids=["defaults", "every-field-set"])
    def test_dict_round_trip(self, config):
        assert FitConfig.from_dict(config.to_dict()) == config
        doc = json.loads(json.dumps(config.to_dict(), allow_nan=False))
        assert FitConfig.from_dict(doc) == config


class TestInterpolateRadiance:
    def test_midway_average(self):
        ds = make_dataset([34.0, 34.2], [4, 4], np.array([[2.0, 8.0], [4.0, 10.0]]))
        got = interpolate_radiance(ds, [34.1], [4])
        np.testing.assert_allclose(got, [[3.0, 9.0]], atol=1e-12)

    def test_observed_latitude_exact(self):
        ds = make_dataset([34.0, 34.2, 34.4], [4] * 3,
                          np.array([[2.0], [5.0], [11.0]]))
        got = interpolate_radiance(ds, [34.2], [4])
        assert got[0, 0] == 5.0

    def test_linear_field_recovered_exactly(self, rng):
        lats = np.sort(34.0 + rng.uniform(0, 0.5, 20))
        slope, intercept = 3.0, 2.0
        rad = (intercept + slope * lats)[:, None] * np.ones((1, 4))
        ds = make_dataset(lats, [4] * 20, rad)
        lat0 = rng.uniform(lats[0], lats[-1], 5)
        got = interpolate_radiance(ds, lat0, [4] * 5)
        np.testing.assert_allclose(got, (intercept + slope * lat0)[:, None] * np.ones(4),
                                   atol=1e-12)

    def test_edge_extrapolation_is_nearest(self):
        ds = make_dataset([34.0, 34.2], [4, 4], np.array([[2.0], [4.0]]))
        got = interpolate_radiance(ds, [33.5, 35.0], [4, 4])
        assert got[0, 0] == 2.0
        assert got[1, 0] == 4.0

    def test_same_footprint_only(self):
        ds = make_dataset([34.0, 34.2, 34.1], [4, 4, 5],
                          np.array([[2.0], [4.0], [100.0]]))
        got = interpolate_radiance(ds, [34.1], [4])
        assert got[0, 0] == 3.0

    def test_missing_column_uses_available_rows(self):
        rad = np.array([[2.0, 1.0], [np.nan, 2.0], [6.0, 3.0]])
        ds = make_dataset([34.0, 34.1, 34.2], [4] * 3, rad)
        got = interpolate_radiance(ds, [34.1], [4])
        assert got[0, 0] == pytest.approx(4.0)  # linear between rows 1 and 3
        assert got[0, 1] == pytest.approx(2.0)

    def test_no_soundings_raises(self):
        ds = make_dataset([34.0, 34.1], [4, 4], np.ones((2, 2)))
        with pytest.raises(DataError, match="footprint 6"):
            interpolate_radiance(ds, [34.0], [6])
        with pytest.raises(DataError, match="footprint 4.5"):
            interpolate_radiance(ds, [34.0], [4.5])

    def test_restricted_wavelengths(self):
        ds = make_dataset([34.0, 34.2], [4, 4],
                          np.array([[2.0, 8.0, 1.0], [4.0, 10.0, 3.0]]))
        got = interpolate_radiance(ds, [34.1], [4], WavelengthSet((1, 3)))
        np.testing.assert_allclose(got, [[3.0, 2.0]])


class TestInterpolateRadianceMatchesPointOracle:
    """The batched baseline equals the per-target search value for value."""

    @staticmethod
    def holed_orbit(rng):
        """Three footprints, unsorted rows, NaN holes in two of five columns."""
        n = 30
        lats = 34.0 + rng.uniform(0.0, 0.4, n)
        fps = np.array([2, 5, 7] * 10)
        rad = 50.0 + rng.normal(0.0, 3.0, (n, 5))
        rad[[0, 4, 9], 1] = np.nan
        rad[rng.choice(n, 8, replace=False), 3] = np.nan
        return make_dataset(lats, fps, rad, ids=np.arange(1, n + 1))

    def test_targets_below_at_between_and_above(self, rng):
        ds = self.holed_orbit(rng)
        targets = np.concatenate([[33.0, 33.99, 34.5, 35.0],    # outside the range
                                  ds.latitudes,                   # at observed values
                                  rng.uniform(34.0, 34.4, 30)])   # between
        fps = np.concatenate([[2, 5, 7, 2], ds.footprints, rng.choice([2, 5, 7], 30)])
        for ws in (None, WavelengthSet((1, 2, 4, 5))):
            got = interpolate_radiance(ds, targets, fps, ws)
            expected = np.array([interpolate_radiance_point(ds, float(x), int(p), ws)
                                 for x, p in zip(targets, fps)])
            assert got.shape == expected.shape
            assert (got == expected).all()

    def test_no_targets(self, rng):
        ds = self.holed_orbit(rng)
        got = interpolate_radiance(ds, [], [])
        assert got.shape == (0, 5)
        ws = WavelengthSet((2, 4))
        assert interpolate_radiance(ds, np.empty(0), np.empty(0, dtype=int), ws).shape \
            == (0, 2)

    def test_empty_column_raises_for_its_footprint_only(self):
        rad = np.array([[1.0, np.nan], [2.0, np.nan], [3.0, 4.0], [5.0, 6.0]])
        ds = make_dataset([34.0, 34.2, 34.0, 34.2], [3, 3, 4, 4], rad)
        expected = interpolate_radiance_point(ds, 34.1, 4)
        assert (interpolate_radiance(ds, [34.1], [4])[0] == expected).all()
        with pytest.raises(DataError, match="footprint 3: wavelength w_2"):
            interpolate_radiance(ds, [34.1, 34.1], [4, 3])
        with pytest.raises(DataError, match="footprint 3: wavelength w_2"):
            interpolate_radiance_point(ds, 34.1, 3)

    def test_rejects_mismatched_or_non_finite_targets(self):
        ds = make_dataset([34.0, 34.2], [4, 4], np.ones((2, 2)))
        for lats, fps in (([34.1, 34.2], [4]), ([np.nan], [4]), ([[34.1]], [[4]])):
            with pytest.raises(DataError, match="one finite target latitude"):
                interpolate_radiance(ds, lats, fps)


class TestPersistence:
    def test_round_trip_preserves_predictions(self, water_region, tmp_path):
        region, _ = water_region
        model = fit_geofpca(region, FitConfig(n_perm=99))
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        before = impute_radiance(model, [35.0], [23.79], [4])
        after = impute_radiance(restored, [35.0], [23.79], [4])
        np.testing.assert_allclose(after, before, atol=1e-12)
        assert restored.basis.K == model.basis.K
        assert restored.config == model.config

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(6, 10), st.sampled_from(WEIGHT_SCHEMES))
    def test_save_load_save_is_byte_identical(self, seed, n_tracks, scheme):
        ds, _ = simulate_orbit(OrbitConfig(n_tracks=n_tracks, seed=seed, grid_length=12,
                                           track_spacing=0.01))
        model = fit_geofpca(ds, FitConfig(n_perm=99, weight_scheme=scheme))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.json"), Path(tmp, "b.json")
            save_model(model, first)
            save_model(load_model(first), second)
            assert first.read_bytes() == second.read_bytes()

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "no.json"
        path.write_text('{"something": 1}')
        with pytest.raises(DataError, match="not a model file"):
            load_model(path)
