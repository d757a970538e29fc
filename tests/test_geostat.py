import numpy as np
import pytest

from conftest import make_dataset
from geofpca.dataset import GeoLocation, haversine_km, pairwise_distances
from geofpca.errors import DataError
from geofpca.fpca import ScoreField
from geofpca.geostat import (KrigingSystem, VariogramBins, empirical_semivariogram,
                             exponential_variogram, fit_variogram_wls,
                             krige_score, spatial_dependence_test)
from oracles import allpairs_variogram, bordered_kriging, cholesky_kriging


def score_field(lats, values, tau, lons=None, footprints=None, ids=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    n = values.shape[0]
    lats = np.asarray(lats, dtype=float)
    lons = np.full(n, 23.8) if lons is None else np.asarray(lons, dtype=float)
    footprints = np.full(n, 4) if footprints is None else np.asarray(footprints)
    ids = np.arange(1, n + 1) if ids is None else np.asarray(ids)
    if isinstance(tau, dict):
        taus = {int(p): np.atleast_1d(np.asarray(v, dtype=float))
                for p, v in tau.items()}
    else:
        taus = {int(p): np.atleast_1d(np.asarray(tau, dtype=float))
                for p in np.unique(footprints)}
    return ScoreField(ids, values, lats, lons, footprints, taus)


def transect_latitudes(n, spacing_km=1.0, lat0=35.0):
    return lat0 + np.arange(n) * spacing_km / 111.19


class TestEmpiricalSemivariogram:
    def test_constant_scores_zero(self):
        sf = score_field(transect_latitudes(30), np.full(30, 2.2), [0.0])
        ev = empirical_semivariogram(sf, 0, None)
        np.testing.assert_allclose(ev.values, 0.0, atol=1e-12)

    def test_pure_nugget_corrected_to_zero(self, rng):
        n, v = 2000, 3.0
        u = rng.normal(0.0, np.sqrt(v), n)
        lats = transect_latitudes(n, 0.05)
        corrected = empirical_semivariogram(score_field(lats, u, [v]), 0, None)
        assert np.abs(corrected.values).max() < 0.1 * v
        # Without the correction the short-lag bins sit at the nugget level.
        uncorrected = empirical_semivariogram(score_field(lats, u, [0.0]), 0, None)
        assert uncorrected.values[0] == pytest.approx(v, rel=0.1)

    def test_matches_allpairs_oracle(self, rng):
        n = 50
        lats = 35.0 + rng.uniform(0, 0.3, n)
        lons = 23.0 + rng.uniform(0, 0.05, n)
        u = rng.normal(0, 2.0, n)
        fps = rng.integers(1, 9, n)
        taus = {p: np.array([0.1 * p]) for p in range(1, 9)}
        sf = score_field(lats, u, taus, lons=lons, footprints=fps)
        bins = VariogramBins(n_bins=8, min_pairs=5)
        ev = empirical_semivariogram(sf, 0, None, bins)
        d = pairwise_distances(lats, lons)
        hmax = d[np.triu_indices(n, 1)].max() * bins.max_fraction
        edges = np.linspace(0.0, hmax, bins.n_bins + 1)
        tau_i = np.array([0.1 * p for p in fps])
        expected = allpairs_variogram(
            lats, lons, u, tau_i, edges, bins.min_pairs,
            lambda a, b, c, d_: float(haversine_km(a, b, c, d_)))
        assert len(expected) == len(ev.values)
        for (h, count, val), i in zip(expected, range(len(expected))):
            assert ev.distances[i] == pytest.approx(h, abs=1e-12)
            assert ev.counts[i] == count
            assert ev.values[i] == pytest.approx(val, abs=1e-12)

    def test_sparse_bins_dropped(self, rng):
        sf = score_field(transect_latitudes(12), rng.normal(size=12), [0.0])
        ev = empirical_semivariogram(sf, 0, None, VariogramBins(min_pairs=4))
        assert (ev.counts >= 4).all()

    def test_no_bins_retained_raises(self, rng):
        sf = score_field(transect_latitudes(4), rng.normal(size=4), [0.0])
        with pytest.raises(DataError, match="no variogram bin"):
            empirical_semivariogram(sf, 0, None, VariogramBins(min_pairs=50))


class TestFitVariogram:
    def test_exact_curve_recovered(self):
        h = np.linspace(2.0, 40.0, 10)
        ev_values = exponential_variogram(h, 5.0, 10.0)
        from geofpca.geostat import EmpiricalVariogram
        ev = EmpiricalVariogram(h, np.full(10, 50), ev_values)
        fit = fit_variogram_wls(ev)
        assert fit.sill == pytest.approx(5.0, rel=1e-4)
        assert fit.range_km == pytest.approx(10.0, rel=1e-4)
        assert not fit.degenerate

    def test_water_field_parameters_recovered(self, rng):
        # The replicated median check over the generative water field; the
        # count-weighted scheme keeps the binning bias small.
        n, tau = 1000, 1.0
        lats = transect_latitudes(n, 0.1)
        lons = np.full(n, 23.8)
        d = pairwise_distances(lats, lons)
        chol = np.linalg.cholesky(5.0 * np.exp(-d / 10.0) + 1e-10 * np.eye(n))
        sills, ranges = [], []
        for _ in range(50):
            u = chol @ rng.standard_normal(n) + rng.normal(0, np.sqrt(tau), n)
            sf = score_field(lats, u, [tau], lons=lons)
            ev = empirical_semivariogram(sf, 0, None)
            fit = fit_variogram_wls(ev, "n")
            sills.append(fit.sill)
            ranges.append(fit.range_km)
        assert np.median(sills) == pytest.approx(5.0, rel=0.15)
        assert np.median(ranges) == pytest.approx(10.0, rel=0.15)

    def test_all_nonpositive_bins_degenerate(self):
        from geofpca.geostat import EmpiricalVariogram
        ev = EmpiricalVariogram(np.array([2.0, 5.0, 9.0]), np.array([20, 20, 20]),
                                np.array([-0.2, -0.1, -0.3]))
        fit = fit_variogram_wls(ev)
        assert fit.sill == 0.0
        assert fit.degenerate

    def test_needs_two_bins(self):
        from geofpca.geostat import EmpiricalVariogram
        ev = EmpiricalVariogram(np.array([2.0]), np.array([30]), np.array([1.0]))
        with pytest.raises(DataError, match="2 variogram bins"):
            fit_variogram_wls(ev)

    def test_weight_schemes_differ(self, rng):
        from geofpca.geostat import EmpiricalVariogram
        h = np.linspace(2.0, 40.0, 10)
        vals = exponential_variogram(h, 5.0, 10.0) + rng.normal(0, 0.4, 10)
        ev = EmpiricalVariogram(h, np.array([200, 150, 120, 100, 80, 60, 50, 40, 30, 20]),
                                vals)
        f1 = fit_variogram_wls(ev, "nh2")
        f2 = fit_variogram_wls(ev, "n")
        assert f1.weight_scheme == "nh2" and f2.weight_scheme == "n"
        assert f1.sill != f2.sill  # different objectives, different optima


class TestSpatialDependenceTest:
    def test_iid_size_close_to_alpha(self, rng):
        n, reps, alpha = 40, 200, 0.05
        lats = transect_latitudes(n)
        rejections = 0
        for rep in range(reps):
            sf = score_field(lats, rng.standard_normal(n), [0.0])
            res = spatial_dependence_test(sf, 0, None, n_perm=99, alpha=alpha,
                                          seed=rep)
            rejections += res.dependent
        rate = rejections / reps
        se = np.sqrt(alpha * (1 - alpha) / reps)
        assert abs(rate - alpha) <= 3 * se + 1e-9

    def test_correlated_field_detected(self, rng):
        n = 40
        lats = transect_latitudes(n, 1.0)
        lons = np.full(n, 23.8)
        d = pairwise_distances(lats, lons)
        chol = np.linalg.cholesky(np.exp(-d / 500.0) + 1e-10 * np.eye(n))
        detected = 0
        for rep in range(40):
            u = chol @ rng.standard_normal(n)
            sf = score_field(lats, u, [0.0])
            res = spatial_dependence_test(sf, 0, None, n_perm=199, seed=rep)
            detected += res.dependent
        assert detected >= 0.95 * 40

    def test_constant_scores_degenerate(self):
        sf = score_field(transect_latitudes(25), np.full(25, 1.0), [0.0])
        with pytest.raises(DataError, match="degenerate"):
            spatial_dependence_test(sf, 0, None)

    def test_needs_twenty_soundings(self, rng):
        sf = score_field(transect_latitudes(10), rng.standard_normal(10), [0.0])
        with pytest.raises(DataError, match=">= 20"):
            spatial_dependence_test(sf, 0, None)

    def test_deterministic_given_seed(self, rng):
        sf = score_field(transect_latitudes(30), rng.standard_normal(30), [0.0])
        r1 = spatial_dependence_test(sf, 0, None, seed=11)
        r2 = spatial_dependence_test(sf, 0, None, seed=11)
        assert r1.p_value == r2.p_value and r1.statistic == r2.statistic


def simple_fit(sill, range_km):
    from geofpca.geostat import EmpiricalVariogram, VariogramFit
    ev = EmpiricalVariogram(np.array([1.0, 2.0]), np.array([10, 10]),
                            np.array([0.5, 0.8]))
    return VariogramFit(sill, range_km, "nh2", 0.0, False, ev)


class TestKrigeScore:
    def test_single_observation_returns_it(self):
        sf = score_field([35.0], np.array([3.25]), [0.0])
        pred, var = krige_score(GeoLocation(35.5, 23.8), sf, 0, simple_fit(2.0, 10.0))
        assert pred == 3.25

    def test_exact_interpolation_at_observed_location(self, rng):
        lats = transect_latitudes(6, 8.0)
        u = np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.2])
        sf = score_field(lats, u, [0.0])
        target = GeoLocation(float(lats[2]), 23.8)
        pred, var = krige_score(target, sf, 0, simple_fit(1.0, 10.0))
        assert pred == pytest.approx(u[2], abs=1e-8)
        assert var == pytest.approx(0.0, abs=1e-6)

    def test_matches_bordered_system_oracle(self, rng):
        n = 30
        lats = 35.0 + rng.uniform(0, 0.3, n)
        lons = 23.0 + rng.uniform(0, 0.05, n)
        u = rng.normal(1.0, 1.5, n)
        fps = rng.integers(1, 9, n)
        taus = {p: np.array([0.05 + 0.01 * p]) for p in range(1, 9)}
        sf = score_field(lats, u, taus, lons=lons, footprints=fps)
        fit = simple_fit(2.3, 12.0)
        target = GeoLocation(35.15, 23.02)
        pred, var = krige_score(target, sf, 0, fit)
        cov = 2.3 * np.exp(-pairwise_distances(lats, lons) / 12.0)
        tau_i = np.array([0.05 + 0.01 * p for p in fps])
        np.fill_diagonal(cov, 2.3 + tau_i + 1e-8 * 2.3)
        nu = 2.3 * np.exp(-haversine_km(target.latitude, target.longitude,
                                        lats, lons) / 12.0)
        pred_ref, var_ref = bordered_kriging(cov, nu, u, 2.3)
        assert pred == pytest.approx(pred_ref, abs=1e-8)
        assert var == pytest.approx(var_ref, abs=1e-8)

    def test_constant_field_returns_constant(self, rng):
        n, c = 25, 4.2
        lats = transect_latitudes(n, 3.0)
        fps = rng.integers(1, 9, n)
        taus = {p: np.array([0.3 * p]) for p in range(1, 9)}  # any nugget
        sf = score_field(lats, np.full(n, c), taus, footprints=fps)
        pred, _ = krige_score(GeoLocation(35.4, 23.8), sf, 0, simple_fit(1.7, 9.0))
        assert pred == pytest.approx(c, abs=1e-10)

    def test_translation_equivariance(self, rng):
        n, shift = 20, 5.5
        lats = transect_latitudes(n, 2.0)
        u = rng.normal(0, 1.2, n)
        sf1 = score_field(lats, u, [0.2])
        sf2 = score_field(lats, u + shift, [0.2])
        target = GeoLocation(35.07, 23.8)
        p1, _ = krige_score(target, sf1, 0, simple_fit(1.5, 11.0))
        p2, _ = krige_score(target, sf2, 0, simple_fit(1.5, 11.0))
        assert p2 - p1 == pytest.approx(shift, abs=1e-10)

    def test_variance_nonnegative_everywhere(self, rng):
        n = 15
        lats = transect_latitudes(n, 4.0)
        u = rng.normal(0, 1.0, n)
        sf = score_field(lats, u, [0.4])
        for lat in np.linspace(34.9, 35.7, 9):
            _, var = krige_score(GeoLocation(float(lat), 23.8), sf, 0,
                                 simple_fit(2.0, 8.0))
            assert var >= 0.0

    def test_reduced_predictor(self, rng):
        u = rng.normal(0, 1.0, 12)
        sf = score_field(transect_latitudes(12), u, [0.1])
        pred, var = krige_score(GeoLocation(35.0, 23.8), sf, 0, None,
                                dependent=False, marginal_variance=3.3)
        assert pred == pytest.approx(float(u.mean()), abs=1e-12)
        assert var == 3.3

    def test_reduced_needs_marginal_variance(self, rng):
        sf = score_field(transect_latitudes(5), rng.normal(size=5), [0.1])
        with pytest.raises(DataError, match="marginal variance"):
            krige_score(GeoLocation(35.0, 23.8), sf, 0, None, dependent=False)


class TestKrigingSystem:
    def test_batch_matches_cholesky_oracle(self, rng):
        n, sill, range_km = 40, 2.3, 12.0
        lats = 35.0 + rng.uniform(0, 0.3, n)
        lons = 23.0 + rng.uniform(0, 0.05, n)
        u = rng.normal(1.0, 1.5, n)
        fps = rng.integers(1, 9, n)
        taus = {p: np.array([0.05 + 0.01 * p]) for p in range(1, 9)}
        sf = score_field(lats, u, taus, lons=lons, footprints=fps)
        t_lat = 35.0 + rng.uniform(-0.05, 0.35, 24)
        t_lon = 23.0 + rng.uniform(-0.02, 0.07, 24)
        t_lat[:3], t_lon[:3] = lats[:3], lons[:3]  # training locations too
        pred, var = KrigingSystem(sf, 0, simple_fit(sill, range_km)).predict(t_lat, t_lon)
        cov = sill * np.exp(-pairwise_distances(lats, lons) / range_km)
        np.fill_diagonal(cov, sill + 0.05 + 0.01 * fps + 1e-8 * sill)
        for j in range(t_lat.size):
            nu = sill * np.exp(-haversine_km(t_lat[j], t_lon[j], lats, lons) / range_km)
            pred_ref, var_ref = cholesky_kriging(cov, nu, u, sill)
            assert abs(pred[j] - pred_ref) <= 1e-12
            assert abs(var[j] - var_ref) <= 1e-12

    def test_constant_predictors(self, rng):
        u = rng.normal(0, 1.0, 12)
        sf = score_field(transect_latitudes(12), u, [0.1])
        pred, var = KrigingSystem(sf, 0, None, dependent=False,
                                  marginal_variance=3.3).predict([35.0, 35.1], [23.8, 23.8])
        np.testing.assert_array_equal(pred, np.full(2, u.mean()))
        np.testing.assert_array_equal(var, [3.3, 3.3])
        one = score_field([35.0], [3.25], [0.5])
        pred, var = KrigingSystem(one, 0, simple_fit(2.0, 10.0)).predict([35.5], [23.8])
        assert pred[0] == 3.25 and var[0] == 2.5

    def test_zero_targets(self, rng):
        sf = score_field(transect_latitudes(10), rng.normal(size=10), [0.2])
        pred, var = KrigingSystem(sf, 0, simple_fit(1.0, 10.0)).predict([], [])
        assert pred.shape == (0,) and var.shape == (0,)

    def test_shared_distances_left_intact(self, rng):
        sf = score_field(transect_latitudes(30), rng.standard_normal(30), [0.0])
        spatial_dependence_test(sf, 0, None, n_perm=99)
        d = sf.distances()
        assert not d.flags.writeable
        np.testing.assert_array_equal(np.diag(d), 0.0)
        np.testing.assert_array_equal(d, pairwise_distances(sf.latitudes, sf.longitudes))
