import numpy as np
import pytest

from conftest import make_dataset
from geofpca import geostat
from geofpca.dataset import GeoLocation, haversine_km, pairwise_distances
from geofpca.errors import DataError, NumericalError
from geofpca.fpca import ScoreField
from geofpca.geostat import (GRID_POINTS, PERM_ELEMENTS, EmpiricalVariogram,
                             KrigingSystem, VariogramBins, _forward_solve,
                             _permuted_moran, _wls_weights,
                             empirical_semivariogram, exponential_variogram,
                             fit_variogram_wls, krige_score, spatial_dependence_test)
from oracles import (allpairs_variogram, bordered_kriging, cholesky_kriging,
                     moran_chunked_stats, moran_permutation_loop, scipy_variogram_fit,
                     triangular_solve)


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
        ev = empirical_semivariogram(sf, 0)
        np.testing.assert_allclose(ev.values, 0.0, atol=1e-12)

    def test_pure_nugget_corrected_to_zero(self, rng):
        n, v = 2000, 3.0
        u = rng.normal(0.0, np.sqrt(v), n)
        lats = transect_latitudes(n, 0.05)
        corrected = empirical_semivariogram(score_field(lats, u, [v]), 0)
        assert np.abs(corrected.values).max() < 0.1 * v
        # Without the correction the short-lag bins sit at the nugget level.
        uncorrected = empirical_semivariogram(score_field(lats, u, [0.0]), 0)
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
        ev = empirical_semivariogram(sf, 0, bins)
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
        ev = empirical_semivariogram(sf, 0, VariogramBins(min_pairs=4))
        assert (ev.counts >= 4).all()

    def test_no_bins_retained_raises(self, rng):
        sf = score_field(transect_latitudes(4), rng.normal(size=4), [0.0])
        with pytest.raises(DataError, match="no variogram bin"):
            empirical_semivariogram(sf, 0, VariogramBins(min_pairs=50))


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
            ev = empirical_semivariogram(sf, 0)
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
        assert fit_tuple(fit) == fit_tuple(scipy_variogram_fit(ev))

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


VARIOGRAM_SHAPES = ("exact", "noisy", "flat", "noise-only", "convex", "two-bin")


def variogram_corpus(seed, n):
    """(shape, variogram, weight scheme) for n seeded variograms, shapes in turn."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        shape = VARIOGRAM_SHAPES[i % len(VARIOGRAM_SHAPES)]
        n_bins = 2 if shape == "two-bin" else int(rng.integers(3, 16))
        h = np.sort(rng.uniform(0.5, 60.0, n_bins))
        counts = rng.integers(10, 400, n_bins)
        sill, range_km = rng.uniform(0.1, 5.0), rng.uniform(h[0], h[-1])
        curve = exponential_variogram(h, sill, range_km)
        if shape == "exact":
            values = curve
        elif shape in ("noisy", "two-bin"):
            values = curve + rng.normal(0.0, 0.1 * sill, n_bins)
        elif shape == "flat":
            values = np.full(n_bins, sill)
        elif shape == "noise-only":
            values = rng.normal(0.0, 1.0, n_bins)
        else:  # convex: the range runs to its upper bound
            values = sill * (h / h[-1]) ** rng.uniform(1.2, 3.0)
        scheme = ("nh2", "n")[(i // len(VARIOGRAM_SHAPES)) % 2]
        yield shape, EmpiricalVariogram(h, counts, values), scheme


def grid_objectives(ev, scheme):
    """The WLS objective at every start-grid point, in grid order (sills outer)."""
    w = _wls_weights(ev, scheme)
    vmax = ev.values.max()
    sills = np.geomspace(vmax / 100.0, 10.0 * vmax, GRID_POINTS)
    ranges = np.geomspace(ev.distances[0] / 10.0, ev.distances[-1] * 10.0, GRID_POINTS)
    resid = [ev.values - exponential_variogram(ev.distances, s, r)
             for s in sills for r in ranges]
    return np.array([float(x @ (w * x)) for x in resid])


def fit_tuple(fit):
    return fit.sill, fit.range_km, fit.objective, fit.degenerate


class TestFitMatchesScipy:
    """The numpy Nelder-Mead takes scipy's steps: every fit equals the oracle's."""

    def test_seeded_corpus(self):
        seen, bounded = set(), 0
        for shape, ev, scheme in variogram_corpus(2024, 1000):
            fit = fit_variogram_wls(ev, scheme)
            assert fit_tuple(fit) == fit_tuple(scipy_variogram_fit(ev, scheme)), shape
            seen.add((shape, scheme))
            bounded += fit.range_km == ev.distances[-1] * 10.0
        assert len(seen) == 2 * len(VARIOGRAM_SHAPES)
        assert bounded > 0

    def test_start_at_both_upper_bounds(self):
        # A straight line: the best grid point is (sill_hi, r_hi), so both
        # other start vertices lie outside the bounds and score infinity.
        h = np.linspace(2.0, 30.0, 8)
        ev = EmpiricalVariogram(h, np.full(8, 40), 0.05 * h)
        best = int(np.argmin(grid_objectives(ev, "n")))
        assert best == GRID_POINTS * GRID_POINTS - 1
        fit = fit_variogram_wls(ev, "n")
        assert fit_tuple(fit) == fit_tuple(scipy_variogram_fit(ev, "n"))
        assert fit.range_km == h[-1] * 10.0

    def test_stops_at_the_iteration_limit(self, monkeypatch):
        ev = EmpiricalVariogram(np.array([24.67, 39.78, 41.54]), np.array([303, 391, 278]),
                                np.array([18.046, 39.786, 46.428]))
        fit = fit_variogram_wls(ev, "n")
        assert fit_tuple(fit) == fit_tuple(scipy_variogram_fit(ev, "n"))
        monkeypatch.setattr(geostat, "MAXITER", geostat.MAXITER + 1)
        assert fit_tuple(fit_variogram_wls(ev, "n")) != fit_tuple(fit)  # the limit binds

    def test_near_tie_in_the_grid(self):
        # The last distance puts sill 1 midway between grid sills 9 and 10 at
        # grid range 11, so the exact curve ties those two grid points to
        # rounding; the later one wins.
        h = np.geomspace(1.0, 25622.306390303125, 3)
        range_km = np.geomspace(h[0] / 10.0, h[-1] * 10.0, GRID_POINTS)[11]
        ev = EmpiricalVariogram(h, np.full(3, 50), exponential_variogram(h, 1.0, range_km))
        f = grid_objectives(ev, "nh2")
        first, second = np.argsort(f, kind="stable")[:2]
        assert abs(f[second] - f[first]) <= 1e-9 * f[first] and first > second
        assert fit_tuple(fit_variogram_wls(ev, "nh2")) == fit_tuple(
            scipy_variogram_fit(ev, "nh2"))

    def test_grid_pick_rescored_exactly(self):
        # The near tie above with the first bin value one ulp lower and the
        # second eight: the exact objective (a dot product, which OpenBLAS
        # sums with fused multiply-adds) puts the later grid point one ulp
        # below the earlier, while the broadcast sum of rounded products
        # scores the two equal. A pick by the broadcast argmin alone would
        # start Nelder-Mead from the earlier point and end elsewhere.
        h = np.geomspace(1.0, 25622.306390303125, 3)
        range_km = np.geomspace(h[0] / 10.0, h[-1] * 10.0, GRID_POINTS)[11]
        v = exponential_variogram(h, 1.0, range_km)
        v[:2] -= np.array([1, 8]) * np.spacing(v[:2])
        ev = EmpiricalVariogram(h, np.full(3, 50), v)
        assert fit_tuple(fit_variogram_wls(ev, "nh2")) == fit_tuple(
            scipy_variogram_fit(ev, "nh2"))


class TestSpatialDependenceTest:
    def test_iid_size_close_to_alpha(self, rng):
        n, reps, alpha = 40, 200, 0.05
        lats = transect_latitudes(n)
        rejections = 0
        for rep in range(reps):
            sf = score_field(lats, rng.standard_normal(n), [0.0])
            res = spatial_dependence_test(sf, 0, n_perm=99, alpha=alpha,
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
            res = spatial_dependence_test(sf, 0, n_perm=199, seed=rep)
            detected += res.dependent
        assert detected >= 0.95 * 40

    def test_constant_scores_degenerate(self):
        sf = score_field(transect_latitudes(25), np.full(25, 1.0), [0.0])
        with pytest.raises(DataError, match="degenerate"):
            spatial_dependence_test(sf, 0)

    def test_needs_twenty_soundings(self, rng):
        sf = score_field(transect_latitudes(10), rng.standard_normal(10), [0.0])
        with pytest.raises(DataError, match=">= 20"):
            spatial_dependence_test(sf, 0)

    def test_deterministic_given_seed(self, rng):
        sf = score_field(transect_latitudes(30), rng.standard_normal(30), [0.0])
        r1 = spatial_dependence_test(sf, 0, seed=11)
        r2 = spatial_dependence_test(sf, 0, seed=11)
        assert r1.p_value == r2.p_value and r1.statistic == r2.statistic


class TestMoranMatchesLoopOracle:
    """The chunked permutation statistics against one permutation per pass."""

    @pytest.mark.parametrize("n", [20, 40, 264, 1200])
    def test_p_value_and_statistic(self, n):
        rng = np.random.default_rng(n)
        lats = 35.0 + rng.uniform(0.0, 0.6, n)
        lons = 23.8 + rng.uniform(-0.05, 0.05, n)
        dist = pairwise_distances(lats, lons)
        # 99 and 300 are not multiples of the permutation chunk.
        n_perms = (99, 300) if n == 1200 else (99, 300, 999)
        for strength in (0.0, 0.3, 1.0):
            u = strength * np.sin(25.0 * lats) + rng.standard_normal(n)
            sf = score_field(lats, u, [0.0], lons=lons)
            for seed, n_perm in enumerate(n_perms):
                res = spatial_dependence_test(sf, 0, n_perm=n_perm, seed=seed)
                stat, p = moran_permutation_loop(u, dist, n_perm, seed)
                assert res.p_value == p
                assert res.statistic == pytest.approx(stat, rel=1e-12, abs=1e-12)

    def test_components_share_one_neighbour_table(self):
        n = 264
        rng = np.random.default_rng(5)
        lats = 35.0 + rng.uniform(0.0, 0.6, n)
        lons = 23.8 + rng.uniform(-0.05, 0.05, n)
        u = np.column_stack([np.sin(25.0 * lats) + rng.standard_normal(n),
                             rng.standard_normal(n),
                             0.3 * np.cos(20.0 * lats) + rng.standard_normal(n)])
        sf = score_field(lats, u, [0.0, 0.0, 0.0], lons=lons)
        dist = pairwise_distances(lats, lons)
        # A change of n_neighbors between components must rebuild the table.
        for k, m in ((0, 10), (1, 10), (2, 5), (0, 10)):
            res = spatial_dependence_test(sf, k, n_perm=199, seed=k, n_neighbors=m)
            stat, p = moran_permutation_loop(u[:, k], dist, 199, k, n_neighbors=m)
            assert res.p_value == p
            assert res.statistic == pytest.approx(stat, rel=1e-12, abs=1e-12)
        table = sf.nearest(10)
        assert sf.nearest(10) is table
        assert not any(a.flags.writeable for a in table)

    def test_fewer_points_than_neighbors(self, rng):
        n = 20
        lats = transect_latitudes(n)
        u = rng.standard_normal(n)
        res = spatial_dependence_test(score_field(lats, u, [0.0]), 0,
                                      n_perm=129, seed=3, n_neighbors=40)
        stat, p = moran_permutation_loop(u, pairwise_distances(lats, np.full(n, 23.8)),
                                         129, 3, n_neighbors=40)
        assert res.p_value == p
        assert res.statistic == pytest.approx(stat, rel=1e-12, abs=1e-12)


class TestMoranMatchesChunkedOracle:
    """The batched permutation kernel against the 128-row chunked loop, bit for bit."""

    @pytest.mark.parametrize("n", [20, 21, 264, 1200])
    def test_statistics_equal(self, n):
        rng = np.random.default_rng(100 + n)
        lats = 35.0 + rng.uniform(0.0, 0.6, n)
        lons = 23.8 + rng.uniform(-0.05, 0.05, n)
        u = 0.5 * np.sin(25.0 * lats) + rng.standard_normal(n)
        sf = score_field(lats, u, [0.0], lons=lons)
        z = u - u.mean()
        chunk = max(1, PERM_ELEMENTS // n)
        # Around one and two batched chunks, and around the oracle's 128.
        n_perms = sorted({chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 127, 128, 129} - {0})
        for m in sorted({10, n - 1} if n < 30 else {10}):
            nb, d_nb = sf.nearest(m)
            wts = 1.0 / np.maximum(d_nb, 1e-9)
            for seed, n_perm in enumerate(n_perms):
                new = _permuted_moran(z, nb, wts, n_perm, seed)
                old = moran_chunked_stats(z, nb, wts, n_perm, seed)
                assert new.shape == (n_perm,)
                assert np.array_equal(new, old), (m, n_perm)

    @pytest.mark.parametrize("n", [1, 2, 20, 1200])
    def test_permuted_rows_are_successive_permutations(self, n):
        """A numpy that changed this stream would move every Moran p-value."""
        for b in sorted({1, 7, 128, max(1, PERM_ELEMENTS // n)}):
            batched, serial = np.random.default_rng(n + b), np.random.default_rng(n + b)
            rows = batched.permuted(np.tile(np.arange(n), (b, 1)), axis=1)
            for row in rows:
                assert np.array_equal(row, serial.permutation(n))
            assert batched.bit_generator.state == serial.bit_generator.state


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

    def test_not_spd_raises(self, rng):
        sf = score_field(transect_latitudes(10), rng.normal(size=10), [-5.0])
        with pytest.raises(NumericalError, match="not SPD"):
            KrigingSystem(sf, 0, simple_fit(1.0, 10.0))

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 1200])
    def test_forward_solve_matches_triangular_oracle(self, rng, n):
        lats = 35.0 + rng.uniform(0, 0.6, n)
        lons = 23.8 + rng.uniform(-0.05, 0.05, n)
        cov = 2.0 * np.exp(-pairwise_distances(lats, lons) / 10.0) + 0.3 * np.eye(n)
        chol = np.linalg.cholesky(cov)
        for rhs in (rng.standard_normal(n), *(rng.standard_normal((n, t)) for t in (0, 1, 16))):
            x = _forward_solve(chol, rhs)
            assert x.shape == rhs.shape
            np.testing.assert_allclose(x, triangular_solve(chol, rhs), rtol=0, atol=1e-12)

    def test_zero_targets(self, rng):
        sf = score_field(transect_latitudes(10), rng.normal(size=10), [0.2])
        pred, var = KrigingSystem(sf, 0, simple_fit(1.0, 10.0)).predict([], [])
        assert pred.shape == (0,) and var.shape == (0,)

    def test_shared_distances_left_intact(self, rng):
        sf = score_field(transect_latitudes(30), rng.standard_normal(30), [0.0])
        spatial_dependence_test(sf, 0, n_perm=99)
        d = sf.distances()
        assert not d.flags.writeable
        np.testing.assert_array_equal(np.diag(d), 0.0)
        np.testing.assert_array_equal(d, pairwise_distances(sf.latitudes, sf.longitudes))
