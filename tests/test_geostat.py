import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_dataset
from geofpca import geostat
from geofpca.dataset import haversine_km, pairwise_distances
from geofpca.errors import DataError, NumericalError
from geofpca.fpca import FpcaBasis, ScoreField
from geofpca.geostat import (GRID_POINTS, MORAN_NEIGHBOURS, PERM_ELEMENTS,
                             EmpiricalVariogram, VariogramBins, _back_solve,
                             _cholesky_columns, _forward_solve, _moran_exceedances,
                             _wls_weights,
                             empirical_semivariogram, exponential_variogram,
                             fit_variogram_wls, krige_score, kriged_scores,
                             kriging_weights, spatial_dependence_test)
from geofpca.imputation import FitConfig, GeoFpcaModel, predict_scores
from oracles import (allpairs_variogram, bordered_kriging, cholesky_kriging,
                     moran_chunked_stats, moran_permutation_loop, scipy_variogram_fit,
                     transposed_triangular_solve, triangular_solve, triu_binned_pairs)


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


def kriging_model(sf, fits):
    """A model of len(fits) components for predict_scores, which reads only K,
    the fits and the score field."""
    k = len(fits)
    basis = FpcaBasis(np.ones(k), np.eye(k), k, np.linspace(1 / k, 1, k), None)
    return GeoFpcaModel(None, None, None, basis, sf, fits, [None] * k, FitConfig())


def transect_latitudes(n, spacing_km=1.0, lat0=35.0):
    return lat0 + np.arange(n) * spacing_km / 111.19


class TestEmpiricalSemivariogram:
    def test_constant_scores_zero(self):
        sf = score_field(transect_latitudes(30), np.full(30, 2.2), [0.0])
        ev, = empirical_semivariogram(sf)
        np.testing.assert_allclose(ev.values, 0.0, atol=1e-12)

    def test_pure_nugget_corrected_to_zero(self, rng):
        n, v = 2000, 3.0
        u = rng.normal(0.0, np.sqrt(v), n)
        lats = transect_latitudes(n, 0.05)
        corrected, = empirical_semivariogram(score_field(lats, u, [v]))
        assert np.abs(corrected.values).max() < 0.1 * v
        # Without the correction the short-lag bins sit at the nugget level.
        uncorrected, = empirical_semivariogram(score_field(lats, u, [0.0]))
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
        ev, = empirical_semivariogram(sf, bins)
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

    @staticmethod
    def random_field(n, n_components=1):
        rng = np.random.default_rng(n)
        lats = 35.0 + rng.uniform(0, 0.6, n)
        lons = 23.8 + rng.uniform(-0.05, 0.05, n)
        fps = rng.integers(1, 9, n)
        u = np.sin(20.0 * lats)[:, None] + rng.normal(0, 1.0, (n, n_components))
        taus = {p: 0.1 * p * np.arange(1, n_components + 1) for p in range(1, 9)}
        return score_field(lats, u, taus, lons=lons, footprints=fps)

    @pytest.mark.parametrize("n", [20, 264, 1200])
    def test_values_equal_all_pair_arrays(self, n):
        """The per-bin sums give the all-pairs means within 1e-12 relative."""
        sf = self.random_field(n)
        bins = VariogramBins()
        ev, = empirical_semivariogram(sf, bins)
        dist = pairwise_distances(sf.latitudes, sf.longitudes)
        i, j, starts, counts, _ = triu_binned_pairs(dist, bins.n_bins, bins.max_fraction)
        d = dist[i, j]
        u, tau = sf.component(0), 0.1 * sf.footprints
        keep = counts >= bins.min_pairs
        assert np.array_equal(ev.counts, counts[keep])
        for b, (a, c) in enumerate(zip(starts[keep], counts[keep])):
            pairs = slice(a, a + c)
            value = (math.fsum(0.5 * (u[i[pairs]] - u[j[pairs]]) ** 2) / c
                     - math.fsum(0.5 * (tau[i[pairs]] + tau[j[pairs]])) / c)
            assert ev.values[b] == pytest.approx(value, rel=1e-12)
            assert ev.distances[b] == pytest.approx(math.fsum(d[pairs]) / c, rel=1e-12)

    def test_components_binned_independently(self):
        """Each of K components' bins equal, to the bit, a one-component field's."""
        sf = self.random_field(264, n_components=3)
        together = empirical_semivariogram(sf)
        assert len(together) == 3
        for k, ev in enumerate(together):
            alone, = empirical_semivariogram(replace(
                sf, scores=sf.scores[:, k:k + 1].copy(),
                taus={p: tau[k:k + 1] for p, tau in sf.taus.items()}))
            for a, b in ((ev.distances, alone.distances), (ev.counts, alone.counts),
                         (ev.values, alone.values)):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("components", [[1], [2, 0], [0, 1, 2], []])
    def test_listed_components_only(self, components):
        """The listed columns' bins, in list order, equal the all-component call's bins."""
        sf = self.random_field(264, n_components=3)
        together = empirical_semivariogram(sf)
        listed = empirical_semivariogram(sf, components=components)
        assert len(listed) == len(components)
        for k, ev in zip(components, listed):
            for a, b in ((ev.distances, together[k].distances),
                         (ev.counts, together[k].counts), (ev.values, together[k].values)):
                assert np.array_equal(a, b)

    @staticmethod
    def assert_equals_allpairs(sf, bins):
        """Every bin ``==`` the double-loop oracle's, and the counts hold every
        pair i < j within h_max (none of the spare bin's entries)."""
        evs = empirical_semivariogram(sf, bins)
        h_max = sf.largest_distance() * bins.max_fraction
        edges = np.linspace(0.0, h_max, bins.n_bins + 1)
        lat, lon = sf.latitudes, sf.longitudes
        d = pairwise_distances(lat, lon)[np.triu_indices(lat.size, 1)]
        for k, ev in enumerate(evs):
            expected = allpairs_variogram(
                lat, lon, sf.component(k), sf.tau_for(sf.footprints, k), edges,
                bins.min_pairs, lambda a, b, c, d_: float(haversine_km(a, b, c, d_)))
            assert list(zip(ev.distances, ev.counts, ev.values)) == expected
            assert len(ev.counts) <= bins.n_bins
            assert ev.counts.sum() == np.count_nonzero(d <= h_max)
        return evs

    def test_farthest_pair_at_h_max_is_kept(self):
        sf = self.random_field(40, n_components=2)
        bins = VariogramBins(n_bins=6, max_fraction=1.0, min_pairs=1)
        evs = self.assert_equals_allpairs(sf, bins)
        assert evs[0].counts.sum() == 40 * 39 // 2

    def test_pairs_beyond_h_max_are_dropped(self):
        sf = self.random_field(40)
        bins = VariogramBins(min_pairs=1)
        ev, = self.assert_equals_allpairs(sf, bins)
        assert ev.counts.sum() < 40 * 39 // 2

    def test_coincident_soundings_land_in_bin_0(self):
        """Two soundings at one place (d = 0 off the diagonal) make bin 0's one pair."""
        lats = np.append(transect_latitudes(20), 35.0)
        sf = score_field(lats, np.sin(np.arange(21.0)), [0.1])
        assert (sf.latitudes[0], sf.longitudes[0]) == (sf.latitudes[-1], sf.longitudes[-1])
        ev, = self.assert_equals_allpairs(sf, VariogramBins(min_pairs=1))
        assert (ev.distances[0], ev.counts[0]) == (0.0, 1)

    def test_all_distances_zero_raises(self):
        sf = score_field([35.0, 35.0], [1.0, 2.0], [0.0])
        with pytest.raises(DataError, match="all pairwise distances are zero"):
            empirical_semivariogram(sf)

    def test_sparse_bins_dropped(self, rng):
        sf = score_field(transect_latitudes(12), rng.normal(size=12), [0.0])
        ev, = empirical_semivariogram(sf, VariogramBins(min_pairs=4))
        assert (ev.counts >= 4).all()

    def test_no_bins_retained_raises(self, rng):
        sf = score_field(transect_latitudes(4), rng.normal(size=4), [0.0])
        with pytest.raises(DataError, match="no variogram bin"):
            empirical_semivariogram(sf, VariogramBins(min_pairs=50))


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
            ev, = empirical_semivariogram(sf)
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

    def test_stops_at_a_fixed_point(self, monkeypatch):
        # A corpus fit whose simplex stops changing near iteration 50; run to
        # the iteration limit it makes about 7,800 objective calls.
        shape, ev, scheme = list(variogram_corpus(2024, 2))[1]
        want = fit_tuple(scipy_variogram_fit(ev, scheme))
        calls = []
        curve = geostat.exponential_variogram
        monkeypatch.setattr(geostat, "exponential_variogram",
                            lambda *a: calls.append(1) or curve(*a))
        assert fit_tuple(fit_variogram_wls(ev, scheme)) == want
        assert len(calls) < 500

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
            res, = spatial_dependence_test(sf, n_perm=99, alpha=alpha, seed=rep)
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
            res, = spatial_dependence_test(sf, n_perm=199, seed=rep)
            detected += res.dependent
        assert detected >= 0.95 * 40

    def test_constant_scores_degenerate(self):
        sf = score_field(transect_latitudes(25), np.full(25, 1.0), [0.0])
        res, = spatial_dependence_test(sf)
        assert math.isnan(res.statistic)
        assert (res.p_value, res.dependent, res.component) == (1.0, False, 0)

    def test_needs_twenty_soundings(self, rng):
        sf = score_field(transect_latitudes(10), rng.standard_normal(10), [0.0])
        with pytest.raises(DataError, match=">= 20"):
            spatial_dependence_test(sf)

    def test_deterministic_given_seed(self, rng):
        sf = score_field(transect_latitudes(30), rng.standard_normal(30), [0.0])
        r1, = spatial_dependence_test(sf, seed=11)
        r2, = spatial_dependence_test(sf, seed=11)
        assert r1.p_value == r2.p_value and r1.statistic == r2.statistic


def assert_matches_loop_oracle(res, u, dist, n_perm, seed):
    stat, p = moran_permutation_loop(u, dist, n_perm, seed, n_neighbors=MORAN_NEIGHBOURS)
    assert res.p_value == p
    assert res.statistic == pytest.approx(stat, rel=1e-12, abs=1e-12)
    assert res.dependent == (p < res.alpha)


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
                res, = spatial_dependence_test(sf, n_perm=n_perm, seed=seed)
                assert_matches_loop_oracle(res, u, dist, n_perm, seed)

    @staticmethod
    def three_components(n, last):
        rng = np.random.default_rng(5)
        lats = 35.0 + rng.uniform(0.0, 0.6, n)
        lons = 23.8 + rng.uniform(-0.05, 0.05, n)
        u = np.column_stack([np.sin(25.0 * lats) + rng.standard_normal(n),
                             rng.standard_normal(n), last(lats, rng)])
        return score_field(lats, u, [0.0, 0.0, 0.0], lons=lons), u, pairwise_distances(lats, lons)

    def test_components_share_one_neighbour_table(self):
        """K components tested in one pass, each as if tested alone under the seed."""
        sf, u, dist = self.three_components(
            264, lambda lats, rng: 0.3 * np.cos(20.0 * lats) + rng.standard_normal(lats.size))
        for seed, n_perm in ((0, 199), (7, 1000)):  # 1000: more than one chunk of 3 rows
            results = spatial_dependence_test(sf, n_perm=n_perm, seed=seed)
            assert [r.component for r in results] == [0, 1, 2]
            for k, res in enumerate(results):
                assert_matches_loop_oracle(res, u[:, k], dist, n_perm, seed)

    @pytest.mark.parametrize("n", [20, 264])
    def test_constant_last_component(self, n):
        sf, u, dist = self.three_components(n, lambda lats, rng: np.full(lats.size, -0.7))
        for seed, n_perm in ((3, 99), (4, 999)):
            *live, constant = spatial_dependence_test(sf, n_perm=n_perm, seed=seed)
            for k, res in enumerate(live):
                assert_matches_loop_oracle(res, u[:, k], dist, n_perm, seed)
            assert math.isnan(constant.statistic)
            assert (constant.component, constant.p_value, constant.dependent) == (2, 1.0, False)


class TestMoranMatchesChunkedOracle:
    """The batched permutation kernel against the 128-row chunked loop, exactly."""

    @pytest.mark.parametrize("n", [20, 21, 264, 1200])
    def test_statistics_equal(self, n):
        rng = np.random.default_rng(100 + n)
        lats = 35.0 + rng.uniform(0.0, 0.6, n)
        lons = 23.8 + rng.uniform(-0.05, 0.05, n)
        u = np.column_stack([0.5 * np.sin(25.0 * lats) + rng.standard_normal(n),
                             rng.standard_normal(n)])
        sf = score_field(lats, u, [0.0, 0.0], lons=lons)
        z = np.array([u_k - u_k.mean() for u_k in u.T])
        e_i = -1.0 / (n - 1)
        for rows in (1, 2):
            chunk = max(1, PERM_ELEMENTS // (rows * n))
            # Around one and two batched chunks, and around the oracle's 128.
            n_perms = sorted({chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 127, 128, 129} - {0})
            for m in sorted({10, n - 1} if n < 30 else {10}):
                nb, d_nb = sf.nearest(m)
                wts = 1.0 / np.maximum(d_nb, 1e-9)
                # Thresholds that split the permuted statistics.
                stats = e_i + np.array([0.02, -0.05])[:rows]
                for seed, n_perm in enumerate(n_perms):
                    new = _moran_exceedances(z[:rows], stats, nb, wts, n_perm, seed)
                    old = [np.count_nonzero(np.abs(moran_chunked_stats(
                        z_k, nb, wts, n_perm, seed) - e_i) >= abs(s - e_i))
                        for z_k, s in zip(z[:rows], stats)]
                    assert new.tolist() == old, (rows, m, n_perm)

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
        assert krige_score((35.5, 23.8), sf, 0, simple_fit(2.0, 10.0)) == 3.25

    def test_exact_interpolation_at_observed_location(self, rng):
        lats = transect_latitudes(6, 8.0)
        u = np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.2])
        sf = score_field(lats, u, [0.0])
        target = (lats[2], 23.8)
        pred = krige_score(target, sf, 0, simple_fit(1.0, 10.0))
        assert pred == pytest.approx(u[2], abs=1e-8)

    def test_matches_bordered_system_oracle(self, rng):
        n = 30
        lats = 35.0 + rng.uniform(0, 0.3, n)
        lons = 23.0 + rng.uniform(0, 0.05, n)
        u = rng.normal(1.0, 1.5, n)
        fps = rng.integers(1, 9, n)
        taus = {p: np.array([0.05 + 0.01 * p]) for p in range(1, 9)}
        sf = score_field(lats, u, taus, lons=lons, footprints=fps)
        fit = simple_fit(2.3, 12.0)
        target = (35.15, 23.02)
        pred = krige_score(target, sf, 0, fit)
        cov = 2.3 * np.exp(-pairwise_distances(lats, lons) / 12.0)
        tau_i = np.array([0.05 + 0.01 * p for p in fps])
        np.fill_diagonal(cov, 2.3 + tau_i + 1e-8 * 2.3)
        nu = 2.3 * np.exp(-haversine_km(*target, lats, lons) / 12.0)
        pred_ref, _ = bordered_kriging(cov, nu, u, 2.3)
        assert pred == pytest.approx(pred_ref, abs=1e-8)

    def test_constant_field_returns_constant(self, rng):
        n, c = 25, 4.2
        lats = transect_latitudes(n, 3.0)
        fps = rng.integers(1, 9, n)
        taus = {p: np.array([0.3 * p]) for p in range(1, 9)}  # any nugget
        sf = score_field(lats, np.full(n, c), taus, footprints=fps)
        pred = krige_score((35.4, 23.8), sf, 0, simple_fit(1.7, 9.0))
        assert pred == pytest.approx(c, abs=1e-10)

    def test_translation_equivariance(self, rng):
        n, shift = 20, 5.5
        lats = transect_latitudes(n, 2.0)
        u = rng.normal(0, 1.2, n)
        sf1 = score_field(lats, u, [0.2])
        sf2 = score_field(lats, u + shift, [0.2])
        target = (35.07, 23.8)
        p1 = krige_score(target, sf1, 0, simple_fit(1.5, 11.0))
        p2 = krige_score(target, sf2, 0, simple_fit(1.5, 11.0))
        assert p2 - p1 == pytest.approx(shift, abs=1e-10)

    def test_reduced_predictor(self, rng):
        u = rng.normal(0, 1.0, 12)
        sf = score_field(transect_latitudes(12), u, [0.1])
        pred = krige_score((35.0, 23.8), sf, 0, None, dependent=False)
        assert pred == pytest.approx(float(u.mean()), abs=1e-12)
        with pytest.raises(DataError, match="no variogram fit"):
            krige_score((35.0, 23.8), sf, 0, None)


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
        fit = simple_fit(sill, range_km)
        pred = kriged_scores(*kriging_weights(sf, 0, fit), fit, sf, t_lat, t_lon)
        cov = sill * np.exp(-pairwise_distances(lats, lons) / range_km)
        np.fill_diagonal(cov, sill + 0.05 + 0.01 * fps + 1e-8 * sill)
        for j in range(t_lat.size):
            nu = sill * np.exp(-haversine_km(t_lat[j], t_lon[j], lats, lons) / range_km)
            pred_ref, _ = cholesky_kriging(cov, nu, u, sill)
            assert abs(pred[j] - pred_ref) <= 1e-12

    def test_constant_predictors(self, rng):
        u = rng.normal(0, 1.0, 12)
        sf = score_field(transect_latitudes(12), u, [0.1])
        assert kriging_weights(sf, 0, None) == (u.mean(), None)
        pred = kriged_scores(u.mean(), None, None, sf, [35.0, 35.1], [23.8, 23.8])
        np.testing.assert_array_equal(pred, np.full(2, u.mean()))
        one = score_field([35.0], [3.25], [0.5])
        assert kriging_weights(one, 0, simple_fit(2.0, 10.0)) == (3.25, None)

    def test_not_spd_raises(self, rng):
        sf = score_field(transect_latitudes(10), rng.normal(size=10), [-5.0])
        with pytest.raises(NumericalError, match="not SPD"):
            kriging_weights(sf, 0, simple_fit(1.0, 10.0))

    @staticmethod
    def factored(rng, n):
        """(covariance, its factor's block columns, the diagonal-block inverses)."""
        lats = 35.0 + rng.uniform(0, 0.6, n)
        lons = 23.8 + rng.uniform(-0.05, 0.05, n)
        cov = 2.0 * np.exp(-pairwise_distances(lats, lons) / 10.0) + 0.3 * np.eye(n)
        step = geostat.SOLVE_BLOCK
        columns = (cov[s:, s:s + step].copy() for s in range(0, n, step))
        return cov, *_cholesky_columns(columns)

    @staticmethod
    def dense(blocks, n):
        """The block columns laid out as one n x n matrix, zero above them."""
        chol = np.zeros((n, n))
        for start, col in zip(range(0, n, geostat.SOLVE_BLOCK), blocks):
            chol[start:, start:start + col.shape[1]] = col
        return chol

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 1200])
    def test_forward_solve_matches_triangular_oracle(self, rng, n):
        _, blocks, inverses = self.factored(rng, n)
        chol = self.dense(blocks, n)
        for rhs in (rng.standard_normal(n), *(rng.standard_normal((n, t)) for t in (0, 1, 16))):
            x = _forward_solve(blocks, inverses, rhs)
            assert x.shape == rhs.shape
            np.testing.assert_allclose(x, triangular_solve(chol, rhs), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 1200])
    def test_back_solve_matches_transposed_triangular_oracle(self, rng, n):
        _, blocks, inverses = self.factored(rng, n)
        rhs = rng.standard_normal(n)
        x = _back_solve(blocks, inverses, rhs)
        assert x.shape == rhs.shape
        np.testing.assert_allclose(x, transposed_triangular_solve(self.dense(blocks, n), rhs),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 1200])
    def test_in_place_cholesky_matches_lapack(self, rng, n):
        """Each block column is factored where it stands: (n - start) x 64 floats,
        about n^2/2 + 32n in all, zero above the diagonal."""
        cov, blocks, inverses = self.factored(rng, n)
        step = geostat.SOLVE_BLOCK
        assert [b.shape for b in blocks] == [(n - s, min(step, n - s))
                                             for s in range(0, n, step)]
        got, expected = self.dense(blocks, n), np.linalg.cholesky(cov)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        assert not np.triu(got, 1).any()
        assert len(inverses) == len(blocks)

    def test_later_component_exponentiates_only_distances(self, rng):
        """The second component's covariance may reuse the memory of the first's
        factor, whose entries reach sqrt(sill): with a large sill and a short range,
        exponentiating them would overflow. Nothing warns, and each component
        predicts exactly what its standalone weights predict."""
        n = 130
        lats = 35.0 + rng.uniform(0, 0.05, n)
        lons = 23.8 + rng.uniform(-0.01, 0.01, n)
        sf = score_field(lats, 1e5 * rng.standard_normal((n, 2)), [1.0, 2.0], lons=lons)
        fit = simple_fit(1e10, 1.0)
        t_lat, t_lon = lats[:5] + 1e-4, lons[:5]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            preds = predict_scores(kriging_model(sf, [fit, fit]), t_lat, t_lon)
        for k in range(2):
            want = kriged_scores(*kriging_weights(sf, k, fit), fit, sf, t_lat, t_lon)
            np.testing.assert_array_equal(preds[:, k], want)

    def test_model_weights_equal_standalone_weights(self, rng):
        """Two components kriged at n = 1200 (19 block columns): the model's
        predictions are those of each component's standalone weights."""
        n = 1200
        lats = 35.0 + rng.uniform(0, 0.6, n)
        lons = 23.8 + rng.uniform(-0.05, 0.05, n)
        sf = score_field(lats, rng.standard_normal((n, 2)), [0.1, 0.2], lons=lons)
        fits = [simple_fit(2.0, 10.0), simple_fit(0.5, 4.0)]
        t_lat, t_lon = lats[::100] + 1e-3, lons[::100]
        preds = predict_scores(kriging_model(sf, fits), t_lat, t_lon)
        for k, fit in enumerate(fits):
            want = kriged_scores(*kriging_weights(sf, k, fit), fit, sf, t_lat, t_lon)
            np.testing.assert_array_equal(preds[:, k], want)

    def test_zero_targets(self, rng):
        sf = score_field(transect_latitudes(10), rng.normal(size=10), [0.2])
        fit = simple_fit(1.0, 10.0)
        assert kriged_scores(*kriging_weights(sf, 0, fit), fit, sf, [], []).shape == (0,)


class TestMemoryPeaks:
    """Traced peaks of the n^2 steps, in units of one n x n float64 array.

    numpy reports its buffers to tracemalloc, so these bounds hold on any
    machine. Each step's peak includes its own distance evaluation.
    """

    n = 600

    @pytest.fixture
    def field(self):
        rng = np.random.default_rng(600)
        lats = 35.0 + rng.uniform(0, 0.6, self.n)
        lons = 23.8 + rng.uniform(-0.05, 0.05, self.n)
        return score_field(lats, rng.standard_normal(self.n), [0.1], lons=lons)

    def traced_peak(self, step):
        """(result, peak bytes above the start, in n^2 float64 units)."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, (peak - base) / (self.n * self.n * 8)

    def test_nearest(self, field):
        m = 10
        (nb, d_nb), peak = self.traced_peak(lambda: field.nearest(m))
        assert peak <= 0.5
        assert nb.base is None and d_nb.base is None
        assert nb.nbytes + d_nb.nbytes <= 2 * self.n * m * 8

    def test_screen_keeps_no_statistic_per_permutation(self):
        """From two full permutation chunks on (the second allocates while the
        first's buffers are alive), the screen's peak does not grow with
        n_perm: each chunk's statistics are counted and dropped."""
        n = 20
        rng = np.random.default_rng(20)
        sf = score_field(transect_latitudes(n), rng.standard_normal(n), [0.0])
        lo, hi = 2 * (PERM_ELEMENTS // n), 20000
        assert hi > 6 * lo
        _, peak_lo = self.traced_peak(lambda: spatial_dependence_test(sf, n_perm=lo))
        _, peak_hi = self.traced_peak(lambda: spatial_dependence_test(sf, n_perm=hi))
        assert (peak_hi - peak_lo) * self.n * self.n * 8 < 0.8 * (hi - lo)

    def test_semivariogram(self, field):
        """Binned by masks over each 64-row block: no pair index arrays or gathers."""
        _, peak = self.traced_peak(lambda: empirical_semivariogram(field))
        assert peak <= 0.65

    def test_kriging_system(self, field):
        """The factor's block columns hold half a matrix: no n x n array."""
        _, peak = self.traced_peak(lambda: kriging_weights(field, 0, simple_fit(2.0, 10.0)))
        assert peak <= 0.75

    def test_model_kriges_every_component_in_one_buffer(self, field):
        """Two kriged components in turn, each in half a matrix freed before the
        next: no second factor and no n x n array."""
        u = np.random.default_rng(601).standard_normal((self.n, 2))
        sf = replace(field, scores=u, taus={4: np.array([0.1, 0.2])})
        fit = simple_fit(2.0, 10.0)
        model = kriging_model(sf, [fit, fit])
        preds, peak = self.traced_peak(
            lambda: predict_scores(model, sf.latitudes[:3], sf.longitudes[:3]))
        assert preds.shape == (3, 2) and np.isfinite(preds).all()
        assert peak <= 0.75


class TestOwnedBounds:
    """FitConfig refuses exactly what the stage that reads a value refuses, in its words."""

    @pytest.mark.parametrize("setting, value", [
        ("n_perm", 98), ("n_perm", 100_000), ("alpha", 0.0), ("alpha", 1.0),
        ("alpha", math.nan), ("seed", -1)])
    def test_screen_settings(self, setting, value):
        sf = score_field(transect_latitudes(25), np.arange(25.0), 0.1)
        with pytest.raises(DataError) as config:
            FitConfig(**{setting: value})
        with pytest.raises(DataError) as stage:
            spatial_dependence_test(sf, **{setting: value})
        assert str(stage.value) == str(config.value)

    @pytest.mark.parametrize("setting, value", [
        ("n_bins", 0), ("n_bins", 10_001), ("max_fraction", 0.0),
        ("max_fraction", math.nan), ("min_pairs", 0)])
    def test_bin_settings(self, setting, value):
        sf = score_field(transect_latitudes(25), np.arange(25.0), 0.1)
        bins = VariogramBins(**{setting: value})
        with pytest.raises(DataError) as config:
            FitConfig(bins=bins)
        with pytest.raises(DataError) as stage:
            empirical_semivariogram(sf, bins)
        assert str(stage.value) == str(config.value)

    def test_largest_bin_count_is_accepted(self):
        assert FitConfig(bins=VariogramBins(n_bins=10_000)).bins.n_bins == 10_000
