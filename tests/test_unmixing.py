import math
import os
from collections import Counter

import numpy as np
import pytest

from conftest import make_dataset, replace_sounding
from geofpca.dataset import haversine_km
from geofpca.errors import DataError
from geofpca.fpca import ScoreField
from geofpca.imputation import FitConfig
from geofpca.simulation import (SimulationConfig, run_unmixing_study,
                                simulate_mixed_transect)
from geofpca.unmixing import (OUTLIER_MAD, _cv_bandwidth, _local_linear, _mad_inliers,
                              _nearest_spectra, detect_mixed_region,
                              estimate_land_fraction, smooth_scores, unmix_region)
from oracles import (cv_bandwidth_candidates, cv_bandwidth_loop, local_linear_fit,
                     local_linear_one, local_linear_point, nearest_spectrum_point,
                     smooth_group_retry)

THREADS = min(8, os.cpu_count() or 1)


def transect_with_fractions(fractions, spacing=0.01, width=3):
    n = len(fractions)
    lats = 35.0 + spacing * np.arange(n)
    rad = 40.0 + np.arange(width)[None, :] + np.zeros((n, 1))
    return make_dataset(lats, [4] * n, rad, land_fractions=fractions)


class TestDetectMixedRegion:
    def test_clean_transition(self):
        fractions = [0.0] * 10 + [0.4] + [1.0] * 10
        ds = transect_with_fractions(fractions)
        spec = detect_mixed_region(ds, ref_length=0.05)
        assert spec.qualified
        assert spec.s1_label == "water" and spec.s2_label == "land"
        assert spec.mixed_ids == (11,)
        assert spec.delta0 == pytest.approx(0.01)

    def test_ambiguous_references_unqualified(self):
        # Pure 0/1 soundings alternating in both references average to 0.5.
        fractions = [0.0, 1.0] * 5 + [0.4] + [1.0, 0.0] * 5
        ds = transect_with_fractions(fractions)
        spec = detect_mixed_region(ds, ref_length=0.05)
        assert not spec.qualified
        assert spec.s1_label == "unidentified" and spec.s2_label == "unidentified"

    def test_window_arithmetic(self):
        # Mixed soundings at 35.49 and 35.51 with 0.003 degree spacing.
        lats = 35.49 + 0.003 * np.arange(-20, 28)
        fractions = np.zeros(48)
        fractions[lats > 35.512] = 1.0
        mixed = (lats >= 35.49 - 1e-9) & (lats <= 35.51 + 1e-9)
        fractions[mixed] = 0.5
        rad = np.full((48, 2), 30.0)
        ds = make_dataset(lats, [4] * 48, rad, land_fractions=fractions)
        spec = detect_mixed_region(ds, ref_length=0.03)
        assert spec.delta0 == pytest.approx(0.003)
        l1, l2 = 35.49, lats[mixed].max()
        assert spec.m_window[0] == pytest.approx(l1 - 0.003)
        assert spec.m_window[1] == pytest.approx(l2 + 0.003)
        assert spec.s1_window == (pytest.approx(l1 - 0.003 - 0.03),
                                  pytest.approx(l1 - 0.003))
        assert spec.s2_window == (pytest.approx(l2 + 0.003),
                                  pytest.approx(l2 + 0.003 + 0.03))

    def test_default_spacing_matches_track_loop(self, rng):
        # Eight footprints with jittered latitudes, one footprint a track short,
        # rows interleaved in shuffled footprint order: each track's mean is
        # summed in footprint order all the same.
        rows = [(t, int(p)) for t in range(12) for p in rng.permutation(np.arange(1, 9))
                if (t, p) != (11, 6)]
        lats = [35.0 + 0.01 * t + rng.normal(0.0, 1e-3) for t, _ in rows]
        fps = [p for _, p in rows]
        fractions = np.where(np.asarray(lats) < 35.05, 0.0, 1.0)
        fractions[40] = 0.5
        ds = make_dataset(lats, fps, np.ones((len(rows), 2)), land_fractions=fractions)
        members: dict[int, list[tuple[int, float]]] = {}
        seen: dict[int, int] = {}
        for lat, p in zip(lats, fps):
            seen[p] = seen.get(p, -1) + 1
            members.setdefault(seen[p], []).append((p, lat))
        means = [np.mean([lat for _, lat in sorted(m)]) for m in members.values()]
        assert detect_mixed_region(ds).delta0 == float(np.diff(np.sort(means)).mean())

    def test_no_mixed_soundings(self):
        ds = transect_with_fractions([0.0] * 5 + [1.0] * 5)
        with pytest.raises(DataError, match="strictly inside"):
            detect_mixed_region(ds)

    @pytest.mark.parametrize("setting, message", [
        ({"delta0": -0.05}, "delta0 -0.05 must be finite and > 0"),
        ({"delta0": math.inf}, "delta0 inf must be finite and > 0"),
        ({"ref_length": 0.0}, "ref_length 0.0 must be finite and > 0"),
        ({"ref_length": math.nan}, "ref_length nan must be finite and > 0"),
        ({"land_hi": 0.2, "water_lo": 0.8},
         "water_lo 0.8 and land_hi 0.2 need 0 <= water_lo <= land_hi <= 1"),
        ({"water_lo": -0.1}, "water_lo -0.1 and land_hi 0.7 need 0 <= water_lo <= land_hi <= 1"),
        ({"land_hi": math.nan},
         "water_lo 0.3 and land_hi nan need 0 <= water_lo <= land_hi <= 1")])
    def test_window_settings_refused(self, setting, message):
        ds = transect_with_fractions([0.0] * 10 + [0.4] + [1.0] * 10)
        with pytest.raises(DataError) as e:
            detect_mixed_region(ds, **setting)
        assert str(e.value) == message

    @pytest.mark.parametrize("water_lo, land_hi", [(0.0, 1.0), (0.5, 0.5)])
    def test_threshold_bounds_accepted(self, water_lo, land_hi):
        ds = transect_with_fractions([0.0] * 10 + [0.4] + [1.0] * 10)
        spec = detect_mixed_region(ds, land_hi=land_hi, water_lo=water_lo, ref_length=0.05)
        assert spec.mixed_ids == (11,)


def field_from(lats, values, footprint=4):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    n = values.shape[0]
    return ScoreField(np.arange(1, n + 1), values, np.asarray(lats, dtype=float),
                      np.full(n, 23.8), np.full(n, footprint),
                      {footprint: np.zeros(values.shape[1])})


class TestSmoothScores:
    def test_linear_scores_reproduced(self):
        lats = 35.0 + 0.01 * np.arange(20)
        u = 2.0 + 3.0 * (lats - 35.0)
        smoothed = smooth_scores(field_from(lats, u), bandwidth=0.05)
        np.testing.assert_allclose(smoothed.scores[:, 0], u, atol=1e-8)

    def test_outlier_removed_from_constant(self):
        lats = 35.0 + 0.01 * np.arange(15)
        u = np.full(15, 1.5)
        u[7] = 40.0
        smoothed = smooth_scores(field_from(lats, u), bandwidth=0.05)
        np.testing.assert_allclose(smoothed.scores[:, 0], 1.5, atol=1e-8)

    def test_matches_per_point_wls_oracle(self, rng):
        lats = 35.0 + 0.01 * np.arange(25)
        u = 1.0 + 4.0 * (lats - 35.1) ** 2 + 0.05 * rng.standard_normal(25)
        h = 0.06
        smoothed = smooth_scores(field_from(lats, u), bandwidth=h)
        for i in range(25):
            expected = local_linear_fit(lats, u, float(lats[i]), h)
            assert smoothed.scores[i, 0] == pytest.approx(expected, abs=1e-8)

    def test_cv_bandwidth_smooths_noise(self, rng):
        lats = 35.0 + 0.01 * np.arange(40)
        clean = np.sin(8.0 * (lats - 35.0))
        u = clean + 0.1 * rng.standard_normal(40)
        smoothed = smooth_scores(field_from(lats, u), bandwidth="cv")
        raw_err = float(((u - clean) ** 2).mean())
        smooth_err = float(((smoothed.scores[:, 0] - clean) ** 2).mean())
        assert smooth_err < raw_err

    def test_needs_five_per_footprint(self, rng):
        lats = 35.0 + 0.01 * np.arange(4)
        with pytest.raises(DataError, match=">= 5"):
            smooth_scores(field_from(lats, rng.standard_normal(4)), bandwidth=0.1)

    @pytest.mark.parametrize("bandwidth", [-0.05, 0.0, math.nan, math.inf, "gcv"])
    def test_bad_bandwidth_refused_before_any_group(self, rng, bandwidth):
        # Four soundings would fail the per-footprint check inside the loop.
        lats = 35.0 + 0.01 * np.arange(4)
        with pytest.raises(DataError, match="bandwidth"):
            smooth_scores(field_from(lats, rng.standard_normal(4)), bandwidth=bandwidth)


class TestBatchedSmoothingMatchesLoopOracles:
    """Kernel-matrix local-linear fits against per-point and refit loops."""

    def test_points_match_scalar_oracle(self, rng):
        x = np.sort(35.0 + rng.uniform(0.0, 0.4, 60))
        y = np.cos(12.0 * (x - 35.0)) + 0.1 * rng.standard_normal(60)
        # At the data points, where the smoother is evaluated; the two points
        # outside the data see no kernel mass. (Far from the data the two-point
        # fit is ill-conditioned and summation order shows past 1e-12.)
        x0 = np.append(x, [34.5, 35.9])
        for h in (0.01, 0.05, 0.3):
            got = _local_linear(x, y, x0, h)
            want = np.array([local_linear_point(x, y, float(t), h) for t in x0])
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_single_effective_point_falls_back_to_local_mean(self):
        x = np.array([0.0, 0.0, 0.0, 5.0, 10.0])
        y = np.array([1.0, 2.0, 6.0, 40.0, 50.0])
        got = _local_linear(x, y, np.array([0.0, 0.2, 2.5]), 1.0)
        want = [local_linear_point(x, y, t, 1.0) for t in (0.0, 0.2, 2.5)]
        assert got[0] == want[0] == 3.0
        assert got[1] == want[1] == 3.0
        assert np.isnan(got[2]) and np.isnan(want[2])

    def test_cv_bandwidth_matches_refit_loop(self):
        for seed, n in ((1, 8), (2, 25), (3, 60), (4, 150)):
            rng = np.random.default_rng(seed)
            x = 35.0 + np.sort(rng.uniform(0.0, 0.6, n))
            y = np.sin(8.0 * (x - 35.0)) + 0.2 * rng.standard_normal(n)
            h = _cv_bandwidth(x, y, None)
            assert h == cv_bandwidth_loop(x, y)
            got = _local_linear(x, y, x, h)
            want = [local_linear_point(x, y, float(t), h) for t in x]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_candidate_with_empty_kernel_skipped(self):
        # With h <= 2.8 the point at 5.0 has no neighbor once it is left out.
        x = np.array([0.0, 0.1, 0.2, 0.3, 2.0, 2.1, 2.2, 5.0])
        y = np.array([1.0, 1.2, 0.9, 1.1, 3.0, 3.2, 2.9, 6.0])
        for grid in ([0.5, 1.0, 4.0], [0.5, 4.0, 6.0, 9.0]):
            h = _cv_bandwidth(x, y, np.array(grid))
            assert h == cv_bandwidth_loop(x, y, grid)
            assert h >= 4.0

    def test_grid_exhausted(self):
        x = np.array([0.0, 0.1, 0.2, 0.3, 2.0, 2.1, 2.2, 5.0])
        y = np.ones(8)
        assert cv_bandwidth_loop(x, y, [0.5, 1.0]) is None
        with pytest.raises(DataError, match="grid exhausted"):
            _cv_bandwidth(x, y, np.array([0.5, 1.0]))


class TestStackedSmoothingMatchesOneBandwidthOracle:
    """One kernel stack per bandwidth grid against one smoother call per
    bandwidth and a second call for the span fallback, compared with ==."""

    @staticmethod
    def case(seed):
        """Every third case has latitudes rounded to 0.1 or 0.01 deg (coincident
        points, tied gaps); every fifth has all-zero scores, where every
        candidate's leave-one-out error is exactly 0 (a tie)."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 60))
        x = 35.0 + np.sort(rng.uniform(0.0, rng.choice([0.05, 0.3, 0.6]), n))
        if seed % 3 == 0:
            x = np.round(x, int(rng.integers(1, 3)))
        y = (np.zeros(n) if seed % 5 == 0
             else np.sin(8.0 * (x - 35.0)) + 0.2 * rng.standard_normal(n))
        return rng, x, y

    def test_chosen_bandwidth(self):
        seen = Counter()
        for seed in range(400):
            rng, x, y = self.case(seed)
            # The default grid; repeated values (ties); widths around the
            # largest gap (candidates with an empty kernel, exhausted grids).
            grid = (None, np.repeat(np.geomspace(0.01, 0.6, 4), 2),
                    np.sort(rng.uniform(0.0, 1.2, 5)) * float(np.diff(x).max()) + 1e-6,
                    )[(seed // 3) % 3]
            if x.max() == x.min():
                seen["coincident"] += 1
                with pytest.raises(DataError, match="coincident"):
                    _cv_bandwidth(x, y, grid)
                continue
            want = cv_bandwidth_candidates(x, y, grid)
            if want is None:
                seen["exhausted"] += 1
                with pytest.raises(DataError, match="grid exhausted"):
                    _cv_bandwidth(x, y, grid)
                continue
            assert _cv_bandwidth(x, y, grid) == want, seed
            if grid is not None:
                fits = [local_linear_one(x, y, x, float(h), leave_one_out=True)
                        for h in grid]
                stack = _local_linear(x, y, x, grid, leave_one_out=True)
                assert np.array_equal(stack, np.array(fits), equal_nan=True), seed
                seen["empty kernel"] += any(np.isnan(f).any() for f in fits)
            seen["tie"] += not y.any()
        assert set(seen) == {"coincident", "exhausted", "empty kernel", "tie"}, seen

    def test_smooth_scores(self):
        seen = Counter()
        for seed in range(320):
            rng, x, y = self.case(seed)
            u = rng.standard_normal(x.size)
            u[rng.integers(x.size)] = 50.0  # an outlier left out of the fit
            field = field_from(x, np.column_stack([y, u]))
            bandwidth = ("cv", 0.002, 0.02, 0.2)[seed % 4]
            want = np.empty_like(field.scores)
            try:
                for k in range(2):
                    col = field.scores[:, k]
                    keep = _mad_inliers(col, OUTLIER_MAD)
                    xf, yf = x[keep], col[keep]
                    if keep.sum() < 2 or (bandwidth == "cv" and xf.max() == xf.min()):
                        raise DataError("degenerate group")
                    h = cv_bandwidth_candidates(xf, yf) if bandwidth == "cv" else bandwidth
                    if h is None:
                        raise DataError("grid exhausted")
                    seen["span fallback"] += bool(np.isnan(local_linear_one(xf, yf, x, h)).any())
                    want[:, k] = smooth_group_retry(xf, yf, x, h)
            except DataError:
                seen["refused"] += 1
                with pytest.raises(DataError):
                    smooth_scores(field, bandwidth)
                continue
            seen["smoothed"] += 1
            np.testing.assert_array_equal(smooth_scores(field, bandwidth).scores, want)
        assert set(seen) == {"refused", "span fallback", "smoothed"}, seen


class TestEstimateLandFraction:
    def setup_method(self):
        rng = np.random.default_rng(9)
        self.f_land = 80.0 + rng.uniform(0, 10, 30)
        self.f_water = 30.0 + rng.uniform(0, 5, 30)

    def test_pure_water(self):
        assert estimate_land_fraction(self.f_water, self.f_land, self.f_water) == 0.0

    def test_exact_mixture(self):
        obs = 0.3 * self.f_land + 0.7 * self.f_water
        alpha = estimate_land_fraction(obs, self.f_land, self.f_water)
        assert alpha == pytest.approx(0.3, abs=1e-12)

    def test_scale_invariance(self):
        obs = 0.62 * self.f_land + 0.38 * self.f_water
        a1 = estimate_land_fraction(obs, self.f_land, self.f_water)
        a2 = estimate_land_fraction(7.5 * obs, 7.5 * self.f_land, 7.5 * self.f_water)
        assert a2 == pytest.approx(a1, abs=1e-12)

    def test_swap_maps_to_complement(self, rng):
        obs = 0.8 * self.f_land + 0.2 * self.f_water + rng.normal(0, 2.0, 30)
        a = estimate_land_fraction(obs, self.f_land, self.f_water)
        b = estimate_land_fraction(obs, self.f_water, self.f_land)
        assert 0.0 < a < 1.0  # inside the clamp
        assert b == pytest.approx(1.0 - a, abs=1e-12)

    def test_clamped_to_unit_interval(self, rng):
        obs = 1.4 * self.f_land - 0.4 * self.f_water
        assert estimate_land_fraction(obs, self.f_land, self.f_water) == 1.0

    def test_identical_endmembers_raise(self):
        with pytest.raises(DataError, match="indistinguishable"):
            estimate_land_fraction(self.f_land, self.f_land, self.f_land)


class TestInterpolationLandFraction:
    """The baseline: the unmixing formula with raw neighbor spectra as endmembers."""

    def test_equals_land_neighbor(self):
        rng = np.random.default_rng(3)
        land = 70.0 + rng.uniform(0, 5, 12)
        water = 20.0 + rng.uniform(0, 5, 12)
        assert estimate_land_fraction(land, land, water) == 1.0

    def test_midpoint(self):
        rng = np.random.default_rng(4)
        land = 70.0 + rng.uniform(0, 5, 12)
        water = 20.0 + rng.uniform(0, 5, 12)
        obs = 0.5 * (land + water)
        assert estimate_land_fraction(obs, land, water) == pytest.approx(0.5, abs=1e-12)

    def test_same_formula_as_unmixing_on_shared_inputs(self):
        # unmix_region's baseline applies the unmixing formula to the nearest
        # raw reference spectra of the same footprint.
        ds, truth = simulate_mixed_transect(SimulationConfig(rho=0.02, seed=5))
        spec = detect_mixed_region(ds)
        alphas, models = unmix_region(ds, spec, FitConfig(n_perm=99))
        target = ds.get(truth.mixed_id)
        common = sorted(set(models["land"].wavelengths.indices) &
                        set(models["water"].wavelengths.indices))
        pos = np.asarray(common) - 1
        nearest = {}
        for label, (lo, hi) in spec.endmember_windows().items():
            pool = [ds.get(sid) for sid in ds.ids[(ds.latitudes >= lo) & (ds.latitudes <= hi)
                                                  & (ds.footprints == target.footprint)]]
            nearest[label] = min(pool, key=lambda s: haversine_km(
                target.latitude, target.longitude, s.latitude, s.longitude)).radiance[pos]
        obs = target.radiance[pos]
        good = ~(np.isnan(obs) | np.isnan(nearest["land"]) | np.isnan(nearest["water"]))
        alpha = alphas["interpolation"][spec.mixed_ids.index(truth.mixed_id)]
        assert alpha == estimate_land_fraction(obs[good], nearest["land"][good],
                                               nearest["water"][good])


class TestNearestSpectraMatchPointOracle:
    """The batched reference pick equals the per-target pick, spectrum for spectrum."""

    @staticmethod
    def reference_orbit(rng):
        n = 40
        lats = 35.0 + rng.uniform(0.0, 0.2, n)
        lons = 23.7 + rng.uniform(0.0, 0.1, n)
        fps = rng.choice([1, 2, 4, 6], n)
        fps[lats < 35.08] = np.where(fps[lats < 35.08] == 6, 1, fps[lats < 35.08])
        rad = 30.0 + rng.normal(0.0, 2.0, (n, 4))
        rad[rng.choice(n, 6, replace=False), 2] = np.nan
        return make_dataset(lats, fps, rad, lons=lons)

    def check(self, ds, window, lats, lons, fps):
        got = _nearest_spectra(ds, window, lats, lons, fps)
        expected = [nearest_spectrum_point(ds, window, float(a), float(o), int(p))
                    for a, o, p in zip(lats, lons, fps)]
        assert got.shape == (len(lats), ds.grid_length)
        for row, spectrum in zip(got, expected):
            assert np.array_equal(row, spectrum, equal_nan=True)

    def test_several_footprints_and_holed_columns(self, rng):
        ds = self.reference_orbit(rng)
        lats = 35.0 + rng.uniform(-0.05, 0.25, 25)
        lons = 23.7 + rng.uniform(0.0, 0.1, 25)
        fps = rng.choice([1, 2, 4, 6], 25)
        for window in ((35.0, 35.2), (35.0, 35.08), (35.12, 35.2)):
            self.check(ds, window, lats, lons, fps)

    def test_window_without_the_target_footprint(self, rng):
        ds = self.reference_orbit(rng)
        window = (35.0, 35.08)
        assert 6 not in ds.footprints[(ds.latitudes >= 35.0) & (ds.latitudes <= 35.08)]
        self.check(ds, window, [35.01, 35.1], [23.75, 23.72], [6, 6])

    def test_no_targets(self, rng):
        ds = self.reference_orbit(rng)
        self.check(ds, (35.0, 35.2), [], [], [])

    def test_empty_window_raises(self, rng):
        ds = self.reference_orbit(rng)
        with pytest.raises(DataError, match="no soundings in reference window"):
            _nearest_spectra(ds, (36.0, 36.1), [35.1], [23.7], [1])


class TestUnmixRegion:
    def test_unqualified_spec_fails_fast(self):
        ds = transect_with_fractions([0.0, 1.0] * 5 + [0.4] + [1.0, 0.0] * 5)
        spec = detect_mixed_region(ds, ref_length=0.05)
        with pytest.raises(DataError, match="not qualified"):
            unmix_region(ds, spec)

    def test_recovers_fraction_at_low_noise(self):
        result = run_unmixing_study([0.01], 200, SimulationConfig(seed=77),
                                    threads=THREADS)
        by_method = {row.method: row for row in result.rows}
        assert result.n_failures == 0
        # Trimmed relative error well under 0.05 implies trimmed absolute
        # error under 0.05 as well (alpha <= 1).
        assert by_method["unmixing"].trimmed_mean_rel_abs_error < 0.05

    def test_all_water_site_estimates_near_zero(self):
        errs = []
        for seed in range(25):
            cfg = SimulationConfig(rho=0.01, alpha=0.0, seed=(900, seed))
            ds, truth = simulate_mixed_transect(cfg)
            # Pretend the reported fraction is wrong (0.5) so detection still
            # flags the middle site; the spectrum stays pure water.
            ds = replace_sounding(ds, truth.mixed_id, land_fraction=0.5)
            spec = detect_mixed_region(ds)
            alphas, _ = unmix_region(ds, spec, FitConfig(n_perm=99))
            errs.append(alphas["unmixing"][spec.mixed_ids.index(truth.mixed_id)])
        assert float(np.mean(errs)) <= 0.05

    def test_emits_both_methods_per_sounding(self):
        ds, truth = simulate_mixed_transect(SimulationConfig(rho=0.02, seed=5))
        spec = detect_mixed_region(ds)
        alphas, models = unmix_region(ds, spec, FitConfig(n_perm=99))
        assert truth.mixed_id in spec.mixed_ids
        assert sorted(alphas) == ["interpolation", "unmixing"]
        assert set(models) == {"land", "water"}
        for a in alphas.values():
            assert a.dtype == float and a.shape == (len(spec.mixed_ids),)
            assert ((0.0 <= a) & (a <= 1.0)).all()
