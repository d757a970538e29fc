import math

import numpy as np
import pytest

from conftest import make_dataset, replace_sounding
from geofpca.dataset import WavelengthSet
from geofpca.errors import DataError
from geofpca.fpca import FpcaBasis
from geofpca.imputation import FitConfig, interpolate_radiance
from geofpca.simulation import OrbitConfig, ComponentSpec, simulate_orbit
from geofpca.validation import (Aggregate, rmspe, rrmse, run_imputation_experiment,
                                select_centers, report_to_csv, summary_to_csv)
from oracles import rmspe_loop, rrmse_loop


class TestRrmse:
    def test_exact_imputation(self):
        obs = np.array([3.0, 4.0, 5.0])
        assert rrmse(obs.copy(), obs) == 0.0

    def test_uniform_relative_error(self, rng):
        obs = rng.uniform(10.0, 50.0, 30)
        assert rrmse(1.01 * obs, obs) == pytest.approx(0.01, abs=1e-12)

    def test_matches_loop_oracle(self, rng):
        obs = rng.uniform(10.0, 50.0, 25)
        imp = obs + rng.normal(0, 2.0, 25)
        assert rrmse(imp, obs) == pytest.approx(rrmse_loop(imp, obs), abs=1e-12)

    def test_zero_observed_rejected(self):
        with pytest.raises(DataError, match="zero"):
            rrmse(np.ones(3), np.array([1.0, 0.0, 2.0]))

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            rrmse(np.ones(3), np.ones(4))


class TestRmspe:
    def basis(self, vectors):
        vectors = np.asarray(vectors, dtype=float)
        k = vectors.shape[1]
        return FpcaBasis(np.ones(k), vectors, k, np.linspace(0, 1, k),
                         WavelengthSet(tuple(range(1, vectors.shape[0] + 1))))

    def test_perfect_prediction(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        scores = rng.normal(size=3)
        assert rmspe(scores, scores.copy(), self.basis(q)) == 0.0

    def test_single_component_identity(self):
        # With phi constant at 1 (squared norm m) a score error of delta
        # propagates to exactly delta.
        m, delta = 6, 0.37
        basis = self.basis(np.ones((m, 1)))
        assert rmspe(np.array([1.0]), np.array([1.0 - delta]), basis) == \
            pytest.approx(delta, abs=1e-12)

    def test_matches_loop_oracle(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((10, 3)))
        obs = rng.normal(size=3)
        pred = obs + rng.normal(0, 0.5, 3)
        basis = self.basis(q)
        assert rmspe(obs, pred, basis) == pytest.approx(
            rmspe_loop(obs, pred, q), abs=1e-12)

    def test_dimension_mismatch(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        with pytest.raises(DataError):
            rmspe(np.ones(2), np.ones(2), self.basis(q))


def small_orbit(n_tracks=14, seed=5, **kwargs):
    cfg = OrbitConfig(n_tracks=n_tracks, seed=seed, grid_length=24,
                      track_spacing=0.01, **kwargs)
    return simulate_orbit(cfg)[0]


class TestSelectCenters:
    def test_complete_orbit_selects_interior(self):
        ds = small_orbit()
        centers = select_centers(ds, footprint=4, min_region_count=8,
                                 lat_halfwidth=1.0)
        # Only the cross-track window condition binds: tracks 4 .. n-4.
        tracks = sorted((ds.index_of(c)) % 14 for c in centers)
        assert tracks == list(range(4, 11))

    def test_minimum_count_condition(self):
        ds = small_orbit()
        assert select_centers(ds, min_region_count=10_000) == []

    def test_gap_in_every_window_empties_result(self):
        ds = small_orbit()
        # Every 4th track loses one sounding's radiance entirely, so every
        # run of 8 consecutive tracks contains a missing location.
        gapped = ds
        nan_row = np.full(ds.grid_length, np.nan)
        for t in range(0, 14, 4):
            sid = int(ds.ids[ds.footprints == 2][t])
            gapped = replace_sounding(gapped, sid, radiance=nan_row)
        assert select_centers(gapped, min_region_count=8, lat_halfwidth=1.0) == []

    def test_matches_brute_force_oracle(self, rng):
        ds = small_orbit()
        nan_row = np.full(ds.grid_length, np.nan)
        # Knock out a few random soundings.
        for sid in rng.choice(ds.ids, size=6, replace=False):
            ds = replace_sounding(ds, int(sid), radiance=nan_row)
        got = select_centers(ds, footprint=4, min_region_count=60,
                             lat_halfwidth=0.05)
        observed = {int(i): not np.isnan(ds.get(int(i)).radiance).all()
                    for i in ds.ids}
        lats = ds.latitudes
        obs_mask = np.array([observed[int(i)] for i in ds.ids])
        expected = []
        n_tracks = 14
        for i, s in enumerate(ds.soundings):
            if s.footprint != 4 or not observed[s.id]:
                continue
            t = i % n_tracks
            if (np.abs(lats - s.latitude) <= 0.05)[obs_mask].sum() < 60:
                continue
            if t - 4 < 0 or t + 3 >= n_tracks:
                continue
            window_ok = True
            for tt in range(t - 4, t + 4):
                for p in range(1, 9):
                    sid = int(ds.ids[ds.footprints == p][tt])
                    if not observed[sid]:
                        window_ok = False
            if window_ok:
                expected.append(s.id)
        assert got == expected


class TestExperiment:
    def test_single_center_r1_shapes(self):
        ds = small_orbit()
        centers = select_centers(ds, min_region_count=8, lat_halfwidth=1.0)
        report = run_imputation_experiment(ds, centers[:1], [1],
                                           FitConfig(n_perm=99), lat_halfwidth=1.0)
        assert not report.failures
        assert 0 < len(report.rows) <= 8
        assert all(row.r == 1 for row in report.rows)

    def test_interpolation_column_cross_check(self):
        from geofpca.dataset import remove_cross_tracks, select_region
        ds = small_orbit()
        centers = select_centers(ds, min_region_count=8, lat_halfwidth=1.0)
        center = centers[0]
        report = run_imputation_experiment(ds, [center], [2],
                                           FitConfig(n_perm=99), lat_halfwidth=1.0)
        center_lat = ds.get(center).latitude
        region = select_region(ds, (center_lat - 1.0, center_lat + 1.0))
        train, held = remove_cross_tracks(region, center, 2)
        from geofpca.imputation import fit_geofpca
        model = fit_geofpca(train, FitConfig(n_perm=99))
        pos = model.wavelengths.positions
        rows = [held.index_of(row.sounding_id) for row in report.rows]
        interp = interpolate_radiance(train, held.latitudes[rows], held.footprints[rows],
                                      model.wavelengths)
        for row, i, spectrum in zip(report.rows, rows, interp):
            expected = rrmse(spectrum, held.radiance[i, pos])
            assert row.rrmse_interpolation == pytest.approx(expected, abs=1e-12)

    def test_aggregates_equal_recomputation(self):
        ds = small_orbit()
        centers = select_centers(ds, min_region_count=8, lat_halfwidth=1.0)
        report = run_imputation_experiment(ds, centers[:3], [1, 2],
                                           FitConfig(n_perm=99), lat_halfwidth=1.0)
        for r in (1, 2):
            vals = np.array([row.rrmse_functional for row in report.rows
                             if row.r == r])
            agg = report.by_r[r]["rrmse_functional"]
            assert agg.mean == pytest.approx(float(vals.mean()), abs=1e-12)
            assert agg.n == len(vals)
            half = 1.96 * vals.std(ddof=1) / math.sqrt(len(vals))
            assert agg.ci_low == pytest.approx(float(vals.mean() - half), abs=1e-12)

    def test_failures_recorded_not_fatal(self):
        ds = small_orbit()
        # An edge-track center cannot support r=8: that cell fails, but a
        # valid interior cell in the same run still produces rows.
        good = select_centers(ds, min_region_count=8, lat_halfwidth=1.0)[0]
        report = run_imputation_experiment(ds, [int(ds.ids[0]), good], [8],
                                           FitConfig(n_perm=99), lat_halfwidth=1.0)
        assert len(report.failures) == 1
        assert report.failures[0][0] == int(ds.ids[0])
        assert report.rows

    def test_csv_writers(self, tmp_path):
        ds = small_orbit()
        centers = select_centers(ds, min_region_count=8, lat_halfwidth=1.0)
        report = run_imputation_experiment(ds, centers[:2], [1],
                                           FitConfig(n_perm=99), lat_halfwidth=1.0)
        p1, p2 = tmp_path / "rows.csv", tmp_path / "summary.csv"
        report_to_csv(report, p1)
        summary_to_csv(report, p2)
        assert p1.read_text().splitlines()[0] == \
            "center,r,sounding_id,footprint,rrmse_functional,rrmse_interpolation,rmspe"
        assert p2.read_text().splitlines()[0].startswith("r,rrmse_functional_mean")


def test_aggregate_of_empty():
    agg = Aggregate.of(np.array([]))
    assert agg.n == 0 and math.isnan(agg.mean)
