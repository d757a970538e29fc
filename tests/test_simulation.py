import dataclasses

import numpy as np
import pytest

from geofpca.dataset import SpectralDataset, load_dataset, save_dataset
from geofpca.errors import DataError
from geofpca.simulation import (ComponentSpec, OrbitConfig, SimulationConfig,
                                _trim_mean, run_unmixing_study, simulate_error_process,
                                simulate_mixed_transect, simulate_orbit,
                                study_to_csv, synthetic_profile)
from oracles import orbit_by_row, transect_by_row


class TestErrorProcess:
    def test_zero_sigma_gives_zero(self):
        out = simulate_error_process(np.zeros(50), rng=np.random.default_rng(1))
        np.testing.assert_array_equal(out, 0.0)

    def test_unit_pointwise_variance(self):
        rng = np.random.default_rng(42)
        draws = np.array([simulate_error_process(np.ones(64), rng=rng)
                          for _ in range(10000)])
        var = draws.var(axis=0)
        assert np.abs(var - 1.0).max() < 0.05

    def test_covariance_matches_analytic_form(self):
        rng = np.random.default_rng(43)
        m = 32
        draws = np.array([simulate_error_process(np.ones(m), rng=rng)
                          for _ in range(10000)])
        x = np.pi * np.arange(m) / m
        expected = np.cos(x[:, None] - x[None, :])
        emp = np.cov(draws.T, bias=True)
        assert np.abs(emp - expected).max() < 0.05

    def test_scaled_by_sigma(self):
        sigma = np.linspace(1.0, 3.0, 20)
        a = simulate_error_process(sigma, rng=np.random.default_rng(7))
        b = simulate_error_process(np.ones(20), rng=np.random.default_rng(7))
        np.testing.assert_allclose(a, sigma * b, atol=1e-12)

    def test_negative_sigma_rejected(self):
        with pytest.raises(DataError):
            simulate_error_process(np.array([1.0, -0.5]), rng=np.random.default_rng(0))

    @pytest.mark.parametrize("shape", [(1, 30), (7, 30), (2, 3, 30)])
    def test_rows_equal_successive_one_row_calls(self, shape):
        sigma = np.random.default_rng(5).uniform(0.0, 2.0, shape)
        batch_rng, row_rng = np.random.default_rng(8), np.random.default_rng(8)
        batch = simulate_error_process(sigma, rng=batch_rng)
        rows = [simulate_error_process(row, rng=row_rng) for row in sigma.reshape(-1, 30)]
        assert np.array_equal(batch, np.reshape(rows, shape))
        assert batch_rng.random() == row_rng.random()


class TestProfiles:
    def test_orthonormal_components(self):
        for kind in ("water", "land"):
            p = synthetic_profile(120, kind)
            gram = p.eigenvectors.T @ p.eigenvectors
            np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)

    def test_land_brighter_than_water(self):
        w = synthetic_profile(100, "water")
        l = synthetic_profile(100, "land")
        assert (l.intercept > w.intercept).all()

    def test_unknown_kind(self):
        with pytest.raises(DataError):
            synthetic_profile(50, "swamp")


class TestMixedTransect:
    def test_zero_noise_zero_alpha_middle_is_water(self):
        ds, truth = simulate_mixed_transect(SimulationConfig(rho=0.0, alpha=0.0, seed=3))
        middle = ds.get(truth.mixed_id)
        np.testing.assert_array_equal(middle.radiance, truth.f_water_mixed)
        assert middle.land_fraction == 0.0

    def test_fixed_seed_is_deterministic(self, tmp_path):
        cfg = SimulationConfig(rho=0.08, seed=11)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(simulate_mixed_transect(cfg)[0], p1)
        save_dataset(simulate_mixed_transect(cfg)[0], p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_first_component_variance_matches_sill(self):
        # Marginal variance of the water spatial component at a fixed site.
        vals = [simulate_mixed_transect(SimulationConfig(rho=0.0, seed=(1000, i)))[1]
                .water_scores[0, 0] for i in range(500)]
        assert np.var(vals) == pytest.approx(5.0, rel=0.10)

    def test_spatial_covariance_matches_model(self):
        # Empirical covariance between two water sites vs the exponential law.
        from geofpca.dataset import haversine_km
        pairs = np.array([
            simulate_mixed_transect(SimulationConfig(rho=0.0, seed=(2000, i)))[1]
            .water_scores[:2, 0] for i in range(1000)])
        ds, _ = simulate_mixed_transect(SimulationConfig(rho=0.0, seed=(2000, 0)))
        lat, lon = ds.latitudes, ds.longitudes
        d = haversine_km(lat[0], lon[0], lat[1], lon[1])
        expected = 5.0 * np.exp(-d / 10.0)
        emp = np.cov(pairs.T)[0, 1]
        assert emp == pytest.approx(expected, rel=0.10)

    def test_round_trips_through_dataset_io(self, tmp_path):
        ds, _ = simulate_mixed_transect(SimulationConfig(rho=0.05, seed=9))
        path = tmp_path / "sim.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.radiance, ds.radiance)
        path2 = tmp_path / "sim2.csv"
        save_dataset(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_land_fractions_by_zone(self):
        ds, truth = simulate_mixed_transect(SimulationConfig(seed=21))
        lf = ds.land_fractions
        assert (lf[:20] == 0.0).all()
        assert (lf[21:] == 1.0).all()
        assert 0.0 <= lf[20] <= 1.0

    def test_even_sites_rejected(self):
        with pytest.raises(DataError, match="odd"):
            simulate_mixed_transect(SimulationConfig(n_sites=40))


class TestOrbit:
    def test_shape_and_order(self):
        cfg = OrbitConfig(n_tracks=10, seed=1)
        ds, truth = simulate_orbit(cfg)
        assert len(ds) == 80
        assert ds.footprints[:10].tolist() == [1] * 10  # footprint-major rows
        assert truth.scores.shape == (80, 3)
        assert truth.noise_free.shape == (80, cfg.grid_length)

    def test_deterministic(self):
        cfg = OrbitConfig(n_tracks=6, seed=2)
        a, _ = simulate_orbit(cfg)
        b, _ = simulate_orbit(cfg)
        np.testing.assert_array_equal(a.radiance, b.radiance)

    def test_footprint_means_differ(self):
        _, truth = simulate_orbit(OrbitConfig(n_tracks=6, seed=3))
        assert not np.allclose(truth.betas[1][0], truth.betas[8][0])

    def test_single_footprint_layout(self):
        ds, _ = simulate_orbit(OrbitConfig(n_tracks=12, footprints=(4,), seed=4,
                                           components=()))
        assert set(ds.footprints.tolist()) == {4}
        assert len(ds) == 12


class TestStudy:
    def test_table_shape(self, tmp_path):
        res = run_unmixing_study([0.01, 0.2], 2, SimulationConfig(seed=1))
        assert len(res.rows) == 4
        assert {r.method for r in res.rows} == {"unmixing", "interpolation"}
        assert all(r.n_reps == 2 for r in res.rows)
        path = tmp_path / "study.csv"
        study_to_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "rho,method,trimmed_mean_rel_abs_error,n_reps,seed"
        assert len(lines) == 5

    def test_threaded_matches_serial(self):
        cfg = SimulationConfig(seed=6)
        serial = run_unmixing_study([0.05], 4, cfg, threads=1)
        threaded = run_unmixing_study([0.05], 4, cfg, threads=4)
        for a, b in zip(serial.rows, threaded.rows):
            assert a == b

    def test_rejects_single_rep(self):
        with pytest.raises(DataError):
            run_unmixing_study([0.01], 1, SimulationConfig())


class TestTrimMean:
    def test_bit_identical_to_scipy(self):
        from scipy.stats import trim_mean
        rng = np.random.default_rng(12)
        for n in range(2, 101):
            for trim in (0.0, 0.1, 0.25, 0.49):
                a = rng.lognormal(0.0, 1.5, n)
                if n % 3 == 0:
                    a = np.round(a, 1)  # ties
                assert _trim_mean(a, trim) == float(trim_mean(a, trim))


@pytest.fixture
def generators(monkeypatch):
    """Every generator ``np.random.default_rng`` makes while the test runs."""
    made, real = [], np.random.default_rng

    def record(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", record)
    return made


def assert_same(a, b):
    """``==`` through datasets, dataclasses, dicts and arrays (NaN equals NaN)."""
    if isinstance(a, SpectralDataset):
        for name in ("ids", "latitudes", "longitudes", "footprints", "land_fractions",
                     "radiance", "metadata"):
            assert_same(getattr(a, name), getattr(b, name))
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            assert_same(a[key], b[key])
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    else:
        assert a == b


def assert_matches_oracle(generators, simulate, oracle, cfg):
    """Dataset, truth and the generator's next draw all equal the row-by-row oracle."""
    ds, truth = simulate(cfg)
    rng = generators[-1]
    ds_o, truth_o, rng_o = oracle(cfg)
    assert_same(ds, ds_o)
    assert_same(truth, truth_o)
    assert np.array_equal(rng.random(4), rng_o.random(4))


class TestGeneratorsMatchRowOracle:
    """The whole-array generators draw what the per-sounding loops drew."""

    @pytest.mark.parametrize("seed", [0, 17, (900, 3), (4, 1, 7)])
    @pytest.mark.parametrize("alpha", [None, 0.37])
    def test_transect(self, generators, seed, alpha):
        for rho in (0.0, 0.01, 0.2):
            for n_sites in (5, 9, 41):
                cfg = SimulationConfig(seed=seed, rho=rho, n_sites=n_sites, alpha=alpha)
                assert_matches_oracle(generators, simulate_mixed_transect,
                                      transect_by_row, cfg)

    @pytest.mark.parametrize("cfg", [
        OrbitConfig(n_tracks=6, seed=1),
        OrbitConfig(n_tracks=9, seed=(3, 4), footprints=(2, 5, 7), grid_length=40,
                    components=(ComponentSpec("gp", 3.0, 5.0, "gaussian"),
                                ComponentSpec("iid", 1.5))),
        OrbitConfig(n_tracks=12, footprints=(4,), seed=4, components=()),
    ], ids=["default", "subset-gaussian", "one-footprint"])
    def test_orbit(self, generators, cfg):
        assert_matches_oracle(generators, simulate_orbit, orbit_by_row, cfg)


class TestGeneratorInputChecks:
    @pytest.mark.parametrize("grid_length", [4, 1, 0, -1])
    def test_short_grid_rejected(self, grid_length):
        with pytest.raises(DataError, match=f"grid_length {grid_length}"):
            simulate_mixed_transect(SimulationConfig(grid_length=grid_length))

    def test_orbit_components_bounded_by_grid(self):
        with pytest.raises(DataError, match="grid_length 4 supports at most 2 components"):
            simulate_orbit(OrbitConfig(n_tracks=3, grid_length=4))

    @pytest.mark.parametrize("call", [
        lambda: simulate_mixed_transect(SimulationConfig(seed=(3, -1))),
        lambda: simulate_orbit(OrbitConfig(n_tracks=3, seed=-2)),
        lambda: run_unmixing_study([0.01], 2, SimulationConfig(seed=-1)),
    ], ids=["transect", "orbit", "study"])
    def test_negative_seed_entry_rejected(self, call):
        with pytest.raises(DataError, match="seed"):
            call()
