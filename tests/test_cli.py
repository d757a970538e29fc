import json

import numpy as np
import pytest

from geofpca.cli import main
from geofpca.dataset import load_dataset, save_dataset
from geofpca.imputation import FitConfig, load_model
from geofpca.simulation import OrbitConfig, SimulationConfig, simulate_mixed_transect, simulate_orbit
from geofpca.validation import run_imputation_experiment, select_centers


def run(args):
    return main([str(a) for a in args])


class TestSimulate:
    def test_reruns_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["simulate", "--rho", 0.05, "--seed", 42, "--out", out1]) == 0
        assert run(["simulate", "--rho", 0.05, "--seed", 42, "--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_truth_record(self, tmp_path):
        out = tmp_path / "sim.csv"
        truth = tmp_path / "truth.json"
        assert run(["simulate", "--rho", 0.02, "--seed", 7, "--out", out,
                    "--truth", truth]) == 0
        doc = json.loads(truth.read_text())
        assert 0.0 <= doc["alpha"] <= 1.0
        assert doc["mixed_id"] == 21

    def test_study_mode(self, tmp_path):
        out = tmp_path / "study.csv"
        assert run(["simulate", "--study", "--rho-grid", "0.01:0.1", "--n-reps", 2,
                    "--seed", 3, "--threads", 2, "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rho,method,trimmed_mean_rel_abs_error,n_reps,seed"
        assert len(lines) == 5


@pytest.fixture(scope="module")
def sim_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "transect.csv"
    ds, truth = simulate_mixed_transect(SimulationConfig(rho=0.02, seed=13))
    save_dataset(ds, path)
    return path, truth


class TestFit:
    def test_fit_writes_model(self, sim_csv, tmp_path):
        path, _ = sim_csv
        out = tmp_path / "model.json"
        code = run(["fit", "--input", path, "--region", "34.9:35.47",
                    "--fve", 0.99, "--n-perm", 99, "--out", out])
        assert code == 0 and out.exists()
        model = load_model(out)
        assert model.basis.K >= 1
        assert model.config.fve_threshold == 0.99

    def test_fit_deterministic(self, sim_csv, tmp_path):
        path, _ = sim_csv
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        args = ["fit", "--input", path, "--region", "34.9:35.47", "--n-perm", 99,
                "--seed", 4]
        assert run(args + ["--out", m1]) == 0
        assert run(args + ["--out", m2]) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_config_file_with_flag_override(self, sim_csv, tmp_path):
        path, _ = sim_csv
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": str(path), "region": "34.9:35.47",
                                   "fve": 0.95, "n_perm": 99}))
        out = tmp_path / "m.json"
        assert run(["fit", "--config", cfg, "--fve", 0.99, "--out", out]) == 0
        assert load_model(out).config.fve_threshold == 0.99  # flag wins

    def test_region_with_no_data_exits_3(self, sim_csv, tmp_path):
        path, _ = sim_csv
        assert run(["fit", "--input", path, "--region", "50:51",
                    "--out", tmp_path / "m.json"]) == 3

    def test_missing_input_exits_3(self, tmp_path):
        assert run(["fit", "--input", tmp_path / "nope.csv",
                    "--out", tmp_path / "m.json"]) == 3

    def test_missing_config_file_exits_3(self, tmp_path):
        assert run(["fit", "--config", tmp_path / "nope.json",
                    "--out", tmp_path / "m.json"]) == 3

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["fit", "--out", "x.json"])
        assert err.value.code == 2

    def test_too_few_permutations_exits_3(self, sim_csv, tmp_path, capsys):
        path, _ = sim_csv
        assert run(["fit", "--input", path, "--region", "34.9:35.47",
                    "--n-perm", 5, "--out", tmp_path / "m.json"]) == 3
        assert "n_perm 5" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_numerical_failure_exits_4(self, tmp_path):
        # Collinear (latitude, longitude) covariates: rank-deficient design.
        lines = ["id,latitude,longitude,footprint,land_fraction,w_1,w_2"]
        for i in range(6):
            lat = 34.0 + 0.01 * i
            lines.append(f"{i + 1},{lat},{2 * lat - 45.0},4,,{40 + i},{41 + i}")
        path = tmp_path / "collinear.csv"
        path.write_text("\n".join(lines) + "\n")
        assert run(["fit", "--input", path, "--covariates", "latlon",
                    "--out", tmp_path / "m.json"]) == 4


class TestImpute:
    def test_single_target(self, sim_csv, tmp_path):
        path, _ = sim_csv
        model_path = tmp_path / "model.json"
        assert run(["fit", "--input", path, "--region", "34.9:35.47",
                    "--n-perm", 99, "--out", model_path]) == 0
        out = tmp_path / "spectra.csv"
        assert run(["impute", "--model", model_path, "--lat", 35.2, "--lon", 23.77,
                    "--footprint", 4, "--out", out]) == 0
        back = load_dataset(out)
        assert len(back) == 1
        assert np.isfinite(back.radiance).all()

    def test_targets_file(self, sim_csv, tmp_path):
        path, _ = sim_csv
        model_path = tmp_path / "model.json"
        run(["fit", "--input", path, "--region", "34.9:35.47", "--n-perm", 99,
             "--out", model_path])
        targets = tmp_path / "targets.csv"
        targets.write_text("id,latitude,longitude,footprint\n"
                           "5,35.1,23.77,4\n9,35.2,23.78,4\n")
        out = tmp_path / "spectra.csv"
        assert run(["impute", "--model", model_path, "--targets", targets,
                    "--out", out]) == 0
        assert len(load_dataset(out)) == 2


    def test_missing_model_exits_3(self, tmp_path, capsys):
        assert run(["impute", "--model", tmp_path / "nope.json", "--lat", 35.2,
                    "--lon", 23.77, "--footprint", 4, "--out", tmp_path / "s.csv"]) == 3
        assert capsys.readouterr().err.count("\n") == 1

    def test_corrupt_model_exits_3(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text('{"format": "geofpca-model", "version": 1')
        assert run(["impute", "--model", model_path, "--lat", 35.2, "--lon", 23.77,
                    "--footprint", 4, "--out", tmp_path / "s.csv"]) == 3
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_numeric_latitude_exits_3(self, sim_csv, tmp_path, capsys):
        path, _ = sim_csv
        model_path = tmp_path / "model.json"
        assert run(["fit", "--input", path, "--region", "34.9:35.47", "--n-perm", 99,
                    "--out", model_path]) == 0
        targets = tmp_path / "targets.csv"
        targets.write_text("id,latitude,longitude,footprint\n"
                           "5,35.1,23.77,4\n9,north,23.78,4\n")
        assert run(["impute", "--model", model_path, "--targets", targets,
                    "--out", tmp_path / "s.csv"]) == 3
        assert "line 3" in capsys.readouterr().err


class TestUnmix:
    def test_end_to_end_with_truth(self, sim_csv, tmp_path):
        path, truth = sim_csv
        out = tmp_path / "fractions.csv"
        summary = tmp_path / "summary.json"
        truth_path = tmp_path / "truth.json"
        truth_path.write_text(json.dumps({str(truth.mixed_id): truth.alpha}))
        code = run(["unmix", "--input", path, "--n-perm", 99, "--out", out,
                    "--summary", summary, "--truth", truth_path])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("id,latitude,longitude,footprint,alpha_unmix,"
                            "alpha_interp,alpha_reported")
        assert len(lines) == 2
        doc = json.loads(summary.read_text())
        assert doc["qualified"] is True
        assert doc["mse_unmixing"] >= 0.0
        assert doc["mse_reported"] >= 0.0


@pytest.fixture(scope="module")
def orbit_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("orbit") / "orbit.csv"
    ds, _ = simulate_orbit(OrbitConfig(n_tracks=14, seed=5, grid_length=24,
                                       track_spacing=0.01))
    save_dataset(ds, path)
    return path, ds


class TestValidate:
    def test_matches_module_level_rerun(self, orbit_csv, tmp_path):
        path, ds = orbit_csv
        out = tmp_path / "report.csv"
        summary = tmp_path / "summary.csv"
        code = run(["validate", "--input", path, "--r", "1:2", "--centers", "auto",
                    "--min-region-count", 8, "--lat-halfwidth", 1.0,
                    "--n-perm", 99, "--threads", 2,
                    "--out", out, "--summary", summary])
        assert code == 0
        centers = select_centers(ds, footprint=4, min_region_count=8,
                                 lat_halfwidth=1.0)
        report = run_imputation_experiment(ds, centers, range(1, 3),
                                           FitConfig(n_perm=99), lat_halfwidth=1.0)
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == len(report.rows)
        for line, row in zip(lines, report.rows):
            cells = line.split(",")
            assert int(cells[0]) == row.center and int(cells[1]) == row.r
            assert abs(float(cells[4]) - row.rrmse_functional) <= 1e-12
            assert abs(float(cells[5]) - row.rrmse_interpolation) <= 1e-12

    def test_no_centers_exits_3(self, orbit_csv, tmp_path):
        path, _ = orbit_csv
        code = run(["validate", "--input", path, "--centers", "auto",
                    "--min-region-count", 100000, "--out", tmp_path / "r.csv"])
        assert code == 3

    def test_explicit_centers(self, orbit_csv, tmp_path):
        path, ds = orbit_csv
        center = select_centers(ds, min_region_count=8, lat_halfwidth=1.0)[0]
        out = tmp_path / "report.csv"
        code = run(["validate", "--input", path, "--r", "1:1",
                    "--centers", str(center), "--lat-halfwidth", 1.0,
                    "--n-perm", 99, "--out", out])
        assert code == 0
        assert len(out.read_text().splitlines()) > 1

    @pytest.mark.parametrize("r", ["1:9", "0:2", "3:2", "a:2", "1.5:2", "4"])
    def test_bad_r_exits_3(self, orbit_csv, tmp_path, capsys, r):
        path, _ = orbit_csv
        assert run(["validate", "--input", path, "--r", r,
                    "--out", tmp_path / "r.csv"]) == 3
        assert "--r expects" in capsys.readouterr().err
