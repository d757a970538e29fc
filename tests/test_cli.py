import builtins
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geofpca
from geofpca.cli import IMPUTE_MARGIN_DEG, build_parser, main
from geofpca.dataset import load_dataset, save_dataset
from geofpca.imputation import FitConfig, load_model
from geofpca.simulation import OrbitConfig, SimulationConfig, simulate_mixed_transect, simulate_orbit
from geofpca.validation import run_imputation_experiment, select_centers


# A two-worker pool where the machine allows it: --threads is at most the CPU count.
POOL = min(2, os.cpu_count() or 1)


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
                    "--seed", 3, "--threads", POOL, "--out", out]) == 0
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


    def test_out_of_region_target_exits_3(self, sim_csv, tmp_path, capsys):
        path, _ = sim_csv
        model_path = tmp_path / "model.json"
        assert run(["fit", "--input", path, "--region", "34.9:35.47", "--n-perm", 99,
                    "--out", model_path]) == 0
        lo, hi = load_model(model_path).region
        out = tmp_path / "spectra.csv"
        assert run(["impute", "--model", model_path, "--lat", 10.0, "--lon", 23.77,
                    "--footprint", 4, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "target 0 at latitude 10.0" in err
        targets = tmp_path / "targets.csv"
        for lat in (lo - IMPUTE_MARGIN_DEG - 1e-6, hi + IMPUTE_MARGIN_DEG + 1e-6):
            targets.write_text("id,latitude,longitude,footprint\n"
                               f"5,35.1,23.77,4\n9,{lat!r},23.78,4\n")
            assert run(["impute", "--model", model_path, "--targets", targets,
                        "--out", out]) == 3
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and f"target 9 at latitude {lat!r}" in err
        assert not out.exists()
        targets.write_text("id,latitude,longitude,footprint\n"
                           f"5,{lo - IMPUTE_MARGIN_DEG!r},23.77,4\n"
                           f"9,{hi + IMPUTE_MARGIN_DEG!r},23.78,4\n")
        assert run(["impute", "--model", model_path, "--targets", targets,
                    "--out", out]) == 0

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
                    "--n-perm", 99, "--threads", POOL,
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


class TestNonNumericConfigValue:
    """A config value that does not convert exits 3 with one line naming its key."""

    def run_with_config(self, tmp_path, capsys, args, doc):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(doc))
        code = run(args + ["--config", config])
        return code, capsys.readouterr().err

    def assert_names_key(self, code, err, key):
        assert code == 3
        assert err.count("\n") == 1
        assert f"config key '{key}'" in err

    def test_fit(self, sim_csv, tmp_path, capsys):
        path, _ = sim_csv
        code, err = self.run_with_config(
            tmp_path, capsys, ["fit", "--input", path, "--out", tmp_path / "m.json"],
            {"n_perm": "lots"})
        self.assert_names_key(code, err, "n_perm")
        assert not (tmp_path / "m.json").exists()

    def test_impute_checked_before_the_model_is_read(self, tmp_path, capsys):
        code, err = self.run_with_config(
            tmp_path, capsys, ["impute", "--model", tmp_path / "nope.json",
                               "--lon", 23.77, "--footprint", 4,
                               "--out", tmp_path / "s.csv"],
            {"lat": "north"})
        self.assert_names_key(code, err, "lat")

    def test_unmix(self, sim_csv, tmp_path, capsys):
        path, _ = sim_csv
        code, err = self.run_with_config(
            tmp_path, capsys, ["unmix", "--input", path, "--out", tmp_path / "f.csv"],
            {"land_hi": "high"})
        self.assert_names_key(code, err, "land_hi")

    @pytest.mark.parametrize("doc, key", [
        ({"study": True, "n_reps": "many"}, "n_reps"),
        ({"study": True, "rho_grid": "0.01:x"}, "rho_grid"),
        ({"rho": [0.05]}, "rho"),
    ])
    def test_simulate(self, tmp_path, capsys, doc, key):
        code, err = self.run_with_config(
            tmp_path, capsys, ["simulate", "--out", tmp_path / "s.csv"], doc)
        self.assert_names_key(code, err, key)

    @pytest.mark.parametrize("doc, key", [
        ({"lat_halfwidth": "wide"}, "lat_halfwidth"),
        ({"centers": "12:twelve"}, "centers"),
        ({"threads": "2.5"}, "threads"),
    ])
    def test_validate(self, orbit_csv, tmp_path, capsys, doc, key):
        path, _ = orbit_csv
        code, err = self.run_with_config(
            tmp_path, capsys, ["validate", "--input", path, "--r", "1:1",
                               "--out", tmp_path / "r.csv"], doc)
        self.assert_names_key(code, err, key)


def run_python(code, *args, **env):
    """Standard output of ``python -c code args`` in a fresh process, with ``env`` set."""
    src = str(Path(geofpca.__file__).resolve().parents[1])
    full_env = dict(os.environ, **env)
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, full_env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                         capture_output=True, text=True, env=full_env, timeout=300,
                         check=True)
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    loaded = run_python("import geofpca.cli, sys; "
                        "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert loaded == "[]"


def scipy_loaded_by(*args):
    """(exit code, scipy modules loaded) of one CLI command in a fresh process."""
    out = run_python("import sys; from geofpca.cli import main; code = main(sys.argv[1:]); "
                     "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))",
                     *args)
    return out.splitlines()[-1]


def test_impute_loads_no_scipy(sim_csv, tmp_path):
    path, _ = sim_csv
    model = tmp_path / "model.json"
    assert run(["fit", "--input", path, "--region", "34.9:35.47", "--n-perm", 99,
                "--out", model]) == 0
    assert scipy_loaded_by("impute", "--model", model, "--lat", 35.2, "--lon", 23.77,
                           "--footprint", 4, "--out", tmp_path / "s.csv") == "0 []"


@pytest.mark.parametrize("command", ["fit", "unmix", "validate", "simulate-study"])
def test_command_loads_no_scipy(sim_csv, orbit_csv, tmp_path, command):
    transect, orbit = sim_csv[0], orbit_csv[0]
    out = tmp_path / "out.csv"
    args = {
        "fit": ["fit", "--input", transect, "--region", "34.9:35.47", "--n-perm", 99],
        "unmix": ["unmix", "--input", transect, "--n-perm", 99],
        "validate": ["validate", "--input", orbit, "--r", "1:1", "--min-region-count", 8,
                     "--lat-halfwidth", 1.0, "--n-perm", 99, "--threads", 1],
        "simulate-study": ["simulate", "--study", "--rho-grid", "0.05", "--n-reps", 2,
                           "--seed", 3, "--threads", 1],
    }[command]
    assert scipy_loaded_by(*args, "--out", out) == "0 []"


def test_validate_bytes_independent_of_openblas_threads(tmp_path):
    # 240 soundings: large enough that an unpinned OpenBLAS threads its kernels.
    path = tmp_path / "orbit.csv"
    ds, _ = simulate_orbit(OrbitConfig(n_tracks=30, seed=5, grid_length=24,
                                       track_spacing=0.004))
    save_dataset(ds, path)
    center = select_centers(ds, min_region_count=8, lat_halfwidth=1.0)[0]
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"report-{threads}.csv"
        run_python("import sys; from geofpca.cli import main; sys.exit(main(sys.argv[1:]))",
                   "validate", "--input", path, "--r", "2:2", "--centers", center,
                   "--lat-halfwidth", 1.0, "--n-perm", 99, "--threads", 1,
                   "--out", out, OPENBLAS_NUM_THREADS=threads)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("scipy_first", [True, False],
                         ids=["scipy-loaded-before", "scipy-loaded-after"])
def test_pin_blas_leaves_every_openblas_at_one_thread(scipy_first):
    code = "\n".join([
        "import json, numpy",
        "import scipy.linalg" if scipy_first else "",
        "from geofpca.parallel import _loaded_openblas, pin_blas",
        "pin_blas()",
        "import scipy.linalg",
        "print(json.dumps([getattr(lib, 'scipy_openblas_get_num_threads' + suffix)()",
        "                  for lib, suffix in _loaded_openblas()]))",
    ])
    counts = json.loads(run_python(code, OPENBLAS_NUM_THREADS="2"))
    if not counts:
        pytest.skip("no OpenBLAS with the scipy_openblas symbols is loaded")
    assert counts == [1] * len(counts)


class TestThreadsBound:
    """--threads is 1 to the CPU count; only the exit code is tested, so no pool starts."""

    def args(self, command, tmp_path):
        extra = ["--study"] if command == "simulate" else []
        return no_input_args(command, tmp_path) + extra

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("threads", [0, -3, (os.cpu_count() or 1) + 1])
    def test_out_of_range_flag_exits_2(self, tmp_path, capsys, command, threads):
        with pytest.raises(SystemExit) as err:
            run(self.args(command, tmp_path) + ["--threads", threads])
        assert err.value.code == 2
        assert "argument --threads" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("threads", [0, -3, (os.cpu_count() or 1) + 1])
    def test_out_of_range_config_exits_3(self, tmp_path, capsys, command, threads):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"threads": threads}))
        assert run(self.args(command, tmp_path) + ["--config", config]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "config key 'threads'" in err

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_bounds_are_inclusive(self, command):
        for threads in (1, os.cpu_count() or 1):
            args = build_parser().parse_args([command, "--threads", str(threads)])
            assert args.threads == threads


class TestUnmixTruthFile:
    """A bad --truth file exits 3 with one line before any output is written."""

    @pytest.mark.parametrize("content", [None, '{"21": 0.4', '{"21": "most"}'],
                             ids=["missing", "invalid-json", "non-numeric"])
    def test_rejected_up_front(self, sim_csv, tmp_path, capsys, content):
        path, _ = sim_csv
        truth = tmp_path / "truth.json"
        if content is not None:
            truth.write_text(content)
        out = tmp_path / "f.csv"
        assert run(["unmix", "--input", path, "--n-perm", 99, "--out", out,
                    "--summary", tmp_path / "s.json", "--truth", truth]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "truth file" in err
        assert not out.exists()


def no_input_args(command, tmp_path):
    """Flags for ``command`` with a missing input, so nothing is fitted.

    ``simulate`` reads no input; with these flags it writes its default transect.
    """
    missing, out = tmp_path / "missing.csv", tmp_path / "out.csv"
    return {
        "fit": ["fit", "--input", missing, "--out", out],
        "impute": ["impute", "--model", missing, "--lat", 35.2, "--lon", 23.77,
                   "--footprint", 4, "--out", out],
        "unmix": ["unmix", "--input", missing, "--out", out],
        "simulate": ["simulate", "--out", out],
        "validate": ["validate", "--input", missing, "--out", out],
    }[command]


def schema_keys(command):
    """The config keys ``command`` declares: the dests of its parser's options."""
    schema = build_parser().parse_args([command]).schema
    return sorted(a.dest for a in schema._actions if a.dest not in ("help", "config"))


class TestConfigSchema:
    """The parser is the config schema of every command."""

    def run_with_config(self, tmp_path, capsys, args, doc):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(doc))
        code = run(args + ["--config", config])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [
        ("fit", "fve_threshold"), ("impute", "n_perm"), ("unmix", "centers"),
        ("simulate", "fve"), ("validate", "land_hi"),
    ])
    def test_undeclared_key_exits_3(self, tmp_path, capsys, command, key):
        assert key not in schema_keys(command)
        code, err = self.run_with_config(tmp_path, capsys,
                                         no_input_args(command, tmp_path), {key: 0.5})
        assert code == 3
        assert err.count("\n") == 1 and f"config key '{key}'" in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["fit", "unmix", "validate"])
    @pytest.mark.parametrize("key", ["covariates", "weights"])
    def test_bad_choice_from_file_exits_3(self, tmp_path, capsys, command, key):
        code, err = self.run_with_config(tmp_path, capsys,
                                         no_input_args(command, tmp_path), {key: "bogus"})
        assert code == 3
        assert err.count("\n") == 1 and f"config key '{key}'" in err

    @pytest.mark.parametrize("command", ["fit", "impute", "unmix", "simulate", "validate"])
    def test_config_file_opened_once(self, tmp_path, monkeypatch, command):
        config = tmp_path / "c.json"
        config.write_text("{}")
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if str(file) == str(config):
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        run(no_input_args(command, tmp_path) + ["--config", config])
        assert len(opened) == 1

    @pytest.mark.parametrize("command, key", [("impute", "targets"), ("unmix", "truth")])
    def test_path_with_nul_byte_exits_3(self, tmp_path, capsys, command, key):
        code, err = self.run_with_config(tmp_path, capsys,
                                         no_input_args(command, tmp_path), {key: "a\0b"})
        assert code == 3 and err.count("\n") == 1

    def test_switch_takes_a_json_boolean(self, tmp_path, capsys):
        code, err = self.run_with_config(tmp_path, capsys,
                                         no_input_args("simulate", tmp_path),
                                         {"study": "false"})
        assert code == 3 and "config key 'study'" in err

    def test_fit_bounds_checked_for_every_command(self, tmp_path, capsys):
        args = no_input_args("validate", tmp_path) + ["--fve", 1.5]
        assert run(args) == 3
        assert "fve_threshold 1.5" in capsys.readouterr().err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False,
                                                          allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner,
                                                                max_size=3),
    max_leaves=6)


@pytest.mark.parametrize("command", ["fit", "impute", "unmix", "validate"])
def test_any_config_object_exits_2_or_3(tmp_path, capsys, command):
    # threads is left out: a drawn value could ask for a large worker pool.
    keys = st.sampled_from([k for k in schema_keys(command) if k != "threads"])
    config = tmp_path / "c.json"
    args = no_input_args(command, tmp_path) + ["--config", config]

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(keys | st.text(), JSON_VALUES, max_size=6))
    def prop(doc):
        config.write_text(json.dumps(doc))
        try:
            code = run(args)
        except SystemExit as e:
            code = e.code
        capsys.readouterr()
        assert code in (2, 3)

    prop()


class TestBadDatasetFile:
    """A malformed CSV or sidecar exits 3 with one line naming the file."""

    @pytest.mark.parametrize("sidecar", ["{bad", "[1, 2]", '{"grid_length": "two"}',
                                         '{"grid_length": 120.9}'],
                             ids=["not-json", "not-an-object", "non-integer-grid-length",
                                  "fractional-grid-length"])
    def test_bad_sidecar(self, sim_csv, tmp_path, capsys, sidecar):
        path, _ = sim_csv
        data = tmp_path / "data.csv"
        data.write_bytes(path.read_bytes())
        (tmp_path / "data.csv.json").write_text(sidecar)
        assert run(["fit", "--input", data, "--out", tmp_path / "m.json"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "data.csv.json" in err

    def test_csv_not_utf8(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes("id,latitude,longitude,footprint,land_fraction,w_1\n"
                         "1,34.0,23.8,4,,caf\xe9\n".encode("latin-1"))
        assert run(["fit", "--input", data, "--out", tmp_path / "m.json"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "latin1.csv" in err and "UTF-8" in err


class TestFileErrors:
    """An output or input path the system refuses exits 3 with one line naming it."""

    def assert_names(self, capsys, path):
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"cannot access {path}:" in err

    def test_input_is_a_directory(self, tmp_path, capsys):
        assert run(["fit", "--input", tmp_path, "--out", tmp_path / "m.json"]) == 3
        self.assert_names(capsys, tmp_path)

    @pytest.mark.parametrize("flag", ["--out", "--truth"])
    def test_simulate_writers(self, tmp_path, capsys, flag):
        out = {"--out": tmp_path / "s.csv", "--truth": tmp_path / "t.json"}
        out[flag] = tmp_path / "missing" / "x"
        assert run(["simulate", "--out", out["--out"], "--truth", out["--truth"]]) == 3
        self.assert_names(capsys, out[flag])

    def test_study_writer(self, tmp_path, capsys):
        out = tmp_path / "missing" / "study.csv"
        assert run(["simulate", "--study", "--rho-grid", "0.01", "--n-reps", 2,
                    "--threads", 1, "--out", out]) == 3
        self.assert_names(capsys, out)

    def test_fit_and_impute_writers(self, sim_csv, tmp_path, capsys):
        path, _ = sim_csv
        out = tmp_path / "missing" / "m.json"
        assert run(["fit", "--input", path, "--region", "34.9:35.47", "--n-perm", 99,
                    "--out", out]) == 3
        self.assert_names(capsys, out)
        model = tmp_path / "m.json"
        assert run(["fit", "--input", path, "--region", "34.9:35.47", "--n-perm", 99,
                    "--out", model]) == 0
        capsys.readouterr()
        out = tmp_path / "missing" / "s.csv"
        assert run(["impute", "--model", model, "--lat", 35.2, "--lon", 23.77,
                    "--footprint", 4, "--out", out]) == 3
        self.assert_names(capsys, out)

    @pytest.mark.parametrize("flag", ["--out", "--summary"])
    def test_unmix_writers(self, sim_csv, tmp_path, capsys, flag):
        path, _ = sim_csv
        out = {"--out": tmp_path / "f.csv", "--summary": tmp_path / "s.json"}
        out[flag] = tmp_path / "missing" / "x"
        assert run(["unmix", "--input", path, "--n-perm", 99, "--out", out["--out"],
                    "--summary", out["--summary"]]) == 3
        self.assert_names(capsys, out[flag])

    @pytest.mark.parametrize("flag", ["--out", "--summary"])
    def test_validate_writers(self, orbit_csv, tmp_path, capsys, flag):
        path, ds = orbit_csv
        center = select_centers(ds, min_region_count=8, lat_halfwidth=1.0)[0]
        out = {"--out": tmp_path / "r.csv", "--summary": tmp_path / "s.csv"}
        out[flag] = tmp_path / "missing" / "x"
        assert run(["validate", "--input", path, "--r", "1:1", "--centers", center,
                    "--lat-halfwidth", 1.0, "--n-perm", 99, "--threads", 1,
                    "--out", out["--out"], "--summary", out["--summary"]]) == 3
        self.assert_names(capsys, out[flag])


def test_closed_standard_output_exits_3(sim_csv, tmp_path):
    """A reader that closes standard output at once gets one line naming it, no traceback."""
    path, _ = sim_csv
    src = str(Path(geofpca.__file__).resolve().parents[1])
    path_dirs = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_dirs))
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts: every write fails
    try:
        out = subprocess.run([sys.executable, "-m", "geofpca.cli", "fit", "--input", str(path),
                              "--region", "34.9:35.47", "--n-perm", "99",
                              "--out", str(tmp_path / "m.json")],
                             stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                             timeout=300)
    finally:
        os.close(write_end)
    assert out.returncode == 3
    assert out.stderr.count("\n") == 1 and "standard output" in out.stderr
    assert "None" not in out.stderr and "Traceback" not in out.stderr


def test_benchmark_tracer_targets_resolve():
    """Every function the benchmark's launcher wraps exists in the library."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "launcher.py"
    spec = importlib.util.spec_from_file_location("perfbench_launcher", path)
    launcher = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launcher)
    for module, name, how in launcher.TRACED:
        assert callable(getattr(importlib.import_module(f"geofpca.{module}"), name)), \
            f"geofpca.{module}.{name}"
        assert how in ("span", "count")
    krige_score = importlib.import_module("geofpca.geostat").krige_score
    assert importlib.import_module("geofpca.imputation").krige_score is krige_score
