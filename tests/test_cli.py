import argparse
import builtins
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geofpca
from geofpca import cli, parallel, simulation
from geofpca.cli import IMPUTE_MARGIN_DEG, build_parser, main
from geofpca.dataset import SpectralDataset, load_dataset, save_dataset
from geofpca.errors import DataError
from geofpca.fpca import ScoreField
from geofpca.geostat import EmpiricalVariogram, VariogramFit, krige_score
from geofpca.imputation import FitConfig, load_model
from geofpca.parallel import map_tasks
from geofpca.simulation import (ComponentSpec, OrbitConfig, SimulationConfig, StudyResult,
                                simulate_mixed_transect, simulate_orbit)
from geofpca.validation import run_imputation_experiment, select_centers


# A two-worker pool where the machine allows it: --threads is at most the CPU count.
POOL = min(2, os.cpu_count() or 1)


def run(args):
    return main([str(a) for a in args])


def _warn_after(step, task):
    """Warn twice with the same message after (3 - task) * step seconds."""
    time.sleep((3 - task) * step)
    for _ in range(2):
        warnings.warn(f"task {task}")
    return task


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

    def test_study_prints_failed_replicates(self, tmp_path, capsys, monkeypatch):
        """Each failed replicate gets one line after the summary; the CSV counts the rest."""
        real, calls = simulation.unmix_region, []

        def second_call_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise DataError("forced failure")
            return real(*args)

        monkeypatch.setattr(simulation, "unmix_region", second_call_fails)
        out = tmp_path / "study.csv"
        assert run(["simulate", "--study", "--rho-grid", "0.01", "--n-reps", 3,
                    "--seed", 3, "--threads", 1, "--out", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].endswith("(1 failures)")
        assert lines[-1] == "failed replicate: rho 0.01, rep 1: forced failure"
        assert [row.split(",")[3] for row in out.read_text().splitlines()[1:]] == ["2", "2"]


    @pytest.mark.parametrize("grid_length", [4, -1])
    def test_short_grid_exits_3(self, tmp_path, capsys, grid_length):
        assert run(["simulate", "--grid-length", grid_length,
                    "--out", tmp_path / "s.csv"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"grid_length {grid_length}" in err

    @pytest.mark.parametrize("flag, value", [("rho", "nan"), ("rho", "inf"), ("alpha", "nan"),
                                             ("alpha", 1.5), ("alpha", -0.2)])
    def test_bad_rho_or_alpha_exits_3(self, tmp_path, capsys, flag, value):
        assert run(["simulate", f"--{flag}", value, "--out", tmp_path / "s.csv"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"data error: {flag} ")
        assert not (tmp_path / "s.csv").exists()


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

    def test_too_many_permutations_exits_3(self, tmp_path, capsys):
        # Refused while the configuration is built, before the input is read.
        assert run(["fit", "--input", tmp_path / "nope.csv", "--n-perm", 100000,
                    "--out", tmp_path / "m.json"]) == 3
        assert "n_perm 100000 > 99999" in capsys.readouterr().err

    def test_overflowing_covariance_fails_in_one_line(self, orbit_csv, tmp_path, capsys):
        """Radiance near 1e160 overflows the error covariance: one stderr line, no warnings."""
        _, ds = orbit_csv
        big = tmp_path / "big.csv"
        save_dataset(SpectralDataset(ds.ids, ds.latitudes, ds.longitudes, ds.footprints,
                                     ds.land_fractions, ds.radiance * 1e160), big)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would escape main as an exception
            assert run(["fit", "--input", big, "--out", tmp_path / "m.json"]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("numerical failure: [error-covariance] footprint ")
        assert err.endswith(": error covariance is not finite\n")
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
        assert run(["impute", "--model", model_path, "--lat", 35.05, "--lon", 500,
                    "--footprint", 4, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "longitude 500.0 outside (-180, 180]" in err
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


@pytest.fixture(scope="module")
def orbit40():
    """A 40-track orbit whose soundings span longitudes 23.772..23.8865."""
    return simulate_orbit(OrbitConfig(seed=42, rho=0.003, n_tracks=40))[0]


class TestImputeLongitude:
    """impute refuses a target more than IMPUTE_MARGIN_DEG outside the smallest arc
    that holds the fitted longitudes, an arc that may cross the antimeridian."""

    @pytest.mark.parametrize("shift", [0.0, 156.17], ids=["plain", "antimeridian"])
    def test_margin_around_fitted_arc(self, orbit40, tmp_path, capsys, shift):
        def wrap(lon):  # into (-180, 180]
            return 180.0 - (180.0 - lon) % 360.0

        ds = orbit40
        save_dataset(SpectralDataset(ds.ids, ds.latitudes, wrap(ds.longitudes + shift),
                                     ds.footprints, ds.land_fractions, ds.radiance),
                     tmp_path / "orbit.csv")
        model, out = tmp_path / "m.json", tmp_path / "spectra.csv"
        assert run(["fit", "--input", tmp_path / "orbit.csv", "--n-perm", 99,
                    "--out", model]) == 0
        west, east = (float(f(ds.longitudes)) + shift for f in (np.min, np.max))
        if shift:
            assert wrap(west) > 179.9 and wrap(east) < -179.9
        inside = (west - IMPUTE_MARGIN_DEG + 1e-6, (west + east) / 2,
                  east + IMPUTE_MARGIN_DEG - 1e-6)
        targets = tmp_path / "targets.csv"
        targets.write_text("id,latitude,longitude,footprint\n" + "".join(
            f"{i},35.2,{wrap(lon)!r},4\n" for i, lon in enumerate(inside)))
        assert run(["impute", "--model", model, "--targets", targets, "--out", out]) == 0
        assert len(out.read_text().splitlines()) == 1 + len(inside)
        out.unlink()
        for lon in (west - IMPUTE_MARGIN_DEG - 1e-6, east + IMPUTE_MARGIN_DEG + 1e-6,
                    83.78 + shift, -156.22 + shift):
            lon = wrap(lon)
            assert run(["impute", "--model", model, "--lat", 35.2, "--lon", lon,
                        "--footprint", 4, "--out", out]) == 3
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert f"target 0 at longitude {lon!r} is outside the fitted longitudes" in err
        assert not out.exists()


@pytest.fixture(scope="module")
def model_doc(sim_csv, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    assert run(["fit", "--input", sim_csv[0], "--region", "34.9:35.47", "--n-perm", 99,
                "--out", path]) == 0
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def screened_doc(orbit_csv, tmp_path_factory):
    """A model whose screen found component 0 independent (null fit) and 1 dependent."""
    path = tmp_path_factory.mktemp("screened") / "model.json"
    assert run(["fit", "--input", orbit_csv[0], "--n-perm", 99, "--out", path]) == 0
    doc = json.loads(path.read_text())
    assert [t["dependent"] for t in doc["tests"]] == [False, True]
    assert [f is None for f in doc["fits"]] == [True, False]
    return doc


def _first_fit(doc):
    return next(f for f in doc["fits"] if f is not None)


class TestMalformedModel:
    """A model file that cannot krige what it claims exits 3 with one line."""

    MUTATIONS = {
        "fits-short": lambda d: d["fits"].pop(),
        "tests-short": lambda d: d["tests"].pop(),
        "sill-string": lambda d: _first_fit(d).update(sill="x"),
        "sill-negative": lambda d: _first_fit(d).update(sill=-1.0),
        "range-zero": lambda d: _first_fit(d).update(range_km=0.0),
        "p-value-out-of-range": lambda d: d["tests"].__setitem__(0, {
            "component": 0, "statistic": 0.5, "p_value": 2.0, "dependent": True,
            "n_perm": 99, "alpha": 0.05}),
        "taus-short": lambda d: d["scores"]["taus"]["4"].pop(),
        "taus-missing": lambda d: d["scores"]["taus"].pop("4"),
        "latitude-95": lambda d: d["scores"]["latitudes"].__setitem__(0, 95.0),
        "footprint-9": lambda d: d["scores"]["footprints"].__setitem__(0, 9),
        "region-reversed": lambda d: d["region"].reverse(),
        "score-null": lambda d: d["scores"]["values"][str(d["scores"]["sounding_ids"][0])]
        .__setitem__(0, None),
        "eigenvector-null": lambda d: d["basis"]["eigenvectors"].__setitem__(0, None),
        "taus-null": lambda d: d["scores"]["taus"]["4"].__setitem__(0, None),
        "taus-negative": lambda d: d["scores"]["taus"]["4"].__setitem__(0, -1.0),
        "fve-null": lambda d: d["basis"]["fve_curve"].__setitem__(0, None),
        "fve-decreasing": lambda d: d["basis"]["fve_curve"].insert(0, 1.5),
        "fve-short-of-one": lambda d: d["basis"]["fve_curve"].__setitem__(-1, 0.999),
        "fve-empty": lambda d: d["basis"]["fve_curve"].clear(),
        "scores-empty": lambda d: d["scores"].update(sounding_ids=[], values={}, latitudes=[],
                                                     longitudes=[], footprints=[]),
        "model-gaussian": lambda d: _first_fit(d).update(model="gaussian"),
        "fit-weight-scheme-unknown": lambda d: _first_fit(d).update(weight_scheme="h2"),
        "config-weight-scheme-unknown": lambda d: d["config"].update(weight_scheme="h2"),
    }

    @pytest.mark.parametrize("name", MUTATIONS)
    def test_exits_3(self, model_doc, tmp_path, capsys, name):
        doc = json.loads(json.dumps(model_doc))
        self.MUTATIONS[name](doc)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "s.csv"
        assert run(["impute", "--model", model_path, "--lat", 35.2, "--lon", 23.77,
                    "--footprint", 4, "--out", out]) == 3, name
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{model_path}: malformed model file (" in err
        assert not out.exists()

    def test_null_tau_of_kriged_component_exits_3(self, screened_doc, tmp_path, capsys):
        doc = json.loads(json.dumps(screened_doc))
        doc["scores"]["taus"]["4"][1] = None
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        assert run(["impute", "--model", model_path, "--lat", 35.1, "--lon", 23.8,
                    "--footprint", 4, "--out", tmp_path / "s.csv"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{model_path}: malformed model file (" in err
        assert "taus for footprint 4" in err

    def test_unmutated_model_loads(self, model_doc, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model_doc))
        assert run(["impute", "--model", model_path, "--lat", 35.2, "--lon", 23.77,
                    "--footprint", 4, "--out", tmp_path / "s.csv"]) == 0


def _doc_paths(node, path=()):
    """(path, value) for a JSON document node and every node below it."""
    yield path, node
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _doc_paths(child, path + (key,))


def assert_load_rules(model):
    """What every loaded model satisfies: K entries per component, finite
    arrays, finite taus >= 0, an FVE curve that rises to 1, and a null fit
    exactly where the screen found independence."""
    k = model.basis.K
    assert len(model.fits) == len(model.tests) == len(model.basis.eigenvalues) == k
    for a in (model.scores.scores, model.basis.eigenvectors, model.basis.eigenvalues):
        assert np.isfinite(a).all()
    for tau in model.scores.taus.values():
        assert tau.shape == (k,) and np.isfinite(tau).all() and (tau >= 0.0).all()
    fve = model.basis.fve_curve
    assert np.isfinite(fve).all() and (np.diff(fve) >= 0.0).all()
    assert abs(fve[-1] - 1.0) <= 1e-9
    assert ([f is None for f in model.fits]
            == [t is not None and not t.dependent for t in model.tests])


def test_any_model_mutation_exits_0_3_or_4(model_doc, screened_doc, tmp_path, capsys):
    """One edit of a saved model: impute exits 0, 3 or 4 with at most one line,
    and every model it accepts satisfies the load rules."""
    model_path, out = tmp_path / "model.json", tmp_path / "s.csv"

    def check(original, lat, lon):
        paths = list(_doc_paths(original))
        lists = [p for p, v in paths if isinstance(v, list)]
        numbers = [p for p, v in paths if type(v) in (int, float)]
        flags = [p for p, v in paths if type(v) is bool]
        edits = (st.tuples(st.sampled_from(["drop", "append"]), st.sampled_from(lists))
                 | st.tuples(st.sampled_from(["string", "null", "negative", "zero"]),
                             st.sampled_from(numbers))
                 | st.tuples(st.just("flip"), st.sampled_from(flags)))

        @settings(max_examples=80, deadline=None)
        @given(edits)
        def prop(edit):
            kind, path = edit
            doc = json.loads(json.dumps(original))
            node = doc
            for key in path[:-1]:
                node = node[key]
            value = node[path[-1]]
            if kind == "drop":
                del value[-1:]
            elif kind == "append":
                value.append(value[-1] if value else 0)
            elif kind == "flip":
                node[path[-1]] = not value
            else:
                node[path[-1]] = {"string": "x", "null": None, "negative": -1 - abs(value),
                                  "zero": 0}[kind]
            model_path.write_text(json.dumps(doc))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run(["impute", "--model", model_path, "--lat", lat, "--lon", lon,
                            "--footprint", 4, "--out", out])
            err = capsys.readouterr().err
            assert code in (0, 3, 4), (edit, err)
            assert err.count("\n") <= 1 and not caught, (edit, err, caught)
            assert not err.startswith("warning: "), (edit, err)
            if code == 0:
                assert_load_rules(load_model(model_path))

        prop()

    check(model_doc, 35.2, 23.77)
    check(screened_doc, 35.1, 23.8)


class TestFitListIsTheKrigingDecision:
    """A null fit means the score mean is predicted; a fit stored for an
    independent component is dropped at load."""

    @staticmethod
    def impute(doc, tmp_path, name):
        model_path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        model_path.write_text(json.dumps(doc))
        code = run(["impute", "--model", model_path, "--lat", 35.1, "--lon", 23.8,
                    "--footprint", 4, "--out", out])
        return code, model_path, out

    def test_fit_of_independent_component_is_dropped(self, screened_doc, tmp_path):
        doc = json.loads(json.dumps(screened_doc))
        doc["fits"][0] = doc["fits"][1]  # as older model files carry
        code, _, saved = self.impute(screened_doc, tmp_path, "saved")
        assert code == 0
        code, model_path, extra = self.impute(doc, tmp_path, "extra-fit")
        assert code == 0
        assert extra.read_bytes() == saved.read_bytes()
        model = load_model(model_path)
        assert model.fits[0] is None and model.fits[1] is not None

    def test_dependent_component_without_fit_exits_3(self, screened_doc, tmp_path, capsys):
        doc = json.loads(json.dumps(screened_doc))
        doc["fits"][1] = None
        code, model_path, out = self.impute(doc, tmp_path, "no-fit")
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "component 1 is kriged but has no variogram fit" in err
        assert not out.exists()


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

    def test_reports_fractions_at_0_or_1(self, tmp_path, capsys):
        path, out = tmp_path / "transect.csv", tmp_path / "fractions.csv"
        # This transect's unmixing fraction is clamped to 0; its interpolation one is not.
        ds, _ = simulate_mixed_transect(SimulationConfig(rho=0.2, seed=3))
        save_dataset(ds, path)
        assert run(["unmix", "--input", path, "--n-perm", 99, "--out", out]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        unmixing, interpolation = (sum(float(row[col]) in (0.0, 1.0) for row in rows)
                                   for col in (4, 5))
        assert (unmixing, interpolation) == (1, 0)
        m = len(rows)
        assert (f"fractions at 0 or 1: unmixing {unmixing} of {m}, "
                f"interpolation {interpolation} of {m}\n") in capsys.readouterr().out

    @pytest.mark.parametrize("flags, message", [
        (["--delta0", -0.05], "delta0 -0.05 must be finite and > 0"),
        (["--land-hi", 0.2, "--water-lo", 0.8],
         "water_lo 0.8 and land_hi 0.2 need 0 <= water_lo <= land_hi <= 1"),
        (["--ref-length", 0], "ref_length 0.0 must be finite and > 0")])
    def test_bad_window_setting_exits_3(self, tmp_path, capsys, flags, message):
        path, out = tmp_path / "transect.csv", tmp_path / "fractions.csv"
        assert run(["simulate", "--seed", 3, "--out", path]) == 0
        capsys.readouterr()
        assert run(["unmix", "--input", path, *flags, "--out", out]) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not out.exists()


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

    def test_unknown_center_exits_3(self, orbit_csv, tmp_path, capsys):
        path, ds = orbit_csv
        center = select_centers(ds, min_region_count=8, lat_halfwidth=1.0)[0]
        out = tmp_path / "report.csv"
        assert run(["validate", "--input", path, "--r", "1:2",
                    "--centers", f"{center}:999999", "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "sounding id 999999 not in dataset" in err
        assert not out.exists()

    def test_repeated_center_exits_3(self, orbit_csv, tmp_path, capsys):
        path, ds = orbit_csv
        center = select_centers(ds, min_region_count=8, lat_halfwidth=1.0)[0]
        out = tmp_path / "report.csv"
        assert run(["validate", "--input", path, "--r", "1:1", "--lat-halfwidth", 1.0,
                    "--centers", f"{center}:{center}", "--out", out]) == 3
        err = capsys.readouterr().err
        assert err == f"data error: center {center} is given twice\n"
        assert not out.exists()

    def test_pool_warnings_in_task_order(self, orbit_csv, tmp_path, monkeypatch, capfd):
        """Under cli.main's warning set-up, stderr is the same at --threads 1 and 2,
        although the pool's later tasks finish first."""
        def command(cfg):
            assert map_tasks(_warn_after, 0.1, list(range(4)), cfg["threads"]) == [0, 1, 2, 3]
            return 0

        monkeypatch.setattr(cli, "cmd_validate", command)
        err = {}
        for threads in (1, POOL):
            assert run(["validate", "--input", orbit_csv[0], "--out", tmp_path / "r.csv",
                        "--threads", threads]) == 0
            err[threads] = capfd.readouterr().err
        assert err[1] == err[POOL] == "".join(
            f"warning: task {t}\n" * 2 for t in range(4))

    def test_failed_cells_printed(self, orbit_csv, tmp_path, capsys):
        path, ds = orbit_csv
        center = select_centers(ds, min_region_count=8, lat_halfwidth=1.0)[0]
        out = tmp_path / "report.csv"
        assert run(["validate", "--input", path, "--r", "1:2", "--centers", str(center),
                    "--lat-halfwidth", 1.0, "--max-lat-span", 0.01, "--n-perm", 99,
                    "--out", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("config validate: ")
        assert "0 rows, 2 failed cells" in lines[1]
        for line, r in zip(lines[2:], (1, 2)):
            assert line.startswith(f"failed cell: center {center}, r {r}: ")
            assert "homogeneity guard" in line
        assert len(lines) == 4

    @pytest.mark.parametrize("flags, message", [
        (["--centers", 141, "--lat-halfwidth", -0.1], "lat_halfwidth -0.1 must be finite and > 0"),
        (["--min-region-count", -1], "min_region_count -1 must be >= 0")])
    def test_bad_window_setting_exits_3(self, orbit40, tmp_path, capsys, flags, message):
        path, out = tmp_path / "orbit.csv", tmp_path / "report.csv"
        save_dataset(orbit40, path)
        assert run(["validate", "--input", path, *flags, "--out", out]) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not out.exists()

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


def test_cli_import_loads_no_process_pool():
    loaded = run_python("import geofpca.cli, sys; print(sorted(m for m in sys.modules "
                        "if m == 'multiprocessing' or m == 'concurrent.futures.process'))")
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


@pytest.mark.parametrize("command", ["fit", "impute", "validate"])
def test_command_loads_no_numpy_ma(sim_csv, orbit_csv, tmp_path, command):
    transect, orbit = sim_csv[0], orbit_csv[0]
    model = tmp_path / "model.json"
    fit = ["fit", "--input", transect, "--region", "34.9:35.47", "--n-perm", 99]
    if command == "impute":
        assert run(fit + ["--out", model]) == 0
    args = {
        "fit": fit,
        "impute": ["impute", "--model", model, "--lat", 35.2, "--lon", 23.77,
                   "--footprint", 4],
        "validate": ["validate", "--input", orbit, "--r", "1:1", "--min-region-count", 8,
                     "--lat-halfwidth", 1.0, "--n-perm", 99, "--threads", 1],
    }[command]
    out = run_python("import sys; from geofpca.cli import main; code = main(sys.argv[1:]); "
                     "print(code, 'numpy.ma' in sys.modules)",
                     *args, "--out", tmp_path / "out.csv")
    assert out.splitlines()[-1] == "0 False"


# The geofpca modules registered in sys.modules but never executed. A lazy module
# stays a LazyLoader subclass of ModuleType until its first attribute access, so
# the check reads only each module's type.
UNEXECUTED = ("sorted(m.removeprefix('geofpca.') for m in sys.modules "
              "if m.startswith('geofpca.') and type(sys.modules[m]) is not types.ModuleType)")


def test_package_import_executes_no_module():
    """``import geofpca`` registers every submodule but cli and loads no numpy."""
    out = run_python("import sys, types; import geofpca; "
                     f"print({UNEXECUTED}, 'numpy' in sys.modules, 'geofpca.cli' in sys.modules)")
    package = Path(geofpca.__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem not in ("__init__", "cli"))
    assert out == f"{modules} False False"


@pytest.mark.parametrize("command, unexecuted", [
    ("fit", ["parallel", "simulation", "unmixing", "validation"]),
    ("impute", ["parallel", "simulation", "unmixing", "validation"]),
    ("validate", ["simulation", "unmixing"]),
    ("unmix", ["parallel", "simulation", "validation"]),
    ("simulate-study", ["validation"]),
])
def test_command_executes_only_its_modules(sim_csv, orbit_csv, tmp_path, command,
                                           unexecuted):
    transect, orbit = sim_csv[0], orbit_csv[0]
    model = tmp_path / "model.json"
    fit = ["fit", "--input", transect, "--region", "34.9:35.47", "--n-perm", 99]
    if command == "impute":
        assert run(fit + ["--out", model]) == 0
    args = {
        "fit": fit,
        "impute": ["impute", "--model", model, "--lat", 35.2, "--lon", 23.77,
                   "--footprint", 4],
        "validate": ["validate", "--input", orbit, "--r", "1:1", "--min-region-count", 8,
                     "--lat-halfwidth", 1.0, "--n-perm", 99, "--threads", 1],
        "unmix": ["unmix", "--input", transect, "--n-perm", 99],
        "simulate-study": ["simulate", "--study", "--rho-grid", "0.05", "--n-reps", 2,
                           "--seed", 3, "--threads", 1],
    }[command]
    out = run_python("import sys, types; from geofpca.cli import main; "
                     f"code = main(sys.argv[1:]); print(code, {UNEXECUTED})",
                     *args, "--out", tmp_path / "out.csv")
    assert out.splitlines()[-1] == f"0 {unexecuted}"


def test_validate_bytes_independent_of_openblas_threads(tmp_path):
    # 240 soundings: large enough that an unpinned OpenBLAS threads its kernels.
    # Two cells, so --threads 2 forks two workers.
    path = tmp_path / "orbit.csv"
    ds, _ = simulate_orbit(OrbitConfig(n_tracks=30, seed=5, grid_length=24,
                                       track_spacing=0.004))
    save_dataset(ds, path)
    center = select_centers(ds, min_region_count=8, lat_halfwidth=1.0)[0]
    reports = []
    for blas, threads in (("1", 1), ("2", 1), ("2", POOL)):
        out = tmp_path / f"report-{blas}-{threads}.csv"
        run_python("import sys; from geofpca.cli import main; sys.exit(main(sys.argv[1:]))",
                   "validate", "--input", path, "--r", "1:2", "--centers", center,
                   "--lat-halfwidth", 1.0, "--n-perm", 99, "--threads", threads,
                   "--out", out, OPENBLAS_NUM_THREADS=blas)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_cli_import_leaves_one_blas_thread():
    """Under OPENBLAS_NUM_THREADS=2, importing the CLI and then scipy.linalg leaves
    the process one OS thread and every OpenBLAS copy one BLAS thread."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("counts OS threads in /proc/self/task (Linux)")
    code = "\n".join([
        "import ctypes, json, os, sys",
        "import geofpca.cli",
        "import scipy.linalg",
        "counts = []",
        "for module, suffix in (('numpy._core._multiarray_umath', '64_'),",
        "                       ('scipy.linalg._fblas', '')):",
        "    lib = ctypes.CDLL(sys.modules[module].__file__)",
        "    get = getattr(lib, 'scipy_openblas_get_num_threads' + suffix, None)",
        "    if get is not None:",
        "        counts.append(get())",
        "print(json.dumps([len(os.listdir('/proc/self/task')), counts]))",
    ])
    os_threads, counts = json.loads(run_python(code, OPENBLAS_NUM_THREADS="2"))
    assert os_threads == 1
    if not counts:
        pytest.skip("no OpenBLAS with the scipy_openblas symbols is loaded")
    assert counts == [1] * len(counts)


def test_conftest_refuses_numpy_loaded_first(tmp_path):
    """A plugin that imports numpy ends the session with one line, before any test."""
    (tmp_path / "numpy_first.py").write_text("import numpy\n")
    tests = Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(tmp_path), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "pytest", "-p", "numpy_first",
                           "-p", "no:cacheprovider", "--collect-only", "-q",
                           str(tests / "conftest.py")],
                          capture_output=True, text=True, env=env, timeout=300,
                          cwd=tests.parent)
    assert done.returncode == pytest.ExitCode.USAGE_ERROR
    assert done.stderr == ("Exit: numpy was imported before tests/conftest.py could set "
                           "OPENBLAS_NUM_THREADS=1\n")


def _add(shared, task):
    return shared + task


def test_pool_has_one_worker_per_task_up_to_threads(monkeypatch):
    """map_tasks starts min(threads, tasks) workers, and none for one task."""
    import concurrent.futures
    sizes = []

    class Pool:  # runs the workers' code in this process
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(parallel, "_worker_task", None)
    assert map_tasks(_add, 10, [1], threads=2) == [11]
    assert map_tasks(_add, 10, [1, 2, 3], threads=4) == [11, 12, 13]
    assert map_tasks(_add, 10, [1, 2, 3], threads=2) == [11, 12, 13]
    assert sizes == [3, 2]


class TestListFlags:
    """A malformed --rho-grid, --centers or --region flag is a usage error naming the flag."""

    @pytest.mark.parametrize("args, flag", [
        (["simulate", "--study", "--rho-grid", "0.1:abc"], "--rho-grid"),
        (["validate", "--centers", "1:x"], "--centers"),
        (["fit", "--region", "1:x"], "--region"),
    ])
    def test_bad_flag_exits_2(self, tmp_path, capsys, args, flag):
        with pytest.raises(SystemExit) as err:
            run(args + ["--out", tmp_path / "out.csv"])
        assert err.value.code == 2
        assert f"argument {flag}: expected colon-separated" in capsys.readouterr().err

    def test_parsed_values(self):
        parse = build_parser().parse_args
        assert parse(["validate", "--centers", "auto"]).centers == "auto"
        assert parse(["validate", "--centers", "12:30"]).centers == [12, 30]
        assert parse(["simulate", "--rho-grid", "0.01:0.2"]).rho_grid == [0.01, 0.2]
        assert parse(["fit", "--region", "34.9:35.47"]).region == [34.9, 35.47]


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


@pytest.mark.parametrize("command", ["fit", "fit-config", "unmix", "validate",
                                     "simulate", "study"])
def test_negative_seed_exits_3(sim_csv, orbit_csv, tmp_path, capsys, command):
    transect, orbit, out = sim_csv[0], orbit_csv[0], tmp_path / "out"
    config = tmp_path / "c.json"
    config.write_text('{"seed": -5}')
    fit = ["fit", "--input", transect, "--region", "34.9:35.47", "--n-perm", 99,
           "--out", out]
    args = {
        "fit": fit + ["--seed", -1],
        "fit-config": fit + ["--config", config],
        "unmix": ["unmix", "--input", transect, "--n-perm", 99, "--seed", -1,
                  "--out", out],
        "validate": ["validate", "--input", orbit, "--r", "1:1", "--min-region-count", 8,
                     "--lat-halfwidth", 1.0, "--n-perm", 99, "--threads", 1,
                     "--seed", -1, "--out", out],
        "simulate": ["simulate", "--seed", -1, "--out", out],
        "study": ["simulate", "--study", "--rho-grid", "0.01", "--n-reps", 2,
                  "--threads", 1, "--seed", -1, "--out", out],
    }[command]
    assert run(args) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "seed -" in err and "Traceback" not in err


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

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "7.5", "-0.1"])
    def test_fraction_outside_unit_interval(self, sim_csv, tmp_path, capsys, value):
        path, truth = sim_csv
        truth_path, out, summary = (tmp_path / name for name in ("t.json", "f.csv", "s.json"))
        bad = truth.mixed_id + 1
        truth_path.write_text(f'{{"{truth.mixed_id}": 0.5, "{bad}": {value}}}')
        assert run(["unmix", "--input", path, "--n-perm", 99, "--out", out,
                    "--summary", summary, "--truth", truth_path]) == 3
        err = capsys.readouterr().err
        assert err == (f"data error: truth file {truth_path}: sounding {bad}: fraction "
                       f"{float(value)!r} outside [0, 1]\n")
        assert not out.exists() and not summary.exists()


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

    def test_csv_with_bom_fits_as_without(self, orbit_csv, tmp_path):
        """A CSV saved as "UTF-8 with BOM" (its header then reads \\ufeffid,...) fits."""
        path, _ = orbit_csv
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        models = []
        for data in (path, bom):
            models.append(tmp_path / f"{data.stem}.json")
            assert run(["fit", "--input", data, "--n-perm", 99, "--out", models[-1]]) == 0
        assert models[0].read_bytes() == models[1].read_bytes()


class TestByteOrderMark:
    """Every text input saved as "UTF-8 with BOM" reads as the same file without it."""

    @staticmethod
    def with_bom(path):
        bom = path.with_name("bom-" + path.name)
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return bom

    @pytest.mark.parametrize("bom_file", ["model", "targets"])
    def test_model_and_targets(self, model_doc, tmp_path, bom_file):
        files = {"model": tmp_path / "model.json", "targets": tmp_path / "targets.csv"}
        files["model"].write_text(json.dumps(model_doc, sort_keys=True) + "\n")
        files["targets"].write_text("id,latitude,longitude,footprint\n"
                                    "5,35.1,23.77,4\n9,35.2,23.78,4\n")
        outputs = []
        for bom in (False, True):
            if bom:
                files[bom_file] = self.with_bom(files[bom_file])
            outputs.append(tmp_path / f"spectra-{bom}.csv")
            assert run(["impute", "--model", files["model"], "--targets", files["targets"],
                        "--out", outputs[-1]]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    def test_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rho": 0.05, "seed": 42}))
        outputs = []
        for path in (config, self.with_bom(config)):
            outputs.append(tmp_path / f"{path.stem}.csv")
            assert run(["simulate", "--config", path, "--out", outputs[-1]]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    def test_truth(self, sim_csv, tmp_path):
        path, truth = sim_csv
        truth_path = tmp_path / "truth.json"
        truth_path.write_text(json.dumps({str(truth.mixed_id): truth.alpha}))
        summaries = []
        for truth_file in (truth_path, self.with_bom(truth_path)):
            summaries.append(tmp_path / f"summary-{truth_file.stem}.json")
            assert run(["unmix", "--input", path, "--n-perm", 99, "--truth", truth_file,
                        "--out", tmp_path / "f.csv", "--summary", summaries[-1]]) == 0
        assert summaries[0].read_bytes() == summaries[1].read_bytes()
        assert "mse_unmixing" in json.loads(summaries[0].read_text())


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


def benchmark_launcher():
    """perfbench/launcher.py, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "launcher.py"
    spec = importlib.util.spec_from_file_location("perfbench_launcher", path)
    launcher = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launcher)
    return launcher


def test_benchmark_tracer_targets_resolve():
    """Every function the benchmark's launcher wraps exists in the library."""
    launcher = benchmark_launcher()
    for module, name, how in launcher.TRACED:
        assert callable(getattr(importlib.import_module(f"geofpca.{module}"), name)), \
            f"geofpca.{module}.{name}"
        assert how in ("span", "count")
    krige_score = importlib.import_module("geofpca.geostat").krige_score
    assert importlib.import_module("geofpca.imputation").krige_score is krige_score


def test_benchmark_selftest_passes():
    script = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         timeout=300, cwd=script.parents[1])
    assert out.returncode == 0, out.stderr


def test_benchmark_krige_measure_binds_krige_score():
    """The launcher's measure reads krige_score's arguments by name, as its tracer binds them."""
    measure = benchmark_launcher().MEASURES["geostat.krige_score"]
    n = 12
    rng = np.random.default_rng(3)
    field = ScoreField(np.arange(1, n + 1), rng.standard_normal((n, 1)),
                       35.0 + 0.01 * np.arange(n), np.full(n, 23.8), np.full(n, 4),
                       {4: np.array([0.1])})
    fit = VariogramFit(1.0, 10.0, "nh2", 0.0, False,
                       EmpiricalVariogram(np.array([1.0, 2.0]), np.array([10, 10]),
                                          np.array([0.5, 0.8])))
    signature = inspect.signature(krige_score)
    for args, kwargs, nbytes in [(((35.05, 23.8), field, 0, fit), {}, 8 * n * n),
                                 (((35.05, 23.8), field, 0, None), {"dependent": False}, 0)]:
        assert isinstance(krige_score(*args, **kwargs), float)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        assert measure(bound) == {"matrix_bytes": nbytes}


@pytest.mark.parametrize("workload, files", [("region-impute", ["region.csv"]),
                                             ("crosstrack-validate",
                                              ["orbit.csv", "centers.json"])])
def test_benchmark_inputs_build(workload, files, tmp_path):
    """The benchmark's input writer runs against the library (a nonzero exit raises)."""
    script = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    run_python("import runpy, sys; sys.argv = sys.argv[1:]; "
               "runpy.run_path(sys.argv[0], run_name='__main__')",
               script, workload, tmp_path)
    assert all((tmp_path / name).stat().st_size > 0 for name in files)


class TestOutOfMemory:
    """An allocation the machine refuses exits 3 with one line, never a traceback."""

    def test_memory_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise MemoryError("Unable to allocate 1.82 TiB for an array")

        monkeypatch.setattr(simulation, "simulate_mixed_transect", refuse)
        out = tmp_path / "s.csv"
        assert run(["simulate", "--out", out]) == 3
        err = capsys.readouterr().err
        assert err == "data error: out of memory: Unable to allocate 1.82 TiB for an array\n"
        assert not out.exists()

    def test_huge_bin_count_refused_before_the_input_is_read(self, tmp_path, capsys):
        assert run(["fit", "--input", tmp_path / "missing.csv", "--n-bins", 10**15,
                    "--out", tmp_path / "m.json"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"n_bins {10**15} outside 1..10000" in err


class TestWarnings:
    """Each warning a command raises is one ``warning: <message>`` line on stderr."""

    def test_noise_only_region_warns_once_per_footprint(self, tmp_path, capsys):
        # The criterion-3 orbit's 24 soundings in 35.30..35.33 hold no signal above
        # rounding, so every footprint's score-noise variances are clamped.
        path = tmp_path / "orbit.csv"
        save_dataset(simulate_orbit(OrbitConfig(
            seed=42, rho=0.003, components=(ComponentSpec("gp", 12.0, 8.0),
                                            ComponentSpec("iid", 1.0),
                                            ComponentSpec("iid", 0.5))))[0], path)
        assert run(["fit", "--input", path, "--region", "35.30:35.33", "--n-perm", 99,
                    "--out", tmp_path / "m.json"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: error:{p}: clamped negative score-noise variances to 0"
            for p in range(1, 9)]

    def test_repeats_kept_in_order_before_the_error(self, tmp_path, capsys, monkeypatch):
        def warn_then_fail(path):
            for text in ("same", "other", "same"):
                warnings.warn(text)
            raise DataError("stop")

        monkeypatch.setattr(cli, "load_model", warn_then_fail)
        assert run(["impute", "--model", tmp_path / "m.json", "--lat", 35.2, "--lon", 23.77,
                    "--footprint", 4, "--out", tmp_path / "s.csv"]) == 3
        assert capsys.readouterr().err == ("warning: same\nwarning: other\nwarning: same\n"
                                           "data error: stop\n")


class TestRegionFlag:
    """--region is parsed by the parser: a usage error as a flag, a data error as a key."""

    @pytest.mark.parametrize("region", ["35.0", "1:2:3"])
    def test_not_two_bounds_exits_2(self, tmp_path, capsys, region):
        with pytest.raises(SystemExit) as err:
            run(no_input_args("fit", tmp_path) + ["--region", region])
        assert err.value.code == 2
        assert "argument --region: expected LO:HI" in capsys.readouterr().err

    def test_bad_config_value_exits_3_naming_the_key(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"region": "1:x"}))
        assert run(no_input_args("fit", tmp_path) + ["--config", config]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "config key 'region'" in err

    def test_echoed_as_a_list(self, tmp_path, capsys):
        run(no_input_args("fit", tmp_path) + ["--region", "34.9:35.47"])
        assert echoed(capsys.readouterr().out)["region"] == [34.9, 35.47]


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def echoed(out: str) -> dict:
    """The settings of a ``config <command>:`` line, read by a strict JSON parser."""
    line = out.splitlines()[0]
    assert line.startswith("config ")
    return json.loads(line.split(": ", 1)[1], parse_constant=reject_constant)


def float_flags():
    """(command, flag) for every float flag of every command."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(command, a.option_strings[0]) for command, p in sub.choices.items()
            for a in p._actions if a.type is float]


class TestStrictEcho:
    """The config echo is strict JSON: a non-finite float is echoed as its text."""

    @pytest.mark.parametrize("command, flag", float_flags())
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_float_flag(self, tmp_path, capsys, command, flag, value):
        # Every run stops at a refused value or the missing input: nothing is fitted.
        assert run(no_input_args(command, tmp_path) + [f"{flag}={value}"]) == 3
        key = flag[2:].replace("-", "_")
        assert echoed(capsys.readouterr().out)[key] == value

    def test_list_flag(self, tmp_path, capsys):
        assert run(["simulate", "--study", "--rho-grid=-0.1:nan", "--n-reps", 2,
                    "--threads", 1, "--out", tmp_path / "study.csv"]) == 3
        assert echoed(capsys.readouterr().out)["rho_grid"] == [-0.1, "nan"]

    def test_config_file_reads_the_echo_back(self, tmp_path, capsys):
        assert run(["simulate", "--rho=inf", "--out", tmp_path / "s.csv"]) == 3
        first = capsys.readouterr().out.splitlines()[0]
        config = tmp_path / "c.json"
        config.write_text(json.dumps(echoed(first)))
        assert run(["simulate", "--config", config]) == 3
        assert capsys.readouterr().out.splitlines()[0] == first


@pytest.fixture
def list_flag_runs(sim_csv, orbit_csv, tmp_path):
    """For each colon-list flag, a run that sets it, and the files the run writes."""
    transect, orbit = sim_csv[0], orbit_csv[0]
    center = select_centers(orbit_csv[1], min_region_count=8, lat_halfwidth=1.0)[0]
    out, summary = tmp_path / "out", tmp_path / "summary.csv"
    return {
        "region": (["fit", "--input", transect, "--region", "34.9:35.47", "--n-perm", 99,
                    "--out", out], [out]),
        "centers": (["validate", "--input", orbit, "--r", "1:1", "--centers", f"{center}",
                     "--lat-halfwidth", 1.0, "--n-perm", 99, "--threads", 1,
                     "--out", out, "--summary", summary], [out, summary]),
        "rho_grid": (["simulate", "--study", "--rho-grid", "0.01:0.1", "--n-reps", 2,
                      "--seed", 3, "--threads", 1, "--out", out], [out]),
    }


@pytest.mark.parametrize("flag", ["region", "centers", "rho_grid"])
def test_echo_as_config_reruns_the_command(list_flag_runs, tmp_path, capsys, flag):
    """A config line written back as --config prints the same line and writes the
    same files: a JSON list is read as its items joined by ':'."""
    args, outputs = list_flag_runs[flag]
    assert run(args) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert isinstance(echoed(first)[flag], list)
    written = [path.read_bytes() for path in outputs]
    for path in outputs:
        path.unlink()
    config = tmp_path / "echo.json"
    config.write_text(json.dumps(echoed(first)))
    assert run([args[0], "--config", config]) == 0
    assert capsys.readouterr().out.splitlines()[0] == first
    assert [path.read_bytes() for path in outputs] == written


@pytest.mark.parametrize("value", [[1, "x"], [], [[34.9, 35.47]], [34.9]])
def test_bad_list_in_config_exits_3(tmp_path, capsys, value):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"region": value}))
    assert run(no_input_args("fit", tmp_path) + ["--config", config]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("data error: config key 'region': ")


class TestIgnoredFlags:
    """A flag the other settings leave unread exits 3 naming it, before any file is touched."""

    @pytest.mark.parametrize("case", ["impute-targets", "study", "transect", "validate-centers"])
    def test_refused(self, tmp_path, capsys, case):
        missing, out, truth = tmp_path / "missing", tmp_path / "out.csv", tmp_path / "t.json"
        args, flags = {
            "impute-targets": (["impute", "--model", missing, "--targets", missing,
                                "--lat", 99, "--lon", 500, "--footprint", 42],
                               "--lat, --lon, --footprint"),
            "study": (["simulate", "--study", "--rho", 7, "--alpha", 0.3, "--truth", truth],
                      "--rho, --alpha, --truth"),
            "transect": (["simulate", "--rho-grid", "0.1", "--n-reps", 2, "--threads", 1],
                         "--rho-grid, --n-reps, --threads"),
            "validate-centers": (["validate", "--input", missing, "--centers", 197,
                                  "--footprint", 3, "--min-region-count", 100000],
                                 "--footprint, --min-region-count"),
        }[case]
        assert run(args + ["--out", out]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"data error: {flags} would be ignored" in err
        assert not out.exists() and not truth.exists()

    def test_refused_from_a_config_file(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"targets": str(tmp_path / "missing")}))
        assert run(no_input_args("impute", tmp_path) + ["--config", config]) == 3
        assert "--lat, --lon, --footprint would be ignored" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["fit", "impute", "validate", "study", "study-threads"])
    def test_benchmark_commands_are_not_refused(self, tmp_path, capsys, monkeypatch, case):
        """The benchmark's own flag sets; missing inputs stop them before any work."""
        missing, out = tmp_path / "missing", tmp_path / "out.csv"
        targets = tmp_path / "targets.csv"
        targets.write_text("id,latitude,longitude,footprint\n5,35.1,23.77,4\n")
        monkeypatch.setattr(simulation, "run_unmixing_study", lambda *a, **k: StudyResult([], []))
        args, code = {
            "fit": (["fit", "--input", missing], 3),
            "impute": (["impute", "--model", missing, "--targets", targets], 3),
            "validate": (["validate", "--input", missing, "--centers", "197:198",
                          "--threads", 1, "--n-perm", 199, "--r", "1:8",
                          "--summary", tmp_path / "summary.csv"], 3),
            "study": (["simulate", "--study", "--n-reps", 100, "--seed", 4242], 0),
            "study-threads": (["simulate", "--study", "--n-reps", 100, "--seed", 4242,
                               "--threads", 1], 0),
        }[case]
        assert run(args + ["--out", out]) == code
        assert "would be ignored" not in capsys.readouterr().err
