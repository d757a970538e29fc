"""Cross-kernel harness: every command makes the same decisions on every CPU kernel.

OpenBLAS picks its kernels by CPU at load time, and ``OPENBLAS_CORETYPE``
overrides that pick for one process; numpy's ``NPY_DISABLE_CPU_FEATURES``
turns off its own dispatch groups the same way. The harness runs ``fit`` on
the n = 1200 region, ``impute`` of 16 targets with that model (the kriging
system's blocked factorization and inverses), ``validate`` on the criterion-3
orbit, ``simulate --study`` and ``unmix`` once per setting, all in one child
process, with the variables set on the child only. Every decision must agree exactly with the
default kernel's: the exit codes, K, the FVE curve's length, the Moran
decisions, which fits are null, the degenerate flags, the report rows, the
failed cells, the study's replicate counts and the unmixed ids. Every other
number must agree within RTOL relative.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import geofpca
from geofpca.dataset import save_dataset
from geofpca.simulation import (ComponentSpec, OrbitConfig, SimulationConfig,
                                simulate_mixed_transect, simulate_orbit)
from geofpca.validation import select_centers

RTOL = 1e-6
# numpy 2 names its AVX-512 dispatch groups these; listing only the baseline
# features (AVX512F AVX512CD) leaves the dispatch on.
NO_AVX512 = "AVX512_SPR AVX512_ICL AVX512_CNL AVX512_CLX AVX512_SKX X86_V4"
SETTINGS = {  # the first is the reference: the kernels the libraries pick
    "default": {},
    "Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "Sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "no-avx512": {"NPY_DISABLE_CPU_FEATURES": NO_AVX512},
}

# Runs each CLI command with its standard output captured, then prints one
# JSON line: the exit codes, the outputs, the OpenBLAS kernel in use (empty
# where the library is not numpy's OpenBLAS) and whether numpy dispatches
# its AVX-512 (Skylake) kernels.
CHILD = """
import contextlib, ctypes, io, json, sys
import numpy._core._multiarray_umath as umath
from geofpca.cli import main
codes, stdouts = [], []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        codes.append(main(argv))
    stdouts.append(out.getvalue())
corename = getattr(ctypes.CDLL(umath.__file__), "scipy_openblas_get_corename64_", None)
kernel = ""
if corename is not None:
    corename.restype = ctypes.c_char_p
    kernel = corename().decode()
print(json.dumps({"codes": codes, "stdouts": stdouts, "kernel": kernel,
                  "avx512_skx": bool(umath.__cpu_features__.get("AVX512_SKX"))}))
"""


def run_commands(commands: list[list[str]], setting: dict) -> dict:
    """The child's report for the commands, run in one fresh process."""
    src = str(Path(geofpca.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(setting)
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def differences(a, b, where="output") -> list[str]:
    """Where two parsed documents differ: in structure, null-ness, any non-float
    value, or a float by more than RTOL relative (NaN matches NaN)."""
    if isinstance(a, float) and isinstance(b, float):
        if not (math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)
                or math.isnan(a) and math.isnan(b)):
            return [f"{where}: {a!r} != {b!r}"]
        return []
    if type(a) is not type(b):
        return [f"{where}: {a!r} != {b!r}"]
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return [f"{where}: keys {sorted(a)} != {sorted(b)}"]
        return [d for key in a for d in differences(a[key], b[key], f"{where}.{key}")]
    if isinstance(a, list):
        if len(a) != len(b):
            return [f"{where}: {len(a)} entries != {len(b)}"]
        return [d for i, (x, y) in enumerate(zip(a, b))
                for d in differences(x, y, f"{where}[{i}]")]
    return [] if a == b else [f"{where}: {a!r} != {b!r}"]


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read_csv(path: Path) -> list[list]:
    """A CSV's rows, each cell an int, a float or (else) its text."""
    return [[_cell(c) for c in line.split(",")] for line in path.read_text().splitlines()]


def decisions(doc: dict) -> tuple:
    return (doc["basis"]["K"], len(doc["basis"]["fve_curve"]),
            [t["dependent"] for t in doc["tests"]],
            [f is None for f in doc["fits"]],
            [f["degenerate"] for f in doc["fits"] if f is not None])


def outputs(report: dict, out: Path) -> dict:
    """Every output of one setting's run, parsed, keyed by what it is."""
    validate_out = report["stdouts"][2]
    return {
        "codes": report["codes"],
        "model": json.loads((out / "model.json").read_text()),
        "impute": read_csv(out / "spectra.csv"),
        "validate report": read_csv(out / "report.csv"),
        "validate summary": read_csv(out / "summary.csv"),
        "validate cells": (re.findall(r"\d+ rows, \d+ failed cells", validate_out)
                           + [line for line in validate_out.splitlines()
                              if line.startswith("failed cell:")]),
        "study": read_csv(out / "study.csv"),
        "unmix": read_csv(out / "fractions.csv"),
    }


def test_same_decisions_and_numbers_on_every_kernel(tmp_path):
    region, _ = simulate_orbit(OrbitConfig(n_tracks=150, track_spacing=0.004))
    assert len(region) == 1200
    save_dataset(region, tmp_path / "region.csv")
    # Half a track spacing off 16 soundings spread over the region.
    rows = np.arange(16) * 71 + 10
    (tmp_path / "targets.csv").write_text("id,latitude,longitude,footprint\n" + "".join(
        f"{i + 1},{float(region.latitudes[r]) + 0.002!r},{float(region.longitudes[r])!r},"
        f"{region.footprints[r]}\n" for i, r in enumerate(rows)))
    orbit, _ = simulate_orbit(OrbitConfig(seed=42, rho=0.003,
                                          components=(ComponentSpec("gp", 12.0, 8.0),
                                                      ComponentSpec("iid", 1.0),
                                                      ComponentSpec("iid", 0.5))))
    save_dataset(orbit, tmp_path / "orbit.csv")
    # A center whose +-0.25 deg window lies wholly inside the orbit.
    window = {c: int((np.abs(orbit.latitudes - orbit.latitudes[orbit.index_of(c)])
                      <= 0.25).sum()) for c in select_centers(orbit)}
    center = max(window, key=window.get)
    transect, _ = simulate_mixed_transect(SimulationConfig(rho=0.02, seed=13))
    save_dataset(transect, tmp_path / "transect.csv")

    runs = {}
    for name, setting in SETTINGS.items():
        if name == "no-avx512" and not runs["default"]["avx512_skx"]:
            continue  # numpy dispatches no AVX-512 kernel here anyway
        out = tmp_path / name
        out.mkdir()
        commands = [
            ["fit", "--input", tmp_path / "region.csv", "--out", out / "model.json"],
            ["impute", "--model", out / "model.json", "--targets", tmp_path / "targets.csv",
             "--out", out / "spectra.csv"],
            ["validate", "--input", tmp_path / "orbit.csv", "--centers", center,
             "--r", "1:2", "--n-perm", 199, "--threads", 1,
             "--out", out / "report.csv", "--summary", out / "summary.csv"],
            ["simulate", "--study", "--n-reps", 4, "--seed", 3, "--threads", 1,
             "--out", out / "study.csv"],
            ["unmix", "--input", tmp_path / "transect.csv", "--out", out / "fractions.csv"],
        ]
        report = run_commands([[str(a) for a in c] for c in commands], setting)
        if "OPENBLAS_CORETYPE" in setting:  # the override reached the child
            assert report["kernel"] in ("", setting["OPENBLAS_CORETYPE"])
        if "NPY_DISABLE_CPU_FEATURES" in setting:
            assert not report["avx512_skx"]
        runs[name] = {**report, "outputs": outputs(report, out)}

    ref = runs["default"]["outputs"]
    assert ref["codes"] == [0, 0, 0, 0, 0]
    assert len(ref["impute"]) == 17
    assert len(ref["validate report"]) > 1 and len(ref["unmix"]) == 2
    for name, run in runs.items():
        got = run["outputs"]
        assert got["codes"] == ref["codes"], name
        assert decisions(got["model"]) == decisions(ref["model"]), name
        assert got["validate cells"] == ref["validate cells"], name
        # Also the report rows, the study's n_reps and the unmixed ids: every
        # int and text cell must be equal.
        assert differences(got, ref) == [], name
