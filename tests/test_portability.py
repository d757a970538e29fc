"""Cross-kernel harness: ``fit`` makes the same decisions on every BLAS kernel.

OpenBLAS picks its kernels by CPU at load time, and ``OPENBLAS_CORETYPE``
overrides that pick for one process. The harness runs ``fit`` on the n = 1200
region three times, on the default kernel, Haswell and Sandybridge, with the
variable set on the child processes only. Every decision must agree exactly:
the exit code, K, the FVE curve's length, the Moran decisions, which fits are
null and the degenerate flags. Every other number must agree within RTOL
relative.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import geofpca
from geofpca.dataset import save_dataset
from geofpca.simulation import OrbitConfig, simulate_orbit

RTOL = 1e-6
CORETYPES = (None, "Haswell", "Sandybridge")  # None: the kernel OpenBLAS picks

# Runs the CLI, then reports the OpenBLAS kernel in use (empty where the
# library is not numpy's OpenBLAS).
CHILD = """
import ctypes, sys
import numpy._core._multiarray_umath as umath
from geofpca.cli import main
rc = main(sys.argv[1:])
corename = getattr(ctypes.CDLL(umath.__file__), "scipy_openblas_get_corename64_", None)
if corename is not None:
    corename.restype = ctypes.c_char_p
    print(corename().decode())
sys.exit(rc)
"""


def run_fit(csv: Path, out: Path, coretype: str | None) -> tuple[int, str, dict]:
    """Exit code, kernel name and model document of ``fit`` in a fresh process."""
    src = str(Path(geofpca.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, "-c", CHILD, "fit", "--input", str(csv),
                           "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=300)
    kernel = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc.returncode, kernel, json.loads(out.read_text())


def differences(a, b, where="model") -> list[str]:
    """Where two JSON documents differ: in structure, null-ness, any non-float
    value, or a float by more than RTOL relative."""
    if isinstance(a, float) and isinstance(b, float):
        if not math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0):
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


def decisions(doc: dict) -> tuple:
    return (doc["basis"]["K"], len(doc["basis"]["fve_curve"]),
            [t["dependent"] for t in doc["tests"]],
            [f is None for f in doc["fits"]],
            [f["degenerate"] for f in doc["fits"] if f is not None])


def test_same_decisions_and_numbers_on_every_kernel(tmp_path):
    ds, _ = simulate_orbit(OrbitConfig(n_tracks=150, track_spacing=0.004))
    assert len(ds) == 1200
    save_dataset(ds, tmp_path / "region.csv")
    rc, _, ref = run_fit(tmp_path / "region.csv", tmp_path / "model.json", None)
    assert rc == 0
    for coretype in CORETYPES[1:]:
        rc_c, kernel, doc = run_fit(tmp_path / "region.csv",
                                    tmp_path / f"model-{coretype}.json", coretype)
        assert kernel in ("", coretype)  # the override reached the child
        assert rc_c == rc
        assert decisions(doc) == decisions(ref), coretype
        assert differences(doc, ref) == [], coretype
