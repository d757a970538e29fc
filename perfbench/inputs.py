"""Write one workload's input files with the library's seeded simulators.

Usage: python3 perfbench/inputs.py WORKLOAD OUTDIR

The inputs do not depend on the benchmark seed: the seed only chooses which
targets, centers or study seeds each command gets (see ``workloads.py``), so
reference outputs can be kept for every choice. Prints one JSON line with the
library environment (versions and BLAS build). Needs ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from geofpca.dataset import save_dataset
from geofpca.simulation import ComponentSpec, OrbitConfig, simulate_orbit
from geofpca.validation import select_centers

# n = 150 tracks x 8 footprints = 1200 soundings, latitude span 0.596 deg.
REGION_ORBIT = OrbitConfig(n_tracks=150, track_spacing=0.004)
# The acceptance suite's criterion-3 orbit: 60 tracks x 8 footprints = 480.
CROSSTRACK_ORBIT = OrbitConfig(seed=42, rho=0.003,
                               components=(ComponentSpec("gp", 12.0, 8.0),
                                           ComponentSpec("iid", 1.0),
                                           ComponentSpec("iid", 0.5)))


def write_region_impute(out: Path) -> None:
    ds, _ = simulate_orbit(REGION_ORBIT)
    save_dataset(ds, out / "region.csv")


def write_crosstrack_validate(out: Path) -> None:
    """The orbit, its qualifying centers, and those whose +-0.25 deg window
    lies wholly inside the orbit. A cell's cost grows with its region's size,
    so the benchmark draws only from the latter to give every command the
    same work."""
    ds, _ = simulate_orbit(CROSSTRACK_ORBIT)
    save_dataset(ds, out / "orbit.csv")
    qualifying = select_centers(ds)
    lats = ds.latitudes
    sizes = {c: int((np.abs(lats - ds.get(c).latitude) <= 0.25).sum()) for c in qualifying}
    full = [c for c in qualifying if sizes[c] == max(sizes.values())]
    doc = {"qualifying": qualifying, "full_window": full}
    (out / "centers.json").write_text(json.dumps(doc) + "\n")


def write_unmix_study(out: Path) -> None:
    """The study simulates its own transects from ``--seed``: no input file."""


WRITERS = {
    "region-impute": write_region_impute,
    "crosstrack-validate": write_crosstrack_validate,
    "unmix-study": write_unmix_study,
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv: list[str]) -> int:
    workload, out = argv
    WRITERS[workload](Path(out))
    print(json.dumps(environment(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
