"""Record the reference outputs the benchmark checks every run against.

Usage: python3 perfbench/make_reference.py [WORKLOAD...]

Runs the CLI on every choice a benchmark seed can make (all pool targets, all
qualifying centers, all study seeds) and writes ``reference/<workload>.json``.
The committed files were made at the commit that introduced the benchmark;
re-recording them on a later commit would let a changed answer pass, so do it
only for a deliberate, documented change of the program's numbers.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import sys
import time

from run import HERE, ROOT, Runner
from workloads import STUDY_REPS, cell_stats, read_csv

TARGET_POOL_SEED = 2101
TARGETS_PER_FOOTPRINT = 16
STUDY_SEEDS = range(1, 41)


def _cli(runner: Runner, args: list[str]) -> None:
    done = runner.cli(args)
    if done.rc != 0:
        raise RuntimeError(f"geofpca {' '.join(args)}: exit {done.rc}\n{done.stderr}")


def target_pool() -> list[dict]:
    """In-window targets on every footprint, off the sounding locations."""
    rng = random.Random(TARGET_POOL_SEED)
    targets = []
    for j in range(8):
        for _ in range(TARGETS_PER_FOOTPRINT):
            lat = rng.uniform(35.0, 35.596)
            lon = 23.8 + 0.008 * (j - 3.5) + 0.1 * (lat - 35.0) + rng.uniform(-0.002, 0.002)
            targets.append({"id": len(targets) + 1, "latitude": round(lat, 6),
                            "longitude": round(lon, 6), "footprint": j + 1})
    return targets


def region_impute(runner: Runner) -> dict:
    work = runner.work
    _cli(runner, ["fit", "--input", str(work / "region.csv"), "--out", str(work / "m.json")])
    model = json.loads((work / "m.json").read_text())
    targets = target_pool()
    lines = ["id,latitude,longitude,footprint"]
    lines += [f"{t['id']},{t['latitude']!r},{t['longitude']!r},{t['footprint']}"
              for t in targets]
    (work / "t.csv").write_text("\n".join(lines) + "\n")
    _cli(runner, ["impute", "--model", str(work / "m.json"), "--targets",
                  str(work / "t.csv"), "--out", str(work / "s.csv")])
    waves = model["wavelengths"]
    spectra = {row["id"]: [float(f"{float(row[f'w_{w}']):.9g}") for w in waves]
               for row in read_csv(work / "s.csv")}
    columns = list(zip(*spectra.values()))
    return {"model": {"K": model["basis"]["K"], "eigenvalues": model["basis"]["eigenvalues"]},
            "wavelengths": waves, "targets": targets, "spectra": spectra,
            "spectrum_scale": statistics.mean(statistics.pstdev(c) for c in columns)}


def crosstrack_validate(runner: Runner) -> dict:
    work = runner.work
    centers = json.loads((work / "centers.json").read_text())["qualifying"]
    _cli(runner, ["validate", "--input", str(work / "orbit.csv"), "--centers",
                  ":".join(map(str, centers)), "--threads", "1", "--n-perm", "199",
                  "--r", "1:8", "--out", str(work / "r.csv")])
    rows: dict[str, list[dict]] = {}
    for row in read_csv(work / "r.csv"):
        rows.setdefault(f"{row['center']}:{row['r']}", []).append(row)
    cells = {f"{c}:{r}": cell_stats(rows.get(f"{c}:{r}", []))
             for c in centers for r in range(1, 9)}
    empty = [k for k, v in cells.items() if v["rows"] == 0]
    if empty:
        raise RuntimeError(f"cells failed at the reference commit: {empty}")
    return {"centers": centers, "cells": cells}


def unmix_study(runner: Runner) -> dict:
    studies = {}
    for seed in STUDY_SEEDS:
        out = runner.work / f"study-{seed}.csv"
        _cli(runner, ["simulate", "--study", "--n-reps", str(STUDY_REPS), "--seed",
                      str(seed), "--threads", "1", "--out", str(out)])
        studies[str(seed)] = [{"rho": float(r["rho"]), "method": r["method"],
                               "value": float(r["trimmed_mean_rel_abs_error"]),
                               "n_reps": int(r["n_reps"])} for r in read_csv(out)]
    return {"studies": studies}


RECORDERS = {"region-impute": region_impute, "crosstrack-validate": crosstrack_validate,
            "unmix-study": unmix_study}


def main(names: list[str]) -> int:
    for name in names or list(RECORDERS):
        work = ROOT / ".perfbench_work" / f"reference-{name}"
        work.mkdir(parents=True, exist_ok=True)
        runner = Runner(work, time.perf_counter() + 3600.0)
        done = runner.run([sys.executable, str(HERE / "inputs.py"), name, str(work)])
        if done.rc != 0:
            raise RuntimeError(done.stderr)
        ref = RECORDERS[name](runner)
        shutil.rmtree(work)
        (HERE / "reference" / f"{name}.json").write_text(json.dumps(ref, sort_keys=True) + "\n")
        print(f"reference for {name} written")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
