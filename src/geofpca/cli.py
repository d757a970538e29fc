"""Command-line pipeline: fit, impute, unmix, simulate, validate.

Every command is a pure function of its input files, flags, and seed, and
re-runs are byte-identical. A ``--config`` JSON file may carry the same keys
as the flags; explicit flags win. Exit codes: 0 success, 2 usage error,
3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .dataset import load_dataset, save_dataset, select_region
from .errors import DataError, NumericalError
from .geostat import VariogramBins
from .imputation import (FitConfig, fit_geofpca, impute_radiance, load_model,
                         save_model)
from .simulation import (SimulationConfig, run_unmixing_study,
                         simulate_mixed_transect, study_to_csv)
from .unmixing import UnmixConfig, detect_mixed_region, unmix_region
from .validation import (report_to_csv, run_imputation_experiment,
                         select_centers, summary_to_csv)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _merge_config(args: argparse.Namespace, keys: list[str]) -> dict:
    """File config overlaid by explicitly set flags (flags win)."""
    cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as e:
            raise DataError(f"cannot read config file {args.config}: {e}") from None
        if not isinstance(doc, dict):
            raise DataError(f"config file {args.config} must hold a JSON object")
        cfg.update(doc)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _echo(command: str, cfg: dict) -> None:
    print(f"config {command}: " + json.dumps(cfg, sort_keys=True))


def _as(kind: type, value, key: str):
    """``kind(value)`` for the config key ``key``; a bad value is a data error."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise DataError(f"config key {key!r}: expected {kind.__name__}, "
                        f"got {value!r}") from None


def _num(cfg: dict, key: str, kind: type, default=None):
    """``kind(cfg[key])``, or ``default`` when the key is absent or null."""
    val = cfg.get(key)
    return default if val is None else _as(kind, val, key)


def _fit_config(cfg: dict) -> FitConfig:
    fc = FitConfig()
    bins = VariogramBins(
        n_bins=_num(cfg, "n_bins", int, fc.bins.n_bins),
        max_fraction=_num(cfg, "bin_max_fraction", float, fc.bins.max_fraction),
        min_pairs=_num(cfg, "min_pairs", int, fc.bins.min_pairs),
    )
    return FitConfig(
        fve_threshold=_num(cfg, "fve", float, fc.fve_threshold),
        min_coverage=_num(cfg, "min_coverage", float, fc.min_coverage),
        covariates=str(cfg.get("covariates", fc.covariates)),
        max_lat_span=_num(cfg, "max_lat_span", float, fc.max_lat_span),
        max_gap_km=_num(cfg, "max_gap_km", float, math.inf),
        bins=bins,
        weight_scheme=str(cfg.get("weights", fc.weight_scheme)),
        n_perm=_num(cfg, "n_perm", int, fc.n_perm),
        alpha=_num(cfg, "alpha", float, fc.alpha),
        seed=_num(cfg, "seed", int, fc.seed),
    )


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise DataError(f"expected LO:HI, got {text!r}") from None


def _parse_r(text: str) -> range:
    """Cross-track block sizes LO:HI; remove_cross_tracks supports 1..8."""
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        lo = hi = 0
    if not 1 <= lo <= hi <= 8:
        raise DataError(f"--r expects integers LO:HI with 1 <= LO <= HI <= 8, "
                        f"got {text!r}")
    return range(lo, hi + 1)


def _read_targets(path) -> list[tuple[int, float, float, int]]:
    """Rows (id, latitude, longitude, footprint) of a targets CSV."""
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read targets file {path}: {e}") from None
    if not lines or lines[0].split(",")[:4] != ["id", "latitude", "longitude",
                                                "footprint"]:
        raise DataError("targets file must have header id,latitude,longitude,footprint")
    targets = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            sid, lat, lon, fp = line.split(",")[:4]
            targets.append((int(sid), float(lat), float(lon), int(fp)))
        except ValueError:
            raise DataError(f"{path} line {lineno}: expected integer id, numeric "
                            f"latitude and longitude, integer footprint; "
                            f"got {line!r}") from None
    return targets


def cmd_fit(args) -> int:
    keys = ["input", "region", "fve", "min_coverage", "covariates", "max_lat_span",
            "n_bins", "bin_max_fraction", "min_pairs", "weights", "n_perm",
            "alpha", "seed", "out"]
    cfg = _merge_config(args, keys)
    _echo("fit", cfg)
    fit_cfg = _fit_config(cfg)
    ds = load_dataset(cfg["input"])
    if cfg.get("region"):
        ds = select_region(ds, _parse_range(cfg["region"]))
    model = fit_geofpca(ds, fit_cfg)
    save_model(model, cfg["out"])
    kept = len(model.scores.sounding_ids)
    print(f"fitted: wavelengths={model.wavelengths.size} K={model.basis.K} "
          f"soundings={kept} region=[{model.region[0]!r},{model.region[1]!r}]")
    for k in range(model.basis.K):
        t = model.tests[k]
        f = model.fits[k]
        dep = "untested" if t is None else ("dependent" if t.dependent else "independent")
        fit_txt = "none" if f is None else (f"sill={f.sill:.6g} range={f.range_km:.6g}"
                                            + (" degenerate" if f.degenerate else ""))
        pval = "" if t is None else f" p={t.p_value:.4g}"
        print(f"component {k + 1}: eigenvalue={model.basis.eigenvalues[k]:.6g} "
              f"{dep}{pval} variogram[{fit_txt}]")
    print(f"model written to {cfg['out']}")
    return EXIT_OK


def cmd_impute(args) -> int:
    keys = ["model", "lat", "lon", "footprint", "targets", "out"]
    cfg = _merge_config(args, keys)
    _echo("impute", cfg)
    if cfg.get("targets"):
        targets = _read_targets(cfg["targets"])
    else:
        for key in ("lat", "lon", "footprint"):
            if cfg.get(key) is None:
                raise DataError("impute needs --targets or --lat/--lon/--footprint")
        targets = [(0, _num(cfg, "lat", float), _num(cfg, "lon", float),
                    _num(cfg, "footprint", int))]
    model = load_model(cfg["model"])
    spectra = impute_radiance(model, [t[1] for t in targets], [t[2] for t in targets],
                              [t[3] for t in targets])
    header = ["id", "latitude", "longitude", "footprint", "land_fraction"]
    header += [f"w_{w}" for w in model.wavelengths.indices]
    lines_out = [",".join(header)]
    for (sid, lat, lon, fp), spec in zip(targets, spectra):
        cells = [str(sid), repr(lat), repr(lon), str(fp), ""]
        cells += [repr(float(v)) for v in spec]
        lines_out.append(",".join(cells))
    Path(cfg["out"]).write_text("\n".join(lines_out) + "\n")
    print(f"imputed {len(targets)} spectra to {cfg['out']}")
    return EXIT_OK


def cmd_unmix(args) -> int:
    keys = ["input", "land_hi", "water_lo", "ref_length", "delta0", "fve",
            "n_perm", "seed", "truth", "out", "summary"]
    cfg = _merge_config(args, keys)
    _echo("unmix", cfg)
    land_hi = _num(cfg, "land_hi", float, 0.70)
    water_lo = _num(cfg, "water_lo", float, 0.30)
    ref_length = _num(cfg, "ref_length", float, 0.6)
    unmix_cfg = UnmixConfig(fit=_fit_config(cfg), land_hi=land_hi, water_lo=water_lo,
                            ref_length=ref_length)
    ds = load_dataset(cfg["input"])
    spec = detect_mixed_region(ds, land_hi=land_hi, water_lo=water_lo,
                               delta0=_num(cfg, "delta0", float),
                               ref_length=ref_length)
    print(f"mixed window [{spec.m_window[0]!r}, {spec.m_window[1]!r}] "
          f"delta0={spec.delta0!r} references {spec.s1_label}/{spec.s2_label} "
          f"qualified={spec.qualified}")
    estimates, _ = unmix_region(ds, spec, unmix_cfg)
    by_id: dict[int, dict[str, float]] = {}
    for e in estimates:
        by_id.setdefault(e.sounding_id, {})[e.method] = e.alpha
    lines = ["id,latitude,longitude,footprint,alpha_unmix,alpha_interp,alpha_reported"]
    for sid in spec.mixed_ids:
        s = ds.get(sid)
        reported = "" if s.land_fraction is None else repr(s.land_fraction)
        lines.append(f"{sid},{s.latitude!r},{s.longitude!r},{s.footprint},"
                     f"{by_id[sid]['unmixing']!r},{by_id[sid]['interpolation']!r},"
                     f"{reported}")
    Path(cfg["out"]).write_text("\n".join(lines) + "\n")
    print(f"land fractions for {len(spec.mixed_ids)} soundings written to {cfg['out']}")

    if cfg.get("summary"):
        summary: dict = {"n_mixed": len(spec.mixed_ids), "qualified": spec.qualified,
                         "delta0": spec.delta0}
        truth = None
        if cfg.get("truth"):
            with open(cfg["truth"]) as fh:
                truth = {int(k): float(v) for k, v in json.load(fh).items()}
        for method in ("unmixing", "interpolation"):
            vals = {sid: by_id[sid][method] for sid in spec.mixed_ids}
            if truth:
                errs = [(vals[sid] - truth[sid]) ** 2 for sid in vals if sid in truth]
                summary[f"mse_{method}"] = sum(errs) / len(errs) if errs else None
        if truth:
            errs = [(ds.get(sid).land_fraction - truth[sid]) ** 2
                    for sid in spec.mixed_ids
                    if sid in truth and ds.get(sid).land_fraction is not None]
            summary["mse_reported"] = sum(errs) / len(errs) if errs else None
        Path(cfg["summary"]).write_text(json.dumps(summary, sort_keys=True) + "\n")
        print(f"summary written to {cfg['summary']}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    keys = ["rho", "seed", "n_sites", "grid_length", "alpha", "out", "truth",
            "study", "rho_grid", "n_reps", "threads"]
    cfg = _merge_config(args, keys)
    _echo("simulate", cfg)
    sim_cfg = SimulationConfig(
        n_sites=_num(cfg, "n_sites", int, 41),
        grid_length=_num(cfg, "grid_length", int, 120),
        rho=_num(cfg, "rho", float, 0.05),
        alpha=_num(cfg, "alpha", float),
        seed=_num(cfg, "seed", int, 0),
    )
    if cfg.get("study"):
        grid = [_as(float, x, "rho_grid")
                for x in str(cfg.get("rho_grid", "0.01:0.05:0.1:0.15:0.2")).split(":")]
        result = run_unmixing_study(grid, _num(cfg, "n_reps", int, 200), sim_cfg,
                                    threads=(_num(cfg, "threads", int)
                                             or os.cpu_count() or 1))
        study_to_csv(result, cfg["out"])
        print(f"study over rho={grid} written to {cfg['out']} "
              f"({result.n_failures} failures)")
        return EXIT_OK
    ds, truth = simulate_mixed_transect(sim_cfg)
    save_dataset(ds, cfg["out"])
    print(f"simulated {len(ds)} soundings to {cfg['out']}")
    if cfg.get("truth"):
        doc = {
            "alpha": truth.alpha,
            "mixed_id": truth.mixed_id,
            "water_ids": list(truth.water_ids),
            "land_ids": list(truth.land_ids),
            "water_scores": [list(map(float, row)) for row in truth.water_scores],
            "land_scores": [list(map(float, row)) for row in truth.land_scores],
            "f_water_mixed": [float(v) for v in truth.f_water_mixed],
            "f_land_mixed": [float(v) for v in truth.f_land_mixed],
            "noise_free_mixed": [float(v) for v in truth.noise_free_mixed],
            "sigma_water": [float(v) for v in truth.sigma_water],
            "sigma_land": [float(v) for v in truth.sigma_land],
        }
        Path(cfg["truth"]).write_text(json.dumps(doc, sort_keys=True) + "\n")
        print(f"truth record written to {cfg['truth']}")
    return EXIT_OK


def cmd_validate(args) -> int:
    keys = ["input", "r", "centers", "footprint", "min_region_count",
            "lat_halfwidth", "fve", "n_perm", "seed", "threads", "out", "summary"]
    cfg = _merge_config(args, keys)
    _echo("validate", cfg)
    r_values = _parse_r(str(cfg.get("r", "1:8")))
    fit_cfg = _fit_config(cfg)
    lat_halfwidth = _num(cfg, "lat_halfwidth", float, 0.25)
    threads = _num(cfg, "threads", int) or os.cpu_count() or 1
    footprint = _num(cfg, "footprint", int, 4)
    min_region_count = _num(cfg, "min_region_count", int, 164)
    spec = str(cfg.get("centers", "auto"))
    centers = None if spec == "auto" else [_as(int, x, "centers")
                                           for x in spec.split(":")]
    ds = load_dataset(cfg["input"])
    if centers is None:
        centers = select_centers(ds, footprint=footprint,
                                 min_region_count=min_region_count,
                                 lat_halfwidth=lat_halfwidth)
        if not centers:
            print("no qualifying centers found", file=sys.stderr)
            return EXIT_DATA
    report = run_imputation_experiment(ds, centers, r_values, fit_cfg,
                                       lat_halfwidth=lat_halfwidth, threads=threads)
    report_to_csv(report, cfg["out"])
    if cfg.get("summary"):
        summary_to_csv(report, cfg["summary"])
    print(f"{len(centers)} centers, r={r_values[0]}..{r_values[-1]}: "
          f"{len(report.rows)} rows, "
          f"{len(report.failures)} failed cells; report at {cfg['out']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geofpca",
        description="Footprint-aware functional model for spatial spectral data: "
                    "fitting, imputation, unmixing, simulation, validation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model on a CSV region")
    p.add_argument("--input", help="dataset CSV")
    p.add_argument("--region", help="latitude window LO:HI")
    p.add_argument("--fve", type=float, help="FVE threshold (default 0.99)")
    p.add_argument("--min-coverage", dest="min_coverage", type=float)
    p.add_argument("--covariates", choices=["latitude", "latlon"])
    p.add_argument("--max-lat-span", dest="max_lat_span", type=float)
    p.add_argument("--n-bins", dest="n_bins", type=int)
    p.add_argument("--bin-max-fraction", dest="bin_max_fraction", type=float)
    p.add_argument("--min-pairs", dest="min_pairs", type=int)
    p.add_argument("--weights", choices=["nh2", "n"])
    p.add_argument("--n-perm", dest="n_perm", type=int)
    p.add_argument("--alpha", type=float, help="spatial test level (default 0.05)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="model JSON path")
    p.add_argument("--config", help="JSON config file (flags win)")
    p.set_defaults(func=cmd_fit, required_keys=("input", "out"))

    p = sub.add_parser("impute", help="impute spectra at target locations")
    p.add_argument("--model", help="fitted model JSON")
    p.add_argument("--lat", type=float)
    p.add_argument("--lon", type=float)
    p.add_argument("--footprint", type=int)
    p.add_argument("--targets", help="CSV with id,latitude,longitude,footprint")
    p.add_argument("--out", help="output spectra CSV")
    p.add_argument("--config", help="JSON config file (flags win)")
    p.set_defaults(func=cmd_impute, required_keys=("model", "out"))

    p = sub.add_parser("unmix", help="estimate land fractions in a mixed region")
    p.add_argument("--input", help="dataset CSV")
    p.add_argument("--land-hi", dest="land_hi", type=float)
    p.add_argument("--water-lo", dest="water_lo", type=float)
    p.add_argument("--ref-length", dest="ref_length", type=float)
    p.add_argument("--delta0", type=float)
    p.add_argument("--fve", type=float)
    p.add_argument("--n-perm", dest="n_perm", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--truth", help="JSON {sounding_id: true fraction}")
    p.add_argument("--out", help="land-fraction CSV")
    p.add_argument("--summary", help="summary JSON")
    p.add_argument("--config", help="JSON config file (flags win)")
    p.set_defaults(func=cmd_unmix, required_keys=("input", "out"))

    p = sub.add_parser("simulate", help="generate a synthetic transect or study")
    p.add_argument("--rho", type=float, help="noise ratio (default 0.05)")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-sites", dest="n_sites", type=int)
    p.add_argument("--grid-length", dest="grid_length", type=int)
    p.add_argument("--alpha", type=float, help="fixed mixed fraction")
    p.add_argument("--study", action="store_true", default=None,
                   help="run the replicated unmixing study instead")
    p.add_argument("--rho-grid", dest="rho_grid", help="colon-separated rho values")
    p.add_argument("--n-reps", dest="n_reps", type=int)
    p.add_argument("--threads", type=int,
                   help="worker processes (default: the CPU count)")
    p.add_argument("--out", help="dataset CSV (or study CSV with --study)")
    p.add_argument("--truth", help="truth JSON path")
    p.add_argument("--config", help="JSON config file (flags win)")
    p.set_defaults(func=cmd_simulate, required_keys=("out",))

    p = sub.add_parser("validate", help="cross-track removal experiment")
    p.add_argument("--input", help="dataset CSV")
    p.add_argument("--r", help="cross-track range LO:HI (default 1:8)")
    p.add_argument("--centers", help="'auto' or colon-separated sounding ids")
    p.add_argument("--footprint", type=int, help="center footprint (default 4)")
    p.add_argument("--min-region-count", dest="min_region_count", type=int)
    p.add_argument("--lat-halfwidth", dest="lat_halfwidth", type=float)
    p.add_argument("--fve", type=float)
    p.add_argument("--n-perm", dest="n_perm", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int,
                   help="worker processes (default: the CPU count)")
    p.add_argument("--out", help="report CSV")
    p.add_argument("--summary", help="per-r summary CSV")
    p.add_argument("--config", help="JSON config file (flags win)")
    p.set_defaults(func=cmd_validate, required_keys=("input", "out"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args, list(getattr(args, "required_keys", ())))
        for key in getattr(args, "required_keys", ()):
            if not cfg.get(key):
                parser.error(f"the --{key} option is required (flag or config file)")
        return args.func(args)
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
