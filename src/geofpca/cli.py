"""Command-line pipeline: fit, impute, unmix, simulate, validate.

Every command is a pure function of its input files, flags, and seed, and
re-runs are byte-identical: BLAS runs on one thread whatever
``OPENBLAS_NUM_THREADS`` says (:func:`geofpca.parallel.pin_blas`). A
``--config`` JSON file may carry the command's flags as keys (``--n-perm`` is
``n_perm``); explicit flags win. The parser is the schema: a file value is
converted and checked as its flag would be, and a key the command does not
declare is a data error. Options left unset keep the library's defaults. Exit
codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from pathlib import Path

from . import __version__
from .dataset import load_dataset, save_dataset, select_region
from .errors import DataError, NumericalError
from .geostat import WEIGHT_SCHEMES, VariogramBins
from .imputation import (FitConfig, fit_geofpca, impute_radiance, load_model,
                         save_model)
from .mean_model import COVARIATE_MODES
from .parallel import pin_blas
from .simulation import (SimulationConfig, run_unmixing_study,
                         simulate_mixed_transect, study_to_csv)
from .unmixing import detect_mixed_region, unmix_region
from .validation import (report_to_csv, run_imputation_experiment,
                         select_centers, summary_to_csv)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

# impute refuses targets farther than this many degrees of latitude outside
# the fitted region.
IMPUTE_MARGIN_DEG = 0.05

# CLI keys whose library field has another name.
_FIELD = {"fve": "fve_threshold", "weights": "weight_scheme",
          "bin_max_fraction": "max_fraction"}


def _read_config(path, actions: dict[str, argparse.Action], command: str) -> dict:
    """The config file's non-null values, each converted as its flag's would be."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as e:
        raise DataError(f"cannot read config file {path}: {e}") from None
    if not isinstance(doc, dict):
        raise DataError(f"config file {path} must hold a JSON object")
    cfg = {}
    for key, value in doc.items():
        if key not in actions:
            raise DataError(f"config key {key!r}: {command} has no such option")
        if value is not None:
            cfg[key] = _convert(actions[key], value)
    return cfg


def _convert(action: argparse.Action, value):
    """A JSON value read as the flag reads its text; a bad one is a data error."""
    if action.type is not None:
        value = _as(action.type, str(value), action.dest)
    elif not isinstance(value, bool if action.nargs == 0 else str):
        expected = "true or false" if action.nargs == 0 else "a string"
        raise DataError(f"config key {action.dest!r}: expected {expected}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise DataError(f"config key {action.dest!r}: expected one of "
                        f"{', '.join(action.choices)}, got {value!r}")
    return value


def _as(kind: type, value, key: str):
    """``kind(value)`` for the config key ``key``; a bad value is a data error."""
    try:
        return kind(value)
    except argparse.ArgumentTypeError as e:
        raise DataError(f"config key {key!r}: {e}") from None
    except (TypeError, ValueError):
        raise DataError(f"config key {key!r}: expected {kind.__name__}, "
                        f"got {value!r}") from None


def _options(target, cfg: dict) -> dict:
    """The set keys of ``cfg`` that name optional parameters of ``target``."""
    params = inspect.signature(target).parameters
    return {k: v for k, v in cfg.items()
            if k in params and params[k].default is not inspect.Parameter.empty}


def _fit_config(cfg: dict) -> FitConfig:
    named = {_FIELD.get(k, k): v for k, v in cfg.items()}
    return FitConfig(bins=VariogramBins(**_options(VariogramBins, named)),
                     **_options(FitConfig, named))


def _cpu_count() -> int:
    return os.cpu_count() or 1


def _thread_count(text: str) -> int:
    """A ``--threads`` value: an integer from 1 to the CPU count."""
    try:
        threads = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if not 1 <= threads <= _cpu_count():
        raise argparse.ArgumentTypeError(
            f"expected 1 <= threads <= {_cpu_count()} (the CPU count), got {threads}")
    return threads


def _threads(cfg: dict) -> int:
    return cfg.get("threads", _cpu_count())


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
    except (OSError, ValueError) as e:
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


def _read_truth(path) -> dict[int, float]:
    """{sounding id: true land fraction} from a truth JSON object."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        return {int(k): float(v) for k, v in doc.items()}
    except (OSError, TypeError, ValueError) as e:
        raise DataError(f"cannot read truth file {path}: {e}") from None


def cmd_fit(cfg: dict) -> int:
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


def cmd_impute(cfg: dict) -> int:
    if cfg.get("targets"):
        targets = _read_targets(cfg["targets"])
    else:
        for key in ("lat", "lon", "footprint"):
            if cfg.get(key) is None:
                raise DataError("impute needs --targets or --lat/--lon/--footprint")
        targets = [(0, cfg["lat"], cfg["lon"], cfg["footprint"])]
    model = load_model(cfg["model"])
    lo, hi = model.region
    for sid, lat, _, _ in targets:
        if not lo - IMPUTE_MARGIN_DEG <= lat <= hi + IMPUTE_MARGIN_DEG:
            raise DataError(f"target {sid} at latitude {lat!r} is outside the fitted "
                            f"region [{lo!r}, {hi!r}] widened by {IMPUTE_MARGIN_DEG} deg")
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


def cmd_unmix(cfg: dict) -> int:
    fit_cfg = _fit_config(cfg)
    truth = _read_truth(cfg["truth"]) if cfg.get("truth") else None
    ds = load_dataset(cfg["input"])
    spec = detect_mixed_region(ds, **_options(detect_mixed_region, cfg))
    print(f"mixed window [{spec.m_window[0]!r}, {spec.m_window[1]!r}] "
          f"delta0={spec.delta0!r} references {spec.s1_label}/{spec.s2_label} "
          f"qualified={spec.qualified}")
    estimates, _ = unmix_region(ds, spec, fit_cfg)
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


def cmd_simulate(cfg: dict) -> int:
    sim_cfg = SimulationConfig(**_options(SimulationConfig, cfg))
    if cfg.get("study"):
        grid = [_as(float, x, "rho_grid")
                for x in cfg.get("rho_grid", "0.01:0.05:0.1:0.15:0.2").split(":")]
        result = run_unmixing_study(grid, cfg.get("n_reps", 200), sim_cfg,
                                    threads=_threads(cfg))
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


def cmd_validate(cfg: dict) -> int:
    experiment = _options(run_imputation_experiment, cfg)
    if "r" in cfg:
        experiment["r_values"] = _parse_r(cfg["r"])
    experiment.update(config=_fit_config(cfg), threads=_threads(cfg))
    spec = cfg.get("centers", "auto")
    centers = None if spec == "auto" else [_as(int, x, "centers")
                                           for x in spec.split(":")]
    ds = load_dataset(cfg["input"])
    if centers is None:
        centers = select_centers(ds, **_options(select_centers, cfg))
        if not centers:
            print("no qualifying centers found", file=sys.stderr)
            return EXIT_DATA
    report = run_imputation_experiment(ds, centers, **experiment)
    report_to_csv(report, cfg["out"])
    if cfg.get("summary"):
        summary_to_csv(report, cfg["summary"])
    print(f"{len(centers)} centers, r={min(report.by_r)}..{max(report.by_r)}: "
          f"{len(report.rows)} rows, "
          f"{len(report.failures)} failed cells; report at {cfg['out']}")
    return EXIT_OK


def _fit_options() -> argparse.ArgumentParser:
    """The FitConfig flags, shared by fit, unmix and validate."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--fve", type=float, help="FVE threshold")
    p.add_argument("--min-coverage", type=float,
                   help="least share of soundings that observe a kept wavelength")
    p.add_argument("--covariates", choices=COVARIATE_MODES)
    p.add_argument("--max-lat-span", type=float,
                   help="homogeneity guard on the fitted region, degrees")
    p.add_argument("--max-gap-km", type=float,
                   help="drop error-covariance differencing triples with a "
                        "neighbour gap above this many km")
    p.add_argument("--n-bins", type=int)
    p.add_argument("--bin-max-fraction", type=float)
    p.add_argument("--min-pairs", type=int)
    p.add_argument("--weights", choices=WEIGHT_SCHEMES)
    p.add_argument("--n-perm", type=int)
    p.add_argument("--alpha", type=float, help="spatial test level")
    p.add_argument("--seed", type=int)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geofpca",
        description="Footprint-aware functional model for spatial spectral data: "
                    "fitting, imputation, unmixing, simulation, validation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    fit_options = [_fit_options()]

    def command(name, func, required_keys, help, parents=()):
        p = sub.add_parser(name, help=help, parents=list(parents))
        p.add_argument("--config", help="JSON file keyed by this command's flags "
                                        "(flags win)")
        p.set_defaults(func=func, required_keys=required_keys, schema=p)
        return p

    p = command("fit", cmd_fit, ("input", "out"), "fit a model on a CSV region",
                fit_options)
    p.add_argument("--input", help="dataset CSV")
    p.add_argument("--region", help="latitude window LO:HI")
    p.add_argument("--out", help="model JSON path")

    p = command("impute", cmd_impute, ("model", "out"),
                "impute spectra at target locations")
    p.add_argument("--model", help="fitted model JSON")
    p.add_argument("--lat", type=float)
    p.add_argument("--lon", type=float)
    p.add_argument("--footprint", type=int)
    p.add_argument("--targets", help="CSV with id,latitude,longitude,footprint")
    p.add_argument("--out", help="output spectra CSV")

    p = command("unmix", cmd_unmix, ("input", "out"),
                "estimate land fractions in a mixed region", fit_options)
    p.add_argument("--input", help="dataset CSV")
    p.add_argument("--land-hi", type=float)
    p.add_argument("--water-lo", type=float)
    p.add_argument("--ref-length", type=float)
    p.add_argument("--delta0", type=float)
    p.add_argument("--truth", help="JSON {sounding_id: true fraction}")
    p.add_argument("--out", help="land-fraction CSV")
    p.add_argument("--summary", help="summary JSON")

    p = command("simulate", cmd_simulate, ("out",),
                "generate a synthetic transect or study")
    p.add_argument("--rho", type=float, help="noise ratio")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-sites", type=int)
    p.add_argument("--grid-length", type=int)
    p.add_argument("--alpha", type=float, help="fixed mixed fraction")
    p.add_argument("--study", action="store_true", default=None,
                   help="run the replicated unmixing study instead")
    p.add_argument("--rho-grid", help="colon-separated rho values")
    p.add_argument("--n-reps", type=int)
    p.add_argument("--threads", type=_thread_count,
                   help="worker processes, 1 to the CPU count (default: the CPU count)")
    p.add_argument("--out", help="dataset CSV (or study CSV with --study)")
    p.add_argument("--truth", help="truth JSON path")

    p = command("validate", cmd_validate, ("input", "out"),
                "cross-track removal experiment", fit_options)
    p.add_argument("--input", help="dataset CSV")
    p.add_argument("--r", help="cross-track range LO:HI (integers in 1..8)")
    p.add_argument("--centers", help="'auto' (default) or colon-separated sounding ids")
    p.add_argument("--footprint", type=int, help="center footprint")
    p.add_argument("--min-region-count", type=int)
    p.add_argument("--lat-halfwidth", type=float)
    p.add_argument("--threads", type=_thread_count,
                   help="worker processes, 1 to the CPU count (default: the CPU count)")
    p.add_argument("--out", help="report CSV")
    p.add_argument("--summary", help="per-r summary CSV")
    return parser


def main(argv=None) -> int:
    pin_blas()
    parser = build_parser()
    args = parser.parse_args(argv)
    actions = {a.dest: a for a in args.schema._actions
               if a.dest not in ("help", "config")}
    try:
        cfg = _read_config(args.config, actions, args.command) if args.config else {}
        cfg.update((k, getattr(args, k)) for k in actions
                   if getattr(args, k) is not None)
        for key in args.required_keys:
            if not cfg.get(key):
                parser.error(f"the --{key} option is required (flag or config file)")
        print(f"config {args.command}: " + json.dumps(cfg, sort_keys=True))
        code = args.func(cfg)
        sys.stdout.flush()  # here, so that a closed reader is reported below
        return code
    except BrokenPipeError as e:
        # The reader of standard output went away (`| head -1`). Point the
        # descriptor at devnull so the shutdown flush has nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"data error: cannot write standard output: {e.strerror}", file=sys.stderr)
        return EXIT_DATA
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as e:
        # Every file the commands write, and any input opened without a check.
        print(f"data error: cannot access {e.filename}: {e.strerror}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
