"""Cross-track removal experiment and its error metrics.

For each qualifying center sounding and each block size r, the r nearest
cross-tracks are held out, the model is refitted on the remainder of the
surrounding latitude window, and the held-out spectra are imputed with both
the functional model and the per-wavelength linear interpolation baseline.
Errors are summarized per r with large-sample confidence intervals for the
mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import (BLOCK_SIZES, FOOTPRINTS, SpectralDataset, held_tracks,
                      remove_cross_tracks, select_region, track_numbers)
from .errors import DataError, GeofpcaError, require
from .fpca import FpcaBasis
from .imputation import FitConfig, fit_geofpca, impute_radiance, interpolate_radiance
from .parallel import map_tasks


def rrmse(imputed: np.ndarray, observed: np.ndarray) -> float:
    """Root relative mean squared error of an imputed spectrum.

    Undefined when any observed value is zero (radiances are strictly
    positive in practice); that case raises.
    """
    imputed = np.asarray(imputed, dtype=float)
    observed = np.asarray(observed, dtype=float)
    if imputed.shape != observed.shape:
        raise DataError("imputed and observed spectra differ in length")
    if (observed == 0).any():
        raise DataError("observed spectrum contains zeros; relative error undefined")
    rel = (imputed - observed) / observed
    return float(np.sqrt(np.mean(rel * rel)))


def rmspe(score_error: np.ndarray, basis: FpcaBasis) -> float:
    """Root mean squared prediction error of a score error s_obs - s_pred (length K),
    reconstructed on the basis wavelengths; NaN where the score error holds a NaN."""
    score_error = np.asarray(score_error, dtype=float)
    if score_error.shape != (basis.K,):
        raise DataError("score error must have K components")
    recon = basis.eigenvectors @ score_error
    return float(np.sqrt(np.mean(recon * recon)))


def check_lat_halfwidth(lat_halfwidth: float) -> None:
    """Refuse a window half-width (degrees) that is not finite and > 0."""
    require((math.isfinite(lat_halfwidth) and lat_halfwidth > 0.0,
             f"lat_halfwidth {lat_halfwidth!r} must be finite and > 0"))


def select_centers(ds: SpectralDataset, footprint: int = 4,
                   min_region_count: int = 164, lat_halfwidth: float = 0.25
                   ) -> list[int]:
    """Center soundings eligible for the removal experiment.

    A sounding on the requested footprint qualifies when (1) at least
    ``min_region_count`` observed soundings (any radiance present) lie within
    ``lat_halfwidth`` degrees of its latitude and (2) the largest held-out
    block of cross-tracks around it has every footprint of every track observed.
    """
    require((footprint in FOOTPRINTS,
             f"footprint {footprint!r} not one of {FOOTPRINTS[0]}..{FOOTPRINTS[-1]}"),
            (min_region_count >= 0, f"min_region_count {min_region_count!r} must be >= 0"))
    check_lat_halfwidth(lat_halfwidth)
    observed = ~np.isnan(ds.radiance).all(axis=1)
    tracks = track_numbers(ds)
    n_tracks = int(tracks.max()) + 1 if tracks.size else 0
    # A track holds at most one sounding per footprint, so all observed is full.
    full_track = np.bincount(tracks[observed], minlength=n_tracks) == len(FOOTPRINTS)
    lats = ds.latitudes
    centers = []
    for i in np.flatnonzero((ds.footprints == footprint) & observed):
        window = np.abs(lats - lats[i]) <= lat_halfwidth
        if int((window & observed).sum()) < min_region_count:
            continue
        lo, hi = held_tracks(int(tracks[i]), BLOCK_SIZES[-1])
        if lo >= 0 and hi < n_tracks and full_track[lo:hi + 1].all():
            centers.append(int(ds.ids[i]))
    return centers


@dataclass
class ExperimentRow:
    center: int
    r: int
    sounding_id: int
    footprint: int
    rrmse_functional: float
    rrmse_interpolation: float
    rmspe: float


@dataclass
class Aggregate:
    """Mean with a large-sample 95% confidence interval."""

    mean: float
    ci_low: float
    ci_high: float
    n: int

    @classmethod
    def of(cls, values: np.ndarray) -> "Aggregate":
        values = np.asarray(values, dtype=float)
        values = values[~np.isnan(values)]
        if values.size == 0:
            return cls(math.nan, math.nan, math.nan, 0)
        mean = float(values.mean())
        half = 1.96 * float(values.std(ddof=1)) / math.sqrt(values.size) \
            if values.size > 1 else 0.0
        return cls(mean, mean - half, mean + half, int(values.size))


@dataclass
class ExperimentReport:
    rows: list[ExperimentRow]
    by_r: dict[int, dict[str, Aggregate]]
    failures: list[tuple[int, int, str]]  # (center, r, message)


_METRICS = ("rrmse_functional", "rrmse_interpolation", "rmspe")


def _experiment_cell(shared, cell) -> tuple[int, int, list[ExperimentRow], str | None]:
    """Score each held sounding from one imputation: RMSPE reads (observed -
    imputed) @ E = s_obs - s_pred, NaN exactly where the spectrum is incomplete."""
    ds, config, lat_halfwidth = shared
    center, r = cell
    try:
        center_lat = float(ds.latitudes[ds.index_of(center)])
        region = select_region(ds, (center_lat - lat_halfwidth,
                                    center_lat + lat_halfwidth))
        train, held = remove_cross_tracks(region, center, r)
        model = fit_geofpca(train, config)
        observed = held.radiance[:, model.wavelengths.positions]
        good = ~np.isnan(observed)
        keep = np.flatnonzero(good.any(axis=1))
        lats, fps = held.latitudes[keep], held.footprints[keep]
        imputed = impute_radiance(model, lats, held.longitudes[keep], fps)
        interp = interpolate_radiance(train, lats, fps, model.wavelengths)
        score_errors = (observed[keep] - imputed) @ model.basis.eigenvectors
        rows = [ExperimentRow(center, r, int(held.ids[i]), int(fps[j]),
                              rrmse(imputed[j, good[i]], observed[i, good[i]]),
                              rrmse(interp[j, good[i]], observed[i, good[i]]),
                              rmspe(score_errors[j], model.basis))
                for j, i in enumerate(keep)]
        return center, r, rows, None
    except GeofpcaError as e:
        return center, r, [], str(e)


def run_imputation_experiment(ds: SpectralDataset, centers, r_values=BLOCK_SIZES,
                              config: FitConfig | None = None,
                              lat_halfwidth: float = 0.25,
                              threads: int = 1) -> ExperimentReport:
    """Hold out cross-track blocks around each center and score both methods.

    Failed (center, r) cells are recorded and excluded from the aggregates;
    the experiment continues through them. A center or r given twice is a
    data error, raised before any cell runs.
    """
    check_lat_halfwidth(lat_halfwidth)
    config = config or FitConfig()
    centers, r_values = [int(c) for c in centers], [int(r) for r in r_values]
    for what, values in (("center", centers), ("r", r_values)):
        repeat = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if repeat is not None:
            raise DataError(f"{what} {repeat} is given twice")
    cells = [(c, r) for c in centers for r in r_values]
    results = map_tasks(_experiment_cell, (ds, config, lat_halfwidth), cells, threads)

    rows: list[ExperimentRow] = []
    failures = []
    for center, r, cell_rows, err in results:
        if err is None:
            rows.extend(cell_rows)
        else:
            failures.append((center, r, err))

    by_r = {}
    for r in sorted(r_values):
        sub = [row for row in rows if row.r == r]
        by_r[r] = {m: Aggregate.of(np.array([getattr(x, m) for x in sub]))
                   for m in _METRICS}
    return ExperimentReport(rows, by_r, failures)


def report_to_csv(report: ExperimentReport, path) -> None:
    """Long-format per-sounding metrics."""
    lines = ["center,r,sounding_id,footprint,rrmse_functional,"
             "rrmse_interpolation,rmspe"]
    for row in report.rows:
        lines.append(f"{row.center},{row.r},{row.sounding_id},{row.footprint},"
                     f"{row.rrmse_functional!r},{row.rrmse_interpolation!r},"
                     f"{row.rmspe!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def summary_to_csv(report: ExperimentReport, path) -> None:
    """Per-r aggregates: mean, 95% CI bounds, and count for each metric."""
    header = ["r"]
    for m in _METRICS:
        header += [f"{m}_mean", f"{m}_ci_low", f"{m}_ci_high", f"{m}_n"]
    lines = [",".join(header)]
    for r, aggs in sorted(report.by_r.items()):
        cells = [str(r)]
        for m in _METRICS:
            a = aggs[m]
            cells += [repr(a.mean), repr(a.ci_low), repr(a.ci_high), str(a.n)]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")
