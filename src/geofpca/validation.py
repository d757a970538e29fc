"""Cross-track removal experiment and its error metrics.

For each qualifying center sounding and each block size r, the r nearest
cross-tracks are held out, the model is refitted on the remainder of the
surrounding latitude window, and the held-out spectra are imputed with both
the functional model and the per-wavelength linear interpolation baseline.
Errors are summarized per r (and per footprint) with large-sample confidence
intervals for the mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import SpectralDataset, remove_cross_tracks, select_region, track_numbers
from .errors import DataError, GeofpcaError
from .fpca import FpcaBasis, compute_scores
from .imputation import (FitConfig, fit_geofpca, impute_radiance,
                         interpolate_radiance, predict_scores)
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


def rmspe(scores_obs: np.ndarray, scores_pred: np.ndarray, basis: FpcaBasis) -> float:
    """Root mean squared prediction error of the score-space reconstruction."""
    scores_obs = np.asarray(scores_obs, dtype=float)
    scores_pred = np.asarray(scores_pred, dtype=float)
    if scores_obs.shape != scores_pred.shape or scores_obs.size != basis.K:
        raise DataError("score vectors must both have K components")
    recon = basis.eigenvectors @ (scores_obs - scores_pred)
    return float(np.sqrt(np.mean(recon * recon)))


def _observed_mask(ds: SpectralDataset) -> np.ndarray:
    """A sounding counts as observed when any radiance value is present."""
    return ~np.isnan(ds.radiance).all(axis=1)


def select_centers(ds: SpectralDataset, footprint: int = 4,
                   min_region_count: int = 164, lat_halfwidth: float = 0.25
                   ) -> list[int]:
    """Center soundings eligible for the removal experiment.

    A sounding on the requested footprint qualifies when (1) at least
    ``min_region_count`` observed soundings lie within ``lat_halfwidth``
    degrees of its latitude and (2) the 8 nearest cross-tracks around it are
    complete: 8 tracks x 8 footprints, all observed.
    """
    observed = _observed_mask(ds)
    tracks = track_numbers(ds)
    n_tracks = int(tracks.max()) + 1 if tracks.size else 0
    # A track holds at most one sounding per footprint, so 8 observed is full.
    full_track = np.bincount(tracks[observed], minlength=n_tracks) == 8
    lats = ds.latitudes
    centers = []
    for i in np.flatnonzero((ds.footprints == footprint) & observed):
        window = np.abs(lats - lats[i]) <= lat_halfwidth
        if int((window & observed).sum()) < min_region_count:
            continue
        lo, hi = tracks[i] - 4, tracks[i] + 3  # the even rule for r = 8
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
    by_footprint_r: dict[tuple[int, int], dict[str, Aggregate]]
    failures: list[tuple[int, int, str]]  # (center, r, message)


_METRICS = ("rrmse_functional", "rrmse_interpolation", "rmspe")


def _experiment_cell(shared, cell) -> tuple[int, int, list[ExperimentRow], str | None]:
    ds, config, lat_halfwidth = shared
    center, r = cell
    try:
        center_lat = ds.get(center).latitude
        region = select_region(ds, (center_lat - lat_halfwidth,
                                    center_lat + lat_halfwidth))
        train, held = remove_cross_tracks(region, center, r)
        train_ids = set(int(i) for i in train.ids)
        held_ids = set(int(i) for i in held.ids)
        assert not train_ids & held_ids, "train/held-out datasets overlap"
        assert train_ids | held_ids == set(int(i) for i in region.ids)
        model = fit_geofpca(train, config)
        obs_scores = compute_scores(held, model.mean, model.basis)
        score_of = {int(i): row for i, row in
                    zip(obs_scores.sounding_ids, obs_scores.scores)}
        observed = held.radiance[:, model.wavelengths.positions]
        good = ~np.isnan(observed)
        keep = np.flatnonzero(good.any(axis=1))
        lats, lons = held.latitudes[keep], held.longitudes[keep]
        preds, _ = predict_scores(model, lats, lons)
        fps = held.footprints[keep]
        imputed = impute_radiance(model, lats, lons, fps, preds)
        interp = interpolate_radiance(train, lats, fps, model.wavelengths)
        rows = []
        for j, i in enumerate(keep):
            sid, g = int(held.ids[i]), good[i]
            val_f = rrmse(imputed[j, g], observed[i, g])
            val_i = rrmse(interp[j, g], observed[i, g])
            if sid in score_of:
                val_p = rmspe(score_of[sid], preds[j], model.basis)
            else:
                val_p = math.nan  # incomplete spectrum: no observed scores
            rows.append(ExperimentRow(center, r, sid, int(fps[j]), val_f, val_i, val_p))
        return center, r, rows, None
    except (GeofpcaError, AssertionError) as e:
        return center, r, [], str(e)


def run_imputation_experiment(ds: SpectralDataset, centers, r_values=range(1, 9),
                              config: FitConfig | None = None,
                              lat_halfwidth: float = 0.25,
                              threads: int = 1) -> ExperimentReport:
    """Hold out cross-track blocks around each center and score both methods.

    Failed (center, r) cells are recorded and excluded from the aggregates;
    the experiment continues through them.
    """
    config = config or FitConfig()
    cells = [(int(c), int(r)) for c in centers for r in r_values]
    results = map_tasks(_experiment_cell, (ds, config, lat_halfwidth), cells, threads)

    rows: list[ExperimentRow] = []
    failures = []
    for center, r, cell_rows, err in results:
        if err is None:
            rows.extend(cell_rows)
        else:
            failures.append((center, r, err))

    by_r = {}
    for r in sorted(set(int(x) for x in r_values)):
        sub = [row for row in rows if row.r == r]
        by_r[r] = {m: Aggregate.of(np.array([getattr(x, m) for x in sub]))
                   for m in _METRICS}
    by_fp_r = {}
    for r in sorted(set(int(x) for x in r_values)):
        for p in sorted(set(row.footprint for row in rows)):
            sub = [row for row in rows if row.r == r and row.footprint == p]
            if sub:
                by_fp_r[(p, r)] = {m: Aggregate.of(np.array([getattr(x, m) for x in sub]))
                                   for m in _METRICS}
    return ExperimentReport(rows, by_r, by_fp_r, failures)


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
