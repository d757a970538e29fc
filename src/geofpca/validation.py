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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import SpectralDataset, cross_tracks, remove_cross_tracks, select_region
from .errors import DataError, GeofpcaError
from .fpca import FpcaBasis, compute_scores
from .imputation import (FitConfig, fit_geofpca, impute_radiance,
                         interpolate_radiance, predict_scores)


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
    tracks = cross_tracks(ds)
    track_of = {}
    for t in tracks:
        for sid in t.member_ids:
            track_of[sid] = t.index
    full_track = {}
    for t in tracks:
        rows = [ds.index_of(i) for i in t.member_ids]
        full_track[t.index] = len(t.member_ids) == 8 and bool(observed[rows].all())
    lats = ds.latitudes
    centers = []
    for i, s in enumerate(ds.soundings):
        if s.footprint != footprint or not observed[i]:
            continue
        window = np.abs(lats - s.latitude) <= lat_halfwidth
        if int((window & observed).sum()) < min_region_count:
            continue
        t0 = track_of[s.id]
        lo, hi = t0 - 4, t0 + 3  # the even rule for r = 8
        if lo < 0 or hi >= len(tracks):
            continue
        if all(full_track[t] for t in range(lo, hi + 1)):
            centers.append(s.id)
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


def _experiment_cell(args) -> tuple[int, int, list[ExperimentRow], str | None]:
    ds, center, r, config, lat_halfwidth = args
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
        imputed = impute_radiance(model, lats, lons, held.footprints[keep], preds)
        rows = []
        for j, i in enumerate(keep):
            s, g = held.soundings[i], good[i]
            val_f = rrmse(imputed[j, g], observed[i, g])
            interp = interpolate_radiance(train, s.location, s.footprint,
                                          model.wavelengths)
            val_i = rrmse(interp[g], observed[i, g])
            if s.id in score_of:
                val_p = rmspe(score_of[s.id], preds[j], model.basis)
            else:
                val_p = math.nan  # incomplete spectrum: no observed scores
            rows.append(ExperimentRow(center, r, s.id, s.footprint,
                                      val_f, val_i, val_p))
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
    tasks = [(ds, int(c), int(r), config, lat_halfwidth)
             for c in centers for r in r_values]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_experiment_cell, tasks, chunksize=1))
    else:
        results = [_experiment_cell(t) for t in tasks]

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
