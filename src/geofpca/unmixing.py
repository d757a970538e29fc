"""Mixed land/water regions: detection, score smoothing, fraction estimation.

A mixed region is the latitude window around soundings whose reported land
fraction is strictly between 0 and 1, padded by the mean cross-track spacing.
Two reference windows of configurable length (default 0.6 degrees) sit below
and above it; when one is land and the other water, an endmember model is
fitted on each and every mixed sounding's land fraction is estimated by
least-squares unmixing of its observed spectrum against the two imputed
endmember spectra. A raw-neighbor interpolation estimate is emitted alongside
for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import SpectralDataset, haversine_km, select_region, track_numbers
from .errors import DataError, GeofpcaError
from .fpca import ScoreField
from .imputation import FitConfig, GeoFpcaModel, fit_geofpca, impute_radiance

MAD_SCALE = 1.4826  # scaled-MAD consistency factor for a normal sample
OUTLIER_MAD = 3.0  # scaled MADs beyond which a score is left out of the smoother
# When an endmember score within EXTREME_REACH multiples of delta0 of the mixed
# window lies beyond EXTREME_MAD scaled MADs, smoothing uses FIXED_BANDWIDTH
# degrees instead of a cross-validated bandwidth.
EXTREME_MAD = 4.0
EXTREME_REACH = 3.0
FIXED_BANDWIDTH = 0.1


@dataclass
class MixedRegionSpec:
    """Mixed window, its two reference windows, and their land/water labels."""

    m_window: tuple[float, float]
    s1_window: tuple[float, float]
    s2_window: tuple[float, float]
    s1_label: str
    s2_label: str
    delta0: float
    qualified: bool
    mixed_ids: tuple[int, ...]

    def endmember_windows(self) -> dict[str, tuple[float, float]]:
        """Map 'land'/'water' to the corresponding reference window."""
        if not self.qualified:
            raise DataError(
                f"region not qualified: references are {self.s1_label}/{self.s2_label}"
            )
        return {self.s1_label: self.s1_window, self.s2_label: self.s2_window}


@dataclass
class LandFractionEstimate:
    sounding_id: int
    alpha: float
    method: str  # "unmixing" or "interpolation"
    residual_norm: float


def _label(mean_fraction: float, land_hi: float, water_lo: float) -> str:
    if mean_fraction > land_hi:
        return "land"
    if mean_fraction < water_lo:
        return "water"
    return "unidentified"


def detect_mixed_region(ds: SpectralDataset, land_hi: float = 0.70,
                        water_lo: float = 0.30, delta0: float | None = None,
                        ref_length: float = 0.6) -> MixedRegionSpec:
    """Locate the mixed latitude window and label its reference regions.

    The padding ``delta0`` defaults to the mean latitude gap between
    consecutive cross-tracks. References are labeled by their mean reported
    land fraction against the two thresholds; the spec is qualified only when
    one side is land and the other water.
    """
    lf = ds.land_fractions
    mixed = np.flatnonzero((lf > 0.0) & (lf < 1.0))
    if mixed.size == 0:
        raise DataError("no soundings with land fraction strictly inside (0, 1)")
    lats = ds.latitudes
    l1, l2 = float(lats[mixed].min()), float(lats[mixed].max())
    if delta0 is None:
        # Each track's mean latitude, summed in footprint order.
        tracks = track_numbers(ds)
        order = np.lexsort((ds.footprints, tracks))
        ends = np.flatnonzero(np.diff(tracks[order])) + 1
        track_lats = np.sort([t.mean() for t in np.split(lats[order], ends)])
        if track_lats.size < 2:
            raise DataError("cannot infer cross-track spacing from a single track")
        delta0 = float(np.diff(track_lats).mean())
    m_window = (l1 - delta0, l2 + delta0)
    s1_window = (m_window[0] - ref_length, m_window[0])
    s2_window = (m_window[1], m_window[1] + ref_length)

    labels = []
    for win in (s1_window, s2_window):
        sel = (lats >= win[0]) & (lats <= win[1]) & ~np.isnan(lf)
        # Exclude the strictly-mixed interior so the references stay pure.
        sel &= ~((lats > m_window[0]) & (lats < m_window[1]))
        if not sel.any():
            raise DataError(
                f"reference window [{win[0]:.5g}, {win[1]:.5g}] has no soundings "
                "with a reported land fraction"
            )
        labels.append(_label(float(lf[sel].mean()), land_hi, water_lo))
    qualified = sorted(labels) == ["land", "water"]
    inside = (lats > m_window[0]) & (lats < m_window[1])
    mixed_ids = tuple(int(i) for i in ds.ids[inside])
    return MixedRegionSpec(m_window, s1_window, s2_window, labels[0], labels[1],
                           float(delta0), qualified, mixed_ids)


def _epanechnikov(t: np.ndarray) -> np.ndarray:
    out = 1.0 - t * t
    out[np.abs(t) >= 1.0] = 0.0
    return 0.75 * out


def _local_linear(x: np.ndarray, y: np.ndarray, x0: np.ndarray, h: float,
                  leave_one_out: bool = False) -> np.ndarray:
    """Local linear estimates at the points x0 from one T x n kernel matrix.

    NaN where no kernel mass reaches a point; ``leave_one_out`` fits each
    x0 = x without its own observation.
    """
    d = x[None, :] - np.asarray(x0, dtype=float)[:, None]
    w = _epanechnikov(d / h)
    if leave_one_out:
        np.fill_diagonal(w, 0.0)
    wd = w * d
    s0, s1, s2 = w.sum(axis=1), wd.sum(axis=1), (wd * d).sum(axis=1)
    t0, t1 = w @ y, wd @ y
    denom = s0 * s2 - s1 * s1
    out = np.full(s0.shape, math.nan)
    mass = s0 > 0.0
    # Single effective point: fall back to the local mean.
    flat = mass & (denom <= 1e-12 * np.maximum(s0 * s2, 1e-300))
    line = mass & ~flat
    out[flat] = t0[flat] / s0[flat]
    out[line] = (s2[line] * t0[line] - s1[line] * t1[line]) / denom[line]
    return out


def _mad_inliers(u: np.ndarray, threshold: float) -> np.ndarray:
    med = np.median(u)
    mad = MAD_SCALE * np.median(np.abs(u - med))
    return np.abs(u - med) <= threshold * mad


def smooth_scores(scores: ScoreField, bandwidth: float | str = "cv") -> ScoreField:
    """Local-linear smoothing of each component's scores along latitude.

    Smoothing runs per (component, footprint) with an Epanechnikov kernel.
    Outliers beyond ``OUTLIER_MAD`` scaled MADs from the group median are
    dropped from the fit (their locations still receive smoothed values).
    ``bandwidth`` is a fixed width in degrees or ``"cv"`` for leave-one-out
    selection over a log-spaced grid.
    """
    lats = scores.latitudes
    fps = scores.footprints
    smoothed = scores.scores.copy()
    for p in np.unique(fps):
        sel = np.flatnonzero(fps == p)
        if sel.size < 5:
            raise DataError(f"footprint {int(p)}: {sel.size} soundings, need >= 5 to smooth")
        x = lats[sel]
        for k in range(scores.n_components):
            y = scores.scores[sel, k]
            inliers = _mad_inliers(y, OUTLIER_MAD)
            if inliers.sum() < 2:
                raise DataError(
                    f"footprint {int(p)}, component {k}: fewer than 2 inlier scores"
                )
            xf, yf = x[inliers], y[inliers]
            if isinstance(bandwidth, str):
                if bandwidth != "cv":
                    raise DataError(f"unknown bandwidth mode {bandwidth!r}")
                h = _cv_bandwidth(xf, yf)
            else:
                h = float(bandwidth)
            smoothed[sel, k] = _local_linear(xf, yf, x, h)
            if np.isnan(smoothed[sel, k]).any():
                # Fixed bandwidth too narrow somewhere: widen to the data span.
                span = float(xf.max() - xf.min()) or 1.0
                smoothed[sel, k] = _local_linear(xf, yf, x, span)
    return scores.with_scores(smoothed)


def _cv_bandwidth(x: np.ndarray, y: np.ndarray, grid: np.ndarray | None = None) -> float:
    """Leave-one-out bandwidth selection; candidates failing anywhere are skipped."""
    span = float(x.max() - x.min())
    if span <= 0:
        raise DataError("cannot select a bandwidth on coincident latitudes")
    if grid is None:
        gaps = np.diff(np.sort(x))
        lo = max(2.0 * float(np.median(gaps)), span / 20.0)
        grid = np.geomspace(lo, span, 8)
    best_h, best_err = None, math.inf
    for h in grid:
        pred = _local_linear(x, y, x, float(h), leave_one_out=True)
        if np.isnan(pred).any():
            continue
        err = float(np.mean((pred - y) ** 2))
        if err < best_err:
            best_h, best_err = float(h), err
    if best_h is None:
        raise DataError("bandwidth grid exhausted: every candidate was degenerate")
    return best_h


def estimate_land_fraction(obs: np.ndarray, f_land: np.ndarray, f_water: np.ndarray,
                           clamp: bool = True) -> float:
    """Least-squares land fraction of a spectrum against two endmembers.

    The closed-form minimizer of the squared loss over the mixing fraction,
    truncated to [0, 1] unless ``clamp`` is disabled.
    """
    obs, f_land, f_water = (np.asarray(v, dtype=float) for v in (obs, f_land, f_water))
    if not obs.shape == f_land.shape == f_water.shape:
        raise DataError("spectra must share one wavelength set")
    diff = f_land - f_water
    denom = float(diff @ diff)
    if denom <= 0.0:
        raise DataError("endmember spectra are indistinguishable (zero denominator)")
    alpha = float((obs - f_water) @ diff) / denom
    if clamp:
        alpha = min(max(alpha, 0.0), 1.0)
    return alpha


def _has_extreme_scores(scores: ScoreField, spec: MixedRegionSpec) -> bool:
    """Any score near the mixed window beyond ``EXTREME_MAD`` scaled MADs?"""
    lo, hi = spec.m_window
    near = (scores.latitudes >= lo - EXTREME_REACH * spec.delta0) & \
           (scores.latitudes <= hi + EXTREME_REACH * spec.delta0)
    if not near.any():
        return False
    for p in np.unique(scores.footprints):
        sel = scores.footprints == p
        for k in range(scores.n_components):
            u = scores.scores[sel, k]
            inl = _mad_inliers(u, EXTREME_MAD)
            if (~inl & near[sel]).any():
                return True
    return False


def _fit_endmember_model(ds: SpectralDataset, window: tuple[float, float],
                         spec: MixedRegionSpec, config: FitConfig | None,
                         label: str) -> GeoFpcaModel:
    try:
        region = select_region(ds, window)

        def transform(scores: ScoreField, _ds: SpectralDataset) -> ScoreField:
            bw = FIXED_BANDWIDTH if _has_extreme_scores(scores, spec) else "cv"
            return smooth_scores(scores, bandwidth=bw)

        return fit_geofpca(region, config, score_transform=transform)
    except GeofpcaError as e:
        raise type(e)(f"[{label} endmember] {e}") from e


def _nearest_spectra(ds: SpectralDataset, window: tuple[float, float], latitudes,
                     longitudes, footprints) -> np.ndarray:
    """Raw spectra of each target's nearest reference sounding (T x W).

    The nearest is taken among the window's soundings of the target's
    footprint, or among all of them when the window lacks that footprint.
    """
    lats = ds.latitudes
    sel = np.flatnonzero((lats >= window[0]) & (lats <= window[1]))
    if sel.size == 0:
        raise DataError(f"no soundings in reference window {window}")
    d = haversine_km(np.asarray(latitudes, dtype=float)[:, None],
                     np.asarray(longitudes, dtype=float)[:, None],
                     lats[sel], ds.longitudes[sel])
    other = ds.footprints[sel] != np.asarray(footprints)[:, None]
    d[other & ~other.all(axis=1, keepdims=True)] = np.inf
    return ds.radiance[sel[np.argmin(d, axis=1)]]


def unmix_region(ds: SpectralDataset, spec: MixedRegionSpec,
                 config: FitConfig | None = None
                 ) -> tuple[list[LandFractionEstimate], dict[str, GeoFpcaModel]]:
    """Estimate land fractions for every sounding in the mixed window.

    Fits one endmember model per reference region (with smoothed scores),
    imputes land and water spectra at each mixed sounding, and returns both
    the unmixing and the raw-neighbor interpolation estimate per sounding,
    plus the two fitted models keyed 'land'/'water'. ``config`` applies to
    both endmember fits.
    """
    if not spec.qualified:
        raise DataError(
            f"region not qualified for unmixing: references are "
            f"{spec.s1_label}/{spec.s2_label}"
        )
    windows = spec.endmember_windows()
    models = {label: _fit_endmember_model(ds, win, spec, config, label)
              for label, win in windows.items()}
    common = sorted(set(models["land"].wavelengths.indices) &
                    set(models["water"].wavelengths.indices))
    if not common:
        raise DataError("endmember models share no wavelength indices")
    pos_in = {label: np.array([models[label].wavelengths.indices.index(w)
                               for w in common]) for label in models}
    grid_pos = np.asarray(common, dtype=int) - 1

    rows = np.array([ds.index_of(sid) for sid in spec.mixed_ids], dtype=int)
    lats, lons, fps = ds.latitudes[rows], ds.longitudes[rows], ds.footprints[rows]
    endmembers = {label: impute_radiance(model, lats, lons, fps)[:, pos_in[label]]
                  for label, model in models.items()}
    nearest = {label: _nearest_spectra(ds, win, lats, lons, fps)[:, grid_pos]
               for label, win in windows.items()}
    observed = ds.radiance[rows][:, grid_pos]

    estimates: list[LandFractionEstimate] = []
    for j, sid in enumerate(spec.mixed_ids):
        obs = observed[j]
        good = ~np.isnan(obs)
        if not good.any():
            raise DataError(f"sounding {sid}: no observed radiance on the shared grid")
        f_l, f_w = endmembers["land"][j, good], endmembers["water"][j, good]
        alpha_u = estimate_land_fraction(obs[good], f_l, f_w)
        resid_u = float(np.linalg.norm(obs[good] - alpha_u * f_l - (1 - alpha_u) * f_w))
        estimates.append(LandFractionEstimate(sid, alpha_u, "unmixing", resid_u))

        r_l, r_w = nearest["land"][j], nearest["water"][j]
        good_i = good & ~np.isnan(r_l) & ~np.isnan(r_w)
        if not good_i.any():
            raise DataError(f"sounding {sid}: no shared observed wavelengths for "
                            "the interpolation baseline")
        alpha_i = estimate_land_fraction(obs[good_i], r_l[good_i], r_w[good_i])
        resid_i = float(np.linalg.norm(
            obs[good_i] - alpha_i * r_l[good_i] - (1 - alpha_i) * r_w[good_i]))
        estimates.append(LandFractionEstimate(sid, alpha_i, "interpolation", resid_i))
    return estimates, models
