"""Fitted-model assembly, spectral imputation, and the interpolation baseline.

``fit_geofpca`` runs the full pipeline in order: wavelength selection, mean
fit, per-footprint error covariances, signal covariance, eigendecomposition,
scores, score-noise variances, spatial-dependence screening, then the kriged
components' empirical variograms in one pass and a WLS fit for each of them.
The resulting model imputes spectra at any batch of locations as the mean plus
the kriged-score reconstruction, computing each component's kriging weights once.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .dataset import (FOOTPRINTS, SpectralDataset, WavelengthSet, common_wavelengths,
                      coordinate_violation)
from .errors import DataError, GeofpcaError, NumericalError, require
from .fpca import (CovarianceMatrix, FpcaBasis, ScoreField,
                   compute_score_noise_variance, compute_scores,
                   eigendecompose, estimate_error_covariance,
                   estimate_signal_covariance)
from .geostat import (MIN_SCREEN_SOUNDINGS, WEIGHT_SCHEMES, SpatialTestResult,
                      VariogramBins, VariogramFit, check_bins, check_screen,
                      empirical_semivariogram, fit_variogram_wls, kriged_scores,
                      kriging_weights, spatial_dependence_test)
# Unused here; perfbench's tracer self-test checks it is rebound in this module.
from .geostat import krige_score  # noqa: F401
from .mean_model import COVARIATE_MODES, MeanModel, evaluate_mean_at, fit_mean_model

ScoreTransform = Callable[[ScoreField], ScoreField]


@dataclass
class FitConfig:
    """Tunables for the fitting pipeline, echoed into every saved model.

    Each bound is stated by the stage that reads the value (``check_bins``,
    ``check_screen``), and building a FitConfig checks them all.
    """

    fve_threshold: float = 0.99
    min_coverage: float = 1.0
    covariates: str = "latitude"
    max_lat_span: float = 0.6
    max_gap_km: float = math.inf
    bins: VariogramBins = field(default_factory=VariogramBins)
    weight_scheme: str = "nh2"
    n_perm: int = 999
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        require(
            (0.0 < self.fve_threshold <= 1.0,
             f"fve_threshold {self.fve_threshold} outside (0, 1]"),
            (0.0 < self.min_coverage <= 1.0,
             f"min_coverage {self.min_coverage} outside (0, 1]"),
            (self.covariates in COVARIATE_MODES,
             f"covariates {self.covariates!r} not one of {COVARIATE_MODES}"),
            (self.max_lat_span > 0.0, f"max_lat_span {self.max_lat_span} must be > 0"),
            (self.max_gap_km > 0.0, f"max_gap_km {self.max_gap_km} must be > 0"),
            (self.weight_scheme in WEIGHT_SCHEMES,
             f"weight_scheme {self.weight_scheme!r} not one of {WEIGHT_SCHEMES}"))
        check_bins(self.bins)
        check_screen(self.n_perm, self.alpha, self.seed)

    def to_dict(self) -> dict:
        d = asdict(self)
        if not math.isfinite(self.max_gap_km):
            d["max_gap_km"] = None
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FitConfig":
        """Inverse of ``to_dict``; absent keys take the field defaults."""
        kw = {**d, "bins": VariogramBins(**d.get("bins", {}))}
        if "max_gap_km" in kw and kw["max_gap_km"] is None:
            kw["max_gap_km"] = math.inf
        return cls(**kw)


@dataclass
class GeoFpcaModel:
    """Everything needed to impute spectra in the fitted region.

    ``fits[k]`` is None exactly where component k is predicted by its mean.
    """

    region: tuple[float, float]
    wavelengths: WavelengthSet
    mean: MeanModel
    basis: FpcaBasis
    scores: ScoreField
    fits: list[VariogramFit | None]
    tests: list[SpatialTestResult | None]
    config: FitConfig
    _weights: list[tuple[float, np.ndarray | None]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def kriging_weights(self) -> list[tuple[float, np.ndarray | None]]:
        """Each component's (kappa, alpha), built on first use and never saved.

        Each kriged component in turn evaluates its own distance blocks and
        factors its covariance in half a matrix, freed before the next one.
        """
        if self._weights is None:
            self._weights = [kriging_weights(self.scores, k, fit)
                             for k, fit in enumerate(self.fits)]
        return self._weights


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except GeofpcaError as e:
        raise type(e)(f"[{name}] {e}") from e


def fit_geofpca(ds: SpectralDataset, config: FitConfig | None = None,
                score_transform: ScoreTransform | None = None) -> GeoFpcaModel:
    """Fit the full geospatial functional model on one homogeneous region.

    ``score_transform``, when given, is applied to the score field after the
    score-noise variances are attached and before the spatial screening and
    variogram fits (used for local-linear score smoothing in unmixing). A
    component the screen finds independent gets no fit (None). Sub-step
    failures carry their pipeline stage in the message.
    """
    config = config or FitConfig()
    if len(ds) == 0:
        raise DataError("empty dataset")
    span = float(ds.latitudes.max() - ds.latitudes.min())
    if span > config.max_lat_span:
        raise DataError(
            f"latitude span {span:.4g} deg exceeds the homogeneity guard "
            f"{config.max_lat_span} deg; split the region into smaller windows"
        )
    region = (float(ds.latitudes.min()), float(ds.latitudes.max()))
    ws = _stage("wavelength-selection", common_wavelengths, ds, config.min_coverage)
    mean = _stage("mean-model", fit_mean_model, ds, ws, config.covariates)
    errs: dict[int, CovarianceMatrix] = {}
    for p in ds.footprints_present():
        errs[p] = _stage("error-covariance", estimate_error_covariance,
                         ds, ws, p, config.max_gap_km)
    signal = _stage("signal-covariance", estimate_signal_covariance, ds, mean, errs)
    basis = _stage("eigendecomposition", eigendecompose, signal, config.fve_threshold)
    scores = _stage("scores", compute_scores, ds, mean, basis)
    scores.taus = {p: compute_score_noise_variance(errs[p], basis) for p in errs}
    del errs, signal  # and the spans they hold: the screen and variograms reuse their memory
    if score_transform is not None:
        scores = _stage("score-smoothing", score_transform, scores)

    # Too few soundings to screen keeps the kriging path (tests None).
    tests = (spatial_dependence_test(scores, config.n_perm, config.alpha, config.seed)
             if scores.sounding_ids.size >= MIN_SCREEN_SOUNDINGS else [None] * basis.K)
    kriged = [k for k, t in enumerate(tests) if t is None or t.dependent]
    fits: list[VariogramFit | None] = [None] * basis.K
    if kriged:
        # After the screen: its neighbour pass records the largest distance the bins use.
        variograms = _stage(f"variogram k={kriged[0]}", empirical_semivariogram,
                            scores, config.bins, kriged)
        for k, ev in zip(kriged, variograms):
            fits[k] = _stage(f"variogram k={k}", fit_variogram_wls, ev,
                             config.weight_scheme)
    return GeoFpcaModel(region, ws, mean, basis, scores, fits, tests, config)


def _target_coordinates(latitudes, longitudes) -> tuple[np.ndarray, np.ndarray]:
    lat = np.asarray(latitudes, dtype=float)
    lon = np.asarray(longitudes, dtype=float)
    if lat.ndim != 1 or lat.shape != lon.shape:
        raise DataError("target latitudes and longitudes must be 1-D arrays of "
                        "equal length")
    bad = coordinate_violation(lat, lon)
    if bad is not None:
        raise DataError(f"target at position {bad[0]}: {bad[1]}")
    return lat, lon


def predict_scores(model: GeoFpcaModel, latitudes, longitudes) -> np.ndarray:
    """Kriged (or reduced) score predictions at T locations (T x K).

    The per-component kriging weights are computed on the first call and
    reused by every later one.
    """
    lat, lon = _target_coordinates(latitudes, longitudes)
    preds = np.empty((lat.size, model.basis.K))
    for k, (kappa, alpha) in enumerate(model.kriging_weights()):
        preds[:, k] = kriged_scores(kappa, alpha, model.fits[k], model.scores, lat, lon)
    return preds


def impute_radiance(model: GeoFpcaModel, latitudes, longitudes, footprints) -> np.ndarray:
    """Impute spectra at T locations: mean plus score reconstruction (T x m)."""
    lat, lon = _target_coordinates(latitudes, longitudes)
    spectra = evaluate_mean_at(model.mean, lat, lon, footprints)
    spectra += predict_scores(model, lat, lon) @ model.basis.eigenvectors.T
    if not np.all(np.isfinite(spectra)):
        raise NumericalError("imputed spectrum is not finite")
    return spectra


def interpolate_radiance(ds: SpectralDataset, latitudes, footprints,
                         ws: WavelengthSet | None = None) -> np.ndarray:
    """Per-wavelength linear interpolation in latitude at T targets (T x m).

    The baseline method: each target's wavelength is interpolated between the
    nearest soundings of its footprint below and above its latitude, with
    nearest-value extrapolation outside the observed range; a latitude outside
    [-90, 90] is refused.
    """
    x = np.asarray(latitudes, dtype=float)
    fps = np.asarray(footprints)
    if x.ndim != 1 or fps.shape != x.shape or not np.isfinite(x).all():
        raise DataError("need one finite target latitude per footprint")
    bad = coordinate_violation(x, np.zeros_like(x))
    if bad is not None:
        raise DataError(f"target at position {bad[0]}: {bad[1]}")
    pos = ws.positions if ws is not None else np.arange(ds.grid_length)
    out = np.empty((x.size, pos.size))
    for p in sorted(set(fps.tolist())):
        rows = np.flatnonzero(ds.footprints == p)
        if rows.size < 2:
            raise DataError(
                f"footprint {p}: {rows.size} soundings, need >= 2 to interpolate"
            )
        rows = rows[np.argsort(ds.latitudes[rows], kind="stable")]
        lats = ds.latitudes[rows]
        y = ds.radiance[np.ix_(rows, pos)]
        sel = np.flatnonzero(fps == p)
        x0 = x[sel]
        complete = ~np.isnan(y).any(axis=0)
        yc = y[:, complete]
        # Nearest value beyond either end; the interior rows are replaced below.
        idx = np.searchsorted(lats, x0)
        block = yc[np.minimum(idx, lats.size - 1)]
        inner = (idx > 0) & (idx < lats.size)
        i = idx[inner]
        t = ((x0[inner] - lats[i - 1]) / (lats[i] - lats[i - 1]))[:, None]
        block[inner] = (1 - t) * yc[i - 1] + t * yc[i]
        out[np.ix_(sel, complete)] = block
        for j in np.flatnonzero(~complete):
            good = ~np.isnan(y[:, j])
            if not good.any():
                w_label = int(ws.indices[j]) if ws is not None else int(pos[j]) + 1
                raise DataError(
                    f"footprint {p}: wavelength w_{w_label} has no observed values"
                )
            out[sel, j] = np.interp(x0, lats[good], y[good, j])
    return out


def save_model(model: GeoFpcaModel, path) -> None:
    """Serialize a fitted model to a single JSON document."""
    doc = {
        "format": "geofpca-model",
        "version": 1,
        "region": [model.region[0], model.region[1]],
        "wavelengths": list(model.wavelengths.indices),
        "mean": model.mean.to_dict(),
        "basis": {
            "eigenvalues": [float(v) for v in model.basis.eigenvalues],
            "eigenvectors": [float(v) for v in model.basis.eigenvectors.ravel(order="C")],
            "K": model.basis.K,
            "fve_curve": [float(v) for v in model.basis.fve_curve],
        },
        "scores": {
            "sounding_ids": [int(i) for i in model.scores.sounding_ids],
            "values": {str(int(i)): [float(v) for v in row]
                       for i, row in zip(model.scores.sounding_ids, model.scores.scores)},
            "latitudes": [float(v) for v in model.scores.latitudes],
            "longitudes": [float(v) for v in model.scores.longitudes],
            "footprints": [int(v) for v in model.scores.footprints],
            "taus": {str(p): [float(v) for v in tau]
                     for p, tau in sorted(model.scores.taus.items())},
            "excluded_ids": [int(i) for i in model.scores.excluded_ids],
        },
        "fits": [None if f is None else f.to_dict() for f in model.fits],
        "tests": [None if t is None else t.to_dict() for t in model.tests],
        "config": model.config.to_dict(),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, allow_nan=False) + "\n")


def load_model(path) -> GeoFpcaModel:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise DataError(f"cannot read model file {path}: {e.strerror}") from None
    except ValueError as e:
        raise DataError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(doc, dict) or doc.get("format") != "geofpca-model":
        raise DataError(f"{path}: not a model file")
    try:
        return _model_from_doc(doc)
    except (LookupError, TypeError, ValueError, DataError) as e:
        raise DataError(f"{path}: malformed model file ({type(e).__name__}: {e})") from None


def _model_from_doc(doc: dict) -> GeoFpcaModel:
    ws = WavelengthSet(tuple(doc["wavelengths"]))
    mean = MeanModel.from_dict(doc["mean"], ws)
    b = doc["basis"]
    k = int(b["K"])
    basis = FpcaBasis(
        np.asarray(b["eigenvalues"], dtype=float),
        np.asarray(b["eigenvectors"], dtype=float).reshape(ws.size, k),
        k,
        np.asarray(b["fve_curve"], dtype=float),
        ws,
    )
    s = doc["scores"]
    ids = np.asarray(s["sounding_ids"], dtype=int)
    scores = ScoreField(
        ids,
        np.array([s["values"][str(int(i))] for i in ids], dtype=float).reshape(len(ids), k),
        np.asarray(s["latitudes"], dtype=float),
        np.asarray(s["longitudes"], dtype=float),
        np.asarray(s["footprints"], dtype=int),
        {int(p): np.asarray(tau, dtype=float) for p, tau in s["taus"].items()},
        tuple(s["excluded_ids"]),
    )
    fits = [None if f is None else VariogramFit.from_dict(f) for f in doc["fits"]]
    tests = [None if t is None else SpatialTestResult.from_dict(t) for t in doc["tests"]]
    model = GeoFpcaModel((doc["region"][0], doc["region"][1]), ws, mean, basis,
                         scores, fits, tests, FitConfig.from_dict(doc["config"]))
    _check_kriging_inputs(model)
    # Older files keep an unread fit for an independent component: drop it.
    model.fits = [f if t is None or t.dependent else None for f, t in zip(fits, tests)]
    return model


def _check_kriging_inputs(model: GeoFpcaModel) -> None:
    """Raise ValueError where a loaded model cannot krige what it claims to."""
    k, sf = model.basis.K, model.scores
    for name, entries in (("fits", model.fits), ("tests", model.tests),
                          ("basis.eigenvalues", model.basis.eigenvalues)):
        if len(entries) != k:
            raise ValueError(f"{name} has {len(entries)} entries for K = {k}")
    for name, values in (("scores.values", sf.scores),
                         ("basis.eigenvectors", model.basis.eigenvectors),
                         ("basis.eigenvalues", model.basis.eigenvalues)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} holds a non-finite number")
    if any(a.shape != sf.sounding_ids.shape for a in (sf.latitudes, sf.longitudes,
                                                      sf.footprints)):
        raise ValueError("score coordinates and footprints need one entry per sounding id")
    bad = coordinate_violation(sf.latitudes, sf.longitudes)
    if bad is not None:
        raise ValueError(f"score {bad[0]}: {bad[1]}")
    fps = sorted(set(sf.footprints.tolist()))
    if not set(fps) <= set(FOOTPRINTS):
        raise ValueError(f"score footprints {fps} outside {FOOTPRINTS[0]}..{FOOTPRINTS[-1]}")
    for p in sorted(set(fps) | set(sf.taus)):
        tau = sf.taus.get(p, np.empty(0))
        if tau.shape != (k,) or not (np.isfinite(tau) & (tau >= 0.0)).all():
            raise ValueError(f"taus for footprint {p} need K = {k} finite entries >= 0")
    fve = model.basis.fve_curve
    if not (fve.ndim == 1 and fve.size and np.isfinite(fve).all()
            and (np.diff(fve) >= 0.0).all() and abs(fve[-1] - 1.0) <= 1e-9):
        raise ValueError("basis.fve_curve must be finite and non-decreasing, ending at 1")
    if not model.region[0] <= model.region[1]:
        raise ValueError(f"region {list(model.region)} has lo > hi")
    for c, fit in enumerate(model.fits):
        if fit is None:
            if model.tests[c] is None or model.tests[c].dependent:
                raise ValueError(f"component {c} is kriged but has no variogram fit")
        elif (not all(type(x) in (int, float) and math.isfinite(x)
                      for x in (fit.sill, fit.range_km))
              or fit.sill < 0.0 or fit.range_km <= 0.0):
            raise ValueError(f"fits[{c}] needs a finite sill >= 0 and range_km > 0, "
                             f"got {fit.sill!r} and {fit.range_km!r}")
