"""Fitted-model assembly, spectral imputation, and the interpolation baseline.

``fit_geofpca`` runs the full pipeline in order: wavelength selection, mean
fit, per-footprint error covariances, signal covariance, eigendecomposition,
scores, score-noise variances, spatial-dependence screening, then empirical
variograms and WLS fits per retained component. The resulting model imputes
spectra at any batch of locations as the mean plus the kriged-score
reconstruction, factoring each component's kriging system once.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .dataset import SpectralDataset, WavelengthSet, common_wavelengths
from .errors import DataError, DegenerateScoresError, GeofpcaError, NumericalError
from .fpca import (CovarianceMatrix, FpcaBasis, ScoreField,
                   compute_score_noise_variance, compute_scores,
                   eigendecompose, estimate_error_covariance,
                   estimate_signal_covariance)
from .geostat import (WEIGHT_SCHEMES, KrigingSystem, SpatialTestResult, VariogramBins,
                      VariogramFit, empirical_semivariogram, fit_variogram_wls,
                      spatial_dependence_test)
# Unused here; perfbench's tracer self-test checks it is rebound in this module.
from .geostat import krige_score  # noqa: F401
from .mean_model import COVARIATE_MODES, MeanModel, evaluate_mean_at, fit_mean_model

ScoreTransform = Callable[[ScoreField, SpectralDataset], ScoreField]


@dataclass
class FitConfig:
    """Tunables for the fitting pipeline, echoed into every saved model."""

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
        b = self.bins
        for ok, problem in (
            (0.0 < self.fve_threshold <= 1.0,
             f"fve_threshold {self.fve_threshold} outside (0, 1]"),
            (0.0 < self.min_coverage <= 1.0,
             f"min_coverage {self.min_coverage} outside (0, 1]"),
            (self.covariates in COVARIATE_MODES,
             f"covariates {self.covariates!r} not one of {COVARIATE_MODES}"),
            (self.max_lat_span > 0.0, f"max_lat_span {self.max_lat_span} must be > 0"),
            (self.max_gap_km > 0.0, f"max_gap_km {self.max_gap_km} must be > 0"),
            (b.n_bins >= 1, f"n_bins {b.n_bins} must be >= 1"),
            (0.0 < b.max_fraction <= 1.0, f"bin max_fraction {b.max_fraction} outside (0, 1]"),
            (b.min_pairs >= 1, f"min_pairs {b.min_pairs} must be >= 1"),
            (self.weight_scheme in WEIGHT_SCHEMES,
             f"weight_scheme {self.weight_scheme!r} not one of {WEIGHT_SCHEMES}"),
            (self.n_perm >= 99, f"n_perm {self.n_perm} < 99: too few permutations "
                                "for the spatial dependence screen"),
            (0.0 < self.alpha < 1.0, f"alpha {self.alpha} outside (0, 1)"),
        ):
            if not ok:
                raise DataError(problem)

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
    """Everything needed to impute spectra in the fitted region."""

    region: tuple[float, float]
    wavelengths: WavelengthSet
    mean: MeanModel
    basis: FpcaBasis
    scores: ScoreField
    fits: list[VariogramFit | None]
    tests: list[SpatialTestResult | None]
    config: FitConfig
    _systems: list[KrigingSystem] | None = field(default=None, init=False, repr=False,
                                                 compare=False)

    def dependent(self, k: int) -> bool:
        """Spatial dependence decision for component k (default True if untested)."""
        t = self.tests[k]
        return True if t is None else t.dependent

    def kriging_systems(self) -> list[KrigingSystem]:
        """One factored predictor per component, built on first use and never saved."""
        if self._systems is None:
            self._systems = [
                KrigingSystem(self.scores, k, self.fits[k], self.dependent(k),
                              float(self.basis.eigenvalues[k]))
                for k in range(self.basis.K)
            ]
        return self._systems


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
    variogram fits (used for local-linear score smoothing in unmixing).
    Sub-step failures carry their pipeline stage in the message.
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
    if score_transform is not None:
        scores = _stage("score-smoothing", score_transform, scores, ds)

    tests: list[SpatialTestResult | None] = []
    fits: list[VariogramFit | None] = []
    for k in range(basis.K):
        if scores.sounding_ids.size >= 20:
            try:
                test = spatial_dependence_test(scores, k, config.n_perm,
                                               config.alpha, config.seed)
            except DegenerateScoresError:
                # Constant scores: the reduced mean predictor is exact.
                test = SpatialTestResult(k, math.nan, 1.0, False,
                                         config.n_perm, config.alpha)
        else:
            test = None  # too few soundings to screen; keep the kriging path
        tests.append(test)
        try:
            ev = empirical_semivariogram(scores, k, config.bins)
            fits.append(fit_variogram_wls(ev, config.weight_scheme))
        except GeofpcaError as e:
            if test is None or test.dependent:
                raise type(e)(f"[variogram k={k}] {e}") from e
            fits.append(None)  # unused by the reduced predictor
    return GeoFpcaModel(region, ws, mean, basis, scores, fits, tests, config)


def _target_coordinates(latitudes, longitudes) -> tuple[np.ndarray, np.ndarray]:
    lat = np.asarray(latitudes, dtype=float)
    lon = np.asarray(longitudes, dtype=float)
    if lat.ndim != 1 or lat.shape != lon.shape:
        raise DataError("target latitudes and longitudes must be 1-D arrays of "
                        "equal length")
    if not (np.isfinite(lat).all() and np.isfinite(lon).all()):
        raise DataError("target coordinates must be finite")
    return lat, lon


def predict_scores(model: GeoFpcaModel, latitudes, longitudes
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Kriged (or reduced) score predictions and variances at T locations.

    Returns two T x K arrays. The per-component kriging systems are factored
    on the first call and reused by every later one.
    """
    lat, lon = _target_coordinates(latitudes, longitudes)
    preds = np.empty((lat.size, model.basis.K))
    variances = np.empty((lat.size, model.basis.K))
    for k, system in enumerate(model.kriging_systems()):
        preds[:, k], variances[:, k] = system.predict(lat, lon)
    return preds, variances


def impute_radiance(model: GeoFpcaModel, latitudes, longitudes, footprints,
                    scores: np.ndarray | None = None) -> np.ndarray:
    """Impute spectra at T locations: mean plus score reconstruction (T x m).

    ``scores`` takes the T x K predictions of :func:`predict_scores` when the
    caller already holds them, so the targets are not kriged twice.
    """
    lat, lon = _target_coordinates(latitudes, longitudes)
    spectra = evaluate_mean_at(model.mean, lat, lon, footprints)
    if scores is None:
        scores, _ = predict_scores(model, lat, lon)
    spectra += scores @ model.basis.eigenvectors.T
    if not np.all(np.isfinite(spectra)):
        raise NumericalError("imputed spectrum is not finite")
    return spectra


def interpolate_radiance(ds: SpectralDataset, latitudes, footprints,
                         ws: WavelengthSet | None = None) -> np.ndarray:
    """Per-wavelength linear interpolation in latitude at T targets (T x m).

    The baseline method: each target's wavelength is interpolated between the
    nearest soundings of its footprint below and above its latitude, with
    nearest-value extrapolation outside the observed range.
    """
    x = np.asarray(latitudes, dtype=float)
    fps = np.asarray(footprints)
    if x.ndim != 1 or fps.shape != x.shape or not np.isfinite(x).all():
        raise DataError("need one finite target latitude per footprint")
    pos = ws.positions if ws is not None else np.arange(ds.grid_length)
    out = np.empty((x.size, pos.size))
    for p in np.unique(fps):
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
    except (KeyError, TypeError, ValueError) as e:
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
    return GeoFpcaModel((doc["region"][0], doc["region"][1]), ws, mean, basis,
                        scores, fits, tests, FitConfig.from_dict(doc["config"]))
