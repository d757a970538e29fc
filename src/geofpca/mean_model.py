"""Footprint-specific per-wavelength linear mean model.

Each footprint gets its own ordinary-least-squares line per wavelength, with
latitude as the default covariate (an optional latitude+longitude form is
available). The joint design matrix is block-diagonal over footprints, so the
fits decompose into independent per-(footprint, wavelength) regressions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import SpectralDataset, WavelengthSet
from .errors import DataError, NumericalError

COVARIATE_MODES = ("latitude", "latlon")


@dataclass
class MeanModel:
    """Per-footprint, per-wavelength linear coefficients.

    ``coefficients[p]`` is a (1 + n_cov) x m array: intercept row followed by
    one row per covariate, columns aligned with ``wavelengths``. Footprints
    with no training soundings are simply absent.
    """

    wavelengths: WavelengthSet
    covariates: str
    coefficients: dict[int, np.ndarray]

    def footprints(self) -> list[int]:
        return sorted(self.coefficients)

    def to_dict(self) -> dict:
        return {
            "covariates": self.covariates,
            "footprints": {
                str(p): {str(w): [float(v) for v in self.coefficients[p][:, j]]
                         for j, w in enumerate(self.wavelengths.indices)}
                for p in self.footprints()
            },
        }

    @classmethod
    def from_dict(cls, d: dict, wavelengths: WavelengthSet) -> "MeanModel":
        coefs = {}
        for p_str, per_w in d["footprints"].items():
            cols = [per_w[str(w)] for w in wavelengths.indices]
            coefs[int(p_str)] = np.array(cols, dtype=float).T
        return cls(wavelengths, d["covariates"], coefs)


def _covariate_matrix(covariates: str, lat: np.ndarray, lon) -> np.ndarray:
    """The covariate columns at n locations: n x 1 (latitude) or n x 2 (latlon)."""
    if covariates == "latitude":
        return lat[:, None]
    return np.column_stack([lat, np.asarray(lon, dtype=float)])


def _solve_ols(x: np.ndarray, y: np.ndarray, p: int, w: int) -> np.ndarray:
    """OLS of y (n or n x m) on [1, x] with centering for conditioning."""
    n, ncov = x.shape
    if n < ncov + 1:
        raise DataError(
            f"footprint {p}, wavelength {w}: only {n} usable soundings "
            f"(need at least {ncov + 1})"
        )
    center = x.mean(axis=0)
    design = np.column_stack([np.ones(n), x - center])
    beta_c, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < ncov + 1:
        raise NumericalError(
            f"footprint {p}, wavelength {w}: rank-deficient design "
            "(covariates not distinct)"
        )
    beta = np.atleast_2d(beta_c.T).T.copy()
    beta[0] = beta[0] - center @ beta[1:]
    return beta


def fit_mean_model(ds: SpectralDataset, ws: WavelengthSet,
                   covariates: str = "latitude") -> MeanModel:
    """Fit the per-(footprint, wavelength) OLS mean coefficients.

    Rows missing radiance at a wavelength are dropped from that wavelength's
    fit only. Raises when any (footprint, wavelength) fit is rank deficient
    or has fewer rows than coefficients.
    """
    if covariates not in COVARIATE_MODES:
        raise DataError(f"unknown covariate mode {covariates!r}")
    if len(ds) == 0:
        raise DataError("empty dataset")
    pos = ws.positions
    coefficients = {}
    for p in ds.footprints_present():
        rows = np.flatnonzero(ds.footprints == p)
        x = _covariate_matrix(covariates, ds.latitudes[rows], ds.longitudes[rows])
        y = ds.radiance[np.ix_(rows, pos)]
        missing = np.isnan(y)
        beta = np.empty((1 + x.shape[1], ws.size))
        complete = ~missing.any(axis=0)
        if complete.any():
            beta[:, complete] = _solve_ols(x, y[:, complete], p,
                                           int(ws.indices[int(np.flatnonzero(complete)[0])]))
        for j in np.flatnonzero(~complete):
            keep = ~missing[:, j]
            beta[:, j:j + 1] = _solve_ols(x[keep], y[keep, j:j + 1], p,
                                          int(ws.indices[j]))
        if not np.all(np.isfinite(beta)):
            raise NumericalError(f"footprint {p}: non-finite mean coefficients")
        coefficients[p] = beta
    return MeanModel(ws, covariates, coefficients)


def _footprint_means(model: MeanModel, latitudes, longitudes, footprints):
    """(rows, their mean spectra) for each footprint among T locations; a
    footprint that is not a whole number is refused, never truncated."""
    lat = np.asarray(latitudes, dtype=float)
    given = np.asarray(footprints, dtype=float)
    if given.shape != lat.shape:
        raise DataError("need one footprint per location")
    whole = np.isfinite(given) & (given == np.round(given))
    if not whole.all():
        raise DataError(f"footprint {given[~whole][0]} is not an integer")
    fps = given.astype(int)
    covs = _covariate_matrix(model.covariates, lat, longitudes)
    for p in sorted(set(fps.tolist())):
        if p not in model.coefficients:
            raise DataError(f"footprint {p} was not fitted")
        beta = model.coefficients[p]
        sel = fps == p
        yield sel, beta[0] + covs[sel] @ beta[1:]


def evaluate_mean_at(model: MeanModel, latitudes, longitudes, footprints) -> np.ndarray:
    """Mean spectra over the model's wavelength set at T locations (T x m)."""
    out = np.empty((np.size(latitudes), model.wavelengths.size))
    for sel, mean in _footprint_means(model, latitudes, longitudes, footprints):
        out[sel] = mean
    return out


def residual_rows(model: MeanModel, ds: SpectralDataset, rows: np.ndarray) -> np.ndarray:
    """Radiance minus the mean at the given dataset rows (len(rows) x m), in place."""
    resid = ds.radiance[np.ix_(rows, model.wavelengths.positions)]
    columns = (ds.latitudes[rows], ds.longitudes[rows], ds.footprints[rows])
    for sel, mean in _footprint_means(model, *columns):
        resid[sel] -= mean
    return resid
