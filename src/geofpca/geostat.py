"""Spatial structure of component scores: variograms, screening, kriging.

The empirical semivariogram subtracts the per-pair average score-noise
variance, which removes the footprint-dependent nugget before model fitting.
The exponential model sill*(1 - exp(-h/range)) is fitted by weighted least
squares; spatial dependence is screened with a Moran's I permutation test;
prediction uses the plug-in ordinary kriging BLUP built from the fitted
covariance plus the heterogeneous nugget on the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.optimize import minimize

from .dataset import GeoLocation, SpectralDataset, haversine_km, pairwise_distances
from .errors import DataError, DegenerateScoresError, NumericalError
from .fpca import ScoreField

WEIGHT_SCHEMES = ("nh2", "n")
JITTER = 1e-8  # relative diagonal regularization of the kriging covariance


@dataclass
class VariogramBins:
    """Equal-width binning up to ``max_fraction`` of the largest pair distance."""

    n_bins: int = 15
    max_fraction: float = 0.5
    min_pairs: int = 10


@dataclass
class EmpiricalVariogram:
    """Per-bin representative distance, pair count, and (possibly negative) value."""

    distances: np.ndarray
    counts: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if not (len(self.distances) == len(self.counts) == len(self.values)):
            raise DataError("variogram bin arrays must have equal length")


@dataclass
class VariogramFit:
    """Fitted exponential semivariogram parameters and diagnostics."""

    sill: float
    range_km: float
    weight_scheme: str
    objective: float
    degenerate: bool
    variogram: EmpiricalVariogram
    model: str = "exponential"

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "sill": self.sill,
            "range_km": self.range_km,
            "weight_scheme": self.weight_scheme,
            "objective": self.objective,
            "degenerate": self.degenerate,
            "bins": {
                "distances": [float(x) for x in self.variogram.distances],
                "counts": [int(x) for x in self.variogram.counts],
                "values": [float(x) for x in self.variogram.values],
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VariogramFit":
        ev = EmpiricalVariogram(
            np.asarray(d["bins"]["distances"], dtype=float),
            np.asarray(d["bins"]["counts"], dtype=int),
            np.asarray(d["bins"]["values"], dtype=float),
        )
        return cls(d["sill"], d["range_km"], d["weight_scheme"], d["objective"],
                   d["degenerate"], ev, d["model"])


@dataclass
class SpatialTestResult:
    """Moran's I permutation screening for one component."""

    component: int
    statistic: float
    p_value: float
    dependent: bool
    n_perm: int
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise DataError(f"p-value {self.p_value} outside [0, 1]")

    def to_dict(self) -> dict:
        stat = self.statistic if np.isfinite(self.statistic) else None
        return {"component": self.component, "statistic": stat,
                "p_value": self.p_value, "dependent": self.dependent,
                "n_perm": self.n_perm, "alpha": self.alpha}

    @classmethod
    def from_dict(cls, d: dict) -> "SpatialTestResult":
        stat = float("nan") if d["statistic"] is None else d["statistic"]
        return cls(d["component"], stat, d["p_value"], d["dependent"],
                   d["n_perm"], d["alpha"])


def exponential_variogram(h, sill: float, range_km: float):
    return sill * (1.0 - np.exp(-np.asarray(h, dtype=float) / range_km))


def _score_geometry(scores: ScoreField, ds: SpectralDataset | None):
    """Latitudes, longitudes, and footprints of the score-bearing soundings.

    The field's embedded geometry is authoritative; ``ds`` is only consulted
    for fields built without one (and must then contain every scored id).
    """
    if scores.latitudes is not None:
        return scores.latitudes, scores.longitudes, scores.footprints
    if ds is None:
        raise DataError("score field carries no geometry and no dataset was given")
    rows = np.array([ds.index_of(int(i)) for i in scores.sounding_ids])
    return ds.latitudes[rows], ds.longitudes[rows], ds.footprints[rows]


def _score_distances(scores: ScoreField, ds: SpectralDataset | None) -> np.ndarray:
    """Pairwise distances of the score-bearing soundings (cached on the field)."""
    if scores.latitudes is not None:
        return scores.distances()
    lat, lon, _ = _score_geometry(scores, ds)
    return pairwise_distances(lat, lon)


def empirical_semivariogram(scores: ScoreField, k: int, ds: SpectralDataset,
                            bins: VariogramBins | None = None) -> EmpiricalVariogram:
    """Nugget-corrected binned semivariogram of one component's scores.

    Per bin: half the mean squared score difference minus half the mean of the
    two pair members' score-noise variances. Bins with fewer than
    ``bins.min_pairs`` pairs are dropped.
    """
    bins = bins or VariogramBins()
    lat, lon, fps = _score_geometry(scores, ds)
    n = lat.size
    if n < 2:
        raise DataError("need at least 2 scored soundings for a semivariogram")
    u = scores.component(k)
    tau = scores.tau_for(fps, k)
    iu, ju = np.triu_indices(n, k=1)
    d = _score_distances(scores, ds)[iu, ju]
    sq = 0.5 * (u[iu] - u[ju]) ** 2
    nug = 0.5 * (tau[iu] + tau[ju])
    h_max = d.max() * bins.max_fraction
    if h_max <= 0:
        raise DataError("all pairwise distances are zero")
    edges = np.linspace(0.0, h_max, bins.n_bins + 1)
    which = np.digitize(d, edges[1:-1], right=False)
    inside = d <= h_max
    dist, count, value = [], [], []
    for b in range(bins.n_bins):
        sel = inside & (which == b)
        n_b = int(sel.sum())
        if n_b < bins.min_pairs:
            continue
        dist.append(d[sel].mean())
        count.append(n_b)
        value.append(sq[sel].mean() - nug[sel].mean())
    if not dist:
        raise DataError(
            f"no variogram bin retained >= {bins.min_pairs} pairs (n={n})"
        )
    return EmpiricalVariogram(np.array(dist), np.array(count), np.array(value))


def _wls_weights(ev: EmpiricalVariogram, scheme: str) -> np.ndarray:
    if scheme == "nh2":
        return ev.counts / np.maximum(ev.distances, 1e-12) ** 2
    if scheme == "n":
        return ev.counts.astype(float)
    raise DataError(f"unknown weight scheme {scheme!r}")


def fit_variogram_wls(ev: EmpiricalVariogram, weight_scheme: str = "nh2",
                      n_grid: int = 14) -> VariogramFit:
    """Weighted-least-squares exponential fit to a binned semivariogram.

    Minimizes the diagonally weighted squared misfit over a coarse log-grid in
    (sill, range), then refines with Nelder-Mead. Bounds: sill in
    [0, 10 * max bin value], range in [h_1/10, 10 * h_L]. If every bin value
    is <= 0 the fit is returned at sill 0 with the degenerate flag set.
    """
    if ev.distances.size < 2:
        raise DataError("need at least 2 variogram bins to fit")
    w = _wls_weights(ev, weight_scheme)
    r_lo, r_hi = ev.distances[0] / 10.0, ev.distances[-1] * 10.0

    def objective(theta):
        sill, rng = theta
        if not (0.0 <= sill <= sill_hi and r_lo <= rng <= r_hi):
            return np.inf
        resid = ev.values - exponential_variogram(ev.distances, sill, rng)
        return float(resid @ (w * resid))

    vmax = float(ev.values.max())
    if vmax <= 0.0:
        sill_hi = 0.0
        rng = float(np.sqrt(r_lo * r_hi))
        return VariogramFit(0.0, rng, weight_scheme, objective((0.0, rng)),
                            True, ev)
    sill_hi = 10.0 * vmax
    sills = np.geomspace(vmax / 100.0, sill_hi, n_grid)
    ranges = np.geomspace(r_lo, r_hi, n_grid)
    grid = [(s, r) for s in sills for r in ranges]
    best = min(grid, key=objective)
    res = minimize(objective, x0=np.array(best), method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
    if not np.isfinite(res.fun):
        raise NumericalError("variogram objective is non-finite at the optimum")
    sill = float(min(max(res.x[0], 0.0), sill_hi))
    rng = float(min(max(res.x[1], r_lo), r_hi))
    return VariogramFit(sill, rng, weight_scheme, float(res.fun),
                        sill <= 0.0, ev)


def spatial_dependence_test(scores: ScoreField, k: int, ds: SpectralDataset,
                            n_perm: int = 999, alpha: float = 0.05,
                            seed: int = 0, n_neighbors: int = 10) -> SpatialTestResult:
    """Moran's I permutation test with inverse-distance k-nearest weights.

    The p-value is two-sided around the permutation-null expectation
    -1/(n-1); ``dependent`` is the comparison against ``alpha``.
    """
    n = scores.sounding_ids.size
    if n < 20:
        raise DataError(f"spatial dependence test needs >= 20 soundings, got {n}")
    if n_perm < 99:
        raise DataError(f"n_perm {n_perm} < 99")
    z = scores.component(k) - scores.component(k).mean()
    if float(z @ z) <= 0.0:
        raise DegenerateScoresError(f"component {k}: degenerate (zero-variance) scores")

    d = _score_distances(scores, ds).copy()  # the shared matrix stays intact
    np.fill_diagonal(d, np.inf)
    m = min(n_neighbors, n - 1)
    nb = np.argsort(d, axis=1, kind="stable")[:, :m]
    wts = 1.0 / np.maximum(d[np.arange(n)[:, None], nb], 1e-9)
    s0 = wts.sum()

    def moran(v):
        return n / s0 * float(np.sum(v[:, None] * wts * v[nb])) / float(v @ v)

    stat = moran(z)
    e_i = -1.0 / (n - 1)
    rng = np.random.default_rng(seed)
    exceed = 0
    ref = abs(stat - e_i)
    for _ in range(n_perm):
        zp = z[rng.permutation(n)]
        if abs(moran(zp) - e_i) >= ref:
            exceed += 1
    p = (1 + exceed) / (1 + n_perm)
    return SpatialTestResult(k, stat, p, p < alpha, n_perm, alpha)


class KrigingSystem:
    """Plug-in ordinary kriging of one component's scores, factored once.

    The covariance is sill*exp(-d/range) off the diagonal and sill plus the
    footprint score-noise variance (with a relative jitter) on it. Building
    the system factors it once and caches Sigma^-1 1, 1' Sigma^-1 1, the GLS
    mean kappa and the weights Sigma^-1 u - kappa Sigma^-1 1, so T targets
    cost one T x n cross-covariance and one triangular solve with T
    right-hand sides. A component screened as spatially independent predicts
    the plain score mean with ``marginal_variance``; a single observation
    pins the mean exactly. Both then predict a constant.
    """

    def __init__(self, scores: ScoreField, k: int, fit: VariogramFit | None,
                 dependent: bool = True, marginal_variance: float | None = None):
        u = scores.component(k)
        if u.size < 1:
            raise DataError("no scores to krige from")
        self.constant: tuple[float, float] | None = None
        if not dependent:
            if marginal_variance is None:
                raise DataError("reduced predictor needs a marginal variance")
            self.constant = (float(u.mean()), float(marginal_variance))
            return
        if fit is None:
            raise DataError(f"component {k}: no variogram fit available for kriging")
        lat, lon, fps = _score_geometry(scores, None)
        tau = scores.tau_for(fps, k)
        if u.size < 2:
            # A single observation pins the constant mean exactly.
            self.constant = (float(u[0]), float(fit.sill + tau[0]))
            return

        sill, rng = fit.sill, fit.range_km
        cov = np.divide(scores.distances(), -rng)
        np.exp(cov, out=cov)
        cov *= sill
        np.fill_diagonal(cov, sill + tau + JITTER * sill)
        try:
            chol, _ = cho_factor(cov, lower=True, overwrite_a=True)
        except np.linalg.LinAlgError as e:
            raise NumericalError(f"kriging covariance not SPD after jitter: {e}") from None
        sol_u = cho_solve((chol, True), u)
        sol_1 = cho_solve((chol, True), np.ones_like(u))
        denom = float(sol_1.sum())
        if denom <= 0.0:
            raise NumericalError("kriging system degenerate (1' Sigma^-1 1 <= 0)")
        self.kappa = float(sol_u.sum()) / denom
        self.weights = sol_u - self.kappa * sol_1
        self.sol_1, self.denom = sol_1, denom
        self.chol, self.sill, self.range_km = chol, sill, rng
        self.latitudes, self.longitudes = lat, lon

    def predict(self, latitudes, longitudes) -> tuple[np.ndarray, np.ndarray]:
        """Predictions and prediction variances at T locations (two length-T arrays)."""
        lat = np.asarray(latitudes, dtype=float)
        lon = np.asarray(longitudes, dtype=float)
        if self.constant is not None:
            return np.full(lat.shape, self.constant[0]), np.full(lat.shape, self.constant[1])
        nu = haversine_km(lat[:, None], lon[:, None],
                          self.latitudes[None, :], self.longitudes[None, :])
        np.divide(nu, -self.range_km, out=nu)
        np.exp(nu, out=nu)
        nu *= self.sill
        pred = self.kappa + nu @ self.weights
        slack = 1.0 - nu @ self.sol_1
        half = solve_triangular(self.chol, nu.T, lower=True, check_finite=False)
        var = self.sill - np.einsum("ij,ij->j", half, half) + slack * slack / self.denom
        return pred, np.maximum(var, 0.0)


def krige_score(target: GeoLocation, scores: ScoreField, k: int,
                fit: VariogramFit | None, dependent: bool = True,
                marginal_variance: float | None = None) -> tuple[float, float]:
    """Predict one component's score at one location: (prediction, variance).

    A one-target call into :class:`KrigingSystem`; to predict many targets,
    build the system once and call its ``predict``.
    """
    system = KrigingSystem(scores, k, fit, dependent, marginal_variance)
    pred, var = system.predict([target.latitude], [target.longitude])
    return float(pred[0]), float(var[0])
