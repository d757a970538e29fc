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

from .dataset import GeoLocation, haversine_km
from .errors import DataError, DegenerateScoresError, NumericalError
from .fpca import ScoreField

# numpy alone: the WLS fit's Nelder-Mead and kriging's triangular solves are
# written here, so no command loads scipy (importing it would cost more than
# many CLI commands compute).

WEIGHT_SCHEMES = ("nh2", "n")
JITTER = 1e-8  # relative diagonal regularization of the kriging covariance
PERM_ELEMENTS = 1 << 15  # permuted scores held per Moran chunk (b permutations x n)
SOLVE_BLOCK = 64  # rows per block of the forward substitution
GRID_POINTS = 14  # log-spaced start-grid values per variogram parameter
GRID_RTOL = 1e-9  # start-grid points this close to the broadcast minimum are re-scored
XATOL, FATOL, MAXITER = 1e-10, 1e-12, 2000  # Nelder-Mead stopping rule


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


def empirical_semivariogram(scores: ScoreField, k: int,
                            bins: VariogramBins | None = None) -> EmpiricalVariogram:
    """Nugget-corrected binned semivariogram of one component's scores.

    Per bin: half the mean squared score difference minus half the mean of the
    two pair members' score-noise variances. Bins with fewer than
    ``bins.min_pairs`` pairs are dropped.
    """
    bins = bins or VariogramBins()
    n = scores.sounding_ids.size
    if n < 2:
        raise DataError("need at least 2 scored soundings for a semivariogram")
    i, j, starts, counts, mean_d = scores.binned_pairs(bins.n_bins, bins.max_fraction)
    u = scores.component(k)
    tau = scores.tau_for(scores.footprints, k)
    sq = 0.5 * (u[i] - u[j]) ** 2
    nug = 0.5 * (tau[i] + tau[j])
    keep = np.flatnonzero(counts >= bins.min_pairs)
    if not keep.size:
        raise DataError(
            f"no variogram bin retained >= {bins.min_pairs} pairs (n={n})"
        )
    values = [sq[a:a + c].mean() - nug[a:a + c].mean()
              for a, c in zip(starts[keep], counts[keep])]
    return EmpiricalVariogram(mean_d[keep], counts[keep], np.array(values))


def _wls_weights(ev: EmpiricalVariogram, scheme: str) -> np.ndarray:
    if scheme == "nh2":
        return ev.counts / np.maximum(ev.distances, 1e-12) ** 2
    if scheme == "n":
        return ev.counts.astype(float)
    raise DataError(f"unknown weight scheme {scheme!r}")


def _sorted_vertices(sim: list, fsim: list) -> tuple[list, list]:
    """Vertices and values in the ascending order of ``np.argsort``, as scipy."""
    order = np.argsort(fsim)
    return [sim[i] for i in order], [fsim[i] for i in order]


def _nelder_mead(objective, x0: tuple[float, float]) -> tuple[list[float], float]:
    """Minimize ``objective`` over two parameters from ``x0``: (best vertex, value).

    The steps of scipy's ``minimize(method="Nelder-Mead")`` with its
    non-adaptive coefficients (reflection 1, expansion 2, contractions and
    shrink 1/2), no bounds, ``xatol=XATOL``, ``fatol=FATOL`` and
    ``maxiter=MAXITER``, taken on Python floats: the same IEEE operations in
    the same order, so the result is the same to the bit. The start simplex
    scales each coordinate by 1.05 (0.00025 if it is 0); the search stops
    when every vertex lies within XATOL and every value within FATOL of the
    best (never on NaN), or after MAXITER - 1 iterations.
    """
    x0 = [float(v) for v in x0]
    sim = [x0]
    for k in range(2):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [objective(x) for x in sim]
    sim, fsim = _sorted_vertices(*_sorted_vertices(sim, fsim))  # scipy sorts twice
    for _ in range(MAXITER - 1):
        (best, mid, worst), (f_best, f_mid, f_worst) = sim, fsim
        if (all(abs(v[i] - best[i]) <= XATOL for v in (mid, worst) for i in (0, 1))
                and abs(f_best - f_mid) <= FATOL and abs(f_best - f_worst) <= FATOL):
            break
        xbar = [(best[i] + mid[i]) / 2 for i in (0, 1)]
        xr = [2 * xbar[i] - worst[i] for i in (0, 1)]
        fxr = objective(xr)
        shrink = False
        if fxr < f_best:
            xe = [3 * xbar[i] - 2 * worst[i] for i in (0, 1)]
            fxe = objective(xe)
            sim[2], fsim[2] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < f_mid:
            sim[2], fsim[2] = xr, fxr
        elif fxr < f_worst:  # outside contraction
            xc = [1.5 * xbar[i] - 0.5 * worst[i] for i in (0, 1)]
            fxc = objective(xc)
            if fxc <= fxr:
                sim[2], fsim[2] = xc, fxc
            else:
                shrink = True
        else:  # inside contraction
            xcc = [0.5 * xbar[i] + 0.5 * worst[i] for i in (0, 1)]
            fxcc = objective(xcc)
            if fxcc < f_worst:
                sim[2], fsim[2] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in (1, 2):
                sim[j] = [best[i] + 0.5 * (sim[j][i] - best[i]) for i in (0, 1)]
                fsim[j] = objective(sim[j])
        sim, fsim = _sorted_vertices(sim, fsim)
    return sim[0], float(np.min(fsim))  # as scipy: NaN if any value is NaN


def fit_variogram_wls(ev: EmpiricalVariogram,
                      weight_scheme: str = "nh2") -> VariogramFit:
    """Weighted-least-squares exponential fit to a binned semivariogram.

    Minimizes the diagonally weighted squared misfit over a log-grid of
    GRID_POINTS x GRID_POINTS (sill, range) values, then refines the best grid
    point (the first on a tie) with Nelder-Mead. Bounds: sill in
    [0, 10 * max bin value], range in [h_1/10, 10 * h_L]; the objective is
    infinite outside them. If every bin value is <= 0 the fit is returned at
    sill 0 with the degenerate flag set.
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
    sills = np.geomspace(vmax / 100.0, sill_hi, GRID_POINTS)
    ranges = np.geomspace(r_lo, r_hi, GRID_POINTS)
    resid = ev.values - exponential_variogram(ev.distances, sills[:, None, None],
                                              ranges[None, :, None])
    approx = (resid * (w * resid)).sum(axis=-1).ravel()
    # The exact objective picks among the points near the broadcast minimum, in
    # grid order (a NaN keeps every point), as a scan of the whole grid would.
    near = np.flatnonzero(~(approx > approx.min() * (1.0 + GRID_RTOL)))
    best = min(((sills[i // GRID_POINTS], ranges[i % GRID_POINTS]) for i in near),
               key=objective)
    x, fun = _nelder_mead(objective, best)
    if not np.isfinite(fun):
        raise NumericalError("variogram objective is non-finite at the optimum")
    sill = float(min(max(x[0], 0.0), sill_hi))
    rng = float(min(max(x[1], r_lo), r_hi))
    return VariogramFit(sill, rng, weight_scheme, fun, sill <= 0.0, ev)


def _permuted_moran(z: np.ndarray, nb: np.ndarray, wts: np.ndarray, n_perm: int,
                    seed: int) -> np.ndarray:
    """Moran's I of ``n_perm`` permutations of the centred scores ``z``.

    The permutations are the successive ``default_rng(seed).permutation(n)``
    draws; ``Generator.permuted`` draws a chunk of b = max(1, PERM_ELEMENTS
    // n) of them, row by row, from that stream in one call. Each neighbour
    term is one gather of the b x n chunk into a reused buffer; the lag adds
    the same products in the same neighbour order, and the sums run over the
    same contiguous rows, as one permutation at a time, so every statistic is
    that permutation's to the bit.
    """
    n, m = nb.shape
    s0 = wts.sum()
    nb_cols, wt_cols = np.ascontiguousarray(nb.T), np.ascontiguousarray(wts.T)
    rng = np.random.default_rng(seed)
    chunk = max(1, PERM_ELEMENTS // n)
    stats = np.empty(n_perm)
    for start in range(0, n_perm, chunk):
        b = min(chunk, n_perm - start)
        zp = z[rng.permuted(np.tile(np.arange(n), (b, 1)), axis=1)]
        lag = np.zeros_like(zp)
        term = np.empty_like(zp)
        for j in range(m):
            # Every index is < n; "clip" writes to out directly, "raise" buffers.
            np.take(zp, nb_cols[j], axis=1, out=term, mode="clip")
            term *= wt_cols[j]
            lag += term
        lag *= zp
        stats[start:start + b] = n / s0 * lag.sum(axis=1) / (zp * zp).sum(axis=1)
    return stats


def spatial_dependence_test(scores: ScoreField, k: int, n_perm: int = 999,
                            alpha: float = 0.05, seed: int = 0,
                            n_neighbors: int = 10) -> SpatialTestResult:
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

    m = min(n_neighbors, n - 1)
    nb, d_nb = scores.nearest(m)
    wts = 1.0 / np.maximum(d_nb, 1e-9)
    s0 = wts.sum()

    stat = n / s0 * float(np.sum(z[:, None] * wts * z[nb])) / float(z @ z)
    e_i = -1.0 / (n - 1)
    perm_stats = _permuted_moran(z, nb, wts, n_perm, seed)
    exceed = int(np.count_nonzero(np.abs(perm_stats - e_i) >= abs(stat - e_i)))
    p = (1 + exceed) / (1 + n_perm)
    return SpatialTestResult(k, stat, p, p < alpha, n_perm, alpha)


def _forward_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L X = B for lower-triangular L (n x n) by blocks of SOLVE_BLOCK rows.

    Each block subtracts the solved rows above it in one matrix product and
    solves its small diagonal block; B is n or n x T.
    """
    out = np.empty(rhs.shape)
    for start in range(0, chol.shape[0], SOLVE_BLOCK):
        stop = start + SOLVE_BLOCK
        block = rhs[start:stop] - chol[start:stop, :start] @ out[:start]
        out[start:stop] = np.linalg.solve(chol[start:stop, start:stop], block)
    return out


class KrigingSystem:
    """Plug-in ordinary kriging of one component's scores, factored once.

    The covariance is sill*exp(-d/range) off the diagonal and sill plus the
    footprint score-noise variance (with a relative jitter) on it. Building
    the system factors it once as L L' and keeps h_u = L^-1 u, h_1 = L^-1 1,
    1' Sigma^-1 1 = h_1'h_1 and the GLS mean kappa, so T targets cost one
    n x T cross-covariance nu and one forward solve H = L^-1 nu with T
    right-hand sides, which gives both the predictions and the variances.
    A component screened as spatially independent predicts the plain score
    mean with ``marginal_variance``; a single observation pins the mean
    exactly. Both then predict a constant.
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
        tau = scores.tau_for(scores.footprints, k)
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
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as e:
            raise NumericalError(f"kriging covariance not SPD after jitter: {e}") from None
        h = _forward_solve(chol, np.column_stack([u, np.ones_like(u)]))
        h_u, h_1 = h[:, 0], h[:, 1]
        denom = float(h_1 @ h_1)
        if denom <= 0.0:
            raise NumericalError("kriging system degenerate (1' Sigma^-1 1 <= 0)")
        self.kappa = float(h_1 @ h_u) / denom
        self.weights = h_u - self.kappa * h_1
        self.h_1, self.denom = h_1, denom
        self.chol, self.sill, self.range_km = chol, sill, rng
        self.latitudes, self.longitudes = scores.latitudes, scores.longitudes

    def predict(self, latitudes, longitudes) -> tuple[np.ndarray, np.ndarray]:
        """Predictions and prediction variances at T locations (two length-T arrays)."""
        lat = np.asarray(latitudes, dtype=float)
        lon = np.asarray(longitudes, dtype=float)
        if self.constant is not None:
            return np.full(lat.shape, self.constant[0]), np.full(lat.shape, self.constant[1])
        nu = haversine_km(self.latitudes[:, None], self.longitudes[:, None],
                          lat[None, :], lon[None, :])
        np.divide(nu, -self.range_km, out=nu)
        np.exp(nu, out=nu)
        nu *= self.sill
        half = _forward_solve(self.chol, nu)
        pred = self.kappa + self.weights @ half
        slack = 1.0 - self.h_1 @ half
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
