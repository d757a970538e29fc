"""Spatial structure of component scores: variograms, screening, kriging.

The empirical semivariogram subtracts the per-pair average score-noise
variance, which removes the footprint-dependent nugget before model fitting.
The exponential model sill*(1 - exp(-h/range)) is fitted by weighted least
squares; spatial dependence is screened with a Moran's I permutation test;
prediction uses the plug-in ordinary kriging BLUP built from the fitted
covariance plus the heterogeneous nugget on the diagonal, in dual form: a GLS
mean and one weight per sounding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .dataset import DISTANCE_BLOCK, distance_blocks, haversine_km
from .errors import DataError, NumericalError, require
from .fpca import ScoreField

# numpy alone: the WLS fit's Nelder-Mead and kriging's triangular solves are
# written here, so no command loads scipy (importing it would cost more than
# many CLI commands compute).

WEIGHT_SCHEMES = ("nh2", "n")
JITTER = 1e-8  # relative diagonal regularization of the kriging covariance
MORAN_NEIGHBOURS = 10  # nearest soundings given inverse-distance Moran weights
MIN_SCREEN_SOUNDINGS = 20  # fewest scored soundings the Moran screen tests
PERM_ELEMENTS = 1 << 15  # permuted scores held per Moran chunk (L components x b x n)
SOLVE_BLOCK = DISTANCE_BLOCK  # columns per factor block: one distance row block each
GRID_POINTS = 14  # log-spaced start-grid values per variogram parameter
GRID_RTOL = 1e-9  # start-grid points this close to the broadcast minimum are re-scored
XATOL, FATOL, MAXITER = 1e-10, 1e-12, 2000  # Nelder-Mead stopping rule


@dataclass
class VariogramBins:
    """Equal-width binning up to ``max_fraction`` of the largest pair distance."""

    n_bins: int = 15
    max_fraction: float = 0.5
    min_pairs: int = 10


def check_bins(bins: VariogramBins) -> None:
    """Raise DataError unless ``bins`` is a binning the semivariogram can make."""
    require((1 <= bins.n_bins <= 10_000, f"n_bins {bins.n_bins} outside 1..10000"),
            (0.0 < bins.max_fraction <= 1.0,
             f"bin max_fraction {bins.max_fraction} outside (0, 1]"),
            (bins.min_pairs >= 1, f"min_pairs {bins.min_pairs} must be >= 1"))


def check_screen(n_perm: int, alpha: float, seed: int) -> None:
    """Raise DataError unless the Moran screen can run with these settings."""
    require((n_perm >= 99, f"n_perm {n_perm} < 99: too few permutations "
                           "for the spatial dependence screen"),
            (n_perm <= 99_999, f"n_perm {n_perm} > 99999: the screen's time grows "
                               "with it past a 1e-5 p-value resolution"),
            (0.0 < alpha < 1.0, f"alpha {alpha} outside (0, 1)"),
            (seed >= 0, f"seed {seed} must be >= 0"))


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

    def to_dict(self) -> dict:
        return {
            "model": "exponential",
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
        """Inverse of ``to_dict``; ValueError for a model or scheme it cannot krige."""
        if d["model"] != "exponential":
            raise ValueError(f"variogram model {d['model']!r} is not 'exponential'")
        if d["weight_scheme"] not in WEIGHT_SCHEMES:
            raise ValueError(f"weight_scheme {d['weight_scheme']!r} not one of {WEIGHT_SCHEMES}")
        ev = EmpiricalVariogram(
            np.asarray(d["bins"]["distances"], dtype=float),
            np.asarray(d["bins"]["counts"], dtype=int),
            np.asarray(d["bins"]["values"], dtype=float),
        )
        return cls(d["sill"], d["range_km"], d["weight_scheme"], d["objective"],
                   d["degenerate"], ev)


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


def empirical_semivariogram(scores: ScoreField, bins: VariogramBins | None = None,
                            components: list[int] | None = None
                            ) -> list[EmpiricalVariogram]:
    """Nugget-corrected binned semivariogram of the listed components' scores.

    ``components`` lists the score columns to bin (default: all K); the
    result is aligned with it.

    The bins split [0, max_fraction * largest pair distance] into ``n_bins``
    equal widths, closed on the left and the last also on the right; farther
    pairs are left out. Per bin: the mean pair distance, and half the mean
    squared score difference minus half the mean of the two pair members'
    score-noise variances. One pass over the upper triangle's row blocks adds
    each block's pairs i < j to per-bin sums, component by component, so a
    component's bins do not depend on the others. Bins with fewer than
    ``bins.min_pairs`` pairs are dropped; the failures depend only on the
    soundings' geometry.
    """
    bins = bins or VariogramBins()
    check_bins(bins)
    n, n_bins = scores.sounding_ids.size, bins.n_bins
    if n < 2:
        raise DataError("need at least 2 scored soundings for a semivariogram")
    h_max = scores.largest_distance() * bins.max_fraction
    if h_max <= 0:
        raise DataError("all pairwise distances are zero")
    edges = np.linspace(0.0, h_max, n_bins + 1)[1:-1]
    if components is None:
        components = list(range(scores.n_components))
    u = scores.scores.T[components]
    tau = [scores.tau_for(scores.footprints, k) for k in components]
    counts, dist = np.zeros(n_bins, dtype=np.int64), np.zeros(n_bins)
    half_sq, nugget = np.zeros((len(tau), n_bins)), np.zeros((len(tau), n_bins))
    for start, d in distance_blocks(scores.latitudes, scores.longitudes, upper=True):
        which = np.digitize(d, edges).ravel()
        which[(~(d <= h_max) | np.tri(*d.shape, dtype=bool)).ravel()] = n_bins  # spare bin
        counts += np.bincount(which, minlength=n_bins + 1)[:n_bins]
        dist += np.bincount(which, d.ravel(), n_bins + 1)[:n_bins]
        for k, (u_k, tau_k) in enumerate(zip(u, tau)):  # d is binned: its buffer takes the terms
            np.subtract(u_k[start:start + len(d), None], u_k[None, start:], out=d)
            d *= d
            d *= 0.5
            half_sq[k] += np.bincount(which, d.ravel(), n_bins + 1)[:n_bins]
            np.add(tau_k[start:start + len(d), None], tau_k[None, start:], out=d)
            d *= 0.5
            nugget[k] += np.bincount(which, d.ravel(), n_bins + 1)[:n_bins]
    keep = np.flatnonzero(counts >= bins.min_pairs)
    if not keep.size:
        raise DataError(
            f"no variogram bin retained >= {bins.min_pairs} pairs (n={n})"
        )
    c = counts[keep]
    return [EmpiricalVariogram(dist[keep] / c, c, s[keep] / c - g[keep] / c)
            for s, g in zip(half_sq, nugget)]


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


def _state_bits(sim: list, fsim: list) -> bytes:
    """The simplex state as bytes: equal only if every vertex and value is
    the same to the bit (so 0.0 and -0.0 differ, and a NaN equals itself)."""
    return struct.pack("9d", *sim[0], *sim[1], *sim[2], *fsim)


def _nelder_mead(objective, x0: tuple[float, float]) -> tuple[list[float], float]:
    """Minimize ``objective`` over two parameters from ``x0``: (best vertex, value).

    The steps of scipy's ``minimize(method="Nelder-Mead")`` with its
    non-adaptive coefficients (reflection 1, expansion 2, contractions and
    shrink 1/2), no bounds, ``xatol=XATOL``, ``fatol=FATOL`` and
    ``maxiter=MAXITER``, taken on Python floats: the same IEEE operations in
    the same order, so the result is the same to the bit. The start simplex
    scales each coordinate by 1.05 (0.00025 if it is 0); the search stops
    when every vertex lies within XATOL and every value within FATOL of the
    best (never on NaN), or after MAXITER - 1 iterations. An iteration that
    leaves the sorted vertices and values the same to the bit reached a
    fixed point, which every later iteration repeats, so the search stops
    there with the same result.
    """
    x0 = [float(v) for v in x0]
    sim = [x0]
    for k in range(2):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [objective(x) for x in sim]
    sim, fsim = _sorted_vertices(*_sorted_vertices(sim, fsim))  # scipy sorts twice
    state = _state_bits(sim, fsim)
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
        state, previous = _state_bits(sim, fsim), state
        if state == previous:
            break
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


def _moran_exceedances(z: np.ndarray, stats: np.ndarray, nb: np.ndarray,
                       wts: np.ndarray, n_perm: int, seed: int) -> np.ndarray:
    """Per row of the centred scores ``z`` (L x n), how many of ``n_perm``
    permutations give a Moran's I at least as far from -1/(n-1) as ``stats``.

    The permutations are the successive ``default_rng(seed).permutation(n)``
    draws, shared by every row; ``Generator.permuted`` draws a chunk of
    b = max(1, PERM_ELEMENTS // (L n)) of them from that stream in one call,
    and one gather applies them to all L rows as an (L b) x n array. Each
    neighbour term is one gather of that array into a reused buffer; the lag
    adds the same products in the same neighbour order, and the sums run over
    the same contiguous rows, as one permutation of one row at a time, so
    every permuted statistic is that permutation's to the bit.
    """
    (rows, n), m = z.shape, nb.shape[1]
    s0 = wts.sum()
    e_i = -1.0 / (n - 1)
    bound = np.abs(stats - e_i)[:, None]
    nb_cols, wt_cols = np.ascontiguousarray(nb.T), np.ascontiguousarray(wts.T)
    rng = np.random.default_rng(seed)
    chunk = max(1, PERM_ELEMENTS // (rows * n))
    exceed = np.zeros(rows, dtype=np.int64)
    for start in range(0, n_perm, chunk):
        b = min(chunk, n_perm - start)
        perm = rng.permuted(np.tile(np.arange(n), (b, 1)), axis=1)
        zp = np.take(z, perm, axis=1).reshape(rows * b, n)
        lag = np.zeros_like(zp)
        term = np.empty_like(zp)
        for j in range(m):
            # Every index is < n; "clip" writes to out directly, "raise" buffers.
            np.take(zp, nb_cols[j], axis=1, out=term, mode="clip")
            term *= wt_cols[j]
            lag += term
        lag *= zp
        perm_stats = n / s0 * lag.sum(axis=1) / (zp * zp).sum(axis=1)
        exceed += np.count_nonzero(np.abs(perm_stats.reshape(rows, b) - e_i) >= bound,
                                   axis=1)
    return exceed


def spatial_dependence_test(scores: ScoreField, n_perm: int = 999, alpha: float = 0.05,
                            seed: int = 0) -> list[SpatialTestResult]:
    """Moran's I permutation test of every component (K results).

    The weights are inverse distances to each sounding's MORAN_NEIGHBOURS
    nearest others. The p-value is two-sided around the permutation-null
    expectation -1/(n-1), and every component meets the same permutations;
    ``dependent`` is the comparison against ``alpha``. A component with
    constant scores has no statistic: NaN, p = 1 and not dependent, so its
    mean predicts it exactly.
    """
    n = scores.sounding_ids.size
    if n < MIN_SCREEN_SOUNDINGS:
        raise DataError(f"spatial dependence test needs >= {MIN_SCREEN_SOUNDINGS} "
                        f"soundings, got {n}")
    check_screen(n_perm, alpha, seed)
    nb, d_nb = scores.nearest(MORAN_NEIGHBOURS)
    wts = 1.0 / np.maximum(d_nb, 1e-9)
    s0 = wts.sum()
    z = [u - u.mean() for u in scores.scores.T]
    # Constant scores can centre to a tiny constant, not to zeros.
    live = [k for k, (u, z_k) in enumerate(zip(scores.scores.T, z))
            if not (u.min() == u.max() or float(z_k @ z_k) <= 0.0)]
    stats, p = np.full(len(z), np.nan), np.ones(len(z))
    for k in live:
        stats[k] = n / s0 * float(np.sum(z[k][:, None] * wts * z[k][nb])) / float(z[k] @ z[k])
    if live:
        exceed = _moran_exceedances(np.array([z[k] for k in live]), stats[live], nb, wts,
                                    n_perm, seed)
        p[live] = (1 + exceed) / (1 + n_perm)
    return [SpatialTestResult(k, float(stats[k]), float(p[k]), bool(p[k] < alpha),
                              n_perm, alpha) for k in range(len(z))]


def _cholesky_columns(columns) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Cholesky factor L (Sigma = L L') of an SPD matrix, by block columns.

    ``columns`` yields each Sigma[start:, start:start + SOLVE_BLOCK] as its own
    array, which becomes L's block column (zero above the diagonal). Left-looking:
    update it from the factored columns, factor its diagonal block, and multiply
    the panel below by that factor's inverse, transposed. Returns the columns and
    those inverses. Raises ``LinAlgError`` where Sigma is not SPD.
    """
    blocks, inverses = [], []
    for col in columns:
        start, width = len(blocks) * SOLVE_BLOCK, col.shape[1]
        for i, done in enumerate(blocks):
            rows = done[start - i * SOLVE_BLOCK:]
            col -= rows @ rows[:width].T
        diag = np.tril(col[:width])
        col[:width] = np.linalg.cholesky(diag + np.tril(diag, -1).T)
        inverses.append(np.linalg.inv(col[:width]))
        col[width:] = col[width:] @ inverses[-1].T
        blocks.append(col)
    return blocks, inverses


def _forward_solve(blocks: list, inverses: list, rhs: np.ndarray) -> np.ndarray:
    """Solve L X = B from L's block columns and their diagonal blocks' inverses
    (``_cholesky_columns``), B n or n x T: each block of rows is multiplied by its
    inverse, then its column's panel takes it out of the rows below."""
    out = np.array(rhs, dtype=float)
    for i, (col, inv) in enumerate(zip(blocks, inverses)):
        start, stop = i * SOLVE_BLOCK, (i + 1) * SOLVE_BLOCK
        out[start:stop] = inv @ out[start:stop]
        out[stop:] -= col[SOLVE_BLOCK:] @ out[start:stop]
    return out


def _back_solve(blocks: list, inverses: list, rhs: np.ndarray) -> np.ndarray:
    """Solve L' X = B as :func:`_forward_solve` does L X = B, from the last block up."""
    out = np.empty(rhs.shape)
    for i, (col, inv) in reversed(list(enumerate(zip(blocks, inverses)))):
        start, stop = i * SOLVE_BLOCK, (i + 1) * SOLVE_BLOCK
        out[start:stop] = inv.T @ (rhs[start:stop] - col[SOLVE_BLOCK:].T @ out[stop:])
    return out


def kriging_weights(scores: ScoreField, k: int, fit: VariogramFit | None
                    ) -> tuple[float, np.ndarray | None]:
    """Ordinary kriging of one component's scores in dual form: (kappa, alpha).

    Sigma is sill*exp(-d/range) plus, on the diagonal, the footprint
    score-noise variance and a relative jitter. kappa is the GLS mean and
    alpha = Sigma^-1 (u - kappa 1), so x predicts kappa + c(x)'alpha. With no
    fit (not kriged) kappa is the score mean, and a single observation predicts
    its own score: alpha is None. Sigma is built one block column at a time,
    each from the transposed ``distance_blocks`` upper row block, and factored
    as it is built (``_cholesky_columns``): the call holds about n^2/2 floats.
    """
    u = scores.component(k)
    if u.size < 1:
        raise DataError("no scores to krige from")
    if fit is None:
        return float(u.mean()), None
    if u.size < 2:
        return float(u[0]), None
    diagonal = fit.sill + scores.tau_for(scores.footprints, k) + JITTER * fit.sill

    def columns():
        for start, d in distance_blocks(scores.latitudes, scores.longitudes, upper=True):
            np.exp(np.divide(d, -fit.range_km, out=d), out=d)
            d *= fit.sill
            np.fill_diagonal(d, diagonal[start:start + len(d)])
            yield d.T

    try:
        blocks, inverses = _cholesky_columns(columns())
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"kriging covariance not SPD after jitter: {e}") from None
    h_u, h_1 = _forward_solve(blocks, inverses, np.column_stack([u, np.ones_like(u)])).T
    denom = float(h_1 @ h_1)
    if denom <= 0.0:
        raise NumericalError("kriging system degenerate (1' Sigma^-1 1 <= 0)")
    kappa = float(h_1 @ h_u) / denom
    return kappa, _back_solve(blocks, inverses, h_u - kappa * h_1)


def kriged_scores(kappa: float, alpha: np.ndarray | None, fit: VariogramFit | None,
                  scores: ScoreField, latitudes, longitudes) -> np.ndarray:
    """kappa + c(x)'alpha at T locations, from :func:`kriging_weights` (length T)."""
    lat = np.asarray(latitudes, dtype=float)
    if alpha is None:
        return np.full(lat.shape, kappa)
    nu = haversine_km(scores.latitudes[:, None], scores.longitudes[:, None],
                      lat[None, :], np.asarray(longitudes, dtype=float)[None, :])
    np.divide(nu, -fit.range_km, out=nu)
    np.exp(nu, out=nu)
    nu *= fit.sill
    return kappa + alpha @ nu


def krige_score(target: tuple[float, float], scores: ScoreField, k: int,
                fit: VariogramFit | None, dependent: bool = True) -> float:
    """One component's predicted score at one (latitude, longitude)."""
    if dependent and fit is None:
        raise DataError(f"component {k}: no variogram fit available for kriging")
    kappa, alpha = kriging_weights(scores, k, fit if dependent else None)
    return float(kriged_scores(kappa, alpha, fit, scores, [target[0]], [target[1]])[0])
