"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written along a different algebraic path than
the code under test: plain loops, textbook formulas, and a hand-rolled Jacobi
eigensolver.
"""

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.optimize import minimize

from geofpca.dataset import haversine_km
from geofpca.errors import DataError, NumericalError
from geofpca.geostat import (EmpiricalVariogram, VariogramFit, _wls_weights,
                             exponential_variogram)

EARTH_RADIUS_KM = 6371.0088


def law_of_cosines_km(lat1, lon1, lat2, lon2):
    """Spherical law of cosines great-circle distance."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return EARTH_RADIUS_KM * math.acos(min(1.0, max(-1.0, c)))


def ols_pinv(x, y):
    """OLS coefficients through the Moore-Penrose pseudo-inverse."""
    return np.linalg.pinv(x) @ y


def jacobi_eigh(a, sweeps=60, tol=1e-14):
    """Cyclic Jacobi rotations for a symmetric matrix.

    Returns eigenvalues descending and eigenvectors as columns, with the
    same largest-coordinate-positive sign convention as the library.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) < tol * max(1.0, abs(a[p, p]) + abs(a[q, q])):
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
        if off < tol:
            break
    evals = np.diag(a).copy()
    order = np.argsort(evals)[::-1]
    evals, v = evals[order], v[:, order]
    for j in range(n):
        if v[np.argmax(np.abs(v[:, j])), j] < 0:
            v[:, j] = -v[:, j]
    return evals, v


def bordered_kriging(cov, nu, u, sill):
    """Ordinary kriging through the Lagrange-multiplier bordered system.

    ``cov`` must already include any nugget/jitter on its diagonal. Returns
    (prediction, kriging variance).
    """
    n = len(u)
    system = np.zeros((n + 1, n + 1))
    system[:n, :n] = cov
    system[:n, n] = 1.0
    system[n, :n] = 1.0
    rhs = np.concatenate([nu, [1.0]])
    sol = np.linalg.solve(system, rhs)
    weights, mult = sol[:n], sol[n]
    pred = float(weights @ u)
    var = float(sill - weights @ nu - mult)
    return pred, var


def cholesky_kriging(cov, nu, u, sill):
    """Ordinary kriging for one target by three Cholesky solves.

    The per-target path the library took before it factored each system once
    for many targets. ``cov`` must already include any nugget/jitter on its
    diagonal. Returns (prediction, kriging variance clipped at zero).
    """
    chol = cho_factor(cov, lower=True)
    ones = np.ones_like(u)
    sol_u = cho_solve(chol, u)
    sol_1 = cho_solve(chol, ones)
    sol_nu = cho_solve(chol, nu)
    denom = float(ones @ sol_1)
    kappa = float(ones @ sol_u) / denom
    pred = kappa + float(nu @ (sol_u - kappa * sol_1))
    slack = 1.0 - float(ones @ sol_nu)
    var = sill - float(nu @ sol_nu) + slack * slack / denom
    return pred, max(var, 0.0)


def triangular_solve(chol, rhs):
    """L X = B by LAPACK's triangular solve, for lower-triangular L."""
    return solve_triangular(chol, rhs, lower=True)


def allpairs_variogram(lat, lon, u, tau, edges, min_pairs, dist_fn):
    """Binned nugget-corrected semivariogram by an explicit double loop."""
    n = len(u)
    sums = [0.0] * (len(edges) - 1)
    nugs = [0.0] * (len(edges) - 1)
    counts = [0] * (len(edges) - 1)
    dsums = [0.0] * (len(edges) - 1)
    for i in range(n):
        for j in range(i + 1, n):
            d = dist_fn(lat[i], lon[i], lat[j], lon[j])
            if d > edges[-1]:
                continue
            b = None
            for k in range(len(edges) - 1):
                upper_ok = d < edges[k + 1] or (k == len(edges) - 2 and d <= edges[-1])
                if edges[k] <= d and upper_ok:
                    b = k
                    break
            if b is None:
                continue
            sums[b] += 0.5 * (u[i] - u[j]) ** 2
            nugs[b] += 0.5 * (tau[i] + tau[j])
            counts[b] += 1
            dsums[b] += d
    out = []
    for k in range(len(edges) - 1):
        if counts[k] >= min_pairs:
            out.append((dsums[k] / counts[k],
                        counts[k],
                        sums[k] / counts[k] - nugs[k] / counts[k]))
    return out


def quadratic_form_loop(matrix, vector):
    """Triple-loop x' A x (two explicit sums)."""
    total = 0.0
    n = len(vector)
    for i in range(n):
        for j in range(n):
            total += vector[i] * matrix[i, j] * vector[j]
    return total


def local_linear_fit(x, y, x0, h):
    """Per-point weighted least squares with an Epanechnikov kernel."""
    t = (np.asarray(x) - x0) / h
    w = np.where(np.abs(t) < 1.0, 0.75 * (1.0 - t * t), 0.0)
    design = np.column_stack([np.ones(len(x)), np.asarray(x) - x0])
    wd = design * w[:, None]
    beta = np.linalg.solve(design.T @ wd, wd.T @ np.asarray(y))
    return float(beta[0])


def two_pass_signal_covariance(resid, fp_counts, err_covs, n):
    """Raw second moment minus the footprint-weighted correction, looped."""
    m = resid.shape[1]
    raw = np.zeros((m, m))
    for row in resid:
        raw += np.outer(row, row)
    raw /= n - 1
    corr = np.zeros((m, m))
    for p, count in fp_counts.items():
        corr += count * err_covs[p]
    return raw - corr / (n - 1)


def rrmse_loop(imputed, observed):
    total = 0.0
    for f, r in zip(imputed, observed):
        total += ((f - r) / r) ** 2
    return math.sqrt(total / len(observed))


def rmspe_loop(scores_obs, scores_pred, eigenvectors):
    m, k = eigenvectors.shape
    total = 0.0
    for w in range(m):
        acc = 0.0
        for j in range(k):
            acc += (scores_obs[j] - scores_pred[j]) * eigenvectors[w, j]
        total += acc * acc
    return math.sqrt(total / m)


def local_linear_point(x, y, x0, h):
    """Local linear estimate at one point by scalar kernel sums.

    NaN when no kernel mass reaches x0; the local mean when the kernel sees a
    single effective point.
    """
    t = (x - x0) / h
    w = 0.75 * (1.0 - t * t)
    w[np.abs(t) >= 1.0] = 0.0
    s0 = w.sum()
    if s0 <= 0.0:
        return math.nan
    d = x - x0
    s1, s2 = float(w @ d), float(w @ (d * d))
    t0, t1 = float(w @ y), float(w @ (d * y))
    denom = s0 * s2 - s1 * s1
    if denom <= 1e-12 * max(s0 * s2, 1e-300):
        return t0 / s0
    return (s2 * t0 - s1 * t1) / denom


def cv_bandwidth_loop(x, y, grid=None):
    """Leave-one-out bandwidth by refitting without each point in turn.

    Returns the grid value with the smallest mean squared leave-one-out error,
    skipping every candidate that leaves some point without kernel mass, or
    None when no candidate survives.
    """
    if grid is None:
        span = float(x.max() - x.min())
        lo = max(2.0 * float(np.median(np.diff(np.sort(x)))), span / 20.0)
        grid = np.geomspace(lo, span, 8)
    best_h, best_err = None, math.inf
    for h in grid:
        errs = []
        for i in range(x.size):
            mask = np.arange(x.size) != i
            pred = local_linear_point(x[mask], y[mask], float(x[i]), float(h))
            if math.isnan(pred):
                break
            errs.append((pred - y[i]) ** 2)
        else:
            err = float(np.mean(errs))
            if err < best_err:
                best_h, best_err = float(h), err
    return best_h


def moran_permutation_loop(u, dist, n_perm, seed, n_neighbors=10):
    """Moran's I with inverse-distance k-nearest weights and its permutation p-value.

    One permutation per pass, drawn from ``default_rng(seed)`` in order; the
    p-value is two-sided around -1/(n-1). Returns (statistic, p-value).
    """
    n = len(u)
    z = u - u.mean()
    d = np.array(dist, dtype=float)
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
    exceed = sum(abs(moran(z[rng.permutation(n)]) - e_i) >= abs(stat - e_i)
                 for _ in range(n_perm))
    return stat, (1 + exceed) / (1 + n_perm)


def parse_radiance_cells(cells, line_no):
    """One CSV row's radiance cells, read one cell at a time.

    An empty cell or the literal NaN (any case, surrounding spaces) is
    missing; an unparseable or infinite cell is a DataError naming the line
    and the w_j column.
    """
    rad = np.empty(len(cells))
    for j, cell in enumerate(cells):
        if cell == "" or cell.strip().lower() == "nan":
            rad[j] = np.nan
        else:
            try:
                rad[j] = float(cell)
            except ValueError:
                raise DataError(f"line {line_no}: unparseable radiance w_{j + 1} "
                                f"{cell!r}") from None
            if math.isinf(rad[j]):
                raise DataError(f"line {line_no}: non-finite radiance w_{j + 1} "
                                f"{cell!r} (leave the cell empty or NaN if missing)")
    return rad


def moran_chunked_stats(z, nb, wts, n_perm, seed, chunk=128):
    """Moran's I of ``n_perm`` permutations of ``z``, in chunks of ``chunk`` rows.

    Each chunk stacks ``chunk`` successive ``rng.permutation(n)`` draws as a
    permutation-major chunk x n array and adds the neighbour lags column by
    column. Returns the permuted statistics in draw order.
    """
    n, m = nb.shape
    s0 = wts.sum()
    rng = np.random.default_rng(seed)
    out = []
    for start in range(0, n_perm, chunk):
        zp = z[np.stack([rng.permutation(n)
                         for _ in range(min(chunk, n_perm - start))])]
        lag = np.zeros_like(zp)
        for j in range(m):
            lag += wts[:, j] * zp[:, nb[:, j]]
        out.append(n / s0 * np.sum(zp * lag, axis=1) / np.sum(zp * zp, axis=1))
    return np.concatenate(out)


def interpolate_radiance_point(ds, latitude, footprint, ws=None):
    """The interpolation baseline at one target: a scalar search, column by column.

    Each wavelength is interpolated between the nearest same-footprint
    soundings below and above ``latitude``, with nearest-value extrapolation
    outside the observed range. Raises ``DataError`` as the library does.
    """
    rows = np.flatnonzero(ds.footprints == footprint)
    if rows.size < 2:
        raise DataError(
            f"footprint {footprint}: {rows.size} soundings, need >= 2 to interpolate"
        )
    rows = rows[np.argsort(ds.latitudes[rows], kind="stable")]
    lats = ds.latitudes[rows]
    pos = ws.positions if ws is not None else np.arange(ds.grid_length)
    y = ds.radiance[np.ix_(rows, pos)]
    out = np.empty(pos.size)
    complete = ~np.isnan(y).any(axis=0)
    if complete.any():
        idx = np.searchsorted(lats, latitude)
        if idx == 0:
            out[complete] = y[0, complete]
        elif idx == lats.size:
            out[complete] = y[-1, complete]
        else:
            t = (latitude - lats[idx - 1]) / (lats[idx] - lats[idx - 1])
            out[complete] = (1 - t) * y[idx - 1, complete] + t * y[idx, complete]
    for j in np.flatnonzero(~complete):
        good = ~np.isnan(y[:, j])
        if not good.any():
            w_label = int(ws.indices[j]) if ws is not None else int(pos[j]) + 1
            raise DataError(
                f"footprint {footprint}: wavelength w_{w_label} has no observed values"
            )
        out[j] = np.interp(latitude, lats[good], y[good, j])
    return out


def nearest_spectrum_point(ds, window, latitude, longitude, footprint):
    """Raw spectrum of one target's nearest reference sounding in ``window``.

    The pool is the window's soundings of the target's footprint, or all of
    them when the window has none of that footprint; ties go to the first row.
    """
    lats = ds.latitudes
    sel = np.flatnonzero((lats >= window[0]) & (lats <= window[1]))
    if sel.size == 0:
        raise DataError(f"no soundings in reference window {window}")
    same = sel[ds.footprints[sel] == footprint]
    pool = same if same.size else sel
    d = haversine_km(latitude, longitude, lats[pool], ds.longitudes[pool])
    return ds.radiance[pool[int(np.argmin(d))]]


def scipy_variogram_fit(ev: EmpiricalVariogram, weight_scheme: str = "nh2",
                        n_grid: int = 14) -> VariogramFit:
    """The WLS exponential fit as the library made it with scipy.

    The first best point of the whole n_grid x n_grid log-grid, each point
    scored by the scalar objective, refined by ``scipy.optimize.minimize``'s
    Nelder-Mead.
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
