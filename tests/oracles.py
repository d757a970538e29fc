"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written along a different algebraic path than
the code under test: plain loops, textbook formulas, and a hand-rolled Jacobi
eigensolver.
"""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.optimize import minimize

from geofpca.dataset import (_BASE_COLUMNS, SpectralDataset, _parse_cell, _parse_radiance,
                             _row_violation, haversine_km, pairwise_distances,
                             remove_cross_tracks, select_region)
from geofpca.errors import DataError, NumericalError
from geofpca.fpca import compute_scores
from geofpca.geostat import (EmpiricalVariogram, VariogramFit, _wls_weights,
                             exponential_variogram)
from geofpca.imputation import (fit_geofpca, impute_radiance, interpolate_radiance,
                                predict_scores)
from geofpca.simulation import (OrbitConfig, OrbitTruth, SimulationConfig, TransectTruth,
                                synthetic_profile)
from geofpca.validation import rrmse

EARTH_RADIUS_KM = 6371.0088


def law_of_cosines_km(lat1, lon1, lat2, lon2):
    """Spherical law of cosines great-circle distance."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return EARTH_RADIUS_KM * math.acos(min(1.0, max(-1.0, c)))


def haversine_textbook_km(lat1, lon1, lat2, lon2):
    """The haversine formula as one out-of-place numpy expression, grouped as
    sin^2(dlon/2) * (cos lat1 * cos lat2) + sin^2(dlat/2)."""
    p1, l1, p2, l2 = (np.radians(np.asarray(x, dtype=float)) for x in (lat1, lon1, lat2, lon2))
    h = np.sin((l2 - l1) / 2) ** 2 * (np.cos(p1) * np.cos(p2)) + np.sin((p2 - p1) / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(np.sqrt(h), 1.0))


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


def transposed_triangular_solve(chol, rhs):
    """L' X = B by LAPACK's triangular solve, for lower-triangular L."""
    return solve_triangular(chol, rhs, lower=True, trans="T")


def argsort_nearest(dist, m):
    """Each point's m nearest other points by a stable argsort of every full row.

    The neighbour table as the library built it from a copy of the whole
    distance matrix. Returns (n x m indices, n x m distances).
    """
    d = dist.copy()
    np.fill_diagonal(d, np.inf)
    nb = np.argsort(d, axis=1, kind="stable")[:, :m]
    d_nb = d[np.arange(d.shape[0])[:, None], nb]
    return nb, d_nb


def triu_binned_pairs(dist, n_bins, max_fraction):
    """Pairs i < j grouped by distance bin, from full upper-triangle arrays.

    All pairs at once: the ``triu`` mask, ``digitize`` and a stable argsort
    by bin. Returns (i, j, bin starts, bin counts, bin mean distances).
    """
    d = dist
    h_max = d.max() * max_fraction
    if h_max <= 0:
        raise DataError("all pairwise distances are zero")
    i, j = np.nonzero(np.triu(d <= h_max, 1))
    d_ij = d[i, j]
    which = np.digitize(d_ij, np.linspace(0.0, h_max, n_bins + 1)[1:-1])
    order = np.argsort(which, kind="stable")
    i, j, d_ij = i[order], j[order], d_ij[order]
    counts = np.bincount(which, minlength=n_bins)
    starts = np.cumsum(counts) - counts
    mean_d = np.array([d_ij[a:a + c].mean() if c else np.nan
                       for a, c in zip(starts, counts)])
    return i, j, starts, counts, mean_d


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


def two_pass_experiment_cell(ds, config, lat_halfwidth, center, r):
    """One removal cell scored the two-pass way: observed scores from the held
    spectra (``compute_scores``), predicted scores (``predict_scores``) and the
    imputed spectra, matched by sounding id; RMSPE is NaN for a held sounding
    with no observed scores. Rows (id, footprint, RRMSE functional, RRMSE
    interpolation, RMSPE)."""
    center_lat = float(ds.latitudes[ds.index_of(center)])
    region = select_region(ds, (center_lat - lat_halfwidth, center_lat + lat_halfwidth))
    train, held = remove_cross_tracks(region, center, r)
    model = fit_geofpca(train, config)
    obs_scores = compute_scores(held, model.mean, model.basis)
    score_of = {int(i): row for i, row in zip(obs_scores.sounding_ids, obs_scores.scores)}
    observed = held.radiance[:, model.wavelengths.positions]
    good = ~np.isnan(observed)
    keep = np.flatnonzero(good.any(axis=1))
    lats, lons, fps = held.latitudes[keep], held.longitudes[keep], held.footprints[keep]
    preds = predict_scores(model, lats, lons)
    imputed = impute_radiance(model, lats, lons, fps)
    interp = interpolate_radiance(train, lats, fps, model.wavelengths)
    rows = []
    for j, i in enumerate(keep):
        sid, g = int(held.ids[i]), good[i]
        val_p = (rmspe_loop(score_of[sid], preds[j], model.basis.eigenvectors)
                 if sid in score_of else math.nan)
        rows.append((sid, int(fps[j]), rrmse(imputed[j, g], observed[i, g]),
                     rrmse(interp[j, g], observed[i, g]), val_p))
    return rows


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


def local_linear_one(x, y, x0, h, leave_one_out=False):
    """Local linear estimates at x0 for one bandwidth, from one T x n kernel matrix.

    The same elementwise steps, row sums and matrix products as the library's
    smoother, so a stacked evaluation must match it bit for bit.
    """
    d = x[None, :] - np.asarray(x0, dtype=float)[:, None]
    t = d / h
    w = 1.0 - t * t
    w[np.abs(t) >= 1.0] = 0.0
    w = 0.75 * w
    if leave_one_out:
        np.fill_diagonal(w, 0.0)
    wd = w * d
    s0, s1, s2 = w.sum(axis=1), wd.sum(axis=1), (wd * d).sum(axis=1)
    t0, t1 = w @ y, wd @ y
    denom = s0 * s2 - s1 * s1
    out = np.full(s0.shape, math.nan)
    mass = s0 > 0.0
    flat = mass & (denom <= 1e-12 * np.maximum(s0 * s2, 1e-300))
    line = mass & ~flat
    out[flat] = t0[flat] / s0[flat]
    out[line] = (s2[line] * t0[line] - s1[line] * t1[line]) / denom[line]
    return out


def cv_bandwidth_candidates(x, y, grid=None):
    """Leave-one-out bandwidth by one smoother call per candidate.

    Keeps the best candidate so far under a strict ``<`` (the first minimum in
    grid order), skipping candidates with a NaN prediction; None when no
    candidate survives.
    """
    if grid is None:
        span = float(x.max() - x.min())
        lo = max(2.0 * float(np.median(np.diff(np.sort(x)))), span / 20.0)
        grid = np.geomspace(lo, span, 8)
    best_h, best_err = None, math.inf
    for h in grid:
        pred = local_linear_one(x, y, x, float(h), leave_one_out=True)
        if np.isnan(pred).any():
            continue
        err = float(np.mean((pred - y) ** 2))
        if err < best_err:
            best_h, best_err = float(h), err
    return best_h


def smooth_group_retry(xf, yf, x, h):
    """Smoothed values at x from the inliers (xf, yf): bandwidth h, then a
    second call at the data span when the first leaves a NaN."""
    out = local_linear_one(xf, yf, x, h)
    if np.isnan(out).any():
        out = local_linear_one(xf, yf, x, float(xf.max() - xf.min()) or 1.0)
    return out


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


def dataset_columns_by_row(rows, grid_length):
    """A dataset's six columns gathered one row at a time.

    ``rows`` holds (id, latitude, longitude, footprint, land fraction or None,
    radiance) records. An absent land fraction becomes NaN and the radiance
    rows are stacked with ``np.vstack``.
    """
    rows = list(rows)
    return {
        "ids": np.array([int(r[0]) for r in rows]),
        "latitudes": np.array([float(r[1]) for r in rows]),
        "longitudes": np.array([float(r[2]) for r in rows]),
        "footprints": np.array([int(r[3]) for r in rows]),
        "land_fractions": np.array([math.nan if r[4] is None else float(r[4])
                                    for r in rows]),
        "radiance": (np.vstack([np.asarray(r[5], dtype=float) for r in rows]) if rows
                     else np.empty((0, grid_length))),
    }


def load_dataset_whole_text(path) -> SpectralDataset:
    """``dataset.load_dataset`` as it read the whole file text, then its list of lines.

    The file is decoded as UTF-8 in one piece and split with
    ``str.splitlines``, so a bad byte is reported before any bad row. Rows
    are parsed by the library's own cell parsers.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    metadata: dict = {}
    sidecar = Path(str(path) + ".json")
    if sidecar.exists():
        try:
            with open(sidecar, encoding="utf-8") as fh:
                doc = json.load(fh)
        except ValueError as e:  # also UnicodeDecodeError
            raise DataError(f"{sidecar}: sidecar is not valid JSON ({e})") from None
        if not isinstance(doc, dict):
            raise DataError(f"{sidecar}: sidecar must hold a JSON object")
        metadata.update(doc)

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text (byte {e.start}: {e.reason})") from None
    if not lines:
        raise DataError(f"{path}: empty file")
    header = lines[0].split(",")
    if tuple(header[:5]) != _BASE_COLUMNS:
        raise DataError(
            f"{path}: header must start with {','.join(_BASE_COLUMNS)}, got "
            f"{','.join(header[:5])}"
        )
    width = len(header) - 5
    if width < 1:
        raise DataError(f"{path}: no radiance columns in header")
    for j, name in enumerate(header[5:], start=1):
        if not re.fullmatch(rf"w_{j}", name):
            raise DataError(f"{path}: radiance column {j} named {name!r}, expected 'w_{j}'")
    declared = metadata.get("grid_length")
    if declared is not None:
        if type(declared) is not int:  # a JSON integer, never truncated or parsed
            raise DataError(f"{sidecar}: grid_length {declared!r} is not an integer")
        if declared != width:
            raise DataError(
                f"{path}: sidecar grid_length {declared} != {width} radiance columns"
            )

    ids, lats, lons, fps, lfs, rads, line_nos = [], [], [], [], [], [], []
    seen_keys = set()
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise DataError(
                f"line {line_no}: expected {len(header)} fields, got {len(cells)} "
                "(non-rectangular radiance block)"
            )
        try:
            sid = int(cells[0])
        except ValueError:
            raise DataError(f"line {line_no}: unparseable id {cells[0]!r}") from None
        if not -2**63 <= sid < 2**63:
            raise DataError(f"line {line_no}: id {cells[0]} outside the 64-bit integer range")
        lat = _parse_cell(cells[1], line_no, "latitude")
        lon = _parse_cell(cells[2], line_no, "longitude")
        try:
            fp = int(cells[3])
        except ValueError:
            raise DataError(f"line {line_no}: unparseable footprint {cells[3]!r}") from None
        lf = math.nan if cells[4] == "" else _parse_cell(cells[4], line_no, "land_fraction")
        if cells[4] and math.isnan(lf):  # NaN marks absent, which only an empty cell says
            raise DataError(f"line {line_no}: land_fraction {lf} outside [0, 1]")
        rad = _parse_radiance(cells[5:], line_no)
        key = (fp, lat)
        if key in seen_keys:
            warnings.warn(
                f"line {line_no}: duplicate (footprint, latitude) {key}; keeping first",
                stacklevel=2,
            )
            continue
        seen_keys.add(key)
        for column, value in zip((ids, lats, lons, fps, lfs, rads, line_nos),
                                 (sid, lat, lon, fp, lf, rad, line_no)):
            column.append(value)
    ids, lats, lons, fps, lfs = (np.array(c) for c in (ids, lats, lons, fps, lfs))
    bad = _row_violation(ids, lats, lons, fps, lfs)
    if bad is not None:
        raise DataError(f"line {line_nos[bad[0]]}: {bad[1]}")
    return SpectralDataset(ids, lats, lons, fps, lfs, rads or np.empty((0, width)), metadata)


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


def error_process_row(sigma, seed=None, rng=None, indices=None):
    """One draw of the sine/cosine error process for one spectrum."""
    sigma = np.asarray(sigma, dtype=float)
    if (sigma < 0).any() or not np.all(np.isfinite(sigma)):
        raise DataError("sigma must be finite and nonnegative")
    if rng is None:
        rng = np.random.default_rng(seed)
    if indices is None:
        indices = np.arange(1, sigma.size + 1, dtype=float)
    c_w = float(len(indices))
    amp = 1.0 / math.sqrt(c_w / 2.0)
    phase = np.pi * (np.asarray(indices, dtype=float) - indices[0]) / c_w
    nu = rng.normal(0.0, math.sqrt(c_w / 2.0), size=2)
    return sigma * (nu[0] * amp * np.sin(phase) + nu[1] * amp * np.cos(phase))


def _gp_covariance(lat, lon, sill, range_km, kernel):
    d = pairwise_distances(np.asarray(lat), np.asarray(lon))
    if kernel == "exponential":
        cov = sill * np.exp(-d / range_km)
    elif kernel == "gaussian":
        cov = sill * np.exp(-((d / range_km) ** 2))
    else:
        raise DataError(f"unknown covariance kernel {kernel!r}")
    return cov + 1e-10 * sill * np.eye(d.shape[0])


def _draw_gp(rng, lat, lon, sill, range_km, kernel):
    chol = np.linalg.cholesky(_gp_covariance(lat, lon, sill, range_km, kernel))
    return chol @ rng.standard_normal(len(lat))


def transect_by_row(cfg: SimulationConfig):
    """The mixed transect drawn sounding by sounding: (dataset, truth, generator).

    Each field is drawn in its own loop and each spectrum's error in its own
    call, so the generator afterwards shows what the draws consumed.
    """
    if cfg.n_sites < 5 or cfg.n_sites % 2 == 0:
        raise DataError("n_sites must be odd and >= 5")
    if cfg.rho < 0:
        raise DataError("rho must be >= 0")
    rng = np.random.default_rng(cfg.seed)
    m = cfg.grid_length
    water_p, land_p = synthetic_profile(m, "water"), synthetic_profile(m, "land")
    mid = cfg.n_sites // 2
    lats = cfg.center_lat + np.linspace(-cfg.lat_span / 2, cfg.lat_span / 2, cfg.n_sites)
    lons = cfg.center_lon + cfg.lon_drift * (lats - cfg.center_lat)

    w_rows = np.arange(0, mid + 1)          # water sites plus the mixed site
    l_rows = np.arange(mid, cfg.n_sites)    # mixed site plus land sites
    k_w = 1 + len(cfg.water_iid_vars)
    k_l = 1 + len(cfg.land_iid_vars)
    w_scores = np.empty((len(w_rows), k_w))
    w_scores[:, 0] = _draw_gp(rng, lats[w_rows], lons[w_rows], cfg.water_sill,
                              cfg.water_range_km, "exponential")
    for j, v in enumerate(cfg.water_iid_vars, start=1):
        w_scores[:, j] = rng.normal(0.0, math.sqrt(v), len(w_rows))
    l_scores = np.empty((len(l_rows), k_l))
    l_scores[:, 0] = _draw_gp(rng, lats[l_rows], lons[l_rows], cfg.land_sill,
                              cfg.land_range_km, "exponential")
    for j, v in enumerate(cfg.land_iid_vars, start=1):
        l_scores[:, j] = rng.normal(0.0, math.sqrt(v), len(l_rows))
    alpha = float(rng.uniform()) if cfg.alpha is None else float(cfg.alpha)

    mu_w = water_p.intercept[None, :] + lats[w_rows, None] * water_p.slope[None, :]
    mu_l = land_p.intercept[None, :] + lats[l_rows, None] * land_p.slope[None, :]
    f_w = mu_w + w_scores @ water_p.eigenvectors[:, :k_w].T
    f_l = mu_l + l_scores @ land_p.eigenvectors[:, :k_l].T
    sigma_w = cfg.rho * mu_w[:-1].mean(axis=0)   # pure water sites only
    sigma_l = cfg.rho * mu_l[1:].mean(axis=0)    # pure land sites only
    sigma_mix = alpha * sigma_l + (1.0 - alpha) * sigma_w

    indices = np.arange(1, m + 1, dtype=float)
    rad = np.empty((cfg.n_sites, m))
    for i in range(cfg.n_sites):
        if i < mid:
            clean, sigma = f_w[i], sigma_w
        elif i == mid:
            clean, sigma = alpha * f_l[0] + (1.0 - alpha) * f_w[-1], sigma_mix
        else:
            clean, sigma = f_l[i - mid], sigma_l
        rad[i] = clean + error_process_row(sigma, rng=rng, indices=indices)
    fractions = np.r_[np.zeros(mid), alpha, np.ones(cfg.n_sites - mid - 1)]
    ds = SpectralDataset(np.arange(1, cfg.n_sites + 1), lats, lons,
                         np.full(cfg.n_sites, cfg.footprint), fractions, rad,
                         {"generator": "mixed-transect"})
    truth = TransectTruth(
        alpha=alpha,
        mixed_id=mid + 1,
        water_ids=tuple(range(1, mid + 1)),
        land_ids=tuple(range(mid + 2, cfg.n_sites + 1)),
        water_scores=w_scores,
        land_scores=l_scores,
        f_water_mixed=f_w[-1].copy(),
        f_land_mixed=f_l[0].copy(),
        noise_free_mixed=alpha * f_l[0] + (1.0 - alpha) * f_w[-1],
        sigma_water=sigma_w,
        sigma_land=sigma_l,
        water_profile=water_p,
        land_profile=land_p,
    )
    return ds, truth, rng


def orbit_by_row(cfg: OrbitConfig):
    """The orbit laid out per footprint and drawn sounding by sounding:
    (dataset, truth, generator)."""
    if cfg.n_tracks < 3:
        raise DataError("need at least 3 tracks")
    profile = synthetic_profile(cfg.grid_length, cfg.profile_kind)
    k = len(cfg.components)
    if k > profile.eigenvectors.shape[1]:
        raise DataError(f"at most {profile.eigenvectors.shape[1]} components supported")
    rng = np.random.default_rng(cfg.seed)
    n_fp = len(cfg.footprints)
    track_lats = cfg.base_lat + cfg.track_spacing * np.arange(cfg.n_tracks)

    lat, lon, fps = [], [], []
    for j, p in enumerate(cfg.footprints):
        lat.append(track_lats)
        lon.append(cfg.base_lon + cfg.fp_lon_step * (j - (n_fp - 1) / 2.0)
                   + cfg.lon_drift * (track_lats - cfg.base_lat))
        fps.append(np.full(cfg.n_tracks, p))
    lat = np.concatenate(lat)
    lon = np.concatenate(lon)
    fps = np.concatenate(fps)
    n = lat.size

    scores = np.empty((n, k))
    for j, comp in enumerate(cfg.components):
        if comp.kind == "gp":
            scores[:, j] = _draw_gp(rng, lat, lon, comp.variance, comp.range_km,
                                    comp.kernel)
        elif comp.kind == "iid":
            scores[:, j] = rng.normal(0.0, math.sqrt(comp.variance), n)
        else:
            raise DataError(f"unknown component kind {comp.kind!r}")

    half = (n_fp - 1) / 2.0 if n_fp > 1 else 1.0
    betas, sigmas = {}, {}
    for j, p in enumerate(cfg.footprints):
        off = (j - (n_fp - 1) / 2.0) / half
        betas[p] = np.vstack([
            profile.intercept * (1.0 + cfg.fp_mean_scale * off),
            profile.slope * (1.0 + cfg.fp_slope_scale * off),
        ])
    evecs = profile.eigenvectors[:, :k]
    mu = np.empty((n, cfg.grid_length))
    for p in cfg.footprints:
        sel = fps == p
        mu[sel] = betas[p][0][None, :] + lat[sel, None] * betas[p][1][None, :]
    for j, p in enumerate(cfg.footprints):
        off = (j - (n_fp - 1) / 2.0) / half
        sigmas[p] = cfg.rho * (1.0 + cfg.fp_noise_scale * off) * mu[fps == p].mean(axis=0)

    noise_free = mu + scores @ evecs.T
    indices = np.arange(1, cfg.grid_length + 1, dtype=float)
    rad = np.empty((n, cfg.grid_length))
    for i in range(n):
        rad[i] = noise_free[i] + error_process_row(sigmas[int(fps[i])], rng=rng,
                                                   indices=indices)
    ds = SpectralDataset(np.arange(1, n + 1), lat, lon, fps, np.full(n, np.nan), rad,
                         {"generator": "orbit"})
    return ds, OrbitTruth(betas, evecs, cfg.components, scores, sigmas, noise_free), rng
