"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written along a different algebraic path than
the code under test: plain loops, textbook formulas, and a hand-rolled Jacobi
eigensolver.
"""

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve

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
