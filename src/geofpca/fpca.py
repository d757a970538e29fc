"""Covariance estimation, eigendecomposition, and principal-component scores.

The measurement-error covariance per footprint comes from second-order
differencing of latitude-ordered radiance; the signal covariance is the
demeaned second moment minus the footprint-weighted error correction. All
inner products use the discrete wavelength-index grid with unit weights, so
eigenvectors are orthonormal in the plain dot product.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import SpectralDataset, WavelengthSet, distance_blocks, haversine_km
from .errors import DataError, NumericalError
from .mean_model import MeanModel, evaluate_mean_rows


@dataclass
class CovarianceMatrix:
    """Symmetric m x m covariance over a wavelength set, with a label.

    ``span``, when set, holds rows (r x m) whose span contains the matrix's
    column space: the data rows it was built from. ``eigendecompose`` works
    in that span when r < m.
    """

    values: np.ndarray
    wavelengths: WavelengthSet
    label: str
    n_used: int
    span: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DataError(f"covariance must be square, got {v.shape}")
        if v.shape[0] != self.wavelengths.size:
            raise DataError("covariance size does not match wavelength set")
        if self.span is not None:
            self.span = np.asarray(self.span, dtype=float)
            if self.span.ndim != 2 or self.span.shape[1] != v.shape[0]:
                raise DataError(f"span rows must have {v.shape[0]} columns, "
                                f"got shape {self.span.shape}")
        self.values = v


@dataclass
class FpcaBasis:
    """Selected eigenpairs and the cumulative fraction-of-variance curve.

    ``eigenvectors`` is m x K with columns orthonormal in the discrete inner
    product; ``fve_curve`` covers every eigenvalue above the noise floor, not
    just the K retained ones.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    K: int
    fve_curve: np.ndarray
    wavelengths: WavelengthSet


@dataclass
class ScoreField:
    """Estimated component scores per sounding plus footprint noise variances.

    ``scores`` is n x K aligned with ``sounding_ids``; ``taus`` maps footprint
    to a length-K vector of score-noise variances. The soundings' geometry
    (latitude, longitude, footprint) is carried along so a serialized model
    can krige without the training dataset. Soundings missing any selected
    wavelength carry no scores and are listed in ``excluded_ids``.
    """

    sounding_ids: np.ndarray
    scores: np.ndarray
    latitudes: np.ndarray
    longitudes: np.ndarray
    footprints: np.ndarray
    taus: dict[int, np.ndarray] = field(default_factory=dict)
    excluded_ids: tuple[int, ...] = ()
    _largest_distance: float | None = field(default=None, init=False, repr=False,
                                            compare=False)

    @property
    def n_components(self) -> int:
        return self.scores.shape[1]

    def component(self, k: int) -> np.ndarray:
        return self.scores[:, k]

    def tau_for(self, footprints: np.ndarray, k: int) -> np.ndarray:
        """Per-sounding score-noise variance for component k."""
        fps = np.asarray(footprints, dtype=int)
        known = np.array(sorted(self.taus), dtype=int)
        missing = fps[~np.isin(fps, known)]
        if missing.size:
            raise DataError(f"no score-noise variance for footprint {missing[0]}")
        table = np.array([self.taus[int(p)][k] for p in known], dtype=float)
        return table[np.searchsorted(known, fps)]

    def largest_distance(self) -> float:
        """The largest haversine distance between two soundings (0 for fewer than two).

        ``nearest`` records it; otherwise one pass over the upper triangle's
        row blocks finds it.
        """
        if self._largest_distance is None:
            self._largest_distance = np.max(
                [block.max() for _, block in
                 distance_blocks(self.latitudes, self.longitudes, upper=True)], initial=0.0)
        return self._largest_distance

    def nearest(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Each sounding's m nearest other soundings and their distances (two n x m arrays).

        Ties keep sounding order: per block of rows of the distance matrix,
        the entries up to each row's m-th smallest are sorted by (distance,
        column). The same pass records the largest distance.
        """
        n = self.latitudes.size
        nb, d_nb = np.empty((n, m), dtype=np.intp), np.empty((n, m))

        def fill_rows(start, block):
            """Fill the block's rows of nb and d_nb; return its largest distance."""
            largest = block.max()
            rows = np.arange(block.shape[0])
            block[rows, start + rows] = np.inf
            kth = np.partition(block, m - 1, axis=1)[:, m - 1:m]
            r, c = np.divmod(np.flatnonzero(block <= kth), block.shape[1])  # r ascending
            dist = block[r, c]
            take = np.lexsort((c, dist, r))[np.searchsorted(r, rows)[:, None] + np.arange(m)]
            nb[start + rows], d_nb[start + rows] = c[take], dist[take]
            return largest

        self._largest_distance = np.max(
            [fill_rows(*b) for b in distance_blocks(self.latitudes, self.longitudes)],
            initial=0.0)
        return nb, d_nb


def _complete_rows(ds: SpectralDataset, ws: WavelengthSet) -> np.ndarray:
    """Row indices of soundings observed at every selected wavelength."""
    return np.flatnonzero(~np.isnan(ds.radiance[:, ws.positions]).any(axis=1))


def estimate_error_covariance(ds: SpectralDataset, ws: WavelengthSet, p: int,
                              max_gap_km: float = math.inf) -> CovarianceMatrix:
    """Measurement-error covariance for one footprint by second differencing.

    Soundings of footprint ``p`` that are complete on ``ws`` are ordered by
    latitude; each interior sounding contributes the outer product of its
    second difference against both neighbors, and the average is divided by 6
    (the second-difference variance inflation for i.i.d. noise). Triples whose
    neighbor spacing exceeds ``max_gap_km`` are dropped. The kept second
    differences are the matrix's ``span``.
    """
    rows = _complete_rows(ds, ws)
    rows = rows[ds.footprints[rows] == p]
    if rows.size < 3:
        raise DataError(
            f"footprint {p}: {rows.size} usable soundings, need >= 3 for differencing"
        )
    order = np.argsort(ds.latitudes[rows], kind="stable")
    rows = rows[order]
    y = ds.radiance[np.ix_(rows, ws.positions)]
    delta = y[:-2] - 2.0 * y[1:-1] + y[2:]
    if math.isfinite(max_gap_km):
        lat, lon = ds.latitudes[rows], ds.longitudes[rows]
        step = haversine_km(lat[:-1], lon[:-1], lat[1:], lon[1:])
        keep = (step[:-1] <= max_gap_km) & (step[1:] <= max_gap_km)
        delta = delta[keep]
    n_tilde = delta.shape[0]
    if n_tilde == 0:
        raise DataError(f"footprint {p}: no differencing triples within max_gap_km")
    with np.errstate(over="ignore", invalid="ignore"):
        values = delta.T @ delta / (6.0 * n_tilde)
    if not np.isfinite(values).all():
        raise NumericalError(f"footprint {p}: error covariance is not finite")
    return CovarianceMatrix(values, ws, f"error:{p}", n_tilde, delta)


def estimate_signal_covariance(ds: SpectralDataset, mean: MeanModel,
                               errs: dict[int, CovarianceMatrix]) -> CovarianceMatrix:
    """Signal covariance: demeaned second moment minus the error correction.

    Both terms share the 1/(N-1) normalization, and the error correction
    weights each footprint's error covariance by its sounding count. The
    ``span`` is the residual rows stacked with each footprint's span, kept
    only when every footprint has one and the stack has fewer rows than
    wavelengths.
    """
    ws = mean.wavelengths
    rows = _complete_rows(ds, ws)
    n = rows.size
    if n < 2:
        raise DataError(f"{n} usable soundings, need >= 2 for the signal covariance")
    resid = ds.radiance[np.ix_(rows, ws.positions)] - evaluate_mean_rows(mean, ds, rows)
    fps = ds.footprints[rows]
    present = sorted(set(fps.tolist()))
    with np.errstate(over="ignore", invalid="ignore"):
        raw = resid.T @ resid / (n - 1)
        correction = np.zeros_like(raw)
        for p in present:
            if p not in errs:
                raise DataError(f"missing error covariance for footprint {p}")
            n_p = int((fps == p).sum())
            correction += n_p * errs[p].values
        values = raw - correction / (n - 1)
    if not np.isfinite(values).all():
        raise NumericalError("signal covariance is not finite")
    spans = [errs[p].span for p in present]
    span = None
    if all(s is not None for s in spans) and n + sum(len(s) for s in spans) < ws.size:
        span = np.vstack([resid, *spans])
    return CovarianceMatrix(values, ws, "signal", n, span)


def eigendecompose(cov: CovarianceMatrix, fve_threshold: float = 0.99) -> FpcaBasis:
    """Eigendecompose a covariance and truncate by fraction of variance.

    With a ``span`` of r < m rows the matrix is decomposed in their span
    (Sirovich's method of snapshots): with q an orthonormal basis of the rows
    from a Householder QR, the eigenpairs (lambda, v) of the r x r matrix
    q^T S q give S's eigenpairs (lambda, q v), exactly in exact arithmetic
    since col(S) lies in span(q). Otherwise ``eigh`` runs on the m x m matrix.

    Eigenvalues at or below m * eps * lambda_1 (m the dimension) are rounding
    noise whose sign depends on the BLAS kernel: they and the negative ones
    (possible after the error correction) are discarded, and the FVE
    denominator is the sum of the kept eigenvalues. Each eigenvector's sign is
    fixed so its largest-magnitude coordinate is positive, making serialized
    bases reproducible.
    """
    if not 0.0 < fve_threshold <= 1.0:
        raise DataError(f"fve_threshold {fve_threshold} outside (0, 1]")
    a = cov.values
    m = a.shape[0]
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > 1e-10 * scale:
        raise DataError("covariance is not symmetric to 1e-10 relative")
    q = None
    if cov.span is not None and cov.span.shape[0] < m:
        q = np.linalg.qr(cov.span.T)[0]
        a = q.T @ a @ q
    evals, evecs = np.linalg.eigh((a + a.T) / 2.0)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    kept = evals > m * np.finfo(float).eps * evals[0]
    if not kept.any():
        raise NumericalError("no positive eigenvalues; nothing to retain")
    evals, evecs = evals[kept], evecs[:, kept]
    fve_curve = np.cumsum(evals) / evals.sum()
    k = int(np.searchsorted(fve_curve, fve_threshold) + 1)
    k = min(k, evals.size)
    evecs = evecs[:, :k].copy() if q is None else q @ evecs[:, :k]
    for j in range(k):
        col = evecs[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            evecs[:, j] = -col
    return FpcaBasis(evals[:k].copy(), evecs, k, fve_curve, cov.wavelengths)


def compute_scores(ds: SpectralDataset, mean: MeanModel, basis: FpcaBasis) -> ScoreField:
    """Project demeaned radiance onto the basis (plain sum over the grid)."""
    ws = basis.wavelengths
    rows = _complete_rows(ds, ws)
    excluded = tuple(int(i) for i in np.delete(ds.ids, rows))
    resid = ds.radiance[np.ix_(rows, ws.positions)] - evaluate_mean_rows(mean, ds, rows)
    scores = resid @ basis.eigenvectors
    return ScoreField(ds.ids[rows], scores, ds.latitudes[rows], ds.longitudes[rows],
                      ds.footprints[rows], excluded_ids=excluded)


def compute_score_noise_variance(err_p: CovarianceMatrix, basis: FpcaBasis) -> np.ndarray:
    """Quadratic forms of the error covariance in each eigenvector.

    Negative values (possible with an indefinite estimate) are clamped to 0
    with a warning.
    """
    if err_p.values.shape[0] != basis.eigenvectors.shape[0]:
        raise DataError("error covariance and basis dimensions disagree")
    tau = np.einsum("ik,ij,jk->k", basis.eigenvectors, err_p.values, basis.eigenvectors)
    if (tau < 0).any():
        warnings.warn(f"{err_p.label}: clamped negative score-noise variances to 0",
                      stacklevel=2)
        tau = np.maximum(tau, 0.0)
    return tau
