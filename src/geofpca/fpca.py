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
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import SpectralDataset, WavelengthSet, haversine_km, pairwise_distances
from .errors import DataError, NumericalError
from .mean_model import MeanModel, evaluate_mean_rows


@dataclass
class CovarianceMatrix:
    """Symmetric m x m covariance over a wavelength set, with a label."""

    values: np.ndarray
    wavelengths: WavelengthSet
    label: str
    n_used: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DataError(f"covariance must be square, got {v.shape}")
        if v.shape[0] != self.wavelengths.size:
            raise DataError("covariance size does not match wavelength set")
        self.values = v


@dataclass
class FpcaBasis:
    """Selected eigenpairs and the cumulative fraction-of-variance curve.

    ``eigenvectors`` is m x K with columns orthonormal in the discrete inner
    product; ``fve_curve`` covers all positive eigenvalues, not just the K
    retained ones.
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
    _distances: np.ndarray | None = field(default=None, init=False, repr=False,
                                          compare=False)
    _nearest: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False,
                                                           repr=False, compare=False)
    _pair_bins: tuple | None = field(default=None, init=False, repr=False, compare=False)

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

    def distances(self) -> np.ndarray:
        """Read-only haversine distance matrix of the soundings, computed once.

        The spatial screen, the variograms and kriging all share it.
        """
        if self._distances is None:
            self._distances = pairwise_distances(self.latitudes, self.longitudes)
            self._distances.flags.writeable = False
        return self._distances

    def nearest(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Each sounding's m nearest other soundings and their distances (two n x m arrays).

        Ties keep sounding order. Computed once per m and read-only; every
        component's spatial screen shares it.
        """
        if self._nearest is None or self._nearest[0].shape[1] != m:
            d = self.distances().copy()
            np.fill_diagonal(d, np.inf)
            nb = np.argsort(d, axis=1, kind="stable")[:, :m]
            d_nb = d[np.arange(d.shape[0])[:, None], nb]
            nb.flags.writeable = d_nb.flags.writeable = False
            self._nearest = (nb, d_nb)
        return self._nearest

    def binned_pairs(self, n_bins: int, max_fraction: float) -> tuple[np.ndarray, ...]:
        """Pairs i < j grouped by distance bin: (i, j, bin starts, bin counts, bin mean distances).

        The bins split [0, max_fraction * largest pair distance] into
        ``n_bins`` equal widths, closed on the left and the last also on the
        right; farther pairs are left out. Bin b holds pairs
        ``starts[b]:starts[b] + counts[b]`` of ``i, j``, in row-major order,
        so a mean over a bin's slice sums exactly as over those pairs in
        ``triu`` order. Computed once per binning and read-only; every
        component's semivariogram shares it.
        """
        key = (n_bins, max_fraction)
        if self._pair_bins is None or self._pair_bins[0] != key:
            d = self.distances()
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
            tables = (i, j, starts, counts, mean_d)
            for a in tables:
                a.flags.writeable = False
            self._pair_bins = (key, tables)
        return self._pair_bins[1]

    def with_scores(self, scores: np.ndarray) -> "ScoreField":
        return replace(self, scores=np.asarray(scores, dtype=float))

    @classmethod
    def for_dataset(cls, ds: SpectralDataset, sounding_ids, scores, taus=None,
                    excluded_ids=()) -> "ScoreField":
        """Build a field whose geometry is looked up from ``ds`` by id."""
        ids = np.asarray(sounding_ids, dtype=int)
        rows = np.array([ds.index_of(int(i)) for i in ids], dtype=int)
        return cls(ids, np.asarray(scores, dtype=float), ds.latitudes[rows].copy(),
                   ds.longitudes[rows].copy(), ds.footprints[rows].copy(),
                   dict(taus or {}), tuple(excluded_ids))


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
    neighbor spacing exceeds ``max_gap_km`` are dropped.
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
    values = delta.T @ delta / (6.0 * n_tilde)
    return CovarianceMatrix(values, ws, f"error:{p}", n_tilde)


def estimate_signal_covariance(ds: SpectralDataset, mean: MeanModel,
                               errs: dict[int, CovarianceMatrix]) -> CovarianceMatrix:
    """Signal covariance: demeaned second moment minus the error correction.

    Both terms share the 1/(N-1) normalization, and the error correction
    weights each footprint's error covariance by its sounding count.
    """
    ws = mean.wavelengths
    rows = _complete_rows(ds, ws)
    n = rows.size
    if n < 2:
        raise DataError(f"{n} usable soundings, need >= 2 for the signal covariance")
    resid = ds.radiance[np.ix_(rows, ws.positions)] - evaluate_mean_rows(mean, ds, rows)
    raw = resid.T @ resid / (n - 1)
    fps = ds.footprints[rows]
    correction = np.zeros_like(raw)
    for p in np.unique(fps):
        p = int(p)
        if p not in errs:
            raise DataError(f"missing error covariance for footprint {p}")
        n_p = int((fps == p).sum())
        correction += n_p * errs[p].values
    values = raw - correction / (n - 1)
    return CovarianceMatrix(values, ws, "signal", n)


def eigendecompose(cov: CovarianceMatrix, fve_threshold: float = 0.99) -> FpcaBasis:
    """Eigendecompose a covariance and truncate by fraction of variance.

    Negative eigenvalues (possible after the error correction) are discarded;
    the FVE denominator is the sum of the positive eigenvalues. Each
    eigenvector's sign is fixed so its largest-magnitude coordinate is
    positive, making serialized bases reproducible.
    """
    if not 0.0 < fve_threshold <= 1.0:
        raise DataError(f"fve_threshold {fve_threshold} outside (0, 1]")
    a = cov.values
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > 1e-10 * scale:
        raise DataError("covariance is not symmetric to 1e-10 relative")
    evals, evecs = np.linalg.eigh((a + a.T) / 2.0)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    positive = evals > 0.0
    if not positive.any():
        raise NumericalError("no positive eigenvalues; nothing to retain")
    evals, evecs = evals[positive], evecs[:, positive]
    fve_curve = np.cumsum(evals) / evals.sum()
    k = int(np.searchsorted(fve_curve, fve_threshold) + 1)
    k = min(k, evals.size)
    evecs = evecs[:, :k].copy()
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
    return ScoreField.for_dataset(ds, ds.ids[rows], scores, excluded_ids=excluded)


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
