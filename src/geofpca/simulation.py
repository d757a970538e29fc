"""Synthetic datasets from the generative model, for testing and calibration.

Two generators are provided: a single-footprint mixed land/water transect
(water field below a central mixed site, land field above) and a general
multi-footprint orbit. Component fields are Gaussian with exponential or
squared-exponential spatial covariance, or i.i.d. The measurement-error
process is the low-rank sine/cosine design whose pointwise variance is one,
scaled by a noise curve proportional to the regional mean radiance.

Built-in endmember profiles stand in for instrument-derived coefficient and
eigenvector curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataset import GeoLocation, SpectralDataset, Sounding, pairwise_distances
from .errors import DataError, GeofpcaError
from .imputation import FitConfig
from .parallel import map_tasks
from .unmixing import detect_mixed_region, unmix_region

Seed = int | tuple[int, ...]


@dataclass
class EndmemberProfile:
    """Per-wavelength mean coefficients and orthonormal component shapes."""

    intercept: np.ndarray
    slope: np.ndarray
    eigenvectors: np.ndarray  # m x 3, orthonormal columns


def _orthonormal_against_affine(x: np.ndarray, columns: list[np.ndarray]) -> np.ndarray:
    """Orthonormalize ``columns`` against span{1, x} and each other.

    Keeping component shapes orthogonal to the affine-in-index family makes
    the land/water mean separation (an affine curve by construction)
    identifiable regardless of the component fields.
    """
    q, _ = np.linalg.qr(np.column_stack([np.ones_like(x), x] + columns))
    q = q[:, 2:].copy()
    for j in range(q.shape[1]):
        if q[np.argmax(np.abs(q[:, j])), j] < 0:
            q[:, j] = -q[:, j]
    return q


def synthetic_profile(m: int, kind: str) -> EndmemberProfile:
    """Built-in smooth endmember curves; land is bright, water dark.

    Both kinds share the same absorption-like structure so their mean
    difference is affine in the wavelength index, and both component sets are
    orthogonal to that affine family.
    """
    x = np.linspace(0.0, 1.0, m)
    shared = (-10.0 * np.exp(-((x - 0.35) / 0.06) ** 2)
              - 6.0 * np.exp(-((x - 0.7) / 0.05) ** 2)
              + 3.0 * np.sin(2.0 * np.pi * x))
    if kind == "water":
        intercept = 42.0 + 5.0 * x + shared
        slope = 0.25 + 0.10 * x
        raw = [np.sin(2.0 * np.pi * x + 0.4), np.cos(3.0 * np.pi * x + 0.2),
               np.sin(5.0 * np.pi * x - 0.3)]
    elif kind == "land":
        intercept = 97.0 + 10.0 * x + shared
        slope = -0.25 - 0.05 * x
        raw = [np.cos(2.0 * np.pi * x - 0.5) * (1.0 + 0.2 * x),
               np.sin(3.0 * np.pi * x + 0.7), np.cos(5.0 * np.pi * x + 0.1)]
    else:
        raise DataError(f"unknown profile kind {kind!r}")
    return EndmemberProfile(intercept, slope, _orthonormal_against_affine(x, raw))


def simulate_error_process(sigma: np.ndarray, seed: Seed | None = None,
                           rng: np.random.Generator | None = None,
                           indices: np.ndarray | None = None) -> np.ndarray:
    """One draw of the correlated error process, scaled by ``sigma``.

    The process is a random combination of one sine and one cosine over the
    wavelength-index domain, normalized so its pointwise variance is one.
    """
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


@dataclass
class SimulationConfig:
    """Mixed-transect layout and generative parameters."""

    n_sites: int = 41
    lat_span: float = 1.2
    center_lat: float = 35.49881
    center_lon: float = 23.83578
    lon_drift: float = 0.1  # deg longitude per deg latitude along the track
    footprint: int = 4
    grid_length: int = 120
    rho: float = 0.05
    alpha: float | None = None  # None draws Uniform(0, 1)
    water_sill: float = 5.0
    water_range_km: float = 10.0
    land_sill: float = 10.0
    land_range_km: float = 7.0
    water_iid_vars: tuple[float, ...] = (2.0,)
    land_iid_vars: tuple[float, ...] = (2.0, 1.0)
    seed: Seed = 0


@dataclass
class TransectTruth:
    """Latent quantities behind one simulated transect."""

    alpha: float
    mixed_id: int
    water_ids: tuple[int, ...]
    land_ids: tuple[int, ...]
    water_scores: np.ndarray  # (n_water + 1) x K_w; last row is the mixed site
    land_scores: np.ndarray   # (n_land + 1) x K_l; first row is the mixed site
    f_water_mixed: np.ndarray
    f_land_mixed: np.ndarray
    noise_free_mixed: np.ndarray
    sigma_water: np.ndarray
    sigma_land: np.ndarray
    water_profile: EndmemberProfile
    land_profile: EndmemberProfile


def simulate_mixed_transect(cfg: SimulationConfig | None = None
                            ) -> tuple[SpectralDataset, TransectTruth]:
    """Simulate the single-footprint land/water transect with a mixed middle site.

    Sites south of the middle are pure water, north pure land; the middle
    sounding mixes the two latent fields with a (possibly drawn) fraction.
    Fixed seeds give byte-identical datasets.
    """
    cfg = cfg or SimulationConfig()
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
    soundings = []
    for i in range(cfg.n_sites):
        if i < mid:
            clean, sigma, lf = f_w[i], sigma_w, 0.0
        elif i == mid:
            clean = alpha * f_l[0] + (1.0 - alpha) * f_w[-1]
            sigma, lf = sigma_mix, alpha
        else:
            clean, sigma, lf = f_l[i - mid], sigma_l, 1.0
        rad = clean + simulate_error_process(sigma, rng=rng, indices=indices)
        soundings.append(Sounding(i + 1, GeoLocation(float(lats[i]), float(lons[i])),
                                  cfg.footprint, lf, rad))
    ds = SpectralDataset(soundings, m, {"generator": "mixed-transect"})
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
    return ds, truth


@dataclass
class ComponentSpec:
    """One component field: 'gp' (sill, range, kernel) or 'iid' (variance)."""

    kind: str
    variance: float
    range_km: float | None = None
    kernel: str = "exponential"


@dataclass
class OrbitConfig:
    """Multi-footprint orbit layout and generative parameters."""

    n_tracks: int = 60
    track_spacing: float = 0.015
    footprints: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    base_lat: float = 35.0
    base_lon: float = 23.8
    fp_lon_step: float = 0.008
    lon_drift: float = 0.1
    grid_length: int = 120
    profile_kind: str = "water"
    components: tuple[ComponentSpec, ...] = (
        ComponentSpec("gp", 5.0, 10.0),
        ComponentSpec("iid", 2.0),
        ComponentSpec("iid", 1.0),
    )
    rho: float = 0.02
    fp_mean_scale: float = 0.03
    fp_slope_scale: float = 0.05
    fp_noise_scale: float = 0.2
    seed: Seed = 0


@dataclass
class OrbitTruth:
    """Latent quantities behind one simulated orbit (rows align with the dataset)."""

    betas: dict[int, np.ndarray]          # footprint -> 2 x m (intercept, slope)
    eigenvectors: np.ndarray              # m x K
    components: tuple[ComponentSpec, ...]
    scores: np.ndarray                    # N x K
    sigmas: dict[int, np.ndarray]         # footprint -> noise curve
    noise_free: np.ndarray                # N x m


def simulate_orbit(cfg: OrbitConfig | None = None) -> tuple[SpectralDataset, OrbitTruth]:
    """Simulate a complete multi-footprint orbit segment from the model.

    Rows are footprint-major (all tracks of footprint 1, then 2, ...), which
    matches the orbit-ordered file contract. Footprints share track latitudes
    and are offset in longitude.
    """
    cfg = cfg or OrbitConfig()
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
    soundings = []
    for i in range(n):
        rad = noise_free[i] + simulate_error_process(sigmas[int(fps[i])], rng=rng,
                                                     indices=indices)
        soundings.append(Sounding(i + 1, GeoLocation(float(lat[i]), float(lon[i])),
                                  int(fps[i]), None, rad))
    ds = SpectralDataset(soundings, cfg.grid_length, {"generator": "orbit"})
    return ds, OrbitTruth(betas, evecs, cfg.components, scores, sigmas, noise_free)


@dataclass
class StudyRecord:
    """One replicate of the unmixing study."""

    rho: float
    rep: int
    alpha_true: float
    alpha_unmix: float
    alpha_interp: float
    error: str | None = None


@dataclass
class StudyRow:
    rho: float
    method: str
    trimmed_mean_rel_abs_error: float
    n_reps: int
    seed: int


@dataclass
class StudyResult:
    rows: list[StudyRow]
    records: list[StudyRecord]
    n_failures: int


# The study's endmember fits run fewer Moran permutations than fit_geofpca's default.
STUDY_FIT = FitConfig(n_perm=199)


def _study_cell(cfg: SimulationConfig, replicate) -> StudyRecord:
    rho, i_rho, rep = replicate
    rep_cfg = replace(cfg, rho=rho, alpha=None,
                      seed=_spawn_seed(cfg.seed, i_rho, rep))
    ds, truth = simulate_mixed_transect(rep_cfg)
    try:
        spec = detect_mixed_region(ds)
        estimates, _ = unmix_region(ds, spec, STUDY_FIT)
    except GeofpcaError as e:
        return StudyRecord(rho, rep, truth.alpha, math.nan, math.nan, str(e))
    by_method = {e.method: e.alpha for e in estimates
                 if e.sounding_id == truth.mixed_id}
    return StudyRecord(rho, rep, truth.alpha,
                       by_method["unmixing"], by_method["interpolation"])


def _spawn_seed(seed: Seed, i_rho: int, rep: int) -> tuple[int, ...]:
    base = seed if isinstance(seed, tuple) else (seed,)
    return base + (i_rho, rep)


def _trim_mean(a: np.ndarray, proportion: float) -> float:
    """Mean after cutting ``int(proportion * n)`` values from each end (scipy's trim_mean)."""
    n = a.size
    lo = int(proportion * n)
    return float(np.mean(np.partition(a, (lo, n - lo - 1))[lo:n - lo]))


def run_unmixing_study(rho_grid, n_reps: int, cfg: SimulationConfig | None = None,
                       trim: float = 0.1, threads: int = 1) -> StudyResult:
    """Replicated comparison of unmixing vs interpolation across noise levels.

    Per noise ratio and method, reports the ``trim``-trimmed mean of the
    relative absolute error at the mixed site over ``n_reps`` replicates.
    Replicates get derived seeds, so results do not depend on ``threads``.
    """
    if n_reps < 2:
        raise DataError("n_reps must be >= 2")
    if not 0.0 <= trim < 0.5:
        raise DataError(f"trim {trim} outside [0, 0.5)")
    cfg = cfg or SimulationConfig()
    replicates = [(float(rho), i, rep)
                  for i, rho in enumerate(rho_grid) for rep in range(n_reps)]
    records = map_tasks(_study_cell, cfg, replicates, threads,
                        chunksize=max(1, len(replicates) // (max(threads, 1) * 8)))

    base_seed = cfg.seed[0] if isinstance(cfg.seed, tuple) else cfg.seed
    rows = []
    n_failures = 0
    for i, rho in enumerate(rho_grid):
        cell = records[i * n_reps:(i + 1) * n_reps]
        good = [r for r in cell if r.error is None]
        n_failures += len(cell) - len(good)
        for method, attr in (("unmixing", "alpha_unmix"),
                             ("interpolation", "alpha_interp")):
            errs = np.array([abs(getattr(r, attr) - r.alpha_true) / r.alpha_true
                             for r in good])
            rows.append(StudyRow(float(rho), method,
                                 _trim_mean(errs, trim) if errs.size else math.nan,
                                 len(good), int(base_seed)))
    return StudyResult(rows, records, n_failures)


def study_to_csv(result: StudyResult, path) -> None:
    lines = ["rho,method,trimmed_mean_rel_abs_error,n_reps,seed"]
    for r in result.rows:
        lines.append(f"{r.rho!r},{r.method},{r.trimmed_mean_rel_abs_error!r},"
                     f"{r.n_reps},{r.seed}")
    Path(path).write_text("\n".join(lines) + "\n")
