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

from .dataset import FOOTPRINTS, SpectralDataset, pairwise_distances
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
    if m < 1:
        raise DataError(f"grid_length {m} must be >= 1")
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


def simulate_error_process(sigma: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draws of the correlated error process, scaled by ``sigma``.

    The process is a random combination of one sine and one cosine over the
    wavelength-index domain, normalized so its pointwise variance is one.
    ``sigma`` of shape (..., m) gives one independent draw per row, the same
    draws as one call per row in row order.
    """
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    if (sigma < 0).any() or not np.all(np.isfinite(sigma)):
        raise DataError("sigma must be finite and nonnegative")
    c_w = float(sigma.shape[-1])
    amp = 1.0 / math.sqrt(c_w / 2.0)
    phase = np.pi * np.arange(sigma.shape[-1], dtype=float) / c_w
    nu = rng.normal(0.0, math.sqrt(c_w / 2.0), size=sigma.shape[:-1] + (2,))
    return sigma * (nu[..., :1] * amp * np.sin(phase) + nu[..., 1:] * amp * np.cos(phase))


def _draw_gp(rng, lat, lon, sill, range_km, kernel):
    d = pairwise_distances(np.asarray(lat), np.asarray(lon))
    if kernel == "exponential":
        cov = sill * np.exp(-d / range_km)
    elif kernel == "gaussian":
        cov = sill * np.exp(-((d / range_km) ** 2))
    else:
        raise DataError(f"unknown covariance kernel {kernel!r}")
    chol = np.linalg.cholesky(cov + 1e-10 * sill * np.eye(d.shape[0]))
    return chol @ rng.standard_normal(len(lat))


@dataclass
class ComponentSpec:
    """One component field: 'gp' (sill, range, kernel) or 'iid' (variance)."""

    kind: str
    variance: float
    range_km: float | None = None
    kernel: str = "exponential"


def _component_fields(rng: np.random.Generator, lat: np.ndarray, lon: np.ndarray,
                      components: tuple[ComponentSpec, ...],
                      profile: EndmemberProfile) -> np.ndarray:
    """One score column per component, drawn in order at the sites (lat, lon)."""
    m, supported = profile.eigenvectors.shape
    if len(components) > supported:
        raise DataError(f"grid_length {m} supports at most {supported} components, "
                        f"got {len(components)}")
    scores = np.empty((len(lat), len(components)))
    for j, comp in enumerate(components):
        if comp.kind == "gp":
            scores[:, j] = _draw_gp(rng, lat, lon, comp.variance, comp.range_km,
                                    comp.kernel)
        elif comp.kind == "iid":
            scores[:, j] = rng.normal(0.0, math.sqrt(comp.variance), len(lat))
        else:
            raise DataError(f"unknown component kind {comp.kind!r}")
    return scores


def _check_seed(seed: Seed) -> tuple[int, ...]:
    """The entries of ``seed``; a negative one is a data error."""
    entries = seed if isinstance(seed, tuple) else (seed,)
    if any(s < 0 for s in entries):
        raise DataError(f"seed {seed!r}: every entry must be >= 0")
    return entries


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
    if not (math.isfinite(cfg.rho) and cfg.rho >= 0.0):
        raise DataError(f"rho {cfg.rho} must be finite and >= 0")
    if cfg.alpha is not None and not 0.0 <= cfg.alpha <= 1.0:
        raise DataError(f"alpha {cfg.alpha} must be finite and in [0, 1]")
    _check_seed(cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    m = cfg.grid_length
    water_p, land_p = synthetic_profile(m, "water"), synthetic_profile(m, "land")
    mid = cfg.n_sites // 2
    lats = cfg.center_lat + np.linspace(-cfg.lat_span / 2, cfg.lat_span / 2, cfg.n_sites)
    lons = cfg.center_lon + cfg.lon_drift * (lats - cfg.center_lat)

    w_rows = np.arange(0, mid + 1)          # water sites plus the mixed site
    l_rows = np.arange(mid, cfg.n_sites)    # mixed site plus land sites
    water = (ComponentSpec("gp", cfg.water_sill, cfg.water_range_km),
             *(ComponentSpec("iid", v) for v in cfg.water_iid_vars))
    land = (ComponentSpec("gp", cfg.land_sill, cfg.land_range_km),
            *(ComponentSpec("iid", v) for v in cfg.land_iid_vars))
    w_scores = _component_fields(rng, lats[w_rows], lons[w_rows], water, water_p)
    l_scores = _component_fields(rng, lats[l_rows], lons[l_rows], land, land_p)
    alpha = float(rng.uniform()) if cfg.alpha is None else float(cfg.alpha)

    mu_w = water_p.intercept[None, :] + lats[w_rows, None] * water_p.slope[None, :]
    mu_l = land_p.intercept[None, :] + lats[l_rows, None] * land_p.slope[None, :]
    f_w = mu_w + w_scores @ water_p.eigenvectors[:, :len(water)].T
    f_l = mu_l + l_scores @ land_p.eigenvectors[:, :len(land)].T
    sigma_w = cfg.rho * mu_w[:-1].mean(axis=0)   # pure water sites only
    sigma_l = cfg.rho * mu_l[1:].mean(axis=0)    # pure land sites only
    sigma_mix = alpha * sigma_l + (1.0 - alpha) * sigma_w
    noise_free_mixed = alpha * f_l[0] + (1.0 - alpha) * f_w[-1]

    sigma = np.repeat(np.vstack([sigma_w, sigma_mix, sigma_l]),
                      [mid, 1, cfg.n_sites - mid - 1], axis=0)
    rad = np.vstack([f_w[:-1], noise_free_mixed, f_l[1:]]) \
        + simulate_error_process(sigma, rng=rng)
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
        noise_free_mixed=noise_free_mixed,
        sigma_water=sigma_w,
        sigma_land=sigma_l,
        water_profile=water_p,
        land_profile=land_p,
    )
    return ds, truth


@dataclass
class OrbitConfig:
    """Multi-footprint orbit layout and generative parameters."""

    n_tracks: int = 60
    track_spacing: float = 0.015
    footprints: tuple[int, ...] = tuple(FOOTPRINTS)
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
    _check_seed(cfg.seed)
    profile = synthetic_profile(cfg.grid_length, cfg.profile_kind)
    rng = np.random.default_rng(cfg.seed)
    n_fp = len(cfg.footprints)
    offsets = np.arange(n_fp) - (n_fp - 1) / 2.0
    lat = np.tile(cfg.base_lat + cfg.track_spacing * np.arange(cfg.n_tracks), n_fp)
    lon = (cfg.base_lon + np.repeat(cfg.fp_lon_step * offsets, cfg.n_tracks)
           + cfg.lon_drift * (lat - cfg.base_lat))
    fps = np.repeat(np.asarray(cfg.footprints, dtype=int), cfg.n_tracks)
    scores = _component_fields(rng, lat, lon, cfg.components, profile)

    rel = offsets / ((n_fp - 1) / 2.0 if n_fp > 1 else 1.0)
    betas = {p: np.vstack([profile.intercept * (1.0 + cfg.fp_mean_scale * off),
                           profile.slope * (1.0 + cfg.fp_slope_scale * off)])
             for p, off in zip(cfg.footprints, rel)}
    row_betas = np.repeat(np.array([betas[p] for p in cfg.footprints]),
                          cfg.n_tracks, axis=0)
    mu = row_betas[:, 0] + lat[:, None] * row_betas[:, 1]
    sigmas = {p: cfg.rho * (1.0 + cfg.fp_noise_scale * off) * mu[fps == p].mean(axis=0)
              for p, off in zip(cfg.footprints, rel)}
    evecs = profile.eigenvectors[:, :len(cfg.components)]
    noise_free = mu + scores @ evecs.T
    rad = noise_free + simulate_error_process(
        np.repeat(np.array([sigmas[p] for p in cfg.footprints]), cfg.n_tracks, axis=0),
        rng=rng)
    n = lat.size
    ds = SpectralDataset(np.arange(1, n + 1), lat, lon, fps, np.full(n, np.nan), rad,
                         {"generator": "orbit"})
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

    @property
    def n_failures(self) -> int:
        return sum(r.error is not None for r in self.records)


# The study's endmember fits run fewer Moran permutations than fit_geofpca's default.
STUDY_FIT = FitConfig(n_perm=199)
STUDY_TRIM = 0.1  # share of the errors cut from each end before the study's mean


def _study_cell(cfg: SimulationConfig, replicate) -> StudyRecord:
    rho, i_rho, rep = replicate
    rep_cfg = replace(cfg, rho=rho, alpha=None, seed=_check_seed(cfg.seed) + (i_rho, rep))
    ds, truth = simulate_mixed_transect(rep_cfg)
    try:
        spec = detect_mixed_region(ds)
        alphas, _ = unmix_region(ds, spec, STUDY_FIT)
    except GeofpcaError as e:
        return StudyRecord(rho, rep, truth.alpha, math.nan, math.nan, str(e))
    j = spec.mixed_ids.index(truth.mixed_id)
    return StudyRecord(rho, rep, truth.alpha, float(alphas["unmixing"][j]),
                       float(alphas["interpolation"][j]))


def _trim_mean(a: np.ndarray, proportion: float) -> float:
    """Mean after cutting ``int(proportion * n)`` values from each end (scipy's trim_mean)."""
    n = a.size
    lo = int(proportion * n)
    return float(np.mean(np.partition(a, (lo, n - lo - 1))[lo:n - lo]))


def run_unmixing_study(rho_grid, n_reps: int, cfg: SimulationConfig | None = None,
                       threads: int = 1) -> StudyResult:
    """Replicated comparison of unmixing vs interpolation across noise levels.

    Per noise ratio and method, reports the ``STUDY_TRIM``-trimmed mean of the
    relative absolute error at the mixed site over ``n_reps`` replicates.
    Replicates get derived seeds, so results do not depend on ``threads``.
    """
    if n_reps < 2:
        raise DataError("n_reps must be >= 2")
    cfg = cfg or SimulationConfig()
    base_seed = _check_seed(cfg.seed)[0]
    replicates = [(float(rho), i, rep)
                  for i, rho in enumerate(rho_grid) for rep in range(n_reps)]
    records = map_tasks(_study_cell, cfg, replicates, threads,
                        chunksize=max(1, len(replicates) // (max(threads, 1) * 8)))

    rows = []
    for i, rho in enumerate(rho_grid):
        good = [r for r in records[i * n_reps:(i + 1) * n_reps] if r.error is None]
        for method, attr in (("unmixing", "alpha_unmix"),
                             ("interpolation", "alpha_interp")):
            errs = np.array([abs(getattr(r, attr) - r.alpha_true) / r.alpha_true
                             for r in good])
            rows.append(StudyRow(float(rho), method,
                                 _trim_mean(errs, STUDY_TRIM) if errs.size else math.nan,
                                 len(good), int(base_seed)))
    return StudyResult(rows, records)


def study_to_csv(result: StudyResult, path) -> None:
    lines = ["rho,method,trimmed_mean_rel_abs_error,n_reps,seed"]
    for r in result.rows:
        lines.append(f"{r.rho!r},{r.method},{r.trimmed_mean_rel_abs_error!r},"
                     f"{r.n_reps},{r.seed}")
    Path(path).write_text("\n".join(lines) + "\n")
