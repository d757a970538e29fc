import numpy as np
import pytest

from conftest import make_dataset
from geofpca.dataset import WavelengthSet
from geofpca.errors import DataError, NumericalError
from geofpca.mean_model import MeanModel, evaluate_mean_at, fit_mean_model
from oracles import ols_pinv


def linear_dataset(rng, n_per_fp=25, footprints=(1, 2, 3), width=6, noise=0.0):
    """Radiance = b0[p](w) + b1[p](w) * latitude (+ optional noise)."""
    lats, fps, rows = [], [], []
    truth = {}
    for p in footprints:
        b0 = 40.0 + p + np.arange(width)
        b1 = 0.5 * p + 0.1 * np.arange(width)
        truth[p] = (b0, b1)
        lat = 34.0 + rng.uniform(0, 0.5, n_per_fp)
        for li in lat:
            lats.append(li)
            fps.append(p)
            rows.append(b0 + b1 * li + noise * rng.standard_normal(width))
    return make_dataset(lats, fps, np.array(rows)), truth


def test_constant_radiance_gives_zero_slope(rng):
    ds = make_dataset([34.0, 34.2, 34.4, 34.1, 34.3], [1, 1, 1, 2, 2],
                      np.full((5, 3), 7.5))
    model = fit_mean_model(ds, WavelengthSet((1, 2, 3)))
    for p in (1, 2):
        assert model.coefficients[p][0] == pytest.approx([7.5] * 3, abs=1e-12)
        assert model.coefficients[p][1] == pytest.approx([0.0] * 3, abs=1e-12)


def test_exact_linear_single_footprint():
    lats = np.array([33.9, 34.2, 34.5, 34.8])
    rad = (2.0 + 3.0 * lats)[:, None] * np.ones((1, 2))
    ds = make_dataset(lats, [4] * 4, rad)
    model = fit_mean_model(ds, WavelengthSet((1, 2)))
    assert model.coefficients[4][0] == pytest.approx([2.0, 2.0], abs=1e-10)
    assert model.coefficients[4][1] == pytest.approx([3.0, 3.0], abs=1e-10)


def test_matches_pseudo_inverse_oracle(rng):
    ds, _ = linear_dataset(rng, noise=0.8)
    ws = WavelengthSet((1, 2, 3, 4, 5, 6))
    model = fit_mean_model(ds, ws)
    for p in (1, 2, 3):
        rows = ds.footprints == p
        x = np.column_stack([np.ones(rows.sum()), ds.latitudes[rows]])
        for j in range(ws.size):
            beta = ols_pinv(x, ds.radiance[rows][:, j])
            assert model.coefficients[p][0, j] == pytest.approx(beta[0], abs=1e-8)
            assert model.coefficients[p][1, j] == pytest.approx(beta[1], abs=1e-8)


def test_residuals_orthogonal_to_design(rng):
    ds, _ = linear_dataset(rng, noise=1.5)
    ws = WavelengthSet((1, 2, 3, 4, 5, 6))
    model = fit_mean_model(ds, ws)
    for p in (1, 2, 3):
        rows = ds.footprints == p
        lat = ds.latitudes[rows]
        fitted = model.coefficients[p][0][None, :] + lat[:, None] * model.coefficients[p][1][None, :]
        resid = ds.radiance[rows][:, ws.positions] - fitted
        scale = np.abs(ds.radiance[rows]).max() * rows.sum()
        assert np.abs(resid.sum(axis=0)).max() < 1e-8 * scale
        assert np.abs((lat[:, None] * resid).sum(axis=0)).max() < 1e-8 * scale * np.abs(lat).max()


def test_row_permutation_invariance(rng):
    ds, _ = linear_dataset(rng, n_per_fp=10, noise=1.0)
    ws = WavelengthSet((1, 3, 5))
    model = fit_mean_model(ds, ws)
    perm = rng.permutation(len(ds))
    shuffled = make_dataset(ds.latitudes[perm], ds.footprints[perm],
                            ds.radiance[perm], lons=ds.longitudes[perm],
                            ids=ds.ids[perm])
    model2 = fit_mean_model(shuffled, ws)
    for p in model.footprints():
        np.testing.assert_allclose(model.coefficients[p], model2.coefficients[p],
                                   rtol=0, atol=1e-9)


def test_constant_shift_moves_intercept_only(rng):
    ds, _ = linear_dataset(rng, n_per_fp=12, footprints=(2,), noise=0.5)
    ws = WavelengthSet((1, 2, 3, 4, 5, 6))
    base = fit_mean_model(ds, ws)
    rad = ds.radiance.copy()
    rad[:, 2] += 11.25
    shifted_model = fit_mean_model(
        make_dataset(ds.latitudes, ds.footprints, rad), ws)
    diff0 = shifted_model.coefficients[2][0] - base.coefficients[2][0]
    assert diff0 == pytest.approx([0, 0, 11.25, 0, 0, 0], abs=1e-9)
    np.testing.assert_allclose(shifted_model.coefficients[2][1],
                               base.coefficients[2][1], atol=1e-9)


def test_missing_cells_drop_rows_per_wavelength(rng):
    ds, _ = linear_dataset(rng, n_per_fp=15, footprints=(1,), noise=0.3)
    rad = ds.radiance.copy()
    rad[4, 2] = np.nan
    ds_missing = make_dataset(ds.latitudes, ds.footprints, rad)
    ws = WavelengthSet((1, 2, 3, 4, 5, 6))
    model = fit_mean_model(ds_missing, ws)
    keep = np.arange(len(ds)) != 4
    reduced = fit_mean_model(
        make_dataset(ds.latitudes[keep], ds.footprints[keep], rad[keep]), ws)
    # w_3 must match the fit that never saw row 4; other wavelengths keep it.
    np.testing.assert_allclose(model.coefficients[1][:, 2],
                               reduced.coefficients[1][:, 2], atol=1e-10)
    full = fit_mean_model(make_dataset(ds.latitudes, ds.footprints, ds.radiance), ws)
    np.testing.assert_allclose(model.coefficients[1][:, 0],
                               full.coefficients[1][:, 0], atol=1e-10)


def test_rank_deficiency_names_footprint_and_wavelength():
    ds = make_dataset([34.0, 34.0, 34.0], [5, 5, 5], np.ones((3, 2)),
                      lons=[23.0, 23.1, 23.2])
    with pytest.raises(NumericalError, match="footprint 5, wavelength 1"):
        fit_mean_model(ds, WavelengthSet((1, 2)))


def test_too_few_rows_raises():
    ds = make_dataset([34.0], [1], np.ones((1, 2)))
    with pytest.raises(DataError, match="footprint 1"):
        fit_mean_model(ds, WavelengthSet((1, 2)))


def test_evaluate_reproduces_exact_linear_training_data():
    lats = np.array([33.9, 34.2, 34.5, 34.8])
    rad = np.outer(2.0 + 3.0 * lats, np.ones(3))
    ds = make_dataset(lats, [4] * 4, rad)
    model = fit_mean_model(ds, WavelengthSet((1, 2, 3)))
    for i, lat in enumerate(lats):
        got = evaluate_mean_at(model, [lat], [23.8], [4])[0]
        np.testing.assert_allclose(got, rad[i], atol=1e-10)


def test_evaluate_at_equator_returns_intercepts(rng):
    ds, truth = linear_dataset(rng, footprints=(3,), noise=0.0)
    model = fit_mean_model(ds, WavelengthSet((1, 2, 3, 4, 5, 6)))
    got = evaluate_mean_at(model, [0.0], [23.8], [3])[0]
    np.testing.assert_allclose(got, truth[3][0], atol=1e-8)


def test_evaluate_matches_matrix_product_oracle(rng):
    ds, _ = linear_dataset(rng, noise=1.0)
    model = fit_mean_model(ds, WavelengthSet((1, 2, 3, 4, 5, 6)))
    got = evaluate_mean_at(model, [34.77], [23.8], [2])[0]
    beta = model.coefficients[2]
    expected = np.array([1.0, 34.77]) @ beta
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_unfitted_footprint_raises(rng):
    ds, _ = linear_dataset(rng, footprints=(1,))
    model = fit_mean_model(ds, WavelengthSet((1, 2, 3, 4, 5, 6)))
    with pytest.raises(DataError, match="footprint 7"):
        evaluate_mean_at(model, [34.0], [23.8], [7])


def test_latlon_covariates(rng):
    n = 30
    lats = 34.0 + rng.uniform(0, 0.5, n)
    lons = 23.0 + rng.uniform(0, 0.5, n)
    rad = (1.0 + 2.0 * lats + 3.0 * lons)[:, None] * np.ones((1, 2))
    ds = make_dataset(lats, [1] * n, rad, lons=lons)
    model = fit_mean_model(ds, WavelengthSet((1, 2)), covariates="latlon")
    assert model.coefficients[1][:, 0] == pytest.approx([1.0, 2.0, 3.0], abs=1e-8)
    got = evaluate_mean_at(model, [34.9], [23.9], [1])[0]
    assert got[0] == pytest.approx(1.0 + 2.0 * 34.9 + 3.0 * 23.9, abs=1e-8)


def test_serialization_round_trip(rng):
    ds, _ = linear_dataset(rng, noise=0.7)
    ws = WavelengthSet((1, 2, 3, 4, 5, 6))
    model = fit_mean_model(ds, ws)
    restored = MeanModel.from_dict(model.to_dict(), ws)
    assert restored.covariates == model.covariates
    for p in model.footprints():
        np.testing.assert_allclose(restored.coefficients[p], model.coefficients[p])
