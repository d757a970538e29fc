import os
import sys

import pytest

# The CLI's BLAS setting, which holds only if made before numpy loads: serial
# tests do not oversubscribe the CPUs, and in-process commands compute what a
# CLI process does. pytest_configure ends the session if it came too late.
NUMPY_LOADED_FIRST = "numpy" in sys.modules
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from geofpca.dataset import SpectralDataset


def pytest_configure(config):
    if NUMPY_LOADED_FIRST:
        pytest.exit("numpy was imported before tests/conftest.py could set "
                    "OPENBLAS_NUM_THREADS=1", returncode=pytest.ExitCode.USAGE_ERROR)


def make_dataset(lats, footprints, radiance, lons=None, land_fractions=None,
                 ids=None, metadata=None):
    """Assemble a dataset from parallel arrays (NaN = missing radiance, None =
    absent land fraction)."""
    n = len(lats)
    lons = np.full(n, 23.8) if lons is None else lons
    ids = np.arange(1, n + 1) if ids is None else ids
    fractions = np.full(n, np.nan) if land_fractions is None else [
        np.nan if lf is None else lf for lf in land_fractions]
    return SpectralDataset(ids, lats, lons, footprints, fractions, radiance, metadata)


def replace_sounding(ds, sounding_id, radiance=None, land_fraction="keep"):
    """Clone a dataset with one sounding's radiance or land fraction swapped."""
    i = ds.index_of(sounding_id)
    rad = ds.radiance.copy()
    if radiance is not None:
        rad[i] = radiance
    fractions = ds.land_fractions.copy()
    if land_fraction != "keep":
        fractions[i] = np.nan if land_fraction is None else land_fraction
    return SpectralDataset(ds.ids, ds.latitudes, ds.longitudes, ds.footprints, fractions,
                           rad, ds.metadata)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
