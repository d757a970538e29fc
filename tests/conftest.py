import numpy as np
import pytest

from geofpca.dataset import SpectralDataset
from geofpca.parallel import pin_blas


def pytest_sessionstart(session):
    # The CLI's BLAS setting: serial tests do not oversubscribe the CPUs.
    pin_blas()


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
