import numpy as np
import pytest

from geofpca.dataset import GeoLocation, Sounding, SpectralDataset
from geofpca.parallel import pin_blas


def pytest_sessionstart(session):
    # The CLI's BLAS setting: serial tests do not oversubscribe the CPUs.
    pin_blas()


def make_dataset(lats, footprints, radiance, lons=None, land_fractions=None,
                 ids=None, metadata=None):
    """Assemble a dataset from parallel arrays (NaN = missing radiance)."""
    radiance = np.asarray(radiance, dtype=float)
    n, width = radiance.shape
    lats = np.asarray(lats, dtype=float)
    lons = np.full(n, 23.8) if lons is None else np.asarray(lons, dtype=float)
    footprints = np.asarray(footprints, dtype=int)
    ids = np.arange(1, n + 1) if ids is None else np.asarray(ids, dtype=int)
    soundings = []
    for i in range(n):
        lf = None if land_fractions is None else land_fractions[i]
        soundings.append(Sounding(int(ids[i]), GeoLocation(float(lats[i]), float(lons[i])),
                                  int(footprints[i]), lf, radiance[i]))
    return SpectralDataset(soundings, width, metadata)


def replace_sounding(ds, sounding_id, radiance=None, land_fraction="keep"):
    """Clone a dataset with one sounding's radiance or land fraction swapped."""
    soundings = []
    for s in ds.soundings:
        if s.id == sounding_id:
            rad = s.radiance if radiance is None else np.asarray(radiance, dtype=float)
            lf = s.land_fraction if land_fraction == "keep" else land_fraction
            soundings.append(Sounding(s.id, s.location, s.footprint, lf, rad))
        else:
            soundings.append(s)
    return SpectralDataset(soundings, ds.grid_length, dict(ds.metadata))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
