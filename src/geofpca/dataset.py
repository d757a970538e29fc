"""Spatially indexed spectral soundings: containers, CSV I/O, and geometry.

A dataset is an ordered collection of soundings, each carrying a geolocation,
a detector footprint in 1..8, an optional reported land fraction, and a
radiance vector over a shared integer wavelength-index grid. Missing radiance
entries are NaN internally (empty cell or ``NaN`` in CSV).

The CSV schema is ``id, latitude, longitude, footprint, land_fraction,
w_1 .. w_W``. Rows must be orbit-ordered (within each footprint, row order is
acquisition order); cross-track grouping relies on that contract.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError

EARTH_RADIUS_KM = 6371.0088  # IUGG mean radius
DISTANCE_BLOCK = 64  # rows of the distance matrix evaluated per array pass

_BASE_COLUMNS = ("id", "latitude", "longitude", "footprint", "land_fraction")


@dataclass(frozen=True)
class GeoLocation:
    """A (latitude, longitude) pair in degrees; longitude in (-180, 180]."""

    latitude: float
    longitude: float

    def __post_init__(self):
        if not (math.isfinite(self.latitude) and math.isfinite(self.longitude)):
            raise DataError(f"non-finite geolocation ({self.latitude}, {self.longitude})")
        if not -90.0 <= self.latitude <= 90.0:
            raise DataError(f"latitude {self.latitude} outside [-90, 90]")
        if not -180.0 < self.longitude <= 180.0:
            raise DataError(f"longitude {self.longitude} outside (-180, 180]")


@dataclass
class Sounding:
    """One observation: location, footprint, optional land fraction, radiance.

    ``radiance`` has the dataset's grid length; NaN marks a missing entry.
    """

    id: int
    location: GeoLocation
    footprint: int
    land_fraction: float | None
    radiance: np.ndarray

    def __post_init__(self):
        if self.footprint not in range(1, 9):
            raise DataError(f"sounding {self.id}: footprint {self.footprint} outside 1..8")
        if self.land_fraction is not None and not 0.0 <= self.land_fraction <= 1.0:
            raise DataError(
                f"sounding {self.id}: land_fraction {self.land_fraction} outside [0, 1]"
            )
        rad = np.asarray(self.radiance, dtype=float)
        rad.flags.writeable = False
        object.__setattr__(self, "radiance", rad)

    @property
    def latitude(self) -> float:
        return self.location.latitude

    @property
    def longitude(self) -> float:
        return self.location.longitude


@dataclass
class WavelengthSet:
    """Strictly increasing 1-based wavelength indices selected for estimation."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) == 0:
            raise DataError("empty wavelength set")
        idx = tuple(int(i) for i in self.indices)
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise DataError("wavelength indices must be strictly increasing")
        if idx[0] < 1:
            raise DataError("wavelength indices are 1-based")
        object.__setattr__(self, "indices", idx)

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def positions(self) -> np.ndarray:
        """0-based column positions into a radiance array."""
        return np.asarray(self.indices, dtype=int) - 1

    @property
    def values(self) -> np.ndarray:
        """Indices as a float array (the discrete integration grid)."""
        return np.asarray(self.indices, dtype=float)


class SpectralDataset:
    """Immutable ordered collection of soundings over a shared grid.

    Soundings must be orbit-ordered; all read accessors are cached and the
    object is safe to share across threads.
    """

    def __init__(self, soundings: Sequence[Sounding], grid_length: int,
                 metadata: dict | None = None):
        soundings = tuple(soundings)
        if grid_length < 1:
            raise DataError(f"grid_length {grid_length} must be >= 1")
        seen = set()
        for s in soundings:
            if s.id in seen:
                raise DataError(f"duplicate sounding id {s.id}")
            seen.add(s.id)
            if s.radiance.shape != (grid_length,):
                raise DataError(
                    f"sounding {s.id}: radiance length {s.radiance.shape[0]} "
                    f"!= grid length {grid_length}"
                )
        self.soundings = soundings
        self.grid_length = int(grid_length)
        self.metadata = dict(metadata or {})
        self._by_id = {s.id: i for i, s in enumerate(soundings)}
        self._cache: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.soundings)

    def __iter__(self):
        return iter(self.soundings)

    def _array(self, key, build):
        if key not in self._cache:
            arr = build()
            arr.flags.writeable = False
            self._cache[key] = arr
        return self._cache[key]

    @property
    def ids(self) -> np.ndarray:
        return self._array("ids", lambda: np.array([s.id for s in self.soundings]))

    @property
    def latitudes(self) -> np.ndarray:
        return self._array("lat", lambda: np.array([s.latitude for s in self.soundings]))

    @property
    def longitudes(self) -> np.ndarray:
        return self._array("lon", lambda: np.array([s.longitude for s in self.soundings]))

    @property
    def footprints(self) -> np.ndarray:
        return self._array("fp", lambda: np.array([s.footprint for s in self.soundings]))

    @property
    def land_fractions(self) -> np.ndarray:
        """Reported land fractions; NaN where absent."""
        return self._array("lf", lambda: np.array(
            [math.nan if s.land_fraction is None else s.land_fraction
             for s in self.soundings]))

    @property
    def radiance(self) -> np.ndarray:
        """N x W radiance matrix with NaN for missing entries."""
        return self._array("rad", lambda: np.vstack(
            [s.radiance for s in self.soundings])
            if self.soundings else np.empty((0, self.grid_length)))

    def footprints_present(self) -> list[int]:
        return sorted(set(int(s.footprint) for s in self.soundings))

    def index_of(self, sounding_id: int) -> int:
        try:
            return self._by_id[sounding_id]
        except KeyError:
            raise DataError(f"sounding id {sounding_id} not in dataset") from None

    def get(self, sounding_id: int) -> Sounding:
        return self.soundings[self.index_of(sounding_id)]

    def subset(self, indices: Iterable[int], metadata_update: dict | None = None
               ) -> "SpectralDataset":
        """Order-preserving subset by positional indices."""
        idx = sorted(set(int(i) for i in indices))
        meta = dict(self.metadata)
        if metadata_update:
            meta.update(metadata_update)
        return SpectralDataset([self.soundings[i] for i in idx], self.grid_length, meta)


def haversine_km(lat1, lon1, lat2, lon2):
    """Vectorized haversine distance in km (inputs in degrees)."""
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(x, dtype=float))
                              for x in (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(a)))


def pairwise_distances(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Symmetric matrix of haversine distances in km.

    Evaluates the upper triangle, DISTANCE_BLOCK rows at a time, and mirrors
    it: the haversine is exactly symmetric in its two points, so the matrix
    equals the full n x n evaluation bit for bit.
    """
    n = lat.size
    d = np.empty((n, n))
    for start in range(0, n, DISTANCE_BLOCK):
        rows = slice(start, start + DISTANCE_BLOCK)
        d[rows, start:] = haversine_km(lat[rows, None], lon[rows, None],
                                       lat[None, start:], lon[None, start:])
        d[start:, rows] = d[rows, start:].T
    return d


def select_region(ds: SpectralDataset, lat_range: tuple[float, float]) -> SpectralDataset:
    """Subset to soundings with latitude inside the closed window."""
    lo, hi = float(lat_range[0]), float(lat_range[1])
    if not lo < hi:
        raise DataError(f"invalid latitude window [{lo}, {hi}]")
    keep = np.flatnonzero((ds.latitudes >= lo) & (ds.latitudes <= hi))
    if keep.size == 0:
        raise DataError(f"no soundings in latitude window [{lo}, {hi}]")
    return ds.subset(keep, {"region": [lo, hi]})


def common_wavelengths(ds: SpectralDataset, min_coverage: float = 1.0) -> WavelengthSet:
    """Wavelength indices usable for estimation across the dataset.

    An index qualifies when its non-missing fraction over all soundings is at
    least ``min_coverage`` and every footprint present observes it at least
    twice (otherwise the per-footprint mean coefficients are not estimable).
    """
    if not 0.0 < min_coverage <= 1.0:
        raise DataError(f"min_coverage {min_coverage} outside (0, 1]")
    if len(ds) == 0:
        raise DataError("empty dataset")
    observed = ~np.isnan(ds.radiance)
    ok = observed.mean(axis=0) >= min_coverage
    for p in ds.footprints_present():
        ok &= observed[ds.footprints == p].sum(axis=0) >= 2
    if not ok.any():
        raise DataError("no wavelength index meets the coverage requirements")
    return WavelengthSet(tuple(int(j) + 1 for j in np.flatnonzero(ok)))


def track_numbers(ds: SpectralDataset) -> np.ndarray:
    """Each row's cross-track number: its rank in row order within its footprint.

    Requires the orbit-ordered file contract: within each footprint, row
    order equals acquisition order, and corresponding ranks across footprints
    share an along-track position. A track holds at most one row per footprint.
    """
    fps = ds.footprints
    tracks = np.empty(len(ds), dtype=int)
    for p in np.unique(fps):
        sel = fps == p
        tracks[sel] = np.arange(np.count_nonzero(sel))
    return tracks


def remove_cross_tracks(ds: SpectralDataset, center: int, r: int
                        ) -> tuple[SpectralDataset, SpectralDataset]:
    """Split off the ``r`` cross-tracks nearest to the center sounding.

    For odd ``r`` the held-out block is the center's track plus (r-1)/2 tracks
    on each side; for even ``r`` it is the center's track plus r/2 tracks
    observed before it and r/2-1 after.
    """
    if not 1 <= r <= 8:
        raise DataError(f"r {r} outside 1..8")
    at = np.flatnonzero(ds.ids == center)
    if at.size == 0:
        raise DataError(f"center sounding {center} not in dataset")
    tracks = track_numbers(ds)
    t0, n_tracks = int(tracks[at[0]]), int(tracks.max()) + 1
    if r % 2 == 1:
        lo, hi = t0 - (r - 1) // 2, t0 + (r - 1) // 2
    else:
        lo, hi = t0 - r // 2, t0 + r // 2 - 1
    if lo < 0 or hi >= n_tracks:
        raise DataError(
            f"not enough cross-tracks around sounding {center} for r={r} "
            f"(need tracks {lo}..{hi} of 0..{n_tracks - 1})"
        )
    held = (tracks >= lo) & (tracks <= hi)
    if held.all():
        raise DataError("cross-track removal leaves no training soundings")
    return ds.subset(np.flatnonzero(~held)), ds.subset(np.flatnonzero(held))


def _parse_cell(text: str, line_no: int, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(f"line {line_no}: unparseable {what} {text!r}") from None


def _parse_radiance(cells: list[str], line_no: int) -> np.ndarray:
    """One row's radiance: an empty or NaN cell is missing, an infinite one an error.

    The whole row is parsed in one pass; a row that fails is read again cell
    by cell, which names its first bad column.
    """
    try:
        rad = np.array([float(c) if c else math.nan for c in cells])
        if not np.isinf(rad).any():
            return rad
    except ValueError:
        pass
    rad = np.empty(len(cells))
    for j, cell in enumerate(cells):
        rad[j] = _parse_cell(cell, line_no, f"radiance w_{j + 1}") if cell else math.nan
        if math.isinf(rad[j]):
            raise DataError(f"line {line_no}: non-finite radiance w_{j + 1} "
                            f"{cell!r} (leave the cell empty or NaN if missing)")
    return rad


def load_dataset(path, sidecar=None) -> SpectralDataset:
    """Load a dataset from CSV, with an optional JSON sidecar.

    Both files are UTF-8. The sidecar (``<path>.json`` by default) holds a
    JSON object that may declare an integer ``grid_length``, ``unit``, and
    ``orbit_id``; extra keys are kept as metadata. Empty cells and the literal
    ``NaN`` mark missing radiance; an infinite radiance is a data error. An
    empty ``land_fraction`` cell marks an absent land fraction. Duplicate
    (footprint, latitude) pairs keep the first row and emit a warning.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    metadata: dict = {}
    sidecar = Path(sidecar) if sidecar else Path(str(path) + ".json")
    if sidecar.exists():
        try:
            with open(sidecar, encoding="utf-8") as fh:
                doc = json.load(fh)
        except ValueError as e:  # also UnicodeDecodeError
            raise DataError(f"{sidecar}: sidecar is not valid JSON ({e})") from None
        if not isinstance(doc, dict):
            raise DataError(f"{sidecar}: sidecar must hold a JSON object")
        metadata.update(doc)

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text (byte {e.start}: {e.reason})") from None
    if not lines:
        raise DataError(f"{path}: empty file")
    header = lines[0].split(",")
    if tuple(header[:5]) != _BASE_COLUMNS:
        raise DataError(
            f"{path}: header must start with {','.join(_BASE_COLUMNS)}, got "
            f"{','.join(header[:5])}"
        )
    width = len(header) - 5
    if width < 1:
        raise DataError(f"{path}: no radiance columns in header")
    for j, name in enumerate(header[5:], start=1):
        if not re.fullmatch(rf"w_{j}", name):
            raise DataError(f"{path}: radiance column {j} named {name!r}, expected 'w_{j}'")
    declared = metadata.get("grid_length")
    if declared is not None:
        if type(declared) is not int:  # a JSON integer, never truncated or parsed
            raise DataError(f"{sidecar}: grid_length {declared!r} is not an integer")
        if declared != width:
            raise DataError(
                f"{path}: sidecar grid_length {declared} != {width} radiance columns"
            )

    soundings = []
    seen_keys = set()
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise DataError(
                f"line {line_no}: expected {len(header)} fields, got {len(cells)} "
                "(non-rectangular radiance block)"
            )
        try:
            sid = int(cells[0])
        except ValueError:
            raise DataError(f"line {line_no}: unparseable id {cells[0]!r}") from None
        lat = _parse_cell(cells[1], line_no, "latitude")
        lon = _parse_cell(cells[2], line_no, "longitude")
        try:
            fp = int(cells[3])
        except ValueError:
            raise DataError(f"line {line_no}: unparseable footprint {cells[3]!r}") from None
        if fp not in range(1, 9):
            raise DataError(f"line {line_no}: footprint {fp} outside 1..8")
        lf = None if cells[4] == "" else _parse_cell(cells[4], line_no, "land_fraction")
        rad = _parse_radiance(cells[5:], line_no)
        key = (fp, lat)
        if key in seen_keys:
            warnings.warn(
                f"line {line_no}: duplicate (footprint, latitude) {key}; keeping first",
                stacklevel=2,
            )
            continue
        seen_keys.add(key)
        try:
            soundings.append(Sounding(sid, GeoLocation(lat, lon), fp, lf, rad))
        except DataError as e:
            raise DataError(f"line {line_no}: {e}") from None
    return SpectralDataset(soundings, width, metadata)


def _fmt(x: float) -> str:
    # repr of a Python float is the shortest round-tripping decimal form,
    # which keeps save -> load -> save byte-identical.
    return repr(float(x))


def save_dataset(ds: SpectralDataset, path) -> None:
    """Write the dataset back to the CSV schema (NaN / absent as empty cells)."""
    path = Path(path)
    header = ",".join(_BASE_COLUMNS + tuple(f"w_{j}" for j in range(1, ds.grid_length + 1)))
    out = [header]
    for s in ds.soundings:
        cells = [str(s.id), _fmt(s.latitude), _fmt(s.longitude), str(s.footprint),
                 "" if s.land_fraction is None else _fmt(s.land_fraction)]
        cells.extend("" if math.isnan(v) else _fmt(v) for v in s.radiance)
        out.append(",".join(cells))
    path.write_text("\n".join(out) + "\n")
