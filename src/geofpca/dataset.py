"""Spatially indexed spectral soundings: containers, CSV I/O, and geometry.

A dataset is a table of soundings held as columns: id, geolocation, detector
footprint in 1..8, optional reported land fraction, and one row of a radiance
matrix over a shared integer wavelength-index grid. Missing radiance entries
are NaN internally (empty cell or ``NaN`` in CSV).

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
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import DataError

EARTH_RADIUS_KM = 6371.0088  # IUGG mean radius
DISTANCE_BLOCK = 64  # rows of the distance matrix evaluated per array pass
FOOTPRINTS = range(1, 9)  # the detector footprints a sounding can carry
BLOCK_SIZES = range(1, 9)  # how many adjacent cross-tracks a removal can hold out

_BASE_COLUMNS = ("id", "latitude", "longitude", "footprint", "land_fraction")


class Sounding(NamedTuple):
    """One row of a dataset, as :meth:`SpectralDataset.get` returns it.

    ``land_fraction`` is None when absent; ``radiance`` is a read-only view.
    """

    id: int
    latitude: float
    longitude: float
    footprint: int
    land_fraction: float | None
    radiance: np.ndarray


def _first_violation(rules: list[tuple[np.ndarray, Callable[[int], str]]]
                     ) -> tuple[int, str] | None:
    """The first row that a (bad-row mask, message for row i) rule flags, with
    the message of the first rule it breaks, or None."""
    bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in rules]))
    if bad.size == 0:
        return None
    i = int(bad[0])
    return i, next(message(i) for mask, message in rules if mask[i])


def _coordinate_rules(lat: np.ndarray, lon: np.ndarray) -> list:
    return [(~(np.isfinite(lat) & np.isfinite(lon)),
             lambda i: f"non-finite geolocation ({lat[i]}, {lon[i]})"),
            (np.abs(lat) > 90.0, lambda i: f"latitude {lat[i]} outside [-90, 90]"),
            ((lon <= -180.0) | (lon > 180.0),
             lambda i: f"longitude {lon[i]} outside (-180, 180]")]


def coordinate_violation(lat: np.ndarray, lon: np.ndarray) -> tuple[int, str] | None:
    """(position, reason) of the first pair not finite in [-90, 90] x (-180, 180], or None."""
    return _first_violation(_coordinate_rules(lat, lon))


def _row_violation(ids, lat, lon, fp, lf) -> tuple[int, str] | None:
    """The first row with a footprint outside FOOTPRINTS, a bad coordinate, a land
    fraction outside [0, 1] (NaN is absent) or an earlier row's id, or None."""
    first = np.zeros(ids.size, dtype=bool)
    first[np.unique(ids, return_index=True)[1]] = True
    return _first_violation(
        [(~np.isin(fp, FOOTPRINTS),
          lambda i: f"footprint {fp[i]} outside {FOOTPRINTS[0]}..{FOOTPRINTS[-1]}")]
        + _coordinate_rules(lat, lon)
        + [((lf < 0.0) | (lf > 1.0), lambda i: f"land_fraction {lf[i]} outside [0, 1]"),
           (~first, lambda i: f"duplicate sounding id {ids[i]}")])


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


class SpectralDataset:
    """An immutable, orbit-ordered table of soundings over a shared grid.

    Six read-only columns: ``ids`` (int64), ``latitudes``, ``longitudes``,
    ``footprints`` (int64), ``land_fractions`` (NaN where absent) and the
    N x W ``radiance`` matrix (NaN for a missing entry). The object is safe
    to share across threads. Columns are copies, but ``own`` keeps ``radiance``.
    """

    def __init__(self, ids, latitudes, longitudes, footprints, land_fractions,
                 radiance, metadata: dict | None = None, *, own: bool = False):
        ids = np.array(ids, dtype=np.int64)
        lat, lon, lf = (np.array(c, dtype=float)
                        for c in (latitudes, longitudes, land_fractions))
        fp = np.asarray(footprints)
        rad = np.array(radiance, dtype=float, copy=None if own else True)
        if (rad.ndim != 2 or rad.shape[1] < 1
                or any(c.shape != rad.shape[:1] for c in (ids, lat, lon, fp, lf))):
            raise DataError(f"need 1-D columns of one length N and an N x W radiance "
                            f"matrix, W >= 1; got {ids.size} ids and radiance of shape "
                            f"{rad.shape}")
        bad = _row_violation(ids, lat, lon, fp, lf)
        if bad is not None:
            raise DataError(f"sounding {ids[bad[0]]}: {bad[1]}")
        self.ids, self.latitudes, self.longitudes = ids, lat, lon
        self.footprints, self.land_fractions, self.radiance = fp.astype(np.int64), lf, rad
        for column in (self.ids, lat, lon, self.footprints, lf, rad):
            column.flags.writeable = False
        self.metadata = dict(metadata or {})

    def __len__(self) -> int:
        return self.ids.size

    @property
    def grid_length(self) -> int:
        return self.radiance.shape[1]

    def footprints_present(self) -> list[int]:
        return sorted(set(self.footprints.tolist()))

    def index_of(self, sounding_id: int) -> int:
        at = np.flatnonzero(self.ids == sounding_id)
        if at.size == 0:
            raise DataError(f"sounding id {sounding_id} not in dataset")
        return int(at[0])

    def get(self, sounding_id: int) -> Sounding:
        i = self.index_of(sounding_id)
        lf = float(self.land_fractions[i])
        return Sounding(int(self.ids[i]), float(self.latitudes[i]),
                        float(self.longitudes[i]), int(self.footprints[i]),
                        None if math.isnan(lf) else lf, self.radiance[i])

    def subset(self, indices: Iterable[int]) -> "SpectralDataset":
        """The rows at the given positions, in the given order."""
        idx = np.asarray(indices, dtype=np.intp)
        return SpectralDataset(self.ids[idx], self.latitudes[idx], self.longitudes[idx],
                               self.footprints[idx], self.land_fractions[idx],
                               self.radiance[idx], self.metadata, own=True)


def haversine_km(lat1, lon1, lat2, lon2):
    """Vectorized haversine distance in km (inputs in degrees).

    The two sides broadcast into a new result, with one scratch array of the
    same shape. The formula's operations run in place, in its order, so the
    distances equal the textbook expression's.
    """
    lat1, lon1, lat2, lon2 = (np.radians(x, dtype=float) for x in (lat1, lon1, lat2, lon2))
    shape = np.broadcast_shapes(*(np.shape(x) for x in (lat1, lon1, lat2, lon2)))
    d = np.subtract(lon2, lon1, out=np.empty(shape))
    d *= 0.5  # exactly / 2
    np.sin(d, out=d)
    d *= d
    a = np.multiply(np.cos(lat1), np.cos(lat2), out=np.empty(shape))
    d *= a
    np.subtract(lat2, lat1, out=a)
    a *= 0.5
    np.sin(a, out=a)
    a *= a
    d += a
    np.sqrt(d, out=d)
    np.minimum(d, 1.0, out=d)
    np.arcsin(d, out=d)
    d *= 2.0 * EARTH_RADIUS_KM
    return d if d.ndim else d[()]


def distance_blocks(lat: np.ndarray, lon: np.ndarray, upper: bool = False
                    ) -> Iterator[tuple[int, np.ndarray]]:
    """(start, block) for each DISTANCE_BLOCK rows of the haversine distance matrix.

    A block is :func:`haversine_km` of its rows against every point, or with
    ``upper`` against points start.. only, so it equals those entries of the
    whole-matrix evaluation. Each block is a new array, which the caller may
    keep or write into.
    """
    for start in range(0, len(lat), DISTANCE_BLOCK):
        rows, cols = slice(start, start + DISTANCE_BLOCK), slice(start if upper else 0, None)
        yield start, haversine_km(lat[rows, None], lon[rows, None],
                                  lat[None, cols], lon[None, cols])


def pairwise_distances(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Symmetric matrix of haversine distances in km.

    Evaluates the upper triangle by row blocks and mirrors it: the haversine
    is exactly symmetric in its two points, so the matrix equals the full
    n x n evaluation bit for bit.
    """
    n = lat.size
    d = np.empty((n, n))
    for start, block in distance_blocks(lat, lon, upper=True):
        d[start:start + DISTANCE_BLOCK, start:] = block
        d[start:, start:start + DISTANCE_BLOCK] = block.T
    return d


def select_region(ds: SpectralDataset, lat_range: tuple[float, float]) -> SpectralDataset:
    """Subset to soundings with latitude inside the closed window."""
    lo, hi = float(lat_range[0]), float(lat_range[1])
    if not lo < hi:
        raise DataError(f"invalid latitude window [{lo}, {hi}]")
    keep = np.flatnonzero((ds.latitudes >= lo) & (ds.latitudes <= hi))
    if keep.size == 0:
        raise DataError(f"no soundings in latitude window [{lo}, {hi}]")
    return ds.subset(keep)


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
    for p in set(fps.tolist()):
        sel = fps == p
        tracks[sel] = np.arange(np.count_nonzero(sel))
    return tracks


def held_tracks(t0: int, r: int) -> tuple[int, int]:
    """First and last of the ``r`` cross-tracks nearest to track ``t0``: (r-1)/2
    either side for odd ``r``, r/2 before and r/2-1 after for even ``r``."""
    lo = t0 - r // 2
    return lo, lo + r - 1


def remove_cross_tracks(ds: SpectralDataset, center: int, r: int
                        ) -> tuple[SpectralDataset, SpectralDataset]:
    """Split off the ``r`` cross-tracks nearest to the center sounding (``held_tracks``)."""
    if r not in BLOCK_SIZES:
        raise DataError(f"r {r} outside {BLOCK_SIZES[0]}..{BLOCK_SIZES[-1]}")
    tracks = track_numbers(ds)
    t0, n_tracks = int(tracks[ds.index_of(center)]), int(tracks.max()) + 1
    lo, hi = held_tracks(t0, r)
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


def _text_lines(fh, path: Path) -> Iterator[str]:
    """``str.splitlines`` of an open binary UTF-8 file's text, decoded a line at a time:
    each piece ends at a ``\\n`` byte, which always ends a line and is in no other character."""
    for raw in fh:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            at = fh.tell() - len(raw) + e.start
            raise DataError(f"{path}: not UTF-8 text (byte {at}: {e.reason})") from None
        yield from text.splitlines()


def load_dataset(path) -> SpectralDataset:
    """Load a dataset from CSV, with an optional JSON sidecar.

    Both files are UTF-8, with or without a BOM. The sidecar (``<path>.json``),
    if present, holds a JSON object that may declare an integer ``grid_length``,
    ``unit``, and ``orbit_id``; extra keys are kept as metadata. Empty cells and
    the literal ``NaN`` mark missing radiance; an infinite radiance is a data
    error. An empty ``land_fraction`` cell marks an absent land fraction (``NaN``
    there is an error). Ids are signed 64-bit integers. Duplicate (footprint,
    latitude) pairs keep the first row and emit a warning. Rows are parsed into
    the one N x W radiance array the dataset keeps; the first error in file order is named.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    metadata: dict = {}
    sidecar = Path(str(path) + ".json")
    if sidecar.exists():
        try:
            doc = json.loads(sidecar.read_text(encoding="utf-8-sig"))
        except ValueError as e:  # also UnicodeDecodeError
            raise DataError(f"{sidecar}: sidecar is not valid JSON ({e})") from None
        if not isinstance(doc, dict):
            raise DataError(f"{sidecar}: sidecar must hold a JSON object")
        metadata.update(doc)

    with open(path, "rb") as fh:
        rows = sum(1 for raw in fh for line in raw.decode("utf-8", "replace").splitlines()
                   if line.strip()) - 1  # data rows at most; a bad byte is named below
        fh.seek(0)
        lines = _text_lines(fh, path)
        header = next(lines, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        header = header.removeprefix("\ufeff").split(",")  # the BOM utf-8-sig drops
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

        radiance = np.empty((rows, width))
        ids, lats, lons, fps, lfs, line_nos = [], [], [], [], [], []
        seen_keys, error = set(), None
        try:
            for line_no, line in enumerate(lines, start=2):
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
                if not -2**63 <= sid < 2**63:
                    raise DataError(f"line {line_no}: id {cells[0]} outside the 64-bit "
                                    "integer range")
                lat = _parse_cell(cells[1], line_no, "latitude")
                lon = _parse_cell(cells[2], line_no, "longitude")
                try:
                    fp = int(cells[3])
                except ValueError:
                    raise DataError(f"line {line_no}: unparseable footprint "
                                    f"{cells[3]!r}") from None
                lf = math.nan if not cells[4] else _parse_cell(cells[4], line_no, "land_fraction")
                if cells[4] and math.isnan(lf):  # NaN marks absent, which only an empty cell says
                    raise DataError(f"line {line_no}: land_fraction {lf} outside [0, 1]")
                radiance[len(ids)] = _parse_radiance(cells[5:], line_no)  # reused if a duplicate
                key = (fp, lat)
                if key in seen_keys:
                    warnings.warn(
                        f"line {line_no}: duplicate (footprint, latitude) {key}; keeping first",
                        stacklevel=2,
                    )
                    continue
                seen_keys.add(key)
                for column, value in zip((ids, lats, lons, fps, lfs, line_nos),
                                         (sid, lat, lon, fp, lf, line_no)):
                    column.append(value)
        except DataError as e:  # named after any row rule that an earlier row breaks
            error = e
    bad = _row_violation(*(np.array(c) for c in (ids, lats, lons, fps, lfs)))
    if bad is not None:
        raise DataError(f"line {line_nos[bad[0]]}: {bad[1]}")
    if error is not None:
        raise error
    return SpectralDataset(ids, lats, lons, fps, lfs, radiance[:len(ids)], metadata, own=True)


def _fmt(x: float) -> str:
    # repr of a Python float is the shortest round-tripping decimal form,
    # which keeps save -> load -> save byte-identical.
    return repr(float(x))


def save_dataset(ds: SpectralDataset, path) -> None:
    """Write the dataset back to the CSV schema (NaN / absent as empty cells)."""
    path = Path(path)
    header = ",".join(_BASE_COLUMNS + tuple(f"w_{j}" for j in range(1, ds.grid_length + 1)))
    out = [header]
    columns = (ds.ids, ds.latitudes, ds.longitudes, ds.footprints, ds.land_fractions,
               ds.radiance)
    for sid, lat, lon, fp, lf, rad in zip(*(c.tolist() for c in columns)):
        cells = [str(sid), _fmt(lat), _fmt(lon), str(fp), "" if math.isnan(lf) else _fmt(lf)]
        cells.extend("" if math.isnan(v) else _fmt(v) for v in rad)
        out.append(",".join(cells))
    path.write_text("\n".join(out) + "\n")
