import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from geofpca.dataset import (BLOCK_SIZES, SpectralDataset, _parse_radiance,
                             common_wavelengths, haversine_km, held_tracks, load_dataset,
                             pairwise_distances, remove_cross_tracks, save_dataset,
                             select_region, track_numbers)
from geofpca.errors import DataError
from geofpca.simulation import (OrbitConfig, SimulationConfig, simulate_mixed_transect,
                                simulate_orbit)
from oracles import (dataset_columns_by_row, law_of_cosines_km, load_dataset_whole_text,
                     parse_radiance_cells)


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoad:
    def test_three_rows_no_missing(self, tmp_path):
        path = write_csv(tmp_path, "\n".join([
            "id,latitude,longitude,footprint,land_fraction,w_1,w_2,w_3,w_4",
            "1,34.0,23.0,1,0.0,10,11,12,13",
            "2,34.1,23.0,2,0.5,20,21,22,23",
            "3,34.2,23.0,3,1.0,30,31,32,33",
        ]) + "\n")
        ds = load_dataset(path)
        assert len(ds) == 3 and ds.grid_length == 4
        assert ds.get(2).footprint == 2
        assert ds.get(3).radiance.tolist() == [30.0, 31.0, 32.0, 33.0]

    def test_empty_cell_is_missing(self, tmp_path):
        path = write_csv(tmp_path, "\n".join([
            "id,latitude,longitude,footprint,land_fraction,w_1,w_2",
            "1,34.0,23.0,1,,5,",
            "2,34.1,23.0,1,,NaN,7",
        ]) + "\n")
        ds = load_dataset(path)
        assert len(ds) == 2
        assert math.isnan(ds.get(1).radiance[1])
        assert math.isnan(ds.get(2).radiance[0])
        assert ds.get(1).land_fraction is None

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "1e400"])
    def test_infinite_radiance_names_line_and_column(self, tmp_path, cell):
        path = write_csv(tmp_path, "\n".join([
            "id,latitude,longitude,footprint,land_fraction,w_1,w_2",
            "1,34.0,23.0,1,,5,6",
            f"2,34.1,23.0,1,,5,{cell}",
        ]) + "\n")
        with pytest.raises(DataError, match="line 3: non-finite radiance w_2"):
            load_dataset(path)

    @pytest.mark.parametrize("row, message", [
        ("2,34.1,23.0,9,,5", "line 3: footprint 9 outside 1..8"),
        ("2,34.1,23.0,1,NaN,5", "line 3: land_fraction nan outside [0, 1]"),
        ("2,34.1,23.0,1,1.5,5", "line 3: land_fraction 1.5 outside [0, 1]"),
        ("2,91,23.0,1,,5", "line 3: latitude 91.0 outside [-90, 90]"),
        ("2,34.1,-180,1,,5", "line 3: longitude -180.0 outside (-180, 180]"),
        ("2,34.1,nan,1,,5", "line 3: non-finite geolocation (34.1, nan)"),
        (f"{2**63},34.1,23.0,1,,5", f"line 3: id {2**63} outside the 64-bit integer range"),
        ("1,34.1,23.0,1,,5", "line 3: duplicate sounding id 1"),
    ], ids=["footprint-9", "land-fraction-nan", "land-fraction-1.5", "latitude-91",
            "longitude-minus-180", "longitude-nan", "id-2**63", "duplicate-id"])
    def test_bad_row_names_its_line(self, tmp_path, row, message):
        path = write_csv(tmp_path, "\n".join([
            "id,latitude,longitude,footprint,land_fraction,w_1",
            "1,34.0,23.0,1,0.5,5", row, "3,34.2,23.0,0,,5",
        ]) + "\n")
        with pytest.raises(DataError) as err:
            load_dataset(path)
        assert str(err.value) == message

    def test_ids_are_int64_at_the_range_ends(self, tmp_path):
        path = write_csv(tmp_path, "\n".join([
            "id,latitude,longitude,footprint,land_fraction,w_1",
            f"{-2**63},34.0,23.0,1,,5", f"{2**63 - 1},34.1,23.0,1,,6",
        ]) + "\n")
        ds = load_dataset(path)
        assert ds.ids.dtype == np.int64 and ds.ids.tolist() == [-2**63, 2**63 - 1]

    def test_non_rectangular_row(self, tmp_path):
        path = write_csv(tmp_path, "\n".join([
            "id,latitude,longitude,footprint,land_fraction,w_1,w_2",
            "1,34.0,23.0,1,,5,6",
            "2,34.1,23.0,1,,5",
        ]) + "\n")
        with pytest.raises(DataError, match="line 3"):
            load_dataset(path)

    def test_bad_header(self, tmp_path):
        path = write_csv(tmp_path, "id,lat,lon,footprint,land_fraction,w_1\n1,1,1,1,,2\n")
        with pytest.raises(DataError, match="header"):
            load_dataset(path)

    def test_sidecar(self, tmp_path):
        path = write_csv(tmp_path, "\n".join([
            "id,latitude,longitude,footprint,land_fraction,w_1,w_2",
            "1,34.0,23.0,1,,5,6",
        ]) + "\n")
        (tmp_path / "data.csv.json").write_text(
            '{"grid_length": 2, "unit": "1e19 photons/m^2/sr/um", "orbit_id": 10575}')
        ds = load_dataset(path)
        assert ds.metadata["orbit_id"] == 10575

    def test_sidecar_with_bom(self, tmp_path):
        path = write_csv(tmp_path, "id,latitude,longitude,footprint,land_fraction,w_1\n"
                                   "1,34.0,23.0,1,,5\n")
        (tmp_path / "data.csv.json").write_bytes(b'\xef\xbb\xbf{"grid_length": 1}')
        assert load_dataset(path).metadata == {"grid_length": 1}

    def test_sidecar_grid_mismatch(self, tmp_path):
        path = write_csv(tmp_path, "\n".join([
            "id,latitude,longitude,footprint,land_fraction,w_1,w_2",
            "1,34.0,23.0,1,,5,6",
        ]) + "\n")
        (tmp_path / "data.csv.json").write_text('{"grid_length": 5}')
        with pytest.raises(DataError, match="grid_length"):
            load_dataset(path)

    def test_duplicate_footprint_latitude_keeps_first(self, tmp_path):
        path = write_csv(tmp_path, "\n".join([
            "id,latitude,longitude,footprint,land_fraction,w_1",
            "1,34.0,23.0,1,,5",
            "2,34.0,23.1,1,,6",
        ]) + "\n")
        with pytest.warns(UserWarning, match="duplicate"):
            ds = load_dataset(path)
        assert len(ds) == 1 and ds.get(1).radiance[0] == 5.0

    def test_round_trip_is_byte_identical(self, tmp_path, rng):
        rad = rng.normal(50.0, 3.0, (6, 5))
        rad[2, 3] = np.nan
        ds = make_dataset(34.0 + 0.01 * np.arange(6), [1, 2, 3, 1, 2, 3], rad,
                          land_fractions=[0.0, None, 1.0, 0.25, None, 0.75])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(ds, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


RADIANCE_CELLS = ["", "NaN", " nan ", "-nan", "5e-324", "  ", "abc", "inf", "-Infinity",
                  "1e400"]
BASE = "id,latitude,longitude,footprint,land_fraction,w_1,w_2,w_3"


def oracle_outcome(cells, line_no):
    """The per-cell reader's radiance bits, or its error text."""
    try:
        return parse_radiance_cells(cells, line_no).view(np.uint64).tolist()
    except DataError as e:
        return str(e)


def load_outcome(path):
    try:
        return load_dataset(path).radiance.view(np.uint64).tolist()
    except DataError as e:
        return str(e)


class TestRadianceMatchesCellOracle:
    """The one-pass row parse loads the per-cell reader's bits or raises its error."""

    @pytest.mark.parametrize("cell", RADIANCE_CELLS)
    def test_cell(self, tmp_path, cell):
        good, row = ["5", "6", "7"], ["5", cell, "7"]
        lines = [BASE, "1,34.0,23.0,1,," + ",".join(good),
                 "2,34.1,23.0,1,," + ",".join(row)]
        expected = oracle_outcome(row, 3)
        loaded = load_outcome(write_csv(tmp_path, "\n".join(lines) + "\n"))
        if isinstance(expected, str):
            assert loaded == expected
        else:
            assert loaded == [oracle_outcome(good, 2), expected]
        # A later bad line: the first bad line is the one named.
        bad = ["abc", "inf", "8"]
        lines.append("3,34.2,23.0,1,," + ",".join(bad))
        loaded = load_outcome(write_csv(tmp_path, "\n".join(lines) + "\n", "later.csv"))
        assert loaded == (expected if isinstance(expected, str) else oracle_outcome(bad, 4))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(RADIANCE_CELLS) | st.floats().map(repr)
                    | st.text("0123456789.eE+-_ nafiINFty", max_size=6),
                    min_size=1, max_size=4))
    def test_any_row(self, cells):
        try:
            loaded = _parse_radiance(cells, 7).view(np.uint64).tolist()
        except DataError as e:
            loaded = str(e)
        assert loaded == oracle_outcome(cells, 7)


HEADER = "id,latitude,longitude,footprint,land_fraction,w_1,w_2,w_3"
ROWS = ["1,34.0,23.0,1,0.5,10,11,12", "2,34.1,23.0,2,,20,,22", "3,34.2,23.1,3,1.0,NaN,31,32",
        "4,34.3,23.1,4,0.0,40,41,42"]
FAR = 100_000  # bytes of good rows before a late bad byte


def csv_bytes(rows, sep="\n", end="\n", header=HEADER) -> bytes:
    return (sep.join([header, *rows]) + end).encode("utf-8")


def late_rows(n_bytes):
    """Good rows, one per footprint in turn, filling at least ``n_bytes``."""
    rows, size, i = [], 0, 0
    while size < n_bytes:
        rows.append(f"{i + 10},{30.0 + 1e-4 * i!r},23.0,{i % 8 + 1},,1.5,2.5,3.5")
        size += len(rows[-1]) + 1
        i += 1
    return rows


LOADER_CASES = {
    "lf": csv_bytes(ROWS),
    "crlf": csv_bytes(ROWS, "\r\n", "\r\n"),
    "lone-cr": csv_bytes(ROWS, "\r", "\r"),
    "mixed-separators": csv_bytes(ROWS, "\r\n", "\r") + b"\n\r5,34.4,23.0,5,,1,2,3\r\n",
    "no-final-newline": csv_bytes(ROWS, end=""),
    "blank-lines": csv_bytes(["", ROWS[0], "  ", "", *ROWS[1:], ""], end="\n\n"),
    **{f"separator-{ord(c):x}-as-blank-line": csv_bytes([ROWS[0], c, *ROWS[1:], "x"])
       for c in "\x0c\x1c\x85\u2028"},
    **{f"separator-{ord(c):x}-in-row": csv_bytes([ROWS[0], ROWS[1] + c + "5", *ROWS[2:]])
       for c in "\x0c\x1c\x85\u2028"},
    "separator-in-header": csv_bytes(ROWS, header=HEADER + "\x1c"),
    "duplicate-footprint-latitude": csv_bytes(
        [*ROWS, "5,34.1,23.2,2,,1,2,3", "6,34.0,23.2,1,,1,2,3"]),
    "empty-and-nan-cells": csv_bytes([*ROWS, "5,34.4,23.0,5,,,nan, NaN "]),
    "infinite-cell": csv_bytes([*ROWS, "5,34.4,23.0,5,,1,-inf,3"]),
    "wrong-field-count": csv_bytes([*ROWS, "5,34.4,23.0,5,,1,2"]),
    "bad-row-after-blank-separators": csv_bytes(
        [ROWS[0], "\x85\u2028", *ROWS[1:], "5,34.4,23.0,9,,1,2,3"]),
    "empty-file": b"",
    "only-newline": b"\n",
    "bad-byte-far-in": csv_bytes(late_rows(FAR)) + b"9999,1.0,2.0,1,,1,\xff,3\n",
    "bom-then-bad-byte-far-in": b"\xef\xbb\xbf" + csv_bytes(late_rows(FAR))
    + b"9999,1.0,2.0,1,,1,2\xe2\x82\n",
    "cut-multibyte-at-end": csv_bytes(ROWS) + b"5,34.4,23.0,5,,1,2,\xe2\x82",
}


def loader_outcome(load, path):
    """A loader's columns as bytes with its metadata and warnings, or its error text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ds = load(path)
        except DataError as e:
            return str(e)
    columns = [(c.dtype.str, c.shape, c.tobytes()) for c in (
        ds.ids, ds.latitudes, ds.longitudes, ds.footprints, ds.land_fractions, ds.radiance)]
    return columns, ds.metadata, [(w.category, str(w.message)) for w in caught]


class TestLoadMatchesWholeTextOracle:
    """Read a line at a time, the loader gives the whole-text loader's columns to the
    bit, its warnings and its error text: the same lines, numbered the same."""

    @pytest.mark.parametrize("case", LOADER_CASES)
    def test_case(self, tmp_path, case):
        path = tmp_path / "data.csv"
        path.write_bytes(LOADER_CASES[case])
        expected = loader_outcome(load_dataset_whole_text, path)
        assert loader_outcome(load_dataset, path) == expected

    def test_bad_byte_offset_counts_from_the_file_start(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(LOADER_CASES["bad-byte-far-in"])
        at = LOADER_CASES["bad-byte-far-in"].index(b"\xff")
        assert at > FAR
        with pytest.raises(DataError, match=rf"not UTF-8 text \(byte {at}: invalid start"):
            load_dataset(path)

    def test_first_error_in_file_order(self, tmp_path):
        """A bad row before a bad byte is the error reported, whether it fails to
        parse or breaks a row rule (the whole-text reader reported the bad byte,
        having decoded the file before reading any row)."""
        path = tmp_path / "data.csv"
        for row, error in (("5,34.4,23.0,5,,1,2", "^line 6: expected 8 fields, got 7 "),
                           ("5,34.4,23.0,9,,1,2,3", "^line 6: footprint 9 outside 1..8$")):
            path.write_bytes(csv_bytes([*ROWS, row]) + b"6,\xff\n")
            with pytest.raises(DataError, match=error):
                load_dataset(path)
            with pytest.raises(DataError, match="not UTF-8 text"):
                load_dataset_whole_text(path)


class TestMemoryPeaks:
    def test_load_dataset(self, tmp_path):
        """Loading reads a line at a time into one radiance array, which the
        dataset keeps. It holds neither the file text, nor its list of lines, nor
        a second copy of the radiance: the traced peak stays within 1.5x its bytes."""
        n, width = 1200, 120
        rng = np.random.default_rng(1200)
        path = tmp_path / "data.csv"
        save_dataset(make_dataset(30.0 + 1e-3 * np.arange(n), np.arange(n) % 8 + 1,
                                  rng.normal(50.0, 3.0, (n, width))), path)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ds = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.radiance.shape == (n, width)
        assert peak - base <= 1.5 * ds.radiance.nbytes


@st.composite
def datasets(draw):
    """Small datasets, with the rows they hold: any finite values, missing cells
    and absent land fractions."""
    n = draw(st.integers(1, 8))
    width = draw(st.integers(1, 4))
    lats = draw(st.lists(st.floats(-90.0, 90.0), min_size=n, max_size=n, unique=True))
    lons = draw(st.lists(st.floats(-180.0, 180.0, exclude_min=True), min_size=n, max_size=n))
    footprints = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    fractions = draw(st.lists(st.none() | st.floats(0.0, 1.0), min_size=n, max_size=n))
    cell = st.floats(allow_infinity=False)  # NaN is a missing cell
    radiance = draw(st.lists(st.lists(cell, min_size=width, max_size=width),
                             min_size=n, max_size=n))
    ds = make_dataset(lats, footprints, radiance, lons=lons, land_fractions=fractions)
    return ds, list(zip(range(1, n + 1), lats, lons, footprints, fractions, radiance))


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_csv_save_load_save_is_byte_identical(drawn):
    ds, _ = drawn
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.csv"), Path(tmp, "b.csv")
        save_dataset(ds, first)
        save_dataset(load_dataset(first), second)
        assert first.read_bytes() == second.read_bytes()


def assert_columns_match_rows(ds, rows):
    for name, expected in dataset_columns_by_row(rows, ds.grid_length).items():
        got = getattr(ds, name)
        assert got.dtype == expected.dtype and not got.flags.writeable
        assert got.shape == expected.shape
        assert ((got == expected) | (np.isnan(got) & np.isnan(expected))
                if got.dtype.kind == "f" else got == expected).all()


class TestColumnsMatchRowOracle:
    """Each column equals the one gathered row by row the way the per-row
    containers did, NaN (missing or absent) in the same places."""

    @settings(max_examples=60, deadline=None)
    @given(datasets())
    def test_drawn(self, drawn):
        assert_columns_match_rows(*drawn)

    def test_orbit(self):
        ds, truth = simulate_orbit(OrbitConfig(n_tracks=6, seed=3, grid_length=10))
        assert_columns_match_rows(ds, [
            (sid, s.latitude, s.longitude, s.footprint, None, s.radiance)
            for sid, s in zip(range(1, len(ds) + 1), map(ds.get, ds.ids))])
        assert np.isnan(ds.land_fractions).all()

    def test_mixed_transect(self):
        ds, truth = simulate_mixed_transect(SimulationConfig(n_sites=9, seed=4))
        fractions = {**dict.fromkeys(truth.water_ids, 0.0),
                     **dict.fromkeys(truth.land_ids, 1.0), truth.mixed_id: truth.alpha}
        assert_columns_match_rows(ds, [
            (sid, s.latitude, s.longitude, s.footprint, fractions[sid], s.radiance)
            for sid, s in zip(range(1, len(ds) + 1), map(ds.get, ds.ids))])


class TestDistance:
    def test_identity(self):
        assert haversine_km(12.3, -45.6, 12.3, -45.6) == 0.0

    def test_one_degree_meridian(self):
        d = haversine_km(0.0, 0.0, 1.0, 0.0)
        assert d == pytest.approx(111.1950, abs=1e-3)

    def test_matches_law_of_cosines(self, rng):
        for _ in range(50):
            lat1, lat2 = rng.uniform(-80, 80, 2)
            lon1, lon2 = rng.uniform(-179, 179, 2)
            ours = haversine_km(lat1, lon1, lat2, lon2)
            ref = law_of_cosines_km(lat1, lon1, lat2, lon2)
            assert ours == pytest.approx(ref, rel=1e-6, abs=1e-6)

    def test_triangle_inequality(self, rng):
        pts = list(zip(rng.uniform(-60, 60, 30), rng.uniform(-170, 170, 30)))
        for a, b, c in zip(pts, pts[1:], pts[2:]):
            dab = haversine_km(*a, *b)
            dbc = haversine_km(*b, *c)
            dac = haversine_km(*a, *c)
            assert dac <= dab + dbc + 1e-9

    def test_vectorized_matches_scalar(self):
        lats = np.array([0.0, 10.0])
        d = haversine_km(lats, np.zeros(2), lats + 1.0, np.ones(2))
        for i in range(2):
            ref = haversine_km(lats[i], 0.0, lats[i] + 1.0, 1.0)
            assert d[i] == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("n, span", [(0, 0.3), (1, 0.3), (50, 0.3), (63, 0.3),
                                         (64, 0.3), (65, 0.3), (264, 0.3), (1200, 0.3),
                                         (300, 60.0)])
    def test_pairwise_matches_full_evaluation(self, rng, n, span):
        # The upper triangle is mirrored, so the matrix must equal the full
        # n x n evaluation bit for bit, over a region and over the globe.
        lats = 20.0 + rng.uniform(-span, span, n)
        lons = 23.8 + rng.uniform(-2.0 * span, 2.0 * span, n)
        full = haversine_km(lats[:, None], lons[:, None], lats[None, :], lons[None, :])
        np.testing.assert_array_equal(pairwise_distances(lats, lons), full)


class TestSelectRegion:
    def test_window_covering_all(self):
        ds = make_dataset([33.0, 34.0, 35.0], [1, 1, 1], np.ones((3, 2)))
        sub = select_region(ds, (30.0, 40.0))
        assert sub.ids.tolist() == [1, 2, 3]

    def test_window_covering_none(self):
        ds = make_dataset([33.0, 34.0], [1, 1], np.ones((2, 2)))
        with pytest.raises(DataError, match="no soundings"):
            select_region(ds, (50.0, 51.0))

    def test_filter_matches_oracle(self, rng):
        lats = np.sort(rng.uniform(33.0, 36.0, 60))
        ds = make_dataset(lats, np.ones(60, dtype=int), rng.normal(size=(60, 3)))
        sub = select_region(ds, (34.0, 34.5))
        expected = [int(i) + 1 for i in np.flatnonzero((lats >= 34.0) & (lats <= 34.5))]
        assert sub.ids.tolist() == expected

    def test_nested_windows_compose(self):
        ds = make_dataset(np.linspace(33, 36, 40), np.ones(40, dtype=int),
                          np.ones((40, 2)))
        once = select_region(ds, (34.2, 34.9))
        twice = select_region(select_region(ds, (34.0, 35.0)), (34.2, 34.9))
        assert once.ids.tolist() == twice.ids.tolist()


class TestCommonWavelengths:
    def test_no_missingness_keeps_all(self):
        ds = make_dataset([34.0, 34.1, 34.2], [1, 1, 1], np.ones((3, 4)))
        assert common_wavelengths(ds).indices == (1, 2, 3, 4)

    def test_footprint_gap_excludes_index(self):
        rad = np.ones((6, 3))
        rad[4, 1] = np.nan
        rad[5, 1] = np.nan  # footprint 3 observes w_2 fewer than twice
        ds = make_dataset([34.0, 34.1, 34.2, 34.3, 34.4, 34.5],
                          [1, 1, 1, 1, 3, 3], rad)
        assert common_wavelengths(ds, min_coverage=0.5).indices == (1, 3)

    def test_matches_counting_oracle(self, rng):
        rad = rng.normal(size=(40, 12))
        rad[rng.uniform(size=rad.shape) < 0.10] = np.nan
        fps = np.where(np.arange(40) < 20, 1, 2)
        ds = make_dataset(34.0 + 0.01 * np.arange(40), fps, rad)
        got = common_wavelengths(ds, min_coverage=0.85).indices
        expected = []
        for j in range(12):
            col = rad[:, j]
            cov = np.mean(~np.isnan(col))
            per_fp = all(np.sum(~np.isnan(col[fps == p])) >= 2 for p in (1, 2))
            if cov >= 0.85 and per_fp:
                expected.append(j + 1)
        assert list(got) == expected


def orbit_dataset(n_tracks=8):
    """Footprint-major synthetic orbit: id layout makes tracks easy to read."""
    lats, fps, ids = [], [], []
    for p in range(1, 9):
        for t in range(n_tracks):
            lats.append(34.0 + 0.01 * t)
            fps.append(p)
            ids.append(100 * p + t)
    rad = np.ones((len(ids), 2))
    return make_dataset(lats, fps, rad, ids=ids)


class TestCrossTracks:
    def test_grouping(self):
        # Footprint-major rows, then the same soundings interleaved track by
        # track: each row's track number is its id's track digit either way.
        major = orbit_dataset()
        order = np.argsort(major.ids % 100, kind="stable")
        interleaved = major.subset(order)
        for ds in (major, interleaved):
            tracks = track_numbers(ds)
            assert tracks.dtype.kind == "i"
            assert (tracks == ds.ids % 100).all()
            assert sorted(ds.ids[tracks == 0]) == [100 * p for p in range(1, 9)]
            assert sorted(ds.ids[tracks == 5]) == [100 * p + 5 for p in range(1, 9)]
        assert track_numbers(major.subset([])).shape == (0,)

    def test_ragged_footprints(self):
        # Footprint 3 has one row fewer: its rows rank 0..2, the others 0..3.
        ds = make_dataset([34.0, 34.0, 34.1, 34.1, 34.2, 34.2, 34.3],
                          [1, 3, 1, 3, 1, 3, 1], np.ones((7, 1)))
        assert list(track_numbers(ds)) == [0, 0, 1, 1, 2, 2, 3]

    def test_remove_r1(self):
        ds = orbit_dataset()
        train, held = remove_cross_tracks(ds, center=403, r=1)
        assert sorted(held.ids.tolist()) == [100 * p + 3 for p in range(1, 9)]
        assert len(train) == len(ds) - 8

    def test_remove_r3_symmetric(self):
        ds = orbit_dataset()
        _, held = remove_cross_tracks(ds, center=403, r=3)
        held_tracks = sorted(set((held.ids % 100).tolist()))
        assert held_tracks == [2, 3, 4]

    def test_remove_r2_takes_one_before(self):
        ds = orbit_dataset()
        _, held = remove_cross_tracks(ds, center=403, r=2)
        held_tracks = sorted(set((held.ids % 100).tolist()))
        assert held_tracks == [2, 3]

    def test_remove_r8_even_rule(self):
        ds = orbit_dataset(12)
        _, held = remove_cross_tracks(ds, center=405, r=8)
        held_tracks = sorted(set((held.ids % 100).tolist()))
        assert held_tracks == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_partition_property(self, rng):
        ds = orbit_dataset(10)
        for r in range(1, 9):
            train, held = remove_cross_tracks(ds, center=404, r=r)
            train_ids, held_ids = set(train.ids.tolist()), set(held.ids.tolist())
            assert not train_ids & held_ids
            assert train_ids | held_ids == set(ds.ids.tolist())
            assert len(held_ids) <= 8 * r

    @pytest.mark.parametrize("r", BLOCK_SIZES)
    def test_held_tracks_is_the_odd_even_rule(self, r):
        """Odd r: (r-1)/2 tracks either side; even r: r/2 before the center, r/2-1 after."""
        t0 = 17
        if r % 2 == 1:
            expected = (t0 - (r - 1) // 2, t0 + (r - 1) // 2)
        else:
            expected = (t0 - r // 2, t0 + r // 2 - 1)
        assert held_tracks(t0, r) == expected
        assert expected[1] - expected[0] + 1 == r

    def test_block_sizes_are_one_to_eight(self):
        assert list(BLOCK_SIZES) == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_insufficient_tracks(self):
        ds = orbit_dataset(4)
        with pytest.raises(DataError, match="not enough cross-tracks"):
            remove_cross_tracks(ds, center=400, r=3)


class TestValidation:
    @pytest.mark.parametrize("column, value, message", [
        ("footprints", 0, "sounding 12: footprint 0 outside 1..8"),
        ("footprints", 4.5, "sounding 12: footprint 4.5 outside 1..8"),
        ("latitudes", 91.0, "sounding 12: latitude 91.0 outside [-90, 90]"),
        ("latitudes", -90.5, "sounding 12: latitude -90.5 outside [-90, 90]"),
        ("longitudes", -180.0, "sounding 12: longitude -180.0 outside (-180, 180]"),
        ("longitudes", math.inf, "sounding 12: non-finite geolocation (34.1, inf)"),
        ("land_fractions", -0.25, "sounding 12: land_fraction -0.25 outside [0, 1]"),
        ("ids", 11, "sounding 11: duplicate sounding id 11"),
    ], ids=["footprint-0", "footprint-4.5", "latitude-91", "latitude-minus-90.5",
            "longitude-minus-180", "longitude-inf", "land-fraction-minus-0.25",
            "duplicate-id"])
    def test_constructor_names_first_bad_sounding(self, column, value, message):
        columns = {"ids": [11, 12, 13], "latitudes": [34.0, 34.1, 34.2],
                   "longitudes": [23.8, 23.8, 180.0], "footprints": [1, 2, 8],
                   "land_fractions": [0.0, np.nan, 1.0], "radiance": np.ones((3, 2))}
        SpectralDataset(**columns)
        columns[column] = [columns[column][0], value, columns["ids"][2]
                           if column == "ids" else -1000]
        with pytest.raises(DataError) as err:
            SpectralDataset(**columns)
        assert str(err.value) == message

    @pytest.mark.parametrize("latitudes, radiance", [
        ([34.0] * 3, np.ones(3)), ([34.0] * 3, np.ones((2, 2))),
        ([34.0] * 3, np.ones((3, 0))), ([34.0] * 2, np.ones((3, 2)))])
    def test_columns_and_radiance_rows_share_one_length(self, latitudes, radiance):
        with pytest.raises(DataError, match="radiance of shape"):
            SpectralDataset([1, 2, 3], latitudes, [23.8] * 3, [1] * 3, [np.nan] * 3,
                            radiance)

    def test_unique_ids(self):
        with pytest.raises(DataError, match="duplicate sounding id"):
            make_dataset([34.0, 34.1], [1, 1], np.ones((2, 2)), ids=[7, 7])

    def test_radiance_immutable(self):
        ds = make_dataset([34.0], [1], np.ones((1, 2)))
        with pytest.raises(ValueError):
            ds.get(1).radiance[0] = 3.0
