import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from geofpca.dataset import (GeoLocation, SpectralDataset, _parse_radiance,
                             common_wavelengths, haversine_km, load_dataset,
                             pairwise_distances, remove_cross_tracks, save_dataset,
                             select_region, track_numbers)
from geofpca.errors import DataError
from oracles import law_of_cosines_km, parse_radiance_cells


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

    def test_bad_footprint_names_row(self, tmp_path):
        path = write_csv(tmp_path, "\n".join([
            "id,latitude,longitude,footprint,land_fraction,w_1",
            "1,34.0,23.0,9,,5",
        ]) + "\n")
        with pytest.raises(DataError, match="line 2.*footprint 9"):
            load_dataset(path)

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
        return [s.radiance.view(np.uint64).tolist() for s in load_dataset(path).soundings]
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


@st.composite
def datasets(draw):
    """Small datasets: any finite values, missing cells and absent land fractions."""
    n = draw(st.integers(1, 8))
    width = draw(st.integers(1, 4))
    lats = draw(st.lists(st.floats(-90.0, 90.0), min_size=n, max_size=n, unique=True))
    lons = draw(st.lists(st.floats(-180.0, 180.0, exclude_min=True), min_size=n, max_size=n))
    footprints = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    fractions = draw(st.lists(st.none() | st.floats(0.0, 1.0), min_size=n, max_size=n))
    cell = st.floats(allow_infinity=False)  # NaN is a missing cell
    radiance = draw(st.lists(st.lists(cell, min_size=width, max_size=width),
                             min_size=n, max_size=n))
    return make_dataset(lats, footprints, radiance, lons=lons, land_fractions=fractions)


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_csv_save_load_save_is_byte_identical(ds):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.csv"), Path(tmp, "b.csv")
        save_dataset(ds, first)
        save_dataset(load_dataset(first), second)
        assert first.read_bytes() == second.read_bytes()


class TestDistance:
    def test_identity(self):
        p = GeoLocation(12.3, -45.6)
        assert haversine_km(p.latitude, p.longitude, p.latitude, p.longitude) == 0.0

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
        pts = [GeoLocation(lat, lon) for lat, lon in
               zip(rng.uniform(-60, 60, 30), rng.uniform(-170, 170, 30))]
        for a, b, c in zip(pts, pts[1:], pts[2:]):
            dab = haversine_km(a.latitude, a.longitude, b.latitude, b.longitude)
            dbc = haversine_km(b.latitude, b.longitude, c.latitude, c.longitude)
            dac = haversine_km(a.latitude, a.longitude, c.latitude, c.longitude)
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
        assert [s.id for s in sub.soundings] == [1, 2, 3]

    def test_window_covering_none(self):
        ds = make_dataset([33.0, 34.0], [1, 1], np.ones((2, 2)))
        with pytest.raises(DataError, match="no soundings"):
            select_region(ds, (50.0, 51.0))

    def test_filter_matches_oracle(self, rng):
        lats = np.sort(rng.uniform(33.0, 36.0, 60))
        ds = make_dataset(lats, np.ones(60, dtype=int), rng.normal(size=(60, 3)))
        sub = select_region(ds, (34.0, 34.5))
        expected = [int(i) + 1 for i in np.flatnonzero((lats >= 34.0) & (lats <= 34.5))]
        assert [s.id for s in sub.soundings] == expected

    def test_nested_windows_compose(self):
        ds = make_dataset(np.linspace(33, 36, 40), np.ones(40, dtype=int),
                          np.ones((40, 2)))
        once = select_region(ds, (34.2, 34.9))
        twice = select_region(select_region(ds, (34.0, 35.0)), (34.2, 34.9))
        assert [s.id for s in once.soundings] == [s.id for s in twice.soundings]


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
        interleaved = SpectralDataset([major.soundings[i] for i in order], 2)
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
        assert sorted(s.id for s in held.soundings) == [100 * p + 3 for p in range(1, 9)]
        assert len(train) == len(ds) - 8

    def test_remove_r3_symmetric(self):
        ds = orbit_dataset()
        _, held = remove_cross_tracks(ds, center=403, r=3)
        held_tracks = sorted(set(s.id % 100 for s in held.soundings))
        assert held_tracks == [2, 3, 4]

    def test_remove_r2_takes_one_before(self):
        ds = orbit_dataset()
        _, held = remove_cross_tracks(ds, center=403, r=2)
        held_tracks = sorted(set(s.id % 100 for s in held.soundings))
        assert held_tracks == [2, 3]

    def test_remove_r8_even_rule(self):
        ds = orbit_dataset(12)
        _, held = remove_cross_tracks(ds, center=405, r=8)
        held_tracks = sorted(set(s.id % 100 for s in held.soundings))
        assert held_tracks == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_partition_property(self, rng):
        ds = orbit_dataset(10)
        for r in range(1, 9):
            train, held = remove_cross_tracks(ds, center=404, r=r)
            train_ids = {s.id for s in train.soundings}
            held_ids = {s.id for s in held.soundings}
            assert not train_ids & held_ids
            assert train_ids | held_ids == {s.id for s in ds.soundings}
            assert len(held_ids) <= 8 * r

    def test_insufficient_tracks(self):
        ds = orbit_dataset(4)
        with pytest.raises(DataError, match="not enough cross-tracks"):
            remove_cross_tracks(ds, center=400, r=3)


class TestValidation:
    def test_latitude_bounds(self):
        with pytest.raises(DataError):
            GeoLocation(91.0, 0.0)
        with pytest.raises(DataError):
            GeoLocation(0.0, -180.0)

    def test_unique_ids(self):
        with pytest.raises(DataError, match="duplicate sounding id"):
            make_dataset([34.0, 34.1], [1, 1], np.ones((2, 2)), ids=[7, 7])

    def test_radiance_immutable(self):
        ds = make_dataset([34.0], [1], np.ones((1, 2)))
        with pytest.raises(ValueError):
            ds.get(1).radiance[0] = 3.0
