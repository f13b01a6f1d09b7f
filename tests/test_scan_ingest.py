import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rssinav.errors import ToolkitError
from rssinav.scan_ingest import (
    RSSI_FLOOR,
    BadSignalUnit,
    DuplicateMac,
    EmptyDataset,
    FingerprintDataset,
    MalformedCell,
    MixedLocations,
    ScanEntry,
    ScanSnapshot,
    SchemaMismatch,
    UnlabeledSnapshot,
    aggregate_resamples,
    build_dataset,
    filter_by_ssid,
    parse_scan_text,
    read_csv,
    read_scan_directory,
    write_csv,
)

ONE_CELL = (
    "Cell 01 - Address: AA:BB:CC:DD:EE:FF\n"
    '          ESSID:"CSU Net"\n'
    "          Signal level=-61 dBm\n"
)

TWO_CELLS = (
    "Cell 01 - Address: AA:BB:CC:DD:EE:FF\n"
    '          ESSID:"CSU Net"\n'
    "          Quality=50/70  Signal level=-61 dBm\n"
    "Cell 02 - Address: 11:22:33:44:55:66\n"
    "          Quality=38/70\n"
    '          ESSID:"CSU Visitor"\n'
    "          Signal level=-72 dBm\n"
)

CELL_A = "Cell 01 - Address: AA:BB:CC:DD:EE:FF\n"
CELL_B = "Cell 02 - Address: 11:22:33:44:55:66\n"
ENTRY_A = ScanEntry("AA:BB:CC:DD:EE:FF", "CSU Net", -61)


class TestParse:
    def test_empty_input(self):
        assert parse_scan_text("") == []

    def test_one_cell_fixture(self):
        assert parse_scan_text(ONE_CELL) == [ScanEntry("AA:BB:CC:DD:EE:FF", "CSU Net", -61)]

    def test_two_cells_with_interleaved_junk_keep_document_order(self):
        entries = parse_scan_text(TWO_CELLS)
        assert [e.mac for e in entries] == ["AA:BB:CC:DD:EE:FF", "11:22:33:44:55:66"]
        assert [e.rssi for e in entries] == [-61, -72]
        assert [e.ssid for e in entries] == ["CSU Net", "CSU Visitor"]

    def test_lowercase_mac_is_canonicalized(self):
        for _ in range(3):  # the MAC check is memoized: repeats take the same path
            entries = parse_scan_text(ONE_CELL.replace("AA:BB", "aa:bb"))
            assert entries[0].mac == "AA:BB:CC:DD:EE:FF"

    @pytest.mark.parametrize(
        "mac", ["aa:bb:cc:dd:ee:ff", "Aa:BB:CC:DD:EE:FF", "02:00:00:00:00:0G", "02-00-00-00-00-01", "02:00:00:00:00", ""]
    )
    def test_non_canonical_mac_fails_on_every_call(self, mac):
        for _ in range(3):
            with pytest.raises(ValueError, match=re.escape(f"not a canonical MAC address: {mac!r}")):
                ScanEntry(mac, "CSU Net", -61)
        if mac.upper() != mac:
            return  # the parser upper-cases a header's address before checking it
        text = ONE_CELL.replace("AA:BB:CC:DD:EE:FF", mac or "-")
        for _ in range(3):
            with pytest.raises(MalformedCell, match=re.escape(f"cell 01 has a malformed address {mac or '-'!r}")):
                parse_scan_text(text)

    def test_preamble_lines_are_skipped(self):
        assert parse_scan_text("wlan0     Scan completed :\n" + ONE_CELL)[0].rssi == -61

    def test_missing_essid_rejected(self):
        text = "Cell 01 - Address: AA:BB:CC:DD:EE:FF\nSignal level=-61 dBm\n"
        with pytest.raises(MalformedCell):
            parse_scan_text(text)

    def test_missing_signal_rejected(self):
        text = 'Cell 01 - Address: AA:BB:CC:DD:EE:FF\nESSID:"CSU Net"\n'
        with pytest.raises(MalformedCell):
            parse_scan_text(text)

    def test_malformed_address_rejected(self):
        with pytest.raises(MalformedCell):
            parse_scan_text('Cell 01 - Address: NOT_A_MAC\nESSID:"x"\nSignal level=-61 dBm\n')

    def test_positive_rssi_rejected(self):
        for level in ("5", "-99999999999999999999999"):  # the second is beyond int64 and the RSSI floor
            with pytest.raises(MalformedCell):
                parse_scan_text(ONE_CELL.replace("-61", level))

    def test_rssi_floor_is_inclusive(self):
        assert parse_scan_text(ONE_CELL.replace("-61", str(RSSI_FLOOR)))[0].rssi == RSSI_FLOOR
        with pytest.raises(MalformedCell, match="RSSI must be in"):
            parse_scan_text(ONE_CELL.replace("-61", str(RSSI_FLOOR - 1)))

    def test_duplicate_mac_rejected(self):
        with pytest.raises(DuplicateMac):
            parse_scan_text(ONE_CELL + ONE_CELL)

    def test_signal_not_in_dbm_rejected(self):
        with pytest.raises(BadSignalUnit):
            parse_scan_text(ONE_CELL.replace("-61 dBm", "70/100"))
        with pytest.raises(BadSignalUnit):
            parse_scan_text(ONE_CELL.replace("-61 dBm", "-61 mW"))

    @pytest.mark.parametrize(
        "text, expected",
        [
            (CELL_A + "Quality=50/70  Signal level=-61 dBm\nEncryption key:on\n" + 'ESSID:"CSU Net"\n', [ENTRY_A]),
            (CELL_A + 'ESSID:"CSU Net"\nESSID:"Other"\n' + 'ESSID:"Other"  Signal level=-61 dBm\n', [ENTRY_A]),
            (CELL_A + "Signal level=-61 dBm\n" + CELL_B + 'ESSID:"x"\nSignal level=-61 mW\n', MalformedCell("cell 01 is missing its ESSID line")),
            (ONE_CELL + ONE_CELL + "Cell 03 - Address: NOT_A_MAC\n", DuplicateMac("MAC AA:BB:CC:DD:EE:FF appears twice in one scan")),
            ("wlan0     Signal level=-61 mW\n" + ONE_CELL, [ENTRY_A]),
            (ONE_CELL.replace("\n", "\r\n"), [ENTRY_A]),
            (ONE_CELL.replace("\n", "\r"), [ENTRY_A]),
            (ONE_CELL.replace("\n", "\u2028"), [ENTRY_A]),
            (CELL_B + 'ESSID:"x"\nSignal level=-61 dBm\n' + ONE_CELL.replace("-61", "-" + "9" * 5000), MalformedCell("cell 01 has a signal level of 5000 digits")),
        ],
        ids=["signal-before-essid", "second-essid", "first-fault-missing-essid", "first-fault-duplicate", "preamble-mw", "crlf", "cr", "u2028",
             "signal-too-long-for-int"],
    )
    def test_cell_block_semantics(self, text, expected):
        if isinstance(expected, Exception):
            with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
                parse_scan_text(text)
        else:
            assert parse_scan_text(text) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=400))
    def test_parser_totality(self, text):
        # any input either parses or raises a typed error, never crashes
        try:
            entries = parse_scan_text(text)
        except ToolkitError:
            return
        assert isinstance(entries, list)


class TestFilter:
    def test_allowlist_keeps_campus_networks_only(self):
        entries = [
            ScanEntry("AA:BB:CC:DD:EE:01", "CSU Net", -61),
            ScanEntry("AA:BB:CC:DD:EE:02", "HotspotX", -40),
        ]
        kept = filter_by_ssid(entries, {"CSU Net", "CSU Visitor"})
        assert kept == [entries[0]]

    def test_empty_allowlist_drops_everything(self):
        entries = parse_scan_text(TWO_CELLS)
        assert filter_by_ssid(entries, set()) == []

    def test_full_allowlist_is_identity(self):
        entries = parse_scan_text(TWO_CELLS)
        assert filter_by_ssid(entries, {e.ssid for e in entries}) == entries


def snap(mac_rssi, location=(0.0, 0.0), ssid="Net"):
    return ScanSnapshot(tuple(ScanEntry(m, ssid, r) for m, r in mac_rssi), location)


MAC_A = "AA:00:00:00:00:01"
MAC_B = "AA:00:00:00:00:02"


class TestAggregate:
    def test_median_of_three(self):
        merged = aggregate_resamples([snap([(MAC_A, -60)]), snap([(MAC_A, -61)]), snap([(MAC_A, -62)])])
        assert merged.rssi_by_mac() == {MAC_A: -61}

    def test_lower_middle_for_even_counts(self):
        merged = aggregate_resamples([snap([(MAC_A, -60)]), snap([(MAC_A, -61)])])
        assert merged.rssi_by_mac() == {MAC_A: -61}

    def test_ap_seen_once_is_included(self):
        merged = aggregate_resamples([snap([(MAC_A, -60), (MAC_B, -70)]), snap([(MAC_A, -62)]), snap([(MAC_A, -61)])])
        assert merged.rssi_by_mac() == {MAC_A: -61, MAC_B: -70}

    def test_idempotent_on_identical_snapshots(self):
        s = snap([(MAC_A, -55), (MAC_B, -66)], location=(1.0, 2.0))
        merged = aggregate_resamples([s, s, s])
        assert merged.rssi_by_mac() == s.rssi_by_mac()
        assert merged.location == s.location

    @settings(max_examples=50, deadline=None)
    @given(st.permutations([0, 1, 2]))
    def test_permutation_invariance(self, order):
        snaps = [snap([(MAC_A, -60)]), snap([(MAC_A, -64), (MAC_B, -70)]), snap([(MAC_A, -61)])]
        merged = aggregate_resamples([snaps[i] for i in order])
        assert merged.rssi_by_mac() == {MAC_A: -61, MAC_B: -70}

    def test_mixed_locations_rejected(self):
        with pytest.raises(MixedLocations):
            aggregate_resamples([snap([(MAC_A, -60)], (0, 0)), snap([(MAC_A, -61)], (1, 0))])

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyDataset):
            aggregate_resamples([])


class TestBuildDataset:
    def test_missing_ap_becomes_zero(self):
        samples = [snap([(MAC_A, -50)], (0, 0)), snap([(MAC_A, -52), (MAC_B, -70)], (1, 0))]
        ds = build_dataset(samples)
        assert ds.ap_columns == (MAC_A, MAC_B)
        assert ds.rssi[0].tolist() == [-50.0, 0.0]
        assert ds.rssi[1].tolist() == [-52.0, -70.0]

    def test_empty_sample_list(self):
        ds = build_dataset([])
        assert ds.ap_columns == () and ds.n_rows == 0

    def test_single_sample_row_matches_its_vector(self):
        ds = build_dataset([snap([(MAC_A, -44), (MAC_B, -55)], (3, 7))])
        assert ds.rssi[0].tolist() == [-44.0, -55.0]
        assert (ds.x[0], ds.y[0]) == (3.0, 7.0)

    def test_row_order_follows_input(self):
        samples = [snap([(MAC_A, -50)], (5, 5)), snap([(MAC_A, -60)], (1, 1))]
        ds = build_dataset(samples)
        assert ds.x.tolist() == [5.0, 1.0]

    def test_unlabeled_snapshot_rejected(self):
        with pytest.raises(UnlabeledSnapshot):
            build_dataset([ScanSnapshot((ScanEntry(MAC_A, "Net", -50),), None)])

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.dictionaries(st.sampled_from([MAC_A, MAC_B, "AA:00:00:00:00:03"]), st.integers(-100, 0), max_size=3),
                st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
            ),
            max_size=6,
        )
    )
    def test_invariants_hold_for_arbitrary_labeled_snapshots(self, raw):
        samples = [snap(sorted(readings.items()), (float(x), float(y))) for readings, (x, y) in raw]
        ds = build_dataset(samples)
        assert len(set(ds.ap_columns)) == len(ds.ap_columns)
        assert ds.ap_columns == tuple(sorted(ds.ap_columns))
        assert ds.rssi.shape == (len(samples), len(ds.ap_columns))
        for i, sample in enumerate(samples):
            observed = sample.rssi_by_mac()
            for j, mac in enumerate(ds.ap_columns):
                assert ds.rssi[i, j] == float(observed.get(mac, 0.0))


MACS = st.integers(0, 2**48 - 1).map(lambda v: ":".join(f"{(v >> (8 * i)) & 0xFF:02X}" for i in range(6)))


@st.composite
def datasets(draw):
    columns = draw(st.lists(MACS, min_size=0, max_size=5, unique=True))
    n_rows = draw(st.integers(0, 6))
    finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9)
    rssi = [[draw(finite) for _ in columns] for _ in range(n_rows)]
    xs = [draw(finite) for _ in range(n_rows)]
    ys = [draw(finite) for _ in range(n_rows)]
    return FingerprintDataset(tuple(columns), np.array(rssi).reshape(n_rows, len(columns)), np.array(xs), np.array(ys))


class TestCsv:
    def test_documented_layout(self):
        ds = read_csv(io.StringIO("AA:00:00:00:00:01,AA:00:00:00:00:02,x,y\n-50,0,3,7\n"))
        assert ds.ap_columns == (MAC_A, MAC_B)
        assert ds.rssi[0].tolist() == [-50.0, 0.0]
        assert (ds.x[0], ds.y[0]) == (3.0, 7.0)

    def test_mac_columns_are_upper_cased(self):
        ds = read_csv(io.StringIO("aa:00:00:00:00:01,Aa:00:00:00:00:02,x,y\n-50,0,3,7\n"))
        assert ds.ap_columns == (MAC_A, MAC_B)

    @pytest.mark.parametrize("cell", ["AP1", "", "AA:00:00:00:00", " AA:00:00:00:00:02", "\ufeffAA:00:00:00:00:02", "x", MAC_B + "\n"])
    def test_column_that_is_not_a_mac_rejected(self, cell):
        with pytest.raises(SchemaMismatch, match=f"^header column 2: {re.escape(repr(cell))} is not a MAC address$"):
            read_csv(io.StringIO(f'{MAC_A},"{cell}",x,y\n-50,0,3,7\n'))

    def test_columns_equal_once_upper_cased_rejected(self):
        with pytest.raises(SchemaMismatch, match="^duplicate MAC columns in header$"):
            read_csv(io.StringIO("aa:00:00:00:00:01,AA:00:00:00:00:01,x,y\n-50,0,3,7\n"))

    def test_header_without_y_rejected(self):
        with pytest.raises(SchemaMismatch):
            read_csv(io.StringIO("AA:00:00:00:00:01,x\n-50,3\n"))

    def test_ragged_row_rejected(self):
        with pytest.raises(SchemaMismatch, match="^line 2: expected 3 cells, got 2$"):
            read_csv(io.StringIO("AA:00:00:00:00:01,x,y\n-50,3\n"))

    def test_non_numeric_cell_rejected(self):
        with pytest.raises(SchemaMismatch):
            read_csv(io.StringIO("AA:00:00:00:00:01,x,y\nabc,3,7\n"))

    def test_empty_file_rejected(self):
        with pytest.raises(SchemaMismatch):
            read_csv(io.StringIO(""))

    @pytest.mark.parametrize("row", ["nan,3,7", "-50,inf,7", "-50,3,nan", "-inf,3,7", "-50,3,1e999"])
    def test_non_finite_cell_rejected_naming_its_line(self, row):
        with pytest.raises(SchemaMismatch, match="line 3: non-finite number"):
            read_csv(io.StringIO(f"AA:00:00:00:00:01,x,y\n-50,3,7\n{row}\n"))

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"AA:00:00:00:00:01,x,y\n-50,3,\xff7\n")
        with pytest.raises(SchemaMismatch):
            read_csv(path)

    @settings(max_examples=100, deadline=None)
    @given(datasets())
    def test_round_trip_is_bit_exact(self, ds):
        buf = io.StringIO()
        write_csv(ds, buf)
        assert read_csv(io.StringIO(buf.getvalue())) == ds


class TestScanDirectory:
    def test_labels_from_filenames_and_aggregation(self, tmp_path):
        for rep, level in enumerate((-60, -61, -62)):
            (tmp_path / f"2_3_{rep}.txt").write_text(ONE_CELL.replace("-61", str(level)))
        (tmp_path / f"4.5_0_0.txt").write_text(ONE_CELL)
        (tmp_path / "notes.md").write_text("ignored")
        snapshots, errors = read_scan_directory(tmp_path)
        assert not errors
        assert [s.location for s in snapshots] == [(2.0, 3.0), (4.5, 0.0)]
        assert snapshots[0].rssi_by_mac() == {"AA:BB:CC:DD:EE:FF": -61}

    def test_ssid_allowlist_applies_before_aggregation(self, tmp_path):
        (tmp_path / "0_0_0.txt").write_text(TWO_CELLS)
        snapshots, _ = read_scan_directory(tmp_path, allowlist={"CSU Visitor"})
        assert snapshots[0].rssi_by_mac() == {"11:22:33:44:55:66": -72}

    def test_errors_are_collected_per_file(self, tmp_path):
        (tmp_path / "0_0_0.txt").write_text(ONE_CELL + ONE_CELL)  # duplicate MAC
        (tmp_path / "1_0_0.txt").write_text(ONE_CELL)
        snapshots, errors = read_scan_directory(tmp_path)
        assert len(errors) == 1 and errors[0][0].name == "0_0_0.txt"
        assert isinstance(errors[0][1], DuplicateMac)
        assert [s.location for s in snapshots] == [(1.0, 0.0)]

    def test_non_utf8_file_is_a_per_file_error(self, tmp_path):
        (tmp_path / "0_0_0.txt").write_bytes(ONE_CELL.replace("CSU Net", "CSU\xffNet").encode("latin-1"))  # a Latin-1 ESSID
        (tmp_path / "1_0_0.txt").write_text(ONE_CELL)
        snapshots, errors = read_scan_directory(tmp_path)
        assert len(errors) == 1 and errors[0][0].name == "0_0_0.txt"
        assert isinstance(errors[0][1], ToolkitError) and "not UTF-8" in str(errors[0][1])
        assert [s.location for s in snapshots] == [(1.0, 0.0)]
