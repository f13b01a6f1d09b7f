"""Wireless-scan ingestion: parse scan-tool text into RSSI observations and
assemble location-labelled fingerprint datasets.

Scan text grammar (the canonical subset of what command-line wireless scan
tools print): an access-point block starts at a line of the form
``Cell <n> - Address: <MAC>``; inside the block a line ``ESSID:"<name>"``
carries the network name and a line containing ``Signal level=<int> dBm``
carries the RSSI.  Every other line is ignored.

Datasets are row-per-location matrices of RSSI values keyed by AP MAC
address, with the ground-truth ``x``/``y`` coordinates (feet) as the final
two columns.  Access points that were not observed at a location hold the
sentinel value 0 (note: 0 dBm is "stronger" than any real reading, so
downstream feature selection has to cope with the sentinel).
"""

from __future__ import annotations

import csv
import io
import itertools
import re
import statistics
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import EmptyDataset, InvalidParameter, ToolkitError
from .fileio import finite_floats, format_number, read_text, write_rows


class MalformedCell(ToolkitError):
    """A scan cell is missing a required field or carries an invalid value."""


class DuplicateMac(ToolkitError):
    """The same MAC address appears twice within a single scan."""


class BadSignalUnit(ToolkitError):
    """A signal level is not expressed in dBm."""


class MixedLocations(ToolkitError):
    """Snapshots to aggregate carry different location labels."""


class UnlabeledSnapshot(ToolkitError):
    """A snapshot without a location label cannot become a dataset row."""


class SchemaMismatch(ToolkitError):
    """A dataset CSV violates the expected column layout or value ranges."""


MISSING_RSSI = 0.0
RSSI_FLOOR = -255  # dBm; the weakest level a scan entry may carry

_MAC_RE = re.compile(r"^([0-9A-F]{2}:){5}[0-9A-F]{2}\Z")
_CELL_RE = re.compile(r"^\s*Cell\s+(\d+)\s+-\s+Address:\s*(\S+)\s*$")
_ESSID_RE = re.compile(r'ESSID:"([^"]*)"')
_SIGNAL_RE = re.compile(r"Signal level\s*=\s*(-?\d+)\s*(\S*)")
_SCAN_FILE_RE = re.compile(r"^(-?[0-9](?:[0-9.]*))_(-?[0-9](?:[0-9.]*))_(\d+)\.txt$")


@lru_cache(maxsize=4096)
def _canonical_mac(mac: str) -> bool:
    """Whether ``mac`` is six upper-case hex pairs joined by colons; memoized, as scans repeat MACs."""
    return _MAC_RE.match(mac) is not None


@dataclass(frozen=True, slots=True)  # no per-instance __dict__: the parser's entry memo and every snapshot hold many
class ScanEntry:
    """One access point's observation: MAC, network name, RSSI in dBm."""

    mac: str
    ssid: str
    rssi: int

    def __post_init__(self) -> None:
        if not _canonical_mac(self.mac):
            raise InvalidParameter(f"not a canonical MAC address: {self.mac!r}")
        if not RSSI_FLOOR <= self.rssi <= 0:
            raise InvalidParameter(f"RSSI must be in [{RSSI_FLOOR}, 0] dBm, got {self.rssi}")


@dataclass(frozen=True)
class ScanSnapshot:
    """One location's set of AP observations, optionally labelled (x, y) feet."""

    entries: tuple[ScanEntry, ...]
    location: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        seen = set()
        for entry in self.entries:
            if entry.mac in seen:
                raise DuplicateMac(f"MAC {entry.mac} appears twice in one scan")
            seen.add(entry.mac)

    def rssi_by_mac(self) -> dict[str, int]:
        return {e.mac: e.rssi for e in self.entries}


@dataclass(frozen=True, eq=False)
class FingerprintDataset:
    """Row-per-location RSSI matrix plus x/y labels in feet.

    ``rssi`` has shape (rows, len(ap_columns)); absent APs hold 0.
    """

    ap_columns: tuple[str, ...]
    rssi: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "ap_columns", tuple(self.ap_columns))
        xs = np.asarray(self.x, dtype=float).reshape(-1)
        ys = np.asarray(self.y, dtype=float).reshape(-1)
        rssi = np.asarray(self.rssi, dtype=float)
        object.__setattr__(self, "rssi", rssi)
        object.__setattr__(self, "x", xs)
        object.__setattr__(self, "y", ys)
        if len(set(self.ap_columns)) != len(self.ap_columns):
            raise SchemaMismatch("duplicate MAC columns")
        if rssi.shape != (len(xs), len(self.ap_columns)) or len(ys) != len(xs):
            raise SchemaMismatch("matrix shape does not match columns and labels")

    @property
    def n_rows(self) -> int:
        return self.rssi.shape[0]

    def rows(self):
        for i in range(self.n_rows):
            yield self.rssi[i], float(self.x[i]), float(self.y[i])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FingerprintDataset):
            return NotImplemented
        return (
            self.ap_columns == other.ap_columns
            and np.array_equal(self.rssi, other.rssi)
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
        )


@lru_cache(maxsize=4096)
def _keyword_line(line: str) -> tuple[tuple[str, str, str] | None, str | None, str | None]:
    """What a line holding ``Address``, ``ESSID`` or ``Signal level`` says, as ``(header, essid, signal)``.

    ``header`` is a cell header's ``(label, upper-cased MAC, raw MAC)``, ``essid`` the quoted network name,
    and ``signal`` None without ``Signal level``, ``""`` for a level not in dBm, else its digits.  Each is
    None where the line does not carry it.  Memoized on the exact line: the cell headers, ESSIDs and signal
    lines of one building repeat from scan to scan.
    """
    header = _CELL_RE.match(line) if "Address" in line else None
    if header:
        return (header.group(1), header.group(2).upper(), header.group(2)), None, None
    essid = _ESSID_RE.search(line) if "ESSID" in line else None
    signal = None
    if "Signal level" in line:
        match = _SIGNAL_RE.search(line)
        signal = match.group(1) if match and match.group(2) == "dBm" else ""
    return None, essid.group(1) if essid else None, signal


# one shared instance per (mac, ssid, rssi): the class is frozen, and a scan's entries repeat from scan to scan
_scan_entry = lru_cache(maxsize=4096)(ScanEntry)


def _close_cell(cell: list, entries: dict[str, ScanEntry]) -> None:
    """Check the finished cell ``[label, mac, ssid, rssi]`` and add its entry to ``entries``."""
    label, mac, ssid, rssi = cell
    if ssid is None or rssi is None:
        raise MalformedCell(f"cell {label} is missing its {'ESSID' if ssid is None else 'Signal'} line")
    if mac in entries:
        raise DuplicateMac(f"MAC {mac} appears twice in one scan")
    try:
        entries[mac] = _scan_entry(mac, ssid, rssi)
    except ValueError as exc:
        raise MalformedCell(str(exc)) from exc


def parse_scan_text(text: str) -> list[ScanEntry]:
    """Parse scan-tool output into entries, in document order.

    Unknown lines inside a cell block are skipped; the ESSID and Signal lines
    may come in either order.  A cell missing its address, ESSID or signal
    level is rejected with MalformedCell; a signal not expressed in dBm raises
    BadSignalUnit; a repeated MAC raises DuplicateMac.  Cells are checked in
    document order, so the first faulty one is reported.  Each keyword line is
    decided, and each entry built, once per distinct value (bounded memos of
    4,096 each); a line without a keyword enters no memo, and a faulty line or
    cell raises on every call.
    """
    entries: dict[str, ScanEntry] = {}
    cell = None  # the open block: [label, mac, ssid, rssi]
    for line in text.splitlines():
        if "Address" not in line and "ESSID" not in line and "Signal level" not in line:
            continue  # kept out of the memo: lines such as Extra:tsf= differ from scan to scan
        header, essid, signal = _keyword_line(line)
        if header:
            if cell is not None:
                _close_cell(cell, entries)
            label, mac, raw = header
            if not _canonical_mac(mac):
                raise MalformedCell(f"cell {label} has a malformed address {raw!r}")
            cell = [label, mac, None, None]
        elif cell is None:
            continue  # preamble before the first cell
        elif essid is not None and cell[2] is None:
            cell[2] = essid
        elif signal is not None:
            if not signal:
                raise BadSignalUnit(f"signal not expressed in dBm: {line.strip()!r}")
            if cell[3] is None:
                try:
                    cell[3] = int(signal)
                except ValueError:  # more digits than int() converts: far outside the RSSI range
                    digits = len(signal.lstrip("-"))
                    raise MalformedCell(f"cell {cell[0]} has a signal level of {digits} digits") from None
    if cell is not None:
        _close_cell(cell, entries)
    return list(entries.values())


def filter_by_ssid(entries: list[ScanEntry], allowlist: set[str]) -> list[ScanEntry]:
    """Keep exactly the entries whose SSID is in the allowlist, in order."""
    return [e for e in entries if e.ssid in allowlist]


def aggregate_resamples(snapshots: list[ScanSnapshot]) -> ScanSnapshot:
    """Merge repeated scans of one location into a single snapshot.

    The output holds the union of observed MACs; each AP's RSSI is the
    median of the values it was actually seen at (the lower of the two
    middles for even counts).  Entry order is lexicographic by MAC so the
    result is deterministic regardless of snapshot order.
    """
    if not snapshots:
        raise EmptyDataset("no snapshots to aggregate")
    locations = {s.location for s in snapshots}
    if len(locations) != 1:
        raise MixedLocations(f"snapshots carry {len(locations)} different location labels")
    values: dict[str, list[int]] = {}
    ssids: dict[str, str] = {}
    for snap in snapshots:
        for entry in snap.entries:
            values.setdefault(entry.mac, []).append(entry.rssi)
            ssids.setdefault(entry.mac, entry.ssid)
    merged = tuple(ScanEntry(mac, ssids[mac], statistics.median_low(values[mac])) for mac in sorted(values))
    return ScanSnapshot(merged, snapshots[0].location)


def build_dataset(samples: list[ScanSnapshot]) -> FingerprintDataset:
    """Align labelled snapshots into a fingerprint matrix.

    Columns are the sorted union of all observed MACs; APs missing from a
    snapshot become 0; row order follows the input order.
    """
    columns = tuple(sorted({e.mac for s in samples for e in s.entries}))
    index = {mac: j for j, mac in enumerate(columns)}
    rssi = np.full((len(samples), len(columns)), MISSING_RSSI, dtype=float)
    xs = np.zeros(len(samples))
    ys = np.zeros(len(samples))
    for i, snap in enumerate(samples):
        if snap.location is None:
            raise UnlabeledSnapshot(f"snapshot {i} has no location label")
        for entry in snap.entries:
            rssi[i, index[entry.mac]] = float(entry.rssi)
        xs[i], ys[i] = snap.location
    return FingerprintDataset(columns, rssi, xs, ys)


def write_csv(dataset: FingerprintDataset, sink) -> None:
    """Write the dataset as CSV: MAC columns, then literal ``x``, ``y``; a path is written atomically."""
    rows = ([format_number(v) for v in (*vector, x, y)] for vector, x, y in dataset.rows())
    write_rows(sink, [*dataset.ap_columns, "x", "y"], rows)


def read_csv(source) -> FingerprintDataset:
    """Read a dataset CSV written by write_csv; the round-trip is bit-exact.

    MAC columns are upper-cased; every cell below must be a finite number.
    Anything else, including text that is not UTF-8, raises SchemaMismatch.
    """
    try:
        rows = list(csv.reader(io.StringIO(read_text(source, SchemaMismatch, "dataset"), newline="")))
    except csv.Error as exc:
        raise SchemaMismatch(f"unreadable dataset CSV: {exc}") from exc
    if not rows:
        raise SchemaMismatch("empty file: no header row")
    header = rows[0]
    if len(header) < 2 or header[-2:] != ["x", "y"]:
        raise SchemaMismatch("header must end with the x and y label columns")
    columns = tuple(cell.upper() for cell in header[:-2])
    for number, column in enumerate(columns, start=1):
        if not _canonical_mac(column):
            raise SchemaMismatch(f"header column {number}: {header[number - 1]!r} is not a MAC address")
    if len(set(columns)) != len(columns):
        raise SchemaMismatch("duplicate MAC columns in header")
    vectors: list[list[float]] = []
    xs: list[float] = []
    ys: list[float] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise SchemaMismatch(f"line {lineno}: expected {len(header)} cells, got {len(row)}")
        try:
            numbers = finite_floats(row)
        except ValueError as exc:
            raise SchemaMismatch(f"line {lineno}: {exc}") from exc
        vectors.append(numbers[:-2])
        xs.append(numbers[-2])
        ys.append(numbers[-1])
    rssi = np.array(vectors, dtype=float).reshape(len(vectors), len(columns))
    return FingerprintDataset(columns, rssi, np.array(xs), np.array(ys))


def scan_file_label(name: str) -> tuple[float, float, int] | None:
    """Decode ``<x>_<y>_<rep>.txt`` into (x, y, rep); None if not a scan file."""
    match = _SCAN_FILE_RE.match(name)
    if not match:
        return None
    try:
        return float(match.group(1)), float(match.group(2)), int(match.group(3))
    except ValueError:
        return None


def read_scan_directory(
    directory,
    allowlist: set[str] | None = None,
    aggregate: bool = True,
) -> tuple[list[ScanSnapshot], list[tuple[Path, ToolkitError]]]:
    """Replay a directory of scan-text files into labelled snapshots.

    Files are named ``<x>_<y>_<rep>.txt``; repeated scans of one location are
    aggregated unless ``aggregate`` is False.  Returns the snapshots (ordered
    by location, then repetition) together with a list of per-file errors;
    files that fail to parse or are not UTF-8 text are reported, not
    silently dropped.
    """
    captures = sorted((label, path) for path in Path(directory).iterdir() if (label := scan_file_label(path.name)))
    snapshots: list[ScanSnapshot] = []
    errors: list[tuple[Path, ToolkitError]] = []
    for location, group in itertools.groupby(captures, key=lambda capture: capture[0][:2]):
        resamples: list[ScanSnapshot] = []
        for _, path in group:
            try:
                entries = parse_scan_text(read_text(path, ToolkitError, None))  # the error list names the file
            except ToolkitError as exc:
                errors.append((path, exc))
                continue
            if allowlist is not None:
                entries = filter_by_ssid(entries, allowlist)
            resamples.append(ScanSnapshot(tuple(entries), location))
        if not resamples:
            continue
        if aggregate:
            snapshots.append(aggregate_resamples(resamples))
        else:
            snapshots.extend(resamples)
    return snapshots, errors
