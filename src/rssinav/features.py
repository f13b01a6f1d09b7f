"""Feature selection and normalization for fingerprint datasets.

Columns are kept when their Pearson correlation with either coordinate
reaches a threshold (default 0.24).  RSSI features are min-max normalized
per column; coordinates are normalized by one shared scale (``extent``, the
larger of the two axis spans) so a normalized error converts to feet by a
single multiplication on both axes.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import CorruptFile, EmptyDataset, InvalidParameter, ShapeMismatch, ToolkitError, require_positive
from .fileio import finite_floats, format_number
from .scan_ingest import MISSING_RSSI, RSSI_FLOOR, FingerprintDataset, SchemaMismatch

DEFAULT_PCC_THRESHOLD = 0.24
DEFAULT_TRAIN_RATIO = 0.75
COORDINATE_LIMIT = 1e9  # feet; far beyond any floor, and far below where a squared spread overflows

_SIDECAR_FORMAT = "rssinav-sidecar-v1"


class TooFewSamples(ToolkitError):
    """Fewer than two samples; correlation is undefined."""


class DegenerateCoordinates(ToolkitError):
    """All training locations coincide; no coordinate scale exists."""


class SidecarFormatError(CorruptFile):
    """A model file's selection/normalization sidecar is malformed or disagrees with its network."""


def _round_half_up(v: float) -> int:
    return math.floor(v + 0.5)


def pearson(a, b) -> float:
    """Pearson correlation coefficient in [-1, 1]; 0 if either input is constant."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeMismatch(f"vectors of shape {a.shape} and {b.shape}")
    if a.size < 2:
        raise TooFewSamples("need at least 2 samples")
    da = a - a.mean()
    db = b - b.mean()
    denom = math.sqrt(float(da @ da) * float(db @ db))
    if denom == 0.0:
        return 0.0
    return float(min(1.0, max(-1.0, float(da @ db) / denom)))


@dataclass(frozen=True)
class FeatureSelection:
    """Kept columns plus the per-column correlations that justified them."""

    kept_columns: tuple[str, ...]
    pcc_x: dict[str, float]
    pcc_y: dict[str, float]
    threshold: float


def _require_fraction(name: str, value: float) -> None:
    """Raise InvalidParameter unless ``value`` is a number in [0, 1] (NaN is not)."""
    if not 0.0 <= value <= 1.0:
        raise InvalidParameter(f"{name} must be in [0, 1], got {value}")


def check_ranges(dataset: FingerprintDataset) -> None:
    """SchemaMismatch unless RSSI is in [RSSI_FLOOR, 0] dBm and coordinates within +-COORDINATE_LIMIT ft."""
    xy, limit = np.stack([dataset.x, dataset.y], axis=1), COORDINATE_LIMIT
    for values, names, low, high, unit in ((dataset.rssi, dataset.ap_columns, RSSI_FLOOR, 0, "dBm"), (xy, "xy", -limit, limit, "ft")):
        for row, col in np.argwhere(~((values >= low) & (values <= high)))[:1]:
            raise SchemaMismatch(f"dataset row {row + 1}, column {names[col]}: {values[row, col]:g} {unit} is outside [{low:g}, {high:g}]")


def select_features(dataset: FingerprintDataset, threshold: float = DEFAULT_PCC_THRESHOLD) -> FeatureSelection:
    """Keep column c iff |pcc(c, x)| or |pcc(c, y)| reaches the threshold.

    Correlations are recorded for every column, kept or not.  Constant
    columns (including the all-zero missing-AP sentinel columns) correlate
    at 0 and are dropped for any threshold > 0.  The threshold must be in [0, 1].
    """
    _require_fraction("threshold", threshold)
    if dataset.n_rows < 2:
        raise TooFewSamples("feature selection needs at least 2 rows")
    pcc_x: dict[str, float] = {}
    pcc_y: dict[str, float] = {}
    kept: list[str] = []
    for j, mac in enumerate(dataset.ap_columns):
        column = dataset.rssi[:, j]
        rx = pearson(column, dataset.x)
        ry = pearson(column, dataset.y)
        pcc_x[mac] = rx
        pcc_y[mac] = ry
        if max(abs(rx), abs(ry)) >= threshold:
            kept.append(mac)
    return FeatureSelection(tuple(kept), pcc_x, pcc_y, threshold)


def columns_with_presence(dataset: FingerprintDataset, min_fraction: float) -> tuple[str, ...]:
    """Columns observed (non-sentinel) in at least ``min_fraction`` of rows.

    Optional pre-filter; correlation selection is the default path.
    ``min_fraction`` must be in [0, 1].
    """
    _require_fraction("min_presence", min_fraction)
    if dataset.n_rows == 0:
        raise EmptyDataset("presence filter needs rows")
    present = (dataset.rssi != MISSING_RSSI).mean(axis=0)
    return tuple(mac for j, mac in enumerate(dataset.ap_columns) if present[j] >= min_fraction)


def reduce_columns(dataset: FingerprintDataset, columns) -> FingerprintDataset:
    """Project the dataset onto the given columns, preserving their order."""
    index = {mac: j for j, mac in enumerate(dataset.ap_columns)}
    picked = [index[mac] for mac in columns]
    return FingerprintDataset(tuple(columns), dataset.rssi[:, picked], dataset.x, dataset.y)


@dataclass(frozen=True)
class SplitDataset:
    """Seeded, reproducible train/test partition of a dataset."""

    train: FingerprintDataset
    test: FingerprintDataset
    seed: int
    ratio: float


def split(dataset: FingerprintDataset, ratio: float = DEFAULT_TRAIN_RATIO, seed: int = 0) -> SplitDataset:
    """Seeded shuffle, then the first round(ratio * N) rows become train.

    Rounding is half-up, so 95 rows at 0.75 give 71 train / 24 test.  The
    same seed always yields the identical partition.
    """
    if not 0.0 < ratio < 1.0:
        raise InvalidParameter(f"ratio must be in (0, 1), got {ratio}")
    n = dataset.n_rows
    if n == 0:
        raise EmptyDataset("cannot split an empty dataset")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = _round_half_up(ratio * n)
    train_idx, test_idx = perm[:n_train], perm[n_train:]

    def take(idx):
        return FingerprintDataset(dataset.ap_columns, dataset.rssi[idx], dataset.x[idx], dataset.y[idx])

    return SplitDataset(take(train_idx), take(test_idx), seed, ratio)


@dataclass(frozen=True, eq=False)
class NormalizationParams:
    """Invertible min-max feature scaling plus one shared coordinate scale.

    ``extent`` is the larger axis span of the training locations, so one
    normalized unit means the same number of feet on x and y and a
    normalized error converts to feet as ``error_ft = error_norm * extent``.
    """

    feature_min: np.ndarray
    feature_max: np.ndarray
    origin_x: float
    origin_y: float
    extent: float

    def __post_init__(self) -> None:
        for name in ("feature_min", "feature_max"):  # read-only copies, so the values derived below cannot go stale
            array = np.array(getattr(self, name), dtype=float).reshape(-1)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if np.any(self.feature_max < self.feature_min):
            raise InvalidParameter("feature max below min")
        require_positive(extent=self.extent)
        for name in ("origin_x", "origin_y", "extent"):  # Python floats, so predictions are floats whatever scalars came in
            object.__setattr__(self, name, float(getattr(self, name)))
        with np.errstate(over="ignore", invalid="ignore"):  # a span that overflows is refused below
            span = self.feature_max - self.feature_min  # derived once: the scaling functions run once per fix
        if not np.isfinite(span).all():
            raise InvalidParameter("feature spans must be finite")
        object.__setattr__(self, "_constant", np.flatnonzero(span == 0.0))  # the columns that map to 0
        object.__setattr__(self, "_safe_span", np.where(span == 0.0, 1.0, span))
        object.__setattr__(self, "_origin", np.array([self.origin_x, self.origin_y]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, NormalizationParams):
            return NotImplemented
        return (
            np.array_equal(self.feature_min, other.feature_min)
            and np.array_equal(self.feature_max, other.feature_max)
            and (self.origin_x, self.origin_y, self.extent) == (other.origin_x, other.origin_y, other.extent)
        )


def fit_normalizer(train: FingerprintDataset) -> NormalizationParams:
    """Fit per-column RSSI min/max and the shared coordinate scale on training rows only."""
    if train.n_rows == 0:
        raise EmptyDataset("cannot fit a normalizer on an empty dataset")
    fmin = train.rssi.min(axis=0)
    fmax = train.rssi.max(axis=0)
    ox = float(train.x.min())
    oy = float(train.y.min())
    extent = max(float(train.x.max()) - ox, float(train.y.max()) - oy)
    if extent <= 0.0:
        raise DegenerateCoordinates("all training locations coincide")
    return NormalizationParams(fmin, fmax, ox, oy, extent)


def normalize_features(params: NormalizationParams, values) -> np.ndarray:
    """Map each RSSI column onto [0, 1] (constant columns map to 0)."""
    out = np.asarray(values, dtype=float) - params.feature_min  # a fresh array: the steps below work in place
    out /= params._safe_span
    if len(params._constant):
        out[..., params._constant] = 0.0
    return out


def normalize_coords(params: NormalizationParams, xy) -> np.ndarray:
    """Map (x, y) feet onto the shared normalized frame."""
    xy = np.asarray(xy, dtype=float)
    return (xy - params._origin) / params.extent


def denormalize_coords(params: NormalizationParams, xy) -> np.ndarray:
    return np.asarray(xy, dtype=float) * params.extent + params._origin


def error_feet(params: NormalizationParams, normalized_error: float) -> float:
    """Convert a normalized error to feet; exact by construction of the shared scale."""
    return normalized_error * params.extent


def sidecar_dumps(selection: FeatureSelection, params: NormalizationParams) -> str:
    """Serialize a selection and its normalization to human-readable text.

    Key = value lines carry the scalars; a CSV block carries per-column
    stats: mac, kept flag, both correlations, and (for kept columns) the
    RSSI min/max used for scaling.
    """
    if len(params.feature_min) != len(selection.kept_columns):
        raise InvalidParameter("normalization params not aligned to kept columns")
    buf = io.StringIO()
    buf.write(f"format = {_SIDECAR_FORMAT}\n")
    buf.write(f"threshold = {format_number(selection.threshold)}\n")
    buf.write(f"origin_x = {format_number(params.origin_x)}\n")
    buf.write(f"origin_y = {format_number(params.origin_y)}\n")
    buf.write(f"extent = {format_number(params.extent)}\n")
    buf.write("[columns]\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["mac", "kept", "pcc_x", "pcc_y", "rssi_min", "rssi_max"])
    kept_pos = {mac: i for i, mac in enumerate(selection.kept_columns)}
    for mac in selection.pcc_x:
        if mac in kept_pos:
            i = kept_pos[mac]
            lo, hi = format_number(params.feature_min[i]), format_number(params.feature_max[i])
        else:
            lo = hi = ""
        writer.writerow(
            [mac, "1" if mac in kept_pos else "0", format_number(selection.pcc_x[mac]), format_number(selection.pcc_y[mac]), lo, hi]
        )
    return buf.getvalue()


def sidecar_loads(text: str) -> tuple[FeatureSelection, NormalizationParams]:
    """Parse sidecar text back into a selection and normalization params.

    Every number must be finite; any malformed content raises SidecarFormatError.
    """
    lines = text.splitlines()
    scalars: dict[str, str] = {}
    body_start = None
    for i, line in enumerate(lines):
        if line.strip() == "[columns]":
            body_start = i + 1
            break
        if "=" in line:
            key, _, value = line.partition("=")
            scalars[key.strip()] = value.strip()
    if body_start is None:
        raise SidecarFormatError("missing [columns] block")
    if scalars.get("format") != _SIDECAR_FORMAT:
        raise SidecarFormatError(f"unknown sidecar format {scalars.get('format')!r}")
    try:
        threshold, ox, oy, extent = finite_floats([scalars[key] for key in ("threshold", "origin_x", "origin_y", "extent")])
    except (KeyError, ValueError) as exc:
        raise SidecarFormatError(f"bad scalar block: {exc}") from exc
    reader = csv.reader(io.StringIO("\n".join(lines[body_start:])))
    header = next(reader, None)
    if header != ["mac", "kept", "pcc_x", "pcc_y", "rssi_min", "rssi_max"]:
        raise SidecarFormatError("bad column-stats header")
    kept: list[str] = []
    pcc_x: dict[str, float] = {}
    pcc_y: dict[str, float] = {}
    mins: list[float] = []
    maxs: list[float] = []
    for row in reader:
        if not row:
            continue
        if len(row) != 6:
            raise SidecarFormatError(f"bad column-stats row: {row!r}")
        mac, kept_flag, rx, ry, lo, hi = row
        try:
            numbers = finite_floats([rx, ry, lo, hi] if kept_flag == "1" else [rx, ry])
        except ValueError as exc:
            raise SidecarFormatError(f"bad column-stats row {row!r}: {exc}") from exc
        pcc_x[mac], pcc_y[mac] = numbers[:2]
        if kept_flag == "1":
            kept.append(mac)
            mins.append(numbers[2])
            maxs.append(numbers[3])
    selection = FeatureSelection(tuple(kept), pcc_x, pcc_y, threshold)
    try:
        params = NormalizationParams(np.array(mins), np.array(maxs), ox, oy, extent)
    except ValueError as exc:
        raise SidecarFormatError(f"bad normalization parameters: {exc}") from exc
    return selection, params
