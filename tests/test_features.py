import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rssinav.features import (
    DegenerateCoordinates,
    EmptyDataset,
    NormalizationParams,
    ShapeMismatch,
    SidecarFormatError,
    TooFewSamples,
    check_ranges,
    columns_with_presence,
    denormalize_coords,
    error_feet,
    fit_normalizer,
    normalize_coords,
    normalize_features,
    pearson,
    reduce_columns,
    select_features,
    sidecar_dumps,
    sidecar_loads,
    split,
)
from rssinav.scan_ingest import FingerprintDataset, SchemaMismatch

# independent evaluation of the correlation definition for a=[1,2,3], b=[1,2,4]:
# covariance 1, std_a = sqrt(2/3), std_b = sqrt(14/9) -> r = sqrt(27/28)
PCC_123_124 = 0.9819805060619657


def make_dataset(columns, rssi, xs, ys):
    return FingerprintDataset(tuple(columns), np.array(rssi, dtype=float), np.array(xs, dtype=float), np.array(ys, dtype=float))


class TestPearson:
    def test_perfect_self_correlation(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_perfect_anti_correlation(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_known_value(self):
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(PCC_123_124, abs=1e-12)

    def test_constant_vector_defined_as_zero(self):
        assert pearson([5, 5, 5], [1, 2, 3]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            pearson([1, 2], [1, 2, 3])

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            pearson([1], [2])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=-100, max_value=100).map(lambda v: round(v, 2)), min_size=2, max_size=12),
        st.data(),
        st.floats(min_value=0.1, max_value=50),
        st.floats(min_value=-10, max_value=10),
    )
    def test_symmetry_and_positive_affine_invariance(self, a, data, alpha, beta):
        b = data.draw(st.lists(st.floats(min_value=-100, max_value=100).map(lambda v: round(v, 2)), min_size=len(a), max_size=len(a)))
        assert pearson(a, b) == pytest.approx(pearson(b, a), abs=1e-9)
        scaled = [alpha * v + beta for v in a]
        assert pearson(scaled, b) == pytest.approx(pearson(a, b), abs=1e-9)


M1, M2, M3 = "AA:00:00:00:00:01", "AA:00:00:00:00:02", "AA:00:00:00:00:03"


class TestSelect:
    def test_column_equal_to_x_always_kept(self):
        xs = [0.0, 1.0, 2.0, 3.0]
        ds = make_dataset([M1], [[v] for v in xs], xs, [0, 1, 0, 1])
        sel = select_features(ds, threshold=1.0)
        assert sel.kept_columns == (M1,)

    def test_constant_column_dropped(self):
        ds = make_dataset([M1], [[-50]] * 4, [0, 1, 2, 3], [3, 2, 1, 0])
        sel = select_features(ds, threshold=0.01)
        assert sel.kept_columns == ()
        assert sel.pcc_x[M1] == 0.0 and sel.pcc_y[M1] == 0.0

    def test_threshold_zero_keeps_all_nonconstant(self):
        ds = make_dataset([M1, M2], [[-50, 0], [-60, 0], [-40, 0]], [0, 1, 2], [2, 1, 0])
        sel = select_features(ds, threshold=0.0)
        assert sel.kept_columns == (M1, M2)  # constant column has r = 0 >= 0

    def test_threshold_above_one_rejected(self):
        ds = make_dataset([M1], [[-50], [-60], [-40]], [0, 1, 2], [2, 1, 0])
        assert select_features(ds, threshold=1.0).kept_columns == ()  # |r| = 0.5
        with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\], got 1.01"):
            select_features(ds, threshold=1.01)

    @pytest.mark.parametrize("value", [math.nan, -0.01, 1.5, math.inf])
    def test_fractions_outside_zero_one_rejected(self, value):
        ds = make_dataset([M1], [[-50], [-60], [-40]], [0, 1, 2], [2, 1, 0])
        with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\]"):
            select_features(ds, threshold=value)
        with pytest.raises(ValueError, match=r"min_presence must be in \[0, 1\]"):
            columns_with_presence(ds, value)

    def test_correlation_with_either_axis_suffices(self):
        ys = [0.0, 1.0, 2.0, 3.0]
        ds = make_dataset([M1], [[v] for v in ys], [1, 0, 1, 0], ys)
        assert select_features(ds, threshold=0.9).kept_columns == (M1,)

    def test_records_all_pcc_values(self):
        ds = make_dataset([M1, M2], [[0, 1], [1, 0], [2, 1]], [0, 1, 2], [0, 0, 1])
        sel = select_features(ds, threshold=0.99)
        assert set(sel.pcc_x) == {M1, M2} and set(sel.pcc_y) == {M1, M2}

    def test_too_few_rows(self):
        ds = make_dataset([M1], [[-50]], [0], [0])
        with pytest.raises(TooFewSamples):
            select_features(ds)

    def test_presence_filter(self):
        ds = make_dataset([M1, M2], [[-50, 0], [-60, 0], [-40, -70], [-45, 0]], range(4), range(4))
        assert columns_with_presence(ds, 0.75) == (M1,)
        assert columns_with_presence(ds, 0.25) == (M1, M2)


class TestSplit:
    def test_75_25_on_100_rows(self):
        ds = make_dataset([M1], [[-v] for v in range(100)], range(100), range(100))
        parts = split(ds, 0.75, seed=1)
        assert parts.train.n_rows == 75 and parts.test.n_rows == 25

    def test_rounding_half_up(self):
        ds = make_dataset([M1], [[-v] for v in range(4)], range(4), range(4))
        parts = split(ds, 0.75, seed=1)
        assert parts.train.n_rows == 3 and parts.test.n_rows == 1

    def test_95_rows_gives_71_24(self):
        ds = make_dataset([M1], [[-v] for v in range(95)], range(95), range(95))
        parts = split(ds, 0.75, seed=3)
        assert parts.train.n_rows == 71 and parts.test.n_rows == 24

    def test_same_seed_same_partition(self):
        ds = make_dataset([M1], [[-v] for v in range(30)], range(30), range(30))
        a, b = split(ds, 0.6, seed=42), split(ds, 0.6, seed=42)
        assert a.train == b.train and a.test == b.test

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.floats(0.05, 0.95))
    def test_partition_exhaustive_and_disjoint(self, n, seed, ratio):
        ds = make_dataset([M1], [[-v] for v in range(n)], range(n), [v * 2 for v in range(n)])
        parts = split(ds, ratio, seed)
        train_x = set(parts.train.x.tolist())
        test_x = set(parts.test.x.tolist())
        assert parts.train.n_rows + parts.test.n_rows == n
        assert train_x.isdisjoint(test_x)
        assert train_x | test_x == set(float(v) for v in range(n))

    def test_empty_dataset_rejected(self):
        ds = make_dataset([M1], np.zeros((0, 1)), [], [])
        with pytest.raises(EmptyDataset):
            split(ds, 0.75, 0)


class TestCheckRanges:
    def test_levels_and_locations_a_scan_can_have_pass(self):
        check_ranges(make_dataset([M1, M2], [[-255, 0], [-61.5, -0.0]], [-1e9, 1e9], [0, 3.5]))
        check_ranges(make_dataset([], np.zeros((2, 0)), [0, 1], [1, 0]))

    @pytest.mark.parametrize(
        "rssi, xs, ys, message",
        [
            ([[-50, -40], [-60, 1e308]], [0, 1], [0, 1], f"dataset row 2, column {M2}: 1e+308 dBm is outside [-255, 0]"),
            ([[-50, -40], [-256, 0]], [0, 1], [0, 1], f"dataset row 2, column {M1}: -256 dBm is outside [-255, 0]"),
            ([[-50, 0.5], [-60, 0]], [0, 1], [0, 1], f"dataset row 1, column {M2}: 0.5 dBm is outside [-255, 0]"),
            ([[-50, -40], [-60, -30]], [1e308, -1e308], [0, 1], "dataset row 1, column x: 1e+308 ft is outside [-1e+09, 1e+09]"),
            ([[-50, -40], [-60, -30]], [0, 1], [0, -2e9], "dataset row 2, column y: -2e+09 ft is outside [-1e+09, 1e+09]"),
            ([[-50, math.nan], [-60, -30]], [0, 1], [0, 1], f"dataset row 1, column {M2}: nan dBm is outside [-255, 0]"),
        ],
    )
    def test_out_of_range_value_named_by_row_and_column(self, rssi, xs, ys, message):
        with pytest.raises(SchemaMismatch) as exc_info:
            check_ranges(make_dataset([M1, M2], rssi, xs, ys))
        assert str(exc_info.value) == message


class TestNormalizer:
    @pytest.mark.parametrize(
        "bounds, extent, message",
        [
            (([-1e308], [1e308]), 1.0, "feature spans must be finite"),
            (([-90.0], [math.inf]), 1.0, "feature spans must be finite"),
            (([-90.0], [-30.0]), math.inf, "extent must be positive and finite"),
            (([-90.0], [-30.0]), math.nan, "extent must be positive and finite"),
        ],
    )
    def test_non_finite_span_or_extent_rejected(self, bounds, extent, message):
        with pytest.raises(ValueError, match=message):
            NormalizationParams(np.array(bounds[0]), np.array(bounds[1]), 0.0, 0.0, extent)

    def test_feature_endpoints(self):
        ds = make_dataset([M1], [[-90], [-30], [-60]], [0, 1, 2], [0, 2, 4])
        params = fit_normalizer(ds)
        assert normalize_features(params, [-90.0])[0] == 0.0
        assert normalize_features(params, [-30.0])[0] == 1.0

    def test_no_columns_give_empty_bounds(self):
        params = fit_normalizer(make_dataset([], np.zeros((3, 0)), [0, 1, 2], [0, 2, 4]))
        assert params.feature_min.shape == params.feature_max.shape == (0,)
        assert (params.origin_x, params.origin_y, params.extent) == (0.0, 0.0, 4.0)

    def test_constant_column_maps_to_zero(self):
        ds = make_dataset([M1], [[-50], [-50]], [0, 1], [0, 2])
        params = fit_normalizer(ds)
        assert normalize_features(params, [-50.0])[0] == 0.0
        # the hand inverse, value * (max - min) + min, gives the constant back
        assert (params.feature_min[0], params.feature_max[0]) == (-50.0, -50.0)

    def test_round_trip_within_1e9(self):
        ds = make_dataset([M1, M2], [[-90, -70], [-30, -20], [-55, -44]], [0, 3, 9], [0, 6, 12])
        params = fit_normalizer(ds)
        rng = np.random.default_rng(0)
        vectors = rng.uniform([-90, -70], [-30, -20], size=(50, 2))
        # the hand inverse: min (-90, -70) plus the normalized value times the span (60, 50)
        assert np.allclose(normalize_features(params, vectors) * [60.0, 50.0] + [-90.0, -70.0], vectors, atol=1e-9)
        coords = rng.uniform([0, 0], [9, 12], size=(50, 2))
        assert np.allclose(denormalize_coords(params, normalize_coords(params, coords)), coords, atol=1e-9)

    def test_shared_extent_is_larger_axis_span(self):
        ds = make_dataset([M1], [[-50], [-60], [-70]], [1, 4, 3], [0, 12, 6])
        params = fit_normalizer(ds)
        assert params.extent == 12.0  # y span 12 > x span 3
        assert params.origin_x == 1.0 and params.origin_y == 0.0

    def test_normalized_error_converts_exactly(self):
        # the headline arithmetic: 0.14 normalized over a 12 ft extent is 1.68 ft
        params = NormalizationParams(np.array([-90.0]), np.array([-30.0]), 0.0, 0.0, 12.0)
        assert error_feet(params, 0.14) == pytest.approx(1.68, abs=1e-12)
        assert error_feet(params, 0.14) == 0.14 * params.extent  # exact identity

    def test_degenerate_coordinates_rejected(self):
        ds = make_dataset([M1], [[-50], [-60]], [2, 2], [3, 3])
        with pytest.raises(DegenerateCoordinates):
            fit_normalizer(ds)

    def test_empty_rejected(self):
        ds = make_dataset([M1], np.zeros((0, 1)), [], [])
        with pytest.raises(EmptyDataset):
            fit_normalizer(ds)


def reference_normalize_features(params, values):
    """The per-call formula normalize_features replaces, kept as the bit reference."""
    values = np.asarray(values, dtype=float)
    span = params.feature_max - params.feature_min
    safe = np.where(span == 0.0, 1.0, span)
    out = (values - params.feature_min) / safe
    return np.where(span == 0.0, 0.0, out)


def reference_normalize_coords(params, xy):
    xy = np.asarray(xy, dtype=float)
    origin = np.array([params.origin_x, params.origin_y])
    return (xy - origin) / params.extent


def reference_denormalize_coords(params, xy):
    xy = np.asarray(xy, dtype=float)
    origin = np.array([params.origin_x, params.origin_y])
    return xy * params.extent + origin


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# levels a fitted column can hold, and inputs beyond them: signed zeros, the sentinel, out-of-range readings
LEVELS = st.sampled_from([-255.0, -90.0, -61.5, -30.0, -1e-300, -0.0, 0.0, 1e-300, 12.0])
VALUES = st.one_of(LEVELS, st.floats(-400.0, 50.0), st.sampled_from([math.inf, -math.inf, math.nan]))
COORDS = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([-0.0, 0.0, math.nan, math.inf]))


class TestScalingMatchesTheReferenceBits:
    @settings(max_examples=200, deadline=None)
    @given(
        bounds=st.lists(st.tuples(LEVELS, LEVELS, st.booleans()), min_size=1, max_size=6),
        rows=st.integers(0, 4),
        data=st.data(),
    )
    def test_normalize_features(self, bounds, rows, data):
        # the flag makes a column constant (min == max), which maps to 0
        mins = [min(a, b) for a, b, _ in bounds]
        maxs = [lo if constant else max(a, b) for (a, b, constant), lo in zip(bounds, mins)]
        params = NormalizationParams(np.array(mins), np.array(maxs), 0.0, 0.0, 1.0)
        vector = data.draw(st.lists(VALUES, min_size=len(mins), max_size=len(mins)))
        matrix = [data.draw(st.lists(VALUES, min_size=len(mins), max_size=len(mins))) for _ in range(rows)]
        for values in (vector, np.array(matrix).reshape(rows, len(mins)), *([matrix] if matrix else [])):
            assert same_bits(normalize_features(params, values), reference_normalize_features(params, values))

    @pytest.mark.parametrize(
        "constant",
        [(True, False, False), (False, False, True), (False, True, False), (True, True, True), (False, False, False)],
        ids=["first", "last", "middle", "all", "none"],
    )
    def test_constant_columns_are_zeroed_in_place_as_np_where_did(self, constant):
        # a row and batches: one row, several, none; a constant column's NaN, infinity and -0.0 all become +0.0
        mins = np.array([-90.0, -0.0, -61.5])
        params = NormalizationParams(mins, np.where(constant, mins, [-30.0, 12.0, 0.0]), 0.0, 0.0, 1.0)
        rows = np.array([[-60.0, -0.0, math.nan], [math.inf, 0.0, -0.0], [-0.0, -math.inf, 5.0], [-91.0, 1e-300, -61.5]])
        with np.errstate(invalid="ignore"):
            for values in (rows[0], rows[1], rows[2], rows, rows[:1], rows[:0], rows[3].tolist()):
                expected = np.where(np.array(constant), 0.0, (np.asarray(values) - mins) / np.where(constant, 1.0, params.feature_max - mins))
                assert same_bits(normalize_features(params, values), expected)

    @settings(max_examples=200, deadline=None)
    @given(
        origin=st.tuples(COORDS.filter(math.isfinite), COORDS.filter(math.isfinite)),
        extent=st.floats(1e-300, 1e300),
        xy=st.tuples(COORDS, COORDS),
        rows=st.lists(st.tuples(COORDS, COORDS), max_size=4),
    )
    def test_coordinate_scaling(self, origin, extent, xy, rows):
        params = NormalizationParams(np.zeros(1), np.zeros(1), *origin, extent)
        for values in (xy, np.array(rows).reshape(len(rows), 2), *([rows] if rows else [])):
            assert same_bits(normalize_coords(params, values), reference_normalize_coords(params, values))
            assert same_bits(denormalize_coords(params, values), reference_denormalize_coords(params, values))

    def test_parameters_are_read_only(self):
        params = NormalizationParams(np.array([-90.0]), np.array([-30.0]), 0.0, 0.0, 12.0)
        with pytest.raises(ValueError, match="read-only"):
            params.feature_max[0] = -90.0  # would leave the derived span stale


SIDECAR_HEAD = "format = rssinav-sidecar-v1\nthreshold = 0.24\norigin_x = 0\norigin_y = 0\nextent = 3\n[columns]\n"


class TestSidecar:
    def test_round_trip(self):
        ds = make_dataset(
            [M1, M2, M3],
            [[-50, 0, -71], [-60, 0, -66], [-40, 0, -81], [-45, 0, -60]],
            [0, 1, 2, 3],
            [3, 2, 1, 0],
        )
        sel = select_features(ds, threshold=0.24)
        params = fit_normalizer(reduce_columns(ds, sel.kept_columns))
        text = sidecar_dumps(sel, params)
        sel2, params2 = sidecar_loads(text)
        assert sel2 == sel
        assert params2 == params

    @pytest.mark.parametrize(
        "text, message",
        [
            ("format = rssinav-sidecar-v1\nthreshold = 0.24\n", "missing [columns] block"),
            ("format = rssinav-sidecar-v0\n[columns]\n", "unknown sidecar format 'rssinav-sidecar-v0'"),
            (SIDECAR_HEAD + "mac,kept,pcc_x,pcc_y\n", "bad column-stats header"),
            (SIDECAR_HEAD + "mac,kept,pcc_x,pcc_y,rssi_min,rssi_max\n" + M1 + ",1,0.5\n", f"bad column-stats row: ['{M1}', '1', '0.5']"),
        ],
        ids=["no-columns-block", "unknown-format", "bad-header", "short-row"],
    )
    def test_malformed_sidecar_rejected(self, text, message):
        with pytest.raises(SidecarFormatError) as raised:
            sidecar_loads(text)
        assert raised.type is SidecarFormatError and str(raised.value) == message

    def test_reduce_columns_preserves_order(self):
        ds = make_dataset([M1, M2, M3], [[1, 2, 3], [4, 5, 6]], [0, 1], [1, 0])
        reduced = reduce_columns(ds, [M3, M1])
        assert reduced.ap_columns == (M3, M1)
        assert reduced.rssi[0].tolist() == [3.0, 1.0]
