"""Byte-level fuzzing of the file parsers: any mutation or truncation of a
valid dataset CSV, world file, model file, scan capture or CLI config file
must either load or raise a ToolkitError, never a bare ValueError,
UnicodeDecodeError, OverflowError, TypeError or any other exception.  The
model header is also fuzzed as structured JSON under a valid checksum,
which byte mutations almost never reach."""

import copy
import hashlib
import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rssinav.cli import _parse_config_file
from rssinav.errors import CorruptFile, ToolkitError
from rssinav.features import FeatureSelection, NormalizationParams
from rssinav.model import ChecksumFailure, MlpRegressor, TrainConfig, load_model, save_model, train
from rssinav.rfsim import load_world, reference_world, render_scan_text, save_world
from rssinav.scan_ingest import FingerprintDataset, ScanEntry, ScanSnapshot, parse_scan_text, read_csv, write_csv

# fragments that turn a number into something a naive float() parse accepts
# or chokes on, plus bytes that break the text layer
_TOKENS = [b"nan", b"inf", b"-inf", b"1e999", b"-", b".", b"e", b"_", b"9" * 12, b"9" * 24, b"\xff", b"\xc3", b"\x00", b",", b" ", b"\n", b'"']


@st.composite
def mutations(draw, valid: bytes) -> bytes:
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["replace", "insert", "delete"]))
        chunk = draw(st.one_of(st.sampled_from(_TOKENS), st.binary(min_size=1, max_size=3)))
        if kind == "replace":
            data[pos : pos + len(chunk)] = chunk
        elif kind == "insert":
            data[pos:pos] = chunk
        else:
            del data[pos : pos + draw(st.integers(1, 8))]
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))) :]
    return bytes(data)


def _dataset_csv() -> bytes:
    columns = ("AA:00:00:00:00:01", "AA:00:00:00:00:02", "AA:00:00:00:00:03")
    rssi = np.array([[-40.0, -71.0, 0.0], [-55.0, -62.0, -80.0], [-67.0, -48.0, -90.0], [0.0, -52.0, -75.0]])
    buf = io.StringIO()
    write_csv(FingerprintDataset(columns, rssi, np.array([0.5, 1.5, 2.5, 3.5]), np.array([0.5, 0.5, 1.5, 2.25])), buf)
    return buf.getvalue().encode("utf-8")


def _world_file() -> bytes:
    buf = io.StringIO()
    save_world(reference_world(), buf)
    return buf.getvalue().encode("utf-8")


def _model_file() -> bytes:
    rng = np.random.default_rng(3)
    model = MlpRegressor.default(2, hidden=(3, 4))
    train(model, rng.uniform(0, 1, (8, 2)), rng.uniform(0, 1, (8, 2)), TrainConfig(epochs=2, seed=1))
    macs = ("AA:00:00:00:00:01", "AA:00:00:00:00:02")
    selection = FeatureSelection(macs, {m: 0.5 for m in macs}, {m: -0.25 for m in macs}, 0.24)
    params = NormalizationParams(np.array([-90.0, -80.0]), np.array([-30.0, -35.0]), 0.0, 0.0, 11.0)
    buf = io.BytesIO()
    save_model(model, selection, params, buf)
    return buf.getvalue()


VALID_CSV = _dataset_csv()
VALID_WORLD = _world_file()
VALID_MODEL = _model_file()
# sets every config key once
VALID_CONFIG = b"""# every key
ssid = CSU Net, CSU Visitor
aggregate = no
threshold = 0.24
min_presence = 0.5
ratio = 0.75
epochs = 700
validation_split = 0.1
batch_size = 16
learning_rate = 0.001
optimizer = adam
seed = 3
heading = E
start = 0,0
goal = 11,3
trials = 100
oracle = yes
noise_sigma = 2
success_radius = 2
scan_period = 2
step_distance = 2
checkpoint_radius = 1.5
max_misses = 10
resamples = 3
world_seed = 7
"""
VALID_SCAN = render_scan_text(ScanSnapshot((ScanEntry("02:00:00:00:00:01", "LabNet", -61),))).encode("utf-8")
# the cell layout of a real `iwlist scan`: Signal before ESSID, among lines the parser skips
VALID_IWLIST = b"""wlan0     Scan completed :
          Cell 01 - Address: 02:00:00:00:00:01
                    Channel:6
                    Frequency:2.437 GHz (Channel 6)
                    Quality=49/70  Signal level=-61 dBm
                    Encryption key:on
                    ESSID:"LabNet"
                    Bit Rates:1 Mb/s; 2 Mb/s; 5.5 Mb/s; 11 Mb/s; 6 Mb/s
                              9 Mb/s; 12 Mb/s; 18 Mb/s; 24 Mb/s; 36 Mb/s
                    Mode:Master
                    IE: Unknown: 00064C61624E6574
                    IE: IEEE 802.11i/WPA2 Version 1
                        Group Cipher : CCMP
          Cell 02 - Address: 02:00:00:00:00:02
                    Channel:11
                    Frequency:2.462 GHz (Channel 11)
                    Quality=30/70  Signal level=-80 dBm
                    Encryption key:off
                    ESSID:"LabGuest"
                    Bit Rates:6 Mb/s; 9 Mb/s; 12 Mb/s; 18 Mb/s
                    IE: Unknown: 00084C61624775657374
"""


@pytest.fixture(scope="module")
def scratch_file():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp) / "input"


def _load_or_toolkit_error(loader, path: Path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        loader(path)
    except ToolkitError:
        pass


def test_valid_inputs_load(scratch_file):
    scratch_file.write_bytes(VALID_CSV)
    assert read_csv(scratch_file).n_rows == 4
    scratch_file.write_bytes(VALID_WORLD)
    assert len(load_world(scratch_file).aps) == len(reference_world().aps)
    scratch_file.write_bytes(VALID_MODEL)
    assert load_model(scratch_file).model.input_width == 2
    assert _parse_scan_bytes(VALID_SCAN) == [ScanEntry("02:00:00:00:00:01", "LabNet", -61)]
    scratch_file.write_bytes(VALID_CONFIG)
    assert len(_parse_config_file(str(scratch_file))) == VALID_CONFIG.count(b"=") == 24


_FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(data=mutations(VALID_CSV))
def test_mutated_dataset_csv_raises_only_toolkit_errors(scratch_file, data):
    _load_or_toolkit_error(read_csv, scratch_file, data)


@_FUZZ
@given(data=mutations(VALID_WORLD))
def test_mutated_world_file_raises_only_toolkit_errors(scratch_file, data):
    _load_or_toolkit_error(load_world, scratch_file, data)


@_FUZZ
@given(data=mutations(VALID_MODEL))
def test_mutated_model_file_raises_only_toolkit_errors(scratch_file, data):
    _load_or_toolkit_error(load_model, scratch_file, data)


@_FUZZ
@given(data=mutations(VALID_CONFIG))
def test_mutated_config_file_raises_only_toolkit_errors(scratch_file, data):
    _load_or_toolkit_error(lambda path: _parse_config_file(str(path)), scratch_file, data)


def _parse_scan_bytes(data: bytes):
    # parse_scan_text takes text: undecodable bytes reach it as U+FFFD
    return parse_scan_text(data.decode("utf-8", errors="replace"))


@_FUZZ
@given(data=mutations(VALID_SCAN))
def test_mutated_scan_text_raises_only_toolkit_errors(data):
    try:
        _parse_scan_bytes(data)
    except ToolkitError:
        pass


def test_valid_iwlist_capture_parses():
    assert _parse_scan_bytes(VALID_IWLIST) == [ScanEntry("02:00:00:00:00:01", "LabNet", -61), ScanEntry("02:00:00:00:00:02", "LabGuest", -80)]


@_FUZZ
@given(data=mutations(VALID_IWLIST))
def test_mutated_iwlist_capture_raises_only_toolkit_errors(data):
    try:
        _parse_scan_bytes(data)
    except ToolkitError:
        pass


# any JSON value: null, bools, ints, floats (+-inf and nan included), text, lists and objects
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)
(_HEADER_LEN,) = struct.unpack_from("<I", VALID_MODEL, 12)
VALID_HEADER = json.loads(VALID_MODEL[16 : 16 + _HEADER_LEN])


def _resigned_model(header: dict) -> bytes:
    """The valid model file with its JSON header replaced and its checksum recomputed."""
    encoded = json.dumps(header).encode("utf-8")
    body = VALID_MODEL[:12] + struct.pack("<I", len(encoded)) + encoded + VALID_MODEL[16 + _HEADER_LEN : -32]
    return body + hashlib.sha256(body).digest()


@_FUZZ
@given(data=st.data(), value=_JSON_VALUES)
def test_model_header_values_raise_only_toolkit_errors(data, value):
    header = copy.deepcopy(VALID_HEADER)
    if data.draw(st.booleans(), label="replace arch"):
        header["arch"] = value
    else:
        layer = data.draw(st.sampled_from(header["arch"]), label="layer")
        layer[data.draw(st.sampled_from(sorted(layer)), label="field")] = value
    try:
        load_model(io.BytesIO(_resigned_model(header)))
    except ToolkitError:
        pass


def _parameter_blocks() -> list[tuple[int, str, int]]:
    """(layer index, block name, values) of VALID_MODEL's parameter blocks, in file order."""
    blocks = []
    for index, layer in enumerate(VALID_HEADER["arch"]):
        if layer["kind"] == "dense":
            blocks += [(index, "weights", layer["out"] * layer["in"]), (index, "biases", layer["out"])]
        else:
            blocks += [(index, name, layer["width"]) for name in ("gamma", "beta", "running_mean", "running_var")]
    return blocks


def _parameter_offset(block: int, element: int) -> int:
    """Where one float64 of one parameter block sits in VALID_MODEL."""
    return 16 + _HEADER_LEN + 8 * (sum(size for _, _, size in _parameter_blocks()[:block]) + element)


def _resigned_parameter(block: int, element: int, value: bytes) -> bytes:
    """The valid model file with one float64 of one parameter block replaced and its checksum recomputed."""
    offset = _parameter_offset(block, element)
    body = VALID_MODEL[:offset] + value + VALID_MODEL[offset + 8 : -32]
    return body + hashlib.sha256(body).digest()


def _float_bits(value: float) -> bytes:
    return struct.pack("<d", value)


# NaNs of both signs and with a payload, and both infinities
_NON_FINITE = [_float_bits(float("nan")), _float_bits(-float("nan")), struct.pack("<Q", 0x7FF0_0000_DEAD_BEEF), _float_bits(float("inf")), _float_bits(-float("inf"))]
# extreme finite values: the largest magnitudes, the smallest subnormal, a negative zero
_EXTREME = [1e308, -1e308, 5e-324, -5e-324, -0.0]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), value=st.sampled_from(_NON_FINITE))
def test_a_non_finite_parameter_is_refused_naming_its_block(data, value):
    block = data.draw(st.integers(0, len(_parameter_blocks()) - 1), label="block")
    index, name, size = _parameter_blocks()[block]
    element = data.draw(st.integers(0, size - 1), label="element")
    message = f"^layer {index} {name} holds a non-finite value$"
    if name == "running_var" and value == _float_bits(-float("inf")):
        message = "^bad architecture header: running variance must be non-negative$"  # refused on its own, as the layer is built
    with pytest.raises(CorruptFile, match=message):
        load_model(io.BytesIO(_resigned_parameter(block, element, value)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_parameter_damaged_to_non_finite_fails_the_checksum(data):
    block = data.draw(st.integers(0, len(_parameter_blocks()) - 1), label="block")
    element = data.draw(st.integers(0, _parameter_blocks()[block][2] - 1), label="element")
    offset = _parameter_offset(block, element)
    (bits,) = struct.unpack_from("<Q", VALID_MODEL, offset)
    damaged = bytearray(VALID_MODEL)
    struct.pack_into("<Q", damaged, offset, bits | 0x7FF0_0000_0000_0000)  # every exponent bit set: ±inf or NaN, same sign
    with pytest.raises(ChecksumFailure):
        load_model(io.BytesIO(bytes(damaged)))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), value=st.sampled_from(_EXTREME))
def test_extreme_finite_parameters_load_bit_exactly(data, value):
    block = data.draw(st.integers(0, len(_parameter_blocks()) - 1), label="block")
    index, name, size = _parameter_blocks()[block]
    if name == "running_var" and value < 0:
        value = -0.0  # a negative running variance is refused on its own
    element = data.draw(st.integers(0, size - 1), label="element")
    loaded = getattr(load_model(io.BytesIO(_resigned_parameter(block, element, _float_bits(value)))).model.layers[index], name)
    assert _float_bits(loaded.flat[element]) == _float_bits(value)
