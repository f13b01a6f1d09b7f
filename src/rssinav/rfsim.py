"""Seeded simulated world: access points with log-distance path loss and a
differential-drive robot with configurable per-wheel gains.

The simulator closes the loop for the whole pipeline without radio
hardware: it renders scans in the same text grammar the parser consumes,
produces synthetic fingerprint datasets, and runs checkpoint-navigation
trials whose every random draw is a pure function of (seed, draw counter).
RSSI follows rssi = p0 - 10 n log10(d / d_ref) + Gaussian(0, sigma),
rounded to integer dBm to match real scan granularity.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import InvalidParameter, OutOfBounds, ToolkitError, check_seed, require_positive
from .fileio import finite_floats, format_number, open_sink, read_text
from .model import ModelBundle, _predict_rows, predict_position
from .navctl import MAX_DURATION, DriveCommand, DrivetrainCalibration, Mode, NavConfig, NavState, nav_step
from .planner import GridMap, MapFormatError, PlannedPath, astar, extract_checkpoints, first_segment_heading
from .scan_ingest import MISSING_RSSI, RSSI_FLOOR, ScanEntry, ScanSnapshot, _canonical_mac, aggregate_resamples, build_dataset, parse_scan_text

_SUBSTEP = 0.01  # seconds; kinematic integration granularity
_POSE_KEY = struct.Struct("<4d")  # a memo key (v, omega, start heading, duration), bit for bit: -0.0 is not 0.0
_GRAPH_MOVES = 2048  # moves a run's pose graph keeps, one node per move, about 0.9 KB each with six APs: a reference run of 5,000 trials needs 27
_MAX_FIXES = 500  # fixes after which a trial ends as "fix_budget"
_SEEDS_PER_CALL = 128  # two lane blocks; a call keeps all its trials' noise lanes alive: 3,000 trials in one call peak at 13 MB, not 9.7
_SEED_MASK = (1 << 63) - 1


class WorldFormatError(ToolkitError):
    """A world description file is malformed."""


@dataclass(frozen=True)
class AccessPointSim:
    """A simulated AP: canonical MAC, position in feet, p0 dBm at the
    reference distance in [-150, 0], path-loss exponent n in (0, 10] and
    shadowing noise sigma in [0, 50] dB."""

    mac: str
    ssid: str
    position: tuple[float, float]
    p0: float = -40.0
    path_loss_exponent: float = 3.0
    noise_sigma: float = 2.0

    def __post_init__(self) -> None:
        if not _canonical_mac(self.mac):
            raise InvalidParameter(f"not a canonical MAC address: {self.mac!r}")
        if not -150.0 <= self.p0 <= 0.0:
            raise InvalidParameter(f"p0 must be in [-150, 0] dBm, got {self.p0}")
        if not 0.0 < self.path_loss_exponent <= 10.0:
            raise InvalidParameter(f"path_loss_exponent must be in (0, 10], got {self.path_loss_exponent}")
        if not 0.0 <= self.noise_sigma <= 50.0:
            raise InvalidParameter(f"noise_sigma must be in [0, 50] dB, got {self.noise_sigma}")


@dataclass(frozen=True)
class SimRobot:
    """Differential-drive robot: pose plus per-wheel actuation gains.

    left_scale < right_scale reproduces a drivetrain that veers left when
    both wheels are commanded equally.
    """

    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0
    wheel_base: float = 0.8
    left_scale: float = 1.0
    right_scale: float = 1.0

    def __post_init__(self) -> None:
        require_positive(wheel_base=self.wheel_base, left_scale=self.left_scale, right_scale=self.right_scale)

    @property
    def pose(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.heading)


@dataclass(frozen=True)
class SimWorld:
    """A grid map, its access points, a robot, and the world's base seed."""

    grid: GridMap
    aps: tuple[AccessPointSim, ...]
    robot: SimRobot
    rng_seed: int = 0
    reference_distance: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "aps", tuple(self.aps))
        macs = [ap.mac for ap in self.aps]
        if len(set(macs)) != len(macs):
            raise InvalidParameter("duplicate AP MAC addresses")
        for ap in self.aps:
            if not self.grid.contains_point(*ap.position):
                raise InvalidParameter(f"AP {ap.mac} at {ap.position} is outside the map")
        require_positive(reference_distance=self.reference_distance)


def with_noise_sigma(world: SimWorld, sigma: float) -> SimWorld:
    """Copy of the world with every AP's shadowing noise set to ``sigma``."""
    return replace(world, aps=tuple(replace(ap, noise_sigma=sigma) for ap in world.aps))


def simulate_scan(world: SimWorld, position: tuple[float, float], draw_index: int = 0, seed: int | None = None) -> ScanSnapshot:
    """One scan at a position: an entry per AP, deterministic in (seed, draw_index).

    Distances are clamped below at the reference distance; RSSI is rounded
    to the nearest integer dBm and clamped to [RSSI_FLOOR, 0], the levels a
    scan entry can carry.
    """
    x, y = float(position[0]), float(position[1])
    if not world.grid.contains_point(x, y):
        raise OutOfBounds(f"scan position ({x}, {y}) is outside the map")
    seeds = [(world.rng_seed if seed is None else seed) & _SEED_MASK, draw_index & _SEED_MASK]
    levels = _scan_levels(world, _path_loss(world, x, y), np.random.default_rng(seeds).standard_normal(len(world.aps)).tolist())
    return ScanSnapshot(tuple(ScanEntry(ap.mac, ap.ssid, rssi) for ap, rssi in zip(world.aps, levels)))


def _path_loss(world: SimWorld, x: float, y: float) -> list[float]:
    """The deterministic half of the RSSI formula: each AP's p0 - 10 n log10(d / d_ref) in dBm at (x, y),
    in ``world.aps`` order."""
    ref = world.reference_distance
    losses = []
    for ap in world.aps:
        d = math.hypot(x - ap.position[0], y - ap.position[1])
        losses.append(ap.p0 - 10.0 * ap.path_loss_exponent * math.log10((ref if ref > d else d) / ref))  # max(d, ref) without the call
    return losses


def _scan_levels(world: SimWorld, losses: list[float], noise: list[float]) -> list[int]:
    """The noisy half of the RSSI formula: each AP's level in integer dBm, its ``_path_loss`` level plus
    sigma times its standard normal draw from ``noise``, rounded half up and clamped to [RSSI_FLOOR, 0]:
    ``floor(min(0.0, max(RSSI_FLOOR, level + 0.5)))`` without the two builtin calls, a NaN included."""
    levels = []
    for ap, level, z in zip(world.aps, losses, noise):
        level = level + ap.noise_sigma * z + 0.5
        levels.append(0 if level >= 0.0 else math.floor(level) if level > RSSI_FLOOR else RSSI_FLOOR)
    return levels


def _level_rows(world: SimWorld, losses: list[list[float]], noise: np.ndarray, gather: list[int]) -> np.ndarray:
    """``_scan_levels`` of many scans at once, as model rows of their ``gather`` columns: row i holds the levels
    of ``losses[i]`` and of the draws in ``noise[i]``, and a column gathered from index ``len(world.aps)``
    reads MISSING_RSSI.  The steps are the scalar formula's, bit for bit: sigma times the draw, plus the
    loss, plus 0.5, floored, then ``fmax`` to RSSI_FLOOR (a NaN goes to the floor, as it does there) and
    ``fmin`` to 0."""
    levels = np.empty((len(noise), len(world.aps) + 1))
    level = levels[:, :-1]
    np.multiply(noise, [ap.noise_sigma for ap in world.aps], out=level)
    level += losses
    level += 0.5
    np.floor(level, out=level)
    np.fmax(level, RSSI_FLOOR, out=level)
    np.fmin(level, 0.0, out=level)
    levels[:, -1] = MISSING_RSSI
    return levels[:, gather]


# The trials' noise source: the generator of np.random.default_rng([seed, draw]) for many (seed, draw) lanes at
# once.  SeedSequence's pool mixing and generate_state(4, np.uint64) run in uint32 numpy arithmetic over the lanes,
# as their hash constants do not depend on the data; PCG64 seeds each lane drawn from its words through _Lane.
_LANE_SEEDS = 64  # consecutive seeds per memo block
_LANE_DRAWS = 16  # draws per seed in a block; a reference trial averages 7.5 fixes


class _Lane(ISeedSequence):
    """A lane's seed sequence: PCG64(_Lane(words)) is the bit generator default_rng([seed, draw]) builds, for the
    lane's words (a, b, c, d) from ``_lane_words``, a C-contiguous uint64 row, which PCG64 reads as it lies."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64:
            raise InvalidParameter(f"a lane holds the 4 uint64 words PCG64 asks for, not {n_words} of {dtype!r}")
        return self.words


def _hashmix(row: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of a uint32 row with the scalar hash constant ``const``, and the next constant."""
    row = row ^ np.uint32(const)
    const = const * mult & 0xFFFFFFFF
    row = row * np.uint32(const)
    return row ^ (row >> np.uint32(16)), const


def _lane_words(seeds, draws) -> np.ndarray:
    """SeedSequence([seed, draw]).generate_state(4, np.uint64) of each lane, a C-contiguous row per lane, for
    0 <= seed < 2**64 and 0 <= draw < 2**32; a lane's entropy is its seed's one or two words, then its draw's."""
    seeds, draws = np.asarray(seeds, np.uint64), np.asarray(draws, np.uint32)
    low, high = seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)
    words = np.zeros((len(seeds), 4), np.uint64)
    for lanes in filter(len, (np.flatnonzero(high == 0), np.flatnonzero(high))):  # the hash goes by the word count
        entropy = [low[lanes], high[lanes], draws[lanes]] if high[lanes[0]] else [low[lanes], draws[lanes]]
        pool, const = [], 0x43B0D7E5
        for row in entropy + [np.zeros(len(lanes), np.uint32)] * (4 - len(entropy)):
            row, const = _hashmix(row, const, 0x931E8875)
            pool.append(row)
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    row, const = _hashmix(pool[src], const, 0x931E8875)
                    row = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * row
                    pool[dst] = row ^ (row >> np.uint32(16))
        const = 0x8B51F9DD
        for k in range(8):  # little-endian pairs of uint32 words
            row, const = _hashmix(pool[k % 4], const, 0x58F38DED)
            words[lanes, k // 2] |= row.astype(np.uint64) << np.uint64(32 * (k % 2))
    return words


@lru_cache(maxsize=4)  # a run's trials touch its blocks in seed order; a block holds 32 KB of words
def _lane_block(block: int) -> np.ndarray:
    """The words of seeds block * 64 ... block * 64 + 63 by draws 0 ... 15, shape (64, 16, 4), C-contiguous and
    read-only, so each lane is a row ``_Lane`` can hand to PCG64."""
    seeds = np.arange(block * _LANE_SEEDS, (block + 1) * _LANE_SEEDS, dtype=np.uint64)
    words = _lane_words(seeds.repeat(_LANE_DRAWS), np.tile(np.arange(_LANE_DRAWS), _LANE_SEEDS)).reshape(_LANE_SEEDS, _LANE_DRAWS, 4)
    words.flags.writeable = False  # the cache hands it to every caller
    return words


def render_scan_text(snapshot: ScanSnapshot) -> str:
    """Format a snapshot in the scan-tool text grammar the parser consumes."""
    lines = []
    for i, entry in enumerate(snapshot.entries, start=1):
        quality = max(0, min(70, entry.rssi + 110))
        lines.append(f"          Cell {i:02d} - Address: {entry.mac}")
        lines.append(f'                    ESSID:"{entry.ssid}"')
        lines.append("                    Frequency:5.18 GHz (Channel 36)")
        lines.append(f"                    Quality={quality}/70  Signal level={entry.rssi} dBm")
    return "\n".join(lines) + "\n"


def _body_rates(robot: SimRobot, command: DriveCommand) -> tuple[float, float]:
    """(v, omega) from the gain-scaled wheel speeds; omega is 0.0 for straight motion."""
    vl = command.left_speed * robot.left_scale
    vr = command.right_speed * robot.right_scale
    omega = (vr - vl) / robot.wheel_base
    return 0.5 * (vl + vr), (omega if abs(omega) >= 1e-12 else 0.0)


def _wrap_heading(sin_theta: float, cos_theta: float) -> float:
    """The heading in (-pi, pi] with this sine and cosine."""
    theta = math.atan2(sin_theta, cos_theta)
    return math.pi if theta <= -math.pi else theta


def default_calibration(robot: SimRobot) -> DrivetrainCalibration:
    """Calibration a bench procedure would produce for this drivetrain.

    The veer bias equalizes the effective wheel speeds (left gain / right
    gain - 1, negative when the left wheel is the weak one); the 90-degree
    duration assumes the mean of the two gains on the driving wheel, so each
    pivot carries a small residual error when the gains differ - just like a
    stopwatch-calibrated turn.
    """
    veer_bias = robot.left_scale / robot.right_scale - 1.0
    mean_gain = 0.5 * (robot.left_scale + robot.right_scale)
    duration = (math.pi / 2.0) * robot.wheel_base / mean_gain
    return DrivetrainCalibration(veer_bias=veer_bias, turn_90_duration=duration)


def generate_synthetic_dataset(world: SimWorld, resamples: int = 3, seed: int | None = None):
    """Fingerprint dataset over walkable cell centers.

    Each cell is scanned ``resamples`` times (distinct draw indices), the
    scans are rendered to text and re-parsed (keeping the ingestion path
    honest), aggregated by per-AP median, and labelled with the cell center.
    Rows follow row-major cell order.
    """
    if resamples < 1:
        raise InvalidParameter("resamples must be >= 1")
    samples = []
    for i, cell in enumerate(world.grid.walkable_cells()):
        center = world.grid.cell_center(cell)
        reps = []
        for j in range(resamples):
            snapshot = simulate_scan(world, center, draw_index=i * resamples + j, seed=seed)
            entries = parse_scan_text(render_scan_text(snapshot))
            reps.append(ScanSnapshot(tuple(entries), center))
        samples.append(aggregate_resamples(reps))
    return build_dataset(samples)


def mean_fix_error(world: SimWorld, bundle: ModelBundle, draws_per_cell: int = 3, seed: int = 0) -> float:
    """Mean Euclidean error (feet) of model fixes over all walkable cell centers."""
    errors = []
    draw = 0
    for cell in world.grid.walkable_cells():
        center = world.grid.cell_center(cell)
        for _ in range(draws_per_cell):
            snapshot = simulate_scan(world, center, draw_index=draw, seed=seed)
            draw += 1
            estimate = predict_position(bundle, snapshot)
            errors.append(math.hypot(estimate.x - center[0], estimate.y - center[1]))
    return float(np.mean(errors))


@dataclass
class TrialResult:
    """Outcome record of one closed-loop navigation trial.

    ``robot`` is the drivetrain at its start pose.  ``events`` is the trial's
    only log, (kind, timestamp, payload) in time order: a ``"fix"`` (or, with
    no estimate, ``"nofix"``) per scan with payload ((true_x, true_y),
    estimate or None), and a ``"command"`` per emitted DriveCommand.
    """

    success: bool
    final_error: float
    robot: SimRobot
    events: list = field(default_factory=list)
    reason: str = ""
    seed: int = 0

    @property
    def trajectory(self) -> Iterator[tuple[float, float, float]]:
        """(x, y, heading): the start pose, then the pose after every integration substep, replayed
        from the command events through ``_command_poses`` and yielded a command at a time."""
        pose = self.robot.pose
        yield pose
        for kind, _, command in self.events:
            if kind == "command":
                poses = _command_poses(self.robot, command, pose)
                yield from zip(*poses[:, 1:].tolist())
                pose = tuple(poses[:, -1].tolist())


@lru_cache(maxsize=8)
def _substep_lengths(duration: float) -> np.ndarray:
    """The substeps of a ``duration``-second command: 0.01 s each, then the remainder."""
    steps, remaining = [], duration
    while remaining > 1e-12:
        steps.append(min(_SUBSTEP, remaining))
        remaining -= steps[-1]
    return np.frombuffer(np.array(steps).tobytes())  # read-only: the cache hands it to every caller


@lru_cache(maxsize=256)  # forward, turn and stop per leg of a route: 85 legs; commands of at most 10 s: 6 MB
def _increments(key: bytes) -> np.ndarray:
    """Read-only rows [0, dx...], [0, dy...], [theta, heading...] of a packed ``_POSE_KEY``, a column per
    substep; a straight step (omega == 0) keeps theta, a turn moves on an exact arc and wraps to (-pi, pi]."""
    v, omega, theta, duration = _POSE_KEY.unpack(key)
    h = _substep_lengths(duration)
    if not omega:
        rows = np.array([[0.0], [0.0], [theta]]).repeat(len(h) + 1, axis=1)
        np.multiply.outer((math.cos(theta), math.sin(theta)), v * h, out=rows[:2, 1:])
    else:
        dxs, dys, thetas = [0.0], [0.0], [theta]
        for dt in h.tolist():
            theta_next = theta + omega * dt
            radius = v / omega
            sin_next, cos_next = math.sin(theta_next), math.cos(theta_next)
            dxs.append(radius * (sin_next - math.sin(theta)))
            dys.append(-(radius * (cos_next - math.cos(theta))))
            theta = _wrap_heading(sin_next, cos_next)
            thetas.append(theta)
        rows = np.array((dxs, dys, thetas))
    rows.flags.writeable = False  # the cache hands it to every caller
    return rows


def _command_poses(robot: SimRobot, command: DriveCommand, pose) -> np.ndarray:
    """Rows x, y, heading: ``pose``, then the pose after each substep of ``command``.
    One ``np.add.accumulate`` from (x0, y0) along a copy of the memo's ``_increments``
    rows, or along the fresh rows of a command too long to keep, adds in the order of a
    per-substep loop ``x += dx``, bit for bit; since y - a == y + (-a), a turn's y row is
    the loop's ``y -= radius * (...)`` too."""
    key = _POSE_KEY.pack(*_body_rates(robot, command), pose[2], command.duration)
    poses = _increments(key).copy() if command.duration <= 10 else _increments.__wrapped__(key)  # a longer one is not kept
    poses.flags.writeable = True  # a copy, or fresh rows that own their data and that no one else holds
    poses[:2, 0] = pose[:2]
    np.add.accumulate(poses[:2], axis=1, out=poses[:2])
    return poses


def run_trial(
    world: SimWorld, bundle: ModelBundle | None, path: PlannedPath, nav_config: NavConfig | None = None, success_radius: float = 2.0,
    seed: int = 0, *, oracle: bool = False, calibration: DrivetrainCalibration | None = None, scan_period: float = 2.0,
) -> TrialResult:
    """One closed-loop navigation trial on a planned path: scan, predict, step, drive.

    The trial plans nothing: the robot starts at the center of the path's
    first cell facing along its first segment, and the goal is its last cell.
    Each iteration produces a fix (the model's estimate from a scan simulated
    at the true pose, or the true position when ``oracle``, which simulates
    no scan), feeds it to the navigation state machine and integrates the
    emitted command in substeps of at most 0.01 s with ``_command_poses``.
    The run (``_trials``) keeps a pose graph that its trials share: each
    true pose's path loss, the end pose of each command driven from it, and
    whether the path of commands to that pose kept every substep on walkable
    cells (``_all_walkable``), are derived once, when the move is first made,
    so a trial drives a known move without integrating or checking it; a run
    of one trial, as here, starts it empty.  The trial ends on Done, Aborted,
    or after ``_MAX_FIXES`` fixes.  Success means Done with the true
    position within ``success_radius`` ft of the goal center and no substep
    off walkable cells; ``success_radius`` and ``scan_period`` must be finite
    and positive, and small enough that the trial clock stays finite; an
    empty path raises EmptyPath.
    """
    return _trials(world, bundle, path, nav_config, success_radius, oracle=oracle, calibration=calibration, scan_period=scan_period)([seed])[0]


class _Trial:
    """A trial's progress in a lockstep run: its seed and noise key, navigation state, event log, node,
    clock, end reason so far and noise-lane words."""

    __slots__ = ("seed", "key", "state", "events", "here", "clock", "reason", "lanes")

    def __init__(self, seed: int, state: NavState, here: tuple):
        self.seed, self.key, self.state, self.events, self.here = seed, seed & _SEED_MASK, state, [], here
        self.clock, self.reason, self.lanes = 0.0, "fix_budget", None


def _trials(world, bundle, path, nav_config=None, success_radius=2.0, *, oracle=False, calibration=None, scan_period=2.0):
    """``run_trial`` as a function of a list of seeds, whose trials advance in lockstep: the checks and
    everything a run's trials share are derived once, then each call runs its seeds' trials a fix at a time."""
    require_positive(success_radius=success_radius, scan_period=scan_period)
    if not math.isfinite(_MAX_FIXES * (scan_period + MAX_DURATION)):
        raise InvalidParameter(f"scan_period {scan_period} s overflows the clock of a {_MAX_FIXES}-fix trial")
    if bundle is None and not oracle:
        raise InvalidParameter("a model bundle is required unless oracle localization is enabled")
    config = nav_config or NavConfig()
    heading = first_segment_heading(path)
    checkpoints = extract_checkpoints(path, heading)
    cal = calibration or default_calibration(world.robot)
    start = NavState.initial(checkpoints, config, cal, world.grid.cell_size)

    grid = world.grid
    sx, sy = grid.cell_center(path.cells[0])
    gx, gy = grid.cell_center(path.cells[-1])
    robot = replace(world.robot, x=sx, y=sy, heading=math.atan2(heading.vector[1], heading.vector[0]))

    # The kept columns as indices into world.aps, len(world.aps) for one not in this world,
    # which reads MISSING_RSSI.  Each fix feeds its scan levels (_scan_levels, or a round's
    # _level_rows), with the noise of the seed's lanes (what default_rng([seed, draw])
    # draws, bit for bit), straight to _predict_rows without the ScanEntry and ScanSnapshot
    # checks, which hold already: AccessPointSim checks its MAC, SimWorld refuses duplicate
    # MACs and both level paths clamp each level to [RSSI_FLOOR, 0].  With no kept column in
    # the world every fix is a "nofix", as predict_position refuses it.
    index = {ap.mac: i for i, ap in enumerate(world.aps)}
    columns = [] if oracle else [index.get(mac, len(index)) for mac in bundle.selection.kept_columns]
    known = len(index) > min(columns, default=len(index))

    # The run's pose graph, a tree of command sequences.  A true pose is a pure function of the commands driven from
    # the start pose, so the trials drive the same few sequences again and again.  A node is a pose's (x, y, heading,
    # path loss, moves, walkable); its path loss is None off the map, and () when no fix needs it; walkable says
    # whether every substep on its one path from the start stayed on walkable cells, which a node off the map has not.
    # A move is (command, end node), keyed by the command's identity (2 == 2.0; the move holds the command, so its id
    # stays its own), and makes a fresh end node.  Tickets bound the graph: the first _GRAPH_MOVES moves are kept.
    # Threads that race on one miss may each build its move: the two end nodes are equal, and each took a ticket.
    # What a node holds does not depend on which trial made it, so neither does any trial.
    tickets = itertools.count()

    def node(x: float, y: float, theta: float, walkable: bool) -> tuple:
        if not grid.contains_point(x, y):
            return (x, y, theta, None, {}, False)
        return (x, y, theta, _path_loss(world, x, y) if known else (), {}, walkable)

    def add_move(here: tuple, command: DriveCommand) -> tuple:
        """The move of ``command`` from ``here``, integrated and checked, kept in the graph while it has room."""
        poses = _command_poses(robot, command, here[:3])
        move = (command, node(*poses[:, -1].tolist(), here[5] and _all_walkable(grid, poses[:2])))
        if next(tickets) < _GRAPH_MOVES:
            here[4][id(command)] = move
        return move

    origin = node(*robot.pose, True)

    def run(seeds) -> list[TrialResult]:
        """The trials of ``seeds``, in their order.  Round k is every active trial's fix k: first the round's
        scan levels and model rows, two or more in one array (``_level_rows``) and a lone one by the scalar
        ``_scan_levels``, then one ``_predict_rows`` call for the rows (a lone row as a row, no call without
        one), then each trial in turn records its fix, steps and drives.  A trial leaves the rounds as its
        lone loop would end: off the map, Done or Aborted, or after ``_MAX_FIXES`` fixes."""
        trials = [_Trial(seed, start, origin) for seed in seeds]
        active = trials
        for draw_index in range(_MAX_FIXES):
            scanning, words = [], []
            for trial in active:
                if trial.here[3] is None:
                    trial.reason = "left_map"
                    continue
                trial.clock += scan_period
                scanning.append(trial)
                if known:  # the words of draws 0, 1, ...: the block's row of 16, then all _MAX_FIXES in one array
                    if draw_index == 0:
                        trial.lanes = _lane_block(trial.key // _LANE_SEEDS)[trial.key % _LANE_SEEDS]
                    elif draw_index == _LANE_DRAWS:  # one call: its cost hardly depends on its lanes
                        more = _lane_words([trial.key] * (_MAX_FIXES - _LANE_DRAWS), range(_LANE_DRAWS, _MAX_FIXES))
                        trial.lanes = np.concatenate((trial.lanes, more))
                    words.append(trial.lanes[draw_index])
            if words:  # each lane's draws from its own generator, seeded from its words
                if len(words) == 1:  # a lone row: the scalar formula, as a vector
                    noise = np.random.Generator(np.random.PCG64(_Lane(words[0]))).standard_normal(len(index))
                    levels = _scan_levels(world, scanning[0].here[3], noise.tolist())
                    levels.append(MISSING_RSSI)
                    fixes = _predict_rows(bundle, np.array([float(levels[i]) for i in columns]))
                else:  # one array: a row of draws per lane, then the levels of them all
                    noise = np.empty((len(words), len(index)))
                    for row, lane in zip(noise, words):  # standard_normal(len(index))'s draws, bit for bit
                        np.random.Generator(np.random.PCG64(_Lane(lane))).standard_normal(out=row)
                    fixes = _predict_rows(bundle, _level_rows(world, [trial.here[3] for trial in scanning], noise, columns))
            else:  # the true positions, or no model row at all
                fixes = [trial.here[:2] if oracle else None for trial in scanning]
            active = []
            for trial, fix in zip(scanning, fixes):
                here = trial.here
                trial.events.append(("fix" if fix is not None else "nofix", trial.clock, (here[:2], fix)))
                trial.state, command = nav_step(trial.state, fix)
                if command is not None:
                    trial.events.append(("command", trial.clock, command))
                    trial.here = (here[4].get(id(command)) or add_move(here, command))[1]
                    trial.clock += command.duration
                if trial.state.mode in (Mode.DONE, Mode.ABORTED):
                    trial.reason = trial.state.mode.value
                else:
                    active.append(trial)
            if not active:
                break
        return [finish(trial) for trial in trials]

    def finish(trial: _Trial) -> TrialResult:
        final_error = math.hypot(trial.here[0] - gx, trial.here[1] - gy)
        reason = trial.reason if trial.here[5] else trial.reason + "+left_walkable"
        return TrialResult(reason == "done" and final_error <= success_radius, final_error, robot, trial.events, reason, trial.seed)

    return run


def _all_walkable(grid: GridMap, rows: np.ndarray) -> bool:
    """Whether every column of the 2 x n x/y ``rows`` lies on a walkable cell.  The cells are divided into a
    fresh array and floored in place; a bounds test on each row's least and greatest cell, which a NaN fails,
    skips the lookup by one flat index row when it fails."""
    cells = np.divide(rows, grid.cell_size)
    np.floor(cells, out=cells)
    (left, bottom), (right, top) = cells.min(axis=1).tolist(), cells.max(axis=1).tolist()
    if not (left >= 0 and bottom >= 0 and right < grid.width and top < grid.height):
        return False
    cells[1] *= grid.width  # exact: both are integers below the cell count
    cells[1] += cells[0]
    return bool(grid.walkable.ravel()[cells[1].astype(np.intp)].all())


def corner_success_rate(
    world: SimWorld,
    bundle: ModelBundle | None,
    trials: int,
    base_seed: int = 0,
    start=None,
    goal=None,
    **trial_kwargs,
) -> tuple[float, list[TrialResult]]:
    """Success fraction over seeded trials on one route, planned once with A*.

    Every trial drives that one path from its first cell, so all share the run's derived start
    (``_trials``), commands and substep increments; they use seeds base_seed .. base_seed + trials - 1,
    and the default route is the reference world's corner run.  The seeds run in this process, by
    ``_SEEDS_PER_CALL`` consecutive seeds to a call of the run's runner, whose trials advance in lockstep;
    if a call raises, its seeds run again alone and in order, so the error raised is the serial loop's first.
    """
    if trials < 1:
        raise InvalidParameter("trials must be >= 1")
    start = REFERENCE_START if start is None else start
    goal = REFERENCE_GOAL if goal is None else goal
    path = astar(world.grid, start, goal)
    run = _trials(world, bundle, path, **trial_kwargs)
    results, stop = [], base_seed + trials
    for first in range(base_seed, stop, _SEEDS_PER_CALL):
        seeds = range(first, min(first + _SEEDS_PER_CALL, stop))
        try:
            results += run(seeds)
        except Exception:
            for seed in seeds:  # a round can fail at a higher seed first
                run([seed])
            raise
    rate = sum(r.success for r in results) / trials
    return rate, results


# ---------------------------------------------------------------------------
# Reference world: an L-shaped corridor of 95 one-foot cells inside a 12x12
# bounding box (two 5 ft wide, 12 ft long legs), six APs, and a robot with a
# mild left veer.  Entirely synthetic; every parameter is configurable.
#
# The bundled corner route runs the south hall and turns 90 degrees at its
# southeast wall corner; the trial noise level REFERENCE_TRIAL_SIGMA is
# calibrated so single-scan fixes carry a mean error near the high-noise
# regime the navigation loop is designed for.

REFERENCE_START = (0, 0)
REFERENCE_GOAL = (11, 3)
REFERENCE_TRIAL_SIGMA = 2.0


def reference_world(noise_sigma: float = 2.0, rng_seed: int = 7) -> SimWorld:
    mask = np.zeros((12, 12), dtype=bool)
    mask[:, :5] = True  # west leg
    mask[:5, :] = True  # south leg
    grid = GridMap(12, 12, 1.0, mask)
    positions = [(0.5, 0.5), (11.5, 0.5), (0.5, 11.5), (11.5, 11.5), (6.0, 0.5), (0.5, 6.0)]
    aps = tuple(
        AccessPointSim(f"02:00:00:00:00:{i + 1:02X}", "LabNet", pos, p0=-40.0, path_loss_exponent=3.0, noise_sigma=noise_sigma)
        for i, pos in enumerate(positions)
    )
    robot = SimRobot(x=0.5, y=0.5, heading=0.0, wheel_base=0.4, left_scale=0.99, right_scale=1.0)
    return SimWorld(grid, aps, robot, rng_seed=rng_seed)


# ---------------------------------------------------------------------------
# World description file: the grid-map text format followed by one line per
# AP, a robot line, and optional seed / refdist lines.  SSIDs in world files
# must not contain whitespace.


def save_world(world: SimWorld, sink) -> None:
    """Write a world file to an open text file, or atomically to a path."""
    with open_sink(sink) as fh:
        fh.write(world.grid.to_text())
        for ap in world.aps:
            fh.write(
                f"ap {ap.mac} {ap.ssid} {format_number(ap.position[0])} {format_number(ap.position[1])} "
                f"{format_number(ap.p0)} {format_number(ap.path_loss_exponent)} {format_number(ap.noise_sigma)}\n"
            )
        r = world.robot
        fh.write(
            f"robot {format_number(r.x)} {format_number(r.y)} {r.heading!r} "
            f"{format_number(r.wheel_base)} {format_number(r.left_scale)} {format_number(r.right_scale)}\n"
        )
        fh.write(f"seed {world.rng_seed}\n")
        fh.write(f"refdist {format_number(world.reference_distance)}\n")


def load_world(source) -> SimWorld:
    """Parse a world file from a path or an open text file; any malformed,
    non-UTF-8 or non-finite input raises WorldFormatError."""
    return _parse_world(read_text(source, WorldFormatError, "world file"))


def _parse_world(text: str) -> SimWorld:
    try:
        grid, rest = GridMap.consume_lines(text.splitlines())
    except MapFormatError as exc:
        raise WorldFormatError(f"bad grid block: {exc}") from exc
    aps: list[AccessPointSim] = []
    robot: SimRobot | None = None
    seed = 0
    refdist = 1.0
    counts = {"ap": 7, "robot": 6, "seed": 1, "refdist": 1}  # fields after the directive word
    seen = set()
    for line in rest:
        fields = line.split()
        if not fields:
            continue
        kind = fields[0]
        if kind not in counts:
            raise WorldFormatError(f"unknown directive {kind!r}")
        if len(fields) != counts[kind] + 1:
            raise WorldFormatError(f"{kind} line needs {counts[kind]} field{'s' if counts[kind] > 1 else ''}: {line!r}")
        if kind != "ap" and kind in seen:  # any number of APs, every other directive at most once
            raise WorldFormatError(f"bad world line {line!r}: a second {kind} line")
        seen.add(kind)
        try:
            if kind == "ap":
                mac, ssid = fields[1].upper(), fields[2]
                x, y, p0, n, sigma = finite_floats(fields[3:8])
                aps.append(AccessPointSim(mac, ssid, (x, y), p0, n, sigma))
            elif kind == "robot":
                x, y, heading, wheel_base, left, right = finite_floats(fields[1:7])
                robot = SimRobot(x, y, heading, wheel_base, left, right)
            elif kind == "seed":
                seed = int(fields[1])
                check_seed(seed)
            else:
                (refdist,) = finite_floats(fields[1:2])
        except ValueError as exc:
            raise WorldFormatError(f"bad world line {line!r}: {exc}") from exc
    if robot is None:
        raise WorldFormatError("world file has no robot line")
    try:
        return SimWorld(grid, tuple(aps), robot, seed, refdist)
    except InvalidParameter as exc:
        raise WorldFormatError(str(exc)) from exc
