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

import contextlib
import math
import os
import pickle
import signal
import struct
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import InvalidParameter, OutOfBounds, ToolkitError, check_seed, require_positive
from .fileio import finite_floats, format_number, open_sink, read_text
from .model import ModelBundle, _predict_vector, predict_position
from .navctl import DriveCommand, DrivetrainCalibration, Mode, NavConfig, NavState, nav_step
from .planner import GridMap, MapFormatError, PlannedPath, astar, extract_checkpoints, first_segment_heading
from .scan_ingest import MISSING_RSSI, RSSI_FLOOR, ScanEntry, ScanSnapshot, _canonical_mac, aggregate_resamples, build_dataset, parse_scan_text

_SUBSTEP = 0.01  # seconds; kinematic integration granularity
_POSE_KEY = struct.Struct("<4d")  # a memo key (v, omega, start heading, duration), bit for bit: -0.0 is not 0.0
_MAX_FIXES = 500  # fixes after which a trial ends as "fix_budget"
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
    levels = _scan_levels(world, x, y, draw_index, world.rng_seed if seed is None else seed)
    return ScanSnapshot(tuple(ScanEntry(ap.mac, ap.ssid, rssi) for ap, rssi in zip(world.aps, levels)))


def _scan_levels(world: SimWorld, x: float, y: float, draw_index: int, seed: int) -> list[int]:
    """The RSSI formula: each AP's level in integer dBm at (x, y), in ``world.aps`` order."""
    noise = np.random.default_rng([seed & _SEED_MASK, draw_index & _SEED_MASK]).standard_normal(len(world.aps)).tolist()
    levels = []
    for ap, z in zip(world.aps, noise):
        d = max(math.hypot(x - ap.position[0], y - ap.position[1]), world.reference_distance)
        level = ap.p0 - 10.0 * ap.path_loss_exponent * math.log10(d / world.reference_distance)
        level += ap.noise_sigma * z
        levels.append(math.floor(min(0.0, max(RSSI_FLOOR, level + 0.5))))
    return levels


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


@lru_cache(maxsize=8)  # run_trial asks once per trial for the same frozen robot
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
    success_radius: float = 0.0
    seed: int = 0

    @property
    def trajectory(self) -> list[tuple[float, float, float]]:
        """(x, y, heading): the start pose, then the pose after every integration
        substep, replayed from the command events through ``_command_poses``."""
        poses = [self.robot.pose]
        for kind, _, command in self.events:
            if kind == "command":
                poses.extend(zip(*_command_poses(self.robot, command, poses[-1])[:, 1:].tolist()))
        return poses


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
    One ``np.add.accumulate`` along a copy of the ``_increments`` rows from (x0, y0)
    adds in the order of a per-substep loop ``x += dx``, bit for bit; since y - a ==
    y + (-a), a turn's y row is the loop's ``y -= radius * (...)`` too."""
    memo = _increments if command.duration <= 10 else _increments.__wrapped__  # a longer one is not kept
    poses = memo(_POSE_KEY.pack(*_body_rates(robot, command), pose[2], command.duration)).copy()
    poses[:2, 0] = pose[:2]
    np.add.accumulate(poses[:2], axis=1, out=poses[:2])
    return poses


@lru_cache(maxsize=8)
def _route(path: PlannedPath) -> tuple:
    """The path's first-segment heading and its checkpoints from it, once per frozen path."""
    heading = first_segment_heading(path)
    return heading, extract_checkpoints(path, heading)


def run_trial(
    world: SimWorld,
    bundle: ModelBundle | None,
    path: PlannedPath,
    nav_config: NavConfig | None = None,
    success_radius: float = 2.0,
    seed: int = 0,
    *,
    oracle: bool = False,
    calibration: DrivetrainCalibration | None = None,
    scan_period: float = 2.0,
) -> TrialResult:
    """One closed-loop navigation trial on a planned path: scan, predict, step, drive.

    The trial plans nothing: the robot starts at the center of the path's
    first cell facing along its first segment, and the goal is its last cell.
    Each iteration produces a fix (the model's estimate from a scan simulated
    at the true pose, or the true position when ``oracle``, which simulates
    no scan), feeds it to the navigation state machine and integrates the
    emitted command in substeps of at most 0.01 s with ``_command_poses``,
    checking them all for walkable cells at once.  The trial ends on Done,
    Aborted, or after ``_MAX_FIXES`` fixes.  Success means Done with the true
    position within ``success_radius`` ft of the goal center and no substep
    off walkable cells; ``success_radius`` and ``scan_period`` must be finite
    and positive, and an empty path raises EmptyPath.
    """
    require_positive(success_radius=success_radius, scan_period=scan_period)
    if bundle is None and not oracle:
        raise InvalidParameter("a model bundle is required unless oracle localization is enabled")
    config = nav_config or NavConfig()
    heading, checkpoints = _route(path)
    cal = calibration or default_calibration(world.robot)
    state = NavState.initial(checkpoints, config, cal, world.grid.cell_size)

    grid = world.grid
    limits = np.array([[grid.width], [grid.height]])
    sx, sy = grid.cell_center(path.cells[0])
    gx, gy = grid.cell_center(path.cells[-1])
    robot = replace(world.robot, x=sx, y=sy, heading=math.atan2(heading.vector[1], heading.vector[0]))

    # The kept columns as indices into world.aps (None: not in this world), found once.
    # Each fix feeds _scan_levels straight to _predict_vector without the ScanEntry and
    # ScanSnapshot checks, which hold already: AccessPointSim checks its MAC, SimWorld
    # refuses duplicate MACs and _scan_levels clamps each level to [RSSI_FLOOR, 0].  With
    # no kept column in the world every fix is a "nofix", as predict_position refuses it.
    index = {ap.mac: i for i, ap in enumerate(world.aps)}
    columns = [] if oracle else [index.get(mac) for mac in bundle.selection.kept_columns]
    known = any(i is not None for i in columns)

    events = []
    x, y, theta = robot.pose
    on_walkable = True
    clock = 0.0
    reason = "fix_budget"
    for draw_index in range(_MAX_FIXES):
        if not grid.contains_point(x, y):
            on_walkable = False
            reason = "left_map"
            break
        clock += scan_period
        if oracle:
            fix = (x, y)
        elif known:
            levels = _scan_levels(world, x, y, draw_index, seed)
            fix = _predict_vector(bundle, np.array([MISSING_RSSI if i is None else float(levels[i]) for i in columns]))
        else:
            fix = None
        events.append(("fix" if fix is not None else "nofix", clock, ((x, y), fix)))
        state, command = nav_step(state, fix)
        if command is not None:
            events.append(("command", clock, command))
            poses = _command_poses(robot, command, (x, y, theta))
            x, y, theta = poses[:, -1].tolist()
            cells = np.floor(poses[:2] / grid.cell_size)
            if not (((cells >= 0) & (cells < limits)).all() and grid.walkable[cells[1].astype(int), cells[0].astype(int)].all()):
                on_walkable = False
            clock += command.duration
        if state.mode in (Mode.DONE, Mode.ABORTED):
            reason = state.mode.value
            break
    final_error = math.hypot(x - gx, y - gy)
    if not on_walkable:
        reason += "+left_walkable"
    success = reason == "done" and final_error <= success_radius
    return TrialResult(success, final_error, robot, events, reason, success_radius, seed)


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

    Every trial drives that one path from its first cell, so all share their commands and substep
    increments; they use seeds base_seed .. base_seed + trials - 1, and the default route is the
    reference world's corner run.  Trials go by ticket to the CPUs in the affinity mask, trial 0 to
    this process (``_map_trials``); the results and every output are a serial run's, byte for byte.
    """
    if trials < 1:
        raise InvalidParameter("trials must be >= 1")
    start = REFERENCE_START if start is None else start
    goal = REFERENCE_GOAL if goal is None else goal
    path = astar(world.grid, start, goal)
    results = _map_trials(lambda i: run_trial(world, bundle, path, seed=base_seed + i, **trial_kwargs), trials)
    rate = sum(r.success for r in results) / trials
    return rate, results


def _map_trials(trial, count: int) -> list:
    """``[trial(i) for i in range(count)]`` on the CPUs in the affinity mask, by ticket: at most 1,024 tickets
    of ceil(count / 1024) indices, in one 4 KiB write that never blocks.  This process takes ticket 0, then forks
    a child per other CPU; each takes a ticket at a time, a child until its first failure, then pipes back one
    pickle of {index: result} and ends in ``os._exit``.  An index without a result runs here in order, so errors
    are the serial loop's; a failure here kills the children first."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1
    block = -(-count // 1024) or 1
    tickets = range(-(-count // block))
    results, pids = {}, []
    fds = list(os.pipe())  # open pipe ends: the tickets' read end, its write end, then one read end per child
    try:
        os.write(fds[1], b"".join(k.to_bytes(4, "little") for k in tickets))
        os.close(fds.pop())  # with the write end closed, a read past the last ticket returns b"" at once
        first = os.read(fds[0], 4)
        for _ in range(min(cpus, len(tickets)) - 1):
            fds += os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    with contextlib.suppress(Exception):  # i stays without a result: the parent runs it again
                        for i in _claimed(fds[0], os.read(fds[0], 4), block, count):
                            results[i] = trial(i)  # results is empty here: no trial runs before the forks
                    view = memoryview(pickle.dumps(results))
                    while view:
                        view = view[os.write(fds[-1], view) :]
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
            os.close(fds.pop())  # the write end: EOF comes when the child exits
        try:
            for i in _claimed(fds[0], first, block, count):
                results[i] = trial(i)
        except Exception:
            for pid in pids:  # reaped below
                os.kill(pid, signal.SIGKILL)
            for lower in range(i):  # a lower index's error comes first, as in the serial loop
                if lower not in results:
                    trial(lower)
            raise
        for pid, read_end in zip(pids[:], fds[1:]):
            data = b"".join(iter(lambda: os.read(read_end, 1 << 16), b""))  # to EOF before waitpid: it can outgrow the pipe buffer
            status = os.waitpid(pid, 0)[1]
            pids.remove(pid)
            if status == 0:
                results.update(pickle.loads(data))
        return [results[i] if i in results else trial(i) for i in range(count)]
    finally:  # on every exit path: no open pipe end, no unreaped child
        for fd in fds:
            os.close(fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _claimed(tickets: int, ticket: bytes, block: int, count: int):
    """The indices of ``ticket``, then of each ticket read from ``tickets`` until none is left."""
    while ticket:
        start = int.from_bytes(ticket, "little") * block
        yield from range(start, min(start + block, count))
        ticket = os.read(tickets, 4)


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
