import io
import math
import os
import pickle
import re
import signal
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rssinav import rfsim
from rssinav.errors import InvalidParameter, OutOfBounds
from rssinav.features import denormalize_coords
from rssinav.model import NoKnownAccessPoints, PositionEstimate, TrainConfig, forward, prepare_features
from rssinav.navctl import MAX_DURATION, DriveCommand, DrivetrainCalibration, Mode, NavConfig, NavState, nav_step, turn_command
from rssinav.planner import EmptyPath, GridMap, NoPath, PlannedPath, astar
from rssinav.rfsim import (
    REFERENCE_GOAL,
    REFERENCE_START,
    AccessPointSim,
    SimRobot,
    SimWorld,
    WorldFormatError,
    corner_success_rate,
    default_calibration,
    generate_synthetic_dataset,
    load_world,
    mean_fix_error,
    reference_world,
    render_scan_text,
    run_trial,
    save_world,
    simulate_scan,
    with_noise_sigma,
)
from rssinav.rfsim import _MAX_FIXES, _body_rates, _command_poses, _route
from rssinav.scan_ingest import MISSING_RSSI, RSSI_FLOOR, ScanEntry, ScanSnapshot, parse_scan_text

MAC = "02:00:00:00:00:01"


def open_world(aps, robot=None, size=10, seed=0):
    grid = GridMap(size, size, 1.0)
    return SimWorld(grid, tuple(aps), robot or SimRobot(x=1.0, y=1.0), rng_seed=seed)


class TestSimulateScan:
    def test_rssi_at_reference_distance_is_p0(self):
        world = open_world([AccessPointSim(MAC, "Net", (1.0, 1.0), p0=-40.0, noise_sigma=0.0)])
        snap = simulate_scan(world, (1.0, 1.0))
        assert snap.rssi_by_mac()[MAC] == -40

    def test_decade_of_distance_drops_20db_at_n2(self):
        world = open_world([AccessPointSim(MAC, "Net", (0.0, 1.0), p0=-40.0, path_loss_exponent=2.0, noise_sigma=0.0)])
        snap = simulate_scan(world, (10.0, 1.0))
        assert snap.rssi_by_mac()[MAC] == -60

    def test_distance_clamped_at_reference(self):
        world = open_world([AccessPointSim(MAC, "Net", (1.0, 1.0), p0=-40.0, noise_sigma=0.0)])
        snap = simulate_scan(world, (1.2, 1.0))  # inside the reference distance
        assert snap.rssi_by_mac()[MAC] == -40

    def test_same_seed_and_draw_identical(self):
        aps = [AccessPointSim(f"02:00:00:00:00:0{i}", "Net", (1.0 + i, 2.0), noise_sigma=8.0) for i in range(1, 4)]
        world = open_world(aps)
        assert simulate_scan(world, (5.0, 5.0), draw_index=4) == simulate_scan(world, (5.0, 5.0), draw_index=4)
        assert simulate_scan(world, (5.0, 5.0), draw_index=4) != simulate_scan(world, (5.0, 5.0), draw_index=5)
        assert simulate_scan(world, (5.0, 5.0), seed=1) != simulate_scan(world, (5.0, 5.0), seed=2)

    def test_weakest_levels_clamp_to_the_rssi_floor(self):
        # the weakest legal AP, 140 ft away: -150 - 100 log10(140) is about -365 dBm
        world = open_world([AccessPointSim(MAC, "Net", (0.5, 0.5), p0=-150.0, path_loss_exponent=10.0, noise_sigma=0.0)], size=100)
        assert simulate_scan(world, (99.5, 99.5)).rssi_by_mac()[MAC] == RSSI_FLOOR
        assert simulate_scan(world, (3.5, 0.5)).rssi_by_mac()[MAC] == -198  # above the floor: rounded, not clamped

    def test_out_of_bounds_position_rejected(self):
        world = open_world([AccessPointSim(MAC, "Net", (2.0, 2.0))])
        with pytest.raises(OutOfBounds):
            simulate_scan(world, (11.0, 1.0))

    def test_rssi_strictly_decreasing_with_distance_without_noise(self):
        world = open_world([AccessPointSim(MAC, "Net", (0.5, 0.5), p0=-40.0, path_loss_exponent=3.0, noise_sigma=0.0)])
        levels = [simulate_scan(world, (0.5 + d, 0.5)).rssi_by_mac()[MAC] for d in (1.5, 3.0, 5.0, 7.5, 9.0)]
        assert all(a > b for a, b in zip(levels, levels[1:]))

    @pytest.mark.parametrize("seed, draw_index", [(0, 0), (7, 41), (2**63 + 5, 3), (2**64 - 1, 2**70), (123, -1), (-9, -200)])
    def test_noise_is_one_scalar_draw_per_ap(self, seed, draw_index):
        aps = [AccessPointSim(f"02:00:00:00:00:0{i}", "Net", (1.0 + i, 2.0), p0=-100.0, noise_sigma=20.0) for i in range(1, 7)]
        world = open_world(aps)
        mask = (1 << 63) - 1
        rng = np.random.default_rng([seed & mask, draw_index & mask])
        expected = []
        for ap in aps:
            d = max(math.hypot(5.0 - ap.position[0], 5.0 - ap.position[1]), 1.0)
            level = ap.p0 - 10.0 * ap.path_loss_exponent * math.log10(d) + ap.noise_sigma * rng.standard_normal()
            expected.append(math.floor(min(0.0, max(RSSI_FLOOR, level + 0.5))))
        assert [entry.rssi for entry in simulate_scan(world, (5.0, 5.0), draw_index, seed).entries] == expected

    def test_rendered_text_parses_back_to_the_snapshot(self):
        world = open_world(
            [AccessPointSim(MAC, "LabNet", (2.0, 2.0), noise_sigma=2.0), AccessPointSim("02:00:00:00:00:02", "LabNet", (8.0, 8.0))]
        )
        snap = simulate_scan(world, (4.0, 4.0), draw_index=1)
        entries = parse_scan_text(render_scan_text(snap))
        assert tuple(entries) == snap.entries

    @settings(max_examples=200, deadline=None)
    @given(
        aps=st.lists(
            st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(-150.0, 0.0), st.floats(0.1, 10.0), st.floats(0.0, 50.0)),
            min_size=0,
            max_size=6,
        ),
        position=st.tuples(st.floats(0.0, 10.0, exclude_max=True), st.floats(0.0, 10.0, exclude_max=True)),
        draw_index=st.integers(-(2**70), 2**70),
        seed=st.none() | st.integers(0, 2**70),
        reference_distance=st.floats(0.1, 20.0),
    )
    def test_matches_the_verbatim_old_formula(self, aps, position, draw_index, seed, reference_distance):
        aps = [AccessPointSim(f"02:00:00:00:00:{i:02X}", "Net", (x, y), p0, n, sigma) for i, (x, y, p0, n, sigma) in enumerate(aps)]
        world = replace(open_world(aps, seed=3), reference_distance=reference_distance)
        snapshot = simulate_scan(world, position, draw_index, seed)
        expected = reference_simulate_scan(world, position, draw_index, seed)
        assert snapshot == expected and repr(snapshot) == repr(expected)


def reference_simulate_scan(world, position, draw_index=0, seed=None):
    """simulate_scan before its RSSI formula moved into _scan_levels, verbatim."""
    x, y = float(position[0]), float(position[1])
    if not world.grid.contains_point(x, y):
        raise OutOfBounds(f"scan position ({x}, {y}) is outside the map")
    seeds = [(world.rng_seed if seed is None else seed) & rfsim._SEED_MASK, draw_index & rfsim._SEED_MASK]
    noise = np.random.default_rng(seeds).standard_normal(len(world.aps)).tolist()
    entries = []
    for ap, z in zip(world.aps, noise):
        d = max(math.hypot(x - ap.position[0], y - ap.position[1]), world.reference_distance)
        level = ap.p0 - 10.0 * ap.path_loss_exponent * math.log10(d / world.reference_distance)
        level += ap.noise_sigma * z
        rssi = math.floor(min(0.0, max(RSSI_FLOOR, level + 0.5)))
        entries.append(ScanEntry(ap.mac, ap.ssid, rssi))
    return ScanSnapshot(tuple(entries))


def straight(speed, duration=1.0):
    return DriveCommand(speed, speed, duration, "forward")


def end_pose(robot, command):
    """The pose after ``command`` from the robot's own pose, by ``_command_poses``."""
    return tuple(_command_poses(robot, command, robot.pose)[:, -1].tolist())


class TestRobotKinematics:
    def test_straight_line(self):
        robot = SimRobot(x=1.0, y=2.0, heading=0.0, wheel_base=0.5)
        x, y, heading = end_pose(robot, straight(1.5, 2.0))
        assert x == pytest.approx(4.0, abs=1e-9)
        assert y == pytest.approx(2.0, abs=1e-9)
        assert heading == 0.0

    def test_straight_motion_preserves_heading_bit_exactly(self):
        robot = SimRobot(x=0.0, y=0.0, heading=0.7345, wheel_base=0.5)
        assert end_pose(robot, straight(1.0, 3.7))[2] == 0.7345

    def test_pure_pivot_keeps_position(self):
        robot = SimRobot(x=3.0, y=3.0, heading=0.5, wheel_base=0.5)
        x, y, heading = end_pose(robot, DriveCommand(-1.0, 1.0, 1.0, "spin"))
        assert math.hypot(x - 3.0, y - 3.0) < 1e-6
        assert heading != robot.heading

    def test_weak_left_wheel_drifts_left(self):
        robot = SimRobot(x=0.0, y=0.0, heading=0.0, wheel_base=0.5, left_scale=0.95, right_scale=1.0)
        assert end_pose(robot, straight(1.0))[2] > 0.0  # positive omega = counterclockwise = left veer

    def test_heading_wraps_into_half_open_interval(self):
        robot = SimRobot(heading=3.0, wheel_base=0.5)
        assert -math.pi < end_pose(robot, DriveCommand(-1.0, 1.0, 1.0, "spin"))[2] <= math.pi

    def test_two_calibrated_right_turns_reverse_heading(self):
        robot = SimRobot(x=5.0, y=5.0, heading=0.7, wheel_base=0.4)  # unit gains
        turn = turn_command("right", default_calibration(robot))
        once = end_pose(robot, turn)
        twice = end_pose(replace(robot, x=once[0], y=once[1], heading=once[2]), turn)
        delta = math.atan2(math.sin(twice[2] - robot.heading), math.cos(twice[2] - robot.heading))
        assert abs(abs(delta) - math.pi) < 1e-6

    def test_calibration_cancels_veer(self):
        robot = SimRobot(x=0.0, y=0.0, heading=0.0, wheel_base=0.4, left_scale=0.9, right_scale=1.0)
        cal = default_calibration(robot)
        _, y, heading = end_pose(robot, DriveCommand(1.0, 1.0 * (1.0 + cal.veer_bias), 4.0, "forward"))
        assert heading == pytest.approx(0.0, abs=1e-9)
        assert y == pytest.approx(0.0, abs=1e-9)

    # side is +1 for the left wheel, -1 for the right: the inner wheel of the turn
    @pytest.mark.parametrize("direction, side", [("right", -1.0), ("left", 1.0)])
    def test_calibrated_turn_pivots_about_the_still_inner_wheel(self, direction, side):
        robot = SimRobot(x=5.0, y=5.0, heading=0.7, wheel_base=0.4, left_scale=0.95, right_scale=1.05)
        x, y, heading = _command_poses(robot, turn_command(direction, default_calibration(robot)), robot.pose)
        half = 0.5 * robot.wheel_base
        wheel_x, wheel_y = x - side * half * np.sin(heading), y + side * half * np.cos(heading)
        assert np.abs(wheel_x - wheel_x[0]).max() < 1e-9
        assert np.abs(wheel_y - wheel_y[0]).max() < 1e-9
        delta = math.atan2(math.sin(heading[-1] - robot.heading), math.cos(heading[-1] - robot.heading))
        assert side * delta > 0.0  # a left turn is counterclockwise

    @pytest.mark.parametrize(
        "kwargs", [dict(wheel_base=math.nan), dict(wheel_base=0.0), dict(left_scale=math.nan), dict(right_scale=math.inf), dict(left_scale=-1.0)]
    )
    def test_drivetrain_must_be_positive_and_finite(self, kwargs):
        ((name, value),) = kwargs.items()
        with pytest.raises(InvalidParameter, match=re.escape(f"{name} must be positive and finite, got {value}")):
            SimRobot(**kwargs)

    @pytest.mark.parametrize("reference_distance", [math.nan, math.inf, 0.0])
    def test_reference_distance_must_be_positive_and_finite(self, reference_distance):
        with pytest.raises(InvalidParameter, match=re.escape(f"reference_distance must be positive and finite, got {reference_distance}")):
            SimWorld(GridMap(2, 2, 1.0), (), SimRobot(), reference_distance=reference_distance)


def reference_substep(x, y, theta, v, omega, h):
    """The integration substep before the arc shared its sines, verbatim: the bit reference."""
    if not omega:
        return x + v * h * math.cos(theta), y + v * h * math.sin(theta), theta
    theta_next = theta + omega * h
    radius = v / omega
    x += radius * (math.sin(theta_next) - math.sin(theta))
    y -= radius * (math.cos(theta_next) - math.cos(theta))
    return x, y, theta_next


def reference_wrap_heading(theta):
    theta = math.atan2(math.sin(theta), math.cos(theta))
    return math.pi if theta <= -math.pi else theta


def substep_poses(robot, command):
    """The reference integration path: one ``reference_substep`` per substep of
    at most 0.01 s of ``command``, a turn wrapping its heading after each.
    Returns the final robot and the poses after each substep."""
    v, omega = _body_rates(robot, command)
    x, y, theta = robot.pose
    poses = []
    remaining = command.duration
    while remaining > 1e-12:
        h = min(0.01, remaining)
        remaining -= h
        x, y, theta = reference_substep(x, y, theta, v, omega, h)
        if omega:  # straight motion keeps the heading bit-exactly
            theta = reference_wrap_heading(theta)
        poses.append((x, y, theta))
    return replace(robot, x=x, y=y, heading=theta), poses


def bits(poses):
    return [tuple(value.hex() for value in pose) for pose in poses]


class TestStraightIntegrator:
    # 0.1234 s ends on a 0.0034 s substep; 1e-13 s and 0 s have no substeps
    @pytest.mark.parametrize("duration", [2.0, 0.37, 0.005, 1e-13, 0.0, 0.1234, None])
    @settings(max_examples=40, deadline=None)
    @given(
        x=st.floats(-100.0, 100.0),
        y=st.floats(-100.0, 100.0),
        heading=st.floats(-math.pi, math.pi),
        speed=st.floats(-5.0, 5.0),
        left=st.floats(0.5, 1.5),
        right=st.floats(0.5, 1.5),
        drawn=st.floats(0.0, 3.0),
    )
    def test_accumulate_matches_the_per_substep_reference(self, duration, x, y, heading, speed, left, right, drawn):
        robot = SimRobot(x, y, heading, wheel_base=0.4, left_scale=left, right_scale=right)
        veer = default_calibration(robot).veer_bias
        command = DriveCommand(speed, speed * (1.0 + veer), drawn if duration is None else duration, "forward")
        assert _body_rates(robot, command)[1] == 0.0  # veer-compensated, so the straight branch
        _, expected = substep_poses(robot, command)
        assert bits(zip(*_command_poses(robot, command, robot.pose).tolist())) == bits([robot.pose] + expected)


class TestTurnIntegrator:
    # 0.6314 s is about a calibrated 90-degree pivot: 63 full substeps and a short one
    @pytest.mark.parametrize("duration", [0.6314, 0.01, 0.1234, 1e-13, 0.0, None])
    @settings(max_examples=60, deadline=None)
    @given(
        pose=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0), st.floats(-10.0, 10.0)),
        speeds=st.one_of(
            st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
            st.sampled_from([(1.0, 0.0), (0.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (0.0, -1.0)]),  # pivots and spins
        ),
        gains=st.tuples(st.floats(0.5, 1.5), st.floats(0.5, 1.5)),
        drawn=st.floats(0.0, 3.0),
    )
    def test_turn_poses_match_the_reference_loop(self, duration, pose, speeds, gains, drawn):
        robot = SimRobot(*pose, wheel_base=0.4, left_scale=gains[0], right_scale=gains[1])
        command = DriveCommand(*speeds, drawn if duration is None else duration, "turn")
        if _body_rates(robot, command)[1] == 0.0:
            return  # a straight command: TestStraightIntegrator covers it
        poses, (_, expected) = _command_poses(robot, command, pose), substep_poses(robot, command)
        assert poses.shape == (3, len(expected) + 1)
        assert bits(zip(*poses.tolist())) == bits([pose] + expected)

    def test_a_heading_of_minus_pi_wraps_to_pi(self):
        # theta_next is exactly -pi with sin(-pi) < 0 and cos(-pi) == -1, so atan2 gives -pi
        robot = SimRobot(heading=-math.pi + 0.01, wheel_base=1.0)
        command = DriveCommand(1.0, 0.0, 0.01, "turn")
        assert _command_poses(robot, command, robot.pose)[2, -1] == substep_poses(robot, command)[0].heading == math.pi


class TestLongestCommand:
    # the longest command DriveCommand accepts, 360,000 substeps: a straight one
    # accumulates every one of them in loop order, a turn wraps after each
    @pytest.mark.parametrize("speeds, straight", [((1.0, 0.99), True), ((1.0, 0.0), False)])
    def test_the_longest_command_matches_the_reference_loop(self, speeds, straight):
        robot = SimRobot(x=1.0, y=-2.0, heading=0.3, wheel_base=0.4, left_scale=0.99)
        command = DriveCommand(*speeds, float(MAX_DURATION), "longest")
        assert (_body_rates(robot, command)[1] == 0.0) is straight
        rfsim._increments.cache_clear()
        poses, (_, expected) = _command_poses(robot, command, robot.pose), substep_poses(robot, command)
        assert poses.shape == (3, 360_001) and len(expected) == 360_000
        assert bits([tuple(poses[:, -1].tolist())]) == bits(expected[-1:])
        assert rfsim._increments.cache_info().currsize == 0  # longer than the memo's 10 s: not kept


def reference_command_poses(robot, command, pose):
    """_command_poses before the increments memo, verbatim: its straight and turn
    branches over the substeps of the uncached _substep_lengths loop."""
    steps, remaining = [], command.duration
    while remaining > 1e-12:
        steps.append(min(0.01, remaining))
        remaining -= steps[-1]
    h = np.array(steps)
    v, omega = _body_rates(robot, command)
    x, y, theta = pose
    if not omega:
        poses = np.array([[x], [y], [theta]]).repeat(len(h) + 1, axis=1)
        np.multiply.outer((math.cos(theta), math.sin(theta)), v * h, out=poses[:2, 1:])
        np.add.accumulate(poses[:2], axis=1, out=poses[:2])
        return poses
    xs, ys, thetas = [x], [y], [theta]
    for dt in h.tolist():
        theta_next = theta + omega * dt
        radius = v / omega
        sin_next, cos_next = math.sin(theta_next), math.cos(theta_next)
        x, y = x + radius * (sin_next - math.sin(theta)), y - radius * (cos_next - math.cos(theta))
        theta = math.atan2(sin_next, cos_next)
        theta = math.pi if theta <= -math.pi else theta
        xs.append(x)
        ys.append(y)
        thetas.append(theta)
    return np.array((xs, ys, thetas))


class TestIncrementMemo:
    """_command_poses accumulates memoized increments; every pose must be the old loop's, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        pose=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0), st.sampled_from([0.0, -0.0, math.pi / 2]) | st.floats(-10.0, 10.0)),
        speeds=st.sampled_from(["straight", (1.0, 0.0), (0.0, 1.0), (-1.0, 1.0), (0.0, 0.0)]) | st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        gains=st.tuples(st.floats(0.5, 1.5), st.floats(0.5, 1.5)),
        duration=st.integers(0, 3) | st.sampled_from([2.0, 0.6314, 1e-13]) | st.floats(0.0, 3.0),
        calls=st.integers(1, 3),
    )
    def test_hits_and_misses_match_the_verbatim_old_branches(self, pose, speeds, gains, duration, calls):
        robot = SimRobot(wheel_base=0.4, left_scale=gains[0], right_scale=gains[1])
        if speeds == "straight":  # veer-compensated, as every forward step
            speeds = (1.0, 1.0 + default_calibration(robot).veer_bias)
        command = DriveCommand(*speeds, duration, "memo")
        expected = bits(zip(*reference_command_poses(robot, command, pose).tolist()))
        for _ in range(calls):  # the first call may hit an entry of an earlier example
            poses = _command_poses(robot, command, pose)
            assert bits(zip(*poses.tolist())) == expected
            poses[:] = math.nan  # a caller writing into its poses must not reach the memo

    @pytest.mark.parametrize("omega", [0.0, 2.5])
    def test_a_start_heading_of_minus_zero_is_not_zero(self, omega):
        robot = SimRobot(wheel_base=0.4)
        command = DriveCommand(1.0, 1.0 + omega * robot.wheel_base, 0.05, "memo")
        for heading in (0.0, -0.0, 0.0, -0.0):
            poses = _command_poses(robot, command, (1.0, 2.0, heading))
            assert bits(zip(*poses.tolist())) == bits(zip(*reference_command_poses(robot, command, (1.0, 2.0, heading)).tolist()))
            assert poses[2, 0].hex() == heading.hex()

    def test_the_memo_keeps_at_most_256_commands_of_at_most_ten_seconds(self):
        robot = SimRobot(wheel_base=0.4)
        rfsim._increments.cache_clear()
        for k in range(300):
            _command_poses(robot, DriveCommand(1.0, 1.0, 0.01 * k, "memo"), (0.0, 0.0, 0.0))
        assert rfsim._increments.cache_info().currsize == 256
        rfsim._increments.cache_clear()
        shapes = []
        for duration in (10, 10.0, 10.01, 600.0):  # the limit, int or float, then longer commands, which bypass the memo
            poses = _command_poses(robot, DriveCommand(1.0, 0.0, duration, "memo"), (0.0, 0.0, 0.0))
            assert bits(zip(*poses.tolist())) == bits(zip(*reference_command_poses(robot, DriveCommand(1.0, 0.0, duration), (0.0, 0.0, 0.0)).tolist()))
            shapes.append(poses.shape)
        assert rfsim._increments.cache_info().currsize == 1 and shapes[:2] == [(3, 1_001)] * 2  # the stated bound: 1,001 columns


class TestSyntheticDataset:
    def test_one_row_per_walkable_cell(self):
        world = open_world([AccessPointSim(MAC, "Net", (2.0, 2.0))], size=4)
        ds = generate_synthetic_dataset(world, resamples=2)
        assert ds.n_rows == 16

    def test_reference_world_has_95_cells(self, ref_world, ref_dataset):
        assert len(ref_world.grid.walkable_cells()) == 95
        assert ref_dataset.n_rows == 95
        assert len(ref_dataset.ap_columns) == 6

    def test_rows_are_per_ap_medians_of_the_draws(self):
        world = open_world([AccessPointSim(MAC, "Net", (2.0, 2.0), noise_sigma=4.0)], size=3, seed=5)
        ds = generate_synthetic_dataset(world, resamples=3)
        # cell (1, 1) is row 4 of the 3x3 grid, so its draws are 12-14
        draws = [simulate_scan(world, (1.5, 1.5), draw_index=j).rssi_by_mac()[MAC] for j in range(12, 15)]
        assert (ds.x[4], ds.y[4]) == (1.5, 1.5)
        assert ds.rssi[4, 0] == sorted(draws)[1]

    def test_labels_are_cell_centers_row_major(self):
        world = open_world([AccessPointSim(MAC, "Net", (1.0, 1.0), noise_sigma=0.0)], size=2)
        ds = generate_synthetic_dataset(world, resamples=1)
        assert list(zip(ds.x.tolist(), ds.y.tolist())) == [(0.5, 0.5), (1.5, 0.5), (0.5, 1.5), (1.5, 1.5)]


class TestTrials:
    def test_oracle_zero_veer_straight_run_succeeds(self):
        world = reference_world(noise_sigma=0.0)
        world = SimWorld(world.grid, world.aps, SimRobot(x=0.5, y=0.5, wheel_base=0.4), world.rng_seed)
        result = run_trial(world, None, astar(world.grid, (0, 0), (8, 0)), seed=0, oracle=True)
        assert result.success
        assert result.final_error < 0.5

    def test_same_seed_identical_results(self, ref_world, trained):
        bundle, _, _ = trained
        world = with_noise_sigma(ref_world, 2.0)
        a = run_trial(world, bundle, astar(world.grid, (0, 0), (11, 3)), seed=3)
        b = run_trial(world, bundle, astar(world.grid, (0, 0), (11, 3)), seed=3)
        assert a.success == b.success and a.final_error == b.final_error
        assert a.robot == b.robot and a.events == b.events

    def test_unreachable_goal_raises(self):
        grid = GridMap.from_text("3 1 1\n.#.\n")
        world = SimWorld(grid, (AccessPointSim(MAC, "Net", (0.5, 0.5)),), SimRobot(x=0.5, y=0.5))
        with pytest.raises(NoPath):
            corner_success_rate(world, None, 1, start=(0, 0), goal=(2, 0), oracle=True)

    def test_a_run_plans_its_route_once(self, ref_world, monkeypatch):
        calls = []
        monkeypatch.setattr(rfsim, "astar", lambda *args: calls.append(args) or astar(*args))
        corner_success_rate(ref_world, None, 5, oracle=True)
        assert calls == [(ref_world.grid, REFERENCE_START, REFERENCE_GOAL)]

    def test_empty_path_raises(self, ref_world):
        with pytest.raises(EmptyPath):
            run_trial(ref_world, None, PlannedPath(()), oracle=True)

    def test_zero_trials_rejected(self, ref_world):
        with pytest.raises(ValueError):
            corner_success_rate(ref_world, None, trials=0, oracle=True)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(success_radius=math.nan), "success_radius must be positive and finite"),
            (dict(success_radius=0.0), "success_radius must be positive and finite"),
            (dict(scan_period=math.inf), "scan_period must be positive and finite"),
            (dict(scan_period=math.nan), "scan_period must be positive and finite"),
        ],
    )
    def test_invalid_trial_parameters_rejected(self, ref_world, kwargs, message):
        with pytest.raises(ValueError, match=message):
            run_trial(ref_world, None, astar(ref_world.grid, REFERENCE_START, REFERENCE_GOAL), oracle=True, **kwargs)

    def test_huge_wheel_base_turn_is_rejected(self, ref_world):
        # a 90-degree pivot of about 1.6e300 s, too long to integrate in 0.01 s substeps
        calibration = default_calibration(replace(ref_world.robot, wheel_base=1e300))
        with pytest.raises(ValueError, match="duration must be in"):
            turn_command("left", calibration)

    def test_oracle_corner_rate_high(self, ref_world):
        rate, results = corner_success_rate(ref_world, None, trials=3, base_seed=0, oracle=True)
        assert rate >= 0.95
        for r in results:
            assert r.success and r.final_error <= r.success_radius

    def test_fix_and_command_events_alternate(self, ref_world, trained):
        bundle, _, _ = trained
        world = with_noise_sigma(ref_world, 2.0)
        result = run_trial(world, bundle, astar(world.grid, (0, 0), (11, 3)), seed=1)
        previous = None
        for kind, _, _ in result.events:
            if kind == "command":
                assert previous == "fix", "two commands without an intervening fix"
            previous = kind


def serial_trials(world, bundle, trials, base_seed=0, **kwargs):
    """The reference: corner_success_rate's trials one after another, or the exception the first failing one raises."""
    path = astar(world.grid, REFERENCE_START, REFERENCE_GOAL)
    try:
        return [rfsim.run_trial(world, bundle, path, seed=base_seed + i, **kwargs) for i in range(trials)]
    except Exception as exc:
        return exc


def wait_until(condition, timeout=30.0):
    """Poll ``condition`` until it holds: forked children act in their own time."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "the children never got there"
        time.sleep(0.01)


class TestParallelTrials:
    """Trials are handed out by ticket to this process and forked children; three
    CPUs are claimed, so two children are forked whatever the host.  A run of 7
    has 7 one-trial tickets, and this process always runs trial 0."""

    @pytest.fixture(autouse=True)
    def three_cpus_and_nothing_left(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        yield
        with pytest.raises(ChildProcessError):  # neither a running child nor a zombie
            os.waitpid(-1, os.WNOHANG)
        assert fds is None or sorted(os.listdir("/proc/self/fd")) == fds  # no pipe end left open

    @pytest.mark.parametrize("oracle", [False, True])
    @pytest.mark.parametrize("trials", [1, 2, 3, 7, 100])
    def test_results_match_the_serial_loop(self, ref_world, trained, trials, oracle):
        world, bundle = with_noise_sigma(ref_world, 2.0), None if oracle else trained[0]
        rate, results = corner_success_rate(world, bundle, trials, base_seed=11, oracle=oracle)
        expected = serial_trials(world, bundle, trials, base_seed=11, oracle=oracle)
        assert results == expected and [repr(r) for r in results] == [repr(r) for r in expected]  # repr tells -0.0 from 0.0
        assert rate == sum(r.success for r in expected) / trials

    @pytest.mark.parametrize("first_failure", [1, 2, 3, 6])  # seed 0 is the parent's; any process may take the others
    @pytest.mark.parametrize("error", [ValueError, NoPath, OutOfBounds])
    def test_the_first_failing_trial_raises_as_in_the_serial_loop(self, ref_world, monkeypatch, first_failure, error):
        def trial(world, bundle, path, seed, **kwargs):
            if seed >= first_failure:
                raise error(f"trial {seed} failed")
            return run_trial(world, bundle, path, seed=seed, **kwargs)

        monkeypatch.setattr(rfsim, "run_trial", trial)
        expected = serial_trials(ref_world, None, 7, oracle=True)
        assert type(expected) is error and str(expected) == f"trial {first_failure} failed"
        with pytest.raises(error) as raised:
            corner_success_rate(ref_world, None, 7, oracle=True)
        assert str(raised.value) == str(expected)

    def test_a_share_larger_than_the_pipe_buffer(self, ref_world, monkeypatch):
        def trial(world, bundle, path, seed, **kwargs):
            result = run_trial(world, bundle, path, seed=seed, **kwargs)
            result.events.append(("padding", 0.0, bytes(100_000)))  # a child's pickle passes 64 KiB
            return result

        monkeypatch.setattr(rfsim, "run_trial", trial)
        _, results = corner_success_rate(ref_world, None, 7, oracle=True)
        assert results == serial_trials(ref_world, None, 7, oracle=True)

    def test_a_child_killed_midway_has_its_share_rerun(self, ref_world, monkeypatch):
        parent = os.getpid()

        def trial(world, bundle, path, seed, **kwargs):
            if seed == 5 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_trial(world, bundle, path, seed=seed, **kwargs)

        monkeypatch.setattr(rfsim, "run_trial", trial)
        _, results = corner_success_rate(ref_world, None, 7, oracle=True)
        assert results == serial_trials(ref_world, None, 7, oracle=True)

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, ValueError])
    def test_the_parent_stopping_kills_and_reaps_every_child(self, ref_world, monkeypatch, interrupt):
        def trial(world, bundle, path, seed, **kwargs):
            if seed == 0:
                raise interrupt("stop")
            time.sleep(60)  # the children's shares: only a kill ends them in time

        monkeypatch.setattr(rfsim, "run_trial", trial)
        started = time.monotonic()
        with pytest.raises(interrupt):
            corner_success_rate(ref_world, None, 7, oracle=True)
        assert time.monotonic() - started < 30

    @pytest.mark.parametrize("trials, has_fork", [(1, True), (7, False)])
    def test_one_trial_or_no_os_fork_runs_serially(self, ref_world, monkeypatch, trials, has_fork):
        if has_fork:  # navigate runs one trial
            monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for one trial"))
        else:
            monkeypatch.delattr(os, "fork")
        _, results = corner_success_rate(ref_world, None, trials, base_seed=4, oracle=True)
        assert results == serial_trials(ref_world, None, trials, base_seed=4, oracle=True)

    def test_more_trials_than_tickets(self, ref_world, monkeypatch):
        parent, writes, write = os.getpid(), [], os.write

        def parent_write(fd, data):
            if os.getpid() == parent:
                writes.append(len(data))
            return write(fd, data)

        def stub(world, bundle, path, seed, **kwargs):
            return rfsim.TrialResult(seed % 3 == 0, seed / 7, world.robot, [], "stub", seed=seed)

        monkeypatch.setattr(os, "write", parent_write)
        monkeypatch.setattr(rfsim, "run_trial", stub)
        rate, results = corner_success_rate(ref_world, None, 70_000, base_seed=5, oracle=True)
        assert results == [stub(ref_world, None, None, seed) for seed in range(5, 70_005)] and rate == 23_333 / 70_000
        assert writes == [4 * 1015]  # one write before the forks: 1,015 tickets of 69 trials, within 4 KiB

    def test_a_lower_failure_held_by_a_child_wins_over_a_higher_one_here(self, ref_world, monkeypatch, tmp_path):
        parent = os.getpid()

        def trial(world, bundle, path, seed, **kwargs):
            if seed == 0:  # this process holds trial 0 until a child holds trial 1
                wait_until((tmp_path / "held").exists)
                return run_trial(world, bundle, path, seed=seed, **kwargs)
            if seed == 1 and os.getpid() != parent:
                (tmp_path / "held").touch()
                time.sleep(60)  # still running when this process fails at a higher seed: only a kill ends it in time
            raise ValueError(f"trial {seed} failed")

        monkeypatch.setattr(rfsim, "run_trial", trial)
        started = time.monotonic()
        with pytest.raises(ValueError, match="^trial 1 failed$"):
            corner_success_rate(ref_world, None, 7, oracle=True)
        assert time.monotonic() - started < 30
        assert (tmp_path / "held").exists()

    def test_a_child_killed_after_claiming_tickets_leaves_the_serial_results(self, ref_world, monkeypatch, tmp_path):
        parent, ran = os.getpid(), []

        def trial(world, bundle, path, seed, **kwargs):
            if os.getpid() != parent:
                ran.append(seed)
                if len(ran) == 3:  # two results held and a third ticket claimed: all three are lost
                    (tmp_path / str(seed)).touch()
                    os.kill(os.getpid(), signal.SIGKILL)
            elif seed == 0:  # this process holds trial 0 until both children are dead
                wait_until(lambda: len(list(tmp_path.iterdir())) == 2)
            return run_trial(world, bundle, path, seed=seed, **kwargs)

        monkeypatch.setattr(rfsim, "run_trial", trial)
        _, results = corner_success_rate(ref_world, None, 20, oracle=True)
        assert results == serial_trials(ref_world, None, 20, oracle=True)

    def test_a_child_pipes_back_more_than_the_pipe_buffer(self, ref_world, monkeypatch, tmp_path):
        parent, loads, sizes = os.getpid(), pickle.loads, []

        def trial(world, bundle, path, seed, **kwargs):
            if seed == 0:  # this process holds trial 0 until the children have claimed every other ticket
                wait_until(lambda: len(list(tmp_path.iterdir())) == 6)
            elif os.getpid() != parent:
                (tmp_path / str(seed)).touch()
            result = run_trial(world, bundle, path, seed=seed, **kwargs)
            result.events.append(("padding", 0.0, bytes(100_000)))
            return result

        def parent_loads(data):
            sizes.append(len(data))
            return loads(data)

        monkeypatch.setattr(rfsim, "run_trial", trial)
        monkeypatch.setattr(pickle, "loads", parent_loads)
        _, results = corner_success_rate(ref_world, None, 7, oracle=True)
        assert len(sizes) == 2 and sum(sizes) > 6 * 100_000 and max(sizes) > 1 << 16  # each child's pickle, one past 64 KiB
        assert results == serial_trials(ref_world, None, 7, oracle=True)


def reference_predict_position(bundle, snapshot):
    """predict_position before its prediction core moved into _predict_vector, verbatim."""
    observed = snapshot.rssi_by_mac()
    kept = bundle.selection.kept_columns
    if not any(mac in observed for mac in kept):
        raise NoKnownAccessPoints("snapshot contains none of the model's access points")
    vector = np.array([float(observed.get(mac, MISSING_RSSI)) for mac in kept])
    out = forward(bundle.model, prepare_features(bundle, vector))
    x, y = denormalize_coords(bundle.params, out)
    return PositionEstimate(float(x), float(y))


def reference_run_trial(world, bundle, path, nav_config=None, success_radius=2.0, seed=0, *, oracle=False, calibration=None, scan_period=2.0):
    """run_trial when each fix went through simulate_scan and predict_position, verbatim
    but for the reference copies of those two."""
    config = nav_config or NavConfig()
    heading, checkpoints = _route(path)
    cal = calibration or default_calibration(world.robot)
    state = NavState.initial(checkpoints, config, cal, world.grid.cell_size)

    grid = world.grid
    limits = np.array([[grid.width], [grid.height]])
    sx, sy = grid.cell_center(path.cells[0])
    gx, gy = grid.cell_center(path.cells[-1])
    robot = replace(world.robot, x=sx, y=sy, heading=math.atan2(heading.vector[1], heading.vector[0]))

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
        else:
            try:
                estimate = reference_predict_position(bundle, reference_simulate_scan(world, (x, y), draw_index=draw_index, seed=seed))
                fix = (estimate.x, estimate.y)
            except NoKnownAccessPoints:
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
    return rfsim.TrialResult(success, final_error, robot, events, reason, success_radius, seed)


def with_kept_columns(bundle, foreign):
    """The bundle with the kept columns whose positions are in ``foreign`` renamed to MACs no world AP has."""
    kept = tuple(f"02:00:00:00:01:{i:02X}" if i in foreign else mac for i, mac in enumerate(bundle.selection.kept_columns))
    return replace(bundle, selection=replace(bundle.selection, kept_columns=kept))


class TestDirectScanPath:
    """run_trial feeds _scan_levels straight into _predict_vector; it must give the
    trial that simulate_scan -> predict_position gave, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**70),
        sigma=st.sampled_from([0.0, 0.5, 2.0, 8.0]) | st.floats(0.0, 50.0),
        reversed_aps=st.booleans(),
        foreign=st.sampled_from([(), (0,), (2, 5), tuple(range(6))]),
        nav=st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 2.0), st.integers(0, 12)),
        scan_period=st.floats(0.5, 4.0),
    )
    def test_trials_match_the_verbatim_old_loop(self, ref_world, trained, seed, sigma, reversed_aps, foreign, nav, scan_period):
        world = with_noise_sigma(ref_world, sigma)
        if reversed_aps:  # kept columns map to other AP indices and other noise draws
            world = replace(world, aps=world.aps[::-1])
        bundle = trained[0]
        assert len(bundle.selection.kept_columns) == 6
        bundle = with_kept_columns(bundle, foreign)  # every kept MAC foreign: every fix is a "nofix"
        config = NavConfig(step_distance=nav[0], checkpoint_radius=nav[1], max_consecutive_misses=nav[2])
        path = astar(world.grid, REFERENCE_START, REFERENCE_GOAL)
        kwargs = dict(nav_config=config, seed=seed, scan_period=scan_period)
        result, expected = run_trial(world, bundle, path, **kwargs), reference_run_trial(world, bundle, path, **kwargs)
        assert result == expected and repr(result) == repr(expected)  # repr tells -0.0 from 0.0
        if len(foreign) == 6:
            assert {kind for kind, _, _ in result.events} == {"nofix"} and result.reason == "aborted"


def cell_of(grid, x, y):
    """The grid cell holding the point (x, y) feet."""
    return math.floor(x / grid.cell_size), math.floor(y / grid.cell_size)


def replay_substeps(world, result):
    """Re-integrate the command events along the per-substep reference path
    (``substep_poses``), which run_trial must reproduce bit for bit."""
    robot = result.robot
    assert robot == replace(world.robot, x=robot.x, y=robot.y, heading=robot.heading)
    poses = [robot.pose]
    for command in [payload for kind, _, payload in result.events if kind == "command"]:
        robot, substeps = substep_poses(robot, command)
        poses.extend(substeps)
    return robot, poses


class TestTrialReplay:
    @pytest.mark.parametrize(
        "seed, oracle, reason",
        [(0, False, "left_map+left_walkable"), (1, False, "left_map+left_walkable"), (2, False, "done"),
         (3, False, "left_map+left_walkable"), (4, False, "left_map+left_walkable"),
         (5, False, "left_map+left_walkable"), (0, True, "done")],
    )
    def test_trajectory_matches_the_per_substep_reference(self, ref_world, trained, seed, oracle, reason):
        bundle, _, _ = trained
        path = astar(ref_world.grid, REFERENCE_START, REFERENCE_GOAL)
        result = run_trial(ref_world, None if oracle else bundle, path, seed=seed, oracle=oracle)
        assert result.reason == reason
        start = ref_world.grid.cell_center(REFERENCE_START)
        assert result.trajectory[0] == (start[0], start[1], 0.0)  # the route's first segment runs east
        robot, poses = replay_substeps(ref_world, result)
        assert result.trajectory == poses
        goal = ref_world.grid.cell_center(REFERENCE_GOAL)
        assert result.final_error == math.hypot(robot.x - goal[0], robot.y - goal[1])
        left_walkable = any(not ref_world.grid.is_walkable(cell_of(ref_world.grid, x, y)) for x, y, _ in poses[1:])
        assert ("+left_walkable" in result.reason) == left_walkable

    @pytest.mark.parametrize("goal, reason", [((5, 1), "done"), ((7, 1), "done+left_walkable")])
    def test_veer_into_a_wall_inside_the_map(self, goal, reason):
        # a 1 ft corridor and an uncompensated left veer: the longer run drifts
        # into the blocked north row without leaving the map
        grid = GridMap.from_text("10 3 1\n##########\n..........\n##########\n")
        robot = SimRobot(wheel_base=0.4, left_scale=0.98)
        world = SimWorld(grid, (AccessPointSim(MAC, "Net", (5.0, 1.5)),), robot)
        cal = DrivetrainCalibration(veer_bias=0.0, turn_90_duration=default_calibration(robot).turn_90_duration)
        result = run_trial(world, None, astar(grid, (0, 1), goal), oracle=True, calibration=cal)
        assert result.reason == reason
        _, poses = replay_substeps(world, result)
        assert result.trajectory == poses
        assert any(not grid.is_walkable(cell_of(grid, x, y)) for x, y, _ in poses) == reason.endswith("+left_walkable")

    @staticmethod
    def l_route(turn_scale, pillar=False):
        """An oracle run east along row 0 and north up column 8 (the only
        route) to (8, 9); column 7 is open beside it from row 2, except for
        (7, 5) when ``pillar``.  A turn ``turn_scale`` times the calibrated one
        sends the straight legs after it north-west into column 7."""
        rows = ["." * 9, "#" * 8 + "."] + ["#" * 7 + ".."] * 8
        if pillar:
            rows[5] = "#" * 8 + "."
        grid = GridMap.from_text("9 10 1\n" + "\n".join(rows) + "\n")
        robot = SimRobot(wheel_base=0.4)
        world = SimWorld(grid, (AccessPointSim(MAC, "Net", (4.5, 0.5)),), robot)
        cal = DrivetrainCalibration(veer_bias=0.0, turn_90_duration=turn_scale * default_calibration(robot).turn_90_duration)
        result = run_trial(world, None, astar(grid, (0, 0), (8, 9)), oracle=True, calibration=cal)
        for command in [payload for kind, _, payload in result.events if kind == "command"]:
            assert command.reason != "forward" or _body_rates(robot, command)[1] == 0.0
        _, poses = replay_substeps(world, result)
        assert result.trajectory == poses
        return grid, result

    def test_pillar_crossed_inside_a_straight_leg(self):
        grid, result = self.l_route(1.1)
        assert result.reason == "done"
        assert (7, 5) in {cell_of(grid, x, y) for x, y, _ in result.trajectory}
        grid, result = self.l_route(1.1, pillar=True)
        assert result.reason == "done+left_walkable"
        # every leg starts and ends on a walkable cell: only its inside crosses the pillar
        assert all(grid.is_walkable(cell_of(grid, *payload[0])) for kind, _, payload in result.events if kind == "fix")
        assert grid.is_walkable(cell_of(grid, *result.trajectory[-1][:2]))

    def test_straight_leg_off_the_map(self):
        grid, result = self.l_route(1.2)
        assert result.reason == "left_map+left_walkable"
        assert result.trajectory[-1][1] > grid.height

    def test_veering_leg_off_the_map(self):
        # a one-row corridor and an uncompensated right veer: a turning-branch
        # leg drifts south off the map, into row -1
        grid = GridMap.from_text("10 1 1\n..........\n")
        robot = SimRobot(wheel_base=0.4, right_scale=0.98)
        world = SimWorld(grid, (AccessPointSim(MAC, "Net", (5.0, 0.5)),), robot)
        cal = DrivetrainCalibration(veer_bias=0.0, turn_90_duration=default_calibration(robot).turn_90_duration)
        result = run_trial(world, None, astar(grid, (0, 0), (8, 0)), oracle=True, calibration=cal)
        assert result.reason == "left_map+left_walkable"
        assert result.trajectory[-1][1] < 0.0


class TestWorldFile:
    def test_round_trip(self, ref_world):
        buf = io.StringIO()
        save_world(ref_world, buf)
        loaded = load_world(io.StringIO(buf.getvalue()))
        assert loaded.grid == ref_world.grid
        assert loaded.aps == ref_world.aps
        assert loaded.robot == ref_world.robot
        assert loaded.rng_seed == ref_world.rng_seed
        assert loaded.reference_distance == ref_world.reference_distance

    def test_missing_robot_line_rejected(self):
        with pytest.raises(WorldFormatError):
            load_world(io.StringIO("2 2 1\n..\n..\nap 02:00:00:00:00:01 Net 1 1 -40 3 2\n"))

    def test_unknown_directive_rejected(self):
        with pytest.raises(WorldFormatError):
            load_world(io.StringIO("2 2 1\n..\n..\nrobot 1 1 0 0.4 1 1\nbogus 1\n"))

    def test_ap_outside_map_rejected(self):
        with pytest.raises(WorldFormatError):
            load_world(io.StringIO("2 2 1\n..\n..\nap 02:00:00:00:00:01 Net 5 5 -40 3 2\nrobot 1 1 0 0.4 1 1\n"))

    @pytest.mark.parametrize(
        "ap, robot, extra",
        [
            ("1 1 inf 3 2", "1 1 0 0.4 1 1", ""),
            ("1 1 -40 nan 2", "1 1 0 0.4 1 1", ""),
            ("1 1 -40 3 nan", "1 1 0 0.4 1 1", ""),
            ("1 1 -40 3 2", "nan 0.5 0 0.4 1 1", ""),
            ("1 1 -40 3 2", "1 1 inf 0.4 1 1", ""),
            ("1 1 -40 3 2", "1 1 0 0.4 1 1", "refdist inf\n"),
        ],
    )
    def test_non_finite_numbers_rejected(self, ap, robot, extra):
        text = f"2 2 1\n..\n..\nap 02:00:00:00:00:01 Net {ap}\nrobot {robot}\n{extra}"
        with pytest.raises(WorldFormatError, match="finite"):
            load_world(io.StringIO(text))

    @pytest.mark.parametrize("header", ["2 -1 1", "0 2 1", "2 2 inf", "2 2 nan"])
    def test_bad_grid_header_rejected(self, header):
        with pytest.raises(WorldFormatError):
            load_world(io.StringIO(f"{header}\n..\n..\nrobot 1 1 0 0.4 1 1\n"))

    @pytest.mark.parametrize(
        "ap, message",
        [
            ("02:00:00:00:00:0G Net 1 1 -40 3 2", "canonical MAC"),
            ("02:00:00:00:00:01 Net 1 1 5 3 2", "p0"),
            ("02:00:00:00:00:01 Net 1 1 -1e308 3 2", "p0"),
            ("02:00:00:00:00:01 Net 1 1 -40 0 2", "path_loss_exponent"),
            ("02:00:00:00:00:01 Net 1 1 -40 1e308 2", "path_loss_exponent"),
            ("02:00:00:00:00:01 Net 1 1 -40 3 -1", "noise_sigma"),
            ("02:00:00:00:00:01 Net 1 1 -40 3 1e308", "noise_sigma"),
        ],
    )
    def test_implausible_ap_rejected_naming_the_line(self, ap, message):
        with pytest.raises(WorldFormatError, match=message) as exc_info:
            load_world(io.StringIO(f"2 2 1\n..\n..\nap {ap}\nrobot 1 1 0 0.4 1 1\n"))
        assert ap in str(exc_info.value)

    def test_negative_seed_rejected_naming_the_line(self):
        with pytest.raises(WorldFormatError, match="seed must be >= 0, got -1") as exc_info:
            load_world(io.StringIO("2 2 1\n..\n..\nrobot 1 1 0 0.4 1 1\nseed -1\n"))
        assert "'seed -1'" in str(exc_info.value)

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("seed 7 junk", "seed line needs 1 field: 'seed 7 junk'"),
            ("refdist 1 2 3", "refdist line needs 1 field: 'refdist 1 2 3'"),
            ("seed", "seed line needs 1 field: 'seed'"),
            ("seed 7\nseed 8", "bad world line 'seed 8': a second seed line"),
            ("refdist 1\nrefdist 1", "bad world line 'refdist 1': a second refdist line"),
            ("robot 0.5 0.5 0 0.4 1 1", "bad world line 'robot 0.5 0.5 0 0.4 1 1': a second robot line"),
        ],
    )
    def test_malformed_or_repeated_directive_rejected_naming_the_line(self, extra, message):
        with pytest.raises(WorldFormatError, match=f"^{re.escape(message)}$"):
            load_world(io.StringIO(f"2 2 1\n..\n..\nrobot 1 1 0 0.4 1 1\n{extra}\n"))

    def test_each_directive_once_and_any_number_of_aps_load(self):
        world = load_world(io.StringIO(f"2 2 1\n..\n..\nseed 7\nap {MAC} Net 1 1 -40 3 2\nrobot 1 1 0 0.4 1 1\n"
                                       f"ap 02:00:00:00:00:02 Net 0.5 0.5 -40 3 2\nrefdist 2\n"))
        assert (world.rng_seed, world.reference_distance, len(world.aps)) == (7, 2.0, 2)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "world.txt"
        path.write_bytes(b"2 2 1\n..\n..\nrobot 1 1 0 0.4 1 1\nseed \xff\n")
        with pytest.raises(WorldFormatError):
            load_world(path)


class TestNoiseMonotonicity:
    def test_mean_error_non_decreasing_in_noise(self):
        from rssinav.cli import run_training_pipeline

        means = []
        for sigma in (0.0, 2.0, 4.0, 8.0):
            errors = []
            for seed in (0, 1, 2):
                world = reference_world(noise_sigma=sigma, rng_seed=17)
                ds = generate_synthetic_dataset(world, resamples=3)
                _, report, _ = run_training_pipeline(ds, train_config=TrainConfig(epochs=300, seed=seed))
                errors.append(report.test_mean_error_ft)
            means.append(float(np.mean(errors)))
        assert all(a <= b + 1e-9 for a, b in zip(means, means[1:])), means
