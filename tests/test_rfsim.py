import contextlib
import inspect
import io
import math
import os
import re
import sys
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rssinav import planner, rfsim
from rssinav.errors import InvalidParameter, OutOfBounds
from rssinav.features import denormalize_coords
from rssinav.fileio import write_rows
from rssinav.model import NoKnownAccessPoints, PositionEstimate, TrainConfig, forward, prepare_features
from rssinav.navctl import MAX_DURATION, DriveCommand, DrivetrainCalibration, Mode, NavConfig, NavState, nav_step, stop_command, turn_command
from rssinav.planner import EmptyPath, GridMap, NoPath, PlannedPath, astar, extract_checkpoints, first_segment_heading
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
from rssinav.rfsim import _MAX_FIXES, _body_rates, _command_poses
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
        "kwargs",
        [dict(wheel_base=math.nan), dict(wheel_base=0.0), dict(left_scale=math.nan), dict(right_scale=math.inf), dict(left_scale=-1.0)],
        ids=["wheel_base-nan", "wheel_base-zero", "left_scale-nan", "right_scale-inf", "left_scale-negative"],
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
        result = run_trial(world, None, astar(world.grid, (0, 0), (8, 0)), seed=0)
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
            corner_success_rate(world, None, 1, start=(0, 0), goal=(2, 0))

    def test_a_run_plans_its_route_once(self, ref_world, monkeypatch):
        calls = []
        monkeypatch.setattr(rfsim, "astar", lambda *args: calls.append(args) or astar(*args))
        corner_success_rate(ref_world, None, 5)
        assert calls == [(ref_world.grid, REFERENCE_START, REFERENCE_GOAL)]

    def test_a_run_derives_its_route_and_calibration_once(self, ref_world, monkeypatch):
        calls = []
        for name in ("first_segment_heading", "extract_checkpoints", "default_calibration"):
            monkeypatch.setattr(rfsim, name, lambda *args, real=getattr(rfsim, name), name=name: calls.append(name) or real(*args))
        for _ in range(2):  # nothing is kept from one run to the next
            corner_success_rate(ref_world, None, 5)
        assert calls == ["first_segment_heading", "extract_checkpoints", "default_calibration"] * 2

    def test_empty_path_raises(self, ref_world):
        with pytest.raises(EmptyPath):
            run_trial(ref_world, None, PlannedPath(()))

    def test_zero_trials_rejected(self, ref_world):
        with pytest.raises(ValueError):
            corner_success_rate(ref_world, None, trials=0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(success_radius=math.nan), "success_radius must be positive and finite"),
            (dict(success_radius=0.0), "success_radius must be positive and finite"),
            (dict(scan_period=math.inf), "scan_period must be positive and finite"),
            (dict(scan_period=math.nan), "scan_period must be positive and finite"),
            # finite, but 500 fixes of it overflow the trial clock
            (dict(scan_period=1e308), "scan_period 1e+308 s overflows the clock of a 500-fix trial"),
        ],
        ids=["success_radius-nan", "success_radius-zero", "scan_period-inf", "scan_period-nan", "scan_period-1e308"],
    )
    def test_invalid_trial_parameters_rejected(self, ref_world, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            run_trial(ref_world, None, astar(ref_world.grid, REFERENCE_START, REFERENCE_GOAL), **kwargs)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda world: replace(world, aps=world.aps[:2] + world.aps[1:2]), "duplicate AP MAC addresses"),
            (lambda world: generate_synthetic_dataset(world, resamples=0), "resamples must be >= 1"),  # make-dataset --resamples 0
        ],
        ids=["duplicate-macs", "zero-resamples"],
    )
    def test_invalid_world_or_run_rejected(self, ref_world, build, message):
        with pytest.raises(InvalidParameter) as raised:
            build(ref_world)
        assert raised.type is InvalidParameter and str(raised.value) == message

    def test_a_trial_without_a_model_fixes_at_its_true_positions(self, ref_world):
        result = run_trial(ref_world, None, astar(ref_world.grid, REFERENCE_START, REFERENCE_GOAL))
        fixes = [payload for kind, _, payload in result.events if kind != "command"]
        assert fixes and all(kind == "fix" for kind, _, _ in result.events if kind != "command")
        assert all(estimate == true for true, estimate in fixes)

    def test_huge_wheel_base_turn_is_rejected(self, ref_world):
        # a 90-degree pivot of about 1.6e300 s, too long to integrate in 0.01 s substeps
        calibration = default_calibration(replace(ref_world.robot, wheel_base=1e300))
        with pytest.raises(ValueError, match="duration must be in"):
            turn_command("left", calibration)

    def test_oracle_corner_rate_high(self, ref_world):
        rate, results = corner_success_rate(ref_world, None, trials=3, base_seed=0)
        assert rate >= 0.95
        for r in results:
            assert r.success and r.final_error <= 2.0  # corner_success_rate's default success_radius

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


def hook_trials(monkeypatch, hook):
    """Send every trial of a run, corner_success_rate's or run_trial's, through ``hook(run, seed)``, one seed
    after another, where ``run`` runs one seed through the run's real runner: run_trial would come back to
    the hook."""
    per_run = rfsim._trials

    def hooked(*args, **kwargs):
        run = per_run(*args, **kwargs)
        one = lambda seed: run([seed])[0]
        return lambda seeds: [hook(one, seed) for seed in seeds]

    monkeypatch.setattr(rfsim, "_trials", hooked)


def stub_result(world, seed):
    """A made-up trial result for a stub runner: no trial runs."""
    return rfsim.TrialResult(seed % 3 == 0, seed / 7, world.robot, [], "stub", seed=seed)


class TestCornerRuns:
    """corner_success_rate runs its seeds in this process, at most 128 consecutive seeds (two lane blocks)
    to a call of the run's runner, whose trials advance in lockstep."""

    @pytest.mark.parametrize("oracle", [False, True])
    @pytest.mark.parametrize("trials", [1, 2, 3, 7, 100, 128, 129, 256, 300])
    def test_results_match_the_serial_loop(self, ref_world, trained, trials, oracle):
        world, bundle = with_noise_sigma(ref_world, 2.0), None if oracle else trained[0]
        rate, results = corner_success_rate(world, bundle, trials, base_seed=11)
        expected = serial_trials(world, bundle, trials, base_seed=11)
        assert results == expected and [repr(r) for r in results] == [repr(r) for r in expected]  # repr tells -0.0 from 0.0
        assert rate == sum(r.success for r in expected) / trials

    @pytest.mark.parametrize("trials, first_failure", [(7, 0), (7, 3), (7, 6), (300, 127), (300, 128), (300, 200)])
    @pytest.mark.parametrize("error", [ValueError, NoPath, OutOfBounds])
    def test_the_first_failing_trial_raises_as_in_the_serial_loop(self, ref_world, monkeypatch, trials, first_failure, error):
        def trial(run, seed):
            if seed >= first_failure:
                raise error(f"trial {seed} failed")
            return run(seed)

        hook_trials(monkeypatch, trial)
        expected = serial_trials(ref_world, None, trials)
        assert type(expected) is error and str(expected) == f"trial {first_failure} failed"
        with pytest.raises(error) as raised:
            corner_success_rate(ref_world, None, trials)
        assert str(raised.value) == str(expected)

    @pytest.mark.parametrize("trials, failing", [(10, (3, 5)), (10, (0, 9)), (200, (140, 150)), (200, (80, 3)), (300, (299, 256))])
    def test_a_call_failing_at_a_higher_seed_first_raises_the_serial_loops_first_error(self, ref_world, monkeypatch, trials, failing):
        # a call fails at whichever of its trials fails first in the rounds, here the highest; the serial loop
        # fails at the lowest, which only running the call's seeds alone and in order finds
        def run(seeds):
            failed = [seed for seed in seeds if seed in failing]
            if failed:
                raise ValueError(f"trial {max(failed)} failed")
            return [stub_result(ref_world, seed) for seed in seeds]

        monkeypatch.setattr(rfsim, "_trials", lambda *args, **kwargs: run)
        with pytest.raises(ValueError, match=f"^trial {min(failing)} failed$"):
            corner_success_rate(ref_world, None, trials)

    def test_an_interrupt_propagates_and_runs_nothing_again(self, ref_world, monkeypatch):
        calls = []

        def run(seeds):
            calls.append(seeds)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return [stub_result(ref_world, seed) for seed in seeds]

        monkeypatch.setattr(rfsim, "_trials", lambda *args, **kwargs: run)
        with pytest.raises(KeyboardInterrupt):
            corner_success_rate(ref_world, None, 300, base_seed=5)
        assert [list(seeds) for seeds in calls] == [list(range(5, 133)), list(range(133, 261))]

    def test_a_failing_call_reruns_its_seeds_alone_up_to_the_error_and_no_later_call_runs(self, ref_world, monkeypatch):
        calls = []

        def run(seeds):
            calls.append(list(seeds))
            if 140 in seeds:
                raise ValueError("trial 140 failed")
            return [stub_result(ref_world, seed) for seed in seeds]

        monkeypatch.setattr(rfsim, "_trials", lambda *args, **kwargs: run)
        with pytest.raises(ValueError, match="^trial 140 failed$"):
            corner_success_rate(ref_world, None, 300)
        assert calls == [list(range(128)), list(range(128, 256))] + [[seed] for seed in range(128, 141)]

    @pytest.mark.parametrize(
        "trials, sizes",
        [(1, [1]), (100, [100]), (127, [127]), (128, [128]), (129, [128, 1]), (255, [128, 127]), (256, [128, 128])]
        + [(257, [128, 128, 1]), (300, [128, 128, 44]), (384, [128] * 3), (385, [128] * 3 + [1])],
    )
    def test_the_runner_gets_consecutive_runs_of_at_most_128_seeds(self, ref_world, monkeypatch, trials, sizes):
        # one call over all the seeds would keep every trial's noise lanes alive at once: 23 MB traced at 3,000 trials, not 10
        calls, per_run = [], rfsim._trials

        def hooked(*args, **kwargs):
            run = per_run(*args, **kwargs)
            return lambda seeds: calls.append(list(seeds)) or run(seeds)

        monkeypatch.setattr(rfsim, "_trials", hooked)
        _, results = corner_success_rate(ref_world, None, trials, base_seed=5)
        assert [len(seeds) for seeds in calls] == sizes
        assert [seed for seeds in calls for seed in seeds] == list(range(5, 5 + trials)) == [r.seed for r in results]


class TestLockstep:
    """A run advances its seeds' trials in lockstep: round k derives every active trial's fix k, with one
    _predict_rows call for the round's model rows.  Each trial must be the one reference_run_trial gives,
    field for field and bit for bit, whichever round the others end in."""

    @pytest.fixture
    def rounds(self, monkeypatch):
        """The rows of each _predict_rows call a run makes: the count, and whether a lone row came as a vector."""
        calls, real = [], rfsim._predict_rows

        def record(bundle, rows):
            calls.append((1 if rows.ndim == 1 else len(rows), rows.ndim == 1))
            return real(bundle, rows)

        monkeypatch.setattr(rfsim, "_predict_rows", record)
        return calls

    @pytest.mark.parametrize(
        "sigma, step, seeds, reasons",
        [
            (2.0, 2.0, range(40), {"done", "left_map+left_walkable"}),  # 25 of them leave the map
            (2.0, 0.3, range(24, 40), {"done", "left_map+left_walkable"}),  # seed 28 runs 67 rounds, the last 25 alone
            (2.0, 0.017, [0, 1, 3], {"done", "fix_budget"}),  # 489, 500 and 493 rounds
            (6.0, 2.0, range(2**63 - 20, 2**63 + 20), None),  # seeds that mask to both ends of the 63-bit range
        ],
        ids=["left-map", "narrows-to-one", "fix-budget", "noisy-masked-seeds"],
    )
    def test_model_runs_match_the_reference(self, ref_world, trained, rounds, sigma, step, seeds, reasons):
        world = with_noise_sigma(ref_world, sigma)
        path = astar(world.grid, REFERENCE_START, REFERENCE_GOAL)
        kwargs = dict(nav_config=NavConfig(step_distance=step))
        results = rfsim._trials(world, trained[0], path, **kwargs)(seeds)
        expected = [reference_run_trial(world, trained[0], path, seed=seed, **kwargs) for seed in seeds]
        assert results == expected and repr(results) == repr(expected)  # repr tells -0.0 from 0.0
        assert reasons is None or {r.reason for r in results} == reasons
        # one call per round, for the trials still in it; a lone row as a vector
        fixes = [sum(kind != "command" for kind, _, _ in r.events) for r in results]  # "nofix" included: one per round
        assert rounds == [(n, n == 1) for n in (sum(f > k for f in fixes) for k in range(max(fixes)))]
        assert len(set(fixes)) > 1  # the trials end in different rounds

    @pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "no-known-ap"])
    def test_runs_without_model_rows_make_no_forward_call(self, ref_world, trained, monkeypatch, oracle):
        # an oracle robot scans nothing; a model that knows none of the world's APs gets a "nofix" every round
        bundle = None if oracle else with_kept_columns(trained[0], range(6))
        monkeypatch.setattr(rfsim, "_predict_rows", lambda *args: pytest.fail("a forward pass without a model row"))
        path = astar(ref_world.grid, REFERENCE_START, REFERENCE_GOAL)
        kwargs = dict(nav_config=NavConfig(max_consecutive_misses=3), calibration=veered(ref_world.robot, 1e-3))
        results = rfsim._trials(ref_world, bundle, path, **kwargs)(range(20))
        expected = [reference_run_trial(ref_world, bundle, path, seed=seed, **kwargs) for seed in range(20)]
        assert results == expected and repr(results) == repr(expected)
        kinds = {kind for r in results for kind, _, _ in r.events} - {"command"}
        assert kinds == ({"fix"} if oracle else {"nofix"})

    def test_a_seed_twice_in_one_run_is_the_same_trial_twice(self, ref_world, trained):
        path = astar(ref_world.grid, REFERENCE_START, REFERENCE_GOAL)
        first, again, other = rfsim._trials(ref_world, trained[0], path)([3, 3, 4])
        assert first == again == run_trial(ref_world, trained[0], path, seed=3) and first is not again
        assert other == run_trial(ref_world, trained[0], path, seed=4)


def reference_predict_position(bundle, snapshot):
    """predict_position before its prediction core moved into a function of its own, verbatim."""
    observed = snapshot.rssi_by_mac()
    kept = bundle.selection.kept_columns
    if not any(mac in observed for mac in kept):
        raise NoKnownAccessPoints("snapshot contains none of the model's access points")
    vector = np.array([float(observed.get(mac, MISSING_RSSI)) for mac in kept])
    out = forward(bundle.model, prepare_features(bundle, vector))
    x, y = denormalize_coords(bundle.params, out)
    return PositionEstimate(float(x), float(y))


def reference_run_trial(world, bundle, path, nav_config=None, success_radius=2.0, seed=0, *, calibration=None, scan_period=2.0):
    """run_trial when each fix went through simulate_scan and predict_position, verbatim
    but for the reference copies of those two."""
    config = nav_config or NavConfig()
    heading = first_segment_heading(path)
    checkpoints = extract_checkpoints(path, heading)
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
        if bundle is None:
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
    return rfsim.TrialResult(success, final_error, robot, events, reason, seed)


def with_kept_columns(bundle, foreign):
    """The bundle with the kept columns whose positions are in ``foreign`` renamed to MACs no world AP has."""
    kept = tuple(f"02:00:00:00:01:{i:02X}" if i in foreign else mac for i, mac in enumerate(bundle.selection.kept_columns))
    return replace(bundle, selection=replace(bundle.selection, kept_columns=kept))


class TestDirectScanPath:
    """run_trial feeds _scan_levels straight into _predict_rows; it must give the
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


def lane_noise(words, n: int) -> np.ndarray:
    """``standard_normal(n)`` of a fresh generator seeded from a lane's words, as a lone row draws it."""
    return np.random.Generator(np.random.PCG64(rfsim._Lane(words))).standard_normal(n)


class TestNoiseLanes:
    """Trials draw their scan noise from lanes: the seed words of np.random.default_rng([seed, draw]),
    derived many at a time; every draw must be default_rng's, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        lanes=st.lists(st.tuples(st.integers(0, 2**63 - 1) | st.integers(0, 2**32 - 1), st.integers(0, 2**21 - 1)), min_size=1, max_size=12),
        n=st.integers(1, 8),
    )
    @example(lanes=[(0, 0), (2**32 - 1, 1), (2**32, 2**21 - 1), (2**63 - 1, 499), (5, 0)], n=6)  # both seed word counts in one call
    def test_lanes_draw_what_default_rng_draws(self, lanes, n):
        words = rfsim._lane_words(*zip(*lanes))
        rows = np.empty((len(words), n))  # as a round draws them: a generator per lane, a row each, in turn
        for row, lane in zip(rows, words):
            np.random.Generator(np.random.PCG64(rfsim._Lane(lane))).standard_normal(out=row)
        for (seed, draw), lane, row in zip(lanes, words, rows):
            assert rfsim._Lane(lane).generate_state(4, np.uint64).tobytes() == np.random.SeedSequence([seed, draw]).generate_state(4, np.uint64).tobytes()
            expected = np.random.default_rng([seed, draw]).standard_normal(n)
            assert lane_noise(lane, n).tobytes() == row.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("block", [0, 2**26 - 1, 2**26, 2**57 - 1], ids=["first", "below-2**32", "from-2**32", "last"])
    def test_a_block_holds_its_seeds_first_draws(self, block):
        words = rfsim._lane_block(block)
        assert words.shape == (64, 16, 4) and not words.flags.writeable
        for i, seed_words in enumerate(words):
            for draw, lane in enumerate(seed_words):
                expected = np.random.default_rng([block * 64 + i, draw]).standard_normal(6)
                assert lane_noise(lane, 6).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "seed, step, fixes",
        [(0, 0.3, 32), (63, 0.3, 32), (2**32 + 5, 0.3, 32), (2**63 + 3, 0.3, 32), (28, 0.3, 64), (2, 0.02, 256), (0, 0.01, 499)],
        ids=["0", "63", "4294967301", "9223372036854775811", "past-64", "past-256", "fix-budget"],  # 2**63 + 3 masks to 3
    )
    def test_a_trial_past_the_blocks_draws_matches_the_old_loop(self, ref_world, trained, seed, step, fixes):
        # past draw 16 a trial derives the rest of its lanes up to _MAX_FIXES; 0.3 ft steps take about 39 fixes
        path = astar(ref_world.grid, REFERENCE_START, REFERENCE_GOAL)
        kwargs = dict(nav_config=NavConfig(step_distance=step), seed=seed)
        result, expected = run_trial(ref_world, trained[0], path, **kwargs), reference_run_trial(ref_world, trained[0], path, **kwargs)
        assert result == expected and repr(result) == repr(expected)
        assert sum(kind != "command" for kind, _, _ in result.events) > fixes

    @pytest.mark.parametrize("seed, step, calls", [(28, 0.3, [rfsim._MAX_FIXES - 16]), (0, 2.0, [])], ids=["past-16", "within-16"])
    def test_a_trial_past_its_blocks_draws_derives_the_rest_in_one_call(self, ref_world, trained, monkeypatch, seed, step, calls):
        # seed 28's 0.3 ft-step trial takes 67 fixes, seed 0's 2 ft-step trial fewer than 16
        path = astar(ref_world.grid, REFERENCE_START, REFERENCE_GOAL)
        trial = rfsim._trials(ref_world, trained[0], path, NavConfig(step_distance=step))
        rfsim._lane_block(0)  # the block's 16 draws are the memo's, not the trial's
        seen = []
        lane_words = rfsim._lane_words
        monkeypatch.setattr(rfsim, "_lane_words", lambda seeds, draws: seen.append(len(seeds)) or lane_words(seeds, draws))
        (result,) = trial([seed])
        assert (sum(kind != "command" for kind, _, _ in result.events) > 16) == bool(calls)
        assert seen == calls

    def test_every_lane_reaches_pcg64_as_a_contiguous_uint64_row(self, ref_world, trained, monkeypatch):
        # PCG64 reads the words where they lie: a transposed, strided row would seed other draws without an error
        path = astar(ref_world.grid, REFERENCE_START, REFERENCE_GOAL)
        trial = rfsim._trials(ref_world, trained[0], path, NavConfig(step_distance=0.3))
        rows = []
        generate_state = rfsim._Lane.generate_state
        monkeypatch.setattr(rfsim._Lane, "generate_state", lambda self, *request: rows.append(generate_state(self, *request)) or rows[-1])
        results = trial(range(60, 70)) + trial([28])  # rounds of many rows past their block rows, then a lone row
        fixes = [sum(kind != "command" for kind, _, _ in result.events) for result in results]
        assert len(rows) == sum(fixes) and max(fixes[:-1]) > 16 and fixes[-1] > 16
        for row in rows:
            assert row.dtype == np.uint64 and row.shape == (4,) and row.flags.c_contiguous

    @pytest.mark.parametrize(
        "request_", [(8, np.uint32), (4, np.uint32), (2, np.uint64), (8, np.uint64), (4, np.int64), (4, "u8")], ids=["8-u4", "4-u4", "2-u8", "8-u8", "4-i8", "4-str"]
    )
    def test_a_lane_refuses_any_other_state_request(self, request_):
        lane = rfsim._Lane(rfsim._lane_block(0)[0][0])
        assert lane.generate_state(4, np.uint64) is lane.words
        with pytest.raises(InvalidParameter):
            lane.generate_state(*request_)

    def test_the_block_memo_stays_bounded_over_a_long_run(self, ref_world, trained):
        trial = rfsim._trials(ref_world, trained[0], astar(ref_world.grid, REFERENCE_START, REFERENCE_GOAL))
        rfsim._lane_block.cache_clear()
        try:
            sizes = []
            for seed in range(32, 32 + 64 * 6):  # seven blocks, in seed order as corner_success_rate runs them
                trial([seed])
                sizes.append(rfsim._lane_block.cache_info().currsize)
            info = rfsim._lane_block.cache_info()
        finally:
            rfsim._lane_block.cache_clear()
        assert max(sizes) == info.maxsize == 4
        assert info.misses == 7  # each block derived once

    def test_trials_in_threads_draw_their_own_lanes(self, ref_world, trained):
        # a generator shared by the threads would be re-seeded by one between another's seeding and drawing
        from concurrent.futures import ThreadPoolExecutor

        path = astar(ref_world.grid, REFERENCE_START, REFERENCE_GOAL)
        expected = [run_trial(ref_world, trained[0], path, seed=seed) for seed in range(24)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda seed: run_trial(ref_world, trained[0], path, seed=seed), range(24), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == expected


# levels (loss + sigma * draw) at the rounding and clamping edges: -0.5, 0 and +0.5, and next to RSSI_FLOOR
EDGE_LEVELS = [-0.5, -0.0, 0.0, 0.5, -1.0, math.nextafter(-0.5, 0.0), math.nextafter(-0.5, -1.0), math.nextafter(0.0, -1.0)]
EDGE_LEVELS += [RSSI_FLOOR + d for d in (-1.0, -0.5, 0.0, 0.5, 1.0)] + [math.nextafter(RSSI_FLOOR - 0.5, x) for x in (0.0, -math.inf)]
SPECIAL = [math.nan, math.inf, -math.inf]


class TestLevelRows:
    """A round of two or more scans computes its levels as one array (_level_rows); every row must be the
    model row a lone scan gets from _scan_levels, kept column by kept column, bit for bit."""

    @staticmethod
    def check(sigmas, losses, noise, gather):
        m = len(sigmas)
        world = open_world([AccessPointSim(f"02:00:00:00:00:{i + 1:02X}", "LabNet", (i + 0.5, 0.5), noise_sigma=sigma) for i, sigma in enumerate(sigmas)])
        with np.errstate(all="ignore"):  # inf * 0, inf - inf and overflow, which the scalar formula meets silently
            rows = rfsim._level_rows(world, losses, np.array(noise, dtype=float), gather)
        expected = []
        for loss, draws in zip(losses, noise):
            levels = rfsim._scan_levels(world, loss, draws)
            expected.append([MISSING_RSSI if i == m else float(levels[i]) for i in gather])  # index m: not in the world
        assert rows.shape == (len(losses), len(gather)) and rows.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("sigma", [0.0, 1.0, 50.0])
    def test_every_edge_level_with_every_edge_draw(self, sigma):
        # -0.5 + sigma * -1e-17 rounds to -0.5 before the half is added, so the level is 0 where adding the
        # half first gives -1; a NaN level goes to the floor, an infinite one to a bound
        draws = [0.0, -0.0, 1e-17, -1e-17, 0.5, -0.5, *SPECIAL]
        pairs = [(loss, draw) for loss in EDGE_LEVELS + SPECIAL for draw in draws]
        self.check([sigma, 2.0], [[loss, -40.0] for loss, _ in pairs], [[draw, 1.0] for _, draw in pairs], [1, 2, 0])

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        sigmas=st.lists(st.sampled_from([0.0, 1.0, 2.0, 50.0]) | st.floats(0.0, 50.0), min_size=1, max_size=6),
        n=st.integers(2, 5),
    )
    def test_rows_are_the_scalar_levels_bit_for_bit(self, data, sigmas, n):
        m = len(sigmas)
        loss = st.sampled_from(EDGE_LEVELS + SPECIAL) | st.floats(RSSI_FLOOR - 50.0, 50.0) | st.floats()
        draw = st.sampled_from([0.0, -0.0, 1e-17, -1e-17, *SPECIAL]) | st.floats(-8.0, 8.0) | st.floats()
        losses = data.draw(st.lists(st.lists(loss, min_size=m, max_size=m), min_size=n, max_size=n))
        noise = data.draw(st.lists(st.lists(draw, min_size=m, max_size=m), min_size=n, max_size=n))
        gather = data.draw(st.lists(st.integers(0, m), min_size=1, max_size=8))
        self.check(sigmas, losses, noise, gather)


def veered(robot, veer):
    """The robot's calibration with ``veer`` added to its veer bias: forward steps curve left when positive."""
    cal = default_calibration(robot)
    return replace(cal, veer_bias=cal.veer_bias + veer)


class TestWalkableCheck:
    """run_trial checks whether each move's substeps stay on walkable cells when the move is made; every trial
    must be the per-command check's, field for field."""

    @settings(max_examples=80, deadline=None)
    @given(
        floor=st.booleans(),  # an open 40 x 7 floor of 10 ft cells, or the reference world
        oracle=st.booleans(),
        seed=st.integers(0, 2**32),
        # steps of 3,001-6,001 substeps, of 501-3,001, or of 51-301
        step=st.floats(30.0, 60.0) | st.floats(5.0, 30.0) | st.floats(0.5, 3.0),
        radius=st.floats(0.5, 0.8),  # times the step
        veer=st.none() | st.floats(-1e-3, 1e-3),
        goal=st.integers(3, 39),
        pillar=st.none() | st.floats(0.0, 1.0),
    )
    def test_trials_match_the_per_command_check(self, ref_world, trained, floor, oracle, seed, step, radius, veer, goal, pillar):
        world = replace(ref_world, grid=GridMap(40, 7, 10.0)) if floor else ref_world
        path = astar(world.grid, (0, 3), (goal, 3)) if floor else astar(world.grid, REFERENCE_START, REFERENCE_GOAL)
        kwargs = dict(
            nav_config=NavConfig(step_distance=step, checkpoint_radius=radius * step),
            seed=seed,
            calibration=None if veer is None else veered(world.robot, veer),
        )
        bundle = None if oracle else trained[0]
        if pillar is not None:
            # the robot steers by fixes alone, so it drives the same substeps with the cell of the
            # ``pillar`` fraction of them blocked, and crosses that cell in any of its commands
            poses = list(run_trial(world, bundle, path, **kwargs).trajectory)
            cell = cell_of(world.grid, *poses[round(pillar * (len(poses) - 1))][:2])
            if world.grid.in_bounds(cell):
                walkable = world.grid.walkable.copy()
                walkable[cell[1], cell[0]] = False
                world = replace(world, grid=replace(world.grid, walkable=walkable))
        result, expected = run_trial(world, bundle, path, **kwargs), reference_run_trial(world, bundle, path, **kwargs)
        assert result == expected and repr(result) == repr(expected)  # repr tells -0.0 from 0.0

    # 35 ft steps, 3,501 poses each.  Veering north, the robot crosses the open north row at
    # cells 14-21 (commands 5 and 6) on its way to cell (20, 1), or at 21-24 (command 7) on to (24, 1).
    @pytest.mark.parametrize(
        "goal, veer, pillar, reason",
        [
            (20, 0.0, None, "done"),
            (20, 2e-4, None, "done"),  # off the corridor, but on walkable cells
            (20, 2e-4, 15, "done+left_walkable"),  # crossed in command 5 only
            (24, 2e-4, 22, "done+left_walkable"),  # crossed in command 7 only
            (24, 2.4e-4, None, "left_map+left_walkable"),
        ],
    )
    def test_long_veering_steps_across_the_north_row(self, ref_world, goal, veer, pillar, reason):
        north = ["."] * 40
        if pillar is not None:
            north[pillar] = "#"
        world = replace(ref_world, grid=GridMap.from_text("40 3 10\n" + "\n".join(["#" * 40, "." * 40, "".join(north)]) + "\n"))
        path = astar(world.grid, (0, 1), (goal, 1))
        kwargs = dict(nav_config=NavConfig(step_distance=35.0, checkpoint_radius=21.0), calibration=veered(world.robot, veer))
        result = run_trial(world, None, path, **kwargs)
        assert result == reference_run_trial(world, None, path, **kwargs)
        assert result.reason == reason
        if pillar is not None:
            assert (pillar, 2) in {cell_of(world.grid, x, y) for x, y, _ in result.trajectory}

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(*[st.floats(-2.0, 14.0) | st.sampled_from([0.0, -0.0, 12.0, -1e-300, math.nan, math.inf, -math.inf])] * 2),
            min_size=1,
            max_size=6,
        )
    )
    def test_all_walkable_matches_a_per_point_check(self, ref_world, points):
        # the reference world's L-shaped mask of 12 x 12 one-foot cells: each point in bounds, then on a walkable
        # cell; a NaN is in neither
        grid = ref_world.grid
        expected = all(0 <= x < grid.width and 0 <= y < grid.height and grid.walkable[math.floor(y), math.floor(x)] for x, y in points)
        assert rfsim._all_walkable(grid, np.array(points).T) is expected

    @staticmethod
    def hour_long_steps(steps):
        """A world and run_trial arguments for an oracle trial of ``steps`` forward steps of MAX_DURATION, 360,001
        poses each, one per 3,600 ft cell, then a stop; the substep-length memo is filled outside any trace."""
        grid = GridMap(steps + 1, 1, 3600.0)
        world = SimWorld(grid, (AccessPointSim(MAC, "Net", (1800.0, 1800.0)),), SimRobot(wheel_base=0.4))
        args = (world, None, astar(grid, (0, 0), (steps, 0)), NavConfig(step_distance=MAX_DURATION, checkpoint_radius=1000.0))
        result = run_trial(*args)
        assert result.reason == "done"
        assert [c.reason for kind, _, c in result.events if kind == "command"] == ["forward"] * steps + ["stop"]
        return args, result

    def test_memory_does_not_grow_with_hour_long_commands(self):
        # each step's poses are checked and dropped when its move is made, so the peak is one step's poses
        # beside the check's floored cells and flat index row, however many steps the trial drives; poses kept
        # past their move would add a step's each
        peaks = {}
        for steps in (2, 6):
            args, _ = self.hour_long_steps(steps)
            tracemalloc.start()
            try:
                run_trial(*args)
                peaks[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        poses = 3 * 360_001 * 8  # bytes of one command's poses
        assert peaks[6] < peaks[2] + poses / 10
        assert peaks[6] < 2.1 * poses

    def test_writing_the_trajectory_does_not_grow_with_hour_long_commands(self):
        # the trajectory is replayed a command at a time, so navigate's CSV holds one step's poses at once
        peaks = {}
        for steps in (1, 3):
            _, result = self.hour_long_steps(steps)
            with open(os.devnull, "w") as sink:
                tracemalloc.start()
                try:
                    write_rows(sink, ["x", "y", "heading"], result.trajectory)
                    peaks[steps] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert peaks[3] < peaks[1] + 3 * 360_001 * 8 / 10


def pose_graph(trial):
    """The nodes and the moves of a run's pose graph that its start node reaches, found through the per-seed
    function's closure: a node is (x, y, heading, path loss, moves, walkable), a move (command, end node)."""
    origin = inspect.getclosurevars(trial).nonlocals["origin"]
    nodes, moves, todo = {id(origin): origin}, [], [origin]
    while todo:
        for move in todo.pop()[4].values():
            moves.append(move)
            if id(move[1]) not in nodes:
                nodes[id(move[1])] = move[1]
                todo.append(move[1])
    return list(nodes.values()), moves


def path_checks(grid, robot, origin):
    """The ``_all_walkable`` checks of the commands on each node's one path from ``origin``, a list per node
    in the order of a depth-first walk, asserting on the way that each node's flag is the AND of its checks."""
    found, todo = [], [(origin, [])]
    while todo:
        here, checks = todo.pop()
        assert here[5] is all(checks)
        found.append(checks)
        for command, end in here[4].values():
            todo.append((end, checks + [rfsim._all_walkable(grid, rfsim._command_poses(robot, command, here[:3])[:2])]))
    return found


def minus_zero_heading(path):
    """first_segment_heading with a -0.0 for a 0 component, so a route that starts east starts at heading -0.0."""
    x, y = planner.first_segment_heading(path).vector
    return SimpleNamespace(vector=(x or -0.0, y or -0.0))


@contextlib.contextmanager
def scripted_nav(scripts):
    """nav_step, in run_trial and in reference_run_trial, replaced by one that issues the commands of
    ``scripts[k % len(scripts)]`` in the k-th trial it sees start, then a stop into Done."""
    trials = []

    def nav(state, fix):
        if state.mode is Mode.AWAITING_FIX:  # a start state: every later one is advancing
            trials.append(iter(scripts[len(trials) % len(scripts)]))
        command = next(trials[-1], None)
        if command is None:
            return replace(state, mode=Mode.DONE, next_checkpoint_index=len(state.plan)), stop_command()
        return replace(state, mode=Mode.ADVANCING), command

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rfsim, "nav_step", nav)
        patch.setattr(sys.modules[__name__], "nav_step", nav)
        yield


class TestPoseGraph:
    """A run's trials walk one pose graph: path loss, moves and walkability are derived once per node;
    every trial must be the one reference_run_trial gives, field for field and bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        floor=st.booleans(),  # an open 40 x 7 floor of 10 ft cells, or the reference world
        oracle=st.booleans(),
        base_seed=st.integers(0, 2**64) | st.integers(2**63 - 20, 2**63 + 20),
        trials=st.integers(1, 24),
        sigma=st.sampled_from([2.0, 6.0]),
        # a step over 10 s takes the uncached integration path
        step=st.sampled_from([2.0, 0.6]) | st.floats(0.5, 3.0) | st.floats(10.5, 40.0),
        veer=st.none() | st.floats(-1e-3, 1e-3),
        goal=st.integers(3, 39),
        pillar=st.none() | st.floats(0.0, 1.0),
        minus_zero=st.booleans(),
        shared=st.sampled_from(["corner_success_rate", "_trials"]),
    )
    @example(False, False, 2**63 - 3, 24, 6.0, 2.0, None, 3, 0.4, True, "corner_success_rate")
    def test_runs_match_the_reference_seed_by_seed(self, ref_world, trained, floor, oracle, base_seed, trials, sigma, step, veer, goal, pillar, minus_zero, shared):
        world = with_noise_sigma(replace(ref_world, grid=GridMap(40, 7, 10.0)) if floor else ref_world, sigma)
        start, goal = ((0, 3), (goal, 3)) if floor else (REFERENCE_START, REFERENCE_GOAL)
        path = astar(world.grid, start, goal)
        bundle = None if oracle else trained[0]
        kwargs = dict(
            nav_config=NavConfig(step_distance=step, checkpoint_radius=0.6 * step if floor else 1.5),
            calibration=None if veer is None else veered(world.robot, veer),
        )
        with pytest.MonkeyPatch.context() as patch:
            if minus_zero:
                patch.setattr(rfsim, "first_segment_heading", minus_zero_heading)
                patch.setattr(sys.modules[__name__], "first_segment_heading", minus_zero_heading)
            if pillar is not None:
                # the cell the first trial crosses at the ``pillar`` fraction of its substeps is blocked, so
                # later trials that drive the same moves reach its end node, which holds the failed check
                poses = list(run_trial(world, bundle, path, seed=base_seed, **kwargs).trajectory)
                cell = cell_of(world.grid, *poses[round(pillar * (len(poses) - 1))][:2])
                if world.grid.in_bounds(cell) and cell not in (start, goal):
                    walkable = world.grid.walkable.copy()
                    walkable[cell[1], cell[0]] = False
                    world = replace(world, grid=replace(world.grid, walkable=walkable))
            if shared == "corner_success_rate":
                path = astar(world.grid, start, goal)  # it plans its route on the world it is given
                rate, results = corner_success_rate(world, bundle, trials, base_seed, start, goal, **kwargs)
                assert rate == sum(r.success for r in results) / trials
            else:
                trial = rfsim._trials(world, bundle, path, **kwargs)
                results = trial([base_seed + i for i in range(trials)])  # in lockstep
            expected = [reference_run_trial(world, bundle, path, seed=base_seed + i, **kwargs) for i in range(trials)]
        assert results == expected and repr(results) == repr(expected)  # repr tells -0.0 from 0.0

    def test_a_decided_move_is_neither_integrated_nor_checked_again(self, ref_world, trained, monkeypatch):
        # every move is decided when it is made, the moves of the trials that leave the map included
        path = astar(ref_world.grid, REFERENCE_START, REFERENCE_GOAL)
        trial = rfsim._trials(ref_world, trained[0], path)
        first = trial(range(40))  # in lockstep
        kept = [r for r in first if not r.reason.startswith("left_map")]
        assert {r.reason for r in kept} == {"done"} and len(kept) == 15
        calls = []
        for name in ("_command_poses", "_all_walkable", "_path_loss"):
            real = getattr(rfsim, name)
            monkeypatch.setattr(rfsim, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
        assert trial(range(40)) == first
        assert calls == []

    def test_every_node_holds_its_path_walkability(self, ref_world, trained, monkeypatch):
        # TestWalkableCheck's north row with a pillar at cell 15, veering a little harder on to (24, 1): the
        # robot crosses the pillar in command 5 only, stays on walkable cells in command 6 and leaves the map in 7
        north = ["."] * 40
        north[15] = "#"
        world = replace(ref_world, grid=GridMap.from_text("40 3 10\n" + "\n".join(["#" * 40, "." * 40, "".join(north)]) + "\n"))
        path = astar(world.grid, (0, 1), (24, 1))
        kwargs = dict(nav_config=NavConfig(step_distance=35.0, checkpoint_radius=21.0), calibration=veered(world.robot, 2.2e-4))
        trial = rfsim._trials(world, None, path, **kwargs)
        (result,) = trial([0])
        assert result == reference_run_trial(world, None, path, **kwargs) and result.reason == "left_map+left_walkable"
        nodes, moves = pose_graph(trial)  # in the order driven: the graph is a chain
        assert [end for _, end in moves] == nodes[1:]
        assert path_checks(world.grid, result.robot, nodes[0]) == [[]] + [[True] * k for k in range(1, 5)] + [
            [True] * 4 + [False], [True] * 4 + [False, True], [True] * 4 + [False, True, False]]
        assert nodes[-1][3] is None  # the last move ends off the map
        calls = []
        real = rfsim._command_poses
        monkeypatch.setattr(rfsim, "_command_poses", lambda *args: calls.append(args) or real(*args))
        monkeypatch.setattr(rfsim, "_all_walkable", lambda *args: pytest.fail("a node's walkability was checked again"))
        assert trial([1]) == [replace(result, seed=1)]  # an oracle robot drives the same moves whatever the seed
        assert calls == []
        monkeypatch.undo()
        # at sigma 6 some trials of the reference run fail the check inside the map, on a branch of the tree
        world = with_noise_sigma(ref_world, 6.0)
        run = rfsim._trials(world, trained[0], astar(world.grid, REFERENCE_START, REFERENCE_GOAL))
        results = run(range(300))
        assert {"done", "done+left_walkable"} <= {r.reason for r in results}
        assert not all(map(all, path_checks(world.grid, results[0].robot, pose_graph(run)[0][0])))

    def test_a_heading_of_minus_zero_is_its_own_node(self, monkeypatch):
        # in-place pivots left and right by 0.05 rad bring the robot back to its position at heading 0.0
        world = open_world([AccessPointSim(MAC, "Net", (2.0, 2.0))], SimRobot(wheel_base=0.4))
        path = astar(world.grid, (5, 5), (8, 5))
        monkeypatch.setattr(rfsim, "first_segment_heading", minus_zero_heading)
        left, right = DriveCommand(-1.0, 1.0, 0.01, "pivot"), DriveCommand(1.0, -1.0, 0.01, "pivot")
        with scripted_nav([[left, right]]):
            trial = rfsim._trials(world, None, path)
            trial([0])
        nodes, _ = pose_graph(trial)
        origin, back = nodes[0], nodes[0][4][id(left)][1][4][id(right)][1]
        assert origin[:3] == (5.5, 5.5, -0.0) and math.copysign(1.0, origin[2]) == -1.0
        assert back[:3] == (5.5, 5.5, 0.0) and math.copysign(1.0, back[2]) == 1.0 and back is not origin

    def test_equal_commands_of_other_types_are_other_moves(self, ref_world):
        # 2 == 2.0, but a move holds the very command it was issued for
        path = astar(ref_world.grid, REFERENCE_START, REFERENCE_GOAL)
        floats, ints = DriveCommand(1.0, 1.0, 2.0, "forward"), DriveCommand(1, 1, 2, "forward")
        assert floats == ints
        with scripted_nav([[floats], [ints]]):
            trial = rfsim._trials(ref_world, None, path)
            results = [trial([seed])[0] for seed in range(4)]  # one at a time: the script goes by the trial that starts
            expected = [reference_run_trial(ref_world, None, path, seed=seed) for seed in range(4)]
        assert results == expected and repr(results) == repr(expected)
        assert [type(c.duration) for kind, _, c in results[1].events if kind == "command"] == [int, float]
        nodes, _ = pose_graph(trial)
        assert [move[0] for move in nodes[0][4].values()] == [floats, ints]
        assert [id(move[0]) for move in nodes[0][4].values()] == [id(floats), id(ints)]

    def test_a_long_high_noise_run_keeps_at_most_the_cap(self, ref_world, trained, monkeypatch):
        # 0.1 ft steps at sigma 20: each trial wanders to fresh poses, and 150 trials make about 6,000 moves
        world = with_noise_sigma(ref_world, 20.0)
        path = astar(world.grid, REFERENCE_START, REFERENCE_GOAL)
        kwargs = dict(nav_config=NavConfig(step_distance=0.1))
        integrated = []
        real = rfsim._command_poses
        monkeypatch.setattr(rfsim, "_command_poses", lambda *args: integrated.append(1) or real(*args))
        trial = rfsim._trials(world, trained[0], path, **kwargs)
        results = [trial([seed])[0] for seed in range(150)]
        nodes, moves = pose_graph(trial)
        assert len(integrated) > 2 * rfsim._GRAPH_MOVES
        assert len(moves) == rfsim._GRAPH_MOVES and len(nodes) == len(moves) + 1  # a tree: one node per move
        assert len({id(end) for _, end in moves}) == len(moves)  # and no end node is reached twice
        for seed in (0, 149):  # the first trials fill the graph; the last ones run past the cap
            expected = reference_run_trial(world, trained[0], path, seed=seed, **kwargs)
            assert results[seed] == expected and repr(results[seed]) == repr(expected)

    def test_trials_in_threads_share_one_graph(self, ref_world, trained):
        from concurrent.futures import ThreadPoolExecutor

        path = astar(ref_world.grid, REFERENCE_START, REFERENCE_GOAL)
        kwargs = dict(nav_config=NavConfig(step_distance=0.6))
        expected = [reference_run_trial(ref_world, trained[0], path, seed=seed, **kwargs) for seed in range(48)]
        trial = rfsim._trials(ref_world, trained[0], path, **kwargs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda seed: trial([seed])[0], range(48), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == expected and repr(results) == repr(expected)
        assert trial(range(48)) == expected  # and the graph they left, in lockstep


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
        result = run_trial(ref_world, None if oracle else bundle, path, seed=seed)
        assert result.reason == reason
        start = ref_world.grid.cell_center(REFERENCE_START)
        assert list(result.trajectory)[0] == (start[0], start[1], 0.0)  # the route's first segment runs east
        robot, poses = replay_substeps(ref_world, result)
        assert list(result.trajectory) == poses
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
        result = run_trial(world, None, astar(grid, (0, 1), goal), calibration=cal)
        assert result.reason == reason
        _, poses = replay_substeps(world, result)
        assert list(result.trajectory) == poses
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
        result = run_trial(world, None, astar(grid, (0, 0), (8, 9)), calibration=cal)
        for command in [payload for kind, _, payload in result.events if kind == "command"]:
            assert command.reason != "forward" or _body_rates(robot, command)[1] == 0.0
        _, poses = replay_substeps(world, result)
        assert list(result.trajectory) == poses
        return grid, result

    def test_pillar_crossed_inside_a_straight_leg(self):
        grid, result = self.l_route(1.1)
        assert result.reason == "done"
        assert (7, 5) in {cell_of(grid, x, y) for x, y, _ in result.trajectory}
        grid, result = self.l_route(1.1, pillar=True)
        assert result.reason == "done+left_walkable"
        # every leg starts and ends on a walkable cell: only its inside crosses the pillar
        assert all(grid.is_walkable(cell_of(grid, *payload[0])) for kind, _, payload in result.events if kind == "fix")
        assert grid.is_walkable(cell_of(grid, *list(result.trajectory)[-1][:2]))

    def test_straight_leg_off_the_map(self):
        grid, result = self.l_route(1.2)
        assert result.reason == "left_map+left_walkable"
        assert list(result.trajectory)[-1][1] > grid.height

    def test_veering_leg_off_the_map(self):
        # a one-row corridor and an uncompensated right veer: a turning-branch
        # leg drifts south off the map, into row -1
        grid = GridMap.from_text("10 1 1\n..........\n")
        robot = SimRobot(wheel_base=0.4, right_scale=0.98)
        world = SimWorld(grid, (AccessPointSim(MAC, "Net", (5.0, 0.5)),), robot)
        cal = DrivetrainCalibration(veer_bias=0.0, turn_90_duration=default_calibration(robot).turn_90_duration)
        result = run_trial(world, None, astar(grid, (0, 0), (8, 0)), calibration=cal)
        assert result.reason == "left_map+left_walkable"
        assert list(result.trajectory)[-1][1] < 0.0


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
