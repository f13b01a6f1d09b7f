import math
from types import SimpleNamespace

import numpy as np
import pytest

from rssinav.cli import _trial_logs
from rssinav.errors import InvalidParameter
from rssinav.fileio import write_rows
from rssinav.navctl import (
    DriveCommand,
    DrivetrainCalibration,
    InvalidState,
    Mode,
    NavConfig,
    NavState,
    forward_command,
    nav_step,
    stop_command,
    turn_command,
)
from rssinav.planner import Action, Checkpoint
from rssinav.rfsim import SimRobot, default_calibration

L_PLAN = (
    Checkpoint((2, 0), Action.TURN_RIGHT_90),
    Checkpoint((2, 2), Action.STOP),
)


def make_state(plan=L_PLAN, **config_kwargs):
    return NavState.initial(plan, NavConfig(**config_kwargs), DrivetrainCalibration(veer_bias=0.0, turn_90_duration=1.0))


class TestCommands:
    def test_forward_without_bias_has_equal_wheels(self):
        cmd = forward_command(NavConfig(), DrivetrainCalibration())
        assert cmd.left_speed == cmd.right_speed == 1.0

    def test_positive_bias_speeds_right_wheel(self):
        cmd = forward_command(NavConfig(), DrivetrainCalibration(veer_bias=0.05))
        assert cmd.right_speed == pytest.approx(1.05)
        assert cmd.left_speed == 1.0

    def test_forward_step_at_one_foot_per_second_lasts_step_distance_seconds(self):
        cmd = forward_command(NavConfig(step_distance=2.5), DrivetrainCalibration())
        assert cmd.duration == 2.5

    def test_right_turn_pivots_on_right_wheel(self):
        cal = DrivetrainCalibration(turn_90_duration=1.3)
        assert turn_command("right", cal) == DriveCommand(1.0, 0.0, 1.3, "turn_right_90")

    def test_left_turn_mirrors(self):
        cal = DrivetrainCalibration(turn_90_duration=1.3)
        assert turn_command("left", cal) == DriveCommand(0.0, 1.0, 1.3, "turn_left_90")

    def test_equal_settings_of_another_type_keep_their_own_commands(self, tmp_path):
        # NavConfig(step_distance=2) == NavConfig(step_distance=2.0), yet the command log prints 2 and 2.0
        lines = []
        for distance in [2, 2.0, 2, 2.0]:
            state = NavState.initial(L_PLAN, NavConfig(step_distance=distance), DrivetrainCalibration())
            state, forward = nav_step(state, (0.5, 0.5))
            _, turn = nav_step(state, (2.5, 0.5))
            assert forward is forward_command(state.config, state.calibration)  # built once, then shared
            assert (repr(forward.duration), repr(turn.left_speed)) == (repr(distance), "1.0")
            commands, _ = _trial_logs(SimpleNamespace(events=[("command", 5.0, forward), ("command", 7.0, turn)]))
            write_rows(tmp_path / "commands.csv", ["timestamp", "left_speed", "right_speed", "duration", "reason"], commands)
            lines.append((tmp_path / "commands.csv").read_text().splitlines()[1:])
        assert lines[0] == lines[2] == ["5.0,1.0,1.0,2,forward", "7.0,1.0,0.0,1.0,turn_right_90"]
        assert lines[1] == lines[3] == ["5.0,1.0,1.0,2.0,forward", "7.0,1.0,0.0,1.0,turn_right_90"]


class TestNavStep:
    def test_fix_near_turn_checkpoint_emits_turn_and_advances(self):
        state = make_state()
        state, cmd = nav_step(state, (2.5 + 0.5, 0.5))  # 0.5 ft from the (2,0) center
        assert cmd.reason == "turn_right_90"
        assert state.next_checkpoint_index == 1
        assert state.mode is Mode.TURNING

    def test_far_fix_emits_forward_step(self):
        state = make_state()
        state, cmd = nav_step(state, (8.5, 0.5))  # 6 ft out
        assert cmd.reason == "forward"
        assert cmd.duration * cmd.left_speed == pytest.approx(2.0)
        assert state.next_checkpoint_index == 0
        assert state.mode is Mode.ADVANCING

    def test_reaching_final_stop_finishes(self):
        state = make_state()
        state, cmd = nav_step(state, (2.6, 0.5))
        state, cmd = nav_step(state, (2.5, 2.4))
        assert cmd.reason == "stop"
        assert state.mode is Mode.DONE
        with pytest.raises(InvalidState):
            nav_step(state, (2.5, 2.5))

    def test_exactly_one_command_or_none_per_call(self):
        state = make_state()
        state, cmd = nav_step(state, None)
        assert cmd is None and state.mode is Mode.AWAITING_FIX

    def test_miss_counter_aborts_after_limit_plus_one(self):
        state = make_state(max_consecutive_misses=3)
        for i in range(3):
            state, cmd = nav_step(state, None)
            assert state.mode is Mode.AWAITING_FIX and cmd is None
        state, cmd = nav_step(state, None)  # 4th consecutive miss
        assert state.mode is Mode.ABORTED and cmd is None
        with pytest.raises(InvalidState):
            nav_step(state, None)

    @pytest.mark.parametrize(
        "fix", [(math.nan, 0.5), (2.5, math.nan), (math.inf, 0.5), (0.5, -math.inf), (np.float64("nan"), np.float64(0.5))]
    )
    def test_non_finite_fix_counts_as_a_miss(self, fix):
        state = make_state(max_consecutive_misses=1)
        state, cmd = nav_step(state, fix)
        assert cmd is None and state.mode is Mode.AWAITING_FIX and state.miss_counter == 1
        assert state.next_checkpoint_index == 0
        state, cmd = nav_step(state, fix)  # past the limit
        assert cmd is None and state.mode is Mode.ABORTED and state.miss_counter == 2

    def test_any_fix_resets_the_miss_counter(self):
        state = make_state(max_consecutive_misses=2)
        state, _ = nav_step(state, None)
        state, _ = nav_step(state, None)
        state, _ = nav_step(state, (9.0, 0.5))  # far fix, still resets
        assert state.miss_counter == 0
        for _ in range(2):
            state, _ = nav_step(state, None)
        assert state.mode is Mode.AWAITING_FIX  # only 2 consecutive misses so far

    def test_successors_equal_validated_states(self):
        # nav_step builds its successors without NavState's checks; each must be the state those checks pass
        plan = (Checkpoint((2, 0), Action.TURN_LEFT_90), Checkpoint((2, 2), Action.TURN_RIGHT_90), Checkpoint((4, 2), Action.STOP))
        near = {i: ((ix + 0.5) * 2.0 + 0.2, (iy + 0.5) * 2.0) for i, (ix, iy) in enumerate(cp.cell for cp in plan)}
        scripts = [
            ["far", None, "far", "near", None, (math.nan, 1.0), "far", "near", "near"],  # forward, misses, turns, stop
            [None, None, None],  # misses up to the abort
        ]
        seen = set()
        for script in scripts:
            state = NavState.initial(plan, NavConfig(max_consecutive_misses=2), DrivetrainCalibration(veer_bias=0.01), cell_size=2.0)
            for fix in script:
                fix = {"far": (40.0, 40.0), "near": near[state.next_checkpoint_index]}.get(fix, fix)
                new, command = nav_step(state, fix)
                fields = [getattr(new, name) for name in ("plan", "config", "calibration", "cell_size", "mode", "next_checkpoint_index", "miss_counter")]
                validated = NavState(*fields)
                assert vars(new) == vars(validated) and new == validated and hash(new) == hash(validated)
                assert new.plan is state.plan and type(new) is NavState
                seen.add((new.mode, None if command is None else command.reason))
                state = new
        assert seen == {
            (Mode.ADVANCING, "forward"),
            (Mode.AWAITING_FIX, None),
            (Mode.TURNING, "turn_left_90"),
            (Mode.TURNING, "turn_right_90"),
            (Mode.DONE, "stop"),
            (Mode.ABORTED, None),
        }

    def test_pure_transition(self):
        state = make_state()
        fix = (5.5, 0.5)
        assert nav_step(state, fix) == nav_step(state, fix)

    def test_empty_plan_starts_done(self):
        state = NavState.initial((), NavConfig(), DrivetrainCalibration())
        assert state.mode is Mode.DONE

    def test_plan_must_end_with_stop(self):
        with pytest.raises(ValueError):
            NavState.initial((Checkpoint((0, 0), Action.TURN_LEFT_90),), NavConfig(), DrivetrainCalibration())

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: NavState((Checkpoint((0, 0), Action.STOP),) + L_PLAN, NavConfig(), DrivetrainCalibration()), "only the final checkpoint may be a Stop"),
            (lambda: NavState(L_PLAN, NavConfig(), DrivetrainCalibration(), next_checkpoint_index=3), "checkpoint index out of range"),
            (lambda: NavState(L_PLAN, NavConfig(), DrivetrainCalibration(), mode=Mode.DONE), "Done mode must coincide with an exhausted plan"),
            (lambda: NavState(L_PLAN, NavConfig(), DrivetrainCalibration(), next_checkpoint_index=2), "Done mode must coincide with an exhausted plan"),
            (lambda: turn_command("up", DrivetrainCalibration()), "direction must be 'left' or 'right', got 'up'"),
        ],
        ids=["early-stop", "index-past-the-plan", "done-before-the-end", "exhausted-but-not-done", "turn-up"],
    )
    def test_invalid_state_or_turn_rejected(self, build, message):
        with pytest.raises(InvalidParameter) as raised:
            build()
        assert raised.type is InvalidParameter and str(raised.value) == message


class TestParameterBounds:
    @pytest.mark.parametrize(
        "make, kwargs, message",
        [
            (NavConfig, dict(step_distance=math.inf), "step_distance must be positive and finite"),
            (NavConfig, dict(step_distance=math.nan), "step_distance must be positive and finite"),
            (NavConfig, dict(checkpoint_radius=math.nan), "checkpoint_radius must be positive and finite"),
            (NavConfig, dict(max_consecutive_misses=-1), "max_consecutive_misses must be >= 0"),
            (DrivetrainCalibration, dict(turn_90_duration=math.nan), "turn_90_duration must be positive and finite"),
            (DrivetrainCalibration, dict(veer_bias=math.inf), "veer_bias must be finite"),
            (DriveCommand, dict(left_speed=1.0, right_speed=1.0, duration=math.inf), "duration must be in"),
            (DriveCommand, dict(left_speed=1.0, right_speed=1.0, duration=math.nan), "duration must be in"),
            (DriveCommand, dict(left_speed=1.0, right_speed=1.0, duration=3600.5), "duration must be in"),
            (DriveCommand, dict(left_speed=1.0, right_speed=1.0, duration=math.nextafter(3600.0, math.inf)), "duration must be in"),
            # from about 2e14 s, 0.01 s substeps no longer reduce the time left
            (DriveCommand, dict(left_speed=1.0, right_speed=1.0, duration=2e14), "duration must be in"),
            (DriveCommand, dict(left_speed=1.0, right_speed=1.0, duration=1e15), "duration must be in"),
            (DriveCommand, dict(left_speed=1.0, right_speed=1.0, duration=-0.5), "duration must be in"),
        ],
        ids=[
            "step_distance-inf", "step_distance-nan", "checkpoint_radius-nan", "max_consecutive_misses-negative",
            "turn_90_duration-nan", "veer_bias-inf", "duration-inf", "duration-nan", "duration-3600.5",
            "duration-next-above-3600", "duration-2e14", "duration-1e15", "duration-negative",
        ],
    )
    def test_invalid_parameters_rejected(self, make, kwargs, message):
        with pytest.raises(ValueError, match=message):
            make(**kwargs)

    def test_commands_too_long_to_integrate_rejected(self):
        # finite, but about 1e300 s: too long to integrate in 0.01 s substeps
        with pytest.raises(ValueError, match="duration must be in"):
            forward_command(NavConfig(step_distance=1e300), DrivetrainCalibration())
        with pytest.raises(ValueError, match="duration must be in"):
            turn_command("left", DrivetrainCalibration(turn_90_duration=1e300))

    def test_bounds_are_inclusive(self):
        assert DriveCommand(1.0, 1.0, 3600.0).duration == 3600.0
        assert NavConfig(max_consecutive_misses=0).max_consecutive_misses == 0


def run_ideal(plan, start, heading, config=None, max_steps=500):
    """Oracle executor: exact fixes, exact kinematics (unit gains)."""
    config = config or NavConfig()
    state = NavState.initial(plan, config, DrivetrainCalibration(veer_bias=0.0, turn_90_duration=1.0))
    x, y = start
    commands = []
    for _ in range(max_steps):
        if state.mode in (Mode.DONE, Mode.ABORTED):
            break
        state, cmd = nav_step(state, (x, y))
        if cmd is None:
            continue
        commands.append(cmd)
        if cmd.reason == "forward":
            x += math.cos(heading) * config.step_distance
            y += math.sin(heading) * config.step_distance
        elif cmd.reason == "turn_left_90":
            heading += math.pi / 2
        elif cmd.reason == "turn_right_90":
            heading -= math.pi / 2
    return state, commands, (x, y)


class TestProgress:
    def test_reaches_done_with_exact_fixes_on_random_plans(self):
        from rssinav.planner import GridMap, Heading, astar, extract_checkpoints

        rng = np.random.default_rng(11)
        done = 0
        while done < 25:
            mask = rng.random((15, 15)) >= 0.25
            grid = GridMap(15, 15, 1.0, mask)
            cells = grid.walkable_cells()
            start = cells[rng.integers(len(cells))]
            goal = cells[rng.integers(len(cells))]
            try:
                path = astar(grid, start, goal)
            except Exception:
                continue
            if len(path.cells) < 2:
                continue
            first = (path.cells[1][0] - path.cells[0][0], path.cells[1][1] - path.cells[0][1])
            plan = extract_checkpoints(path, Heading(first))
            heading = math.atan2(first[1], first[0])
            state, commands, _ = run_ideal(plan, grid.cell_center(start), heading)
            assert state.mode is Mode.DONE
            turn_cmds = [c for c in commands if c.reason.startswith("turn")]
            turn_cps = [cp for cp in plan if cp.action is not Action.STOP]
            assert len(turn_cmds) == len(turn_cps)
            done += 1


class TestCommandLog:
    def test_csv_layout(self, tmp_path):
        events = [
            ("command", 2.0, DriveCommand(1.0, 0.95, 2.0, "forward")),
            ("fix", 3.0, ((0.5, 0.5), None)),
            ("command", 4.0, DriveCommand(1.0, 0.0, 1.5, "turn_right_90")),
        ]
        commands, _ = _trial_logs(SimpleNamespace(events=events))
        path = tmp_path / "commands.csv"
        write_rows(path, ["timestamp", "left_speed", "right_speed", "duration", "reason"], commands)
        lines = path.read_text().splitlines()
        assert lines[0] == "timestamp,left_speed,right_speed,duration,reason"
        assert lines[1] == "2.0,1.0,0.95,2.0,forward"
        assert len(lines) == 3

    # the builders' speeds are floats, so the log prints 1.0 where an int would print 1
    @pytest.mark.parametrize(
        "build, line",
        [
            (lambda cal: forward_command(NavConfig(), cal), "5.0,1.0,1.0,2.0,forward"),
            (lambda cal: turn_command("right", cal), "5.0,1.0,0.0,{duration!r},turn_right_90"),
            (lambda cal: turn_command("left", cal), "5.0,0.0,1.0,{duration!r},turn_left_90"),
        ],
    )
    def test_built_commands_log_their_speeds_as_floats(self, tmp_path, build, line):
        cal = default_calibration(SimRobot(wheel_base=0.4))
        commands, _ = _trial_logs(SimpleNamespace(events=[("command", 5.0, build(cal))]))
        path = tmp_path / "commands.csv"
        write_rows(path, ["timestamp", "left_speed", "right_speed", "duration", "reason"], commands)
        assert path.read_text().splitlines()[1] == line.format(duration=cal.turn_90_duration)

    def test_stop_command_is_zero(self):
        assert stop_command() == DriveCommand(0.0, 0.0, 0.0, "stop")
