"""Checkpoint navigation state machine for a differential-drive robot.

The control loop is stop-and-wait: the robot never moves without a fresh
position fix (network scans are slow, seconds per fix), so nav_step emits at
most one drive command per fix event.  A fix near the next checkpoint
triggers that checkpoint's action (90-degree pivot turn or stop); any other
fix triggers a fixed-length forward step with continuous veer compensation.
Repeated missing fixes abort the run rather than letting a blind robot
drive forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import InvalidParameter, ToolkitError, require_positive
from .planner import Action, Checkpoint

MAX_DURATION = 3600  # seconds; the longest command, integrated in 0.01 s substeps


class InvalidState(ToolkitError):
    """nav_step was called on a finished (Done/Aborted) state."""


@dataclass(frozen=True)
class NavConfig:
    """Navigation loop parameters in feet; a forward step drives both wheels at a nominal 1 ft/s."""

    step_distance: float = 2.0
    checkpoint_radius: float = 1.5
    max_consecutive_misses: int = 10

    def __post_init__(self) -> None:
        require_positive(step_distance=self.step_distance, checkpoint_radius=self.checkpoint_radius)
        if not self.max_consecutive_misses >= 0:
            raise InvalidParameter(f"max_consecutive_misses must be >= 0, got {self.max_consecutive_misses}")
        # a step no longer than the detection band (2 * radius) cannot jump
        # over a checkpoint along its approach axis


@dataclass(frozen=True)
class DrivetrainCalibration:
    """Per-robot drive constants.

    veer_bias is the fractional adjustment applied to the right wheel's
    commanded speed during forward steps; set it to (left gain / right gain)
    - 1 so the effective wheel speeds match and a constant veer cancels.
    turn_90_duration is the measured time for a one-wheel 90-degree pivot at
    1 ft/s; it alone calibrates the turn (speed x duration / wheel base).
    """

    veer_bias: float = 0.0
    turn_90_duration: float = 1.0

    def __post_init__(self) -> None:
        require_positive(turn_90_duration=self.turn_90_duration)
        if not math.isfinite(self.veer_bias):
            raise InvalidParameter(f"veer_bias must be finite, got {self.veer_bias}")


@dataclass(frozen=True)
class DriveCommand:
    """One wheel-speed command: speeds in nominal ft/s, duration in seconds,
    at most an hour (a longer or non-finite one could not be integrated in
    substeps)."""

    left_speed: float
    right_speed: float
    duration: float
    reason: str = ""

    def __post_init__(self) -> None:
        if not 0 <= self.duration <= MAX_DURATION:
            raise InvalidParameter(f"duration must be in [0, {MAX_DURATION}] s, got {self.duration}")


class Mode(Enum):
    AWAITING_FIX = "awaiting_fix"
    ADVANCING = "advancing"
    TURNING = "turning"
    DONE = "done"
    ABORTED = "aborted"


@lru_cache(maxsize=32, typed=True)  # one frozen command per field values and types: 2 == 2.0, but logs print 2 and 2.0; no field is -0.0
def _command(left_speed, right_speed, duration, reason: str) -> DriveCommand:
    return DriveCommand(left_speed, right_speed, duration, reason)


def forward_command(config: NavConfig, cal: DrivetrainCalibration) -> DriveCommand:
    """One veer-compensated straight step of step_distance feet at 1 ft/s."""
    return _command(1.0, 1.0 + cal.veer_bias, config.step_distance, "forward")


def turn_command(direction: str, cal: DrivetrainCalibration) -> DriveCommand:
    """A one-wheel pivot: the outer wheel runs at 1 ft/s for the calibrated
    90-degree duration, the inner wheel holds still."""
    if direction == "right":
        return _command(1.0, 0.0, cal.turn_90_duration, "turn_right_90")
    if direction == "left":
        return _command(0.0, 1.0, cal.turn_90_duration, "turn_left_90")
    raise InvalidParameter(f"direction must be 'left' or 'right', got {direction!r}")


def stop_command() -> DriveCommand:
    return _command(0.0, 0.0, 0.0, "stop")


@dataclass(frozen=True)
class NavState:
    """Immutable navigation state; nav_step returns the successor state."""

    plan: tuple[Checkpoint, ...]
    config: NavConfig
    calibration: DrivetrainCalibration
    cell_size: float = 1.0
    mode: Mode = Mode.AWAITING_FIX
    next_checkpoint_index: int = 0
    miss_counter: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "plan", tuple(self.plan))
        if self.plan:
            if self.plan[-1].action is not Action.STOP:
                raise InvalidParameter("the final checkpoint must be a Stop")
            if any(cp.action is Action.STOP for cp in self.plan[:-1]):
                raise InvalidParameter("only the final checkpoint may be a Stop")
        if not 0 <= self.next_checkpoint_index <= len(self.plan):
            raise InvalidParameter("checkpoint index out of range")
        if (self.mode is Mode.DONE) != (self.next_checkpoint_index == len(self.plan)) and self.mode is not Mode.ABORTED:
            raise InvalidParameter("Done mode must coincide with an exhausted plan")

    @classmethod
    def initial(
        cls,
        plan,
        config: NavConfig | None = None,
        calibration: DrivetrainCalibration | None = None,
        cell_size: float = 1.0,
    ) -> "NavState":
        plan = tuple(plan)
        mode = Mode.DONE if not plan else Mode.AWAITING_FIX
        return cls(plan, config or NavConfig(), calibration or DrivetrainCalibration(), cell_size, mode)

    def checkpoint_center(self, index: int) -> tuple[float, float]:
        ix, iy = self.plan[index].cell
        return (ix + 0.5) * self.cell_size, (iy + 0.5) * self.cell_size


def _successor(state: NavState, mode: Mode, index: int, misses: int) -> NavState:
    """``state`` with a new mode, checkpoint index and miss count, built without running
    ``__post_init__`` again: the plan it checked is shared, and nav_step keeps the Done/index
    invariant, as only the final Stop moves the index past the plan's end, and into Done."""
    successor = object.__new__(NavState)
    fields = vars(successor)
    fields.update(vars(state))
    fields["mode"], fields["next_checkpoint_index"], fields["miss_counter"] = mode, index, misses
    return successor


def nav_step(state: NavState, fix) -> tuple[NavState, DriveCommand | None]:
    """Advance the state machine by one fix event.

    ``fix`` is an (x, y) position estimate in feet, or None when no estimate
    was available (the robot holds position).  Exactly one command or none
    is returned: the next checkpoint's action when the fix falls within
    checkpoint_radius of its cell center, otherwise a forward step.  A None
    or non-finite fix is a miss; max_consecutive_misses + 1 in a row abort.
    """
    if state.mode in (Mode.DONE, Mode.ABORTED):
        raise InvalidState(f"nav_step called in terminal mode {state.mode.value}")
    fx, fy = (math.nan, math.nan) if fix is None else (float(fix[0]), float(fix[1]))
    index = state.next_checkpoint_index
    if not (math.isfinite(fx) and math.isfinite(fy)):
        misses = state.miss_counter + 1
        if misses > state.config.max_consecutive_misses:
            return _successor(state, Mode.ABORTED, index, misses), None
        return _successor(state, Mode.AWAITING_FIX, index, misses), None

    cx, cy = state.checkpoint_center(index)
    if math.hypot(fx - cx, fy - cy) <= state.config.checkpoint_radius:
        checkpoint = state.plan[index]
        if checkpoint.action is Action.STOP:
            return _successor(state, Mode.DONE, index + 1, 0), stop_command()
        command = turn_command("left" if checkpoint.action is Action.TURN_LEFT_90 else "right", state.calibration)
        return _successor(state, Mode.TURNING, index + 1, 0), command
    return _successor(state, Mode.ADVANCING, index, 0), forward_command(state.config, state.calibration)

