"""Occupancy-grid path planning: A* with the Manhattan heuristic and
corner-checkpoint extraction.

Motion is 4-connected with unit step cost, matching a robot that drives
straight hallway segments and makes 90-degree turns only; the Manhattan
distance is therefore an admissible, consistent heuristic.  Tie-breaking is
fixed (lower f, then lower h, then insertion order with neighbors expanded
east, north, west, south) so plans are reproducible.  A* runs on flat cell
indices of the grid padded with one wall cell per side: no bounds checks.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameter, OutOfBounds, ToolkitError
from .fileio import format_number, read_text

Cell = tuple[int, int]


class NoPath(ToolkitError):
    """The goal is unreachable from the start."""


class BlockedEndpoint(ToolkitError):
    """A start or goal cell is not walkable."""


class EmptyPath(ToolkitError):
    """A path with no cells has no checkpoints."""


class PathReversal(ToolkitError):
    """A hand-supplied path doubles back on itself; 180-degree turns are not supported."""


class MapFormatError(ToolkitError):
    """A grid-map file does not follow the documented text format."""


class Heading(Enum):
    EAST = (1, 0)
    NORTH = (0, 1)
    WEST = (-1, 0)
    SOUTH = (0, -1)

    @property
    def vector(self) -> Cell:
        return self.value

    @classmethod
    def from_letter(cls, letter: str) -> "Heading":
        try:
            return {"E": cls.EAST, "N": cls.NORTH, "W": cls.WEST, "S": cls.SOUTH}[letter.upper()]
        except KeyError:
            raise InvalidParameter(f"heading must be one of E, N, W, S, got {letter!r}") from None


class Action(Enum):
    TURN_LEFT_90 = "turn_left_90"
    TURN_RIGHT_90 = "turn_right_90"
    STOP = "stop"


@dataclass(frozen=True, eq=False)
class GridMap:
    """Rectangular occupancy grid; cell (ix, iy) spans cell_size feet per side.

    ``walkable[iy, ix]`` is True where the robot may drive; iy = 0 is the
    south edge (y = 0).
    """

    width: int
    height: int
    cell_size: float = 1.0
    walkable: np.ndarray = None

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise MapFormatError("grid must be at least 1x1")
        mask = np.ones((self.height, self.width), dtype=bool) if self.walkable is None else np.asarray(self.walkable, dtype=bool)
        if mask.shape != (self.height, self.width):
            raise MapFormatError(f"walkable mask shape {mask.shape} != (height, width)")
        if not 0 < self.cell_size < math.inf:
            raise MapFormatError("cell size must be positive and finite")
        object.__setattr__(self, "walkable", mask)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridMap):
            return NotImplemented
        return (
            (self.width, self.height, self.cell_size) == (other.width, other.height, other.cell_size)
            and np.array_equal(self.walkable, other.walkable)
        )

    def in_bounds(self, cell: Cell) -> bool:
        ix, iy = cell
        return 0 <= ix < self.width and 0 <= iy < self.height

    def is_walkable(self, cell: Cell) -> bool:
        return self.in_bounds(cell) and bool(self.walkable[cell[1], cell[0]])

    def contains_point(self, x: float, y: float) -> bool:
        return 0.0 <= x <= self.width * self.cell_size and 0.0 <= y <= self.height * self.cell_size

    def cell_center(self, cell: Cell) -> tuple[float, float]:
        ix, iy = cell
        return (ix + 0.5) * self.cell_size, (iy + 0.5) * self.cell_size

    def walkable_cells(self) -> list[Cell]:
        """All walkable cells in row-major order (south row first)."""
        return [(ix, iy) for iy in range(self.height) for ix in range(self.width) if self.walkable[iy, ix]]

    @classmethod
    def consume_lines(cls, lines: list[str]) -> tuple["GridMap", list[str]]:
        """Parse the header + grid rows from the front of ``lines``; return the rest."""
        if not lines:
            raise MapFormatError("empty map text")
        fields = lines[0].split()
        if len(fields) != 3:
            raise MapFormatError("first line must be: width height cell_size_ft")
        try:
            width, height, cell_size = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError as exc:
            raise MapFormatError(f"bad map header: {exc}") from exc
        if width < 1 or height < 1:
            raise MapFormatError("grid must be at least 1x1")
        if len(lines) < 1 + height:
            raise MapFormatError(f"expected {height} grid rows")
        rows = [line.rstrip("\n") for line in lines[1 : 1 + height]]
        for iy, row in enumerate(rows):  # validated before the mask is allocated from them
            if len(row) != width or any(ch not in ".#" for ch in row):
                raise MapFormatError(f"grid row {iy} must be {width} characters of '.' or '#'")
        mask = np.array([[ch == "." for ch in row] for row in rows], dtype=bool)
        return cls(width, height, cell_size, mask), lines[1 + height :]

    @classmethod
    def from_text(cls, text: str) -> "GridMap":
        grid, rest = cls.consume_lines(text.splitlines())
        if any(line.strip() for line in rest):
            raise MapFormatError("unexpected trailing content after grid rows")
        return grid

    def to_text(self) -> str:
        lines = [f"{self.width} {self.height} {format_number(self.cell_size)}"]
        for iy in range(self.height):
            lines.append("".join("." if self.walkable[iy, ix] else "#" for ix in range(self.width)))
        return "\n".join(lines) + "\n"

    @classmethod
    def load(cls, path) -> "GridMap":
        return cls.from_text(read_text(path, MapFormatError, "map file"))


@dataclass(frozen=True)
class PlannedPath:
    """Cell sequence where consecutive cells are 4-neighbors and none repeats."""

    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple((int(ix), int(iy)) for ix, iy in self.cells))
        if len(set(self.cells)) != len(self.cells):
            raise PathReversal("path revisits a cell")
        for a, b in zip(self.cells, self.cells[1:]):
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
                raise ToolkitError(f"cells {a} and {b} are not 4-neighbors")

    @property
    def cost(self) -> int:
        return len(self.cells) - 1


def manhattan(a: Cell, b: Cell) -> int:
    """Grid distance |ax-bx| + |ay-by|."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def astar(grid: GridMap, start: Cell, goal: Cell) -> PlannedPath:
    """Minimum-length 4-connected path from start to goal.

    Expansion order is deterministic: lowest f, then lowest heuristic, then
    push order (neighbors pushed east, north, west, south).  A cell is the
    flat index ``(iy + 1) * stride + ix + 1`` of the wall-padded grid, and
    ``closed`` starts set on every wall, so one byte test rejects a neighbor.
    """
    for name, cell in (("start", start), ("goal", goal)):
        if not grid.in_bounds(cell):
            raise OutOfBounds(f"{name} cell {cell} is outside the {grid.width}x{grid.height} grid")
        if not grid.is_walkable(cell):
            raise BlockedEndpoint(f"{name} cell {cell} is not walkable")
    start, goal = (int(start[0]), int(start[1])), (int(goal[0]), int(goal[1]))
    stride = grid.width + 2
    closed = bytearray(np.pad(~grid.walkable, 1, constant_values=True).tobytes())
    gx, gy = goal[0] + 1, goal[1] + 1
    source, target = (start[1] + 1) * stride + start[0] + 1, gy * stride + gx
    g_score = [len(closed)] * len(closed)  # longer than any path
    came_from = [-1] * len(closed)
    g_score[source] = 0
    counter = 0
    h0 = manhattan(start, goal)
    frontier: list[tuple[int, int, int, int]] = [(h0, h0, counter, source)]
    while frontier:
        current = heapq.heappop(frontier)[3]
        if closed[current]:
            continue
        closed[current] = 1
        if current == target:
            cells = []
            while current >= 0:
                iy, ix = divmod(current, stride)
                cells.append((ix - 1, iy - 1))
                current = came_from[current]
            return PlannedPath(tuple(reversed(cells)))
        tentative = g_score[current] + 1
        for neighbor in (current + 1, current + stride, current - 1, current - stride):
            if not closed[neighbor] and tentative < g_score[neighbor]:
                g_score[neighbor] = tentative
                came_from[neighbor] = current
                iy, ix = divmod(neighbor, stride)
                h = abs(ix - gx) + abs(iy - gy)
                counter += 1
                heapq.heappush(frontier, (tentative + h, h, counter, neighbor))
    raise NoPath(f"no route from {start} to {goal}")


@dataclass(frozen=True)
class Checkpoint:
    """A path cell where the robot acts: turn 90 degrees or stop."""

    cell: Cell
    action: Action


def _cross(d1: Cell, d2: Cell) -> int:
    return d1[0] * d2[1] - d1[1] * d2[0]


def _turn_action(incoming: Cell, outgoing: Cell) -> Action:
    cross = _cross(incoming, outgoing)
    if cross > 0:
        return Action.TURN_LEFT_90
    if cross < 0:
        return Action.TURN_RIGHT_90
    raise PathReversal(f"direction {incoming} cannot reverse to {outgoing}")


def first_segment_heading(path: PlannedPath) -> Heading:
    """Heading along the path's first segment; EAST for a one-cell path."""
    if len(path.cells) < 2:
        return Heading.EAST
    (ax, ay), (bx, by) = path.cells[:2]
    return Heading((bx - ax, by - ay))


def extract_checkpoints(path: PlannedPath, initial_heading: Heading) -> tuple[Checkpoint, ...]:
    """Action-tagged waypoints for a path: one turn checkpoint per corner,
    a Stop checkpoint at the goal.

    The robot is assumed to start facing ``initial_heading``; if the first
    path segment requires one 90-degree turn, a leading turn checkpoint is
    emitted at the start cell.  Doubling straight back is rejected.
    """
    if not path.cells:
        raise EmptyPath("no cells in path")
    if len(path.cells) == 1:
        return (Checkpoint(path.cells[0], Action.STOP),)
    directions = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(path.cells, path.cells[1:])]
    checkpoints: list[Checkpoint] = []
    if directions[0] != initial_heading.vector:
        checkpoints.append(Checkpoint(path.cells[0], _turn_action(initial_heading.vector, directions[0])))
    for i in range(1, len(directions)):
        if directions[i] != directions[i - 1]:
            checkpoints.append(Checkpoint(path.cells[i], _turn_action(directions[i - 1], directions[i])))
    checkpoints.append(Checkpoint(path.cells[-1], Action.STOP))
    return tuple(checkpoints)
