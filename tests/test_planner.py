import heapq
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rssinav.errors import OutOfBounds, ToolkitError
from rssinav.planner import (
    Action,
    BlockedEndpoint,
    Cell,
    Checkpoint,
    EmptyPath,
    GridMap,
    Heading,
    MapFormatError,
    NoPath,
    PathReversal,
    PlannedPath,
    astar,
    extract_checkpoints,
    manhattan,
)
from rssinav.fileio import write_rows


def bfs_cost(grid, start, goal):
    """Breadth-first-search oracle: optimal 4-connected path cost, or None."""
    start, goal = tuple(start), tuple(goal)
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        cell, dist = queue.popleft()
        if cell == goal:
            return dist
        for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1)):
            nxt = (cell[0] + dx, cell[1] + dy)
            if grid.is_walkable(nxt) and nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, dist + 1))
    return None


def random_grid(rng, width=20, height=20, density=0.3):
    mask = rng.random((height, width)) >= density
    return GridMap(width, height, 1.0, mask)


def random_reachable_pair(rng, grid):
    cells = grid.walkable_cells()
    for _ in range(50):
        start = cells[rng.integers(len(cells))]
        goal = cells[rng.integers(len(cells))]
        if bfs_cost(grid, start, goal) is not None:
            return start, goal
    return None


class TestManhattan:
    def test_identity(self):
        assert manhattan((0, 0), (0, 0)) == 0

    def test_direct_formula(self):
        assert manhattan((1, 2), (4, 6)) == 7

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = tuple(rng.integers(-20, 20, 2))
            b = tuple(rng.integers(-20, 20, 2))
            assert manhattan(a, b) == manhattan(b, a)


MAP_TEXT = "5 3 1\n..#..\n.....\n#....\n"


class TestGridMap:
    def test_text_round_trip(self):
        grid = GridMap.from_text(MAP_TEXT)
        assert (grid.width, grid.height, grid.cell_size) == (5, 3, 1.0)
        assert not grid.is_walkable((2, 0))  # row 0 is the south edge
        assert not grid.is_walkable((0, 2))
        assert grid.is_walkable((0, 0))
        assert grid.to_text() == MAP_TEXT

    def test_bad_header(self):
        with pytest.raises(MapFormatError):
            GridMap.from_text("5 3\n.....\n.....\n.....\n")

    def test_bad_row_width(self):
        with pytest.raises(MapFormatError):
            GridMap.from_text("5 2 1\n....\n.....\n")

    def test_bad_character(self):
        with pytest.raises(MapFormatError):
            GridMap.from_text("2 1 1\n.x\n")

    def test_non_utf8_file_rejected_naming_it(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_bytes(b"2 1 1\n.\xff\n")
        with pytest.raises(MapFormatError, match="not UTF-8") as exc_info:
            GridMap.load(path)
        assert str(path) in str(exc_info.value)

    def test_cell_geometry(self):
        grid = GridMap(4, 4, 2.0)
        assert grid.cell_center((1, 2)) == (3.0, 5.0)
        assert grid.walkable_cells()[0] == (0, 0)


class TestAstar:
    def test_start_equals_goal(self):
        grid = GridMap(3, 3)
        assert astar(grid, (1, 1), (1, 1)).cells == ((1, 1),)

    def test_unobstructed_path_matches_heuristic_bound(self):
        grid = GridMap(3, 3)
        path = astar(grid, (0, 0), (2, 2))
        assert len(path.cells) == 5
        assert path.cost == manhattan((0, 0), (2, 2))

    def test_l_corridor_matches_bfs_oracle(self):
        grid = GridMap.from_text("5 5 1\n.....\n####.\n.....\n.####\n.....\n")
        path = astar(grid, (0, 4), (4, 0))
        assert path.cost == bfs_cost(grid, (0, 4), (4, 0))

    def test_deterministic_tie_breaking_prefers_east_first(self):
        grid = GridMap(3, 3)
        path = astar(grid, (0, 0), (2, 2))
        assert path.cells == ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2))

    def test_no_path(self):
        grid = GridMap.from_text("3 3 1\n.#.\n.#.\n.#.\n")
        with pytest.raises(NoPath):
            astar(grid, (0, 0), (2, 0))

    def test_out_of_bounds(self):
        with pytest.raises(OutOfBounds):
            astar(GridMap(3, 3), (0, 0), (3, 0))

    @pytest.mark.parametrize("goal", [(0, 2), (2, 0)])
    def test_neighbors_past_the_edge_do_not_wrap(self, goal):
        # (0, 0) is walled in; read as list index -1, its west (south) neighbor
        # would be the open far column (row) leading round to the goal
        grid = GridMap.from_text("3 3 1\n.#.\n##.\n...\n")
        with pytest.raises(NoPath):
            astar(grid, (0, 0), goal)

    def test_blocked_endpoint(self):
        grid = GridMap.from_text("2 1 1\n.#\n")
        with pytest.raises(BlockedEndpoint):
            astar(grid, (0, 0), (1, 0))

    def test_optimality_and_invariants_on_random_grids(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 60:
            grid = random_grid(rng)
            pair = random_reachable_pair(rng, grid)
            if pair is None:
                continue
            start, goal = pair
            path = astar(grid, start, goal)
            assert path.cost == bfs_cost(grid, start, goal)
            assert path.cost >= manhattan(start, goal)
            assert len(set(path.cells)) == len(path.cells)
            assert all(grid.is_walkable(c) for c in path.cells)
            assert all(manhattan(a, b) == 1 for a, b in zip(path.cells, path.cells[1:]))
            checked += 1


# The tuple-key A* that the flat-index one replaced, kept verbatim as the
# reference: every plan and every error message must stay the same.
_NEIGHBORS = (Heading.EAST.value, Heading.NORTH.value, Heading.WEST.value, Heading.SOUTH.value)


def reference_astar(grid: GridMap, start: Cell, goal: Cell) -> PlannedPath:
    """Minimum-length 4-connected path from start to goal.

    Expansion order is deterministic: lowest f, then lowest heuristic, then
    push order (neighbors pushed east, north, west, south).
    """
    for name, cell in (("start", start), ("goal", goal)):
        if not grid.in_bounds(cell):
            raise OutOfBounds(f"{name} cell {cell} is outside the {grid.width}x{grid.height} grid")
        if not grid.is_walkable(cell):
            raise BlockedEndpoint(f"{name} cell {cell} is not walkable")
    start, goal = (int(start[0]), int(start[1])), (int(goal[0]), int(goal[1]))

    walkable, width, height = grid.walkable.tolist(), grid.width, grid.height
    counter = 0
    h0 = manhattan(start, goal)
    frontier: list[tuple[int, int, int, Cell]] = [(h0, h0, counter, start)]
    came_from: dict[Cell, Cell] = {}
    g_score: dict[Cell, int] = {start: 0}
    closed: set[Cell] = set()
    while frontier:
        _, _, _, current = heapq.heappop(frontier)
        if current in closed:
            continue
        closed.add(current)
        if current == goal:
            cells = [current]
            while current in came_from:
                current = came_from[current]
                cells.append(current)
            return PlannedPath(tuple(reversed(cells)))
        for dx, dy in _NEIGHBORS:
            nx, ny = neighbor = (current[0] + dx, current[1] + dy)
            if not (0 <= nx < width and 0 <= ny < height and walkable[ny][nx]) or neighbor in closed:
                continue
            tentative = g_score[current] + 1
            if tentative < g_score.get(neighbor, math.inf):
                g_score[neighbor] = tentative
                came_from[neighbor] = current
                h = manhattan(neighbor, goal)
                counter += 1
                heapq.heappush(frontier, (tentative + h, h, counter, neighbor))
    raise NoPath(f"no route from {start} to {goal}")


@st.composite
def planning_problems(draw):
    """A grid of 1x1 to 30x30 cells and two endpoints, one in ten drawn up to 2 cells past its edges."""
    width, height = draw(st.integers(1, 30), label="width"), draw(st.integers(1, 30), label="height")
    layout = draw(st.sampled_from(["open", "random", "corridors", "wall"]), label="layout")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    mask = np.ones((height, width), dtype=bool)  # "open": every tie is an equal-cost path
    if layout == "random":
        mask = rng.random((height, width)) >= draw(st.sampled_from([0.1, 0.3, 0.45]), label="density")
    elif layout == "corridors":  # 1-wide serpentine: wall rows with a door at alternating ends
        mask[1::2] = False
        mask[1::4, -1] = mask[3::4, 0] = True
    elif layout == "wall":  # a full wall column, with a door half the time, else the goal may be cut off
        ix = rng.integers(width)
        mask[:, ix] = False
        mask[rng.integers(height), ix] = draw(st.booleans(), label="door")

    def endpoint(label):
        margin = 2 if draw(st.integers(0, 9), label=f"{label} off the grid") == 0 else 0
        return draw(st.tuples(st.integers(-margin, width - 1 + margin), st.integers(-margin, height - 1 + margin)), label=label)

    return GridMap(width, height, 1.0, mask), endpoint("start"), endpoint("goal")


def plan_outcome(planner, grid, start, goal):
    try:
        return planner(grid, start, goal).cells
    except ToolkitError as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(problem=planning_problems())
def test_astar_returns_the_reference_path_or_error(problem):
    assert plan_outcome(astar, *problem) == plan_outcome(reference_astar, *problem)


class TestCheckpoints:
    def test_straight_path_only_stop(self):
        path = PlannedPath(tuple((i, 0) for i in range(5)))
        cps = extract_checkpoints(path, Heading.EAST)
        assert cps == (Checkpoint((4, 0), Action.STOP),)

    def test_single_corner(self):
        path = PlannedPath(((0, 0), (1, 0), (2, 0), (2, 1), (2, 2)))
        cps = extract_checkpoints(path, Heading.EAST)
        assert cps == (Checkpoint((2, 0), Action.TURN_LEFT_90), Checkpoint((2, 2), Action.STOP))

    def test_zigzag_two_corners(self):
        path = PlannedPath(((0, 0), (1, 0), (1, 1), (2, 1)))
        cps = extract_checkpoints(path, Heading.EAST)
        assert [cp.action for cp in cps] == [Action.TURN_LEFT_90, Action.TURN_RIGHT_90, Action.STOP]
        assert [cp.cell for cp in cps] == [(1, 0), (1, 1), (2, 1)]

    def test_turn_direction_sign(self):
        south_then_east = PlannedPath(((0, 1), (0, 0), (1, 0)))
        cps = extract_checkpoints(south_then_east, Heading.SOUTH)
        assert cps[0].action is Action.TURN_LEFT_90
        south_then_west = PlannedPath(((1, 1), (1, 0), (0, 0)))
        cps = extract_checkpoints(south_then_west, Heading.SOUTH)
        assert cps[0].action is Action.TURN_RIGHT_90

    def test_leading_turn_when_heading_is_off_by_90(self):
        path = PlannedPath(((0, 0), (1, 0)))
        cps = extract_checkpoints(path, Heading.NORTH)
        assert cps[0] == Checkpoint((0, 0), Action.TURN_RIGHT_90)
        assert cps[-1].action is Action.STOP

    def test_reversed_heading_rejected(self):
        path = PlannedPath(((0, 0), (1, 0)))
        with pytest.raises(PathReversal):
            extract_checkpoints(path, Heading.WEST)

    def test_single_cell_path(self):
        assert extract_checkpoints(PlannedPath(((3, 3),)), Heading.EAST) == (Checkpoint((3, 3), Action.STOP),)

    def test_empty_path_rejected(self):
        with pytest.raises(EmptyPath):
            extract_checkpoints(PlannedPath(()), Heading.EAST)

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: GridMap(3, 2, 1.0, np.ones((3, 2), dtype=bool)), MapFormatError, "walkable mask shape (3, 2) != (height, width)"),
            (lambda: PlannedPath(((0, 0), (1, 0), (2, 1))), ToolkitError, "cells (1, 0) and (2, 1) are not 4-neighbors"),
        ],
        ids=["mask-shape", "diagonal-step"],
    )
    def test_malformed_grid_or_path_rejected(self, build, error, message):
        with pytest.raises(error) as raised:
            build()
        assert raised.type is error and str(raised.value) == message

    def test_path_revisiting_cell_rejected(self):
        with pytest.raises(PathReversal):
            PlannedPath(((0, 0), (1, 0), (0, 0)))

    def test_checkpoint_count_is_direction_changes_plus_one(self):
        rng = np.random.default_rng(3)
        counted = 0
        while counted < 30:
            grid = random_grid(rng, 12, 12, 0.25)
            pair = random_reachable_pair(rng, grid)
            if pair is None:
                continue
            path = astar(grid, *pair)
            if len(path.cells) < 2:
                continue
            dirs = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(path.cells, path.cells[1:])]
            changes = sum(1 for d1, d2 in zip(dirs, dirs[1:]) if d1 != d2)
            cps = extract_checkpoints(path, Heading(dirs[0]))
            assert len(cps) == changes + 1
            assert cps[-1].action is Action.STOP
            assert all(cp.action is not Action.STOP for cp in cps[:-1])
            counted += 1

    def test_plan_csv_layout(self, tmp_path):
        cps = (Checkpoint((2, 0), Action.TURN_LEFT_90), Checkpoint((2, 2), Action.STOP))
        path = tmp_path / "plan.csv"
        write_rows(path, ["ix", "iy", "action"], [(*cp.cell, cp.action.value) for cp in cps])  # as cmd_plan writes them
        assert path.read_bytes().decode() == "ix,iy,action\n2,0,turn_left_90\n2,2,stop\n"
