from collections import deque

import numpy as np
import pytest

from rssinav.errors import OutOfBounds
from rssinav.planner import (
    Action,
    BlockedEndpoint,
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
        assert grid.cell_of(3.0, 5.0) == (1, 2)
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
