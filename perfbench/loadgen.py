"""Inputs the benchmark generates from its seed, and the oracles that check
the program's outputs.  Nothing here calls into the program except the
exported simulator types used to describe a world.

- ``render_iwlist``: scan text in the real ``iwlist scan`` cell layout
  (Channel, Frequency, Quality/Signal, Encryption, ESSID, Bit Rates, Mode,
  Extra and IE lines, about 17 lines per cell).  Access points weaker than
  the radio's sensitivity are not listed, as on real hardware.
- ``room_floor``: a seeded room-and-door office floor (160 x 100 ft at 1 ft
  cells, about 15k walkable cells) with about 30 access points over four
  SSIDs.
- ``bfs_cost``: breadth-first-search oracle for A* path costs.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from rssinav import AccessPointSim, GridMap, SimRobot, SimWorld

SENSITIVITY_DBM = -90  # weaker access points do not appear in a scan
FLOOR_SSIDS = ("LabNet", "LabGuest", "Facilities", "Printers")
FLOOR_ALLOWLIST = ("LabNet", "LabGuest")


def render_iwlist(entries) -> str:
    """Scan text for ``entries`` (objects with mac, ssid, rssi) in iwlist layout."""
    lines = ["wlan0     Scan completed :"]
    cell = 0
    for entry in entries:
        if entry.rssi < SENSITIVITY_DBM:
            continue
        cell += 1
        channel = 1 + int(entry.mac[-2:], 16) % 11
        quality = max(0, min(70, entry.rssi + 110))
        ssid_hex = entry.ssid.encode("ascii").hex().upper()
        lines += [
            f"          Cell {cell:02d} - Address: {entry.mac}",
            f"                    Channel:{channel}",
            f"                    Frequency:{2.407 + 0.005 * channel:.3f} GHz (Channel {channel})",
            f"                    Quality={quality}/70  Signal level={entry.rssi} dBm  ",
            "                    Encryption key:on",
            f'                    ESSID:"{entry.ssid}"',
            "                    Bit Rates:1 Mb/s; 2 Mb/s; 5.5 Mb/s; 11 Mb/s; 6 Mb/s",
            "                              9 Mb/s; 12 Mb/s; 18 Mb/s; 24 Mb/s; 36 Mb/s",
            "                    Mode:Master",
            "                    Extra:tsf=000000a1b2c3d4e5",
            "                    Extra: Last beacon: 24ms ago",
            f"                    IE: Unknown: 00{len(entry.ssid):02X}{ssid_hex}",
            "                    IE: IEEE 802.11i/WPA2 Version 1",
            "                        Group Cipher : CCMP",
            "                        Pairwise Ciphers (1) : CCMP",
            "                        Authentication Suites (1) : PSK",
        ]
    return "\n".join(lines) + "\n"


def capture_name(x: float, y: float, rep: int) -> str:
    """``<x>_<y>_<rep>.txt``, the capture naming ``rssinav ingest`` reads."""
    return f"{x!r}_{y!r}_{rep}.txt"


def _walls(rng, mask, y0: int, y1: int, door_row: int) -> None:
    """Split rows y0..y1 (inclusive) into rooms by vertical walls.

    Each room gets a 3 ft door in row ``door_row`` (its wall towards the
    corridor) and, half the time, a door to its western neighbour.
    """
    width = mask.shape[1]
    edges = [0]
    while width - edges[-1] > 40:
        edges.append(edges[-1] + int(rng.integers(14, 27)))
    edges.append(width)
    for left, right in zip(edges, edges[1:]):
        if left > 0:
            mask[y0 : y1 + 1, left] = False
            if rng.random() < 0.5:
                at = int(rng.integers(y0 + 1, y1 - 3))
                mask[at : at + 3, left] = True
        at = int(rng.integers(left + 2, right - 4))
        mask[door_row, at : at + 3] = True


def room_floor(seed: int, width: int = 160, height: int = 100, ap_count: int = 30) -> SimWorld:
    """Seeded office floor: an east-west corridor with two rows of rooms on
    each side, every room reachable through a door; APs on a jittered grid."""
    rng = np.random.default_rng([seed, 0xF100])
    mask = np.ones((height, width), dtype=bool)
    corridor_lo, corridor_hi = height // 2 - 3, height // 2 + 2  # 6 ft corridor
    south_wall, north_wall = corridor_lo - 1, corridor_hi + 1
    mid_south, mid_north = south_wall // 2, (north_wall + height) // 2
    for row in (south_wall, north_wall, mid_south, mid_north):
        mask[row, :] = False
    _walls(rng, mask, mid_south + 1, south_wall, south_wall)  # near rooms open onto the corridor
    _walls(rng, mask, 0, mid_south, mid_south)  # far rooms open into the near row
    _walls(rng, mask, north_wall, mid_north - 1, north_wall)
    _walls(rng, mask, mid_north, height - 1, mid_north)
    grid = GridMap(width, height, 1.0, mask)

    cols, rows = 6, ap_count // 6
    aps = []
    for i in range(ap_count):
        gx, gy = i % cols, i // cols
        x = (gx + 0.5) * width / cols + rng.uniform(-6, 6)
        y = (gy + 0.5) * height / rows + rng.uniform(-4, 4)
        mac = f"02:00:5E:00:{i // 256:02X}:{i % 256:02X}"
        ssid = FLOOR_SSIDS[int(rng.integers(len(FLOOR_SSIDS)))] if i >= len(FLOOR_SSIDS) else FLOOR_SSIDS[i]
        aps.append(AccessPointSim(mac, ssid, (float(x), float(y)), p0=-40.0, path_loss_exponent=3.0, noise_sigma=2.0))
    return SimWorld(grid, tuple(aps), SimRobot(x=0.5, y=0.5), rng_seed=seed)


def bfs_cost(walkable: np.ndarray, start, goal):
    """Fewest 4-connected unit steps from start to goal over ``walkable[iy][ix]``, or None."""
    rows = walkable.tolist()
    height, width = len(rows), len(rows[0])
    start, goal = tuple(start), tuple(goal)
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        (x, y), dist = queue.popleft()
        if (x, y) == goal:
            return dist
        for nxt in ((x + 1, y), (x, y + 1), (x - 1, y), (x, y - 1)):
            nx, ny = nxt
            if 0 <= nx < width and 0 <= ny < height and rows[ny][nx] and nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, dist + 1))
    return None


def is_walkable_path(walkable: np.ndarray, cells) -> bool:
    """Every cell walkable and each step a 4-neighbour move."""
    height, width = walkable.shape
    for ix, iy in cells:
        if not (0 <= ix < width and 0 <= iy < height and walkable[iy, ix]):
            return False
    return all(abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1 for a, b in zip(cells, cells[1:]))
