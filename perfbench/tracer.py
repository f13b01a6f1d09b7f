"""Outside-in span tracing of the program's public layer functions.

``Tracer.install`` wraps each target function and rebinds every
module-level reference to it in the loaded ``rssinav.*`` modules, so calls
made through a module attribute (``model.forward``), through a name
imported into another module (``rfsim`` imports ``predict_position``,
``nav_step`` and ``astar``) or through a module's own globals
(``predict_position`` reaching ``forward``) all pass through the wrapper.
Nothing inside the program changes.

Spans are kept in memory and written as JSONL at the end.  Each span has a
name, start and end (seconds since the first traced region began), the id of the
span that caused it, and a request id (trial seed, mission id or fix
index).  A span's self time is its duration minus the time its child spans
cover, less the wrapper's own per-call cost, which ``calibrate`` measures
in the same process.  High-frequency leaves (``step_robot``: about 1,300
calls per trial) are aggregated per parent span instead of becoming one
span per call.  A target the program no longer has is reported as absent.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field

clock = time.perf_counter


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


@dataclass
class Target:
    """One function to wrap: ``rssinav.<module>.<function>``.

    ``count(stat, args, kwargs, result, error)`` records work counters after
    a call; ``request(args, kwargs)`` names the request a call serves, which
    its child spans inherit; ``leaf`` aggregates calls per parent span.
    """

    module: str
    function: str
    count: object = None
    request: object = None
    leaf: bool = False

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


class _Open:
    __slots__ = ("id", "parent", "request", "child_s", "leaves")

    def __init__(self, span_id, parent, request):
        self.id = span_id
        self.parent = parent
        self.request = request
        self.child_s = 0.0  # child durations plus the wrapper cost outside them
        self.leaves = None  # leaf name -> [calls, seconds]


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self.leaf_rows: list[tuple] = []
        self.wrapper_s = 0.0
        self.inner_cost = {False: 0.0, True: 0.0}  # per call, inside the span's own [start, end]
        self.outer_cost = {False: 0.0, True: 0.0}  # per call, outside it
        self._stack: list[_Open] = []
        self._next_id = 0
        self._origin = 0.0
        self._undo: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def _push(self, request) -> _Open:
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = parent.request
        self._next_id += 1
        node = _Open(self._next_id, parent.id if parent else None, request)
        self._stack.append(node)
        return node

    def _pop(self, node: _Open, name: str, stat: Stat, t0: float, t1: float, error, inner: float, outer: float) -> None:
        self._stack.pop()
        if node.leaves:
            leaf_inner, leaf_outer = self.inner_cost[True], self.outer_cost[True]
            for leaf, (calls, seconds) in node.leaves.items():
                leaf_stat = self.stats[leaf]
                leaf_stat.calls += calls
                leaf_stat.self_s += seconds - calls * leaf_inner
                self.wrapper_s += calls * (leaf_inner + leaf_outer)
                node.child_s += seconds + calls * leaf_outer
                self.leaf_rows.append((leaf, node.id, node.request, calls, seconds))
        duration = t1 - t0
        stat.calls += 1
        stat.self_s += duration - node.child_s - inner
        self.wrapper_s += inner + outer
        if self._stack:
            self._stack[-1].child_s += duration + outer
        self.spans.append((node.id, name, node.parent, node.request, t0 - self._origin, t1 - self._origin, error))

    def begin(self, request=None) -> None:
        """Open the harness root span; everything traced until ``end`` nests in it."""
        if not self.spans:
            self._origin = clock()  # span times count from the first traced region
        self._push(request)
        self._root_t0 = clock()

    def set_request(self, request) -> None:
        """Name the request the harness serves next (child spans inherit it)."""
        self._stack[-1].request = request

    def end(self) -> float:
        """Close the root span; return the traced wall time."""
        t1 = clock()
        node = self._stack[-1]
        self._pop(node, "harness", self.stats.setdefault("harness", Stat()), self._root_t0, t1, None, 0.0, 0.0)
        return t1 - self._root_t0

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, target: Target):
        stat = self.stats.setdefault(target.name, Stat())
        name = target.name
        tracer = self

        if target.leaf:
            stack = self._stack

            def leaf(*args, **kwargs):
                # counts accumulate on the parent span and reach the stats when it closes
                t0 = clock()
                result = fn(*args, **kwargs)
                duration = clock() - t0
                node = stack[-1]
                rows = node.leaves
                if rows is None:
                    rows = node.leaves = {}
                row = rows.get(name)
                if row is None:
                    row = rows[name] = [0, 0.0]
                row[0] += 1
                row[1] += duration
                return result

            return leaf

        count, request_of = target.count, target.request

        def span(*args, **kwargs):
            node = tracer._push(request_of(args, kwargs) if request_of else None)
            result = error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                outer = tracer.outer_cost[False]
                if count is not None:
                    count(stat, args, kwargs, result, error)
                    outer += clock() - t1  # the counter runs outside the span
                tracer._pop(node, name, stat, t0, t1, error, tracer.inner_cost[False], outer)

        return span

    def install(self, targets) -> None:
        """Wrap every target and rebind each module-level reference to it."""
        modules = [m for n, m in list(sys.modules.items()) if (n == "rssinav" or n.startswith("rssinav.")) and m]
        for target in targets:
            self.stats.setdefault(target.name, Stat())
            owner = sys.modules.get(f"rssinav.{target.module}")
            fn = getattr(owner, target.function, None) if owner else None
            if not callable(fn):
                if target.name not in self.absent:
                    self.absent.append(target.name)
                continue
            wrapper = self._wrap(fn, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def calibrate(self, calls: int = 50000, rounds: int = 7) -> None:
        """Measure the wrappers' own per-call cost on a no-op called like the
        layer functions (positional and keyword arguments), split into the
        part inside a span's [start, end] and the part outside it."""

        def noop(a, b, key=None):
            return None

        for leaf_mode in (False, True):
            totals, inners = [], []
            for _ in range(rounds):
                probe = Tracer()
                wrapped = probe._wrap(noop, Target("calibration", "noop", leaf=leaf_mode))
                probe.begin()
                t0 = clock()
                for _ in range(calls):
                    noop(1, 2, key=3)
                bare = clock() - t0
                t0 = clock()
                for _ in range(calls):
                    wrapped(1, 2, key=3)
                traced = clock() - t0
                probe.end()
                totals.append((traced - bare) / calls)
                inners.append(max(0.0, (probe.stats["calibration.noop"].self_s - bare) / calls))
            total, inner = sorted(totals)[rounds // 2], sorted(inners)[rounds // 2]
            self.inner_cost[leaf_mode] = min(inner, total)
            self.outer_cost[leaf_mode] = max(0.0, total - inner)

    # -- output ----------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, parent, request, start, end, error in self.spans:
                row = {"id": span_id, "name": name, "parent": parent, "request": request, "start": start, "end": end}
                if error:
                    row["error"] = error
                fh.write(json.dumps(row) + "\n")
            for name, parent, request, calls, seconds in self.leaf_rows:
                fh.write(json.dumps({"name": name, "parent": parent, "request": request, "calls": calls, "total_s": seconds}) + "\n")
