"""Outside-in layer trace of the diracpacket command line.

The library is not instrumented.  Instead, each public function on the CLI
path is replaced, for the length of one traced pass, by a wrapper installed
at the module attribute through which its caller reaches it:

    diracpacket.cli        cmd_* (through the _COMMANDS table), _write_csv,
                           build_tables, timescales, autocorrelation,
                           spin_expect, density_grid
    diracpacket.packet     make_circular_state, overlap_set,
                           overlap_closed_form
    diracpacket.density    eval_radial

A wrapper records a span (name, start, end, parent span, job id) and the
work counts its arguments imply.  ``restore`` puts every original back.
``specfun`` and ``quadrature`` are deliberately not wrapped: the first
costs about a millisecond per grid, the second only runs in test oracles.

Self time of a span is its duration minus the union of its children's
intervals.  ``density_grid`` calls ``eval_radial`` from worker threads, so
those children overlap; a worker thread's spans take the span open on the
main thread as their parent, and a layer's wall time under one parent is
the union of its intervals there.  Concurrency only occurs at such leaf
spans, so the self times of all layers add up to the traced jobs' wall
time.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
from collections import defaultdict
import numpy as np


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def symmetric_radius_classes(resolution: int) -> int:
    """Distinct unordered (|x|, |y|) node classes of a centred square grid.

    The grid axis is symmetric about the origin, so the radius of a node
    depends only on this class; it is the reuse a radial cache could get.
    """
    idx = np.arange(resolution)
    fold = np.minimum(idx, resolution - 1 - idx)
    distinct = np.unique(fold).size
    return distinct * (distinct + 1) // 2


class Tracer:
    """Spans and counts for the CLI layers; install per pass, then restore."""

    def __init__(self, cli, packet, density):
        self._modules = (cli, packet, density)
        self._saved: list[tuple[object, str, object]] = []
        self._saved_commands: dict | None = None
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._job = 0
        # Spans as parallel lists of atoms, which the cyclic garbage
        # collector never has to traverse one by one.
        self.names: list[str] = []
        self.jobs: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.reuse_ratios: list[float] = []
        self.radial_ratios: list[float] = []
        self._pass_states: set = set()
        self._pass_state_calls = 0
        self._pass_nodes = 0
        self._pass_classes = 0

    # ------------------------------------------------------------ spans

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A worker thread's outermost span belongs to whatever the
            # main thread has open (density_grid waiting on its pool).
            parent = self._main_stack[-1] if self._main_stack else -1
        with self._lock:
            index = len(self.names)
            self.names.append(name)
            self.jobs.append(self._job)
            self.parents.append(parent)
            self.ends.append(0.0)
            self.starts.append(time.perf_counter())
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def job(self):
        """Root span of one ``cli.main`` call."""
        self._job += 1
        index = self._open("cli.job")
        try:
            yield
        finally:
            self._close(index)

    # --------------------------------------------------------- wrapping

    def _wrapper(self, original, name: str, count=None):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def _wrap(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self._wrapper(original, name, count))

    def _add(self, key: str, value: int = 1) -> None:
        with self._lock:
            self.counts[key] += value

    def install(self) -> None:
        """Wrap the layer entry points for one traced pass."""
        if self._saved or self._saved_commands is not None:
            raise RuntimeError("tracer is already installed")
        cli, packet, density = self._modules
        self._pass_states = set()
        self._pass_state_calls = 0
        self._pass_nodes = 0
        self._pass_classes = 0

        self._saved_commands = dict(cli._COMMANDS)
        for command, function in self._saved_commands.items():
            cli._COMMANDS[command] = self._wrapper(function, "cli.cmd")

        def count_write(args, kwargs, result):
            out_path, _manifest, _header, rows = args
            self._add("cli.rows", len(rows))
            if out_path is not None:
                self._add("cli.bytes", os.path.getsize(out_path))

        def count_autocorr(args, kwargs, result):
            tables, t = args[0], args[1]
            evals = np.size(t) * (tables.e_plus.size + tables.e_minus.size)
            self._add("packet.phase_evals", evals)
            self._add("packet.phase_bytes", 16 * evals)

        def count_spin(args, kwargs, result):
            tables, t = args[0], args[1]
            include_delta = args[2] if len(args) > 2 else kwargs.get("include_delta", True)
            columns = 2 * tables.omega.size
            if include_delta and tables.k_coef.size:
                columns += 2 * tables.omega_tilde.size
            self._add("packet.phase_evals", np.size(t) * columns)
            self._add("packet.phase_bytes", 8 * np.size(t) * columns)

        def count_state(args, kwargs, result):
            self._add("dirac_coulomb.make_circular_state_calls")
            with self._lock:
                self._pass_states.add((int(args[0]), int(args[1]), args[2]))
                self._pass_state_calls += 1

        def count_radial(args, kwargs, result):
            self._add("dirac_coulomb.eval_radial_calls")
            self._add("dirac_coulomb.eval_radial_points", int(np.size(args[1])))

        def count_grid(args, kwargs, result):
            tables, grid = args[0], args[1]
            nodes = grid.resolution * grid.resolution
            self._add("density.nodes", nodes)
            self._add("density.ket_node_madds", len(tables.kets) * nodes)
            self._pass_nodes += nodes
            self._pass_classes += symmetric_radius_classes(grid.resolution)

        def calls(key):
            return lambda args, kwargs, result: self._add(key)

        self._wrap(cli, "_write_csv", "cli.write", count_write)
        self._wrap(cli, "build_tables", "packet.build_tables", calls("packet.build_tables_calls"))
        self._wrap(cli, "timescales", "packet.timescales", calls("packet.timescales_calls"))
        self._wrap(cli, "autocorrelation", "packet.autocorrelation", count_autocorr)
        self._wrap(cli, "spin_expect", "packet.spin_expect", count_spin)
        self._wrap(cli, "density_grid", "density.density_grid", count_grid)
        self._wrap(packet, "make_circular_state", "dirac_coulomb.make_circular_state", count_state)
        self._wrap(packet, "overlap_set", "dirac_coulomb.overlap", calls("dirac_coulomb.overlap_calls"))
        self._wrap(
            packet, "overlap_closed_form", "dirac_coulomb.overlap",
            calls("dirac_coulomb.overlap_calls"),
        )
        self._wrap(density, "eval_radial", "dirac_coulomb.eval_radial", count_radial)

    def restore(self) -> None:
        """Put every wrapped function back."""
        cli = self._modules[0]
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        if self._saved_commands is not None:
            cli._COMMANDS.clear()
            cli._COMMANDS.update(self._saved_commands)
            self._saved_commands = None
        if self._pass_state_calls:
            self.reuse_ratios.append(len(self._pass_states) / self._pass_state_calls)
        if self._pass_nodes:
            self.radial_ratios.append(self._pass_classes / self._pass_nodes)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # ---------------------------------------------------------- summary

    def layer_times(self) -> tuple[dict, dict, dict]:
        """(wall, self, busy) seconds per span name, summed over all spans.

        wall is the union of a name's intervals under each parent (the sum
        of durations for spans that never overlap), self subtracts the
        union of each span's children, busy is the plain sum of durations.
        """
        names, starts, ends = self.names, self.starts, self.ends
        children: dict[int, list[int]] = defaultdict(list)
        for index, parent in enumerate(self.parents):
            children[parent].append(index)
        wall: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        busy: dict[str, float] = defaultdict(float)
        for kids in children.values():
            by_name: dict[str, list] = defaultdict(list)
            for k in kids:
                by_name[names[k]].append((starts[k], ends[k]))
            for name, intervals in by_name.items():
                wall[name] += _union_length(intervals)
        parent_names = {names[p] for p in children if p >= 0}
        for index, name in enumerate(names):
            busy[name] += ends[index] - starts[index]
            if name in parent_names:
                kids = [(starts[k], ends[k]) for k in children.get(index, ())]
                own[name] += ends[index] - starts[index] - _union_length(kids)
        # A leaf's self time is its wall time: concurrent leaves share it.
        for name in wall.keys() - parent_names:
            own[name] = wall[name]
        return dict(wall), dict(own), dict(busy)
