"""In-process span tracer for one maxlab CLI run.

The tracer wraps every public function of the maxlab modules from the
outside: no source file of the package changes.  A name such as
``decompose`` is bound in several places (``maxlab.spectral``, but also
``maxlab.semigroup`` through ``from .spectral import decompose``, the
package namespace, and tuples such as ``cli.ACCEPTANCE_CRITERIA``), so
each binding is replaced; a wrapper on one binding alone would miss the
calls made through the others.  ``BochnerField.__post_init__`` is
wrapped on the class, which is where the generated ``__init__`` looks
it up.

Spans (name, start, end, parent, run id) are kept in flat in-memory
arrays while the run is going and written out once it has ended.  Exact
counters are taken from call arguments and return values by small hooks
that run outside the span they describe.

The timed, untraced runs use Checkpoints instead: clock readings around
a few of the same functions, and a speed probe now and then.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array

import numpy as np

MODULES = ("core", "spectral", "semigroup", "modulus", "ergodic", "mellin", "cli")

# Functions whose calls and self time are reported as per-layer metrics.
CALLS_AND_SELF = (
    "spectral.decompose",
    "spectral.operator_norm_lower_bound",
    "spectral.spectral_matrix",
    "semigroup.semigroup_matrix",
    "spectral.gamma_values",
    "mellin.mellin_reconstruct",
    "semigroup.random_generator",
    "semigroup.verify_contraction_property",
    "ergodic.maximal_ergodic",
    "ergodic.vector_maximal_ergodic",
    "mellin.decomposition_residual",
    "modulus.modulus_semigroup",
)
SELF_ONLY = (
    "mellin.decay_constant",
    "semigroup.build_ensemble",
    "mellin.sector_maximal",
    "mellin.m_theta_maximal",
    "mellin.imaginary_power_estimate",
    "mellin.pointwise_convergence_profile",
    "modulus.verify_domination",
    "modulus.subpositivity_suite",
)
BOCHNER = "core.BochnerField"
# Functions that cut a timed run into segments (see Checkpoints): the
# per-layer functions, which take from about a millisecond to a quarter of
# a second per call and cut every workload into hundreds or thousands of
# pieces.  The 10-microsecond matrix builders are left out.
CHECKPOINTS = frozenset(CALLS_AND_SELF + SELF_ONLY) - {
    "spectral.spectral_matrix", "semigroup.semigroup_matrix"}
PROBE_EVERY_NS = 10_000_000

# Counters that are exact functions of the code, the workload and the seed;
# two runs of the same code must repeat them bit for bit.
EXACT_COUNTERS = tuple(f"{name}.calls" for name in CALLS_AND_SELF) + (
    "spectral.decompose.per_generator",
    "spectral.eig_residual_max",
    "spectral.operator_norm_lower_bound.trials",
    "core.BochnerField.constructed",
    "mellin.nodes",
    "ergodic.nodes",
    "modulus.depth_mean",
)


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[1]
    if last in ("calls", "trials", "constructed", "nodes", "spans", "count_mismatches"):
        return "count"
    if last == "csv_bytes":
        return "bytes"
    if last == "depth_mean":
        return "levels"
    if last.startswith("ms_") or last.endswith("_ms"):
        return "ms"
    if last.endswith("_s"):
        return "s"
    return "ratio"


class Tracer:
    """Records spans around the public maxlab functions of one process."""

    def __init__(self, run_id: int = 0):
        self.run_id = int(run_id)
        self.names: list[str] = []
        self.name_of = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        # hook data: filled during the run, reduced in metrics()
        self.decompositions: list[tuple[int, object, object]] = []
        self.trials = 0
        self.mellin_nodes = 0
        self.ergodic_nodes = 0
        self.depths: list[int] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``hook(span_index, bound_arguments, result)`` runs after the span has
        closed, so its cost lands in the caller's self time, not in ``name``.
        """
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack = (self.name_of, self.parent, self.start,
                                              self.end, self._stack)
        clock = time.perf_counter_ns
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(idx, bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the maxlab modules at every binding."""
        from maxlab import core

        hooks = {
            "spectral.decompose": self._on_decompose,
            "spectral.operator_norm_lower_bound": self._on_norm_bound,
            "mellin.sector_maximal": self._on_sector_family,
            "mellin.m_theta_maximal": self._on_sector_family,
            "mellin.pointwise_convergence_profile": self._on_pointwise,
            "ergodic.maximal_ergodic": self._on_ergodic_family,
            "ergodic.vector_maximal_ergodic": self._on_ergodic_family,
            "modulus.modulus_semigroup": self._on_modulus,
        }
        rebind(lambda name, fn: self.wrap(name, fn, hooks.get(name)))
        bochner = core.BochnerField
        bochner.__post_init__ = self.wrap(BOCHNER, bochner.__post_init__)

    # -- hooks --------------------------------------------------------------

    def _on_decompose(self, idx, arguments, result) -> None:
        self.decompositions.append((idx, arguments["op"], result))

    def _on_norm_bound(self, idx, arguments, result) -> None:
        self.trials += int(arguments["trials"])

    def _on_sector_family(self, idx, arguments, result) -> None:
        grid = arguments["grid"]
        self.mellin_nodes += len(grid.radii) * len(grid.angles)

    def _on_pointwise(self, idx, arguments, result) -> None:
        angles = 1 if float(arguments["psi"]) == 0.0 else int(arguments["n_angles"])
        self.mellin_nodes += len(result.radii) * angles

    def _on_ergodic_family(self, idx, arguments, result) -> None:
        t_grid = arguments["t_grid"]
        if t_grid is None:
            from maxlab.ergodic import DEFAULT_ERGODIC_T_GRID as t_grid
        self.ergodic_nodes += len(t_grid)

    def _on_modulus(self, idx, arguments, result) -> None:
        self.depths.append(int(result.depth))

    # -- reduction ----------------------------------------------------------

    def spans(self) -> dict:
        """The recorded spans as arrays, one entry per call.

        ``name`` indexes ``names``; ``parent`` is the index of the enclosing
        span, -1 for the root.
        """
        count = len(self.start)
        return {
            "names": np.asarray(self.names, dtype=str),
            "name": np.frombuffer(self.name_of, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "run_id": np.full(count, self.run_id, dtype=np.int64),
        }

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the finished run; ``wall_s`` is its untraced-clock wall time."""
        name_of = np.frombuffer(self.name_of, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(float) * 1e-9
        covered = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        width = len(self.names)
        calls = np.bincount(name_of, minlength=width)
        self_by_name = np.bincount(name_of, weights=self_time, minlength=width)
        index = {name: i for i, name in enumerate(self.names)}

        def n_calls(name):
            return int(calls[index[name]]) if name in index else 0

        def self_s(name):
            return float(self_by_name[index[name]]) if name in index else 0.0

        def durations_ms(name):
            if name not in index:
                return np.zeros(0)
            return dur[name_of == index[name]] * 1e3

        out = {}
        for name in CALLS_AND_SELF:
            out[f"{name}.calls"] = n_calls(name)
            out[f"{name}.self_s"] = self_s(name)
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = self_s(name)
        out[f"{BOCHNER}.constructed"] = n_calls(BOCHNER)
        out[f"{BOCHNER}.self_s"] = self_s(BOCHNER)

        small, large, residual = [], [], 0.0
        for idx, op, dec in self.decompositions:
            ms = dur[idx] * 1e3
            if op.n <= 16:
                small.append(ms)
            elif op.n == 48:
                large.append(ms)
            a = np.asarray(op.entries)
            scale = float(np.abs(a).max(initial=0.0)) or 1.0
            v = dec.eigenvectors
            residual = max(residual, float(np.abs(a @ v - v * dec.eigenvalues).max()) / scale)
        out["spectral.decompose.ms_small"] = _median(small)
        out["spectral.decompose.ms_n48"] = _median(large)
        generators = n_calls("semigroup.random_generator")
        out["spectral.decompose.per_generator"] = (
            n_calls("spectral.decompose") / generators if generators else 0.0)
        out["spectral.eig_residual_max"] = residual

        bound_ms = durations_ms("spectral.operator_norm_lower_bound")
        out["spectral.operator_norm_lower_bound.trials"] = self.trials
        out["spectral.operator_norm_lower_bound.p50_ms"] = _percentile(bound_ms, 50)
        out["spectral.operator_norm_lower_bound.p99_ms"] = _percentile(bound_ms, 99)
        out["mellin.nodes"] = self.mellin_nodes
        out["ergodic.nodes"] = self.ergodic_nodes
        out["modulus.depth_mean"] = float(np.mean(self.depths)) if self.depths else 0.0

        module_self = {short: 0.0 for short in MODULES}
        for name, i in index.items():
            module_self[name.split(".", 1)[0]] += float(self_by_name[i])
        for short, seconds in module_self.items():
            out[f"{short}.self_s"] = seconds
        out["trace.spans"] = int(dur.size)
        out["trace.accounted_ratio"] = sum(module_self.values()) / wall_s if wall_s > 0 else 0.0
        return out


def rebind(wrap) -> None:
    """Replace every public maxlab function, at every binding, by ``wrap(name, fn)``.

    ``name`` is ``<module>.<function>``; ``wrap`` may return ``fn`` itself
    to leave a function alone.
    """
    import maxlab
    from maxlab import cli, core  # noqa: F401  (the package does not import cli)

    modules = [sys.modules[f"maxlab.{short}"] for short in MODULES]
    replacement: dict[int, object] = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, value in vars(module).items():
            if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                replacement[id(value)] = wrap(f"{short}.{attr}", value)
    for module in [maxlab, *modules]:
        for attr, value in list(vars(module).items()):
            if id(value) in replacement:
                setattr(module, attr, replacement[id(value)])
            elif isinstance(value, tuple) and any(id(v) in replacement for v in value):
                setattr(module, attr, tuple(replacement.get(id(v), v) for v in value))


class Checkpoints:
    """Clock readings at the entry and exit of the CHECKPOINTS functions.

    The readings cut a run into segments of a millisecond to a quarter of
    a second; run.py scales each segment by how fast the host ran at its
    end.  Each reading is one wall clock and one process CPU clock call.

    At most every PROBE_EVERY_NS a reading also times speed_probe(), a
    fixed piece of interpreter and small-array work, to tell how fast the
    host runs the process at that moment.  The probe's own time is kept
    out of the readings.
    """

    def __init__(self):
        self.wall = array("q")
        self.cpu = array("q")
        self.probe_at = array("q")
        self.probe_ns = array("q")
        self._probe_wall = self._probe_cpu = 0
        self._next_probe = 0

    def stamp(self) -> None:
        wall, cpu = time.perf_counter_ns(), time.process_time_ns()
        self.wall.append(wall - self._probe_wall)
        self.cpu.append(cpu - self._probe_cpu)
        if wall >= self._next_probe:
            self.probe_at.append(len(self.wall) - 1)
            self.probe_ns.append(speed_probe())
            end = time.perf_counter_ns()
            self._probe_wall += end - wall
            self._probe_cpu += time.process_time_ns() - cpu
            self._next_probe = end + PROBE_EVERY_NS

    def wrap(self, name: str, fn):
        if name not in CHECKPOINTS:
            return fn
        stamp = self.stamp

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stamp()
            try:
                return fn(*args, **kwargs)
            finally:
                stamp()

        return timed

    def install(self) -> None:
        rebind(self.wrap)

    def segments(self) -> dict:
        """Wall and CPU nanoseconds between consecutive readings, and the probes.

        ``probe_at[i]`` is the index of the reading at which probe
        ``probe_ns[i]`` was taken.
        """
        wall = np.frombuffer(self.wall, dtype=np.int64)
        cpu = np.frombuffer(self.cpu, dtype=np.int64)
        return {"wall_ns": np.diff(wall).tolist(), "cpu_ns": np.diff(cpu).tolist(),
                "probe_at": self.probe_at.tolist(), "probe_ns": self.probe_ns.tolist()}


_PROBE_VECTOR = np.linspace(0.5, 1.5, 8)


def speed_probe() -> int:
    """Nanoseconds taken by a fixed mix of bytecode and small numpy calls.

    Plain bytecode and numpy calls on small arrays are what the maxlab
    commands spend their time in, and on a shared host the two slow down
    by different factors, so the probe times both.
    """
    start = time.perf_counter_ns()
    acc, table = 0, {}
    for i in range(300):
        table[i & 15] = table.get(i & 15, 0) + 3 * i
        acc += i % 7
    total = 0.0
    for i in range(24):
        total += float(np.dot(_PROBE_VECTOR, _PROBE_VECTOR * 0.5))
        table[i & 7] = table.get(i & 7, 0) + total
    return time.perf_counter_ns() - start


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
