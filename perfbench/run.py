#!/usr/bin/env python3
"""Time-to-verdict and certificate-quality benchmark for the maxlab CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; maxlab is imported from ``src/``
and nothing is installed.  Every measurement is one child process running
one CLI command, and children run strictly one at a time (a closed loop
with a single client).  BLAS and OpenMP thread counts are set to 1 in the
children's environment only.  The seed is passed to maxlab only as
``--seed``.

Workloads (see BENCHMARK.json for why each was chosen):

* ``suite``: ``full-suite``, the twelve acceptance verdicts;
* ``sector-probe``: ``verify-semigroup``, sector probes by Boyd p-norm bounds;
* ``maximal-n48``: ``maximal --n 48``, few large generators, many family sups.

With ``--trace 0`` the run measures the command repeatedly for about
``--seconds`` seconds (at least twice) plus a few set-up-only children,
and reports the end-to-end metrics: ``wall_s`` (median wall time from
``cli.main`` entry to return), ``cpu_s`` (median user+sys CPU time of the
child), both at a reference host speed (see at_reference_speed; the raw
times are in the record line), ``setup_s`` (median time from spawn to
maxlab imported and the config parsed in the set-up-only children, as
measured), ``peak_rss_mb`` (median child max RSS), ``ok_ratio``
(runs that pass every output check, over runs attempted) and
``cert_gap`` (worst relative gap of the p = 2 sector lower bounds to the
exact norm, see checks.py).  ``sector-probe`` scores its own sector
table; the other workloads write none, so they score a fixed one-member
``verify-semigroup`` probe run once, untimed, at the default seed.

With ``--trace 1`` the run makes one untraced child, then traced children
(see tracing.py) for the rest of the time, and reports per-layer metrics:
calls, self times and exact counters per maxlab function, the tracing
overhead and the share of the traced wall time the spans account for.
The traced run's CSVs must be byte-identical to the untraced run's.
Exact counters must repeat between traced children and between
invocations with the same seed in the same checkout; mismatches are
counted in ``trace.count_mismatches``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
record of the samples, CSV sha256 digests and machine facts.  Work files
go to ``.perfbench/`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
from tracing import EXACT_COUNTERS, unit

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench"

DEFAULT_SEED = 20260817
# command line and output kind of each workload
WORKLOADS = {
    "suite": (("full-suite",), "suite"),
    "sector-probe": (("verify-semigroup",), "sector"),
    "maximal-n48": (("maximal", "--n", "48"), "maximal"),
}
# Certificate probe for workloads that write no sector table: fixed input,
# so its score is a property of the code alone.
PROBE_ARGS = ("verify-semigroup", "--count", "1", "--seed", str(DEFAULT_SEED))
SETUP_CHILDREN = 9
MIN_SAMPLES = 2
MAX_TRACED = 3
THREADS = 1
# wall_s and cpu_s are given at the host speed at which tracing.speed_probe
# takes this long: about its time on an otherwise idle vCPU of the 2-vCPU
# Xeon host the benchmark was written on.
REFERENCE_PROBE_NS = 80_000.0
# A run must end within 180 s; no child is started past this point.
LAST_START_S = 150.0
CHILD_TIMEOUT_S = 170.0


class Child:
    """Outcome of one child process."""

    def __init__(self, status, usage, spawn_ns, record, stdout, prefix):
        self.total_s = (time.perf_counter_ns() - spawn_ns) * 1e-9
        self.status = status
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.record = record
        self.stdout = stdout
        self.prefix = prefix
        self.setup_s = self.wall_s = None
        if record is not None and "ready_ns" in record:
            self.setup_s = (record["ready_ns"] - spawn_ns) * 1e-9
            self.wall_s = (record["main_end_ns"] - record["main_start_ns"]) * 1e-9


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.workload = workload
        self.argv, self.kind = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.started = time.perf_counter()
        self.spawned = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(THREADS)
        self.problems: list[str] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def spawn(self, mode: str, argv) -> Child:
        """Run one child to completion and collect its rusage and report."""
        self.spawned += 1
        tag = f"{self.spawned:03d}-{mode}"
        run_dir = self.work / tag
        run_dir.mkdir()
        result = run_dir / "result.json"
        prefix = str(run_dir / "out")
        cmd = [sys.executable, str(CHILD), mode, str(self.spawned), str(result), "--",
               *argv, "--out", prefix]
        with open(run_dir / "stdout.txt", "wb") as out, open(run_dir / "stderr.txt", "wb") as err:
            spawn_ns = time.perf_counter_ns()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, wait_status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(wait_status)
            finally:
                timer.cancel()
                timer.join()
        record = checks.read_json(str(result)) if result.is_file() else None
        stdout = (run_dir / "stdout.txt").read_text(encoding="ascii", errors="replace")
        return Child(proc.returncode, usage, spawn_ns, record, stdout, prefix)

    def judge(self, child: Child, command: str, kind: str, reference: dict | None):
        """Problems with one workload child, its CSV digests and sector score."""
        problems, score = [], None
        lines = child.stdout.strip().splitlines()
        if child.status != 0 or child.record is None:
            problems.append(f"exit status {child.status}")
        if not lines or lines[-1].strip() != f"{command}: PASS":
            problems.append("no PASS line")
        digests = checks.csv_digests(child.prefix)
        if not digests:
            problems.append("no CSV written")
        elif reference is not None and digests != reference:
            problems.append("CSV bytes differ from the first run")
        if not problems:
            found, score = checks.check_output(kind, child.prefix)
            problems.extend(found)
        return problems, digests, score

    def probe(self):
        """Certificate score of the fixed probe (workloads without a sector table)."""
        child = self.spawn("run", PROBE_ARGS)
        problems, _, score = self.judge(child, PROBE_ARGS[0], "sector", None)
        self.problems.extend(f"probe: {p}" for p in problems)
        return score

    def loop(self, mode: str, at_least: int, at_most: int | None = None):
        """Children of one mode while the time budget lasts."""
        children = []
        while at_most is None or len(children) < at_most:
            if children:
                estimate = statistics.median(c.total_s for c in children)
                # start another child if at least half of it fits, so that
                # runs last about --seconds on average
                if len(children) >= at_least and \
                        self.elapsed() + estimate / 2.0 > self.seconds:
                    break
                if self.elapsed() + estimate > LAST_START_S:
                    break
            children.append(self.spawn(mode, (*self.argv, "--seed", str(self.seed))))
        return children


def machine_facts(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": THREADS,
        "seed": seed,
    }


def measure(bench: Bench, score):
    """``--trace 0``: end-to-end metrics."""
    command = bench.argv[0]
    setup = [bench.spawn("setup", (*bench.argv, "--seed", str(bench.seed)))
             for _ in range(SETUP_CHILDREN)]
    runs = bench.loop("run", MIN_SAMPLES)
    reference, ok = None, 0
    for child in runs:
        problems, digests, run_score = bench.judge(child, command, bench.kind, reference)
        reference = reference or digests
        if run_score is not None and score is None:
            score = run_score
        ok += not problems
        bench.problems.extend(f"run: {p}" for p in problems)
    # the runs' own set-up includes installing the checkpoints, so it is left out
    setup_s = [c.setup_s for c in setup if c.setup_s is not None]
    walls = [c.wall_s for c in runs if c.wall_s is not None]
    if len(setup_s) < SETUP_CHILDREN:
        bench.problems.append("set-up children failed")
    segmented = [c for c in runs if c.record is not None and "segments" in c.record]
    wall_s = _median([at_reference_speed(c.record["segments"], "wall_ns") for c in segmented])
    # the CPU time outside the command (start-up, imports, exit) is taken as measured
    cpu_s = _median([at_reference_speed(c.record["segments"], "cpu_ns") + c.cpu_s
                     - sum(c.record["segments"]["cpu_ns"]) * 1e-9 for c in segmented])
    metrics = {
        "wall_s": (wall_s, "s"),
        "cpu_s": (cpu_s, "s"),
        "setup_s": (_median(setup_s), "s"),
        "peak_rss_mb": (_median([c.rss_mb for c in runs]), "MB"),
        "ok_ratio": (ok / len(runs), "ratio"),
        "cert_gap": (score["cert_gap"] if score else 1.0, "ratio"),
    }
    probes = [statistics.median(c.record["segments"]["probe_ns"]) * 1e-3 for c in segmented]
    info = {"samples": len(runs), "wall_s_each": walls, "cpu_s_each": [c.cpu_s for c in runs],
            "probe_us_each": probes, "setup_s": setup_s, "csv_sha256": reference}
    return len(runs), len(runs) - ok, metrics, info


def traced(bench: Bench, score):
    """``--trace 1``: per-layer metrics from traced children."""
    command = bench.argv[0]
    base = bench.loop("run", 1, 1)[0]
    problems, reference, base_score = bench.judge(base, command, bench.kind, None)
    bench.problems.extend(f"untraced: {p}" for p in problems)
    ok = not problems
    runs = bench.loop("trace", 1, MAX_TRACED)
    layers = []
    for child in runs:
        problems, _, run_score = bench.judge(child, command, bench.kind, reference)
        score = score or run_score or base_score
        ok += not problems
        bench.problems.extend(f"traced: {p}" for p in problems)
        if child.record is not None and "trace" in child.record:
            layers.append((child.record["trace"], child.wall_s, checks.csv_bytes(child.prefix)))
    if not layers:
        bench.problems.append("no traced run finished")
        return 1 + len(runs), 1 + len(runs) - ok, {}, {}
    mismatches = count_mismatches([layer for layer, _, _ in layers], bench.workload, bench.seed)
    metrics = {}
    for name in layers[0][0]:
        values = [layer[name] for layer, _, _ in layers]
        # exact counters keep their value; times take the median
        value = values[0] if len(set(values)) == 1 else _median(values)
        metrics[name] = (value, unit(name))
    metrics["cli.csv_bytes"] = (layers[0][2], "bytes")
    metrics["trace.wall_s"] = (_median([wall for _, wall, _ in layers]), "s")
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - (base.wall_s or 0.0), "s")
    metrics["trace.count_mismatches"] = (mismatches, "count")
    metrics["spectral.operator_norm_lower_bound.gap_tiny"] = (
        score["gap_tiny"] if score else 1.0, "ratio")
    info = {"samples": len(runs), "untraced_wall_s": base.wall_s,
            "traced_wall_s": [wall for _, wall, _ in layers], "csv_sha256": reference}
    return 1 + len(runs), 1 + len(runs) - ok, metrics, info


def at_reference_speed(segments: dict, clock: str) -> float:
    """Seconds of one run of the command, at the reference speed of the host.

    The host is shared, and how fast it runs the child changes by up to
    about 1.8 times, back and forth within a second and for minutes at a
    time.  The checkpoints cut the run into segments (see
    tracing.Checkpoints) and time the speed probe every 10 ms or so; each
    segment's time is scaled by REFERENCE_PROBE_NS over the first probe
    taken at or after its end, and the scaled times are summed.  That is
    the time from ``cli.main`` entry to return the command would take if
    the host ran the probe in REFERENCE_PROBE_NS throughout.
    """
    import numpy as np

    times = np.asarray(segments[clock], dtype=float)
    probe_ns = np.asarray(segments["probe_ns"], dtype=float)
    # segment k ends at reading k + 1
    after = np.searchsorted(segments["probe_at"], np.arange(times.size) + 1)
    local = probe_ns[np.minimum(after, probe_ns.size - 1)]
    return float((times * (REFERENCE_PROBE_NS / local)).sum()) * 1e-9


def count_mismatches(layers: list, workload: str, seed: int) -> int:
    """Exact counters that differ between traced children or from an earlier invocation."""
    first = {name: layers[0][name] for name in EXACT_COUNTERS}
    differ = {name for layer in layers[1:] for name in EXACT_COUNTERS if layer[name] != first[name]}
    store = WORK / "counts" / f"{workload}-{seed}.json"
    if store.is_file():
        earlier = checks.read_json(str(store))
        differ |= {name for name in EXACT_COUNTERS if earlier.get(name) != first[name]}
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(first, sort_keys=True), encoding="ascii")
    for name in sorted(differ):
        print(f"warning: exact counter {name} differs between runs", file=sys.stderr)
    return len(differ)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "maxlab" / "cli.py").is_file():
        print(f"error: no maxlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = WORK / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, args.seconds, work)
    score = bench.probe() if bench.kind != "sector" else None
    run = traced if args.trace else measure
    attempted, failed, metrics, info = run(bench, score)

    info.update(workload=args.workload, trace=args.trace, seconds=round(bench.elapsed(), 3),
                machine=machine_facts(args.seed), problems=bench.problems)
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0 and not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": u} for name, (value, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
