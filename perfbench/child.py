"""One benchmark child process: import maxlab, run one CLI command, report timings.

Usage (from run.py): python3 child.py MODE RUN_ID RESULT_JSON -- MAXLAB_ARGS...

MODE is ``run`` (the command, untraced but cut into segments by the clock
readings of tracing.Checkpoints), ``trace`` (the command under the span
tracer; spans go to ``RESULT_JSON`` with suffix ``.spans.npz``) or
``setup`` (import and parse the config, then return before running).  The
process exits with the CLI's own exit status.
"""

import json
import sys
import time


def main() -> int:
    mode, run_id, result_path, sep, *argv = sys.argv[1:]
    if mode not in ("run", "trace", "setup") or sep != "--":
        print("usage: child.py run|trace|setup RUN_ID RESULT_JSON -- ARGS...", file=sys.stderr)
        return 2
    from maxlab import cli

    tracer = checkpoints = None
    if mode == "run":
        from tracing import Checkpoints

        checkpoints = Checkpoints()
        checkpoints.install()
    elif mode == "trace":
        from tracing import Tracer

        tracer = Tracer(int(run_id))
        tracer.install()
    stamps = {}
    command = cli.run

    def timed_run(config):
        stamps["ready_ns"] = time.perf_counter_ns()
        return 0 if mode == "setup" else command(config)

    cli.run = timed_run
    start = time.perf_counter_ns()
    if checkpoints is not None:
        checkpoints.stamp()
    status = cli.main(argv)
    if checkpoints is not None:
        checkpoints.stamp()
    end = time.perf_counter_ns()
    sys.stdout.flush()

    record = {"status": status, "main_start_ns": start, "main_end_ns": end, **stamps}
    if checkpoints is not None:
        record["segments"] = checkpoints.segments()
    if tracer is not None:
        import numpy as np

        record["trace"] = tracer.metrics((end - start) * 1e-9)
        np.savez(result_path + ".spans.npz", **tracer.spans())
    with open(result_path, "w", encoding="ascii") as handle:
        json.dump(record, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
