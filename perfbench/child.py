"""One ietmix CLI invocation as the benchmark's child process.

usage: python3 child.py SIDECAR TRACE [CLI ARGS...]

First times a fixed reference computation (see `reference`), then
records the CLOCK_MONOTONIC time at which ``ietmix.cli`` has finished
importing (the parent read the same clock just before the spawn), then
runs the CLI's ``main`` on CLI ARGS; with no CLI ARGS it only imports,
which is how set-up time is sampled on its own. With TRACE = 1 the
tracer's hooks are installed after the import and its aggregates are
written too. SIDECAR receives a JSON object with ``ref_s``,
``setup_done`` and, when traced, ``trace``.
"""

import json
import sys
import time

#: What `reference` takes on the benchmark's 2-core Xeon host when the
#: host is quiet; normalized wall times are expressed at this speed.
REFERENCE_NOMINAL_S = 0.26


def reference() -> float:
    """Time a fixed computation that does not use ietmix; return seconds.

    The benchmark's host is shared, and its speed drifts by 20-35% over
    seconds to minutes; a reference timed in another process tracked a
    command's speed poorly, one timed in the command's own process well.
    The mix follows ietmix's work: NumPy calls on rows of 6,187 sites
    (shuffle gather, stencil, run lengths), a pure-Python loop (order
    enumeration) and streaming passes over 4 MB (the full-field path).
    It runs before ietmix is imported and holds under 5 MB, far below
    any command's peak RSS, so it moves neither set-up nor peak memory.
    """
    import itertools

    import numpy as np

    start = time.perf_counter()
    sites = 6187
    rng = np.random.default_rng(12345)
    row = rng.random(sites)
    order = rng.permutation(sites)
    for _ in range(1500):
        row = row[order]
        row = row + 0.25 * ((np.roll(row, 1) - row) + (np.roll(row, -1) - row))
        np.count_nonzero(row[1:] != row[:-1])
        np.diff(np.flatnonzero(row[1:] > row[:-1])).max(initial=0)
    kept = 0
    for _ in range(3):
        for perm in itertools.permutations(range(9)):
            if perm[0] < perm[1]:
                kept += 1
    block = np.empty(1 << 19)
    for _ in range(60):
        block.fill(1.0)
        block.sum()
    return time.perf_counter() - start


def main() -> int:
    sidecar, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    ref_s = reference()
    import ietmix.cli

    record = {"ref_s": ref_s, "setup_done": time.monotonic()}
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(tracing.HOOKS)
    try:
        return ietmix.cli.main(argv) if argv else 0
    finally:
        if tracer is not None:
            record["trace"] = tracer.snapshot()
        with open(sidecar, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
