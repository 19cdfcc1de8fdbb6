"""One benchmark process: set up a workload, then (unless ``--mode setup``)
run its job once, check the outputs and print the result as JSON.

The first line of output, ``ready``, marks the end of set-up: the
interpreter has started, ``nilcomm`` is imported and the workload inputs
are built.  ``run.py`` times set-up from outside, up to that line.

The second line holds the times of the calibration loops.  The job runs
as the workload's steps, and another round of the loops runs before the
first step and after each step: fixed plain-Python and numpy work that
does not touch ``nilcomm`` and whose time tracks how fast the host runs
that kind of work at that moment (see ``run.py`` for how they are used).
The garbage collector runs, untimed, before each round, so the loops
measure the host and not the job's heap.

Each process runs exactly one job, so no state of the package can carry
from one timed job to the next: a memo table at module level starts
empty in every job.
"""
import argparse
import gc
import json
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(1, str(SRC))

import nilcomm  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402


def dict_loop() -> None:
    """Tuple, small-dict and integer work on a working set of a few KB."""
    table: dict = {}
    total = 0
    for i in range(100_000):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + 1
        total += len(key) + (i * i) % 11


def object_loop() -> None:
    """Object allocation, large-dict lookups and a sort over a few MB."""
    table: dict = {}
    items = []
    x = 1
    for _ in range(30_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 0xFFFF, (x >> 16) & 7)
        table[key] = table.get(key, 0) + 1
        items.append(key)
    items.sort()


def matrix_loop() -> None:
    """Order-100 int64 matrix products reduced mod a prime, as in matrixlab."""
    import numpy

    m = numpy.arange(100 * 100, dtype=numpy.int64).reshape(100, 100) % 1_000_003
    for _ in range(12):
        m = (m @ m) % 1_000_003


LOOPS = (dict_loop, object_loop, matrix_loop)


def calibrate() -> list[float]:
    """Seconds each calibration loop takes now."""
    gc.collect()
    times = []
    for loop in LOOPS:
        t0 = perf_counter()
        loop()
        times.append(perf_counter() - t0)
    return times


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "job", "traced-job"), required=True)
    args = parser.parse_args(argv)
    if Path(nilcomm.__file__).resolve().parent != SRC / "nilcomm":
        raise SystemExit(f"imported nilcomm from {nilcomm.__file__}, not from {SRC}")
    workload = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    print(json.dumps(calibrate()), flush=True)
    if args.mode == "setup":
        return 0
    return measure(workload, traced=args.mode == "traced-job")


def measure(workload, traced: bool) -> int:
    # Imported after set-up, which counts only nilcomm and the inputs.
    import platform
    import resource

    import numpy

    ref = json.loads((BENCH / "reference.json").read_text())
    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()

    # Calibration rounds between the steps sample the host's speed every
    # second or so.
    out: dict = {}
    walls: list[float] = []
    calibrations = [calibrate()]
    if tracer is not None:
        tracer.install()
    for name, step in workload.steps().items():
        t0 = perf_counter()
        try:
            out[name] = step()
        except Exception as exc:
            out[name] = exc
        walls.append(perf_counter() - t0)
        calibrations.append(calibrate())
    if tracer is not None:
        tracer.uninstall()

    tally = Tally(workload.name)
    workload.check(out, ref, tally)
    result = {
        # Each step's wall time, and the calibration rounds around the steps.
        "job": (walls, calibrations),
        "attempted": tally.attempted,
        "failed": len(tally.failed_items),
        "failures": tally.failures,
        "lambda": [tally.lambda_agreed, tally.lambda_checked],
        "conjecture": [tally.conjecture_agreed, tally.conjecture_checked],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "prime": getattr(workload, "prime", None),
    }
    if tracer is not None:
        result["summary"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
