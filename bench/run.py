"""nilcomm benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
workloads are defined in ``workloads.py``.  Each run uses fresh Python
processes (``worker.py``) and no threads; this process only starts them
and times them.

Every job runs in a fresh process of its own, one after the other, as
long as the next one is expected to end within ``--seconds``, so nothing
a job leaves in the package's module state (a memo table, say) can speed
up the next timed job.

``--trace 0`` (end-to-end metrics):

* ``wall_s`` -- seconds per job, i.e. to one verified answer, at the
  reference speed: the median over the job processes of the sum over the
  job's steps of ``step wall * speed``.  ``speed`` is the geometric mean,
  over the three calibration loops of ``worker.py`` (small-dict Python,
  object-heavy Python and numpy int64 products), of ``CAL_REF_S`` over
  the mean of the loop's times just before and after the step.  On a
  shared host the machine's speed swings by tens of percent within
  seconds and drifts over minutes, and each kind of work slows by its
  own amount.  Over five runs of a workload, the median raw job time
  spread by up to 43 %; calibrated once per job by one loop, by 10-17 %;
  by all three loops around each step, by 4-7 %.  The raw quartiles are
  printed beside it;
* ``setup_s`` -- seconds from starting a fresh interpreter until
  ``nilcomm`` is imported and the workload inputs are built, at the
  reference speed: the median over ``SETUP_SAMPLES`` set-up-only
  processes and every job process of ``set-up time * CAL_REF_S /
  loop time`` for the object-heavy loop, which each process times right
  after set-up and which tracks import work best;
* ``peak_rss_mb`` -- peak resident memory of a job process, the median
  over the job processes.

``--trace 1`` (per-layer metrics): the job processes alternate between
untraced and traced jobs (see ``tracing.py``).  Times are medians over
the traced jobs, counts are those of one traced job (they repeat
exactly), and ``trace.overhead_ratio`` is the median calibrated traced
job over the median calibrated untraced one, minus 1.  The span
summaries go to ``bench/out/``.

Every job's outputs are checked, untimed, against ``reference.json``.
Each mismatch is printed as a ``FAIL`` line holding
``{workload, item, check, detail}`` and counted in ``failed``.  A line
``info`` holds the reproducibility metadata and the agreement ratios with
their bases.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep", "matrix-sweep", "large", "processes")
SETUP_SAMPLES = 8
# Seconds each calibration loop of worker.py (dict, object, matrix) takes
# at the reference speed, which sets the scale of wall_s and setup_s:
# about its fastest time on a 2-core x86-64 cloud VM.
CAL_REF_S = (0.03, 0.027, 0.009)
# The loop that set-up (imports, unmarshalling, object creation) tracks.
SETUP_LOOP = 1
TIMEOUT_S = 170.0
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# No thread pools in the workers: numpy's BLAS would otherwise start one per core.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Worker:
    """A fresh worker process, started and timed up to its ``ready`` line."""

    def __init__(self, args: argparse.Namespace, mode: str, deadline: float):
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--mode", mode]
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                     env={**os.environ, **WORKER_ENV})
        ready, _, _ = select.select([self.proc.stdout], [], [], self._left())
        line = self.proc.stdout.readline() if ready else ""
        self.setup_s = time.perf_counter() - t0
        try:
            if line != "ready\n":
                raise ValueError(line)
            self.calibration = json.loads(self.proc.stdout.readline())
        except ValueError:
            self.stop()
            raise BenchError(f"{mode} worker did not become ready (exit {self.proc.returncode})")

    def _left(self) -> float:
        return max(0.0, self.deadline - time.monotonic())

    def finish(self) -> str:
        """Wait for the worker to exit; return the rest of its output."""
        try:
            out, _ = self.proc.communicate(timeout=self._left())
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("worker exceeded the time limit") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")
        return out

    def result(self) -> dict:
        """Wait for a job worker to exit; return its result line."""
        lines = self.finish().strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        return json.loads(lines[-1])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nilcomm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def ratio(pair: list[int]) -> dict:
    agreed, checked = pair
    return {"value": agreed / checked if checked else None, "agreed": agreed, "base": checked}


def speed(before: list[float], after: list[float]) -> float:
    """The host's speed during a job relative to the reference speed: the
    geometric mean over the loops of reference time / mean loop time."""
    ratios = [2 * ref / (b + a) for ref, b, a in zip(CAL_REF_S, before, after)]
    return math.prod(ratios) ** (1 / len(ratios))


def calibrated(jobs: list) -> float:
    """Median job time at the reference speed: each step's wall time times
    the speed measured around that step, summed over the steps."""
    return statistics.median(
        sum(wall * speed(cals[i], cals[i + 1]) for i, wall in enumerate(walls))
        for walls, cals in jobs)


def setup_time(setup_s: float, calibration: list[float]) -> float:
    """Set-up time at the reference speed."""
    return setup_s * CAL_REF_S[SETUP_LOOP] / calibration[SETUP_LOOP]


def end_to_end(setups: list[tuple[float, list]], results: list[dict]) -> tuple[dict, dict]:
    jobs = [res["job"] for res in results]
    rss = [res["peak_rss_mb"] for res in results]
    metrics = {"wall_s": calibrated(jobs),
               "setup_s": statistics.median(setup_time(s, c) for s, c in setups),
               "peak_rss_mb": statistics.median(rss)}
    runs = {"wall_s": len(jobs), "setup_s": len(setups), "peak_rss_mb": len(rss)}
    walls = [sum(step_walls) for step_walls, _ in jobs]
    q1, median, q3 = quartiles(walls)
    notes = {"wall_s": f"median of {len(jobs)} fresh processes; raw job wall min "
                       f"{min(walls):.4f}, q1 {q1:.4f}, median {median:.4f}, q3 {q3:.4f}",
             "setup_s": f"median of {len(setups)} fresh processes; raw median "
                        f"{statistics.median(s for s, _ in setups):.4f}",
             "peak_rss_mb": f"median of {len(rss)} fresh processes; max {max(rss):.2f}"}
    return metrics, {"runs": runs, "notes": notes, "units": dict(END_TO_END)}


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    layers = [{name: value(res["summary"]) for name, _, _, value in PER_LAYER} for res in traced]
    metrics, runs, notes = {}, {}, {}
    for name, unit, _, _ in PER_LAYER:
        values = [job[name] for job in layers]
        if unit == "s":
            metrics[name] = statistics.median(values)
            runs[name] = len(values)
            notes[name] = f"median of {len(values)} traced jobs"
        else:
            metrics[name] = values[0]
            runs[name] = 1
            notes[name] = "exact" if len(set(values)) == 1 else f"VARIED across jobs: {values}"
    plain = calibrated([res["job"] for res in untraced])
    metrics["trace.overhead_ratio"] = calibrated([res["job"] for res in traced]) / plain - 1
    runs["trace.overhead_ratio"] = len(traced) + len(untraced)
    notes["trace.overhead_ratio"] = f"{len(traced)} traced vs {len(untraced)} untraced jobs"
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    units["trace.overhead_ratio"] = "ratio"
    return metrics, {"runs": runs, "notes": notes, "units": units}


def run(args: argparse.Namespace) -> dict:
    if not (ROOT / "src" / "nilcomm" / "__init__.py").is_file():
        raise BenchError(f"no nilcomm package under {ROOT / 'src'}")
    deadline = time.monotonic() + TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            worker = Worker(args, "setup", deadline)
            worker.finish()
            setups.append((worker.setup_s, worker.calibration))
    # One job per fresh process, back to back, while the next one is
    # expected to end within --seconds; with --trace 1 the processes
    # alternate between untraced and traced jobs.
    results: dict[bool, list[dict]] = {False: [], True: []}
    start = time.monotonic()
    durations = []
    traced = False
    while True:
        t0 = time.monotonic()
        worker = Worker(args, "traced-job" if traced else "job", deadline)
        results[traced].append(worker.result())
        durations.append(time.monotonic() - t0)
        if not traced:
            setups.append((worker.setup_s, worker.calibration))
        ended = time.monotonic() - start + statistics.mean(durations) > args.seconds
        if ended and results[False] and (results[True] or not args.trace):
            break
        traced = bool(args.trace) and not traced
    everything = results[False] + results[True]
    attempted = sum(res["attempted"] for res in everything)
    failed = sum(res["failed"] for res in everything)
    failures = {}
    for res in everything:
        for failure in res["failures"]:
            failures.setdefault((failure["item"], failure["check"], failure["detail"]), failure)

    if args.trace:
        metrics, meta = per_layer(results[False], results[True])
    else:
        metrics, meta = end_to_end(setups, results[False])
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {meta['units'][name]}  ({meta['notes'][name]})")
    for failure in failures.values():
        print("FAIL " + json.dumps(failure, sort_keys=True))
    first = everything[0]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "source_sha256": source_digest(),
        "python": first["python"], "numpy": first["numpy"],
        "nproc": len(os.sched_getaffinity(0)), "prime": first["prime"], "runs": meta["runs"],
        "failed_ratio": failed / attempted if attempted else None,
        "lambda_agree_ratio": ratio([sum(res["lambda"][i] for res in everything) for i in (0, 1)]),
        "conjecture_agree_ratio": ratio([sum(res["conjecture"][i] for res in everything)
                                         for i in (0, 1)]),
        "jobs": [res["job"] for res in results[False]], "setups": setups,
    }
    if args.trace:
        info["traced_jobs"] = [res["job"] for res in results[True]]
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "jobs": info["jobs"],
            "traced_jobs": info["traced_jobs"],
            "summaries": [res["summary"] for res in results[True]]}, indent=1) + "\n")
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    print("info " + json.dumps(info, sort_keys=True))
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": meta["units"][name]}
                    for name, value in metrics.items()},
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
