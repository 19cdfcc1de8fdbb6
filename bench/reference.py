"""Record the reference outputs the benchmark checks every job against.

    python3 bench/reference.py

Writes ``bench/reference.json`` from the code in ``src/``.  Run it only
at a commit whose outputs are trusted; the file then pins them, so a
later change that alters any output shows as failed items.

Q estimates are sampled for every seed in ``Q_SEEDS`` and must agree:
the generic Jordan type does not depend on the seed, and over the default
prime a disagreement is far less likely than a defect.  The trace counts
945 and 3,840 are the documented full-process counts of the staircases
k=10 and k=11.
"""
import hashlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(1, str(BENCH.parent / "src"))

from nilcomm import uchains  # noqa: E402
from workloads import Large, MatrixSweep, Processes, Sweep  # noqa: E402

Q_SEEDS = tuple(range(1, 11))
TRACE_COUNTS = {"staircase-10": 945, "staircase-11": 3840}


def job(workload) -> dict:
    return {name: step() for name, step in workload.steps().items()}


def sweep_records(report, with_q: bool) -> dict:
    if not report.ok:
        raise SystemExit(f"sweep n={report.n_min} failed: {report.failures[:3]}")
    keys = ("lambda", "lambda_U", "processes") + (("Q_est",) if with_q else ())
    return {",".join(map(str, rec["P"])): {k: rec[k] for k in keys} for rec in report.records}


def agreed(label: str, per_seed: list) -> object:
    if any(value != per_seed[0] for value in per_seed):
        raise SystemExit(f"{label}: outputs differ between seeds {Q_SEEDS}")
    return per_seed[0]


def main() -> None:
    sweeps = {
        str(Sweep.n): sweep_records(job(Sweep(0))[f"n={Sweep.n}"], with_q=False),
        str(MatrixSweep.n): agreed("matrix-sweep", [
            sweep_records(job(MatrixSweep(s))[f"n={MatrixSweep.n}"], with_q=True)
            for s in Q_SEEDS]),
    }

    large: dict = {}
    outs = [job(Large(s)) for s in Q_SEEDS]
    for item, _ in Large(0).exports:
        code, text = agreed(item, [out[item] for out in outs])
        if code != 0:
            raise SystemExit(f"{item}: export exited with {code}")
        record = json.loads(text)
        large[item] = {"sha256": hashlib.sha256(text.encode()).hexdigest(),
                       **{k: record[k] for k in ("n", "lambda", "lambda_U", "r_P")}}
    for item, P in Large(0).generic:
        q = agreed(item, [list(out[item].q.parts) for out in outs])
        large[item] = {"n": P.n, "lambda_U": list(uchains.lambda_u(P).parts), "Q_est": q}

    processes = {}
    out = job(Processes(0))
    for label, P in Processes(0).starts:
        if len(out[label]) != TRACE_COUNTS[label]:
            raise SystemExit(f"{label}: {len(out[label])} traces, documented {TRACE_COUNTS[label]}")
        processes[label] = {"traces": len(out[label]), "lambda_U": list(uchains.lambda_u(P).parts)}

    ref = {"q_seeds": list(Q_SEEDS), "sweeps": sweeps, "large": large, "processes": processes}
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
