"""Measure the benchmark over ten seeds, twice, and record the result.

    python3 bench/baseline.py

For each workload this runs the ``BENCHMARK.json`` command once per seed
1-10 with ``--trace 0``, for its ``run_seconds``; then it does all of that
a second time, and last runs each workload once with ``--trace 1``.  For
each end-to-end metric and pass it reports the median of the per-run
values, their quartiles (``statistics.quantiles(n=4)``) and the spread
(q3 - q1) / median beside the metric's bound, flagged ``WIDE`` when the
spread reaches a third of the bound; and how far the second pass's
median lies from the first's, flagged ``DRIFT`` when that exceeds the
bound.  It also reports the traced per-layer table, each layer's share
of the traced job time, and whether the layer attribution predicted for
each workload holds.  The record, ``bench/baseline.json``, includes the
reproducibility metadata of the runs.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = tuple(range(1, 11))
PASSES = 2

# The layers expected to take most (over half) of each workload's traced time.
PREDICTED = {
    "sweep": ("uchains",),
    "matrix-sweep": ("matrixlab",),
    "large": ("greene", "matrixlab"),
    "processes": ("uprocess", "uchains"),
}


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    for line in lines:
        if line.startswith("FAIL "):
            print(f"  {line}")
    info = next(json.loads(line[5:]) for line in lines if line.startswith("info "))
    return json.loads(lines[-1]), info


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def run_pass(spec: dict, workload: str, number: int) -> list[tuple[dict, dict]]:
    results = []
    for seed in SEEDS:
        result, info = run_once(spec, workload, seed, 0)
        results.append((result, info))
        values = ", ".join(f"{m}={v['value']:.4f}" for m, v in result["metrics"].items())
        print(f"{workload} pass {number} seed {seed}: {values}  jobs {info['runs']['wall_s']}"
              f"  failed {result['failed']}/{result['attempted']}", flush=True)
    return results


def measure(spec: dict, workload: str, passes: list[list[tuple[dict, dict]]]) -> dict:
    end_to_end = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        stats = [summarize([r["metrics"][name]["value"] for r, _ in results])
                 for results in passes]
        drift = stats[1]["median"] / stats[0]["median"] - 1
        end_to_end[name] = {
            "unit": metric["unit"], "bound": bound, "runs_per_pass": len(SEEDS),
            "samples_per_run": [[i["runs"][name] for _, i in results] for results in passes],
            "passes": stats, "drift": drift,
            "steady": all(s["spread"] < bound / 3 for s in stats) and abs(drift) <= bound,
        }
        spreads = " / ".join(f"{s['spread']:.3f}" + ("" if s["spread"] < bound / 3 else " WIDE")
                             for s in stats)
        print(f"  {workload} {name}: medians " + " / ".join(f"{s['median']:.4f}" for s in stats)
              + f" {metric['unit']}, spreads {spreads}, drift {drift:+.3f}"
              + ("" if abs(drift) <= bound else " DRIFT") + f" (bound {bound})", flush=True)

    traced, tinfo = run_once(spec, workload, SEEDS[0], 1)
    per_layer = {name: m["value"] for name, m in traced["metrics"].items()}
    missing = {m["name"] for m in spec["per_layer"]} ^ set(per_layer)
    if missing:
        raise SystemExit(f"per-layer metrics differ from BENCHMARK.json: {sorted(missing)}")
    traced_wall = statistics.median(sum(walls) for walls, _ in tinfo["traced_jobs"])
    shares = {layer: per_layer[f"{layer}.self_s"] / traced_wall for layer in LAYERS}
    predicted = sum(shares[layer] for layer in PREDICTED[workload])
    print(f"  traced shares: " + ", ".join(f"{k} {v:.2f}" for k, v in shares.items()), flush=True)

    results = [run for results in passes for run in results]
    attempted = sum(r["attempted"] for r, _ in results)
    failed = sum(r["failed"] for r, _ in results)
    agreement = {}
    for key in ("lambda_agree_ratio", "conjecture_agree_ratio"):
        agreed = sum(i[key]["agreed"] for _, i in results)
        base = sum(i[key]["base"] for _, i in results)
        agreement[key] = {"value": agreed / base if base else None, "agreed": agreed, "base": base}
    return {
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
        "seeds": list(SEEDS),
        "passes": len(passes),
        "correct": all(r["correct"] for r, _ in results) and traced["correct"],
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        **agreement,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "per_layer_seed": SEEDS[0],
        "traced_jobs": len(tinfo["traced_jobs"]),
        "runs": [[{k: i[k] for k in ("seed", "jobs", "setups")} for _, i in results]
                 for results in passes],
        "layer_shares": shares,
        "attribution": {"predicted": list(PREDICTED[workload]), "share": predicted,
                        "holds": predicted > 0.5},
        "metadata": {k: results[0][1][k] for k in
                     ("commit", "source_sha256", "python", "numpy", "nproc", "prime", "seconds")},
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    passes = {name: [] for name in names}
    for number in range(1, PASSES + 1):
        for name in names:
            passes[name].append(run_pass(spec, name, number))
    record = {"run_seconds": spec["run_seconds"],
              "workloads": {name: measure(spec, name, passes[name]) for name in names}}
    (BENCH / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
