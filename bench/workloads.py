"""Benchmark workloads: inputs, the timed job, and the untimed output checks.

Each workload runs as one closed-loop caller: the next job starts as
soon as the previous one returned and its outputs were checked.  Every
job runs in a fresh process of its own, so state that a job leaves in
the package's module globals (a memo table, say) never serves a later
timed job: each job pays for its own cache misses.  A job is the
workload's ``steps()``, run in order: its natural units (the sweep, each
export or estimate, each staircase), between which the benchmark samples
the host's speed.  ``S`` is the ``--seed`` argument; it seeds the
finite-field samples, the only random input.  The sweep and process
workloads have fixed inputs, so their seed changes nothing.

* ``sweep`` -- ``cli.run_sweep(18, 18)``, 385 partitions, no matrix checks.
  The engine's main job; the spec closed-form check in ``uchains``
  dominates it and ``matrixlab`` is idle, which makes it the no-change
  control for matrix work.  It calls the library because the CLI caps
  ``verify`` at n <= 16.
* ``matrix-sweep`` -- ``cli.run_sweep(14, 14, with_matrix=True, samples=5,
  seed=S)``: 675 commutant samples of order 14.  The cross-validation
  path; ``matrixlab`` dominates through per-call overhead on tiny
  matrices, so a rank kernel tuned for large matrices must not slow it.
* ``large`` -- the ``export --format json`` record through ``cli.main`` for
  the staircase k=22 (n=253) and for ``[24]*10``, then
  ``generic_jordan_type(P, PrimeField(), 2, S)`` for the staircase k=16
  and for ``[12]*8``.  Single-partition scale: the Greene flow and the
  O(n^3) rank profile.
* ``processes`` -- full U-process enumeration on the staircases k=10 and
  k=11 (945 + 3,840 traces), with ``q_of_trace`` and
  ``union_as_uchain(t, r)`` for every prefix.  The only workload where
  ``uprocess`` branching dominates.

Exact arithmetic: ``matrixlab`` accumulates in int64, exact only while
n*(p-1)^2 < 2^63.  Every matrix input here uses the default prime
1,000,003 and n <= 136, far inside that bound, and the checks count any
input outside it as failed.  The known overflow near p = 2^28 at n = 800
lies outside this regime; this benchmark does not cover it.

An item is a partition in the two sweeps, an export record or a Q
estimate in ``large``, and a full trace in ``processes``; the coverage of
each sweep (its record count) and of each trace enumeration (its trace
count) is one more item.  An item fails if it raised or if its output
differs from ``reference.json``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from functools import partial

from nilcomm import cli, matrixlab, uprocess
from nilcomm.partitions import Partition, format_partition, partition_count

INT64_LIMIT = 1 << 63


def staircase(k: int) -> Partition:
    return Partition(range(k, 0, -1))


def int64_exact(n: int, prime: int) -> bool:
    """Whether int64 accumulation of an order-n product mod prime is exact."""
    return n * (prime - 1) ** 2 < INT64_LIMIT


@dataclass
class Tally:
    """Items attempted and failed, mismatches, and the reported agreement counts."""

    workload: str
    attempted: int = 0
    failed_items: set = field(default_factory=set)
    failures: list = field(default_factory=list)
    lambda_checked: int = 0
    lambda_agreed: int = 0
    conjecture_checked: int = 0
    conjecture_agreed: int = 0

    def fail(self, item: str, check: str, detail: str) -> None:
        self.failed_items.add(item)
        self.failures.append({"workload": self.workload, "item": item,
                              "check": check, "detail": detail})

    def agree_lambda(self, lam, lam_u) -> None:
        self.lambda_checked += 1
        self.lambda_agreed += lam == lam_u

    def agree_conjecture(self, q, lam_u) -> None:
        self.conjecture_checked += 1
        self.conjecture_agreed += q == lam_u


def _raised(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Sweep:
    """``run_sweep`` over every partition of one n."""

    name = "sweep"
    n = 18

    def __init__(self, seed: int):
        self.prime = matrixlab.DEFAULT_PRIME
        self.kwargs: dict = {}

    def steps(self) -> dict:
        return {f"n={self.n}": partial(cli.run_sweep, self.n, self.n, **self.kwargs)}

    def check(self, out: dict, ref: dict, tally: Tally) -> None:
        expected = ref["sweeps"][str(self.n)]
        whole = f"n={self.n}"
        report = out[whole]
        tally.attempted += len(expected) + 1
        if isinstance(report, Exception):
            for item in (*expected, whole):
                tally.fail(item, "raised", _raised(report))
            return
        for failure in report.failures:
            tally.fail(failure.split(":", 1)[0], "report.ok", failure)
        if len(report.records) != partition_count(self.n):
            tally.fail(whole, "record_count",
                       f"{len(report.records)} records != partition_count {partition_count(self.n)}")
        got = {format_partition(Partition(rec["P"])): rec for rec in report.records}
        for item, want in expected.items():
            rec = got.get(item)
            if rec is None:
                tally.fail(item, "record", "missing from the report")
                continue
            for key, value in want.items():
                if rec.get(key) != value:
                    tally.fail(item, key, f"{rec.get(key)} != reference {value}")
            tally.agree_lambda(rec["lambda"], rec["lambda_U"])
            if "Q_est" in want:
                if not int64_exact(rec["n"], self.prime):
                    tally.fail(item, "int64_guard", f"n={rec['n']} with p={self.prime}")
                tally.agree_conjecture(rec.get("Q_est"), rec["lambda_U"])


class MatrixSweep(Sweep):
    name = "matrix-sweep"
    n = 14

    def __init__(self, seed: int):
        super().__init__(seed)
        self.kwargs = {"with_matrix": True, "prime": self.prime, "samples": 5, "seed": seed}


class Large:
    """Export records and generic-type estimates of single large partitions."""

    name = "large"
    SAMPLES = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.field = matrixlab.PrimeField()
        self.prime = self.field.p
        self.exports = [(f"export:{label}", ["export", "-p", format_partition(P), "--format", "json"])
                        for label, P in (("staircase-22", staircase(22)), ("24^10", Partition([24] * 10)))]
        self.generic = [(f"Q:{label}", P)
                        for label, P in (("staircase-16", staircase(16)), ("12^8", Partition([12] * 8)))]

    def steps(self) -> dict:
        return {**{item: partial(self._export, argv) for item, argv in self.exports},
                **{item: partial(matrixlab.generic_jordan_type, P, self.field, self.SAMPLES,
                                 self.seed) for item, P in self.generic}}

    @staticmethod
    def _export(argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(self, out: dict, ref: dict, tally: Tally) -> None:
        expected = ref["large"]
        tally.attempted += len(expected)
        for item, want in expected.items():
            got = out[item]
            if isinstance(got, Exception):
                tally.fail(item, "raised", _raised(got))
            elif item.startswith("export:"):
                self._check_export(item, got, want, tally)
            else:
                self._check_q(item, got, want, tally)

    def _check_export(self, item: str, got, want: dict, tally: Tally) -> None:
        code, text = got
        if code != 0:
            tally.fail(item, "exit_code", str(code))
            return
        if hashlib.sha256(text.encode()).hexdigest() != want["sha256"]:
            tally.fail(item, "sha256", "export record differs from the reference")
        record = json.loads(text)
        for key in ("n", "lambda", "lambda_U", "r_P"):
            if record.get(key) != want[key]:
                tally.fail(item, key, f"{record.get(key)} != reference {want[key]}")
        tally.agree_lambda(record["lambda"], record["lambda_U"])

    def _check_q(self, item: str, est, want: dict, tally: Tally) -> None:
        if not int64_exact(want["n"], self.prime):
            tally.fail(item, "int64_guard", f"n={want['n']} with p={self.prime}")
        q = list(est.q.parts)
        if q != want["Q_est"]:
            tally.fail(item, "Q_est", f"{q} != reference {want['Q_est']}")
        tally.agree_conjecture(q, want["lambda_U"])


class Processes:
    """Every full U-process of two staircases, with the prefix-union checks."""

    name = "processes"
    KS = (10, 11)

    def __init__(self, seed: int):
        self.starts = [(f"staircase-{k}", staircase(k)) for k in self.KS]

    def steps(self) -> dict:
        return {label: partial(self._traces, P) for label, P in self.starts}

    @staticmethod
    def _traces(P: Partition) -> list:
        results = []
        for t in uprocess.enumerate_full_processes(P):
            try:
                q = uprocess.q_of_trace(t)
                ranks = [uprocess.union_as_uchain(t, r).r for r in range(1, t.steps + 1)]
                results.append((t.anchors, q.parts, ranks))
            except Exception as exc:
                results.append((t.anchors, exc, None))
        return results

    def check(self, out: dict, ref: dict, tally: Tally) -> None:
        for label, want in ref["processes"].items():
            got = out[label]
            # The trace set as a whole is one more item: its count.
            if isinstance(got, Exception):
                tally.attempted += want["traces"] + 1
                for item in (label, *(f"{label} trace {i}" for i in range(want["traces"]))):
                    tally.fail(item, "raised", _raised(got))
                continue
            tally.attempted += max(len(got), want["traces"]) + 1
            if len(got) != want["traces"]:
                tally.fail(label, "trace_count", f"{len(got)} != reference {want['traces']}")
            lam_u = tuple(want["lambda_U"])
            for anchors, q, ranks in got:
                item = f"{label} trace {list(anchors)}"
                if isinstance(q, Exception):
                    tally.fail(item, "raised", _raised(q))
                    continue
                if q != lam_u:
                    tally.fail(item, "Q", f"{list(q)} != lambda_U {list(lam_u)}")
                if ranks != list(range(1, len(anchors) + 1)):
                    tally.fail(item, "union_as_uchain", f"prefix unions have {ranks} anchors")


WORKLOADS = {w.name: w for w in (Sweep, MatrixSweep, Large, Processes)}
