"""Command-line front end: single-partition reports, sweep verification, export.

Subcommands:

* ``invariants``  -- chain invariants, maximum simple chains and the
                     canonical process of one partition;
* ``verify``      -- run the theorem checks over every partition of every
                     n in a range, exit nonzero on any hard failure;
* ``export``      -- poset as DOT, or the full invariant record as JSON.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from itertools import repeat

from . import greene, matrixlab, uchains, uprocess
from .errors import CheckFailed, EnumerationCapExceeded, InvalidParameter, NilcommError, is_integer
from .partitions import (
    Partition,
    all_partitions,
    dominance_leq,
    format_partition,
    parse_partition,
    partition_count,
    r_of,
)
from .poset import build_poset, export_dot, export_json

SCHEMA_VERSION = 1
DEFAULT_SEED = 0
MAX_SWEEP_N = 30


@dataclass
class SweepReport:
    """Aggregated results of a verification sweep."""

    n_min: int
    n_max: int
    records: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def agreement(self, key: str) -> tuple[int, int]:
        """How many records hold ``key``, and how many of those hold their lambda_U there."""
        agreed = [record[key] == record["lambda_U"] for record in self.records if key in record]
        return len(agreed), sum(agreed)

    @property
    def conjecture(self) -> tuple[int, int]:
        """The records with an estimate ``Q_est``, and those where it is lambda_U."""
        return self.agreement("Q_est")

    def to_json(self) -> str:
        checked, agreed = self.conjecture
        payload = {
            "schema": SCHEMA_VERSION,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "records": self.records,
            "failures": self.failures,
            "conjecture": {"checked": checked, "agreed": agreed},
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _check_partition(P: Partition, record: dict, *, report: SweepReport,
                     estimate: matrixlab.GenericTypeEstimate | CheckFailed | None = None) -> None:
    """Run the checks on P, filling ``record`` and appending failures to ``report``.

    The matrix checks run exactly when ``estimate`` is given: it is P's
    entry of ``matrixlab.generic_jordan_types``, as ``run_sweep`` hands it
    over, and a ``CheckFailed`` in it is raised where the matrix checks start.
    """
    fail = report.failures.append
    name = format_partition(P)

    lam_u = uchains.lambda_u(P)
    record["lambda_U"] = list(lam_u.parts)

    D = build_poset(P)
    lam = greene.chain_union_profile(D).lam
    record["lambda"] = list(lam.parts)
    if not dominance_leq(lam_u, lam):
        fail(f"{name}: chain invariant does not dominate the anchored one")

    parts = lam_u.parts
    if any(parts[i] - parts[i + 1] < 2 for i in range(len(parts) - 1)):
        fail(f"{name}: parts of {lam_u} differ by less than 2")

    for failure in uchains.strand_failures(P):
        fail(f"{name}: {failure}")

    if P.n <= 8:
        for k in range(P.n + 1):
            got = sum(lam.parts[:k])
            want = greene.oracle_max_k_chain_union(D, k)
            if got != want:
                fail(f"{name}: flow c_{k}={got} != oracle {want}")

    try:
        count, families = uprocess.prefix_families(P)
    except EnumerationCapExceeded as exc:
        fail(f"{name}: {exc}")
        return
    record["processes"] = count
    # The r-th prefix union of every trace is one of the families.  Every
    # trace ends at the empty state, each step removes as many vertices as
    # its state loses (``uprocess.remove_simple_chain`` checks it), and the
    # removed sets are nonempty and disjoint.  So a trace's full prefix
    # covers all n vertices and its removal sizes are the differences of
    # its prefix sizes.  When those are u_1, u_2, ... (the running sums of
    # lambda_U, u_r = n for every r past its last part), every trace has
    # Q == lambda_U: a longer trace would cover more than n, and a shorter
    # one would cover n at an r where u_r < n.
    for spec, union in families.items():
        want = sum(lam_u.parts[:spec.r])
        if len(union) != want:
            fail(f"{name}: prefix family {list(spec.anchors)} covers {len(union)} != u_{spec.r}={want}")

    if estimate is not None:
        if isinstance(estimate, CheckFailed):
            raise estimate
        est = estimate
        record["Q_est"] = list(est.q.parts)
        if len(est.q) != r_of(P):
            fail(f"{name}: estimated type {est.q} has {len(est.q)} parts, expected {r_of(P)}")
        best_simple, _ = uchains.max_simple_u_chains(P)
        if est.q.max_part != best_simple:
            fail(f"{name}: largest estimated part {est.q.max_part} != max simple size {best_simple}")
        if not dominance_leq(lam_u, est.q):
            fail(f"{name}: {lam_u} not dominated by estimate {est.q}")
        # Every sample is supported on the strict order of D_P (the layout's
        # entries are its comparable pairs), so it specializes the generic
        # matrix on that order, whose Jordan type is lambda(D_P): Gansner,
        # SIAM J. Algebraic Discrete Methods 2 (1981); Saks, Discrete Math.
        # 59 (1986).  The ranks of its powers can only drop under
        # specialization, so each sampled type, and their maximum, is
        # dominated by lambda.
        if not dominance_leq(est.q, lam):
            fail(f"{name}: estimate {est.q} not dominated by lambda {lam}")


def run_sweep(n_min: int, n_max: int, *, with_matrix: bool = False,
              prime: int = matrixlab.DEFAULT_PRIME, samples: int = 5,
              seed: int = DEFAULT_SEED) -> SweepReport:
    """Verify the theorem suite for every partition of every n in range.

    The bounds are integers with ``1 <= n_min <= n_max``, else
    ``InvalidParameter``: an empty range is refused, not passed.  A check
    that raises ``CheckFailed`` is a failure of that partition: its record
    keeps what was filled in before, and the sweep goes on.  With the
    matrix, one ``PrimeField`` is built before the first level, so a
    refused prime is refused before any partition is checked; each
    level's samples are drawn over it and profiled in batches that
    span partitions (``matrixlab.generic_jordan_types``), and each
    partition's checks then read its estimate.  ``Q_est == lambda_U`` is
    counted (``SweepReport.conjecture``), not checked: the hard bounds
    ``lambda_U <= Q_est <= lambda`` force it wherever ``lambda == lambda_U``.
    """
    for bound in (n_min, n_max):
        if not is_integer(bound):
            raise InvalidParameter(f"sweep bounds must be integers, not {bound!r}")
    if not 1 <= n_min <= n_max:
        raise InvalidParameter(f"a sweep needs 1 <= n_min <= n_max, not {n_min}..{n_max}")
    prime_field = matrixlab.PrimeField(prime) if with_matrix else None
    report = SweepReport(n_min, n_max)
    for n in range(n_min, n_max + 1):
        level = zip(all_partitions(n), repeat(None))
        if with_matrix:
            level = matrixlab.generic_jordan_types(all_partitions(n), prime_field, samples, seed)
        count = 0
        for P, estimate in level:
            count += 1
            record: dict = {"P": list(P.parts), "n": P.n}
            try:
                _check_partition(P, record, report=report, estimate=estimate)
            except CheckFailed as exc:
                report.failures.append(f"{format_partition(P)}: {type(exc).__name__}: {exc}")
            report.records.append(record)
        if count != partition_count(n):
            report.failures.append(
                f"n={n}: enumerated {count} partitions, recurrence says {partition_count(n)}"
            )
    return report


def _cmd_invariants(args: argparse.Namespace) -> int:
    P = parse_partition(args.partition)
    best, anchors = uchains.max_simple_u_chains(P)
    if args.max_simple:
        print(f"max simple U-chain: size {best} at anchors {list(anchors)}")
        return 0
    D = build_poset(P)
    print(f"P         {P}  (n = {P.n})")
    print(f"lambda    {greene.greene_lambda(D)}")
    print(f"lambda_U  {uchains.lambda_u(P)}")
    print(f"r_P       {r_of(P)}")
    print(f"max simple U-chain: size {best} at anchors {list(anchors)}")
    print(f"full processes: {uprocess.count_full_processes(P)}")
    trace = uprocess.canonical_process(P)
    print(f"canonical process: anchors {list(trace.anchors)} -> Q = {uprocess.q_of_trace(trace)}")
    for i in range(trace.steps):
        nxt = trace.partitions[i + 1]
        print(f"  step {i + 1}: a={trace.anchors[i]} removes {len(trace.removed[i])} "
              f"vertices -> {nxt if nxt else '()'}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if not (1 <= args.n_min <= args.n_max <= MAX_SWEEP_N):
        print(f"error: need 1 <= n_min <= n_max <= {MAX_SWEEP_N}", file=sys.stderr)
        return 2
    report = run_sweep(
        args.n_min, args.n_max,
        with_matrix=args.with_matrix, prime=args.prime, samples=args.samples,
        seed=args.seed,
    )
    if args.json:
        print(report.to_json())
    else:
        by_n: dict[int, int] = {}
        for rec in report.records:
            by_n[rec["n"]] = by_n.get(rec["n"], 0) + 1
        for n in range(args.n_min, args.n_max + 1):
            print(f"n={n}: {by_n.get(n, 0)} partitions checked")
        checked, agreed = report.agreement("lambda")
        print(f"lambda == lambda_U: {agreed}/{checked}")
        differ = [",".join(map(str, rec["P"])) for rec in report.records
                  if "lambda" in rec and rec["lambda"] != rec["lambda_U"]]
        if differ:
            print(f"lambda != lambda_U: {'; '.join(differ)}")
        if args.with_matrix:
            checked, agreed = report.conjecture
            print(f"conjecture equality: {agreed}/{checked}")
        for f in report.failures:
            print(f"FAIL {f}")
        print("PASS" if report.ok else f"FAIL ({len(report.failures)} hard failures)")
    return 0 if report.ok else 1


def _cmd_export(args: argparse.Namespace) -> int:
    P = parse_partition(args.partition)
    if args.format == "dot":
        text = export_dot(build_poset(P))
    else:
        D = build_poset(P)
        trace = uprocess.canonical_process(P)
        best, anchors = uchains.max_simple_u_chains(P)
        record = {
            "schema": SCHEMA_VERSION,
            "P": list(P.parts),
            "n": P.n,
            "lambda": list(greene.greene_lambda(D).parts),
            "lambda_U": list(uchains.lambda_u(P).parts),
            "r_P": r_of(P),
            "max_simple": {
                "size": best,
                "anchors": list(anchors),
            },
            "poset": json.loads(export_json(D)),
            "canonical_process": json.loads(uprocess.trace_to_json(trace)),
        }
        text = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:  # bad input, like a refused partition: exit 2, not 1
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilcomm",
        description="Chain invariants and generic commutator Jordan types of integer partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invariants", help="report invariants of one partition")
    inv.add_argument("-p", "--partition", required=True, help='partition, e.g. "5,4,3,3,2,1"')
    inv.add_argument("--max-simple", action="store_true",
                     help="print only the maximum simple U-chain")
    inv.set_defaults(func=_cmd_invariants)

    ver = sub.add_parser("verify", help="verify the theorem suite over a range of n")
    ver.add_argument("n_min", type=int)
    ver.add_argument("n_max", type=int)
    ver.add_argument("--with-matrix", action="store_true",
                     help="include finite-field sampling checks")
    ver.add_argument("--prime", type=int, default=matrixlab.DEFAULT_PRIME,
                     help=f"field modulus (default {matrixlab.DEFAULT_PRIME})")
    ver.add_argument("--samples", type=int, default=5)
    ver.add_argument("--seed", type=int, default=DEFAULT_SEED, help="first sample's seed, >= 0")
    ver.add_argument("--json", action="store_true", help="emit the sweep report as JSON")
    ver.set_defaults(func=_cmd_verify)

    exp = sub.add_parser("export", help="export the poset or the invariant record")
    exp.add_argument("-p", "--partition", required=True)
    exp.add_argument("--format", choices=("dot", "json"), required=True)
    exp.add_argument("--out", help="output path (default stdout)")
    exp.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NilcommError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
