import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nilcomm import cli, greene, matrixlab, uchains, uprocess
from nilcomm.cli import main, run_sweep
from nilcomm.errors import CheckFailed, InvalidParameter, RelabelCollision, StrandsOverlap
from nilcomm.partitions import Partition, all_partitions, from_parts, partition_count
from nilcomm.poset import build_poset


def test_invariants_headline(capsys):
    assert main(["invariants", "-p", "5,4,3,3,2,1"]) == 0
    out = capsys.readouterr().out
    assert "(12,5,1)" in out
    assert "lambda_U" in out
    assert "r_P       3" in out
    assert "anchors [2, 3]" in out
    assert "full processes: 4" in out


def test_invariants_singleton(capsys):
    assert main(["invariants", "-p", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("(1)") >= 2


def test_invariants_max_simple_only(capsys):
    assert main(["invariants", "-p", "6,6,5,4,3,2,2,1,1", "--max-simple"]) == 0
    out = capsys.readouterr().out
    assert "size 17" in out and "[5]" in out
    assert "lambda" not in out


def test_invariants_rejects_bad_partition(capsys):
    assert main(["invariants", "-p", "0,2"]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_small_range(capsys):
    assert main(["verify", "1", "6"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "n=6: 11 partitions checked" in out


def module_env(**extra):
    """The environment for ``python -m nilcomm`` run from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_module_entry_point_runs_verify():
    done = subprocess.run([sys.executable, "-m", "nilcomm", "verify", "1", "3"],
                          capture_output=True, text=True, env=module_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert "PASS" in done.stdout
    assert "n=3: 3 partitions checked" in done.stdout


def test_exit_codes_through_the_module_entry_point():
    # The codes users and scripts see, argparse's own exits included: 1 is
    # kept for a failed theorem check, 2 for bad input of any kind.
    cases = [
        (["verify", "1", "3"], {}, 0),
        (["verify", "1", "3", "--with-matrix", "--seed", "-1"], {}, 2),
        (["verify", "1", "31"], {}, 2),
        (["verify", "1", "3", "--with-matrix", "--prime", "abc"], {}, 2),
        # the modulus comes from --prime alone: the environment is ignored
        (["invariants", "-p", "3,1"], {"NILCOMM_PRIME": "abc"}, 0),
        (["verify", "1", "3"], {"NILCOMM_PRIME": "abc"}, 0),
        # a part too large to index a list
        (["invariants", "-p", "99999999999999999999"], {}, 2),
        # over GF(2) the samples of (2,2,1,1) have no dominance maximum: a failed check
        (["verify", "1", "10", "--with-matrix", "--prime", "2"], {}, 1),
    ]
    runs = [subprocess.Popen([sys.executable, "-m", "nilcomm", *argv], env=module_env(**extra),
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            for argv, extra, _ in cases]
    for (argv, extra, code), run in zip(cases, runs):
        _, err = run.communicate(timeout=120)
        assert run.returncode == code, (argv, extra, err)
        assert "Traceback" not in err, (argv, extra, err)


# Run in a fresh interpreter, since the test process has numpy loaded.
NO_NUMPY_UNTIL_A_MATRIX = """
import contextlib, io, sys
from nilcomm import cli
from nilcomm.matrixlab import PrimeField
from nilcomm.partitions import Partition
from nilcomm.uprocess import enumerate_full_processes

assert cli.run_sweep(1, 10).ok
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["invariants", "-p", "5,4,3,3,2,1"]) == 0
    assert cli.main(["export", "-p", "6,4,2", "--format", "json"]) == 0
assert len(enumerate_full_processes(Partition(range(6, 0, -1)))) > 0
PrimeField(1_000_003)
assert "numpy" not in sys.modules, "numpy loaded before any matrix work"
err = io.StringIO()
with contextlib.redirect_stderr(err):
    assert cli.main(["verify", "1", "3", "--with-matrix", "--prime", "4"]) == 2
assert "4 is not prime" in err.getvalue(), err.getvalue()
assert cli.run_sweep(1, 6, with_matrix=True).ok
assert "numpy" in sys.modules
"""


def test_only_matrix_work_imports_numpy():
    done = subprocess.run([sys.executable, "-c", NO_NUMPY_UNTIL_A_MATRIX],
                          capture_output=True, text=True, env=module_env(), timeout=120)
    assert done.returncode == 0, done.stderr


def test_verify_rejects_bad_range(capsys):
    assert main(["verify", "3", "2"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["verify", "0", "2"]) == 2


@pytest.mark.parametrize("bounds", [(1, 2.5), (1.0, 3), (True, 2), (1, True)])
def test_run_sweep_refuses_bounds_that_are_not_integers(bounds):
    with pytest.raises(InvalidParameter, match="sweep bounds must be integers"):
        run_sweep(*bounds)


@pytest.mark.parametrize("with_matrix", [False, True])
def test_a_sweep_of_the_empty_partition_is_refused(with_matrix):
    with pytest.raises(InvalidParameter, match="1 <= n_min <= n_max"):
        run_sweep(0, 0, with_matrix=with_matrix)


@pytest.mark.parametrize("bounds", [(5, 3), (-3, -1)])
def test_a_sweep_of_an_empty_or_negative_range_is_refused(bounds):
    with pytest.raises(InvalidParameter, match="1 <= n_min <= n_max"):
        run_sweep(*bounds)


def test_verify_json_report(capsys):
    assert main(["verify", "1", "4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == 1
    assert data["failures"] == []
    assert len(data["records"]) == 1 + 2 + 3 + 5


def test_verify_with_matrix(capsys):
    assert main(["verify", "1", "5", "--with-matrix", "--prime", "1000003",
                 "--samples", "3", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "lambda == lambda_U: 18/18" in out
    assert "conjecture equality: 18/18" in out


def test_every_text_report_counts_lambda_against_lambda_u(capsys):
    assert main(["verify", "1", "5"]) == 0
    out = capsys.readouterr().out
    assert "lambda == lambda_U: 18/18" in out
    assert "lambda != lambda_U" not in out
    assert "conjecture" not in out


def test_verify_rejects_bad_matrix_parameters(capsys):
    assert main(["verify", "1", "3", "--with-matrix", "--samples", "0"]) == 2
    assert "error: need at least one sample" in capsys.readouterr().err
    assert main(["verify", "1", "3", "--with-matrix", "--prime", "4"]) == 2
    assert "error: 4 is not prime" in capsys.readouterr().err


def test_verify_takes_a_modulus_up_to_the_int64_bound(capsys):
    # The largest prime with (p-1)^2 < 2^63 is exact at every order: its
    # report is the default prime's, byte for byte.  A prime past it is refused.
    assert main(["verify", "1", "8", "--with-matrix", "--json"]) == 0
    blob = capsys.readouterr().out.encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "d311e990fb7eb194f50d9ee1fead397a4f32e5be01a30a4c35690333048e57bb")
    assert main(["verify", "1", "8", "--with-matrix", "--prime", "3037000493", "--json"]) == 0
    assert capsys.readouterr().out.encode() == blob
    assert main(["verify", "1", "3", "--with-matrix", "--prime", "4294967311"]) == 2
    assert "2^63" in capsys.readouterr().err


def test_a_sweep_builds_one_prime_field(monkeypatch):
    built, checked = [], []
    post_init = matrixlab.PrimeField.__post_init__

    def counted(field):
        built.append(field.p)
        post_init(field)

    monkeypatch.setattr(matrixlab.PrimeField, "__post_init__", counted)
    assert run_sweep(1, 6, with_matrix=True, samples=2).ok
    assert built == [matrixlab.DEFAULT_PRIME]
    # a refused prime is refused before any partition is checked
    monkeypatch.setattr(cli, "_check_partition", lambda P, record, **kw: checked.append(P))
    with pytest.raises(InvalidParameter):
        run_sweep(1, 6, with_matrix=True, prime=4)
    assert not checked


def test_run_sweep_records():
    report = run_sweep(1, 5, with_matrix=True, samples=3, seed=42)
    assert report.ok
    assert report.conjecture == (18, 18)
    rec = next(r for r in report.records if r["P"] == [2, 1])
    assert rec["lambda_U"] == [3]
    assert rec["Q_est"] == [3]


def test_verify_trace_cap_overflow_is_a_hard_failure(monkeypatch, capsys):
    monkeypatch.setattr(uprocess, "TRACE_CAP", 1)
    assert main(["verify", "6", "6"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "more than 1 full traces" in out


def test_a_check_that_raises_fails_its_partition_only(monkeypatch, capsys):
    # a specification that keeps only the first lifted anchor pair breaks the
    # prefix families of (3,1); the sweep reports that and checks every other
    # partition
    as_spec = uprocess._as_spec
    monkeypatch.setattr(uprocess, "_as_spec", lambda P, values, union: as_spec(P, values[:2], union))
    assert main(["verify", "1", "4", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["failures"] and all(f.startswith("3,1: ") for f in data["failures"])
    assert any(f.startswith("3,1: NoMatchingSpec: ") for f in data["failures"])
    assert [r["P"] for r in data["records"]] == [list(P.parts) for n in range(1, 5)
                                                 for P in all_partitions(n)]
    assert main(["verify", "1", "4"]) == 1
    assert "FAIL 3,1: NoMatchingSpec: " in capsys.readouterr().out


def lift_above(p, history):
    """A level lift that moves level a itself: it relabels a survivor onto the removed chain."""
    for a in reversed(history):
        if p > a:
            p += 2
    return p


def test_a_failed_assertion_inside_a_sweep_is_a_failure(monkeypatch, capsys):
    monkeypatch.setattr(uprocess, "_lift", lift_above)
    assert main(["verify", "1", "8"]) == 1
    assert "RelabelCollision: relabeled vertex" in capsys.readouterr().out
    for exc in (RelabelCollision, StrandsOverlap):
        assert issubclass(exc, CheckFailed) and issubclass(exc, AssertionError)


def test_a_failed_check_outside_a_sweep_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(uprocess, "_lift", lift_above)
    assert main(["invariants", "-p", "3,1,1,1,1,1"]) == 1
    assert "error: relabeled vertex" in capsys.readouterr().err
    assert main(["invariants", "-p", "0,2"]) == 2  # bad input still exits 2
    assert "error" in capsys.readouterr().err


def test_a_trace_that_ends_early_fails_the_sweep(monkeypatch, capsys):
    # every step jumps to the empty state: the one-step traces cover u_1 < n
    monkeypatch.setattr(uprocess, "_shrink", lambda P, a: Partition())
    assert main(["verify", "1", "6", "--json"]) == 1
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert "3,1: RemovalSizeMismatch: anchor 1 removes 3 vertices, but (3,1) -> () loses 4" in failures
    assert main(["invariants", "-p", "3,1"]) == 1


def test_the_sweep_lists_no_trace(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep listed a trace")

    monkeypatch.setattr(uprocess, "ProcessTrace", refuse)
    monkeypatch.setattr(uprocess, "_search", refuse)
    test_sweep_report_is_pinned()
    # staircase 14 is checked whole: 135,135 traces, under the cap
    P = Partition(range(14, 0, -1))
    report, record = cli.SweepReport(P.n, P.n), {}
    cli._check_partition(P, record, report=report)
    assert report.ok
    assert record["processes"] == 135_135


def test_verify_has_no_strict_conjecture_option(capsys):
    # Q_est == lambda_U is a statistic: the hard bounds force it wherever lambda == lambda_U
    with pytest.raises(SystemExit) as refused:
        main(["verify", "1", "4", "--strict-conjecture"])
    assert refused.value.code == 2
    assert "unrecognized arguments: --strict-conjecture" in capsys.readouterr().err


def test_negative_seed_exits_2_only_when_sampling(capsys):
    assert main(["verify", "1", "3", "--with-matrix", "--seed", "-1"]) == 2
    assert "error: seed -1 is negative" in capsys.readouterr().err
    assert main(["verify", "1", "3", "--seed", "-1"]) == 0  # the seed is unused
    assert "PASS" in capsys.readouterr().out


def test_export_dot(capsys):
    assert main(["export", "-p", "4,2,2,1,1", "--format", "dot"]) == 0
    first = capsys.readouterr().out
    assert first.startswith("digraph")
    assert first.count("->") == 12
    assert main(["export", "-p", "4,2,2,1,1", "--format", "dot"]) == 0
    assert capsys.readouterr().out == first


def test_export_json(capsys):
    assert main(["export", "-p", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == 1
    assert data["P"] == [1]
    assert data["lambda"] == [1] and data["lambda_U"] == [1]
    assert data["r_P"] == 1
    assert data["poset"]["vertices"] == [[1, 1, 1]]
    assert data["canonical_process"]["Q"] == [1]


def test_export_to_file(tmp_path, capsys):
    out = tmp_path / "poset.dot"
    assert main(["export", "-p", "2,1", "--format", "dot", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith("digraph")


def test_export_to_a_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["export", "-p", "3,1", "--format", "json", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_export_unknown_format_rejected():
    with pytest.raises(SystemExit):
        main(["export", "-p", "2,1", "--format", "yaml"])


def test_sweep_report_is_pinned():
    # sha256 of the n = 1..12 report as first recorded; any change to a
    # record, a count or the JSON layout shows here
    blob = run_sweep(1, 12).to_json().encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "98007eaf9be0a524f86cd709292eb511f3fcd2415937fcb0a521bf7760628b0f")


def test_matrix_sweep_report_is_pinned(capsys):
    # sha256 of `nilcomm verify 1 10 --with-matrix --json` at the default
    # prime, samples and seed; pins the Q estimates beside every record
    assert main(["verify", "1", "10", "--with-matrix", "--json"]) == 0
    blob = capsys.readouterr().out.encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "07cd501fdf4923b729ef2682bde83e39d4884948c7e3f40a23b04d3f0e0d011a")


def test_an_estimate_above_lambda_fails_its_partition(monkeypatch, capsys):
    # Every sample reads as one Jordan block: above lambda wherever lambda has two parts.
    monkeypatch.setattr(matrixlab, "_jordan_types", lambda As, p: [Partition([As.shape[1]])] * len(As))
    assert main(["verify", "1", "5", "--with-matrix", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    above = [f for f in data["failures"] if "not dominated by lambda" in f]
    assert above == ["3,1: estimate (4) not dominated by lambda (3,1)",
                     "4,1: estimate (5) not dominated by lambda (4,1)",
                     "3,1,1: estimate (5) not dominated by lambda (4,1)"]
    assert [r["P"] for r in data["records"] if len(r["lambda"]) > 1] == [[3, 1], [4, 1], [3, 1, 1]]


def test_a_sample_that_is_not_nilpotent_fails_its_partition_only(monkeypatch):
    # The seed-1 sample of (3,2,1) becomes A + I, which commutes with the
    # Jordan matrix but is invertible; no sampler certificate sees it.
    # Its complement of im A is empty, so its Krylov stack has rank 0.
    planted = Partition([3, 2, 1])
    sample_stack = matrixlab._sample_stack

    def plant(P, field, seeds, streams):
        A = sample_stack(P, field, seeds, streams)
        if P == planted:
            A[seeds.index(1)] += np.eye(P.n, dtype=np.int64)
        return A

    clean = run_sweep(6, 6, with_matrix=True)
    monkeypatch.setattr(matrixlab, "_sample_stack", plant)
    report = run_sweep(6, 6, with_matrix=True)
    assert len(clean.records) * 5 <= matrixlab.BATCH_MATRICES  # one batch holds the level
    assert report.failures == ["3,2,1: NotNilpotent: the Krylov stack of a matrix of size 6 has "
                               "rank 0, so the matrix is not nilpotent (seed 1)"]
    for got, want in zip(report.records, clean.records):
        if got["P"] == [3, 2, 1]:
            assert "Q_est" not in got and got == {k: v for k, v in want.items() if k != "Q_est"}
        else:
            assert got == want


def altered(monkeypatch, module, name, P, change):
    """Plant a fault: ``module.name`` returns ``change(result)`` when its first
    argument is P or P's poset, and its true result otherwise."""
    real, vertices = getattr(module, name), build_poset(P).vertices

    def call(first, *rest):
        found = real(first, *rest)
        mine = first == P if isinstance(first, Partition) else first.vertices == vertices
        return change(found) if mine else found

    monkeypatch.setattr(module, name, call)


def planted_estimate(monkeypatch, P, q):
    """Plant a fault: P's estimated generic type reads ``q``."""
    real = matrixlab.generic_jordan_types

    def call(*args):
        for Q, estimate in real(*args):
            yield Q, dataclasses.replace(estimate, q=q) if Q == P else estimate

    monkeypatch.setattr(matrixlab, "generic_jordan_types", call)


def drop_vertex(union):
    return union - {min(union)}


# One planted fault per check of ``_check_partition`` and ``run_sweep``: the
# planted partition, the plant, the sweep and its exact failures.  A fault
# that breaks two checks fails both.  lambda = lambda_U at every n checked
# here, so an estimate other than lambda_U breaks a bound: that is why
# Q_est == lambda_U is counted, not checked.
SWEEP_FAULTS = {
    "lambda below lambda_U": (
        [9], lambda mp: altered(mp, greene, "chain_union_profile", from_parts([9]),
                                lambda _: greene.ChainUnionProfile(from_parts([8, 1]))),
        (9, 9), {}, ["9: chain invariant does not dominate the anchored one"]),
    "lambda_U not stable": (
        [2, 1], lambda mp: altered(mp, uchains, "lambda_u", from_parts([2, 1]), lambda _: from_parts([2, 1])),
        (3, 3), {}, ["2,1: parts of (2,1) differ by less than 2", "2,1: prefix family [1] covers 3 != u_1=2"]),
    "strand size": (
        [2, 1], lambda mp: altered(mp, uchains, "strand_table", from_parts([2, 1]),
                                   lambda table: {**table, (1, 2): drop_vertex(table[1, 2])}),
        (3, 3), {}, ["2,1: strand 1 of anchor 2 has 1 vertices != slot weight 2"]),
    "flow against the oracle": (
        [3, 1], lambda mp: altered(mp, greene, "chain_union_profile", from_parts([3, 1]),
                                   lambda _: greene.ChainUnionProfile(from_parts([4]))),
        (4, 4), {}, ["3,1: flow c_1=4 != oracle 3"]),
    "prefix family size": (
        [3, 1], lambda mp: altered(mp, uprocess, "prefix_families", from_parts([3, 1]),
                                   lambda found: (found[0], {spec: drop_vertex(union) if spec.anchors == (1,)
                                                             else union for spec, union in found[1].items()})),
        (4, 4), {}, ["3,1: prefix family [1] covers 2 != u_1=3"]),
    "estimate's part count": (
        [4, 2], lambda mp: planted_estimate(mp, from_parts([4, 2]), from_parts([4, 1, 1])),
        (6, 6), {"with_matrix": True}, ["4,2: estimated type (4,1,1) has 3 parts, expected 2",
                                        "4,2: (4,2) not dominated by estimate (4,1,1)"]),
    "estimate's largest part": (
        [4, 2], lambda mp: planted_estimate(mp, from_parts([4, 2]), from_parts([3, 3])),
        (6, 6), {"with_matrix": True}, ["4,2: largest estimated part 3 != max simple size 4",
                                        "4,2: (4,2) not dominated by estimate (3,3)"]),
    "estimate below lambda_U": (
        [5, 3, 1], lambda mp: planted_estimate(mp, from_parts([5, 3, 1]), from_parts([5, 2, 2])),
        (9, 9), {"with_matrix": True}, ["5,3,1: (5,3,1) not dominated by estimate (5,2,2)"]),
    "estimate above lambda": (
        [4, 2], lambda mp: planted_estimate(mp, from_parts([4, 2]), from_parts([5, 1])),
        (6, 6), {"with_matrix": True},
        ["4,2: largest estimated part 5 != max simple size 4", "4,2: estimate (5,1) not dominated by lambda (4,2)"]),
    "partition count": (
        [1, 1, 1, 1], lambda mp: mp.setattr(cli, "all_partitions",
                                            lambda n: [P for P in all_partitions(n) if P != Partition([1] * 4)]),
        (4, 4), {}, ["n=4: enumerated 4 partitions, recurrence says 5"]),
}


@pytest.mark.parametrize("fault", SWEEP_FAULTS)
def test_each_sweep_check_fails_its_partition_only(monkeypatch, fault):
    parts, plant, bounds, options, failures = SWEEP_FAULTS[fault]
    clean = run_sweep(*bounds, **options)
    plant(monkeypatch)
    report = run_sweep(*bounds, **options)
    assert clean.ok and report.failures == failures
    assert ([record for record in report.records if record["P"] != parts]
            == [record for record in clean.records if record["P"] != parts])
    # every planted estimate differs from lambda_U, and the count reads it
    checked, agreed = clean.conjecture
    assert report.conjecture == (checked, agreed - options.get("with_matrix", False))


def test_the_text_report_counts_a_lambda_that_differs_from_lambda_u(monkeypatch, capsys):
    SWEEP_FAULTS["lambda below lambda_U"][1](monkeypatch)
    assert main(["verify", "9", "9"]) == 1
    out = capsys.readouterr().out
    assert "lambda == lambda_U: 29/30\nlambda != lambda_U: 9\n" in out


def test_a_partition_checked_alone_gets_its_sweep_record():
    sweep = run_sweep(8, 8, with_matrix=True, samples=3, seed=5)
    for P, want in zip(all_partitions(8), sweep.records):
        [(_, estimate)] = matrixlab.generic_jordan_types([P], matrixlab.PrimeField(), 3, 5)
        report, record = cli.SweepReport(8, 8), {"P": list(P.parts), "n": 8}
        cli._check_partition(P, record, report=report, estimate=estimate)
        assert record == want and report.ok, P


@pytest.mark.slow
def test_a_full_sweep_at_n_24():
    report = run_sweep(24, 24)
    assert report.failures == []
    assert len(report.records) == partition_count(24) == 1575
    assert all(record["lambda"] == record["lambda_U"] for record in report.records)


@pytest.mark.slow
def test_lambda_is_lambda_u_to_n_26():
    # With lambda = lambda_U the hard bounds lambda_U <= Q_est <= lambda
    # force Q_est = lambda_U.  The same scan to n = 30, the largest n
    # `verify` accepts, found no difference either (28,628 partitions).
    for n in range(1, 27):
        for P in all_partitions(n):
            assert greene.chain_union_profile(build_poset(P)).lam == uchains.lambda_u(P), P
