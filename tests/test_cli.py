import collections
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import re
import stat
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction as F
from random import Random

import pytest

import mhscalc
from mhscalc import cli, egf, guards, mhs, nestedsums
from mhscalc.cli import build_parser, main
from mhscalc.mhs import MultiIndex
from mhscalc.report import VerificationReport, comparison_row


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_s_command(capsys):
    code, out, _ = run(capsys, "s", "--mu", "(1,1)", "--n", "1")
    assert code == 0 and out == "3/4\n"


def test_dual_command(capsys):
    code, out, _ = run(capsys, "dual", "--mu", "(1,2,3)")
    assert code == 0 and out == "(2,2,1,1)\n"


def test_embed_command(capsys):
    code, out, _ = run(capsys, "embed", "--mu", "(2)", "--kind", "1")
    assert code == 0 and out == "0,1,0\n"
    code, out, _ = run(capsys, "embed", "--mu", "(2)", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["type1"] == [0, 1, 0] and payload["type2"] == [0, 0, 1]


def test_c_command_both_methods(capsys):
    code, out, _ = run(
        capsys, "c", "--x", "1/2,1/3;0,1", "--t", "2", "--n", "2,1",
        "--method", "both", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["methods_agree"] is True
    assert F(payload["value"]) == nestedsums.c_direct(
        nestedsums.NestedSumSpec.parse("1/2,1/3;0,1", "2"), (2, 1)
    )


def test_verify_explicit_duality(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "c-duality",
        "--x", "1/2,1/3", "--t", "2", "--nmax", "4",
    )
    assert code == 0
    assert out.count("ok  ") == 5
    assert "result: PASS, 5 comparisons" in out


def test_verify_mhs_duality_single_index(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "mhs-duality", "--mu", "(2,1)",
        "--nmax", "4", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["checked"] == 5


def test_verify_random_sweeps_are_deterministic(capsys):
    argv = (
        "verify", "--identity", "recurrence", "--count", "3",
        "--rmax", "2", "--pmax", "2", "--nmax", "2",
        "--seed", "7", "--format", "json",
    )
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_shift_random(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "shift", "--count", "3",
        "--rmax", "2", "--pmax", "2", "--nmax", "2", "--seed", "1",
    )
    assert code == 0 and "result: PASS" in out


def test_verify_difference_formula_explicit(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "difference-formula",
        "--x", "0,1", "--t", "1", "--nmax", "1", "--kmax", "1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "identity,spec,index,lhs,rhs,equal"
    assert len(lines) == 5  # 2 n-values x 2 k-values


@pytest.mark.parametrize(
    "argv, csv_text, field, entries",
    [
        (("c", "--x=1/2;1/3", "--n=2,1"),
         "command,spec,n,method,value\nc,x=1/2;1/3,2 1,direct,1/12\n", "n", [2, 1]),
        (("embed", "--mu=(2,1)"),
         'command,mu,type1,type2\nembed,"(2,1)",0 1 1 0,0 1 0 1\n', "type1", [0, 1, 1, 0]),
    ],
)
def test_value_csv_writes_lists_as_report_csv_writes_an_index(
    capsys, argv, csv_text, field, entries
):
    assert run(capsys, *argv, "--format=csv") == (0, csv_text, "")
    # the JSON form keeps its lists
    code, out, _ = run(capsys, *argv, "--format=json")
    assert code == 0 and json.loads(out)[field] == entries


def test_verify_egf_suite(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "egf-suite", "--degree", "3",
        "--format", "json",
    )
    assert code == 0 and json.loads(out)["ok"] is True


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "s", "--mu", "(1,x)", "--n", "2")
    assert code == 2 and "error" in err


def test_nonpositive_shift_exit_code(capsys):
    code, _, err = run(
        capsys, "verify", "--identity", "c-duality", "--x", "1,2", "--t", "-1"
    )
    assert code == 2
    assert "nonpositive integer" in err


def test_bad_flag_exit_code(capsys):
    code, _, _ = run(capsys, "verify", "--identity", "unknown-identity")
    assert code == 2


def test_guard_exit_code(capsys):
    code, _, err = run(
        capsys, "c", "--x", "1,2,3", "--t", "1,1", "--n", "40", "--guard", "100"
    )
    assert code == 3 and "guard" in err


def test_recursive_guard_exit_code(capsys):
    code, out, err = run(
        capsys, "c", "--method", "recursive", "--x", "1/2,1/3;1/5,2;3,1", "--t", "2",
        "--n", "400,400,400", "--guard", "1000",
    )
    assert code == 3 and out == ""
    assert "recurrence cell count" in err and "guard 1000" in err


def test_duality_guard_exit_code(capsys):
    code, out, err = run(
        capsys, "verify", "--identity", "c-duality", "--x", "1/2,1/3", "--t", "2",
        "--box", "200", "--guard", "100",
    )
    assert code == 3 and out == "" and "guard" in err


def test_recurrence_fill_guard_exit_code(capsys):
    code, out, err = run(
        capsys, "verify", "--identity", "recurrence", "--x", "1/2",
        "--box", "200", "--guard", "100",
    )
    assert code == 3 and out == ""
    assert "recurrence cell count" in err and "guard 100" in err


def test_recurrence_sweep_guard_exit_code(capsys):
    # the corner's 4472 summands, the fill's 8944 cells and the 265,440,032
    # bits of its table pass the default guards; the sweep's points list
    # C(4473, 2) summands in all
    start = time.perf_counter()
    code, out, err = run(
        capsys, "verify", "--identity=recurrence", "--x=1/2,1/3", "--t=2", "--box=4472"
    )
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err.endswith("sweep summand count: 10001628 exceeds guard 10000000\n")


def test_difference_formula_fill_guard_exit_code(capsys):
    # depth 1 has one summand per point, so the doubled fill's 31 * 31 cells
    # bound the box
    code, out, err = run(
        capsys, "verify", "--identity", "difference-formula", "--x", "1/2",
        "--nmax", "30", "--kmax", "30", "--guard", "100",
    )
    assert code == 3 and out == ""
    assert err == "error: recurrence cell count: 961 exceeds guard 100\n"


def test_guard_message_prints_a_size_past_the_int_digit_limit(capsys):
    # (10^4000 + 1)^2 cells: str() of that count refuses its 8,001 digits
    n = 10**4000
    code, out, err = run(capsys, "c", "--x=1/2;1/2", f"--n={Decimal(n)},{Decimal(n)}",
                         "--method=recursive")
    assert code == 3 and out == ""
    assert err == f"error: recurrence cell count: {Decimal((n + 1) ** 2)} exceeds guard 10000000\n"


def test_shift_corner_guard_exit_code(capsys):
    code, out, err = run(
        capsys, "verify", "--identity", "shift", "--x", "1/3,1/2;2/3,1/2", "--t", "2",
        "--subset", "1,2", "--nmax", "9", "--guard", "99",
    )
    assert code == 3 and out == ""
    assert err == "error: direct summand count: 100 exceeds guard 99\n"


def test_mhs_duality_corner_guard_exit_code(capsys):
    # the corner is chain enumeration of mu* = (1,1,1): C(32, 2) = 496 chains
    code, out, err = run(
        capsys, "verify", "--identity", "mhs-duality", "--mu", "(3)",
        "--nmax", "30", "--guard", "100",
    )
    assert code == 3 and out == ""
    assert err == "error: chain count: 496 exceeds guard 100\n"


@pytest.mark.parametrize(
    "argv, chains",
    [
        (("s", "--mu", "(1,2)", "--n", "1000000"), 1_000_001),
        (("s", "--mu", "(1,1,1)", "--n", "100000"), 5_000_150_001),
        (("verify", "--identity", "mhs-duality", "--mu", "(3)", "--nmax", "100000"),
         5_000_150_001),
    ],
)
def test_mhs_chain_guard_exit_code_at_large_n(capsys, argv, chains):
    # the guard trips before anything of size n is built
    code, out, err = run(capsys, *argv, "--guard", "100")
    assert code == 3 and out == ""
    assert err == f"error: chain count: {chains} exceeds guard 100\n"


def test_every_library_work_limit_is_called_guard():
    """`--guard` reaches the library under one keyword, `guard`, in every module."""
    guarded = []
    for module_info in pkgutil.iter_modules(mhscalc.__path__):
        module = importlib.import_module(f"mhscalc.{module_info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            callables = [obj]
            if isinstance(obj, type):
                callables += [getattr(obj, attr) for attr in vars(obj) if not attr.startswith("_")]
            for fn in filter(callable, callables):
                parameters = inspect.signature(fn).parameters
                stray = [p for p in parameters if p.endswith("_guard")]
                assert not stray, f"{module.__name__}.{name}"
                if "guard" in parameters:
                    guarded.append(name)
    assert {"c_direct", "RecurrenceEvaluator", "mhs_value", "verify_operator_suite"} <= set(guarded)


def test_mhs_duality_table_guard_exit_code(capsys):
    # mu* = (3) has one chain at the corner, so only the table of mu, with
    # 3 * 31 cells, is over the guard
    code, out, err = run(
        capsys, "verify", "--identity", "mhs-duality", "--mu", "(1,1,1)",
        "--nmax", "30", "--guard", "10",
    )
    assert code == 3 and out == ""
    assert err == "error: mhs table cell count: 93 exceeds guard 10\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("--identity=c-duality", "--x=1/2", "--box=200"),
        ("--identity=difference-formula", "--x=1/2", "--box=1", "--kmax=199"),
        ("--identity=mhs-duality", "--mu=(1)", "--nmax=199"),
    ],
)
def test_difference_pass_guard_exit_code(capsys, argv):
    # every other guard passes at 200: one chain or summand at the corner,
    # fills and tables of 200 cells; the pass over a line of 200 runs
    # 200 * 199 / 2 subtractions, over 64 per unit of guard
    code, out, err = run(capsys, "verify", *argv, "--guard=200")
    assert code == 3 and out == ""
    assert err == "error: difference-pass subtraction count: 19900 exceeds guard 12800\n"
    code, _, _ = run(capsys, "verify", *argv, "--guard=311")
    assert code == 0


def test_mhs_duality_guard_trips_at_once_at_large_n(capsys):
    # mu = (1) up to 200000 passes the chain and cell guards; its table's
    # numerator bits and its transform's subtractions are over their limits
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--identity=mhs-duality", "--mu=(1)", "--nmax=200000")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err == "error: mhs table numerator bits: 60000900003 exceeds guard 268435456\n"


@pytest.mark.parametrize("argv", [
    ("s", "--mu=(1,1,100)", "--n=1340"),
    # mu* = (1,1,100) is the corner's index
    ("verify", "--identity=mhs-duality", f"--mu={mhs.dual_index(MultiIndex((1, 1, 100)))}",
     "--nmax=1340"),
])
def test_mhs_value_bits_guard_trips_at_once(capsys, argv):
    # 899,811 chains pass the chain guard, and the depth-3 rows with the
    # suffix table's copy of the last row are over their bit limit
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err == "error: mhs value numerator bits: 542181721 exceeds guard 268435456\n"


def test_mhs_value_suffix_table_guard_trips_at_once(capsys):
    # the rows and the q = 2 suffix table of (1,1,20,20) pass 2^28 bits
    # together at n = 206, so the input is refused before any table is built
    start = time.perf_counter()
    code, out, err = run(capsys, "s", "--mu=(1,1,20,20)", "--n=206")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err == "error: mhs value numerator bits: 270012973 exceeds guard 268435456\n"


def test_box_without_x_exit_code(capsys):
    code, out, err = run(
        capsys, "verify", "--identity", "c-duality", "--box", "2", "--count", "1",
        "--seed", "3",
    )
    assert code == 2 and out == ""
    assert err == (
        "error: --box needs an explicit --x; random cases take their boxes from --nmax\n"
    )


BENCH_FLOOR_CASES = [
    ("--repeats=0", "--repeats must be at least 1"),
    ("--r=0", "--r must be at least 1"),
    ("--p=0", "--p must be at least 1"),
    ("--n=-1", "--n must be at least 0"),
]


@pytest.mark.parametrize("flag, message", BENCH_FLOOR_CASES)
def test_bench_flag_below_its_floor_exit_code(capsys, flag, message):
    code, out, err = run(capsys, "bench", flag)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}, got ")


BENCH_UNREAD_CASES = [
    (("--x=1/2,1/3", "--t=2", "--r=3", "--p=5", "--seed=9", "--n=4"),
     "--r is not read by bench with --x"),
    (("--x=1/2,1/3", "--t=2", "--p=5"), "--p is not read by bench with --x"),
    (("--x=1/2,1/3", "--t=2", "--seed=9"), "--seed is not read by bench with --x"),
    (("--ladder=2,3", "--n=4"), "--n is not read by bench with --ladder"),
]


@pytest.mark.parametrize(
    "flags, message", BENCH_UNREAD_CASES, ids=[" ".join(f) for f, _ in BENCH_UNREAD_CASES]
)
def test_bench_unread_flag_exit_code(capsys, flags, message):
    code, out, err = run(capsys, "bench", *flags, "--repeats=1")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("n, rungs", [(0, [0]), (3, [1, 2, 3]), (8, [2, 4, 6, 8])])
def test_bench_default_ladder_stays_within_n(capsys, n, rungs):
    code, out, _ = run(capsys, "bench", "--p=2", f"--n={n}", "--repeats=1")
    assert code == 0
    assert [int(line.split(",")[2]) for line in out.splitlines()[1:]] == rungs


GUARD_FLOOR_ARGV = [
    ("s", "--mu=(1,2)", "--n=3"),
    ("dual", "--mu=(1,2)"),
    ("embed", "--mu=(1,2)"),
    ("c", "--x=1/2", "--n=2"),
    ("verify", "--identity=c-duality", "--x=1/2"),
    ("verify", "--identity=egf-suite", "--degree=1"),
    ("bench", "--n=1", "--repeats=1"),
]


@pytest.mark.parametrize("guard", ["-5", "0"])
@pytest.mark.parametrize("argv", GUARD_FLOOR_ARGV, ids=[" ".join(a[:2]) for a in GUARD_FLOOR_ARGV])
def test_guard_below_one_exit_code(capsys, argv, guard):
    code, out, err = run(capsys, *argv, f"--guard={guard}")
    assert code == 2 and out == ""
    assert err == f"error: --guard must be at least 1, got {guard}\n"


FLOOR_CASES = [
    (("c-duality", "--nmax=-1"), "--nmax must be at least 0"),
    (("difference-formula", "--kmax=-1"), "--kmax must be at least 0"),
    (("recurrence", "--rmax=0"), "--rmax must be at least 1"),
    (("shift", "--pmax=0"), "--pmax must be at least 1"),
    (("shift", "--rmax=1", "--count=2", "--nmax=0"),
     "--rmax must be at least 2 for --identity shift"),
    (("c-duality", "--count=0"), "--count must be at least 1"),
    (("mhs-duality", "--wmax=0"), "--wmax must be at least 1"),
    (("mhs-duality", "--nmax=-1"), "--nmax must be at least 0"),
]


@pytest.mark.parametrize(
    "flags, message", FLOOR_CASES, ids=[" ".join(flags) for flags, _ in FLOOR_CASES]
)
def test_sweep_flag_below_its_floor_exit_code(capsys, flags, message):
    identity, *rest = flags
    code, out, err = run(capsys, "verify", f"--identity={identity}", *rest)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}, got ")


def run_capped(argv, headroom):
    """Run the CLI in a child process whose address space may grow by `headroom` bytes.

    The cap is set in the child after its imports, so it binds only that
    run; returns the finished process and its wall time in seconds.
    """
    child = (
        "import resource, sys\n"
        "from mhscalc.cli import main\n"
        "with open('/proc/self/statm') as statm:\n"
        "    size = int(statm.read().split()[0]) * resource.getpagesize()\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        f"resource.setrlimit(resource.RLIMIT_AS, (size + {headroom}, hard))\n"
        f"sys.exit(main({list(argv)!r}))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=120
    )
    return done, time.perf_counter() - start


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
def test_out_of_memory_exit_code():
    # every guard passes (the table's 209,860,452 bits are under 2^28), but
    # the fill's two levels and denominators need some 35 MB, over a 16 MiB
    # headroom
    argv = ["c", "--x=1/3,1/2", "--t=1", "--n=4000", "--method=recursive"]
    done, _ = run_capped(argv, 2**24)
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr.startswith("error: out of memory") and "Traceback" not in done.stderr


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize("argv, bits", [
    # depth 1 at x = 1/3: 200,001 cells pass, but the table over 3^200000
    # would hold 6.3 * 10^10 bits; it ran out of 2 GB after 3.8 s
    (("c", "--x=1/3", "--n=200000", "--method=recursive"), 63398916993),
    # both fills of the box hold 35,000 numerators over 3^34999; the
    # transform of one ran past 40 s
    (("verify", "--identity=c-duality", "--x=1/3", "--box=35000"), 1941555000),
    # the fill's table over E_0(99999) trips before the sweep's summands
    (("verify", "--identity=recurrence", "--x=1/2,1/3", "--t=2", "--box=100000"), 177521500000),
])
def test_fill_bits_guard_exits_at_once(argv, bits):
    done, seconds = run_capped(argv, 2**31)
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == f"error: recurrence fill bits: {bits} exceeds guard {2**28}\n"
    assert seconds < 1


HUGE = 10**400


@pytest.mark.parametrize("argv", [
    ("c", "--x=1/2,1/3", "--t=2", f"--n={HUGE}", "--method=recursive"),
    ("verify", "--identity=c-duality", "--x=1/2", f"--box={HUGE}"),
])
def test_fill_bits_guard_trips_at_once_past_float_range(capsys, argv):
    # the cells pass a guard of 10^500; the bits of a fill whose corner is
    # past float range are still estimated, where a float overflow ended
    # the run with a traceback and exit 1
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, f"--guard={10**500}")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert re.fullmatch(r"error: recurrence fill bits: \d+ exceeds guard 268435456\n", err)


def test_cell_guard_trips_first_past_float_range(capsys):
    code, out, err = run(capsys, "verify", "--identity=c-duality", "--x=1/2", f"--box={HUGE}")
    assert code == 3 and out == ""
    assert err == f"error: recurrence cell count: {HUGE} exceeds guard 10000000\n"


ESTIMATORS = (
    "chain_count", "direct_summand_count", "sweep_summand_count", "recurrence_cell_count",
    "fill_bits", "difference_subtractions", "numerator_table_bits", "mhs_table_bits",
    "suite_product_pairs",
)
TWO_FILLS = {"direct_summand_count": 1, "recurrence_cell_count": 2, "fill_bits": 2,
             "difference_subtractions": 1}


# direct_summand_count reads chain_count once per slot of the corner
@pytest.mark.parametrize("argv, runs", [
    (("--identity=c-duality", "--x=1/2,1/3", "--t=2", "--box=3"), {**TWO_FILLS, "chain_count": 1}),
    (("--identity=difference-formula", "--x=1/2,1/3", "--t=2", "--box=3", "--kmax=2"),
     {**TWO_FILLS, "chain_count": 2}),
    (("--identity=shift", "--x=1/3,1/2;2/3,1/2", "--t=2", "--subset=1,2", "--box=3,2"),
     {"direct_summand_count": 1, "chain_count": 2, "recurrence_cell_count": 1, "fill_bits": 1}),
    (("--identity=recurrence", "--x=1/2,1/3", "--t=2", "--box=3"),
     {"direct_summand_count": 1, "chain_count": 1, "recurrence_cell_count": 1, "fill_bits": 1,
      "sweep_summand_count": 1}),
    (("--identity=mhs-duality", "--mu=(1,4)", "--nmax=6"),
     {"chain_count": 1, "numerator_table_bits": 1, "mhs_table_bits": 2,
      "difference_subtractions": 1}),
], ids=["c-duality", "difference-formula", "shift", "recurrence", "mhs-duality"])
def test_each_guard_estimate_runs_once_per_verify_case(capsys, monkeypatch, argv, runs):
    counts = collections.Counter()
    for name in ESTIMATORS:
        def counted(*args, name=name, estimator=getattr(guards, name)):
            counts[name] += 1
            return estimator(*args)
        monkeypatch.setattr(guards, name, counted)
    code, _, _ = run(capsys, "verify", *argv)
    assert code == 0 and counts == runs


def test_memory_error_exit_code(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(mhs, "mhs_value", exhausted)
    code, out, err = run(capsys, "s", "--mu=(1,2)", "--n=3")
    assert code == 3 and out == ""
    assert err == "error: out of memory; lower the index, box or degree\n"


@pytest.mark.parametrize("argv, message", [
    (("--identity=c-duality", "--x=1/2", "--box=2,2"), "--box '2,2' must list 1 extents"),
    (("--identity=shift", "--x=1/2;1/2"), "--subset is required with an explicit --x"),
])
def test_explicit_case_error_exit_code(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_unwritable_out_exit_code(tmp_path, capsys):
    target = tmp_path / "missing" / "r.txt"
    code, out, err = run(
        capsys, "verify", "--identity", "c-duality", "--x", "1/2", "--nmax", "1",
        "--out", str(target),
    )
    assert code == 2 and out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_egf_degree_below_one_exit_code(capsys, degree):
    code, out, err = run(capsys, "verify", "--identity", "egf-suite", f"--degree={degree}")
    assert code == 2 and out == ""
    assert "--degree must be at least 1" in err


def test_egf_degree_guard_exit_code(capsys):
    code, out, err = run(capsys, "verify", "--identity", "egf-suite", "--degree=200")
    assert code == 3 and out == ""
    assert err.startswith("error: series product term pairs: ")
    assert err.endswith(" exceeds guard 10000000\n")


UNREAD_FLAG_CASES = [
    (("shift", "--subset=1,2", "--c=5", "--count=1"),
     "--subset needs an explicit --x; random cases draw their own subset"),
    (("shift", "--c=5"), "--c needs an explicit --x; random cases draw their own constant"),
    (("c-duality", "--t=2"), "--t needs an explicit --x; random cases draw their own shifts"),
    (("mhs-duality", "--x=1/2"), "--x is not read by --identity mhs-duality"),
    (("c-duality", "--mu=(1,2)"), "--mu is not read by --identity c-duality"),
    (("egf-suite", "--nmax=2"), "--nmax is not read by --identity egf-suite"),
    (("mhs-duality", "--seed=1"), "--seed is not read by --identity mhs-duality"),
    (("recurrence", "--kmax=1"), "--kmax is not read by --identity recurrence"),
    (("c-duality", "--subset=1"), "--subset is not read by --identity c-duality"),
    (("c-duality", "--x=1/2", "--count=3"),
     "--count is not read by --identity c-duality with --x"),
    (("difference-formula", "--x=1/2", "--box=2", "--nmax=1"),
     "--nmax is not read by --identity difference-formula with --box"),
    (("mhs-duality", "--mu=(1,2)", "--wmax=3"),
     "--wmax is not read by --identity mhs-duality with --mu"),
]


@pytest.mark.parametrize(
    "flags, message", UNREAD_FLAG_CASES, ids=[" ".join(flags) for flags, _ in UNREAD_FLAG_CASES]
)
def test_unread_flag_exit_code(capsys, flags, message):
    identity, *rest = flags
    code, out, err = run(capsys, "verify", f"--identity={identity}", *rest)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_defaults_given_explicitly_are_read(capsys):
    _, expected, _ = run(capsys, "verify", "--identity=egf-suite", "--degree=2")
    code, out, _ = run(capsys, "verify", "--identity=egf-suite", "--degree=2", "--seed=0")
    assert code == 0 and out == expected


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_identity_failure_exit_code(capsys, monkeypatch):
    broken = VerificationReport(
        "c-duality", "statement", [comparison_row("c-duality", "spec", (0,), 1, 1, 2, 1)]
    )
    monkeypatch.setattr(nestedsums, "verify_duality", lambda *a, **k: broken)
    code, out, _ = run(
        capsys, "verify", "--identity", "c-duality", "--x", "1/2", "--nmax", "1"
    )
    assert code == 1 and "FAIL" in out


def test_report_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--identity", "c-duality", "--x", "1/2,1/3", "--t", "2",
        "--nmax", "2", "--format", "json", "--out", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["ok"] is True


REPORT_ARGV = ("verify", "--identity", "c-duality", "--x", "1/2,1/3", "--t", "2", "--nmax", "3")


@pytest.mark.parametrize("argv", [("c", "--x=1/2", "--n=1"), REPORT_ARGV], ids=["c", "verify"])
def test_empty_out_is_refused(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--out=")
    assert (code, out, err) == (2, "", "error: --out must name a file\n")
    assert list(tmp_path.iterdir()) == []


def test_report_out_file_is_replaced_whole(tmp_path, capsys):
    _, expected, _ = run(capsys, *REPORT_ARGV)
    fresh, stale = tmp_path / "fresh.txt", tmp_path / "stale.txt"
    stale.write_text("an older, longer report\n" * 100)
    for target in (fresh, stale):
        code, out, _ = run(capsys, *REPORT_ARGV, "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_bytes() == expected.encode()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["fresh.txt", "stale.txt"]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask


def test_interrupted_out_write_keeps_the_old_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "report.txt"
    target.write_text("previous report\n")

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main([*REPORT_ARGV, "--out", str(target)])
    assert target.read_text() == "previous report\n"
    assert [path.name for path in tmp_path.iterdir()] == ["report.txt"]


def test_bench_csv_output(capsys):
    code, out, _ = run(
        capsys, "bench", "--r", "1", "--p", "2",
        "--ladder", "4,8", "--repeats", "1", "--seed", "3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split(",") == [
        "r", "p", "n", "direct_seconds", "recursive_seconds", "speedup",
        "direct_summands", "recursive_memo_entries", "equal",
    ]
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.endswith("True")


# `c`, and `bench` with and without --x, read --t through one grammar, in
# which blank text is no shifts.
BLANK_SHIFT_ARGV = [
    ("c", "--x=1/2", "--n=2"),
    ("bench", "--x=1/2", "--ladder=2", "--repeats=1"),
    ("bench", "--p=1", "--ladder=2", "--repeats=1"),
]


@pytest.mark.parametrize("argv", BLANK_SHIFT_ARGV, ids=[" ".join(a) for a in BLANK_SHIFT_ARGV])
def test_blank_shifts_are_no_shifts(capsys, argv):
    code, out, err = run(capsys, *argv, "--t", " ")
    assert code == 0 and err == ""
    if argv[0] == "c":
        assert out == run(capsys, *argv)[1]
    else:
        assert out.splitlines()[1].startswith("1,1,2,")


# Characterization: sha256 of the stdout of a fixed command set.  Reports are
# part of the interface, so a refactor of the CLI or the verifiers must keep
# these bytes; only a deliberate format change may update a digest.
RANDOM_FLAGS = ("--count=3", "--seed=7")
C_DUALITY_FLAGS = ("--x=1/2,1/3;2,-1", "--t=3/2", "--nmax=2")
SHIFT_FLAGS = ("--x=1/2,1/3;1,7/6", "--t=2", "--subset=1,2", "--c=3/2", "--nmax=2")
C_FLAGS = ("--x=1/2,1/3;0,1", "--t=2", "--n=2,1")
PINNED_OUTPUTS = [
    (("verify", "--identity=mhs-duality", "--wmax=4", "--nmax=4"),
     "fe024c152586b449e86656885058011d89c1b429d27234bd6fae28af062f0bad"),
    (("verify", "--identity=mhs-duality", "--mu=(1,2,3)", "--nmax=3"),
     "789b13839d5301713a457ba9210895199e7b43fff8c097a59e5de9209a01b273"),
    (("verify", "--identity=egf-suite", "--degree=3", "--seed=7"),
     "70ac2c0de6b17acea6e8791764a02504395e3c2cd4130e5e44481ee236c49f4b"),
    (("verify", "--identity=egf-suite", "--degree=5", "--seed=3"),
     "9667300f9aa1b8386258db63f657bd09fab391d469995dd92d04d6e71357387f"),
    (("verify", "--identity=egf-suite", "--degree=5", "--seed=11"),
     "5d7bb7e4d2b001e41323f66db8a62f81643a4867775d58fa5428ce776e376c76"),
    (("verify", "--identity=egf-suite", "--degree=6", "--seed=3"),
     "fcb54770a398cc0da310b16525af9826ab9facead15b55e74f8acaf2ae49ed67"),
    (("verify", "--identity=egf-suite", "--degree=6", "--seed=11"),
     "1546098fb5806c8f185b02165c754f68ef5bf383fe7da5d2f7f0a90cd01246dd"),
    (("verify", "--identity=difference-formula", "--x=1/2,1/3", "--t=2", "--nmax=2", "--kmax=2"),
     "8f03ebea706c8181c77d4e896b7bc7d91e5f60896624bb0e0f4bcb7cf0bc56f8"),
    (("verify", "--identity=difference-formula", *RANDOM_FLAGS),
     "8707790719bde5086a5e85ee6fa8684ad2ced3ab4998690068f6fe3273d01144"),
    (("verify", "--identity=recurrence", "--x=1/2,1/3;0,1", "--t=2", "--box=4,3"),
     "8f1d8d6eece91475a5256b4a9fd2559bda7b02042caf75a44d7c47c517773905"),
    (("verify", "--identity=recurrence", *RANDOM_FLAGS),
     "fe00aee6bf171172a9136faf8744966c5f4c8ce67466094e9595ee110b60bad1"),
    (("verify", "--identity=c-duality", *C_DUALITY_FLAGS, "--format=text"),
     "175a2f430949a0ea949d3082ff89459ee5484484dcdf1bc209f124e7538d3123"),
    (("verify", "--identity=c-duality", *RANDOM_FLAGS, "--format=text"),
     "a9f6bb875f6625d166a1d55646119ac8073b04f1df97b417b90105b3838281bd"),
    (("verify", "--identity=shift", *SHIFT_FLAGS, "--format=text"),
     "ae55d40fe621cc041d6103fe9ad513407ed9365d5e40563e354e048a286ab84d"),
    (("verify", "--identity=shift", *RANDOM_FLAGS, "--format=text"),
     "acc647fed886f012e26b97a91088ec68fc03a843d04945b1309aec70d673235e"),
    (("verify", "--identity=c-duality", *C_DUALITY_FLAGS, "--format=json"),
     "fb5c8e8821c0e6c0197aee8982e1f41b8b233191af32908b21779a689133717c"),
    (("verify", "--identity=c-duality", *RANDOM_FLAGS, "--format=json"),
     "9441154904fcb58e12ce43bfd75465662f41679468aa23d06be45ebcadaa8e88"),
    (("verify", "--identity=shift", *SHIFT_FLAGS, "--format=json"),
     "033bae038ef606d2a1372c37557b51ab8f208e00beba68cb9747e94276e25a28"),
    (("verify", "--identity=shift", *RANDOM_FLAGS, "--format=json"),
     "0c5bd4b7d2d5af0580eae3ea1b521246c252883a3b78df097e194f9be2f8adee"),
    (("verify", "--identity=c-duality", *C_DUALITY_FLAGS, "--format=csv"),
     "616ace6f470cd2694df7d39afdd0ce344b3e3108b1898202425f6171f2277e99"),
    (("verify", "--identity=c-duality", *RANDOM_FLAGS, "--format=csv"),
     "0d07a9c8f141704b64aefcad7c5a867bd026ff7cde7cea1eb5833979b2e6da75"),
    (("verify", "--identity=shift", *SHIFT_FLAGS, "--format=csv"),
     "03fb051263b8ff7033061f6c7c53fdd1908fb244c7a085c91575acfbd36324ac"),
    (("verify", "--identity=shift", *RANDOM_FLAGS, "--format=csv"),
     "340ce3d9c2896d52db4f370464cf2278cb5f90b4e4b0d7986d0ddfd3a4c21c97"),
    (("s", "--mu=(1,2)", "--n=3", "--format=text"),
     "55dd9206d309087ff4bac8576a9350ae1ea65de14ae27f4dfd5db03571751818"),
    (("s", "--mu=(1,2)", "--n=3", "--format=json"),
     "a9daceb7a788cfba84bcbc0d7861076ee054262e855b3b4845fc9d8eef4504ac"),
    (("s", "--mu=(1,2)", "--n=3", "--format=csv"),
     "fa5f34646f1eab3bc5f048f4be501ef145d99c1dcbc0c3a89eead52c1031f4da"),
    (("dual", "--mu=(1,2,3)", "--format=text"),
     "d847e275d0a91ec5681ddc571b5b9d099bc6acfd4317814364083c464e62de26"),
    (("dual", "--mu=(1,2,3)", "--format=json"),
     "0b9c660e14c2069061fe403b60035e0a035c9470bd6925fbff4df160b3fca39c"),
    (("dual", "--mu=(1,2,3)", "--format=csv"),
     "8b96a46162cff71251e542f97b9fd8546a24a9439288ed34251327cc2e7e6041"),
    (("embed", "--mu=(1,2,3)", "--format=text"),
     "15eefa4fa728667b6db2abdc73f834951fedcc21e41fc03f18c3ff9701cd48f7"),
    (("embed", "--mu=(1,2,3)", "--format=json"),
     "d64a6dee857105033a63246ae938a6537347222cfc7d7dca3ed4bcf9413c3d2a"),
    (("embed", "--mu=(1,2,3)", "--format=csv"),
     "ec4f82066f73833a3308bd5508be7a45f1fdd3976f810ba13bfaaa5a0d246bc1"),
    (("embed", "--mu=(2,1)", "--kind=1"),
     "04cf2435642a2093ae2fa183ed09a50f4d0d5fc083c48169ab27c54f1cf66e99"),
    (("embed", "--mu=(2,1)", "--kind=2", "--format=text"),
     "26455de678944bed4068c4202d421ed1795acaea53374407273799200368d4a2"),
    (("embed", "--mu=(2,1)", "--kind=2", "--format=json"),
     "5c98d69116330fe973188c3956817ab7444b3c21c3ec6804ee9c6b965534a679"),
    (("embed", "--mu=(2,1)", "--kind=2", "--format=csv"),
     "c7b28b035c8d893d2c248d07f80613a178a03abec00b8d622d38f5e77d36afbb"),
    (("c", *C_FLAGS),
     "1e351ab612a09d88398722fc85cdfd439062dbe8306c87db030aba2ce5fcf18c"),
    (("c", *C_FLAGS, "--method=recursive", "--format=json"),
     "50a71d3bd813dadb437fcd0a1166cc9e8aa7956aadfe6c46cadc20f8739baf2a"),
    (("c", *C_FLAGS, "--method=both", "--format=text"),
     "1e351ab612a09d88398722fc85cdfd439062dbe8306c87db030aba2ce5fcf18c"),
    (("c", *C_FLAGS, "--method=both", "--format=json"),
     "d74341202e31d2894a53ee530ecf2fef91b55bb4e6a066a6b8e847d25553a0fb"),
    (("c", *C_FLAGS, "--method=both", "--format=csv"),
     "f7629f39da31788cb013cc4fa3508580d1a50affb1666b14df682c14e332d9dc"),
    (("verify", "--identity=difference-formula", "--x=1/2,1/3;1/5,2", "--t=-3/2", "--box=3,2",
      "--kmax=1"),
     "1058fec9ba29d248b2de7c3655087972f6ef2f59c264352ac5d40c7fbd5ac6e1"),
    (("verify", "--identity=c-duality", "--x=2/7;-1/3", "--box=4,3"),
     "09d716ef4e4606cb7bb028c61d1c3eda1c859cd1cf18312c9b03ee26ed1b2702"),
    (("verify", "--identity=shift", "--x=1/3;2/3", "--subset=1,2", "--c=1", "--box=3,3"),
     "2adc18ed56dc59e12b11c3aaf2b8825f98a2f0461ed5d8ff73dfa48f002be5a8"),
]


@pytest.mark.parametrize(
    "argv, digest", PINNED_OUTPUTS, ids=[" ".join(argv) for argv, _ in PINNED_OUTPUTS]
)
def test_output_bytes_are_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# --- the unread-flag contract, written out independently of cli.py ---

# Which `verify` flags each identity reads.
SPEC_READS = {"x", "t", "box", "nmax", "count", "rmax", "pmax", "seed"}
IDENTITY_READS = {
    "mhs-duality": {"mu", "wmax", "nmax"},
    "c-duality": SPEC_READS,
    "difference-formula": SPEC_READS | {"kmax"},
    "recurrence": SPEC_READS,
    "shift": SPEC_READS | {"subset", "c"},
    "egf-suite": {"degree", "seed"},
}
# A valid value for every `verify` flag; the explicit spec has two depth-1
# blocks summing to the shift constant 1 over the subset {1, 2}.
VERIFY_VALUES = {
    "mu": "(1,2)", "wmax": "2", "x": "1/2;1/2", "t": "", "subset": "1,2", "c": "1",
    "nmax": "1", "kmax": "1", "box": "2,2", "count": "1", "rmax": "2", "pmax": "2",
    "seed": "1", "degree": "2",
}
# Flags read only with an explicit --x, and a given flag that makes another unread.
NEEDS_X = {"t", "box", "subset", "c"}
UNREAD_WITH = {"count": "x", "rmax": "x", "pmax": "x", "seed": "x", "nmax": "box", "wmax": "mu"}
# `bench` reads all its flags, each alone.
BENCH_VALUES = {
    "r": "1", "p": "2", "n": "2", "ladder": "1,2", "x": "1/2", "t": "2,2", "seed": "1",
    "repeats": "1",
}
BENCH_UNREAD_WITH = {"r": "x", "p": "x", "seed": "x", "n": "ladder"}
VERIFIERS = [
    (nestedsums, "verify_duality"),
    (nestedsums, "verify_difference_formula"),
    (nestedsums, "verify_recurrence"),
    (nestedsums, "verify_shift_identity"),
    (mhs, "verify_mhs_duality"),
    (egf, "verify_operator_suite"),
]


@pytest.mark.parametrize("command, flags", [("verify", VERIFY_VALUES), ("bench", BENCH_VALUES)])
def test_contract_tables_cover_every_flag(capsys, command, flags):
    assert set(VERIFY_VALUES) == set().union(*IDENTITY_READS.values())
    code, out, _ = run(capsys, command, "--help")
    listed = set(re.findall(r"^  --(\w+)", out, re.M))
    assert code == 0 and listed - {"identity", "format", "out", "guard"} == set(flags)


def _flag(name, values):
    return f"--{name}={values[name]}"


UNREAD_CASES = [
    (identity, flag)
    for identity, reads in IDENTITY_READS.items()
    for flag in VERIFY_VALUES
    if flag not in reads
]


@pytest.mark.parametrize("identity, flag", UNREAD_CASES)
def test_every_unread_flag_exit_code(capsys, identity, flag):
    code, out, err = run(capsys, "verify", f"--identity={identity}", _flag(flag, VERIFY_VALUES))
    assert code == 2 and out == ""
    assert err == f"error: --{flag} is not read by --identity {identity}\n"


def _record_verifier_calls(monkeypatch):
    """Stub every verifier to record (name, args, kwargs) of each call."""
    calls = []

    def recording(name):
        def stub(*args, **kwargs):
            calls.append((name, args, kwargs))
            return VerificationReport("stub", "statement")
        return stub

    for module, name in VERIFIERS:
        monkeypatch.setattr(module, name, recording(name))
    return calls


READ_CASES = [
    (identity, flag) for identity, reads in IDENTITY_READS.items() for flag in sorted(reads)
]


@pytest.mark.parametrize("identity, flag", READ_CASES)
def test_every_read_flag_is_read(capsys, monkeypatch, identity, flag):
    calls = _record_verifier_calls(monkeypatch)
    argv = ["verify", f"--identity={identity}", _flag(flag, VERIFY_VALUES)]
    if flag in NEEDS_X:
        argv.append(_flag("x", VERIFY_VALUES))
        if identity == "shift" and flag != "subset":
            argv.append(_flag("subset", VERIFY_VALUES))
    elif flag == "x" and identity == "shift":
        argv.append(_flag("subset", VERIFY_VALUES))
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert calls


def test_mhs_duality_cases_are_the_compositions_by_weight(capsys, monkeypatch):
    calls = _record_verifier_calls(monkeypatch)
    assert run(capsys, "verify", "--identity=mhs-duality", "--wmax=4", "--nmax=2")[0] == 0
    mus = [mu for weight in range(1, 5) for mu in mhs.multi_indices_of_weight(weight)]
    assert len(mus) == 15 and [args for _, args, _ in calls] == [(mu, 2) for mu in mus]
    calls.clear()
    assert run(capsys, "verify", "--identity=mhs-duality", "--mu=(2,1)")[0] == 0
    assert [args for _, args, _ in calls] == [(MultiIndex((2, 1)), 3)]


# Each identity's verifier, and every way its flags name cases: explicit and random.
VERIFIER_OF = {
    "mhs-duality": "verify_mhs_duality",
    "c-duality": "verify_duality",
    "difference-formula": "verify_difference_formula",
    "recurrence": "verify_recurrence",
    "shift": "verify_shift_identity",
    "egf-suite": "verify_operator_suite",
}
REAL_VERIFIERS = {name: getattr(module, name) for module, name in VERIFIERS}
CASE_MODES = [
    ("mhs-duality", ("--mu=(1,2)",)),
    ("mhs-duality", ("--wmax=2",)),
    *[
        (identity, flags)
        for identity in ("c-duality", "difference-formula", "recurrence")
        for flags in (("--x=1/2;1/2",), ("--x=1/2;1/2", "--box=2,3"), ("--count=3",))
    ],
    ("shift", ("--x=1/2;1/2", "--subset=1,2")),
    ("shift", ("--count=3", "--rmax=2")),
    ("egf-suite", ("--degree=2",)),
]


@pytest.mark.parametrize(
    "identity, flags", CASE_MODES, ids=[" ".join((i, *f)) for i, f in CASE_MODES]
)
def test_every_case_reaches_its_verifier_with_the_guard(capsys, monkeypatch, identity, flags):
    assert {identity for identity, _ in CASE_MODES} == set(VERIFIER_OF) == set(IDENTITY_READS)
    calls = _record_verifier_calls(monkeypatch)
    code, _, err = run(capsys, "verify", f"--identity={identity}", *flags, "--guard=7")
    assert (code, err) == (0, "") and calls
    for name, args, kwargs in calls:
        assert name == VERIFIER_OF[identity]
        bound = inspect.signature(REAL_VERIFIERS[name]).bind(*args, **kwargs)
        assert bound.arguments["guard"] == 7


def test_random_difference_cases_take_orders_per_drawn_spec(capsys, monkeypatch):
    calls = _record_verifier_calls(monkeypatch)
    argv = ("verify", "--identity=difference-formula", "--count=8", "--rmax=3", "--kmax=1")
    assert run(capsys, *argv)[0] == 0
    rng = Random(0)
    specs = [nestedsums.random_spec(rng, 3, 3) for _ in range(8)]
    assert len({spec.r for spec in specs}) > 1
    assert [args for _, args, _ in calls] == [
        (spec, (4,) * spec.r, (2,) * spec.r) for spec in specs
    ]


@pytest.mark.parametrize("identity, flag", [
    (identity, flag) for identity, reads in IDENTITY_READS.items() for flag in sorted(reads & NEEDS_X)
])
def test_every_flag_needing_x_exit_code(capsys, identity, flag):
    code, out, err = run(capsys, "verify", f"--identity={identity}", _flag(flag, VERIFY_VALUES))
    assert code == 2 and out == ""
    assert err.startswith(f"error: --{flag} needs an explicit --x; random cases ")


OVERRIDE_CASES = [
    (identity, flag, by)
    for identity, reads in IDENTITY_READS.items()
    for flag, by in UNREAD_WITH.items()
    if flag in reads and by in reads
]


@pytest.mark.parametrize("identity, flag, by", OVERRIDE_CASES)
def test_every_overridden_flag_exit_code(capsys, identity, flag, by):
    argv = ["verify", f"--identity={identity}", _flag(by, VERIFY_VALUES), _flag(flag, VERIFY_VALUES)]
    if by in NEEDS_X:
        argv.append(_flag("x", VERIFY_VALUES))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: --{flag} is not read by --identity {identity} with --{by}\n"


def _stub_bench(monkeypatch):
    calls = []

    def stub(spec, ladder, repeats, guard):
        calls.append(ladder)
        return [{"n": n, "equal": True} for n in ladder]

    monkeypatch.setattr(cli, "run_bench", stub)
    return calls


def test_bench_draws_its_seeded_spec_block_by_block(capsys, monkeypatch):
    specs = []

    def stub(spec, ladder, repeats, guard):
        specs.append(spec)
        return [{"n": n, "equal": True} for n in ladder]

    monkeypatch.setattr(cli, "run_bench", stub)
    code, _, err = run(capsys, "bench", "--r=2", "--p=3", "--seed=5")
    assert (code, err) == (0, "")
    rng = Random(5)
    blocks = []
    for _ in range(2):
        block = []
        for _ in range(3):
            block.append(F(rng.randint(-9, 9), rng.randint(1, 9)))
        blocks.append(tuple(block))
    assert specs == [nestedsums.NestedSumSpec(tuple(blocks), (1, 1))]


@pytest.mark.parametrize("flag", BENCH_VALUES)
def test_every_bench_flag_is_read(capsys, monkeypatch, flag):
    calls = _stub_bench(monkeypatch)
    code, _, err = run(capsys, "bench", _flag(flag, BENCH_VALUES))
    assert (code, err) == (0, "") and calls


@pytest.mark.parametrize("flag, by", BENCH_UNREAD_WITH.items())
def test_every_overridden_bench_flag_exit_code(capsys, monkeypatch, flag, by):
    _stub_bench(monkeypatch)
    code, out, err = run(capsys, "bench", _flag(by, BENCH_VALUES), _flag(flag, BENCH_VALUES))
    assert code == 2 and out == ""
    assert err == f"error: --{flag} is not read by bench with --{by}\n"


# --- exact values past the int-to-str digit limit, and depth-1 guards ---


def _parse_exact(text):
    # int(str) has the same digit limit as str(int); Decimal has none
    numerator, _, denominator = text.partition("/")
    return F(int(Decimal(numerator)), int(Decimal(denominator or "1")))


def test_values_past_the_digit_limit_are_printed(capsys):
    code, out, err = run(capsys, "s", "--mu=(1,1)", "--n=10500")
    assert (code, err) == (0, "")
    assert len(out) > sys.get_int_max_str_digits()
    assert _parse_exact(out.strip()) == mhs.mhs_value(MultiIndex((1, 1)), 10500)
    # a denominator of 5,998 digits from a fill whose table holds
    # 28,482,454 bits, under the 2^28 fill guard
    code, out, err = run(
        capsys, "c", "--x=1/997,1/991", "--t=1", "--n=1000", "--method=recursive", "--format=json"
    )
    assert (code, err) == (0, "")
    text = json.loads(out)["value"]
    assert max(map(len, text.split("/"))) > sys.get_int_max_str_digits()
    spec = nestedsums.NestedSumSpec.parse("1/997,1/991", "1")
    assert _parse_exact(text) == nestedsums.c_recursive(spec, (1000,))


def test_depth_one_value_needs_one_summand(capsys):
    code, out, err = run(capsys, "c", "--x=1/2", "--n=20000", "--guard=1")
    assert (code, err) == (0, "")
    assert _parse_exact(out.strip()) == F(1, 2**20000)


def test_recurrence_fill_guard_trips_before_any_point(capsys):
    code, out, err = run(
        capsys, "verify", "--identity=recurrence", "--x=1/2", "--nmax=20000", "--guard=100"
    )
    assert code == 3 and out == ""
    assert err == "error: recurrence cell count: 20001 exceeds guard 100\n"


# --- flags by full name only, literals of any size ---


@pytest.mark.parametrize("argv", [
    ("verify", "--identity", "c-duality", "--x", "1/2", "--n", "1"),
    ("verify", "--identity", "c-duality", "--p", "1", "--r", "1", "--count", "1", "--n", "0"),
])
def test_abbreviated_flag_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


# The required flags of each subcommand, so that a refused flag is the only error.
REQUIRED = {
    "s": ("--mu=(1)", "--n=1"),
    "dual": ("--mu=(1)",),
    "embed": ("--mu=(1)",),
    "c": ("--x=1/2", "--n=1"),
    "verify": ("--identity=egf-suite",),
    "bench": (),
}


@pytest.mark.parametrize("command", REQUIRED)
def test_every_flag_prefix_exit_code(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    flags = set(re.findall(r"^  --(\w+)", out, re.M))
    assert code == 0 and flags
    prefixes = {name[:k] for name in flags for k in range(1, len(name))} - flags
    for prefix in sorted(prefixes):
        code, out, err = run(capsys, command, *REQUIRED[command], f"--{prefix}=1")
        assert (code, out) == (2, ""), prefix
        assert f"unrecognized arguments: --{prefix}=1" in err


def test_top_level_flag_prefix_exit_code(capsys):
    code, out, err = run(capsys, "--he", "dual", "--mu=(1)")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --he" in err


@pytest.mark.parametrize("argv, usage, error", [
    (("verify", "--identity", "c-duality", "--x", "1/2", "--n", "1"),
     "usage: mhscalc verify ", "mhscalc verify: error: unrecognized arguments: --n 1\n"),
    (("--he", "dual", "--mu=(1)"),
     "usage: mhscalc [-h] ", "mhscalc: error: unrecognized arguments: --he\n"),
])
def test_refused_flag_names_the_parser_that_refused_it(capsys, argv, usage, error):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(usage) and err.endswith(error)


def test_input_literal_past_the_digit_limit(capsys):
    x = "1" + "0" * 5000 + "/3"
    code, out, err = run(capsys, "c", f"--x={x}", "--n=1")
    assert (code, err) == (0, "")
    assert out == x + "\n"


@pytest.mark.parametrize("x", ["1.5", "1/0", "1/-2", "1" + "0" * 5000 + "/0", "1e5000"])
def test_malformed_literal_exit_code(capsys, x):
    code, out, err = run(capsys, "c", f"--x={x}", "--n=1")
    assert code == 2 and out == ""
    assert "not a rational literal" in err


@pytest.mark.parametrize(
    "argv,text",
    [
        (("c", "--x", "1/2", "--n", "1_0"), "1_0"),
        (("c", "--x", "1/2;1/3", "--n", "١,2"), "١,2"),
        (("c", "--x", "1/2", "--n", "１２"), "１２"),
        (("verify", "--identity", "c-duality", "--x", "1/2", "--box", "٣"), "٣"),
        (("bench", "--ladder", "1,,2"), "1,,2"),
    ],
)
def test_index_vector_takes_ascii_integers_only(capsys, argv, text):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: not an index vector: {text!r}\n"


@pytest.mark.parametrize("mu", ["(١,2)", "(1_0)", "２", "(1,,2)"])
def test_multi_index_takes_ascii_integers_only(capsys, mu):
    code, out, err = run(capsys, "s", "--mu", mu, "--n", "1")
    assert (code, out) == (2, "")
    assert err == f"error: not a multi-index: {mu!r}\n"


def test_index_entries_may_have_spaces_around_them(capsys):
    # c[1/2; 1/3](2, 1) = (1/2)^2 (1/3)
    assert run(capsys, "c", "--x", "1/2;1/3", "--n", " 2 , 1 ") == (0, "1/12\n", "")
    spaced = run(capsys, "s", "--mu", " ( 1 , 2 ) ", "--n", "1", "--format", "json")
    assert spaced == run(capsys, "s", "--mu", "(1,2)", "--n", "1", "--format", "json")


@pytest.mark.parametrize("x", ["٣/4", "１２"])
def test_non_ascii_digits_are_not_a_rational_literal(capsys, x):
    code, out, err = run(capsys, "c", f"--x={x}", "--n=1")
    assert (code, out) == (2, "")
    assert err == f"error: not a rational literal: {x!r}\n"


def _int_flags():
    """(subcommand argv, flag) for every int flag of every subcommand."""
    subcommands = [("s", "--mu", "(1,2)"), ("dual", "--mu", "(1,2)"), ("embed", "--mu", "(1,2)"),
                   ("c", "--x", "1/2", "--n", "1"), ("verify", "--identity", "c-duality"),
                   ("bench",)]
    cases = [(argv, "--guard") for argv in subcommands]
    cases.append((("s", "--mu", "(1,2)"), "--n"))
    for name, flag in cli.VERIFY_FLAGS.items():
        if flag.type is cli._parse_int:
            cases.append((("verify", "--identity", "c-duality"), f"--{name}"))
    for name, flag in cli.BENCH_FLAGS.items():
        if flag.type is cli._parse_int:
            cases.append((("bench",), f"--{name}"))
    return cases


def test_every_int_flag_is_read_as_ascii():
    """No parser action reads its value with `int`, which takes `_` and non-ASCII digits."""
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if a.choices and "verify" in a.choices]
    for name, subparser in subparsers.choices.items():
        for action in subparser._actions:
            assert action.type is not int, (name, action.dest)
    assert len(_int_flags()) == 6 + 1 + 8 + 5


@pytest.mark.parametrize("text", ["1_0", "١", "٥", "２", "1,2", "", "1.0"])
@pytest.mark.parametrize("argv,flag", _int_flags())
def test_int_flags_take_ascii_integers_only(capsys, argv, flag, text):
    code, out, err = run(capsys, *argv, f"{flag}={text}")
    assert (code, out) == (2, "")
    assert err.endswith(f": error: argument {flag}: not an integer: {text!r}\n")


def test_int_flags_take_signs_and_spaces_around(capsys):
    spaced = run(capsys, "s", "--mu", "(1,2)", "--n", " 1 ", "--guard", "+5")
    assert spaced == run(capsys, "s", "--mu", "(1,2)", "--n", "+1") == (0, "5/8\n", "")
    code, _, err = run(capsys, "s", "--mu", "(1,2)", "--n", "-1")
    assert code == 2 and "argument" not in err
