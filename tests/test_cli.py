import json
import os
import stat
from fractions import Fraction as F

import pytest

from mhscalc import cli, nestedsums
from mhscalc.cli import build_parser, main
from mhscalc.report import Comparison, VerificationReport


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


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_egf_degree_below_one_exit_code(capsys, degree):
    code, out, err = run(capsys, "verify", "--identity", "egf-suite", f"--degree={degree}")
    assert code == 2 and out == ""
    assert "--degree must be at least 1" in err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_identity_failure_exit_code(capsys, monkeypatch):
    broken = VerificationReport(
        "c-duality",
        "statement",
        [Comparison("c-duality", "spec", (0,), F(1), F(2))],
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
        capsys, "bench", "--r", "1", "--p", "2", "--n", "8",
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
