import hashlib
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


def test_recurrence_fill_guard_exit_code(capsys):
    code, out, err = run(
        capsys, "verify", "--identity", "recurrence", "--x", "1/2",
        "--box", "200", "--guard", "100",
    )
    assert code == 3 and out == ""
    assert "recurrence cell count" in err and "guard 100" in err


def test_difference_formula_fill_guard_exit_code(capsys):
    # depth 1 has one summand per point, so the doubled fill's 31 * 31 cells
    # bound the box
    code, out, err = run(
        capsys, "verify", "--identity", "difference-formula", "--x", "1/2",
        "--nmax", "30", "--kmax", "30", "--guard", "100",
    )
    assert code == 3 and out == ""
    assert err == "error: recurrence cell count: 961 exceeds guard 100\n"


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


def test_mhs_duality_table_guard_exit_code(capsys):
    # mu* = (3) has one chain at the corner, so only the table of mu, with
    # 3 * 31 cells, is over the guard
    code, out, err = run(
        capsys, "verify", "--identity", "mhs-duality", "--mu", "(1,1,1)",
        "--nmax", "30", "--guard", "10",
    )
    assert code == 3 and out == ""
    assert err == "error: mhs table cell count: 93 exceeds guard 10\n"


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
     "909dca011d6a34ceba7402e3bec9b010d2624e7c1988368c561fabc6ba2c3118"),
    (("embed", "--mu=(2,1)", "--kind=1"),
     "04cf2435642a2093ae2fa183ed09a50f4d0d5fc083c48169ab27c54f1cf66e99"),
    (("embed", "--mu=(2,1)", "--kind=2", "--format=text"),
     "26455de678944bed4068c4202d421ed1795acaea53374407273799200368d4a2"),
    (("embed", "--mu=(2,1)", "--kind=2", "--format=json"),
     "5c98d69116330fe973188c3956817ab7444b3c21c3ec6804ee9c6b965534a679"),
    (("embed", "--mu=(2,1)", "--kind=2", "--format=csv"),
     "a329ee0203313927d40afc569884f922299ebd9488f77830f128650d1abe76af"),
    (("c", *C_FLAGS),
     "1e351ab612a09d88398722fc85cdfd439062dbe8306c87db030aba2ce5fcf18c"),
    (("c", *C_FLAGS, "--method=recursive", "--format=json"),
     "50a71d3bd813dadb437fcd0a1166cc9e8aa7956aadfe6c46cadc20f8739baf2a"),
    (("c", *C_FLAGS, "--method=both", "--format=text"),
     "1e351ab612a09d88398722fc85cdfd439062dbe8306c87db030aba2ce5fcf18c"),
    (("c", *C_FLAGS, "--method=both", "--format=json"),
     "d74341202e31d2894a53ee530ecf2fef91b55bb4e6a066a6b8e847d25553a0fb"),
    (("c", *C_FLAGS, "--method=both", "--format=csv"),
     "8eb65982386b4dcd2d88fb2e52bc7800e1ecc7b5750af880dcb94d64ba596141"),
]


@pytest.mark.parametrize(
    "argv, digest", PINNED_OUTPUTS, ids=[" ".join(argv) for argv, _ in PINNED_OUTPUTS]
)
def test_output_bytes_are_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest
