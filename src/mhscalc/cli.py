"""Command-line front end.

Subcommands:
  s       evaluate a multiple harmonic sum s_mu(n)
  dual    print the dual multi-index mu*
  embed   print the 0/1 parameter vectors that reproduce s_mu
  c       evaluate a parametric nested sum (direct, recursive, or both)
  verify  run an identity verification sweep; exit 0 only if all exact
  bench   time direct enumeration against the memoized recurrence (CSV)

Exit codes: 0 all checks exact / value computed; 1 an identity comparison
failed; 2 malformed input (a sweep or bench flag below its floor, or a
`verify` flag the chosen identity does not read, included) or an unwritable
--out; 3 a work guard tripped.

Reports are deterministic: a fixed command line (seed included) yields
byte-identical text/JSON/CSV output.  `bench` is the exception, since its
whole point is wall-clock measurement.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import tempfile
import time
from fractions import Fraction
from random import Random
from typing import Callable, NamedTuple

from . import egf, mhs, nestedsums
from .errors import GuardExceeded
from .kernel import format_rational, parse_rational
from .mhs import MultiIndex
from .nestedsums import (
    DEFAULT_SUMMAND_GUARD,
    NestedSumSpec,
    RecurrenceEvaluator,
    c_direct,
    direct_summand_count,
    random_spec,
    random_shift_configuration,
)
from .report import VerificationReport


def _parse_index(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(item) for item in text.split(","))
    except ValueError:
        raise ValueError(f"not an index vector: {text!r}") from None


def _spec_from_args(args) -> NestedSumSpec:
    return NestedSumSpec.parse(args.x, args.t)


def _write_atomic(path: str, text: str) -> None:
    """Write a temporary file next to `path`, then rename it over `path`.

    An interrupted run leaves the old file (or none), never a truncated one.
    """
    directory, name = os.path.split(os.path.abspath(path))
    fd, temporary = tempfile.mkstemp(dir=directory, prefix=f".{name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        # mkstemp creates the file 0600; give it the mode open() would have.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(temporary, 0o666 & ~umask)
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _emit_report(args, report: VerificationReport) -> int:
    if args.format == "json":
        _emit(args, report.to_json() + "\n")
    elif args.format == "csv":
        _emit(args, report.to_csv())
    else:
        _emit(args, report.to_text())
    return 0 if report.ok else 1


def _emit_value(args, payload: dict, text_value: str) -> int:
    if args.format == "json":
        _emit(args, json.dumps(payload) + "\n")
    elif args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(payload.keys())
        writer.writerow(payload.values())
        _emit(args, buffer.getvalue())
    else:
        _emit(args, text_value + "\n")
    return 0


# --- subcommand handlers ---


def _cmd_s(args) -> int:
    mu = MultiIndex.parse(args.mu)
    value = mhs.mhs_value(mu, args.n, args.guard)
    return _emit_value(
        args,
        {"command": "s", "mu": str(mu), "n": args.n, "value": format_rational(value)},
        format_rational(value),
    )


def _cmd_dual(args) -> int:
    mu = MultiIndex.parse(args.mu)
    dual = mhs.dual_index(mu)
    return _emit_value(
        args, {"command": "dual", "mu": str(mu), "dual": str(dual)}, str(dual)
    )


def _cmd_embed(args) -> int:
    mu = MultiIndex.parse(args.mu)
    vectors = {"type1": mhs.embed_type1(mu), "type2": mhs.embed_type2(mu)}
    if args.kind != "both":
        vectors = {f"type{args.kind}": vectors[f"type{args.kind}"]}
    lines = {name: ",".join(str(v) for v in vector) for name, vector in vectors.items()}
    # one vector prints bare, both print one labelled line each
    text = "\n".join(
        f"{name}: {line}" if args.kind == "both" else line for name, line in lines.items()
    )
    payload = {"command": "embed", "mu": str(mu)}
    payload.update((name, list(vector)) for name, vector in vectors.items())
    return _emit_value(args, payload, text)


def _cmd_c(args) -> int:
    spec = _spec_from_args(args)
    index = _parse_index(args.n)
    values = []
    if args.method != "recursive":
        values.append(c_direct(spec, index, args.guard))
    if args.method != "direct":
        values.append(nestedsums.c_recursive(spec, index, args.guard))
    payload = {
        "command": "c",
        "spec": spec.text(),
        "n": list(index),
        "method": args.method,
        "value": format_rational(values[0]),
    }
    if args.method == "both":
        payload["methods_agree"] = values[0] == values[1]
    _emit_value(args, payload, format_rational(values[0]))
    return 0 if values[0] == values[-1] else 1


# --- identity registry for `verify` ---

# Smallest accepted value of each sweep flag; below it a sweep is empty or
# its random draw is undefined.
FLAG_FLOORS = {
    "nmax": 0, "kmax": 0, "wmax": 1, "count": 1, "rmax": 1, "pmax": 1, "degree": 1,
}
# The same for `bench`: below these there is no spec, no rung or no timing.
BENCH_FLAG_FLOORS = {"r": 1, "p": 1, "n": 0, "repeats": 1}
# Every `verify` sweep flag and its default.  The parser leaves them None, so
# that `_check_flags_read` can tell a flag that was given from a default.
VERIFY_DEFAULTS = {
    "mu": None, "wmax": 6, "x": None, "t": "", "subset": None, "c": "1", "nmax": 3,
    "kmax": 2, "box": None, "count": 20, "rmax": 3, "pmax": 3, "seed": 0, "degree": 6,
}
# Flags only an explicit --x reads, with what random cases take instead.
NEEDS_X = {
    "t": "random cases draw their own shifts",
    "box": "random cases take their boxes from --nmax",
    "subset": "random cases draw their own subset",
    "c": "random cases draw their own constant",
}
# A given flag (key) that stops the flags it names from being read.
OVERRIDES = {"x": ("count", "rmax", "pmax", "seed"), "box": ("nmax",), "mu": ("wmax",)}


def _check_floors(args, floors: dict) -> None:
    for flag, floor in floors.items():
        value = getattr(args, flag)
        if value < floor:
            raise ValueError(f"--{flag} must be at least {floor}, got {value}")


class _Identity(NamedTuple):
    """How `verify` builds and checks the cases of one identity.

    `reads` names the sweep flags the identity reads (`_check_flags_read`
    refuses any other).  `explicit(args)` is the case the flags name, or
    None when they name none; then `random(rng, args)`, where the identity
    has one, draws --count cases from Random(--seed), and otherwise None is
    the one case.  `verify(args, case)` looks its verifier up in the module
    at call time, so a patched module attribute is the one that runs.
    """

    reads: tuple[str, ...]
    explicit: Callable
    random: Callable | None
    verify: Callable


def _explicit_spec(args):
    """(spec, box) from --x/--t and --box, whose default is --nmax + 1 per slot."""
    if args.x is None:
        return None
    spec = _spec_from_args(args)
    if args.box is None:
        return spec, (args.nmax + 1,) * spec.r
    box = _parse_index(args.box)
    if len(box) != spec.r:
        raise ValueError(f"--box {args.box!r} must list {spec.r} extents")
    return spec, box


def _random_spec(rng: Random, args):
    spec = random_spec(rng, args.rmax, args.pmax)
    return spec, (args.nmax + 1,) * spec.r


def _explicit_shift(args):
    case = _explicit_spec(args)
    if case is None:
        return None
    if args.subset is None:
        raise ValueError("--subset is required with an explicit --x")
    spec, box = case
    return spec, _parse_index(args.subset), parse_rational(args.c), box


def _random_shift(rng: Random, args):
    spec, subset, constant = random_shift_configuration(rng, args.rmax, args.pmax)
    return spec, subset, constant, (args.nmax + 1,) * spec.r


def _mhs_indices(args):
    return None if args.mu is None else [MultiIndex.parse(args.mu)]


# The flags every c[x|t] identity reads: an explicit spec and its box, or
# seeded random specs.
SPEC_FLAGS = ("x", "t", "box", "nmax", "count", "rmax", "pmax", "seed")

IDENTITIES = {
    "mhs-duality": _Identity(
        ("mu", "wmax", "nmax"),
        _mhs_indices,
        None,
        lambda args, mus: mhs.verify_mhs_duality(args.wmax, args.nmax, mus, args.guard),
    ),
    "c-duality": _Identity(
        SPEC_FLAGS,
        _explicit_spec,
        _random_spec,
        lambda args, case: nestedsums.verify_duality(*case, args.guard),
    ),
    "difference-formula": _Identity(
        SPEC_FLAGS + ("kmax",),
        _explicit_spec,
        _random_spec,
        lambda args, case: nestedsums.verify_difference_formula(
            *case, (args.kmax + 1,) * case[0].r, args.guard
        ),
    ),
    "recurrence": _Identity(
        SPEC_FLAGS,
        _explicit_spec,
        _random_spec,
        lambda args, case: nestedsums.verify_recurrence(*case, args.guard),
    ),
    "shift": _Identity(
        SPEC_FLAGS + ("subset", "c"),
        _explicit_shift,
        _random_shift,
        lambda args, case: nestedsums.verify_shift_identity(*case, args.guard),
    ),
    "egf-suite": _Identity(
        ("degree", "seed"),
        lambda args: args.seed,
        None,
        lambda args, seed: egf.verify_operator_suite(
            degree=args.degree, seed=seed, guard=args.guard
        ),
    ),
}


def _check_flags_read(args) -> None:
    """Refuse a given sweep flag that the chosen identity would not read."""
    name = args.identity
    values = vars(args)
    given = [flag for flag in VERIFY_DEFAULTS if values[flag] is not None]
    overridden = {flag: key for key in given for flag in OVERRIDES.get(key, ())}
    for flag in given:
        if flag not in IDENTITIES[name].reads:
            raise ValueError(f"--{flag} is not read by --identity {name}")
        if flag in NEEDS_X and args.x is None:
            raise ValueError(f"--{flag} needs an explicit --x; {NEEDS_X[flag]}")
        if flag in overridden:
            raise ValueError(
                f"--{flag} is not read by --identity {name} with --{overridden[flag]}"
            )
    for flag, default in VERIFY_DEFAULTS.items():
        if values[flag] is None:
            values[flag] = default


def _cmd_verify(args) -> int:
    _check_flags_read(args)
    _check_floors(args, FLAG_FLOORS)
    identity = IDENTITIES[args.identity]
    case = identity.explicit(args)
    if case is None and identity.random is not None:
        rng = Random(args.seed)
        cases = (identity.random(rng, args) for _ in range(args.count))
    else:
        cases = [case]
    report, *rest = (identity.verify(args, case) for case in cases)
    for part in rest:
        report.extend(part.comparisons)
    return _emit_report(args, report)


def _time_best(repeats: int, fn) -> tuple[float, Fraction]:
    best = None
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, value


def run_bench(
    spec: NestedSumSpec,
    ladder: list[int],
    repeats: int = 3,
    guard: int = DEFAULT_SUMMAND_GUARD,
) -> list[dict]:
    """Time c_direct against a cold-memo recurrence pass at each ladder rung.

    The index at rung n is (n, ..., n); `speedup` is direct/recursive time.
    """
    rows = []
    for n in ladder:
        index = (n,) * spec.r
        direct_s, direct_value = _time_best(repeats, lambda: c_direct(spec, index, guard))
        def cold_recursive():
            evaluator = RecurrenceEvaluator(spec, guard)
            value = evaluator.value(index)
            cold_recursive.memo_entries = evaluator.memo_entries
            return value
        recursive_s, recursive_value = _time_best(repeats, cold_recursive)
        rows.append(
            {
                "r": spec.r,
                "p": spec.p,
                "n": n,
                "direct_seconds": f"{direct_s:.6f}",
                "recursive_seconds": f"{recursive_s:.6f}",
                "speedup": f"{direct_s / recursive_s:.2f}",
                "direct_summands": direct_summand_count(spec, index),
                "recursive_memo_entries": cold_recursive.memo_entries,
                "equal": direct_value == recursive_value,
            }
        )
    return rows


def bench_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def _cmd_bench(args) -> int:
    _check_floors(args, BENCH_FLAG_FLOORS)
    rng = Random(args.seed)
    if args.x:
        spec = _spec_from_args(args)
    else:
        tparams = (
            tuple(parse_rational(item) for item in args.t.split(","))
            if args.t
            else (Fraction(1),) * (args.p - 1)
        )
        xblocks = tuple(
            tuple(nestedsums.random_rational(rng) for _ in range(args.p))
            for _ in range(args.r)
        )
        spec = NestedSumSpec(xblocks, tparams)
    if args.ladder:
        ladder = sorted(set(_parse_index(args.ladder)))
    else:
        ladder = sorted({max(1, args.n // 4), args.n // 2, (3 * args.n) // 4, args.n})
    rows = run_bench(spec, ladder, args.repeats, args.guard)
    _emit(args, bench_csv(rows))
    return 0 if all(row["equal"] for row in rows) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="mhscalc",
        description="Exact evaluation and identity verification for multiple "
        "harmonic sums, parametric nested sums, and the difference/inversion "
        "calculus on multi-sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_format=True):
        if with_format:
            p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument(
            "--guard",
            type=int,
            default=DEFAULT_SUMMAND_GUARD,
            help="summand/cell guard before refusing to enumerate",
        )

    p_s = sub.add_parser("s", help="evaluate s_mu(n)")
    p_s.add_argument("--mu", required=True, help='multi-index, e.g. "(1,2,3)"')
    p_s.add_argument("--n", type=int, required=True)
    add_common(p_s)
    p_s.set_defaults(handler=_cmd_s)

    p_dual = sub.add_parser("dual", help="print the dual multi-index")
    p_dual.add_argument("--mu", required=True)
    add_common(p_dual)
    p_dual.set_defaults(handler=_cmd_dual)

    p_embed = sub.add_parser("embed", help="0/1 parameter vectors reproducing s_mu")
    p_embed.add_argument("--mu", required=True)
    p_embed.add_argument("--kind", choices=("1", "2", "both"), default="both")
    add_common(p_embed)
    p_embed.set_defaults(handler=_cmd_embed)

    p_c = sub.add_parser("c", help="evaluate a parametric nested sum")
    p_c.add_argument("--x", required=True, help='blocks, e.g. "1/2,1/3;0,1"')
    p_c.add_argument("--t", default="", help='shift parameters, e.g. "2" (empty for depth 1)')
    p_c.add_argument("--n", required=True, help='index vector, e.g. "2,1"')
    p_c.add_argument("--method", choices=("direct", "recursive", "both"), default="direct")
    add_common(p_c)
    p_c.set_defaults(handler=_cmd_c)

    p_verify = sub.add_parser("verify", help="verify an identity sweep exactly")
    p_verify.add_argument("--identity", choices=tuple(IDENTITIES), required=True)
    # defaults in VERIFY_DEFAULTS, filled in once the flags are checked
    p_verify.add_argument("--mu", help="restrict mhs-duality to one multi-index")
    p_verify.add_argument("--wmax", type=int, help="mhs-duality weight sweep bound (6)")
    p_verify.add_argument("--x", help="explicit parameter blocks (otherwise seeded random specs)")
    p_verify.add_argument("--t", help="explicit shift parameters")
    p_verify.add_argument("--subset", help='shift identity slots, e.g. "1,2"')
    p_verify.add_argument("--c", help="shift identity constant (1)")
    p_verify.add_argument("--nmax", type=int, help="index sweep bound per slot (3)")
    p_verify.add_argument("--kmax", type=int, help="difference order bound per slot (2)")
    p_verify.add_argument("--box", help='explicit extents, e.g. "4,4"')
    p_verify.add_argument("--count", type=int, help="number of random specs (20)")
    p_verify.add_argument("--rmax", type=int, help="random spec slot bound (3)")
    p_verify.add_argument("--pmax", type=int, help="random spec depth bound (3)")
    p_verify.add_argument("--seed", type=int, help="random cases and egf-suite data (0)")
    p_verify.add_argument("--degree", type=int, help="egf-suite truncation degree (6)")
    add_common(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_bench = sub.add_parser(
        "bench", help="CSV timing of direct enumeration vs memoized recurrence"
    )
    p_bench.add_argument("--r", type=int, default=1)
    p_bench.add_argument("--p", type=int, default=3)
    p_bench.add_argument("--n", type=int, default=40, help="largest ladder rung")
    p_bench.add_argument("--ladder", help='explicit rungs, e.g. "10,20,40"')
    p_bench.add_argument("--x", help="explicit blocks (otherwise seeded random)")
    p_bench.add_argument("--t", default="", help="explicit shifts (default all 1)")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--repeats", type=int, default=3, help="best-of timing repeats")
    add_common(p_bench, with_format=False)
    p_bench.set_defaults(handler=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
