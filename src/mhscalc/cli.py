"""Command-line front end.

Subcommands:
  s       evaluate a multiple harmonic sum s_mu(n)
  dual    print the dual multi-index mu*
  embed   print the 0/1 parameter vectors that reproduce s_mu
  c       evaluate a parametric nested sum (direct, recursive, or both)
  verify  run an identity verification sweep; exit 0 only if all exact
  bench   time direct enumeration against the memoized recurrence (CSV)

Exit codes: 0 all checks exact / value computed; 1 an identity comparison
failed; 2 malformed input (a flag below its floor, --guard included, or a
`verify` or `bench` flag the command would not read) or an unwritable
--out; 3 a work guard tripped or the run ran out of memory.

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
from .errors import DEFAULT_GUARD, GuardExceeded
from .kernel import format_rational, parse_rational
from .mhs import MultiIndex
from .nestedsums import (
    NestedSumSpec,
    c_direct,
    direct_summand_count,
    random_spec,
    random_shift_configuration,
    recurrence_cell_count,
)
from .report import VerificationReport


def _parse_index(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(item) for item in text.split(","))
    except ValueError:
        raise ValueError(f"not an index vector: {text!r}") from None


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
        _emit(args, bench_csv([payload]))
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
    spec = NestedSumSpec.parse(args.x, args.t)
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


# --- flag tables of `verify` and `bench` ---


class _Flag(NamedTuple):
    """Everything about one `verify` or `bench` flag.

    The parser leaves the flag None, so that `_read_flags` can tell a flag
    that was given from one that was not: a given flag is refused when the
    command would not read it, then checked against its `floor`; one not
    given takes its `default`.  `needs_x` says what random cases take
    instead of a flag that only an explicit --x reads, and `unread_with`
    names the flag whose presence stops this one from being read.
    """

    default: object
    help: str
    type: Callable = str
    floor: int | None = None
    needs_x: str | None = None
    unread_with: str | None = None


# A floor is the smallest accepted value: below it a sweep is empty, a
# random draw is undefined, or `bench` has no spec, no rung or no timing.
VERIFY_FLAGS = {
    "mu": _Flag(None, "restrict mhs-duality to one multi-index"),
    "wmax": _Flag(6, "mhs-duality weight sweep bound", int, 1, unread_with="mu"),
    "x": _Flag(None, "explicit parameter blocks (otherwise seeded random specs)"),
    "t": _Flag("", "explicit shift parameters", needs_x="random cases draw their own shifts"),
    "subset": _Flag(
        None, 'shift identity slots, e.g. "1,2"', needs_x="random cases draw their own subset"
    ),
    "c": _Flag("1", "shift identity constant", needs_x="random cases draw their own constant"),
    "nmax": _Flag(3, "index sweep bound per slot", int, 0, unread_with="box"),
    "kmax": _Flag(2, "difference order bound per slot", int, 0),
    "box": _Flag(
        None, 'explicit extents, e.g. "4,4"', needs_x="random cases take their boxes from --nmax"
    ),
    "count": _Flag(20, "number of random specs", int, 1, unread_with="x"),
    "rmax": _Flag(3, "random spec slot bound", int, 1, unread_with="x"),
    "pmax": _Flag(3, "random spec depth bound", int, 1, unread_with="x"),
    "seed": _Flag(0, "random cases and egf-suite data", int, unread_with="x"),
    "degree": _Flag(6, "egf-suite truncation degree", int, 1),
}
BENCH_FLAGS = {
    "r": _Flag(1, "random spec slots", int, 1, unread_with="x"),
    "p": _Flag(3, "random spec depth", int, 1, unread_with="x"),
    "n": _Flag(40, "largest ladder rung", int, 0, unread_with="ladder"),
    "ladder": _Flag(None, 'explicit rungs, e.g. "10,20,40"'),
    "x": _Flag(None, "explicit blocks (otherwise seeded random)"),
    "t": _Flag("", "explicit shifts (default all 1)"),
    "seed": _Flag(0, "random spec seed", int, unread_with="x"),
    "repeats": _Flag(3, "best-of timing repeats", int, 1),
}


def _read_flags(args, flags: dict[str, _Flag], reads, reader: str) -> None:
    """Refuse a given flag that `reader` does not read, then check floors and fill defaults."""
    values = vars(args)
    given = [name for name in flags if values[name] is not None]
    for name in given:
        flag = flags[name]
        if name not in reads:
            raise ValueError(f"--{name} is not read by {reader}")
        if flag.needs_x and args.x is None:
            raise ValueError(f"--{name} needs an explicit --x; {flag.needs_x}")
        if flag.unread_with in given:
            raise ValueError(f"--{name} is not read by {reader} with --{flag.unread_with}")
    for name, flag in flags.items():
        if name not in given:
            values[name] = flag.default
        elif flag.floor is not None and values[name] < flag.floor:
            raise ValueError(f"--{name} must be at least {flag.floor}, got {values[name]}")


class _Identity(NamedTuple):
    """How `verify` builds and checks the cases of one identity.

    `reads` names the sweep flags the identity reads (`_read_flags`
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
    spec = NestedSumSpec.parse(args.x, args.t)
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
    if args.rmax < 2:
        raise ValueError(f"--rmax must be at least 2 for --identity shift, got {args.rmax}")
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


def _cmd_verify(args) -> int:
    identity = IDENTITIES[args.identity]
    _read_flags(args, VERIFY_FLAGS, identity.reads, f"--identity {args.identity}")
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
    repeats: int,
    guard: int = DEFAULT_GUARD,
) -> list[dict]:
    """Time c_direct against a cold-memo recurrence pass at each ladder rung.

    The index at rung n is (n, ..., n); `speedup` is direct/recursive time.
    """
    rows = []
    for n in ladder:
        index = (n,) * spec.r
        direct_s, direct_value = _time_best(repeats, lambda: c_direct(spec, index, guard))
        recursive_s, recursive_value = _time_best(
            repeats, lambda: nestedsums.c_recursive(spec, index, guard)
        )
        rows.append(
            {
                "r": spec.r,
                "p": spec.p,
                "n": n,
                "direct_seconds": f"{direct_s:.6f}",
                "recursive_seconds": f"{recursive_s:.6f}",
                "speedup": f"{direct_s / recursive_s:.2f}",
                "direct_summands": direct_summand_count(spec, index),
                "recursive_memo_entries": recurrence_cell_count(spec, index),
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
    _read_flags(args, BENCH_FLAGS, BENCH_FLAGS, "bench")
    rng = Random(args.seed)
    if args.x is not None:
        spec = NestedSumSpec.parse(args.x, args.t)
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
    if args.ladder is not None:
        ladder = sorted(set(_parse_index(args.ladder)))
    else:
        # quarter rungs up to --n, the lowest at least 1 unless --n is 0
        n = args.n
        ladder = sorted({min(n, max(1, n // 4)), n // 2, (3 * n) // 4, n})
    rows = run_bench(spec, ladder, args.repeats, args.guard)
    _emit(args, bench_csv(rows))
    return 0 if all(row["equal"] for row in rows) else 1


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it refuses an unrecognized flag with its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by later calls.

    Every parser has prefix matching off: a flag is taken only by its full
    name, so an abbreviation is refused (exit 2) rather than read as the
    flag it abbreviates.  A flag after the subcommand is refused by the
    subcommand's parser, whose usage lists the flags it does take.
    """
    parser = argparse.ArgumentParser(
        prog="mhscalc",
        allow_abbrev=False,
        description="Exact evaluation and identity verification for multiple "
        "harmonic sums, parametric nested sums, and the difference/inversion "
        "calculus on multi-sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    add_subcommand = functools.partial(sub.add_parser, allow_abbrev=False)

    def add_common(p, with_format=True):
        if with_format:
            p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument(
            "--guard",
            type=int,
            default=DEFAULT_GUARD,
            help="summand/cell guard before refusing to enumerate",
        )

    def add_flags(p, flags):
        for name, flag in flags.items():
            shown = "" if flag.default in (None, "") else f" ({flag.default})"
            p.add_argument(f"--{name}", type=flag.type, help=flag.help + shown)

    p_s = add_subcommand("s", help="evaluate s_mu(n)")
    p_s.add_argument("--mu", required=True, help='multi-index, e.g. "(1,2,3)"')
    p_s.add_argument("--n", type=int, required=True)
    add_common(p_s)
    p_s.set_defaults(handler=_cmd_s)

    p_dual = add_subcommand("dual", help="print the dual multi-index")
    p_dual.add_argument("--mu", required=True)
    add_common(p_dual)
    p_dual.set_defaults(handler=_cmd_dual)

    p_embed = add_subcommand("embed", help="0/1 parameter vectors reproducing s_mu")
    p_embed.add_argument("--mu", required=True)
    p_embed.add_argument("--kind", choices=("1", "2", "both"), default="both")
    add_common(p_embed)
    p_embed.set_defaults(handler=_cmd_embed)

    p_c = add_subcommand("c", help="evaluate a parametric nested sum")
    p_c.add_argument("--x", required=True, help='blocks, e.g. "1/2,1/3;0,1"')
    p_c.add_argument("--t", default="", help='shift parameters, e.g. "2" (empty for depth 1)')
    p_c.add_argument("--n", required=True, help='index vector, e.g. "2,1"')
    p_c.add_argument("--method", choices=("direct", "recursive", "both"), default="direct")
    add_common(p_c)
    p_c.set_defaults(handler=_cmd_c)

    p_verify = add_subcommand("verify", help="verify an identity sweep exactly")
    p_verify.add_argument("--identity", choices=tuple(IDENTITIES), required=True)
    add_flags(p_verify, VERIFY_FLAGS)
    add_common(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_bench = add_subcommand(
        "bench", help="CSV timing of direct enumeration vs memoized recurrence"
    )
    add_flags(p_bench, BENCH_FLAGS)
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
        if args.guard < 1:
            raise ValueError(f"--guard must be at least 1, got {args.guard}")
        return args.handler(args)
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory; lower the index, box or degree", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
