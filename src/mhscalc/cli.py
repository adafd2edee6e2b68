"""Command-line front end.

Subcommands:
  s       evaluate a multiple harmonic sum s_mu(n)
  dual    print the dual multi-index mu*
  embed   print the 0/1 parameter vectors that reproduce s_mu
  c       evaluate a parametric nested sum (direct, recursive, or both)
  verify  run an identity verification sweep; exit 0 only if all exact
  bench   time direct enumeration against the recurrence fill (CSV)

Exit codes: 0 all checks exact / value computed; 1 an identity comparison
failed; 2 malformed input (a flag below its floor, --guard included, or a
`verify` or `bench` flag the command would not read) or an empty or
unwritable --out; 3 a work guard tripped or the run ran out of memory.

Reports are deterministic: a fixed command line (seed included) yields
byte-identical text/JSON/CSV output.  `bench` is the exception, since its
whole point is wall-clock measurement.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
import time
from fractions import Fraction
from random import Random
from typing import Callable, NamedTuple

from . import egf, mhs, nestedsums
from .guards import DEFAULT_GUARD, GuardExceeded, direct_summand_count, recurrence_cell_count
from .kernel import format_rational, parse_integers, parse_rational
from .mhs import MultiIndex
from .nestedsums import (
    NestedSumSpec, c_direct, parse_shifts, random_blocks, random_spec, random_shift_configuration,
)
from .report import VerificationReport, render_csv


def _parse_index(text: str) -> tuple[int, ...]:
    try:
        return parse_integers(text)
    except ValueError:
        raise ValueError(f"not an index vector: {text!r}") from None


def _parse_int(text: str) -> int:
    """One ASCII integer, read as `parse_integers` reads an entry.

    The type of every int flag: argparse names the flag in the message and
    exits 2, where `int` would take `_` separators and non-ASCII digits.
    """
    try:
        (value,) = parse_integers(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    return value


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
    if args.out is not None:
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
        _emit(args, render_csv([payload]))
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
    "wmax": _Flag(6, "mhs-duality weight sweep bound", _parse_int, 1, unread_with="mu"),
    "x": _Flag(None, "explicit parameter blocks (otherwise seeded random specs)"),
    "t": _Flag("", "explicit shift parameters", needs_x="random cases draw their own shifts"),
    "subset": _Flag(
        None, 'shift identity slots, e.g. "1,2"', needs_x="random cases draw their own subset"
    ),
    "c": _Flag("1", "shift identity constant", needs_x="random cases draw their own constant"),
    "nmax": _Flag(3, "index sweep bound per slot", _parse_int, 0, unread_with="box"),
    "kmax": _Flag(2, "difference order bound per slot", _parse_int, 0),
    "box": _Flag(
        None, 'explicit extents, e.g. "4,4"', needs_x="random cases take their boxes from --nmax"
    ),
    "count": _Flag(20, "number of random specs", _parse_int, 1, unread_with="x"),
    "rmax": _Flag(3, "random spec slot bound", _parse_int, 1, unread_with="x"),
    "pmax": _Flag(3, "random spec depth bound", _parse_int, 1, unread_with="x"),
    "seed": _Flag(0, "random cases and egf-suite data", _parse_int, unread_with="x"),
    "degree": _Flag(6, "egf-suite truncation degree", _parse_int, 1),
}
BENCH_FLAGS = {
    "r": _Flag(1, "random spec slots", _parse_int, 1, unread_with="x"),
    "p": _Flag(3, "random spec depth", _parse_int, 1, unread_with="x"),
    "n": _Flag(40, "largest ladder rung", _parse_int, 0, unread_with="ladder"),
    "ladder": _Flag(None, 'explicit rungs, e.g. "10,20,40"'),
    "x": _Flag(None, "explicit blocks (otherwise seeded random)"),
    "t": _Flag("", "explicit shifts (default all 1)"),
    "seed": _Flag(0, "random spec seed", _parse_int, unread_with="x"),
    "repeats": _Flag(3, "best-of timing repeats", _parse_int, 1),
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
    refuses any other).  `cases(args)` lists the cases the flags name, each
    its verifier's positional arguments: an explicit one, --count drawn
    from Random(--seed), or for mhs-duality every composition of weight
    <= --wmax.  `verifier()` reads the library verifier off its module at
    call time, so a patched attribute is the one that runs; `_cmd_verify`
    calls it on every case with --guard and joins the reports.
    """

    reads: tuple[str, ...]
    cases: Callable
    verifier: Callable


def _mhs_cases(args) -> list:
    """(mu, nmax) cases: --mu, or every composition of weight 1..--wmax.

    Weights ascend, each in `multi_indices_of_weight` order.
    """
    if args.mu is not None:
        return [(MultiIndex.parse(args.mu), args.nmax)]
    weights = range(1, args.wmax + 1)
    return [(mu, args.nmax) for weight in weights for mu in mhs.multi_indices_of_weight(weight)]


def _spec_cases(args) -> list:
    """(spec, box) cases: --x/--t with --box, or else --count drawn specs.

    The box defaults to --nmax + 1 per slot, the one box of a drawn spec.
    """
    if args.x is None:
        rng = Random(args.seed)
        specs = [random_spec(rng, args.rmax, args.pmax) for _ in range(args.count)]
        return [(spec, (args.nmax + 1,) * spec.r) for spec in specs]
    spec = NestedSumSpec.parse(args.x, args.t)
    box = (args.nmax + 1,) * spec.r if args.box is None else _parse_index(args.box)
    if len(box) != spec.r:
        raise ValueError(f"--box {args.box!r} must list {spec.r} extents")
    return [(spec, box)]


def _difference_cases(args) -> list:
    """(spec, box, kbox) cases: `_spec_cases` with --kmax + 1 orders per slot."""
    return [(spec, box, (args.kmax + 1,) * spec.r) for spec, box in _spec_cases(args)]


def _shift_cases(args) -> list:
    """(spec, subset, constant, box) cases, explicit or drawn as in `_spec_cases`."""
    if args.x is None:
        if args.rmax < 2:
            raise ValueError(f"--rmax must be at least 2 for --identity shift, got {args.rmax}")
        rng = Random(args.seed)
        draws = [random_shift_configuration(rng, args.rmax, args.pmax) for _ in range(args.count)]
        return [(*draw, (args.nmax + 1,) * draw[0].r) for draw in draws]
    [(spec, box)] = _spec_cases(args)
    if args.subset is None:
        raise ValueError("--subset is required with an explicit --x")
    return [(spec, _parse_index(args.subset), parse_rational(args.c), box)]


# The flags every c[x|t] identity reads: an explicit spec and its box, or
# seeded random specs.
SPEC_FLAGS = ("x", "t", "box", "nmax", "count", "rmax", "pmax", "seed")

IDENTITIES = {
    "mhs-duality": _Identity(("mu", "wmax", "nmax"), _mhs_cases, lambda: mhs.verify_mhs_duality),
    "c-duality": _Identity(SPEC_FLAGS, _spec_cases, lambda: nestedsums.verify_duality),
    "difference-formula": _Identity(
        SPEC_FLAGS + ("kmax",), _difference_cases, lambda: nestedsums.verify_difference_formula
    ),
    "recurrence": _Identity(SPEC_FLAGS, _spec_cases, lambda: nestedsums.verify_recurrence),
    "shift": _Identity(
        SPEC_FLAGS + ("subset", "c"), _shift_cases, lambda: nestedsums.verify_shift_identity
    ),
    "egf-suite": _Identity(
        ("degree", "seed"),
        lambda args: [(args.degree, args.seed)],
        lambda: egf.verify_operator_suite,
    ),
}


def _cmd_verify(args) -> int:
    identity = IDENTITIES[args.identity]
    _read_flags(args, VERIFY_FLAGS, identity.reads, f"--identity {args.identity}")
    verifier = identity.verifier()
    report, *rest = (verifier(*case, guard=args.guard) for case in identity.cases(args))
    for part in rest:
        report.comparisons.extend(part.comparisons)
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
    """Time c_direct against a fresh recurrence fill at each ladder rung.

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


def _cmd_bench(args) -> int:
    _read_flags(args, BENCH_FLAGS, BENCH_FLAGS, "bench")
    rng = Random(args.seed)
    if args.x is not None:
        spec = NestedSumSpec.parse(args.x, args.t)
    else:
        tparams = parse_shifts(args.t) or (Fraction(1),) * (args.p - 1)
        spec = NestedSumSpec(random_blocks(rng, args.r, args.p), tparams)
    if args.ladder is not None:
        ladder = sorted(set(_parse_index(args.ladder)))
    else:
        # quarter rungs up to --n, the lowest at least 1 unless --n is 0
        n = args.n
        ladder = sorted({min(n, max(1, n // 4)), n // 2, (3 * n) // 4, n})
    rows = run_bench(spec, ladder, args.repeats, args.guard)
    _emit(args, render_csv(rows))
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
            type=_parse_int,
            default=DEFAULT_GUARD,
            help="summand/cell guard before refusing to enumerate",
        )

    def add_flags(p, flags):
        for name, flag in flags.items():
            shown = "" if flag.default in (None, "") else f" ({flag.default})"
            p.add_argument(f"--{name}", type=flag.type, help=flag.help + shown)

    p_s = add_subcommand("s", help="evaluate s_mu(n)")
    p_s.add_argument("--mu", required=True, help='multi-index, e.g. "(1,2,3)"')
    p_s.add_argument("--n", type=_parse_int, required=True)
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
        "bench", help="CSV timing of direct enumeration vs the recurrence fill"
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
        if args.out == "":
            raise ValueError("--out must name a file")
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
