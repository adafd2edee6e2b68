"""Seeded inputs and exact output checks for the benchmark workloads.

A workload is a *round*: a fixed list of CLI invocations (ops) drawn from the
workload seed with this module's own RNG.  The runner repeats the round until
its time is up.  Ops pass only explicit flags (`--x/--t/--box/--mu/--n`, plus
the per-op `--seed` that egf-suite draws its own data from), so the inputs do
not move when the random helpers inside mhscalc move.  Every flag is written
as `--flag=value` because values such as `-5/3` would otherwise read as flags.

Each round holds the same number of ops of each shape (slot count, depth,
extent or degree) on every seed; only the rational values and the order
change.  That keeps the cost of a round, and so every timing, comparable
across seeds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

WORKLOADS = ("duality-sweep", "recurrence-fill", "egf-suite", "mhs-duality")

# |numerator| and denominator of every generated rational are at most this.
RATIONAL_BOUND = 9


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the report size it must produce.

    `comparisons` is the exact comparison count a `verify` report must end
    with; it is 0 for `c` ops, whose output is a single value.
    """

    argv: tuple[str, ...]
    comparisons: int = 0


def rational(rng: Random) -> Fraction:
    return Fraction(
        rng.randint(-RATIONAL_BOUND, RATIONAL_BOUND), rng.randint(1, RATIONAL_BOUND)
    )


def shift(rng: Random, negative: bool) -> Fraction:
    """A shift parameter outside {0, -1, -2, ...}.

    With `negative` it is a negative non-integer, the case where the
    generalized binomials in the denominators change sign.
    """
    while True:
        if negative:
            t = Fraction(rng.randint(-RATIONAL_BOUND, -1), rng.randint(2, RATIONAL_BOUND))
            if t.denominator > 1:
                return t
        else:
            t = rational(rng)
            if t.denominator > 1 or t > 0:
                return t


def spec_flags(rng: Random, r: int, p: int, negative_shift: bool) -> tuple[str, str]:
    """`--x` with r blocks of p rationals and `--t` with p-1 shifts."""
    blocks = [[rational(rng) for _ in range(p)] for _ in range(r)]
    shifts = [shift(rng, negative_shift and j == 0) for j in range(p - 1)]
    xtext = ";".join(",".join(str(x) for x in block) for block in blocks)
    return f"--x={xtext}", "--t=" + ",".join(str(t) for t in shifts)


# duality-sweep: this many specs per (r, p) shape, r and p in 1..3.
SWEEP_SPECS_PER_SHAPE = 8
SWEEP_EXTENT = 5


def duality_sweep(rng: Random) -> list[Op]:
    ops = []
    for r, p in itertools.product((1, 2, 3), repeat=2):
        for i in range(SWEEP_SPECS_PER_SHAPE):
            xflag, tflag = spec_flags(rng, r, p, negative_shift=i % 2 == 0)
            box = ",".join([str(SWEEP_EXTENT)] * r)
            ops.append(
                Op(("verify", "--identity=c-duality", xflag, tflag, f"--box={box}"),
                   SWEEP_EXTENT**r)
            )
    rng.shuffle(ops)
    return ops


# recurrence-fill: the corner per slot count (boxes of 301, 41^2 and 13^3
# points); depths 2..5; this many specs per (r, p).
FILL_CORNERS = {1: (300,), 2: (40, 40), 3: (12, 12, 12)}
FILL_DEPTHS = (2, 3, 4, 5)
FILL_SPECS_PER_SHAPE = 3


def recurrence_fill(rng: Random) -> list[Op]:
    ops = []
    for r, p in itertools.product(FILL_CORNERS, FILL_DEPTHS):
        corner = ",".join(map(str, FILL_CORNERS[r]))
        for i in range(FILL_SPECS_PER_SHAPE):
            xflag, tflag = spec_flags(rng, r, p, negative_shift=i % 2 == 0)
            ops.append(Op(("c", "--method=recursive", xflag, tflag, f"--n={corner}")))
    rng.shuffle(ops)
    return ops


# egf-suite: ops per truncation degree.  Degree 6 is the majority so that the
# median latency falls inside one degree's cost range, not between two.
EGF_OPS_PER_DEGREE = {5: 13, 6: 27}


def egf_suite_comparisons(degree: int) -> int:
    """Comparisons `verify --identity egf-suite` makes at this degree.

    The suite runs slot counts r = 1, 2 and nested-sum depths p = 1, 2, 3.
    With E(m, b) = C(m+b, b) exponent vectors in m variables up to degree b:
    two two-block identities over E(2r, D); r shift annihilations over
    E(2r, D-1); the closed form, involution, r mul conjugations, the xi
    conjugation and 8 nested-sum identities (duality and telescoping for
    each p, depth reduction for p >= 2) over E(r, D); r deriv conjugations
    over E(r, D-1); and one commutator check over E(r, D-1) for each of the
    E(r, D-1) monomials.
    """
    def vectors(m: int, b: int) -> int:
        return math.comb(m + b, b)

    total = 0
    for r in (1, 2):
        total += 2 * vectors(2 * r, degree) + r * vectors(2 * r, degree - 1)
        total += (3 + r + 8) * vectors(r, degree) + r * vectors(r, degree - 1)
        total += vectors(r, degree - 1) ** 2
    return total


def egf_suite(rng: Random) -> list[Op]:
    ops = []
    for degree, count in EGF_OPS_PER_DEGREE.items():
        for _ in range(count):
            ops.append(
                Op(("verify", "--identity=egf-suite", f"--degree={degree}",
                    f"--seed={rng.randrange(2**31)}"),
                   egf_suite_comparisons(degree))
            )
    rng.shuffle(ops)
    return ops


MHS_MAX_WEIGHT = 7
MHS_NMAX = (10, 11, 12)


def compositions(weight: int) -> list[tuple[int, ...]]:
    """All multi-indices of this weight, one per subset of cut positions."""
    out = []
    for cuts in range(2 ** (weight - 1)):
        bounds = [0] + [pos for pos in range(1, weight) if cuts >> (pos - 1) & 1] + [weight]
        out.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return out


def mhs_duality(rng: Random) -> list[Op]:
    """One op per multi-index of weight <= 7 and nmax in 10..12; the seed sets the order.

    There are no rationals to draw here, and drawing one nmax per multi-index
    made the cost of a round depend on the seed: the two heaviest ops, (7) and
    (1,1,1,1,1,1,1), take 2.5 times longer at nmax 12 than at 10.
    """
    ops = []
    for weight in range(1, MHS_MAX_WEIGHT + 1):
        for mu, nmax in itertools.product(compositions(weight), MHS_NMAX):
            mu_text = "(" + ",".join(map(str, mu)) + ")"
            ops.append(
                Op(("verify", "--identity=mhs-duality", f"--mu={mu_text}", f"--nmax={nmax}"),
                   nmax + 1)
            )
    rng.shuffle(ops)
    return ops


_GENERATORS = {
    "duality-sweep": duality_sweep,
    "recurrence-fill": recurrence_fill,
    "egf-suite": egf_suite,
    "mhs-duality": mhs_duality,
}


def generate(workload: str, seed: int) -> list[Op]:
    """The round of ops for a workload; equal seeds give equal rounds."""
    return _GENERATORS[workload](Random(f"{workload}:{seed}"))


def flag(op: Op, name: str) -> str:
    """Value of `--name=value` in the op's argv."""
    prefix = f"--{name}="
    for arg in op.argv:
        if arg.startswith(prefix):
            return arg[len(prefix):]
    raise KeyError(name)


def check_output(op: Op, code: int | None, out: str) -> str | None:
    """Cheap per-op check; returns an error message or None.

    A `verify` op must exit 0 and end its report in `result: PASS` with the
    expected comparison count.  A `c` op must exit 0 and print one rational;
    its value is checked by `check_recurrence_value` after the timed loop.
    """
    if code != 0:
        return f"exit code {code}"
    if op.argv[0] == "c":
        try:
            Fraction(out.strip())
        except ValueError:
            return f"not a rational: {out[:80]!r}"
        return None
    last = out.rstrip("\n").rpartition("\n")[2]
    expected = f"result: PASS, {op.comparisons} comparisons"
    if last != expected:
        return f"report ends {last[:80]!r}, expected {expected!r}"
    return None


def check_recurrence_value(op: Op, text: str) -> str | None:
    """Check a `c --method recursive` value by routes the op did not take.

    1. `c_direct` (chain enumeration) agrees with a fresh recurrence fill of
       the same spec at every point with all entries <= 2.
    2. The duality nabla c[x|t] = c[1-x|t] holds at the corner when the
       printed value stands in for c[x|t](corner) and the other box values
       come from that fill, with the right side from a fill of 1-x.
    """
    # Imported here so that generating inputs needs no mhscalc on the path.
    from mhscalc.nestedsums import NestedSumSpec, RecurrenceEvaluator, c_direct

    spec = NestedSumSpec.parse(flag(op, "x"), flag(op, "t"))
    corner = tuple(int(v) for v in flag(op, "n").split(","))
    value = Fraction(text.strip())
    fill = RecurrenceEvaluator(spec)
    fill.value(corner)
    for point in itertools.product(*(range(min(n, 2) + 1) for n in corner)):
        if c_direct(spec, point) != fill.value(point):
            return f"recurrence differs from c_direct at {point}"
    total = Fraction(0)
    for point in itertools.product(*(range(n + 1) for n in corner)):
        term = value if point == corner else fill.value(point)
        term *= math.prod(math.comb(n, k) for n, k in zip(corner, point))
        total += -term if sum(point) % 2 else term
    if total != RecurrenceEvaluator(spec.one_minus()).value(corner):
        return f"duality fails at the corner {corner}"
    return None
