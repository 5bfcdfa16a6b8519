"""Generate the benchmark's synthetic problem corpus.

    python3 bench/gen_corpus.py [--seed N] [--outdir DIR]

Writes three files to DIR (default bench/corpus):

- stripped: one OEIS stripped-format line per A-number;
- solutions.tsv: anum / small / fast rows, the pipeline's input;
- intended.tsv: anum / family / intended verify status.

Pairs come from families in the style of the fixtures:

- equal pairs from identities and rewrites: a loop against its closed
  form (A000217), an unrolled loop (A000079), a shifted loop2 (A000045),
  compr against a closed form, a constant-bound loop and a parity sum;
- refutable pairs: an equal pair whose fast side is mutated once;
- heavy pairs that are equal but exhaust the 1,000,000-unit verify
  budget or the value bound, like the split product of A000165, which
  times out at index 81, and the double factorial (2n)!/(2^n n!).

Every claim is checked with the independent reference interpreter of
the test suite (tests/oracles.ref_eval), never with the package's own
evaluator: equal and heavy pairs agree on 0..99, and each mutated pair
differs at an index where both sides are cheap to reach (mutants are
drawn until one does, so that verify can refute it).  No equal or heavy
pair is dropped for being slow.  The same seed gives byte-identical
files; SEED is the corpus's fixed seed.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from loopbench.lang import BINARY_OPS, Op, Program, depends_on, parse, to_text  # noqa: E402
from oracles import RefDivZero, RefLimit, ref_eval  # noqa: E402

SEED = 2304_02986
FIRST_ANUM = 900_000
CHECK_POINTS = 100
# Rows per family; the refuted rows mutate fresh equal pairs.
FAMILY_ROWS = {
    "closed_form": 28,
    "unroll": 20,
    "loop2_shift": 20,
    "compr": 14,
    "const_bound": 12,
    "parity": 8,
    "split_product": 12,
    "double_factorial": 8,
    "mutant": 50,
}
DUPLICATES = 8
# A mutant must differ early and stay cheap, so that verify refutes it
# instead of running out of budget first.
MUTANT_MAX_INDEX = 12
MUTANT_STEP_CAP = 20_000
MUTANT_VALUE_BOUND = 10**30


def lit(k: int) -> str:
    """Program text for the integer k from the constants 0, 1 and 2."""
    if k < 0:
        return f"(0 - {lit(-k)})"
    if k <= 2:
        return str(k)
    if k <= 4:
        return f"(2 + {k - 2})"
    half = f"(2 * {lit(k // 2)})"
    return f"({half} + 1)" if k % 2 else half


def closed_form(rng: random.Random) -> tuple[str, str]:
    # sum_{i=1..x} (a*i + b) + c  =  a*x(x+1)/2 + b*x + c
    a, b, c = rng.randint(1, 6), rng.randint(0, 5), rng.randint(0, 9)
    step = "y" if a == 1 else f"({lit(a)} * y)"
    if b:
        step = f"({step} + {lit(b)})"
    small = f"loop(x + {step}, x, {lit(c)})"
    fast = f"((x * x) + x) div 2" if a == 1 else f"({lit(a)} * ((x * x) + x)) div 2"
    fast = f"({fast}) + (({lit(b)} * x) + {lit(c)})"
    return small, fast


_UNROLL_STEPS = ("x + x", "(x + x) + 1", "(x + x) + x", "(x + x) - 1", "(2 * x) + 2")


def unroll(rng: random.Random) -> tuple[str, str]:
    # F applied x times = F.F applied x div 2 times after F applied x mod 2 times.
    f = rng.choice(_UNROLL_STEPS)
    c = rng.randint(1, 9)
    ff = f.replace("x", f"({f})")
    small = f"loop({f}, x, {lit(c)})"
    fast = f"loop({ff}, x div 2, loop({f}, x mod 2, {lit(c)}))"
    return small, fast


def loop2_shift(rng: random.Random) -> tuple[str, str]:
    # Start the recurrence two steps later from the precomputed state.
    coef = rng.choice((1, 1, 2))
    f = "x + y" if coef == 1 else "x + (2 * y)"
    a, b = rng.randint(0, 5), rng.randint(1, 5)

    def step(u: int, v: int) -> tuple[int, int]:
        return u + coef * v, u

    u1, v1 = step(a, b)
    u2, v2 = step(u1, v1)
    small = f"loop2({f}, x, x, {lit(a)}, {lit(b)})"
    fast = (
        f"if x <= 0 then {lit(a)} else if x - 1 <= 0 then {lit(u1)} "
        f"else loop2({f}, x, x - 2, {lit(u2)}, {lit(v2)})"
    )
    return small, fast


def compr_pair(rng: random.Random) -> tuple[str, str]:
    k, c = rng.randint(2, 7), rng.randint(0, 5)
    bound = f"x + {lit(c)}" if c else "x"
    if rng.random() < 0.5:
        return f"compr(x mod {lit(k)}, {bound})", f"{lit(k)} * ({bound})"
    return f"compr({lit(k)} - x, {bound})", f"({bound}) + {lit(k)}"


def const_bound(rng: random.Random) -> tuple[str, str]:
    m = rng.randint(3, 30)
    return f"loop(x + y, {lit(m)}, x)", f"x + {lit(m * (m + 1) // 2)}"


def parity(rng: random.Random) -> tuple[str, str]:
    c = rng.randint(0, 9)
    return f"loop(x + (y mod 2), x, {lit(c)})", f"((x + 1) div 2) + {lit(c)}"


def split_product(rng: random.Random) -> tuple[str, str]:
    # prod_{i=1..n} k*i = k^n * n!, with n = x + d
    k, c, d = rng.randint(2, 5), rng.randint(1, 3), rng.randint(0, 3)
    n = f"x + {lit(d)}" if d else "x"
    small = f"loop({lit(k)} * (x * y), {n}, {lit(c)})"
    fast = f"loop({lit(k)} * x, {n}, {lit(c)}) * loop(x * y, {n}, 1)"
    return small, fast


def double_factorial(rng: random.Random) -> tuple[str, str]:
    # (2x-1)!! = (2x)! / (2^x x!)
    c = rng.randint(1, 9)
    small = f"loop(x * ((y + y) - 1), x, {lit(c)})"
    fast = f"({lit(c)} * loop(x * y, x + x, 1)) div (loop(x + x, x, 1) * loop(x * y, x, 1))"
    return small, fast


EQUAL_FAMILIES = {
    "closed_form": closed_form,
    "unroll": unroll,
    "loop2_shift": loop2_shift,
    "compr": compr_pair,
    "const_bound": const_bound,
    "parity": parity,
}
HEAVY_FAMILIES = {"split_product": split_product, "double_factorial": double_factorial}


def _nodes(p: Program, path: tuple[int, ...] = ()):
    yield p, path
    for i, a in enumerate(p.args):
        yield from _nodes(a, path + (i,))


def _replace(p: Program, path: tuple[int, ...], new: Program) -> Program:
    if not path:
        return new
    args = list(p.args)
    args[path[0]] = _replace(args[path[0]], path[1:], new)
    return Program(p.op, tuple(args))


_LEAVES = (Op.ZERO, Op.ONE, Op.TWO, Op.X, Op.Y)


def mutate(p: Program, rng: random.Random) -> Program:
    """One random point mutation: a leaf or a binary operator swapped."""
    node, path = rng.choice(list(_nodes(p)))
    if node.op in _LEAVES:
        op = rng.choice([o for o in _LEAVES if o != node.op])
        return _replace(p, path, Program(op))
    if node.op in BINARY_OPS:
        op = rng.choice([o for o in BINARY_OPS if o != node.op])
        return _replace(p, path, Program(op, node.args))
    # A loop: perturb its initial value.
    init = len(node.args) - (1 if node.op != Op.COMPR else 2)
    bumped = Program(Op.ADD, (node.args[init], Program(Op.ONE)))
    return _replace(p, path + (init,), bumped)


def _values(p: Program, n: int, cap: int = 500_000) -> list[int]:
    return [ref_eval(p, i, 0, cap) for i in range(n)]


def _first_difference(small: Program, fast: Program) -> int | None:
    """First index <= MUTANT_MAX_INDEX where the sides differ, both cheap."""
    for i in range(MUTANT_MAX_INDEX + 1):
        try:
            a = ref_eval(small, i, 0, MUTANT_STEP_CAP)
            b = ref_eval(fast, i, 0, MUTANT_STEP_CAP)
        except (RefLimit, RefDivZero):
            return None
        if max(abs(a), abs(b)) > MUTANT_VALUE_BOUND:
            return None
        if a != b:
            return i
    return None


def _assert_equal(small: Program, fast: Program, family: str) -> None:
    if _values(small, CHECK_POINTS) != _values(fast, CHECK_POINTS):
        raise AssertionError(f"{family}: {to_text(small)} != {to_text(fast)} on 0..99")


def generate(seed: int) -> tuple[str, str, str]:
    """(stripped, solutions.tsv, intended.tsv) texts for one seed."""
    rng = random.Random(seed)
    plan = [family for family, n in FAMILY_ROWS.items() for _ in range(n)]
    rng.shuffle(plan)
    rows: list[tuple[str, str, Program, Program]] = []  # family, status, small, fast
    for family in plan:
        if family == "mutant":
            while True:
                maker = EQUAL_FAMILIES[rng.choice(sorted(EQUAL_FAMILIES))]
                small, fast = (parse(t) for t in maker(rng))
                mutant = mutate(fast, rng)
                if depends_on(mutant, Op.Y):
                    continue
                if _first_difference(small, mutant) is not None:
                    rows.append((family, "refuted", small, mutant))
                    break
            continue
        maker = EQUAL_FAMILIES.get(family) or HEAVY_FAMILIES[family]
        small, fast = (parse(t) for t in maker(rng))
        _assert_equal(small, fast, family)
        status = "nonverified" if family in HEAVY_FAMILIES else "verified"
        rows.append((family, status, small, fast))

    stripped = ["# synthetic sequences for the loopbench benchmark corpus"]
    solutions, intended = [], []
    for i, (family, status, small, fast) in enumerate(rows):
        anum = f"A{FIRST_ANUM + i:06d}"
        n = rng.randint(20, 45)
        stripped.append(f"{anum} ,{','.join(map(str, _values(small, n)))},")
        solutions.append(f"{anum}\t{to_text(small)}\t{to_text(fast)}")
        intended.append(f"{anum}\t{family}\t{status}")

    # Duplicate pairs under new A-numbers merge into one problem.  All
    # members' terms are prefixes of one sequence, so the merged problem's
    # terms (the longest list) do not depend on row order.
    originals = [r for r in rows if r[0] in EQUAL_FAMILIES]
    for j in range(DUPLICATES):
        family, status, small, fast = rng.choice(originals)
        anum = f"A{FIRST_ANUM + len(rows) + j:06d}"
        n = rng.randint(5, 45)
        stripped.append(f"{anum} ,{','.join(map(str, _values(small, n)))},")
        solutions.append(f"{anum}\t{to_text(small)}\t{to_text(fast)}")
        intended.append(f"{anum}\t{family}\t{status}")

    def text(lines: list[str]) -> str:
        return "".join(line + "\n" for line in lines)

    return text(stripped), text(solutions), text(intended)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=SEED)
    ap.add_argument("--outdir", type=Path, default=HERE / "corpus")
    args = ap.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    names = ("stripped", "solutions.tsv", "intended.tsv")
    for name, body in zip(names, generate(args.seed)):
        (args.outdir / name).write_text(body)
    print(f"corpus for seed {args.seed} -> {args.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
