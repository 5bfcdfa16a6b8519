"""Filters estimating whether a problem is amenable to induction.

Both filters look at the problem's top-level loops: looping subprograms
not nested inside another looping occurrence, whose exact formulation
appears only once across the two sides combined.  They ask one shape
of a loop: its bound must vary with x, and for loop its body, for
loop2 one of its two bodies, must vary with x (and with y for loop2).
The syntactic test reads "varies" as variable dependence; the semantic
test as sampled value windows free of short cycles, and it also asks
the loop's own windows along x to be acyclic.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from .interp import Budget, EvalConfig, DEFAULT_CONFIG, evaluate
from .lang import LOOPING_OPS, Op, Program, depends_on, subprograms
from .oeis import ProblemRecord, read_text

WINDOW = 40
CYCLE_SKIP = 9  # indices before this are ignored by the cycle test
MAX_PERIOD = 15
SWEEP = 10  # values of the off-axis variable


def select_top_loops(small: Program, fast: Program) -> list[Program]:
    """Outermost looping occurrences whose shape is unique problem-wide,
    in preorder, small's before fast's.

    An occurrence nested (at any argument position) inside another
    looping occurrence is not top-level, so each side is walked in
    preorder down to its first looping operators only.  Occurrence
    counting for the uniqueness requirement runs over every subterm of
    both sides, nested ones included.
    """
    sides = (small, fast)
    occurrence_count = Counter(
        s for p in sides for s in subprograms(p) if s.op in LOOPING_OPS
    )
    tops: list[Program] = []

    def walk(p: Program) -> None:
        if p.op not in LOOPING_OPS:
            for a in p.args:
                walk(a)
        elif occurrence_count[p] == 1:
            tops.append(p)

    for p in sides:
        walk(p)
    return tops


def _loop_shape(p: Program, bound_ok, body_ok) -> bool:
    """The filters' shape, with bound_ok(bound) and body_ok(body, variable)
    deciding what "varies" means.  The bound is asked first, then f before
    g and x before y, and nothing more once the answer is known."""
    if p.op == Op.LOOP:
        f, a, _ = p.args
        return bound_ok(a) and body_ok(f, Op.X)
    if p.op == Op.LOOP2:
        f, g, a, _, _ = p.args
        return bound_ok(a) and (
            (body_ok(f, Op.X) and body_ok(f, Op.Y)) or (body_ok(g, Op.X) and body_ok(g, Op.Y))
        )
    if p.op == Op.COMPR:
        return bound_ok(p.args[1])
    raise ValueError(f"not a looping operator: {p.op.name}")


def syntactic_test(p: Program) -> bool:
    """The loop shape, by variable dependence."""
    return _loop_shape(p, lambda a: depends_on(a, Op.X), depends_on)


def is_acyclic_window(values: list[int]) -> bool:
    """Cycle check on a 40-value window.

    The window is cyclic iff some period p in 1..15 repeats over the
    tail: values[i] == values[i+p] for every i with 9 <= i <= 39-p.
    """
    if len(values) != WINDOW:
        raise ValueError(f"window must have {WINDOW} values, got {len(values)}")
    tail = values[CYCLE_SKIP:]
    for period in range(1, MAX_PERIOD + 1):
        # The first pair must repeat too, and most periods fail there.
        if tail[period] == tail[0] and tail[:-period] == tail[period:]:
            return False
    return True


def acyclic_on(
    p: Program,
    axis: Op,
    map_negatives: bool = False,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> bool:
    """True iff p's sampled windows along axis are all acyclic.

    For each value of the off-axis variable in 0..9, p is evaluated at
    40 points along the axis with carried-over budgets, like sequence
    generation.  Any execution error fails the check.  map_negatives
    clamps sampled values at 0 first; it is used for bound subprograms,
    whose negative values a loop treats as 0.  It evaluates a copy of p,
    so the evaluator state of its runs goes when it returns.
    """
    if axis not in (Op.X, Op.Y):
        raise ValueError("axis must be Op.X or Op.Y")
    p = p._replace()
    along_x = axis == Op.X
    limit = cfg.per_call_limit
    budget = Budget(0)
    for other in range(SWEEP):
        window: list[int] = []
        budget.remaining = 0
        for i in range(WINDOW):
            budget.remaining += limit
            if along_x:
                outcome = evaluate(p, i, other, budget, cfg)
            else:
                outcome = evaluate(p, other, i, budget, cfg)
            if outcome.error is not None:
                return False
            value = outcome.value
            window.append(0 if map_negatives and value < 0 else value)
        if not is_acyclic_window(window):
            return False
    return True


def semantic_test(p: Program, cfg: EvalConfig = DEFAULT_CONFIG) -> bool:
    """The loop shape, by acyclic windows (the bound's negative values
    clamped at 0), and then the loop itself acyclic along x."""
    # Look acyclic_on up at each call: the benchmark's tracer wraps it.
    return _loop_shape(
        p,
        lambda a: acyclic_on(a, Op.X, map_negatives=True, cfg=cfg),
        lambda f, axis: acyclic_on(f, axis, cfg=cfg),
    ) and acyclic_on(p, Op.X, cfg=cfg)


def classify(problem: ProblemRecord, cfg: EvalConfig = DEFAULT_CONFIG) -> tuple[bool, bool]:
    """(syn_pass, sem_pass) for a problem: syn_pass when a top loop passes
    the syntactic test, sem_pass when one of those loops also passes the
    semantic test.
    """
    syn_loops = [p for p in select_top_loops(problem.small, problem.fast) if syntactic_test(p)]
    return bool(syn_loops), any(semantic_test(p, cfg) for p in syn_loops)


def classify_all(
    problems: list[ProblemRecord], cfg: EvalConfig = DEFAULT_CONFIG
) -> list[ProblemRecord]:
    """Classify a manifest: copies of the problems with their syn_pass
    and sem_pass flags set, in manifest order; the given records are
    left as they are, their programs' evaluator state included.
    Refuted problems are not part of the released benchmark and come
    back as given, stale flags included."""
    classified = []
    for problem in problems:
        if problem.released:
            syn, sem = classify(problem, cfg)
            problem = problem._replace(syn_pass=syn, sem_pass=sem)
        classified.append(problem)
    return classified


def write_manifest(ids: list[str], path: str | Path) -> None:
    Path(path).write_text("".join(i + "\n" for i in sorted(ids)))


def read_manifest(path: str | Path) -> list[str]:
    return [line.strip() for line in read_text(path).splitlines() if line.strip()]
