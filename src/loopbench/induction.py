"""Filters estimating whether a problem is amenable to induction.

Both filters look at the problem's top-level loops: looping subprograms
not nested inside another looping occurrence, whose exact formulation
appears only once across the two sides combined.  The syntactic test
checks variable dependence of the loop's pieces; the semantic test
additionally requires sampled value windows to be free of short cycles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .interp import Budget, EvalConfig, DEFAULT_CONFIG, evaluate
from .lang import LOOPING_OPS, Op, Program, depends_on, looping_subprograms, subprograms
from .oeis import ProblemRecord

WINDOW = 40
CYCLE_SKIP = 9  # indices before this are ignored by the cycle test
MAX_PERIOD = 15
SWEEP = 10  # values of the off-axis variable


class Side(Enum):
    SMALL = "small"
    FAST = "fast"


@dataclass(frozen=True)
class TopLoop:
    subprogram: Program
    side: Side
    path: tuple[int, ...]


def select_top_loops(small: Program, fast: Program) -> list[TopLoop]:
    """Outermost looping occurrences whose shape is unique problem-wide.

    An occurrence nested (at any argument position) inside another
    looping occurrence is not top-level.  Occurrence counting for the
    uniqueness requirement runs over every subterm of both sides, nested
    ones included.
    """
    occurrence_count: Counter[Program] = Counter()
    for side_prog in (small, fast):
        occurrence_count.update(s for s in subprograms(side_prog) if s.op in LOOPING_OPS)

    tops: list[TopLoop] = []
    for side, side_prog in ((Side.SMALL, small), (Side.FAST, fast)):
        loops = looping_subprograms(side_prog)
        loop_paths = [path for _, path in loops]
        for sub, path in loops:
            nested = any(
                len(other) < len(path) and path[: len(other)] == other
                for other in loop_paths
            )
            if nested:
                continue
            if occurrence_count[sub] != 1:
                continue
            tops.append(TopLoop(sub, side, path))
    return tops


def syntactic_test(p: Program) -> bool:
    """Dependence shape that makes a loop look induction-friendly.

    loop(f, a, b): a and f must depend on x.
    loop2(f, g, a, b, c): a must depend on x, and f or g on both x and y.
    compr(f, a): a must depend on x.
    """
    if p.op == Op.LOOP:
        f, a, _ = p.args
        return depends_on(a, Op.X) and depends_on(f, Op.X)
    if p.op == Op.LOOP2:
        f, g, a, _, _ = p.args
        full_state = (depends_on(f, Op.X) and depends_on(f, Op.Y)) or (
            depends_on(g, Op.X) and depends_on(g, Op.Y)
        )
        return depends_on(a, Op.X) and full_state
    if p.op == Op.COMPR:
        _, a = p.args
        return depends_on(a, Op.X)
    raise ValueError(f"not a looping operator: {p.op.name}")


def is_acyclic_window(values: list[int]) -> bool:
    """Cycle check on a 40-value window.

    The window is cyclic iff some period p in 1..15 repeats over the
    tail: values[i] == values[i+p] for every i with 9 <= i <= 39-p.
    """
    if len(values) != WINDOW:
        raise ValueError(f"window must have {WINDOW} values, got {len(values)}")
    tail = values[CYCLE_SKIP:]
    for period in range(1, MAX_PERIOD + 1):
        if tail[:-period] == tail[period:]:
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
    whose negative values a loop treats as 0.
    """
    if axis not in (Op.X, Op.Y):
        raise ValueError("axis must be Op.X or Op.Y")
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
    """Sampled-behavior counterpart of syntactic_test for one loop."""
    if p.op == Op.LOOP:
        f, a, _ = p.args
        return (
            acyclic_on(a, Op.X, map_negatives=True, cfg=cfg)
            and acyclic_on(f, Op.X, cfg=cfg)
            and acyclic_on(p, Op.X, cfg=cfg)
        )
    if p.op == Op.LOOP2:
        f, g, a, _, _ = p.args
        if not acyclic_on(a, Op.X, map_negatives=True, cfg=cfg):
            return False
        full_state = (
            acyclic_on(f, Op.X, cfg=cfg) and acyclic_on(f, Op.Y, cfg=cfg)
        ) or (acyclic_on(g, Op.X, cfg=cfg) and acyclic_on(g, Op.Y, cfg=cfg))
        return full_state and acyclic_on(p, Op.X, cfg=cfg)
    if p.op == Op.COMPR:
        _, a = p.args
        return acyclic_on(a, Op.X, map_negatives=True, cfg=cfg) and acyclic_on(
            p, Op.X, cfg=cfg
        )
    raise ValueError(f"not a looping operator: {p.op.name}")


def classify(
    problem: ProblemRecord,
    cfg: EvalConfig = DEFAULT_CONFIG,
    mode: str = "per-loop",
) -> tuple[bool, bool]:
    """(syn_pass, sem_pass) for a problem.

    In the default per-loop mode a single loop must pass both tests for
    sem_pass; in per-test mode different loops may satisfy each test.
    Either way sem_pass implies syn_pass.
    """
    if mode not in ("per-loop", "per-test"):
        raise ValueError(f"unknown filter mode {mode!r}")
    tops = select_top_loops(problem.small, problem.fast)
    syn_flags = [syntactic_test(t.subprogram) for t in tops]
    syn = any(syn_flags)
    if not syn:
        return False, False
    if mode == "per-loop":
        sem = any(
            flag and semantic_test(top.subprogram, cfg)
            for top, flag in zip(tops, syn_flags)
        )
    else:
        sem = any(semantic_test(top.subprogram, cfg) for top in tops)
    return syn, sem


def classify_all(
    problems: list[ProblemRecord],
    cfg: EvalConfig = DEFAULT_CONFIG,
    mode: str = "per-loop",
) -> tuple[list[str], list[str]]:
    """Classify a manifest in place; returns (syn ids, sem ids) sorted.

    Refuted problems are not part of the released benchmark and are
    skipped.
    """
    syn_ids, sem_ids = [], []
    for problem in problems:
        if problem.status == "refuted":
            continue
        syn, sem = classify(problem, cfg, mode)
        problem.syn_pass, problem.sem_pass = syn, sem
        if syn:
            syn_ids.append(problem.id)
        if sem:
            sem_ids.append(problem.id)
    return sorted(syn_ids), sorted(sem_ids)


def write_manifest(ids: list[str], path: str | Path) -> None:
    Path(path).write_text("".join(i + "\n" for i in sorted(ids)))


def read_manifest(path: str | Path) -> list[str]:
    return [line.strip() for line in Path(path).read_text().splitlines() if line.strip()]
