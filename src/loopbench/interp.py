"""Evaluator for loop programs with an abstract-time cost model.

Evaluation is exact bigint arithmetic.  div and mod follow floor
semantics: the quotient rounds toward negative infinity and the
remainder takes the divisor's sign.

Every first-order operator application is charged abstract time: 5 units
for div and mod, 1 unit for everything else, constants and variable
reads included.  When an application produces a value whose magnitude
exceeds 2^64, the charge becomes the decimal digit count of the value
instead, squared for mul/div/mod (their work grows quadratically with
operand size), so that runs on fast-growing sequences pay for the bignum
arithmetic they cause.  Each unfolding step of a loop, loop2 or compr
recursion adds one unit of control overhead, which guarantees diverging
iterations exhaust the budget.  Producing a value with magnitude above
the value bound of 10^285 aborts the run instead.  The two bounds are
constants of the cost model, VALUE_BOUND and BIG_VALUE_THRESHOLD; an
EvalConfig holds only the per-call limit.

A program is compiled on first use into nested closures, one per
operator node, each called as run(x, y, budget).  A closure checks the
value bound before it charges, raises division by zero before it
charges, and a timeout leaves the budget at 0, so the outcome of a run,
its cost included, does not depend on how the program is executed.  The
compiled closures are kept on the program object itself, in one entry
stored on first use and shared by every EvalConfig.  The entry is not
part of the program's value: programs compare, hash and pickle by their
syntax alone.

Each call returns an EvalOutcome, a named tuple of the value (None on an
error), the cost charged and the error kind (None on success).

Each loop2 and compr closure remembers its last successful run: its
initial values, the number of steps (for compr, the index of the hit it
returned), the state they reached and their cost.  A loop closure keeps
two such records, its last successful run from each of its two most
recent distinct initial values, so a loop whose initial value alternates
with the parity of x, as in loop(f, x div 2, loop(g, x mod 2, c)),
resumes from its own record too.  A later run with an initial value
equal to a record's that needs at least as many steps or hits charges
the recorded cost in one step and goes on from the recorded state, so a
sweep over x = 0, 1, 2, ... does not recompute every prefix.  The replay
is exact for three reasons: a loop body sees only its own state and step
index, so a prefix's values and cost depend only on the initial values
(and so do not depend on which record, or how many, a closure keeps);
a successful prefix neither overflows nor divides by zero, so under a
smaller budget it can only time out; and a timeout leaves the budget at
0 whether its cost is charged step by step or at once.  Each record is
published as one tuple, so threads sharing a program never see half of
one.

At compilation, evaluate also notes whether p reads x and y outside its
loop bodies.  A call at a point where a variable p does not read is
nonzero runs exactly as the call with that variable set to 0, so such a
call replays the stored outcome of that point: if its cost fits the
budget, it charges the cost and returns that same outcome, and otherwise
it times out with the whole budget, for the reasons above.  Only
successes at such points are stored, so a sequence or a verify sweep,
which keeps y = 0, stores nothing, while the filter's windows along x at
y = 1..9 are run once for a program that ignores y.

The compiled code, its loop records and the stored points live as long
as the program, or until release drops them from a program and its
subprograms.  verify100 and classify release the two programs of the
problem they check before they return, so a manifest keeps the code of
one problem at a time.  A released program compiles again when it is
next evaluated, and since every replay is exact, no outcome depends on
what was released.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cache
from typing import Callable, NamedTuple

from .lang import Op, Program, depends_on, subprograms

CHECK_LIMIT = 100_000
VERIFY_LIMIT = 1_000_000
VALUE_BOUND = 10**285
BIG_VALUE_THRESHOLD = 2**64


class ErrorKind(Enum):
    TIMEOUT = "timeout"
    OVERFLOW = "overflow"
    DIV_BY_ZERO = "div_by_zero"


class _Limits(NamedTuple):
    per_call_limit: int


class EvalConfig(_Limits):
    def __new__(cls, per_call_limit: int = CHECK_LIMIT) -> EvalConfig:
        if per_call_limit < 0:
            raise ValueError("per_call_limit must not be negative")
        return tuple.__new__(cls, (per_call_limit,))

    @classmethod
    def _make(cls, fields) -> EvalConfig:
        # _replace builds its copy here: check it as a new config.
        return cls(*fields)


DEFAULT_CONFIG = EvalConfig()
VERIFY_CONFIG = EvalConfig(per_call_limit=VERIFY_LIMIT)


class _Fail(Exception):
    def __init__(self, kind: ErrorKind):
        self.kind = kind


class Budget:
    """Remaining abstract time for one or more evaluator calls."""

    __slots__ = ("remaining",)

    def __init__(self, remaining: int):
        self.remaining = remaining


class EvalOutcome(NamedTuple):
    value: int | None
    cost: int
    error: ErrorKind | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


# Builds an outcome from a (value, cost, error) tuple without the extra
# Python call of the generated __new__; evaluate returns one per call.
_outcome = tuple.__new__


# Digit counts.

_LOG10_2 = math.log10(2)


@cache
def _digit_range(bits: int) -> tuple[int, int]:
    """(k+1, 10^(k+1)) for values of this bit length; see _digit_count."""
    k = int((bits - 1) * _LOG10_2)
    return k + 1, 10 ** (k + 1)


def _digit_count(m: int) -> int:
    """Number of decimal digits of m >= 0, without converting m to text.

    m has b = m.bit_length() bits, so 2^(b-1) <= m < 2^b, and with
    k = floor((b-1) * log10 2) it has k+1 or k+2 digits: k+2 exactly when
    m >= 10^(k+1).  The product is computed in floating point; its floor
    matches exact arithmetic for every b below 2,000,000, far past
    VALUE_BOUND's 947 bits and the oversized timeouts SolverSpec reports.
    For m = 0, int() rounds -log10 2 toward zero, so k = 0 and the count
    is 1.  Both bounds are cached per bit length.
    """
    low, power = _digit_range(m.bit_length())
    return low + (m >= power)


# Compilation to closures.

_Run = Callable[[int, int, Budget], int]


def _timeout(budget: Budget) -> None:
    budget.remaining = 0
    raise _Fail(ErrorKind.TIMEOUT)


def _charge_big(value: int, quadratic: bool, budget: Budget) -> None:
    """Check and charge a value outside the small range of the closures,
    |value| <= BIG_VALUE_THRESHOLD: it either overflows or costs its digits."""
    magnitude = abs(value)
    if magnitude > VALUE_BOUND:
        raise _Fail(ErrorKind.OVERFLOW)
    cost = _digit_count(magnitude)
    if quadratic:
        cost *= cost
    r = budget.remaining - cost
    if r < 0:
        _timeout(budget)
    budget.remaining = r


# _charge_big and the closures below repeat one inline charge,
#     r = budget.remaining - cost; if r < 0: _timeout(budget)
#     budget.remaining = r
# rather than calling a helper for it: it runs once per operator node.


def _leaves() -> dict[Op, _Run]:
    """Closures for the five leaves, shared by every compiled program."""
    # small and neg are closure cells: a cell reads faster than a global.
    small = BIG_VALUE_THRESHOLD
    neg = -small

    def read_x(x: int, y: int, budget: Budget) -> int:
        if neg <= x <= small:
            r = budget.remaining - 1
            if r < 0:
                _timeout(budget)
            budget.remaining = r
        else:
            _charge_big(x, False, budget)
        return x

    def read_y(x: int, y: int, budget: Budget) -> int:
        if neg <= y <= small:
            r = budget.remaining - 1
            if r < 0:
                _timeout(budget)
            budget.remaining = r
        else:
            _charge_big(y, False, budget)
        return y

    def constant(c: int) -> _Run:
        # The literals 0, 1 and 2 are always small.
        def run(x: int, y: int, budget: Budget) -> int:
            r = budget.remaining - 1
            if r < 0:
                _timeout(budget)
            budget.remaining = r
            return c

        return run

    return {
        Op.ZERO: constant(0),
        Op.ONE: constant(1),
        Op.TWO: constant(2),
        Op.X: read_x,
        Op.Y: read_y,
    }


_LEAVES = _leaves()


def _compile(p: Program) -> _Run:
    """Closure computing p with the exact charges of the cost model.

    Operands run left to right, each node checks and charges its own
    result after its operands, and loop steps charge one unit before
    their body runs.
    """
    small = BIG_VALUE_THRESHOLD  # closure cells, as in _leaves
    neg = -small

    def build(q: Program) -> _Run:
        op = q.op
        leaf = _LEAVES.get(op)
        if leaf is not None:
            return leaf
        args = [build(a) for a in q.args]

        if op == Op.ADD:
            fa, fb = args

            def run(x: int, y: int, budget: Budget) -> int:
                v = fa(x, y, budget) + fb(x, y, budget)
                if neg <= v <= small:
                    r = budget.remaining - 1
                    if r < 0:
                        _timeout(budget)
                    budget.remaining = r
                else:
                    _charge_big(v, False, budget)
                return v

        elif op == Op.SUB:
            fa, fb = args

            def run(x: int, y: int, budget: Budget) -> int:
                v = fa(x, y, budget) - fb(x, y, budget)
                if neg <= v <= small:
                    r = budget.remaining - 1
                    if r < 0:
                        _timeout(budget)
                    budget.remaining = r
                else:
                    _charge_big(v, False, budget)
                return v

        elif op == Op.MUL:
            fa, fb = args

            def run(x: int, y: int, budget: Budget) -> int:
                v = fa(x, y, budget) * fb(x, y, budget)
                if neg <= v <= small:
                    r = budget.remaining - 1
                    if r < 0:
                        _timeout(budget)
                    budget.remaining = r
                else:
                    _charge_big(v, True, budget)
                return v

        elif op == Op.DIV:
            fa, fb = args

            def run(x: int, y: int, budget: Budget) -> int:
                a = fa(x, y, budget)
                b = fb(x, y, budget)
                if b == 0:
                    raise _Fail(ErrorKind.DIV_BY_ZERO)
                v = a // b
                if neg <= v <= small:
                    r = budget.remaining - 5
                    if r < 0:
                        _timeout(budget)
                    budget.remaining = r
                else:
                    _charge_big(v, True, budget)
                return v

        elif op == Op.MOD:
            fa, fb = args

            def run(x: int, y: int, budget: Budget) -> int:
                a = fa(x, y, budget)
                b = fb(x, y, budget)
                if b == 0:
                    raise _Fail(ErrorKind.DIV_BY_ZERO)
                v = a % b
                if neg <= v <= small:
                    r = budget.remaining - 5
                    if r < 0:
                        _timeout(budget)
                    budget.remaining = r
                else:
                    _charge_big(v, True, budget)
                return v

        elif op == Op.COND:
            fa, fb, fc = args

            def run(x: int, y: int, budget: Budget) -> int:
                if fa(x, y, budget) <= 0:
                    v = fb(x, y, budget)
                else:
                    v = fc(x, y, budget)
                if neg <= v <= small:
                    r = budget.remaining - 1
                    if r < 0:
                        _timeout(budget)
                    budget.remaining = r
                else:
                    _charge_big(v, False, budget)
                return v

        elif op == Op.LOOP:
            ff, fa, fb = args
            # (init, steps, acc, cost) of the last successful run from
            # the most recent initial value, and from the one before it.
            memo = older = None

            def run(x: int, y: int, budget: Budget) -> int:
                nonlocal memo, older
                n = fa(x, y, budget)
                init = fb(x, y, budget)
                mark = budget.remaining
                acc, done = init, 0
                m = memo
                if m is not None and m[0] != init:
                    m = older
                if m is not None and m[1] <= n and m[0] == init:
                    _, done, acc, cost = m
                    r = budget.remaining - cost
                    if r < 0:
                        _timeout(budget)
                    budget.remaining = r
                for i in range(done + 1, n + 1):
                    r = budget.remaining - 1
                    if r < 0:
                        _timeout(budget)
                    budget.remaining = r
                    acc = ff(acc, i, budget)
                if n > done:
                    m = memo
                    if m is not None and m[0] != init:
                        older = m
                    memo = (init, n, acc, mark - budget.remaining)
                return acc

        elif op == Op.LOOP2:
            ff, fg, fa, fb, fc = args
            # (u0, v0, full_steps, u, v, cost) of the last successful run
            # of full steps, those that update both components.
            memo = None

            def run(x: int, y: int, budget: Budget) -> int:
                nonlocal memo
                n = fa(x, y, budget)
                u0 = fb(x, y, budget)
                v0 = fc(x, y, budget)
                if n <= 0:
                    return u0
                mark = budget.remaining
                u, v, done = u0, v0, 0
                m = memo
                if m is not None and m[2] < n and m[0] == u0 and m[1] == v0:
                    _, _, done, u, v, cost = m
                    r = budget.remaining - cost
                    if r < 0:
                        _timeout(budget)
                    budget.remaining = r
                for _ in range(done, n - 1):
                    r = budget.remaining - 1
                    if r < 0:
                        _timeout(budget)
                    budget.remaining = r
                    u, v = ff(u, v, budget), fg(u, v, budget)
                if n - 1 > done:
                    memo = (u0, v0, n - 1, u, v, mark - budget.remaining)
                # The final step only needs the first component.
                r = budget.remaining - 1
                if r < 0:
                    _timeout(budget)
                budget.remaining = r
                return ff(u, v, budget)

        elif op == Op.COMPR:
            ff, fa = args
            # (hit_index, candidate, cost) of the last successful run.
            memo = None

            def run(x: int, y: int, budget: Budget) -> int:
                # The n-th candidate c (from 0) with f(c, 0) <= 0.  Every
                # candidate tried costs one unit, and so does each hit
                # after which the search goes on.
                nonlocal memo
                more = fa(x, y, budget)
                target = more if more > 0 else 0
                mark = budget.remaining
                hits = c = 0
                m = memo
                if m is not None and m[0] <= target:
                    hits, c, cost = m
                    r = budget.remaining - cost
                    if r < 0:
                        _timeout(budget)
                    budget.remaining = r
                    if hits == target:
                        return c
                    r = budget.remaining - 1
                    if r < 0:
                        _timeout(budget)
                    budget.remaining = r
                    hits += 1
                    c += 1
                while True:
                    r = budget.remaining - 1
                    if r < 0:
                        _timeout(budget)
                    budget.remaining = r
                    if ff(c, 0, budget) <= 0:
                        if hits == target:
                            memo = (hits, c, mark - budget.remaining)
                            return c
                        hits += 1
                        r = budget.remaining - 1
                        if r < 0:
                            _timeout(budget)
                        budget.remaining = r
                    c += 1

        else:
            raise AssertionError(f"unhandled operator {op}")
        return run

    return build(p)


def evaluate(
    p: Program,
    x: int,
    y: int = 0,
    budget: Budget | None = None,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> EvalOutcome:
    """Evaluate p at (x, y) against a budget (a fresh one if not given)."""
    if budget is None:
        budget = Budget(cfg.per_call_limit)
    try:
        run, reads_x, reads_y, points = p._code
    except AttributeError:
        # First use of p.  Threads compiling p at once all keep the first
        # entry stored.
        entry = (_compile(p), depends_on(p, Op.X), depends_on(p, Op.Y), {})
        run, reads_x, reads_y, points = p.__dict__.setdefault("_code", entry)
    start = budget.remaining
    point = None
    if (y and not reads_y) or (x and not reads_x):
        # p does not read a nonzero variable, so it runs as at the point
        # with that variable set to 0: replay that point if it succeeded.
        # Points are keyed by the variable p reads, or by 0 if none.
        point = x if reads_x else y if reads_y else 0
        known = points.get(point)
        if known is not None:
            if known.cost > start:
                budget.remaining = 0
                return _outcome(EvalOutcome, (None, start, ErrorKind.TIMEOUT))
            budget.remaining = start - known.cost
            return known
    try:
        value = run(x, y, budget)
    except _Fail as failure:
        return _outcome(EvalOutcome, (None, start - budget.remaining, failure.kind))
    outcome = _outcome(EvalOutcome, (value, start - budget.remaining, None))
    if point is not None:
        points[point] = outcome
    return outcome


def release(*programs: Program) -> None:
    """Drop the evaluator state kept on these programs and on every
    subprogram of theirs: compiled code, loop memos and stored points."""
    for p in programs:
        for q in subprograms(p):
            q.__dict__.pop("_code", None)


def generate_seq(p: Program, n: int, cfg: EvalConfig = DEFAULT_CONFIG) -> list[EvalOutcome]:
    """Evaluate p at (0,0) .. (n-1,0), carrying unused budget forward.

    Call i is granted per_call_limit plus whatever earlier calls left
    unspent.  Generation stops at the first error, which is included as
    the final outcome.
    """
    outcomes: list[EvalOutcome] = []
    limit = cfg.per_call_limit
    budget = Budget(0)
    for i in range(n):
        budget.remaining += limit
        outcome = evaluate(p, i, 0, budget, cfg)
        outcomes.append(outcome)
        if outcome.error is not None:
            break
    return outcomes
