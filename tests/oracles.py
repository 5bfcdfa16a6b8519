"""Independent oracles used by the test suite.

Everything here is deliberately written from the definitions rather than
imported from the package under test: a naive recursive interpreter, a
free-variable computation, a slicing-based cycle detector, the induction
filters restated over those three, a random program generator, a census
of node objects, a standalone SMT-LIB surface checker, and a direct
evaluator of lowered definitions.  The
exceptions are the types the cost oracle and the definition evaluator
take and return, and the table of loop body slots that free_vars reads.
The cost oracle, a tree-walking evaluator that charges the cost model
node by node, keeps its count in the package's Budget but states the
timeout rule itself (_charge): a cost that does not fit times out and
leaves the budget at 0.

For a fixed program, cost_eval is a pure function of (x, y, config,
starting budget), and the budget it leaves is the start less the cost.
The interpreter tests' differential driver relies on that: it draws each
pool of random programs once, runs every sweep schedule on them, and
keeps one memo of cost_eval outcomes per drawn program, so that a call
repeated under the same key is compared with the walk already made.
"""

from __future__ import annotations

import random
import string

from hypothesis import strategies as st

from loopbench.interp import (
    DEFAULT_CONFIG,
    Budget,
    ErrorKind,
    EvalConfig,
    EvalOutcome,
    _Fail,
)
from loopbench.lang import BODY_SLOTS, Op, Program
from loopbench.smt import LoweredDef, Sexp


class RefLimit(Exception):
    """The reference interpreter exceeded its step allowance."""


class RefDivZero(Exception):
    pass


def ref_eval(p: Program, x: int, y: int, cap: int = 500_000) -> int:
    """Value of p at (x, y) by direct recursion on the defining equations.

    No cost model: the step cap only guards the test process against
    divergence.  Raises RefLimit when the cap is hit and RefDivZero on a
    zero divisor.
    """
    steps = [0]

    def go(q: Program, x: int, y: int) -> int:
        steps[0] += 1
        if steps[0] > cap:
            raise RefLimit
        op = q.op
        if op == Op.ZERO:
            return 0
        if op == Op.ONE:
            return 1
        if op == Op.TWO:
            return 2
        if op == Op.X:
            return x
        if op == Op.Y:
            return y
        a = q.args
        if op == Op.ADD:
            return go(a[0], x, y) + go(a[1], x, y)
        if op == Op.SUB:
            return go(a[0], x, y) - go(a[1], x, y)
        if op == Op.MUL:
            return go(a[0], x, y) * go(a[1], x, y)
        if op in (Op.DIV, Op.MOD):
            num, den = go(a[0], x, y), go(a[1], x, y)
            if den == 0:
                raise RefDivZero
            return num // den if op == Op.DIV else num % den
        if op == Op.COND:
            return go(a[1], x, y) if go(a[0], x, y) <= 0 else go(a[2], x, y)
        if op == Op.LOOP:
            body, bound, init = a
            n = go(bound, x, y)
            acc = go(init, x, y)
            for i in range(1, n + 1):
                steps[0] += 1
                if steps[0] > cap:
                    raise RefLimit
                acc = go(body, acc, i)
            return acc
        if op == Op.LOOP2:
            body1, body2, bound, init1, init2 = a
            n = go(bound, x, y)
            u = go(init1, x, y)
            v = go(init2, x, y)
            # The result is the first component, so the second body is
            # never run on the last step.
            for _ in range(n - 1):
                steps[0] += 1
                if steps[0] > cap:
                    raise RefLimit
                u, v = go(body1, u, v), go(body2, u, v)
            if n >= 1:
                u = go(body1, u, v)
            return u
        if op == Op.COMPR:
            body, bound = a
            hits_needed = max(go(bound, x, y), 0) + 1
            c = 0
            while True:
                steps[0] += 1
                if steps[0] > cap:
                    raise RefLimit
                if go(body, c, 0) <= 0:
                    hits_needed -= 1
                    if hits_needed == 0:
                        return c
                c += 1
        raise AssertionError(f"unhandled operator {op}")

    return go(p, x, y)


# Cost oracle: the evaluator as a direct walk over the syntax tree.

_COSTLY = (Op.DIV, Op.MOD)
_QUADRATIC = (Op.MUL, Op.DIV, Op.MOD)
# The cost model's two bounds, spelled here rather than imported, so that
# a wrong constant in the package shows.
_VALUE_BOUND = 10**285
_BIG_VALUE_THRESHOLD = 2**64


def _charge(budget: Budget, cost: int) -> None:
    """Take cost from the budget, or time out leaving it at 0."""
    if cost > budget.remaining:
        budget.remaining = 0
        raise _Fail(ErrorKind.TIMEOUT)
    budget.remaining -= cost


def _produce(op: Op, value: int, budget: Budget) -> int:
    """Charge for one first-order application returning value."""
    magnitude = abs(value)
    if magnitude > _VALUE_BOUND:
        raise _Fail(ErrorKind.OVERFLOW)
    if magnitude > _BIG_VALUE_THRESHOLD:
        digits = len(str(magnitude))
        cost = digits * digits if op in _QUADRATIC else digits
    else:
        cost = 5 if op in _COSTLY else 1
    _charge(budget, cost)
    return value


def _eval(p: Program, x: int, y: int, budget: Budget) -> int:
    op = p.op
    if op == Op.ZERO:
        return _produce(op, 0, budget)
    if op == Op.ONE:
        return _produce(op, 1, budget)
    if op == Op.TWO:
        return _produce(op, 2, budget)
    if op == Op.X:
        return _produce(op, x, budget)
    if op == Op.Y:
        return _produce(op, y, budget)

    if op in (Op.ADD, Op.SUB, Op.MUL):
        a = _eval(p.args[0], x, y, budget)
        b = _eval(p.args[1], x, y, budget)
        if op == Op.ADD:
            v = a + b
        elif op == Op.SUB:
            v = a - b
        else:
            v = a * b
        return _produce(op, v, budget)

    if op in (Op.DIV, Op.MOD):
        a = _eval(p.args[0], x, y, budget)
        b = _eval(p.args[1], x, y, budget)
        if b == 0:
            raise _Fail(ErrorKind.DIV_BY_ZERO)
        v = a // b if op == Op.DIV else a % b
        return _produce(op, v, budget)

    if op == Op.COND:
        guard = _eval(p.args[0], x, y, budget)
        taken = p.args[1] if guard <= 0 else p.args[2]
        v = _eval(taken, x, y, budget)
        return _produce(op, v, budget)

    if op == Op.LOOP:
        f, a, b = p.args
        n = _eval(a, x, y, budget)
        acc = _eval(b, x, y, budget)
        for i in range(1, n + 1):
            _charge(budget, 1)
            acc = _eval(f, acc, i, budget)
        return acc

    if op == Op.LOOP2:
        f, g, a, b, c = p.args
        n = _eval(a, x, y, budget)
        u = _eval(b, x, y, budget)
        v = _eval(c, x, y, budget)
        if n <= 0:
            return u
        for _ in range(n - 1):
            _charge(budget, 1)
            u, v = _eval(f, u, v, budget), _eval(g, u, v, budget)
        # The final step only needs the first component.
        _charge(budget, 1)
        return _eval(f, u, v, budget)

    if op == Op.COMPR:
        f, a = p.args
        n = _eval(a, x, y, budget)

        def search(start: int) -> int:
            c = start
            while True:
                _charge(budget, 1)
                if _eval(f, c, 0, budget) <= 0:
                    return c
                c += 1

        cur = search(0)
        for _ in range(1, n + 1):
            _charge(budget, 1)
            cur = search(cur + 1)
        return cur

    raise AssertionError(f"unhandled operator {op}")


def cost_eval(
    p: Program,
    x: int,
    y: int = 0,
    budget: Budget | None = None,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> EvalOutcome:
    """evaluate() by walking p: same value, cost and error kind."""
    if budget is None:
        budget = Budget(cfg.per_call_limit)
    start = budget.remaining
    try:
        value = _eval(p, x, y, budget)
    except _Fail as failure:
        return EvalOutcome(None, start - budget.remaining, failure.kind)
    return EvalOutcome(value, start - budget.remaining)


def free_vars(p: Program) -> set[Op]:
    """Variables p reads from its enclosing scope.

    Occurrences inside a looping operator's body arguments refer to the
    loop's own state, not the outer variables.
    """
    if p.op in (Op.X, Op.Y):
        return {p.op}
    bound_slots = BODY_SLOTS.get(p.op, ())
    out: set[Op] = set()
    for i, arg in enumerate(p.args):
        if i in bound_slots:
            continue
        out |= free_vars(arg)
    return out


def brute_cyclic(values: list[int]) -> bool:
    """Slicing-based restatement of the 40-value window cycle test."""
    assert len(values) == 40
    return any(values[9 : 40 - p] == values[9 + p : 40] for p in range(1, 16))


# Filter oracle: the induction module's docstrings restated over cost_eval,
# free_vars and brute_cyclic.

_LOOPING = (Op.LOOP, Op.LOOP2, Op.COMPR)


def _occurrences(p: Program) -> list[Program]:
    """Every subterm occurrence of p, p included."""
    return [p] + [q for a in p.args for q in _occurrences(a)]


def _outermost_loops(p: Program) -> list[Program]:
    """The looping occurrences of p that no looping occurrence encloses."""
    if p.op in _LOOPING:
        return [p]
    return [q for a in p.args for q in _outermost_loops(a)]


def _shape(loop: Program, bound_ok, body_ok) -> bool:
    """The bound varies with x, and so does a loop's body, or one of a
    loop2's two bodies with x and with y; a compr has its bound only."""
    a = loop.args
    if loop.op == Op.LOOP:
        return bound_ok(a[1]) and body_ok(a[0], Op.X)
    if loop.op == Op.LOOP2:
        return bound_ok(a[2]) and any(body_ok(f, Op.X) and body_ok(f, Op.Y) for f in a[:2])
    return bound_ok(a[1])


def _windows_acyclic(p: Program, axis: Op, clamp: bool, cfg: EvalConfig) -> bool:
    """p's ten 40-value windows along axis, the other variable at 0..9,
    each run like a sequence, all succeed and none is cyclic; clamp reads
    negative values as 0."""
    for other in range(10):
        budget = Budget(0)
        window = []
        for i in range(40):
            budget.remaining += cfg.per_call_limit
            x, y = (i, other) if axis == Op.X else (other, i)
            out = cost_eval(p, x, y, budget, cfg)
            if out.error is not None:
                return False
            window.append(max(out.value, 0) if clamp else out.value)
        if brute_cyclic(window):
            return False
    return True


def classify_ref(small: Program, fast: Program, cfg: EvalConfig = DEFAULT_CONFIG) -> tuple[bool, bool]:
    """(syn_pass, sem_pass) of the problem small = fast: its top loops
    are the outermost looping occurrences that occur once among all the
    subterms of both sides; syn_pass when one has the loop shape by free
    variables, sem_pass when one of those also has it by acyclic windows
    and is itself acyclic along x."""
    every = _occurrences(small) + _occurrences(fast)
    tops = [q for side in (small, fast) for q in _outermost_loops(side) if every.count(q) == 1]
    syn = [q for q in tops if _shape(q, lambda a: Op.X in free_vars(a), lambda f, v: v in free_vars(f))]
    sem = any(
        _shape(
            q,
            lambda a: _windows_acyclic(a, Op.X, True, cfg),
            lambda f, v: _windows_acyclic(f, v, False, cfg),
        )
        and _windows_acyclic(q, Op.X, False, cfg)
        for q in syn
    )
    return bool(syn), sem


# Random program generation.

_LEAVES = tuple(Program(op) for op in (Op.ZERO, Op.ONE, Op.TWO, Op.X, Op.Y))
_ARITY = {
    Op.ADD: 2,
    Op.SUB: 2,
    Op.MUL: 2,
    Op.DIV: 2,
    Op.MOD: 2,
    Op.COND: 3,
    Op.LOOP: 3,
    Op.LOOP2: 5,
    Op.COMPR: 2,
}


def random_program(rng: random.Random, depth: int = 3) -> Program:
    """A random program; branching narrows as depth runs out."""
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(_LEAVES)
    op = rng.choice(list(_ARITY))
    args = tuple(random_program(rng, depth - 1) for _ in range(_ARITY[op]))
    return Program(op, args)


def compound_census(progs) -> tuple[int, int]:
    """(compound node objects, distinct compound subterms) among progs."""
    objects: dict[int, Program] = {}
    stack = list(progs)
    while stack:
        p = stack.pop()
        if p.args:
            objects[id(p)] = p
            stack.extend(p.args)
    return len(objects), len(set(objects.values()))


def programs(max_leaves: int = 8) -> st.SearchStrategy[Program]:
    """Hypothesis strategy over programs."""

    def compound(children: st.SearchStrategy[Program]) -> st.SearchStrategy[Program]:
        return st.sampled_from(list(_ARITY)).flatmap(
            lambda op: st.tuples(*[children] * _ARITY[op]).map(
                lambda args: Program(op, args)
            )
        )

    return st.recursive(st.sampled_from(_LEAVES), compound, max_leaves=max_leaves)


# Standalone SMT-LIB surface checker.

_SMT_BUILTINS = {
    "+": 2,
    "-": 2,
    "*": 2,
    "div": 2,
    "mod": 2,
    "=": 2,
    "<=": 2,
    "<": 2,
    ">=": 2,
    "=>": 2,
    "not": 1,
    "ite": 3,
}
_SMT_VARIADIC = {"and", "or"}
_SYMBOL_CHARS = set(string.ascii_letters + string.digits + "_")


class SmtSyntaxError(AssertionError):
    pass


def _smt_tokens(text: str) -> list[str]:
    tokens: list[str] = []
    for raw_line in text.splitlines():
        line = raw_line.split(";", 1)[0]
        for ch in ("(", ")"):
            line = line.replace(ch, f" {ch} ")
        tokens.extend(line.split())
    return tokens


def _smt_parse(tokens: list[str]) -> list:
    forms = []
    pos = 0

    def form():
        nonlocal pos
        if pos >= len(tokens):
            raise SmtSyntaxError("unexpected end of input")
        tok = tokens[pos]
        pos += 1
        if tok == ")":
            raise SmtSyntaxError("unbalanced ')'")
        if tok != "(":
            return tok
        items = []
        while pos < len(tokens) and tokens[pos] != ")":
            items.append(form())
        if pos >= len(tokens):
            raise SmtSyntaxError("unclosed '('")
        pos += 1
        return items

    while pos < len(tokens):
        forms.append(form())
    return forms


def check_smt_script(text: str) -> dict[str, int]:
    """Validate an emitted script's surface form.

    Checks command structure and ordering, declaration well-formedness,
    symbol arities, and that every identifier inside assertions is a
    declared symbol, a bound variable, or a numeral.  Returns the
    declared name -> arity map.
    """
    forms = _smt_parse(_smt_tokens(text))
    if not forms:
        raise SmtSyntaxError("empty script")
    if forms[0] != ["set-logic", "UFNIA"]:
        raise SmtSyntaxError("script must start with (set-logic UFNIA)")
    if forms[-1] != ["check-sat"]:
        raise SmtSyntaxError("script must end with (check-sat)")

    arities: dict[str, int] = {}
    seen_assert = False
    for f in forms[1:-1]:
        if not isinstance(f, list) or not f:
            raise SmtSyntaxError(f"stray token {f!r}")
        if f[0] == "declare-fun":
            if seen_assert:
                raise SmtSyntaxError("declaration after an assertion")
            if len(f) != 4 or not isinstance(f[1], str) or not isinstance(f[2], list):
                raise SmtSyntaxError(f"malformed declaration {f!r}")
            name, domain, codomain = f[1], f[2], f[3]
            if codomain != "Int" or any(s != "Int" for s in domain):
                raise SmtSyntaxError(f"non-Int sort in {name}")
            if name in arities:
                raise SmtSyntaxError(f"duplicate declaration of {name}")
            if set(name) - _SYMBOL_CHARS:
                raise SmtSyntaxError(f"bad symbol name {name!r}")
            arities[name] = len(domain)
        elif f[0] == "assert":
            seen_assert = True
            if len(f) != 2:
                raise SmtSyntaxError(f"malformed assert {f!r}")
            _check_term(f[1], arities, set())
        else:
            raise SmtSyntaxError(f"unexpected command {f[0]!r}")
    if not seen_assert:
        raise SmtSyntaxError("no assertions")
    return arities


def _check_term(t, arities: dict[str, int], bound: set[str]) -> None:
    if isinstance(t, str):
        if t in bound or t.isdigit():
            return
        if arities.get(t) == 0:
            return
        raise SmtSyntaxError(f"unknown or non-constant symbol {t!r}")
    if not t:
        raise SmtSyntaxError("empty application")
    head = t[0]
    if head in ("forall", "exists"):
        if len(t) != 3 or not isinstance(t[1], list) or not t[1]:
            raise SmtSyntaxError(f"malformed binder {t!r}")
        names = set()
        for binder in t[1]:
            if (
                not isinstance(binder, list)
                or len(binder) != 2
                or binder[1] != "Int"
                or not isinstance(binder[0], str)
            ):
                raise SmtSyntaxError(f"malformed binding {binder!r}")
            names.add(binder[0])
        _check_term(t[2], arities, bound | names)
        return
    if not isinstance(head, str):
        raise SmtSyntaxError(f"non-symbol head {head!r}")
    argc = len(t) - 1
    if head in _SMT_VARIADIC:
        if argc < 2:
            raise SmtSyntaxError(f"{head} needs at least two arguments")
    elif head in _SMT_BUILTINS:
        if argc != _SMT_BUILTINS[head]:
            raise SmtSyntaxError(f"{head} expects {_SMT_BUILTINS[head]} arguments, got {argc}")
    elif head in arities:
        if argc != arities[head]:
            raise SmtSyntaxError(f"{head} expects {arities[head]} arguments, got {argc}")
        if argc == 0:
            raise SmtSyntaxError(f"0-ary {head} must appear bare, not applied")
    else:
        raise SmtSyntaxError(f"undeclared symbol {head!r}")
    for arg in t[1:]:
        _check_term(arg, arities, bound)


# Definition evaluator: a second, independent route to a problem's
# values.  It evaluates the emitted definition bodies themselves, with
# SMT-LIB's Euclidean div and mod (remainder always non-negative),
# sharing nothing with the program interpreter, to cross-check the
# lowering.


class SmtEvalError(Exception):
    pass


def euclidean_div(a: int, b: int) -> int:
    if b == 0:
        raise SmtEvalError("division by zero")
    return a // b if b > 0 else -(a // -b)


def euclidean_mod(a: int, b: int) -> int:
    return a - b * euclidean_div(a, b)


class DefEvaluator:
    """Evaluates symbol applications over a set of lowered definitions.

    Recursive symbols are memoized per argument tuple.  negative_divmod
    records whether any div/mod saw a negative operand, which covers the
    regime where Euclidean and floor semantics can disagree: a negative
    divisor.
    """

    def __init__(self, defs: list[LoweredDef], max_steps: int = 1_000_000):
        self.defs = {d.name: d for d in defs}
        self.max_steps = max_steps
        self.steps = 0
        self.negative_divmod = False
        self._memo: dict[tuple, int] = {}

    def call(self, name: str, args: tuple[int, ...] = ()) -> int:
        key = (name, args)
        if key in self._memo:
            return self._memo[key]
        d = self.defs.get(name)
        if d is None:
            raise SmtEvalError(f"undefined symbol {name!r}")
        if len(args) != len(d.params):
            raise SmtEvalError(f"{name} expects {len(d.params)} arguments, got {len(args)}")
        value = self._eval(d.body, dict(zip(d.params, args)))
        self._memo[key] = value
        return value

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise SmtEvalError("step limit exceeded")

    def _eval(self, s: Sexp, env: dict[str, int]) -> int:
        self._tick()
        if isinstance(s, str):
            if s in env:
                return env[s]
            if s.isdigit():
                return int(s)
            return self.call(s)
        head = s[0]
        if head == "ite":
            return self._eval(s[2] if self._bool(s[1], env) else s[3], env)
        if head in ("+", "-", "*", "div", "mod"):
            a = self._eval(s[1], env)
            b = self._eval(s[2], env)
            if head == "+":
                return a + b
            if head == "-":
                return a - b
            if head == "*":
                return a * b
            if a < 0 or b < 0:
                self.negative_divmod = True
            return euclidean_div(a, b) if head == "div" else euclidean_mod(a, b)
        args = tuple(self._eval(arg, env) for arg in s[1:])
        return self.call(head, args)

    def _bool(self, s: Sexp, env: dict[str, int]) -> bool:
        if not isinstance(s, tuple) or s[0] != "<=":
            raise SmtEvalError(f"unsupported condition {s!r}")
        return self._eval(s[1], env) <= self._eval(s[2], env)
