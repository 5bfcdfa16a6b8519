"""Abstract syntax, parser and printer for the loop-program language.

Programs are terms over two integer variables built from the constants
0, 1, 2, the arithmetic operators +, -, *, div, mod, a conditional, and
three iteration operators (loop, loop2, compr).  The iteration operators
bind x and y inside their body slots; everywhere else x and y are free.

NAMES spells each operator once; the parser, the printer and the SMT-LIB
lowering in smt all take their spellings from it.
"""

from __future__ import annotations

import re
from enum import IntEnum
from typing import Iterator, NamedTuple


class Op(IntEnum):
    """Operator tags."""

    ZERO = 0
    ONE = 1
    TWO = 2
    X = 3
    Y = 4
    ADD = 5
    SUB = 6
    MUL = 7
    DIV = 8
    MOD = 9
    COND = 10
    LOOP = 11
    LOOP2 = 12
    COMPR = 13


ARITY = {
    Op.ZERO: 0, Op.ONE: 0, Op.TWO: 0, Op.X: 0, Op.Y: 0,
    Op.ADD: 2, Op.SUB: 2, Op.MUL: 2, Op.DIV: 2, Op.MOD: 2,
    Op.COND: 3, Op.LOOP: 3, Op.LOOP2: 5, Op.COMPR: 2,
}

# How each operator is written, here and nowhere else.
NAMES = {
    Op.ZERO: "0", Op.ONE: "1", Op.TWO: "2", Op.X: "x", Op.Y: "y",
    Op.ADD: "+", Op.SUB: "-", Op.MUL: "*", Op.DIV: "div", Op.MOD: "mod",
    Op.COND: "cond", Op.LOOP: "loop", Op.LOOP2: "loop2", Op.COMPR: "compr",
}

BINARY_OPS = (Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD)
LOOPING_OPS = (Op.LOOP, Op.LOOP2, Op.COMPR)

# Argument positions whose x/y are bound (the body slots of the iterators).
BODY_SLOTS = {Op.LOOP: (0,), Op.LOOP2: (0, 1), Op.COMPR: (0,)}


class Checked:
    """Base of a named tuple whose __new__ checks its fields: _replace
    builds its copy with _make, which then checks it as a new record."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class _Syntax(NamedTuple):
    op: Op
    args: tuple[Program, ...]


class Program(Checked, _Syntax):
    """A term: an operator and a tuple of argument programs (any iterable
    is taken).  An operator outside Op, the wrong number of arguments for
    it, an argument that is not a Program, or a program deeper than
    MAX_DEPTH raises ValueError.

    Programs compare, hash and pickle by their syntax alone.  Each keeps
    the bits of its free variables (see depends_on) and its depth (a leaf
    has depth 1) in two tuple positions after op and args, which _fields
    does not list; both are worked out from its arguments' when it is
    built, so equal syntax has equal positions.  A program has no
    instance dict until the evaluator stores its one compiled entry,
    used under every EvalConfig, on this object alone: the code, and the
    points stored at a nonzero y if the program does not read y.  A
    parsed program may share one object among its equal subterms, and a
    load shares it among the records it reads (see parse), so several
    records can use one object's code.
    """

    def __new__(cls, op: Op, args: tuple[Program, ...] = ()) -> Program:
        arity = ARITY.get(op)
        if arity is None:
            raise ValueError(f"unknown operator {op!r}")
        args = tuple(args)
        if len(args) != arity:
            raise ValueError(f"{Op(op).name} takes {arity} arguments, got {len(args)}")
        for a in args:
            if not isinstance(a, Program):
                raise ValueError(f"{Op(op).name} arguments must be programs, got {a!r}")
        return _program(cls, op, args)

    def __repr__(self) -> str:
        return f"<{to_text(self)}>"

    def __reduce__(self):
        return Program, (self.op, self.args)


# Free-variable bits: 1 << Op.X and 1 << Op.Y.  A variable leaf has its
# own; any other program has those of its arguments after the body slots,
# which always come first.
_OWN_BITS = {Op.X: 1 << Op.X, Op.Y: 1 << Op.Y}
_FIRST_FREE_SLOT = {op: len(BODY_SLOTS.get(op, ())) for op in Op}

# Deepest program (a leaf is depth 1), however it is built.  parse also
# counts open parentheses, calls and if-expressions in the text against
# it.  It keeps every recursive routine over programs well inside
# Python's recursion limit.
MAX_DEPTH = 100


def _program(cls: type, op: Op, args: tuple[Program, ...]) -> Program:
    """A program of checked fields, with its free-variable bits (position
    2) and depth (position 3); one deeper than MAX_DEPTH raises
    ValueError."""
    free = _OWN_BITS.get(op, 0)
    for a in args[_FIRST_FREE_SLOT[op]:]:
        free |= a[2]
    depth = 0
    for a in args:
        if a[3] > depth:
            depth = a[3]
    if depth >= MAX_DEPTH:
        raise ValueError(f"program deeper than {MAX_DEPTH} levels")
    return tuple.__new__(cls, (op, args, free, depth + 1))


# The leaves, shared singletons: parse returns these objects.

ZERO = Program(Op.ZERO)
ONE = Program(Op.ONE)
TWO = Program(Op.TWO)
X = Program(Op.X)
Y = Program(Op.Y)


def size(p: Program) -> int:
    """Number of AST nodes."""
    return 1 + sum(size(a) for a in p.args)


def subprograms(p: Program) -> Iterator[Program]:
    """All subterm occurrences of p in preorder (p itself included)."""
    stack = [p]
    while stack:
        p = stack.pop()
        yield p
        stack += reversed(p.args)


def depends_on(p: Program, var: Op) -> bool:
    """True iff var (Op.X or Op.Y) occurs free in p.

    Occurrences inside the body slots of loop/loop2/compr are bound and
    do not count.
    """
    return bool(p[2] >> var & 1)


# Parsing.


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_LEAVES = {NAMES[p.op]: p for p in (ZERO, ONE, TWO, X, Y)}
_CALLS = {NAMES[op]: op for op in (Op.COND, *LOOPING_OPS)}
_BINARY = {NAMES[op]: op for op in BINARY_OPS}
_TIGHT = {Op.MUL, Op.DIV, Op.MOD}  # bind tighter than + and -

# One token of lowered text: an integer, a word, '<=', or a bracket, a
# comma or an operator not spelled as a word.  findall skips any other
# character, which is an error unless it is a space.
_CHARS = "()," + "".join(n for n in NAMES.values() if not n.isalnum())
_TOKEN = re.compile(rf"\d+|[a-z]\w*|<=|[{re.escape(_CHARS)}]")


def parse(text: str, table: dict[tuple[int, ...], Program] | None = None) -> Program:
    """Parse program text.  Raises ParseError with a position on bad input,
    which includes nesting deeper than MAX_DEPTH.  A character that no
    token spells is reported before any other error.

    Structurally equal compound subterms come back as one object: within
    the text always, and across texts parsed with the same table, which
    a caller keeps for one load and no longer (a Program takes no weak
    reference, so nothing else drops its entries).  The table keys each
    compound node by its operator and the ids of its arguments, which
    the node keeps alive for as long as the table lives.
    """
    if not text.isascii():
        raise ParseError("program text must be ASCII", 0)
    lowered = text.lower()
    tokens = _TOKEN.findall(lowered)
    if "".join(tokens) != "".join(lowered.split()):
        for m in re.finditer(rf"({_TOKEN.pattern})|\S", lowered):
            if m[1] is None:
                raise ParseError(f"unexpected character {m[0]!r}", m.start())
    tokens.append("")  # the end of input
    table = {} if table is None else table
    i = nesting = 0  # the next token's index, and the open nesting levels

    def fail(message: str, at: int):
        # Token positions are worked out only here, for the error.
        for n, m in enumerate(_TOKEN.finditer(lowered)):
            if n == at:
                raise ParseError(message, m.start())
        raise ParseError(message, len(text))

    def expect(want: str) -> None:
        nonlocal i
        if tokens[i] != want:
            fail(f"expected {want!r}, found {tokens[i] or 'end of input'!r}", i)
        i += 1

    def enter(at: int) -> None:
        """Open one level of nesting at token at; the caller closes it."""
        nonlocal nesting
        nesting += 1
        if nesting > MAX_DEPTH:
            fail(f"nesting deeper than {MAX_DEPTH} levels", at)

    def node(op: Op, args: tuple[Program, ...], at: int) -> Program:
        key = (op, *map(id, args))
        p = table.get(key)
        if p is None:
            try:
                p = _program(Program, op, args)
            except ValueError as exc:  # deeper than MAX_DEPTH
                fail(str(exc), at)
            table[key] = p
        return p

    def expr() -> Program:
        """A sum of products: both precedence levels share this loop, so
        that a level of nesting costs two Python frames, expr and atom."""
        nonlocal i
        # The sum and the product so far, each with its pending operator
        # and that operator's token.
        total = term = sum_op = term_op = sum_at = term_at = None
        while True:
            operand = _LEAVES.get(tokens[i])
            if operand is None:
                operand = atom()
            else:
                i += 1
            term = operand if term_op is None else node(term_op, (term, operand), term_at)
            op = _BINARY.get(tokens[i])
            if op in _TIGHT:
                term_op, term_at = op, i
            else:
                term_op = None
                total = term if sum_op is None else node(sum_op, (total, term), sum_at)
                if op is None:
                    return total
                sum_op, sum_at = op, i
            i += 1

    def atom() -> Program:
        """An operand that is not a leaf.  An if-expression is one, and its
        else branch takes every binary operator that follows it."""
        nonlocal i, nesting
        tok = tokens[i]
        at = i
        i += 1
        if tok == "(":
            enter(at)
            inner = expr()
            expect(")")
            nesting -= 1
            return inner
        if tok == "if":
            enter(at)
            guard = expr()
            expect("<=")
            if not tokens[i].isdigit():
                fail(f"expected 'int', found {tokens[i] or 'end of input'!r}", i)
            if tokens[i] != "0":
                fail("conditional guard must compare against 0", i)
            i += 1
            expect("then")
            then_branch = expr()
            expect("else")
            op, args = Op.COND, (guard, then_branch, expr())
        else:
            op = _CALLS.get(tok)
            if op is None:
                if tok.isdigit():
                    fail(f"integer literal {tok} is not one of 0, 1, 2", at)
                if tok[:1].isalpha():
                    fail(f"unknown identifier {tok!r}", at)
                fail(f"unexpected token {tok or 'end of input'!r}", at)
            expect("(")
            enter(at)
            args = [expr()]
            while tokens[i] == ",":
                i += 1
                args.append(expr())
            expect(")")
            if len(args) != ARITY[op]:
                fail(f"{tok} takes {ARITY[op]} arguments, got {len(args)}", at)
        nesting -= 1
        return node(op, tuple(args), at)

    try:
        prog = expr()
        if tokens[i]:
            fail(f"trailing input starting with {tokens[i]!r}", i)
    finally:
        # expr and atom refer to each other: drop one, so that both, and
        # the table they hold, go without a garbage collection.
        atom = None
    return prog


# Printing.


def to_text(p: Program, if_style: bool = False) -> str:
    """Render p to concrete syntax; parse(to_text(p)) reconstructs p.

    Every compound operand of a binary operator is parenthesized, so the
    output is unambiguous without precedence knowledge.  Conditionals are
    rendered as cond(a, b, c) by default, or as the spelled-out
    'if a <= 0 then b else c' form when if_style is set.
    """

    def needs_parens(child: Program) -> bool:
        return child.op in BINARY_OPS or (if_style and child.op == Op.COND)

    def operand(child: Program) -> str:
        text = render(child)
        return f"({text})" if needs_parens(child) else text

    def render(q: Program) -> str:
        if not q.args:
            return NAMES[q.op]
        if q.op in BINARY_OPS:
            return f"{operand(q.args[0])} {NAMES[q.op]} {operand(q.args[1])}"
        if if_style and q.op == Op.COND:
            a, b, c = q.args
            return f"if {render(a)} <= 0 then {render(b)} else {render(c)}"
        return f"{NAMES[q.op]}({', '.join(render(a) for a in q.args)})"

    return render(p)
