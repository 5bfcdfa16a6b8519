"""Abstract syntax, parser and printer for the loop-program language.

Programs are terms over two integer variables built from the constants
0, 1, 2, the arithmetic operators +, -, *, div, mod, a conditional, and
three iteration operators (loop, loop2, compr).  The iteration operators
bind x and y inside their body slots; everywhere else x and y are free.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator


class Op(IntEnum):
    """Operator tags, ordered; the numeric value is the comparison code."""

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
    Op.ZERO: 0,
    Op.ONE: 0,
    Op.TWO: 0,
    Op.X: 0,
    Op.Y: 0,
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

BINARY_OPS = (Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD)
LOOPING_OPS = (Op.LOOP, Op.LOOP2, Op.COMPR)

# Argument positions whose x/y are bound (the body slots of the iterators).
BODY_SLOTS = {Op.LOOP: (0,), Op.LOOP2: (0, 1), Op.COMPR: (0,)}


@dataclass(frozen=True)
class Program:
    op: Op
    args: tuple["Program", ...] = ()

    def __post_init__(self) -> None:
        if len(self.args) != ARITY[self.op]:
            raise ValueError(
                f"{self.op.name} takes {ARITY[self.op]} arguments, got {len(self.args)}"
            )

    def __repr__(self) -> str:
        return f"<{to_text(self)}>"

    def __getstate__(self) -> dict:
        # Only the syntax: the evaluator keeps compiled code in the
        # instance dict, and that code goes with this object alone.
        return {"op": self.op, "args": self.args}


# Term constructors.  Leaves are shared singletons.

ZERO = Program(Op.ZERO)
ONE = Program(Op.ONE)
TWO = Program(Op.TWO)
X = Program(Op.X)
Y = Program(Op.Y)


def add(a: Program, b: Program) -> Program:
    return Program(Op.ADD, (a, b))


def sub(a: Program, b: Program) -> Program:
    return Program(Op.SUB, (a, b))


def mul(a: Program, b: Program) -> Program:
    return Program(Op.MUL, (a, b))


def div(a: Program, b: Program) -> Program:
    return Program(Op.DIV, (a, b))


def mod(a: Program, b: Program) -> Program:
    return Program(Op.MOD, (a, b))


def cond(a: Program, b: Program, c: Program) -> Program:
    return Program(Op.COND, (a, b, c))


def loop(f: Program, a: Program, b: Program) -> Program:
    return Program(Op.LOOP, (f, a, b))


def loop2(f: Program, g: Program, a: Program, b: Program, c: Program) -> Program:
    return Program(Op.LOOP2, (f, g, a, b, c))


def compr(f: Program, a: Program) -> Program:
    return Program(Op.COMPR, (f, a))


def size(p: Program) -> int:
    """Number of AST nodes."""
    return 1 + sum(size(a) for a in p.args)


def subprograms(p: Program) -> Iterator[Program]:
    """All subterm occurrences of p in preorder (p itself included)."""
    yield p
    for a in p.args:
        yield from subprograms(a)


def opcodes(p: Program) -> tuple[int, ...]:
    """Preorder operator codes; arities are fixed, so this determines p."""
    return tuple(s.op for s in subprograms(p))


def order_key(p: Program) -> tuple[int, tuple[int, ...]]:
    """Sort key for the total order: size first, then preorder op codes."""
    return (size(p), opcodes(p))


def compare(p: Program, q: Program) -> int:
    """Total order on programs: -1, 0 or 1.  0 iff structurally equal."""
    kp, kq = order_key(p), order_key(q)
    return (kp > kq) - (kp < kq)


def depends_on(p: Program, var: Op) -> bool:
    """True iff var (Op.X or Op.Y) occurs free in p.

    Occurrences inside the body slots of loop/loop2/compr are bound and
    do not count.
    """
    if p.op == var:
        return True
    body = BODY_SLOTS.get(p.op, ())
    return any(
        depends_on(a, var) for i, a in enumerate(p.args) if i not in body
    )


def looping_subprograms(p: Program) -> list[tuple[Program, tuple[int, ...]]]:
    """All loop/loop2/compr occurrences in preorder, with their paths.

    A path is the tuple of argument indices leading from the root to the
    occurrence.
    """
    found: list[tuple[Program, tuple[int, ...]]] = []

    def walk(q: Program, path: tuple[int, ...]) -> None:
        if q.op in LOOPING_OPS:
            found.append((q, path))
        for i, a in enumerate(q.args):
            walk(a, path + (i,))

    walk(p, ())
    return found


# Parsing.

# Deepest nesting parse accepts, counting both the syntax tree's depth (a
# leaf is depth 1) and open parentheses, calls and if-expressions in the
# text.  It keeps every recursive routine over parsed programs well
# inside Python's recursion limit.
MAX_DEPTH = 100


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_SYMBOLS = ("<=", "+", "-", "*", "(", ")", ",")
_KEYWORDS = {"x", "y", "div", "mod", "loop", "loop2", "compr", "cond", "if", "then", "else"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, text, pos); kind is 'int', 'word' or the symbol."""
    if not text.isascii():
        raise ParseError("program text must be ASCII", 0)
    out: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("<=", i):
            out.append(("<=", "<=", i))
            i += 2
            continue
        if ch in "+-*(),":
            out.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("word", text[i:j].lower(), i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(("eof", "", n))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.nesting = 0
        # Depth of each compound node built so far; leaves have depth 1.
        self.depths: dict[int, int] = {}

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def at_word(self, word: str) -> bool:
        tok = self.peek()
        return tok[0] == "word" and tok[1] == word

    def enter(self, pos: int) -> None:
        """Open one level of nesting at pos; leave() closes it."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", pos)

    def leave(self) -> None:
        self.nesting -= 1

    def node(self, op: Op, args: tuple[Program, ...], pos: int) -> Program:
        depths = self.depths
        deepest = 0
        for a in args:
            d = depths.get(id(a), 1)
            if d > deepest:
                deepest = d
        if deepest >= MAX_DEPTH:
            raise ParseError(f"program deeper than {MAX_DEPTH} levels", pos)
        p = Program(op, args)
        depths[id(p)] = deepest + 1
        return p

    def parse_expr(self) -> Program:
        if self.at_word("if"):
            return self.parse_if()
        return self.parse_sum()

    def parse_if(self) -> Program:
        pos = self.next()[2]  # 'if'
        self.enter(pos)
        guard = self.parse_sum()
        self.expect("<=")
        zero = self.expect("int")
        if zero[1] != "0":
            raise ParseError("conditional guard must compare against 0", zero[2])
        tok = self.next()
        if tok[0] != "word" or tok[1] != "then":
            raise ParseError(f"expected 'then', found {tok[1]!r}", tok[2])
        then_branch = self.parse_expr()
        tok = self.next()
        if tok[0] != "word" or tok[1] != "else":
            raise ParseError(f"expected 'else', found {tok[1]!r}", tok[2])
        else_branch = self.parse_expr()
        self.leave()
        return self.node(Op.COND, (guard, then_branch, else_branch), pos)

    def parse_sum(self) -> Program:
        left = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.next()
            right = self.parse_term()
            left = self.node(Op.ADD if op == "+" else Op.SUB, (left, right), pos)
        return left

    def parse_term(self) -> Program:
        left = self.parse_atom()
        while True:
            tok = self.peek()
            if tok[0] == "*":
                self.next()
                left = self.node(Op.MUL, (left, self.parse_atom()), tok[2])
            elif tok[0] == "word" and tok[1] in ("div", "mod"):
                self.next()
                right = self.parse_atom()
                left = self.node(Op.DIV if tok[1] == "div" else Op.MOD, (left, right), tok[2])
            else:
                return left

    def parse_atom(self) -> Program:
        tok = self.next()
        kind, text, pos = tok
        if kind == "int":
            if text == "0":
                return ZERO
            if text == "1":
                return ONE
            if text == "2":
                return TWO
            raise ParseError(f"integer literal {text} is not one of 0, 1, 2", pos)
        if kind == "(":
            self.enter(pos)
            inner = self.parse_expr()
            self.expect(")")
            self.leave()
            return inner
        if kind == "word":
            if text == "x":
                return X
            if text == "y":
                return Y
            if text in ("loop", "loop2", "compr", "cond"):
                op = {"loop": Op.LOOP, "loop2": Op.LOOP2, "compr": Op.COMPR, "cond": Op.COND}[text]
                args = self.parse_call_args(text, ARITY[op], pos)
                return self.node(op, tuple(args), pos)
            if text == "if":
                # An if-expression is allowed anywhere an atom is.
                self.i -= 1
                return self.parse_if()
            raise ParseError(f"unknown identifier {text!r}", pos)
        raise ParseError(f"unexpected token {text or 'end of input'!r}", pos)

    def parse_call_args(self, name: str, arity: int, pos: int) -> list[Program]:
        self.expect("(")
        self.enter(pos)
        args = [self.parse_expr()]
        while self.peek()[0] == ",":
            self.next()
            args.append(self.parse_expr())
        self.expect(")")
        self.leave()
        if len(args) != arity:
            raise ParseError(f"{name} takes {arity} arguments, got {len(args)}", pos)
        return args


def parse(text: str) -> Program:
    """Parse program text.  Raises ParseError with a position on bad input,
    which includes nesting deeper than MAX_DEPTH."""
    parser = _Parser(text)
    prog = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "eof":
        raise ParseError(f"trailing input starting with {tok[1]!r}", tok[2])
    return prog


# Printing.

_BIN_NAMES = {Op.ADD: "+", Op.SUB: "-", Op.MUL: "*", Op.DIV: "div", Op.MOD: "mod"}
_LEAF_NAMES = {Op.ZERO: "0", Op.ONE: "1", Op.TWO: "2", Op.X: "x", Op.Y: "y"}


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
        if q.op in _LEAF_NAMES:
            return _LEAF_NAMES[q.op]
        if q.op in _BIN_NAMES:
            return f"{operand(q.args[0])} {_BIN_NAMES[q.op]} {operand(q.args[1])}"
        if q.op == Op.COND:
            a, b, c = q.args
            if if_style:
                return f"if {render(a)} <= 0 then {render(b)} else {render(c)}"
            return f"cond({render(a)}, {render(b)}, {render(c)})"
        name = {Op.LOOP: "loop", Op.LOOP2: "loop2", Op.COMPR: "compr"}[q.op]
        return f"{name}({', '.join(render(a) for a in q.args)})"

    return render(p)
