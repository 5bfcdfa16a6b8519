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


class _Syntax(NamedTuple):
    op: Op
    args: tuple[Program, ...]


class Program(_Syntax):
    """A term: an operator and its arguments.  An operator outside Op,
    or the wrong number of arguments for it, raises ValueError.

    Programs compare, hash and pickle by their syntax alone.  The
    evaluator keeps one compiled entry, used under every EvalConfig, in
    the instance dict, on this object alone.  A parsed program may share
    one object among its equal subterms, and a load shares it among the
    records it reads (see parse), so several records can use one
    object's code; release drops it for all of them, and the next
    evaluate compiles it again.
    """

    def __new__(cls, op: Op, args: tuple[Program, ...] = ()) -> Program:
        arity = ARITY.get(op)
        if arity is None:
            raise ValueError(f"unknown operator {op!r}")
        if len(args) != arity:
            raise ValueError(f"{Op(op).name} takes {arity} arguments, got {len(args)}")
        return tuple.__new__(cls, (op, args))

    @classmethod
    def _make(cls, fields) -> Program:
        # _replace builds its copy here: check it as a new program.
        return cls(*fields)

    def __repr__(self) -> str:
        return f"<{to_text(self)}>"

    def __reduce__(self):
        return Program, (self.op, self.args)


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
    yield p
    for a in p.args:
        yield from subprograms(a)


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


_LEAVES = {NAMES[p.op]: p for p in (ZERO, ONE, TWO, X, Y)}
_CALLS = {NAMES[op]: op for op in (Op.COND, *LOOPING_OPS)}
_SUM_OPS = {NAMES[op]: op for op in (Op.ADD, Op.SUB)}
_TERM_OPS = {NAMES[op]: op for op in (Op.MUL, Op.DIV, Op.MOD)}

# Symbol tokens: the operators not spelled as words, and the brackets,
# commas and '<=' of calls and if-expressions.
_PUNCTUATION = {n for n in NAMES.values() if not n.isalnum()} | {"(", ")", ",", "<="}
# Leading space, then one token: an integer, a word, '<=' or one other
# character, which must be a symbol.
_TOKEN = re.compile(r"(\s*)(\d+|[A-Za-z]\w*|<=|\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, text, pos); kind is 'int', 'word' or the symbol."""
    if not text.isascii():
        raise ParseError("program text must be ASCII", 0)
    out: list[tuple[str, str, int]] = []
    pos = 0
    for space, tok in _TOKEN.findall(text):
        pos += len(space)
        if tok in _PUNCTUATION:
            out.append((tok, tok, pos))
        elif tok[0].isalpha():
            out.append(("word", tok.lower(), pos))
        elif tok[0].isdigit():
            out.append(("int", tok, pos))
        else:
            raise ParseError(f"unexpected character {tok!r}", pos)
        pos += len(tok)
    out.append(("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str, table: dict[tuple[int, ...], Program]):
        self.tokens = _tokenize(text)
        self.i = 0
        self.nesting = 0
        # Compound nodes built so far, keyed by operator and argument ids.
        # The nodes keep their arguments alive, so the ids stay valid for
        # as long as the table lives.
        self.table = table
        # Depth of each compound node returned so far; leaves have depth 1.
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
        parts = [op]  # the table key: op and the ids of the arguments
        for a in args:
            i = id(a)
            parts.append(i)
            d = depths.get(i, 1)
            if d > deepest:
                deepest = d
        if deepest >= MAX_DEPTH:
            raise ParseError(f"program deeper than {MAX_DEPTH} levels", pos)
        key = tuple(parts)
        p = self.table.get(key)
        if p is None:
            p = self.table[key] = Program(op, args)
        depths[id(p)] = deepest + 1
        return p

    def parse_expr(self) -> Program:
        if self.peek()[1] == "if":
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
        self.expect("word", "then")
        then_branch = self.parse_expr()
        self.expect("word", "else")
        else_branch = self.parse_expr()
        self.leave()
        return self.node(Op.COND, (guard, then_branch, else_branch), pos)

    # The two precedence levels stay two methods: a shared helper would
    # cost one more Python frame per level of nesting.

    def parse_sum(self) -> Program:
        left = self.parse_term()
        while self.peek()[1] in _SUM_OPS:
            _, name, pos = self.next()
            left = self.node(_SUM_OPS[name], (left, self.parse_term()), pos)
        return left

    def parse_term(self) -> Program:
        left = self.parse_atom()
        while self.peek()[1] in _TERM_OPS:
            _, name, pos = self.next()
            left = self.node(_TERM_OPS[name], (left, self.parse_atom()), pos)
        return left

    def parse_atom(self) -> Program:
        kind, text, pos = self.next()
        leaf = _LEAVES.get(text)
        if leaf is not None:
            return leaf
        if kind == "int":
            raise ParseError(f"integer literal {text} is not one of 0, 1, 2", pos)
        if kind == "(":
            self.enter(pos)
            inner = self.parse_expr()
            self.expect(")")
            self.leave()
            return inner
        op = _CALLS.get(text)
        if op is not None:
            args = self.parse_call_args(text, ARITY[op], pos)
            return self.node(op, tuple(args), pos)
        if text == "if":
            # An if-expression is allowed anywhere an atom is.
            self.i -= 1
            return self.parse_if()
        if kind == "word":
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


def parse(text: str, table: dict[tuple[int, ...], Program] | None = None) -> Program:
    """Parse program text.  Raises ParseError with a position on bad input,
    which includes nesting deeper than MAX_DEPTH.

    Structurally equal compound subterms come back as one object: within
    the text always, and across texts parsed with the same table, which
    a caller keeps for one load and no longer (a Program takes no weak
    reference, so nothing else drops its entries).
    """
    parser = _Parser(text, {} if table is None else table)
    prog = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "eof":
        raise ParseError(f"trailing input starting with {tok[1]!r}", tok[2])
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
