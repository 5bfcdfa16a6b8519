"""Lowering problems to SMT-LIB scripts over UFNIA.

Each looping subprogram becomes a family of uninterpreted functions,
all suffixed with the loop's index i:

- one piece per argument, named by position: f, g, h for loop; f, g, h,
  i, j for loop2; f, g for compr;
- the recursive helpers that unfold it: u for loop, u and v for loop2,
  t and u for compr;
- a wrapper, v (w for loop2), applying u to the pieces that follow the
  body slots.

Indices count loops in preorder over the small side, then the fast
side.  A nested loop's group is emitted before its parent's, so every
symbol is defined before use.  First-order context is expanded inline.

Function arities are minimized: a symbol takes an x (resp. y) parameter
exactly when its source subprogram depends on that variable, while the
recursive helpers always carry the full loop state.  The two sides
become unary functions small and fast, and the script asserts the
negation of their equality on non-negative inputs, in one of several
conjecture shapes, each a Variant named by one of VARIANTS.  An export
directory holds the scripts, `index.tsv` and a `variant` file with the
shape's name, which `read_variant` reads.

Only the conjecture depends on the variant.  A script is its text.
The head of a problem's scripts (header, logic, declarations and
assertions) is lowered and rendered on its first `emit` and kept on its
record as one string; the conjecture line and `(check-sat)` are
rendered once per variant name.  So exporting the same records under
several variants lowers each problem once.  Reuse is exact: records and
programs are immutable, and their `_replace` method gives a copy
without the kept text.

div and mod in the emitted scripts are SMT-LIB's Euclidean operations.
They can differ from the interpreter's floor semantics only when the
divisor is negative: -7 div 2 is -4 in both, but 7 div -2 is -4 by floor
and -3 in SMT-LIB.  The divergence is deliberate and documented rather
than patched around.
"""

from __future__ import annotations

from functools import cache
from pathlib import Path
from typing import NamedTuple, Union

from .lang import BINARY_OPS, BODY_SLOTS, NAMES, Checked, Op, Program, depends_on, to_text
from .oeis import _ID_RE, ProblemRecord, _refuse_repeated_ids, read_text

Sexp = Union[str, tuple]

_PIECE_LETTERS = {Op.LOOP: "fgh", Op.LOOP2: "fghij", Op.COMPR: "fg"}
_SAME = {"x": "x", "y": "y"}

HEADER_TERMS = 20


def render(s: Sexp) -> str:
    if type(s) is str:
        return s
    return "(" + " ".join([x if type(x) is str else render(x) for x in s]) + ")"


class LoweredDef(NamedTuple):
    name: str
    params: tuple[str, ...]
    body: Sexp


VARIANTS = ("base", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c2x", "c2x-appendix", "strong")


class _VariantFields(NamedTuple):
    kind: str  # one of VARIANTS


class Variant(Checked, _VariantFields):
    """A conjecture shape, by its name in VARIANTS."""

    __slots__ = ()

    def __new__(cls, kind: str) -> Variant:
        if kind not in VARIANTS:
            raise ValueError(f"unknown conjecture variant {kind!r}")
        return tuple.__new__(cls, (kind,))

    def label(self) -> str:
        return self.kind


BASE = Variant("base")
parse_variant = Variant


def _params_of(p: Program) -> tuple[str, ...]:
    params = []
    if depends_on(p, Op.X):
        params.append("x")
    if depends_on(p, Op.Y):
        params.append("y")
    return tuple(params)


def _apply(name: str, params: tuple[str, ...], argmap: dict[str, Sexp]) -> Sexp:
    """Application of a minimized-arity symbol; 0-ary symbols stay bare."""
    if not params:
        return name
    return (name,) + tuple(argmap[p] for p in params)


class _Lowerer:
    def __init__(self, next_index: int):
        self.next_index = next_index
        self.defs: list[LoweredDef] = []

    def expr(self, q: Program) -> Sexp:
        """Inline expansion of first-order context; loops become wrappers."""
        # Leaves and binary operators are spelled in SMT-LIB as in the
        # loop language.
        if not q.args:
            return NAMES[q.op]
        if q.op in BINARY_OPS:
            return (NAMES[q.op], self.expr(q.args[0]), self.expr(q.args[1]))
        if q.op == Op.COND:
            guard = self.expr(q.args[0])
            return (
                "ite",
                ("<=", guard, "0"),
                self.expr(q.args[1]),
                self.expr(q.args[2]),
            )
        wrapper, params = self.group(q)
        return _apply(wrapper, params, _SAME)

    def group(self, sub: Program) -> tuple[str, tuple[str, ...]]:
        """Emit the definition family for one looping occurrence.

        Returns the wrapper symbol and its parameters.
        """
        i = self.next_index
        self.next_index += 1
        pieces = [
            LoweredDef(f"{letter}{i}", _params_of(q), self.expr(q))
            for letter, q in zip(_PIECE_LETTERS[sub.op], sub.args)
        ]

        def body(slot: int, argmap: dict[str, Sexp]) -> Sexp:
            return _apply(pieces[slot].name, pieces[slot].params, argmap)

        down = ("-", "x", "1")
        if sub.op == Op.LOOP:
            # u unfolds the loop: state is (remaining count x, accumulator y);
            # the body sees the accumulator as x and the iteration count as y.
            step = body(0, {"x": (f"u{i}", down, "y"), "y": "x"})
            helpers = [LoweredDef(f"u{i}", ("x", "y"), ("ite", ("<=", "x", "0"), "y", step))]
        elif sub.op == Op.LOOP2:
            rec = {"x": (f"u{i}", down, "y", "z"), "y": (f"v{i}", down, "y", "z")}
            helpers = [
                LoweredDef(
                    f"u{i}",
                    ("x", "y", "z"),
                    ("ite", ("<=", "x", "0"), "y", body(0, rec)),
                ),
                LoweredDef(
                    f"v{i}",
                    ("x", "y", "z"),
                    ("ite", ("<=", "x", "0"), "z", body(1, rec)),
                ),
            ]
        else:
            # t searches upward from its argument for a body value <= 0.
            test = body(0, {"x": "x", "y": "0"})
            helpers = [
                LoweredDef(
                    f"t{i}",
                    ("x",),
                    ("ite", ("<=", test, "0"), "x", (f"t{i}", ("+", "x", "1"))),
                ),
                LoweredDef(
                    f"u{i}",
                    ("x",),
                    (
                        "ite",
                        ("<=", "x", "0"),
                        (f"t{i}", "0"),
                        (f"t{i}", ("+", (f"u{i}", down), "1")),
                    ),
                ),
            ]
        wrapper = f"w{i}" if sub.op == Op.LOOP2 else f"v{i}"
        params = _params_of(sub)
        # The wrapper runs u from the pieces after the body slots.
        inputs = [body(slot, _SAME) for slot in range(len(BODY_SLOTS[sub.op]), len(pieces))]
        self.defs += pieces + helpers + [LoweredDef(wrapper, params, (f"u{i}", *inputs))]
        return wrapper, params


def lower(small: Program, fast: Program) -> tuple[list[LoweredDef], list[LoweredDef]]:
    """Definition lists for the two sides, in emission order.

    Each side's list ends with its top-level unary function.
    """
    sides = []
    next_index = 0
    for name, prog in (("small", small), ("fast", fast)):
        if depends_on(prog, Op.Y):
            raise ValueError(f"{name} program depends on y at top level")
        lowerer = _Lowerer(next_index)
        body = lowerer.expr(prog)
        lowerer.defs.append(LoweredDef(name, ("x",), body))
        sides.append(lowerer.defs)
        next_index = lowerer.next_index
    return sides[0], sides[1]


def _not_equal_at(arg: Sexp) -> Sexp:
    return ("not", ("=", ("small", arg), ("fast", arg)))


def conjecture(variant: Variant) -> Sexp:
    """Negated equality conjecture: a non-negative witness exists."""
    kind = variant.kind
    if kind == "base":
        claim = _not_equal_at("c")
    elif kind in ("c2x", "c2x-appendix"):
        even: Sexp = ("*", "c", "2")
        if kind == "c2x-appendix":
            odd: Sexp = ("*", "2", ("+", "c", "1"))
        else:
            odd = ("+", ("*", "c", "2"), "1")
        claim = ("or", _not_equal_at(even), _not_equal_at(odd))
    elif kind == "strong":
        prior = (
            "forall",
            (("d", "Int"),),
            (
                "=>",
                ("and", ("<=", "0", "d"), ("<", "d", "c")),
                ("=", ("small", "d"), ("fast", "d")),
            ),
        )
        return (
            "exists",
            (("c", "Int"),),
            ("and", (">=", "c", "0"), prior, _not_equal_at("c")),
        )
    else:
        # ck, k = 1 .. 8: a witness among c, c+1, .., c+k.
        disjuncts = []
        for i in range(int(kind[1:]), -1, -1):
            arg: Sexp = ("+", "c", str(i)) if i > 0 else "c"
            disjuncts.append(_not_equal_at(arg))
        claim = ("or",) + tuple(disjuncts)
    return ("exists", (("c", "Int"),), ("and", (">=", "c", "0"), claim))


def _declaration(d: LoweredDef) -> str:
    doms = " ".join("Int" for _ in d.params)
    return f"(declare-fun {d.name} ({doms}) Int)"


def _assertion(d: LoweredDef) -> str:
    if not d.params:
        return render(("assert", ("=", d.name, d.body)))
    binders = tuple((p, "Int") for p in d.params)
    head = (d.name,) + d.params
    return render(("assert", ("forall", binders, ("=", head, d.body))))


def _lowered(problem: ProblemRecord) -> str:
    """The head of a problem's scripts: header, logic, sorted declarations
    and assertions, one line each.

    It does not depend on the variant, so it is lowered and rendered on
    first use and kept on the record, which is immutable.  A lowering
    error names the problem.
    """
    try:
        return problem._smt_head
    except AttributeError:
        pass
    try:
        small_defs, fast_defs = lower(problem.small, problem.fast)
    except ValueError as exc:
        raise ValueError(f"{problem.id}: {exc}") from None
    defs = small_defs + fast_defs
    lines = [
        f";; sequence(s): {problem.id}",
        f";; terms: {' '.join(str(t) for t in problem.terms[:HEADER_TERMS])}",
        f";; small program: {to_text(problem.small)}",
        f";; fast program: {to_text(problem.fast)}",
        "(set-logic UFNIA)",
    ]
    lines += (_declaration(d) for d in sorted(defs, key=lambda d: d.name))
    lines += (_assertion(d) for d in defs)
    return problem.__dict__.setdefault("_smt_head", "\n".join(lines) + "\n")


@cache
def _conjecture_line(variant: Variant) -> str:
    """A variant's conjecture assertion and `(check-sat)`, rendered once
    per name."""
    return render(("assert", conjecture(variant))) + "\n(check-sat)\n"


def emit(problem: ProblemRecord, variant: Variant = BASE) -> str:
    """Full SMT-LIB script for one problem under one conjecture variant."""
    return _lowered(problem) + _conjecture_line(variant)


def exported(problems: list[ProblemRecord]) -> list[ProblemRecord]:
    """The problems export_all writes a script for: the released ones,
    sorted by id.  An id two problems share, or one too long for a file
    name, raises ValueError."""
    _refuse_repeated_ids(problems)
    released = sorted((p for p in problems if p.released), key=lambda p: p.id)
    for p in released:
        if len(p.id) + len(".smt2") > 255:  # the bytes a file name may hold; ids are ASCII
            raise ValueError(f"id {p.id!r}: its script name is over 255 bytes")
    return released


def export_all(
    problems: list[ProblemRecord],
    outdir: str | Path,
    variant: Variant = BASE,
) -> list[tuple[str, str]]:
    """Write one .smt2 per non-refuted problem, index.tsv and a variant file.

    Returns the (id, filename) index.  Output is deterministic: problems
    are sorted by id and the emitter is pure.  Nothing is written before
    every id is checked (see exported) and every script built: a refusal
    leaves nothing behind.  A stale variant file goes before the first
    script and the new one comes last: `run` refuses an export cut short.
    """
    released = exported(problems)
    index = [(p.id, f"{p.id}.smt2") for p in released]
    scripts = [emit(p, variant) for p in released]
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "variant").unlink(missing_ok=True)
    for (_, filename), script in zip(index, scripts):
        (outdir / filename).write_text(script)
    (outdir / "index.tsv").write_text("".join(f"{pid}\t{fname}\n" for pid, fname in index))
    (outdir / "variant").write_text(variant.label() + "\n")
    return index


def read_variant(directory: str | Path) -> Variant:
    """The variant export_all wrote to directory; a bad label names the file."""
    path = Path(directory) / "variant"
    try:
        return Variant(path.read_text().strip())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_index(path: str | Path) -> list[tuple[str, str]]:
    """The (id, filename) rows of an index.tsv, each cell a plain file name
    as a problem id is, so that a script is read from the export directory
    alone; a bad row or a repeated id raises ValueError naming path:line."""
    rows = []
    first_lines: dict[str, int] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        cells = tuple(line.split("\t"))
        if len(cells) != 2 or not all(cells):
            raise ValueError(f"{path}:{lineno}: expected 2 tab-separated fields")
        for name, cell in zip(("id", "filename"), cells):
            if not _ID_RE.fullmatch(cell):
                raise ValueError(f"{path}:{lineno}: {name} must be a plain file name, got {cell!r}")
        first = first_lines.setdefault(cells[0], lineno)
        if first != lineno:
            raise ValueError(f"{path}:{lineno}: repeated id {cells[0]!r} (first on line {first})")
        rows.append(cells)
    return rows
