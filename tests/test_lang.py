import json
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopbench
from loopbench.interp import evaluate
from loopbench.lang import (
    ARITY,
    BODY_SLOTS,
    MAX_DEPTH,
    Op,
    ParseError,
    Program,
    depends_on,
    parse,
    size,
    subprograms,
    to_text,
    X,
    Y,
    ZERO,
    ONE,
    TWO,
)
from oracles import compound_census, free_vars, programs, random_program


def test_operator_codes_are_stable():
    assert [op.value for op in Op] == list(range(14))
    assert Op.ZERO == 0 and Op.X == 3 and Op.ADD == 5 and Op.COMPR == 13


def test_arities():
    assert ARITY[Op.ZERO] == 0
    assert ARITY[Op.ADD] == 2
    assert ARITY[Op.COND] == 3
    assert ARITY[Op.LOOP] == 3
    assert ARITY[Op.LOOP2] == 5
    assert ARITY[Op.COMPR] == 2


def test_program_rejects_wrong_arity():
    with pytest.raises(ValueError):
        Program(Op.ADD, (X,))
    with pytest.raises(ValueError):
        Program(Op.LOOP2, (X, X, X))
    with pytest.raises(ValueError):
        Program(Op.X, (X,))
    # An operator given by its plain number is named as its Op.
    with pytest.raises(ValueError, match="^ADD takes 2 arguments, got 0$"):
        Program(5)


@pytest.mark.parametrize("op", [99, -1, "x", None])
def test_program_rejects_an_operator_outside_op(op):
    with pytest.raises(ValueError, match=f"^unknown operator {op!r}$"):
        Program(op)


def test_program_holds_a_tuple_of_programs():
    # Arguments given as a list are held as a tuple: the program hashes.
    listed = Program(Op.ADD, [X, X])
    assert listed == Program(Op.ADD, (X, X)) and type(listed.args) is tuple
    assert hash(listed) == hash(Program(Op.ADD, (X, X)))
    with pytest.raises(ValueError, match="^ADD arguments must be programs, got 1$"):
        Program(Op.ADD, (1, 2))


def test_a_program_built_in_python_keeps_the_depth_bound():
    # As deep as parse allows, then one level more, built node by node.
    p = X
    for _ in range(MAX_DEPTH - 1):
        p = Program(Op.ADD, (p, ONE))
    assert parse(to_text(p)) == p and evaluate(p, 0).value == MAX_DEPTH - 1
    with pytest.raises(ValueError, match=f"^program deeper than {MAX_DEPTH} levels$"):
        Program(Op.ADD, (p, ONE))
    with pytest.raises(ValueError, match=f"^program deeper than {MAX_DEPTH} levels$"):
        Program(Op.ADD, (X, ONE))._replace(args=(ONE, p))


def test_parse_basic_forms():
    assert parse("0") == ZERO
    assert parse("x") == X
    assert parse("X  ") == X
    assert parse("x + y") == Program(Op.ADD, (X, Y))
    assert parse("2 * (x * y)") == Program(Op.MUL, (TWO, Program(Op.MUL, (X, Y))))
    assert parse("cond(x, 1, 2)") == Program(Op.COND, (X, ONE, TWO))
    assert parse("if x <= 0 then 1 else 2") == Program(Op.COND, (X, ONE, TWO))
    assert parse("compr(x - 2, x)") == Program(Op.COMPR, (Program(Op.SUB, (X, TWO)), X))
    assert parse("loop2(x + y, x, x, 0, 1)") == Program(
        Op.LOOP2, (Program(Op.ADD, (X, Y)), X, X, ZERO, ONE)
    )


def test_parse_precedence_and_associativity():
    assert parse("x + y * 2") == Program(Op.ADD, (X, Program(Op.MUL, (Y, TWO))))
    assert parse("x - y - 2") == parse("(x - y) - 2")
    assert parse("x div y mod 2") == parse("(x div y) mod 2")
    assert parse("x + 2 * y + 1") == parse("x + (2 * y) + 1")


def test_parse_is_case_insensitive_on_keywords():
    assert parse("LOOP(X + Y, X, 0)") == parse("loop(x + y, x, 0)")
    assert parse("IF x <= 0 THEN 1 ELSE 2") == parse("cond(x, 1, 2)")


@pytest.mark.parametrize(
    "bad, message, pos",
    [
        ("", "unexpected token 'end of input'", 0),
        ("3", "integer literal 3 is not one of 0, 1, 2", 0),
        ("x + 7", "integer literal 7 is not one of 0, 1, 2", 4),
        ("loop(x, x)", "loop takes 3 arguments, got 2", 0),
        ("loop(x, x, x, x)", "loop takes 3 arguments, got 4", 0),
        ("x +", "unexpected token 'end of input'", 3),
        ("(x + y", "expected ')', found 'end of input'", 6),
        ("x + y)", "trailing input starting with ')'", 5),
        ("if x <= 1 then 0 else 1", "conditional guard must compare against 0", 8),
        ("if x < 0 then 0 else 1", "unexpected character '<'", 5),
        ("foo(x)", "unknown identifier 'foo'", 0),
        ("x ^ 2", "unexpected character '^'", 2),
        ("x + y trailing", "trailing input starting with 'trailing'", 6),
        ("cond(x, 1)", "cond takes 3 arguments, got 2", 0),
        ("loop2(x, x, x, x)", "loop2 takes 5 arguments, got 4", 0),
        ("if x <= 0", "expected 'then', found 'end of input'", 9),
        ("if x <= 0 then 1", "expected 'else', found 'end of input'", 16),
    ],
)
def test_parse_rejects(bad, message, pos):
    with pytest.raises(ParseError) as info:
        parse(bad)
    assert str(info.value) == f"{message} (at position {pos})"
    assert info.value.pos == pos


@pytest.mark.parametrize(
    "bad, message, pos",
    [
        # A character no token spells is found before any grammar error.
        ("x + ) ^", "unexpected character '^'", 6),
        ("(" * (MAX_DEPTH + 1) + "=", "unexpected character '='", MAX_DEPTH + 1),
        # Positions count the text as given, spaces and capitals included.
        ("LOOP(X,\tX)  FOO", "loop takes 3 arguments, got 2", 0),
        ("  Loop(x, x, 0)\n  Foo", "trailing input starting with 'foo'", 18),
        ("x +\n\n  ", "unexpected token 'end of input'", 7),
    ],
)
def test_parse_error_precedence_and_positions(bad, message, pos):
    with pytest.raises(ParseError) as info:
        parse(bad)
    assert str(info.value) == f"{message} (at position {pos})"


def test_parse_rejects_non_ascii():
    with pytest.raises(ParseError):
        parse("x − y")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse("x + ^")
    assert info.value.pos == 4


def test_equal_subterms_of_one_text_are_one_object():
    p = parse("(2 + 1) * (2 + 1)")
    assert p.args[0] is p.args[1]
    p = parse("loop(x + 1, x + 1, cond(x + 1, 1, x + 1))")
    assert compound_census([p]) == (3, 3)


def test_a_shared_table_returns_one_object_per_distinct_subterm():
    table = {}
    first = parse("loop((x * 2) + 1, x, 0)", table)
    assert parse("loop((x * 2) + 1, x, 0)", table) is first
    again = parse("((x * 2) + 1) - (x*2)", table)
    assert again.args[0] is first.args[0]
    assert again.args[1] is first.args[0].args[0]
    # Without the table each parse builds its own nodes.
    assert parse("loop((x * 2) + 1, x, 0)") is not first


def test_a_shared_table_parses_each_text_as_a_fresh_parse_does():
    rng = random.Random(2310)
    texts = [to_text(random_program(rng, depth=4)) for _ in range(400)]
    table = {}
    shared = [parse(text, table) for text in texts]
    for text, p in zip(texts, shared):
        assert p == parse(text)
        assert to_text(p) == text
        assert parse(text, table) is p
    objects, distinct = compound_census(shared)
    assert objects == distinct < compound_census(parse(text) for text in texts)[0]


def test_a_shared_table_keeps_the_nesting_bound():
    table = {}
    inner = "x" + " + 1" * (MAX_DEPTH - 1)
    parse(inner, table)
    with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels"):
        parse(f"({inner}) * 2", table)


def test_printer_pins():
    assert to_text(parse("loop(2 * (x * y), x, 1)")) == "loop(2 * (x * y), x, 1)"
    assert to_text(parse("(x + x) + x")) == "(x + x) + x"
    assert to_text(parse("x + (x + x)")) == "x + (x + x)"
    cond = Program(Op.COND, (X, ONE, TWO))
    assert to_text(cond) == "cond(x, 1, 2)"
    assert to_text(cond, if_style=True) == "if x <= 0 then 1 else 2"


def test_printer_parenthesizes_only_binary_operands():
    assert to_text(parse("loop(x + y, x, 0)")) == "loop(x + y, x, 0)"
    assert to_text(parse("x * (y + 1)")) == "x * (y + 1)"
    assert to_text(parse("compr(x - 2, x) + 1")) == "compr(x - 2, x) + 1"


def test_printer_if_style_nesting():
    p = Program(Op.COND, (Program(Op.ADD, (X, Y)), ONE, TWO))
    assert to_text(p, if_style=True) == "if x + y <= 0 then 1 else 2"
    # A conditional used as a binary operand does need parentheses.
    q = Program(Op.ADD, (Program(Op.COND, (X, ONE, TWO)), ONE))
    assert to_text(q, if_style=True) == "(if x <= 0 then 1 else 2) + 1"
    assert parse(to_text(q, if_style=True)) == q
    # Nested conditionals bind the way they are printed.
    r = Program(Op.COND, (X, Program(Op.COND, (Y, ONE, TWO)), TWO))
    assert to_text(r, if_style=True) == "if x <= 0 then if y <= 0 then 1 else 2 else 2"
    assert parse(to_text(r, if_style=True)) == r


def test_size_pins():
    assert size(parse("loop(2 * (x * y), x, 1)")) == 8
    assert size(parse("(x + x) + x")) == 5
    assert size(X) == 1


def test_subprograms_preorder():
    p = parse("(x + y) * 2")
    assert [s.op for s in subprograms(p)] == [Op.MUL, Op.ADD, Op.X, Op.Y, Op.TWO]


def test_depends_on_pins():
    assert depends_on(parse("loop(x + y, x, 1)"), Op.X)
    assert not depends_on(parse("loop(x + y, 2, 1)"), Op.X)
    assert not depends_on(parse("loop(x + y, 2, 1)"), Op.Y)
    assert depends_on(parse("loop(1, 2, y)"), Op.Y)
    assert not depends_on(parse("loop2(x + y, x * y, 2, 1, 0)"), Op.X)
    assert depends_on(parse("loop2(1, 1, x, 1, 0)"), Op.X)
    assert not depends_on(parse("compr(x + y, 2)"), Op.X)
    assert depends_on(parse("compr(1, y)"), Op.Y)


@settings(max_examples=300)
@given(programs())
def test_text_round_trip(p):
    assert parse(to_text(p)) == p
    assert parse(to_text(p, if_style=True)) == p


@settings(max_examples=300)
@given(programs(), st.sampled_from([Op.X, Op.Y]))
def test_depends_on_matches_free_variables(p, var):
    assert depends_on(p, var) == (var in free_vars(p))


@settings(max_examples=100)
@given(programs(), st.sampled_from([Op.X, Op.Y]))
def test_copies_know_their_free_variables(p, var):
    for copy in (p._replace(), pickle.loads(pickle.dumps(p)), Program(p.op, list(p.args))):
        assert copy is not p and depends_on(copy, var) == (var in free_vars(p))


@settings(max_examples=100)
@given(programs())
def test_body_slots_are_bound(p):
    # Wrapping a program in a loop body hides its x/y from the outside.
    assert not depends_on(Program(Op.LOOP, (p, TWO, ONE)), Op.X)
    wrapped = Program(Op.COMPR, (p, ONE))
    assert not depends_on(wrapped, Op.X)
    assert not depends_on(wrapped, Op.Y)
    assert BODY_SLOTS[Op.LOOP2] == (0, 1)


def _depth(p: Program) -> int:
    return 1 + max((_depth(a) for a in p.args), default=0)


def _nested_texts(levels: int) -> list[str]:
    """Texts whose syntax tree depth or nesting is `levels`."""
    return [
        "x" + " + 1" * (levels - 1),
        "1 * " * (levels - 1) + "x",
        "(" * levels + "x" + ")" * levels,
        "loop(" * (levels - 1) + "x" + ", x, 0)" * (levels - 1),
        "if x <= 0 then 1 else " * (levels - 1) + "2",
    ]


@pytest.mark.parametrize("text", _nested_texts(MAX_DEPTH))
def test_programs_at_the_nesting_bound_parse_evaluate_and_print(text):
    p = parse(text)
    assert _depth(p) <= MAX_DEPTH
    assert evaluate(p, 2).ok
    assert parse(to_text(p)) == p
    assert parse(to_text(p, if_style=True)) == p


# Parses each at-the-bound text under a low recursion limit.  The parser
# spends a fixed number of frames per nesting level; a rewrite that adds
# one (say, one shared helper for both binary precedence levels) needs
# about 100 more and fails here.
PARSE_UNDER_LIMIT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from loopbench.lang import parse
texts = json.load(sys.stdin)
sys.setrecursionlimit(600)
for text in texts:
    parse(text)
"""


def test_programs_at_the_nesting_bound_parse_under_a_low_recursion_limit():
    src = str(Path(loopbench.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", PARSE_UNDER_LIMIT, src],
        input=json.dumps(_nested_texts(MAX_DEPTH)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("text", _nested_texts(MAX_DEPTH + 1) + ["x" + " + 1" * 600, "(" * 3000])
def test_nesting_past_the_bound_is_a_parse_error(text):
    with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels"):
        parse(text)
