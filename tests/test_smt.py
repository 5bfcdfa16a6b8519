import re

import pytest

from loopbench.interp import VERIFY_CONFIG, Budget, evaluate
from loopbench.lang import Op, parse, looping_subprograms
from loopbench.oeis import ProblemRecord
from loopbench.smt import (
    BASE,
    Variant,
    conjecture,
    emit,
    export_all,
    lower,
    parse_variant,
    render,
)
from oracles import (
    DefEvaluator,
    SmtEvalError,
    SmtSyntaxError,
    check_smt_script,
    euclidean_div,
    euclidean_mod,
    free_vars,
)

ALL_VARIANTS = [
    BASE,
    Variant("succ", 1),
    Variant("succ", 3),
    Variant("succ", 8),
    Variant("twox"),
    Variant("twox", appendix_twox=True),
    Variant("strong"),
]

DOUBLE_FACTORIAL_ASSERTS = """\
(assert (forall ((x Int) (y Int)) (= (f0 x y) (* 2 (* x y)))))
(assert (forall ((x Int)) (= (g0 x) x)))
(assert (= h0 1))
(assert (forall ((x Int) (y Int)) (= (u0 x y) (ite (<= x 0) y (f0 (u0 (- x 1) y) x)))))
(assert (forall ((x Int)) (= (v0 x) (u0 (g0 x) h0))))
(assert (forall ((x Int)) (= (small x) (v0 x))))
(assert (forall ((x Int)) (= (f1 x) (+ x x))))
(assert (forall ((x Int)) (= (g1 x) x)))
(assert (= h1 1))
(assert (forall ((x Int) (y Int)) (= (u1 x y) (ite (<= x 0) y (f1 (u1 (- x 1) y))))))
(assert (forall ((x Int)) (= (v1 x) (u1 (g1 x) h1))))
(assert (forall ((x Int) (y Int)) (= (f2 x y) (* x y))))
(assert (forall ((x Int)) (= (g2 x) x)))
(assert (= h2 1))
(assert (forall ((x Int) (y Int)) (= (u2 x y) (ite (<= x 0) y (f2 (u2 (- x 1) y) x)))))
(assert (forall ((x Int)) (= (v2 x) (u2 (g2 x) h2))))
(assert (forall ((x Int)) (= (fast x) (* (v1 x) (v2 x)))))"""

DOUBLE_FACTORIAL_CONJECTURE = (
    "(assert (exists ((c Int)) (and (>= c 0) (not (= (small c) (fast c))))))"
)

FIB_ASSERTS = """\
(assert (forall ((x Int) (y Int)) (= (f0 x y) (+ x y))))
(assert (forall ((x Int)) (= (g0 x) x)))
(assert (forall ((x Int)) (= (h0 x) x)))
(assert (= i0 0))
(assert (= j0 1))
(assert (forall ((x Int) (y Int) (z Int)) (= (u0 x y z) (ite (<= x 0) y (f0 (u0 (- x 1) y z) (v0 (- x 1) y z))))))
(assert (forall ((x Int) (y Int) (z Int)) (= (v0 x y z) (ite (<= x 0) z (g0 (u0 (- x 1) y z))))))
(assert (forall ((x Int)) (= (w0 x) (u0 (h0 x) i0 j0))))
(assert (forall ((x Int)) (= (small x) (w0 x))))
(assert (forall ((x Int) (y Int)) (= (f1 x y) (+ x y))))
(assert (forall ((x Int)) (= (g1 x) x)))
(assert (forall ((x Int)) (= (h1 x) (- x 2))))
(assert (= i1 1))
(assert (= j1 1))
(assert (forall ((x Int) (y Int) (z Int)) (= (u1 x y z) (ite (<= x 0) y (f1 (u1 (- x 1) y z) (v1 (- x 1) y z))))))
(assert (forall ((x Int) (y Int) (z Int)) (= (v1 x y z) (ite (<= x 0) z (g1 (u1 (- x 1) y z))))))
(assert (forall ((x Int)) (= (w1 x) (u1 (h1 x) i1 j1))))
(assert (forall ((x Int)) (= (fast x) (ite (<= x 0) 0 (w1 x)))))"""

FIB_SUCC1_CONJECTURE = (
    "(assert (exists ((c Int)) (and (>= c 0)"
    " (or (not (= (small (+ c 1)) (fast (+ c 1))))"
    " (not (= (small c) (fast c)))))))"
)

PARITY_ASSERTS = """\
(assert (forall ((x Int)) (= (small x) (+ (+ (+ (+ (mod (* (div x 2) x) 2) (mod x 2)) x) x) x))))
(assert (= f1 1))
(assert (forall ((x Int)) (= (g1 x) (- 2 (mod x (+ 2 2))))))
(assert (= h1 2))
(assert (forall ((x Int) (y Int)) (= (u1 x y) (ite (<= x 0) y f1))))
(assert (forall ((x Int)) (= (v1 x) (u1 (g1 x) h1))))
(assert (forall ((x Int)) (= (f0 x) (+ (v1 x) x))))
(assert (forall ((x Int)) (= (g0 x) (mod x 2))))
(assert (forall ((x Int)) (= (h0 x) x)))
(assert (forall ((x Int) (y Int)) (= (u0 x y) (ite (<= x 0) y (f0 (u0 (- x 1) y))))))
(assert (forall ((x Int)) (= (v0 x) (u0 (g0 x) (h0 x)))))
(assert (forall ((x Int)) (= (fast x) (+ (+ (v0 x) x) x))))"""

PARITY_TWOX_CONJECTURE = (
    "(assert (exists ((c Int)) (and (>= c 0)"
    " (or (not (= (small (* c 2)) (fast (* c 2))))"
    " (not (= (small (* 2 (+ c 1))) (fast (* 2 (+ c 1)))))))))"
)

# Sibling loops in first-order context, a nested loop, and loops on both
# sides: pins the preorder numbering, small side first.  Both sides are
# x(x+1)(x+2)/6 + 2x.
NUMBERING_PROBLEM = ProblemRecord(
    "NUMBERING",
    [],
    [],
    parse("loop(x + loop(x + y, y, 0), x, 0) + compr(x mod 2, x)"),
    parse("x * (x + 1) * (x + 2) div loop(x * y, 2 + 1, 1) + loop2(x + 2, y, x, 0, 0)"),
)


def test_known_good_loop_lowering(problems_by_id):
    script = emit(problems_by_id["A165"], BASE)
    assert "\n".join(script.assertions) == DOUBLE_FACTORIAL_ASSERTS
    assert script.conjecture == DOUBLE_FACTORIAL_CONJECTURE
    assert script.logic == "(set-logic UFNIA)"
    assert script.header[0] == ";; sequence(s): A165"
    assert script.text().endswith("(check-sat)\n")


def test_known_good_loop2_lowering(problems_by_id):
    script = emit(problems_by_id["A45-A77373"], Variant("succ", 1))
    assert "\n".join(script.assertions) == FIB_ASSERTS
    assert script.conjecture == FIB_SUCC1_CONJECTURE


def test_known_good_nested_loop_lowering(problems_by_id):
    script = emit(problems_by_id["A180713"], Variant("twox", appendix_twox=True))
    assert "\n".join(script.assertions) == PARITY_ASSERTS
    assert script.conjecture == PARITY_TWOX_CONJECTURE


def test_nested_groups_precede_their_parents(problems_by_id):
    # The inner loop gets the later index (preorder numbering) but its
    # definitions are emitted first.
    text = emit(problems_by_id["A180713"], BASE).text()
    assert text.index("(= (v1 x)") < text.index("(= (f0 x)")


def test_header_lists_at_most_twenty_terms(problems_by_id):
    problem = problems_by_id["A217"]
    assert len(problem.terms) == 30
    header_terms = emit(problem, BASE).header[1]
    assert header_terms == ";; terms: " + " ".join(str(t) for t in problem.terms[:20])


def test_conjecture_shapes():
    succ0 = render(("assert", conjecture(Variant("succ", 0))))
    base = render(("assert", conjecture(BASE)))
    assert succ0 == base  # no one-element disjunction
    succ2 = render(("assert", conjecture(Variant("succ", 2))))
    assert succ2.index("(+ c 2)") < succ2.index("(+ c 1)") < succ2.index("(small c)")
    twox = render(("assert", conjecture(Variant("twox"))))
    assert "(+ (* c 2) 1)" in twox and "(* 2 (+ c 1))" not in twox
    strong = render(("assert", conjecture(Variant("strong"))))
    assert "(forall ((d Int))" in strong
    assert "(=> (and (<= 0 d) (< d c))" in strong


def test_parse_variant():
    assert parse_variant("base") == BASE
    assert parse_variant("c1") == Variant("succ", 1)
    assert parse_variant("c8") == Variant("succ", 8)
    assert parse_variant("c2x") == Variant("twox")
    assert parse_variant("c2x", appendix_twox=True) == Variant("twox", appendix_twox=True)
    assert parse_variant("strong") == Variant("strong")
    for bad in ("c0", "c9", "c2y", "succ", ""):
        with pytest.raises(ValueError):
            parse_variant(bad)


def test_lower_rejects_top_level_y():
    with pytest.raises(ValueError):
        lower(parse("x + y"), parse("x"))
    with pytest.raises(ValueError):
        lower(parse("x"), parse("loop(x, y, 0)"))


def test_all_exports_pass_surface_check(problems, tmp_path):
    for problem in problems:
        if problem.id == "A999999":
            continue
        for variant in ALL_VARIANTS:
            check_smt_script(emit(problem, variant).text())


def test_surface_checker_rejects_malformed_scripts():
    good = "(set-logic UFNIA)\n(declare-fun f (Int) Int)\n(assert (forall ((x Int)) (= (f x) x)))\n(check-sat)\n"
    check_smt_script(good)
    bad_scripts = [
        good.replace("(check-sat)\n", ""),  # missing check-sat
        good.replace("(= (f x) x)", "(= (f x x) x)"),  # arity misuse
        good.replace("(= (f x) x)", "(= (g x) x)"),  # undeclared symbol
        good.replace("(= (f x) x)", "(= (f y) x)"),  # unbound variable
        good.replace("(set-logic UFNIA)", "(set-logic QF_LIA)"),
        good[:-12],  # truncated
        good.replace("(assert (forall ((x Int)) (= (f x) x)))\n", ""),  # no assertions
    ]
    for bad in bad_scripts:
        with pytest.raises(SmtSyntaxError):
            check_smt_script(bad)


def test_declared_arities_match_variable_dependence(problems):
    decl_re = re.compile(r"\(declare-fun (\w+) \(((?:Int ?)*)\) Int\)")
    helper_arity = {
        Op.LOOP: {"u": 2, "v": None},  # v is the wrapper
        Op.LOOP2: {"u": 3, "v": 3, "w": None},
        Op.COMPR: {"t": 1, "u": 1, "v": None},
    }
    piece_letters = {Op.LOOP: "fgh", Op.LOOP2: "fghij", Op.COMPR: "fg"}
    for problem in problems + [NUMBERING_PROBLEM]:
        if problem.id == "A999999":
            continue
        text = emit(problem, BASE).text()
        declared = {
            m.group(1): len(m.group(2).split())
            for m in decl_re.finditer(text)
        }
        expected = {"small": 1, "fast": 1}
        index = 0
        for side in (problem.small, problem.fast):
            for sub, _ in looping_subprograms(side):
                kind = sub.op
                body_slots = {Op.LOOP: (0,), Op.LOOP2: (0, 1), Op.COMPR: (0,)}[kind]
                for letter, arg in zip(piece_letters[kind], sub.args):
                    expected[f"{letter}{index}"] = len(free_vars(arg))
                for letter, arity in helper_arity[kind].items():
                    expected[f"{letter}{index}"] = (
                        arity if arity is not None else len(free_vars(sub))
                    )
                index += 1
        assert declared == expected, problem.id


def test_emit_is_deterministic(problems_by_id, tmp_path):
    problem = problems_by_id["A165"]
    assert emit(problem, BASE).text() == emit(problem, BASE).text()
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    problems = list(problems_by_id.values())
    export_all(problems, a_dir, BASE)
    export_all(problems, b_dir, BASE)
    a_files = sorted(p.name for p in a_dir.iterdir())
    assert a_files == sorted(p.name for p in b_dir.iterdir())
    for name in a_files:
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_export_all_skips_refuted_and_writes_index(problems, tmp_path):
    for problem in problems:
        if problem.id == "A999999":
            problem.status = "refuted"
    index = export_all(problems, tmp_path, BASE)
    ids = [pid for pid, _ in index]
    assert ids == sorted(ids)
    assert "A999999" not in ids
    assert not (tmp_path / "A999999.smt2").exists()
    index_lines = (tmp_path / "index.tsv").read_text().splitlines()
    assert index_lines == [f"{pid}\t{fname}" for pid, fname in index]


# Cross-checking the lowering by direct evaluation of the definitions.


def _interp_value(program, x):
    out = evaluate(program, x, 0, Budget(VERIFY_CONFIG.per_call_limit), VERIFY_CONFIG)
    return out.value if out.ok else None


def test_lowered_definitions_compute_the_programs(problems):
    for problem in problems + [NUMBERING_PROBLEM]:
        if problem.id == "A999999":
            continue
        small_defs, fast_defs = lower(problem.small, problem.fast)
        ev = DefEvaluator(small_defs + fast_defs, max_steps=5_000_000)
        for x in range(31):
            expected_small = _interp_value(problem.small, x)
            expected_fast = _interp_value(problem.fast, x)
            if expected_small is None or expected_fast is None:
                break
            assert ev.call("small", (x,)) == expected_small, (problem.id, x)
            assert ev.call("fast", (x,)) == expected_fast, (problem.id, x)
        assert not ev.negative_divmod, problem.id


def test_lowered_compr_matches_interpreter():
    finder = parse("compr(x - (2 + 2), x)")
    small_defs, fast_defs = lower(finder, parse("x"))
    ev = DefEvaluator(small_defs + fast_defs)
    for x in range(5):
        assert ev.call("small", (x,)) == _interp_value(finder, x) == x


def test_euclidean_and_floor_division_diverge_on_negative_divisors():
    assert euclidean_div(7, -2) == -3
    assert euclidean_mod(7, -2) == 1
    assert 7 // -2 == -4 and 7 % -2 == -1
    assert euclidean_div(-7, 2) == -7 // 2 == -4
    assert euclidean_mod(-7, 2) == -7 % 2 == 1
    with pytest.raises(SmtEvalError):
        euclidean_div(1, 0)


def test_def_evaluator_flags_negative_divmod():
    div_prog = parse("x div (0 - 2)")
    small_defs, fast_defs = lower(div_prog, parse("x"))
    ev = DefEvaluator(small_defs + fast_defs)
    ev.call("small", (7,))
    assert ev.negative_divmod
    assert ev.call("small", (7,)) == -3  # Euclidean, not floor
    assert _interp_value(div_prog, 7) == -4


def test_def_evaluator_guards():
    ev = DefEvaluator([])
    with pytest.raises(SmtEvalError):
        ev.call("missing")
    loops_forever = parse("compr(x + 1, x)")
    small_defs, fast_defs = lower(loops_forever, parse("x"))
    ev = DefEvaluator(small_defs + fast_defs, max_steps=2_000)
    with pytest.raises((SmtEvalError, RecursionError)):
        ev.call("small", (0,))
