import random
import re
from collections import Counter
from typing import NamedTuple

import pytest
from hypothesis import assume, given, settings

from conftest import FIXTURES
from loopbench import smt
from loopbench.interp import VERIFY_CONFIG, Budget, EvalConfig, evaluate
from loopbench.lang import LOOPING_OPS, Op, Program, depends_on, parse, subprograms
from loopbench.oeis import ProblemRecord, load_problems, save_problems
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
    programs,
    random_program,
)

# The released benchmark's frozen manifest: 158 rows, 108 of them released.
BENCH_PROBLEMS = FIXTURES.parent / "bench" / "expected" / "problems.jsonl"

ALL_VARIANTS = [
    Variant(name) for name in ("base", "c1", "c3", "c8", "c2x", "c2x-appendix", "strong")
]

# The paper's eleven exported variants, and c2x in its appendix form.
EVERY_VARIANT = [Variant(name) for name in smt.VARIANTS]

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
    assert script.endswith(
        f"{DOUBLE_FACTORIAL_ASSERTS}\n{DOUBLE_FACTORIAL_CONJECTURE}\n(check-sat)\n"
    )
    lines = script.splitlines()
    assert lines[0] == ";; sequence(s): A165"
    assert lines[4] == "(set-logic UFNIA)"


def test_known_good_loop2_lowering(problems_by_id):
    script = emit(problems_by_id["A45-A77373"], Variant("c1"))
    assert script.endswith(f"{FIB_ASSERTS}\n{FIB_SUCC1_CONJECTURE}\n(check-sat)\n")


def test_known_good_nested_loop_lowering(problems_by_id):
    script = emit(problems_by_id["A180713"], Variant("c2x-appendix"))
    assert script.endswith(f"{PARITY_ASSERTS}\n{PARITY_TWOX_CONJECTURE}\n(check-sat)\n")


def test_nested_groups_precede_their_parents(problems_by_id):
    # The inner loop gets the later index (preorder numbering) but its
    # definitions are emitted first.
    text = emit(problems_by_id["A180713"], BASE)
    assert text.index("(= (v1 x)") < text.index("(= (f0 x)")


def test_header_lists_at_most_twenty_terms(problems_by_id):
    problem = problems_by_id["A217"]
    assert len(problem.terms) == 30
    header_terms = emit(problem, BASE).splitlines()[1]
    assert header_terms == ";; terms: " + " ".join(str(t) for t in problem.terms[:20])


def test_conjecture_shapes():
    base = render(("assert", conjecture(BASE)))
    assert "(or" not in base
    succ2 = render(("assert", conjecture(Variant("c2"))))
    assert succ2.index("(+ c 2)") < succ2.index("(+ c 1)") < succ2.index("(small c)")
    twox = render(("assert", conjecture(Variant("c2x"))))
    assert "(+ (* c 2) 1)" in twox and "(* 2 (+ c 1))" not in twox
    strong = render(("assert", conjecture(Variant("strong"))))
    assert "(forall ((d Int))" in strong
    assert "(=> (and (<= 0 d) (< d c))" in strong


def test_parse_variant():
    assert parse_variant is Variant
    assert len(smt.VARIANTS) == 12 and parse_variant("base") == BASE


def test_each_variant_has_one_label_that_parses_back_to_it():
    labels = [variant.label() for variant in EVERY_VARIANT]
    assert labels == list(smt.VARIANTS)
    for variant in EVERY_VARIANT + ALL_VARIANTS:
        assert parse_variant(variant.label()) == variant


def test_every_variant_name_exports_a_directory_that_reads_back_equal(problems, tmp_path):
    for name in smt.VARIANTS:
        export_all(problems, tmp_path / name, Variant(name))
        assert smt.read_variant(tmp_path / name) == Variant(name)
        assert (tmp_path / name / "variant").read_text() == name + "\n"
    # Names no command accepts are no Variant either, so no export
    # directory can record one.
    for bad in ("c0", "c9", "succ", "C3"):
        with pytest.raises(ValueError, match=f"^unknown conjecture variant {bad!r}$"):
            Variant(bad)


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
            check_smt_script(emit(problem, variant))


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
        text = emit(problem, BASE)
        declared = {
            m.group(1): len(m.group(2).split())
            for m in decl_re.finditer(text)
        }
        expected = {"small": 1, "fast": 1}
        index = 0
        for side in (problem.small, problem.fast):
            for sub in (s for s in subprograms(side) if s.op in LOOPING_OPS):
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
    assert isinstance(emit(problem, BASE), str)
    assert emit(problem, BASE) == emit(problem, BASE)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    problems = list(problems_by_id.values())
    export_all(problems, a_dir, BASE)
    export_all(problems, b_dir, BASE)
    a_files = sorted(p.name for p in a_dir.iterdir())
    assert a_files == sorted(p.name for p in b_dir.iterdir())
    for name in a_files:
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_export_all_skips_refuted_and_writes_index(problems, tmp_path):
    problems = [p._replace(status="refuted") if p.id == "A999999" else p for p in problems]
    index = export_all(problems, tmp_path, BASE)
    ids = [pid for pid, _ in index]
    assert ids == sorted(ids)
    assert "A999999" not in ids
    assert not (tmp_path / "A999999.smt2").exists()
    index_lines = (tmp_path / "index.tsv").read_text().splitlines()
    assert index_lines == [f"{pid}\t{fname}" for pid, fname in index]
    assert smt.read_index(tmp_path / "index.tsv") == index
    assert (tmp_path / "variant").read_text() == "base\n"


def test_export_all_refuses_a_repeated_id_and_writes_nothing(problems, tmp_path):
    # A refuted record repeats the id too: its manifest would not read back.
    twice = [problems[0], *problems[1:], problems[0]._replace(status="refuted")]
    with pytest.raises(ValueError, match=f"^repeated id {problems[0].id!r}$"):
        export_all(twice, tmp_path / "out", BASE)
    assert not (tmp_path / "out").exists()


def test_export_all_refuses_an_id_too_long_for_a_file_name_and_writes_nothing(problems, tmp_path):
    # A script name holds at most 255 bytes, ".smt2" included.
    longest = problems[0]._replace(id="A" + "1" * 249)
    assert [pid for pid, _ in export_all([longest], tmp_path / "ok", BASE)] == [longest.id]
    too_long = problems[0]._replace(id=longest.id + "1")
    with pytest.raises(ValueError, match=f"^id {too_long.id!r}: its script name is over 255 bytes$"):
        export_all([*problems, too_long], tmp_path / "out", BASE)
    assert not (tmp_path / "out").exists()
    # A refuted problem is not exported, so its id is not a script name.
    refuted = too_long._replace(status="refuted")
    assert len(export_all([*problems, refuted], tmp_path / "out", BASE)) == len(problems)


# Each record is lowered and rendered once, each variant's conjecture
# rendered once; what is kept must give the same bytes as a fresh start.


def test_emit_after_every_other_variant_matches_a_fresh_record(problems):
    for problem in problems:
        for variant in EVERY_VARIANT:
            used = problem._replace()
            for other in EVERY_VARIANT:
                if other != variant:
                    emit(used, other)
            fresh = emit(problem._replace(), variant._replace())
            script = emit(used, variant)
            assert script == fresh, (problem.id, variant)
            assert script.splitlines()[-2] == render(("assert", conjecture(variant)))


def test_export_lowers_each_problem_once_across_variants(problems, tmp_path, monkeypatch):
    lowered = []

    def counting(small, fast):
        lowered.append((small, fast))
        return lower_(small, fast)

    lower_ = smt.lower
    monkeypatch.setattr(smt, "lower", counting)
    for variant in EVERY_VARIANT:
        index = export_all(problems, tmp_path / variant.label(), variant)
        assert len(index) == len(problems)
        assert smt.read_variant(tmp_path / variant.label()) == variant
    by_id = sorted(problems, key=lambda p: p.id)
    assert lowered == [(p.small, p.fast) for p in by_id]


def test_emission_leaves_records_equal_hashed_and_saved_alike(problems, tmp_path):
    before = tmp_path / "before.jsonl"
    save_problems(problems, before)
    hashes = [hash(p) for p in problems]
    for problem in problems:
        for variant in EVERY_VARIANT:
            emit(problem, variant)
    assert problems == [p._replace() for p in problems]
    assert [hash(p) for p in problems] == hashes
    after = tmp_path / "after.jsonl"
    save_problems(problems, after)
    assert after.read_bytes() == before.read_bytes()


# Cross-checking the lowering by direct evaluation of the definitions.


def _interp_value(program, x):
    out = evaluate(program, x, 0, Budget(VERIFY_CONFIG.per_call_limit), VERIFY_CONFIG)
    return out.value if out.ok else None


class Cosim(NamedTuple):
    agree: int  # points where both sides' definitions give evaluate's values
    disagree: list[int]  # the points where a side's do not
    skipped: int  # points from the first one that could not be run on
    negative_divmod: bool  # some div or mod in the definitions saw a negative operand


def cosimulate(
    small: Program,
    fast: Program,
    xs: range,
    cfg: EvalConfig = VERIFY_CONFIG,
    max_steps: int = 5_000_000,
) -> Cosim:
    """Co-simulate a pair's lowering: its definitions, run by DefEvaluator,
    against evaluate, at each x of xs in turn.

    A point is one x, compared on both sides, each evaluate call with a
    fresh budget.  The walk stops at the first point where evaluate fails
    on either side; that point and the rest are skipped.  The definition
    evaluator hitting its step limit raises SmtEvalError, as any other
    failure of the definitions does: a lowered recursion that does not
    end fails every caller.
    """
    small_defs, fast_defs = lower(small, fast)
    ev = DefEvaluator(small_defs + fast_defs, max_steps=max_steps)
    agree, disagree = 0, []
    for n, x in enumerate(xs):
        outcomes = [evaluate(p, x, 0, Budget(cfg.per_call_limit), cfg) for p in (small, fast)]
        if not all(o.ok for o in outcomes):
            return Cosim(agree, disagree, len(xs) - n, ev.negative_divmod)
        values = [ev.call(side, (x,)) for side in ("small", "fast")]
        if values == [o.value for o in outcomes]:
            agree += 1
        else:
            disagree.append(x)
    return Cosim(agree, disagree, 0, ev.negative_divmod)


def test_lowered_definitions_compute_the_programs(problems):
    for problem in problems + [NUMBERING_PROBLEM]:
        if problem.id == "A999999":
            continue
        result = cosimulate(problem.small, problem.fast, range(31))
        assert result.disagree == [], problem.id
        assert not result.negative_divmod, problem.id


def test_lowered_compr_matches_interpreter():
    finder = parse("compr(x - (2 + 2), x)")
    assert cosimulate(finder, parse("x"), range(5)) == Cosim(5, [], 0, False)
    assert [_interp_value(finder, x) for x in range(5)] == [0, 1, 2, 3, 4]


def test_lowering_cosimulates_on_every_released_bench_problem():
    released = [p for p in load_problems(BENCH_PROBLEMS) if p.released]
    results = [cosimulate(p.small, p.fast, range(31)) for p in released]
    assert len(released) == 108
    assert sum(r.agree for r in results) == 108 * 31
    assert not any(r.negative_divmod for r in results)


def test_cosimulate_raises_when_the_definitions_hit_the_step_limit():
    # loop(x + y, x, 1) lowers to a recursion of about x steps per call;
    # cut at 50 steps it must fail the walk, not end it early.
    with pytest.raises(SmtEvalError, match="step limit"):
        cosimulate(parse("loop(x + y, x, 1)"), parse("x"), range(31), max_steps=50)


def test_lowering_cosimulates_on_random_programs_and_flags_every_disagreement():
    rng = random.Random(7)
    cfg = EvalConfig(per_call_limit=2_000)
    totals = Counter()
    for _ in range(1_500):
        small, fast = random_program(rng, depth=3), random_program(rng, depth=3)
        if depends_on(small, Op.Y) or depends_on(fast, Op.Y):
            continue
        result = cosimulate(small, fast, range(12), cfg, max_steps=20_000)
        # SMT-LIB's Euclidean div and mod differ from floor division only
        # for a negative divisor.
        assert not result.disagree or result.negative_divmod, (small, fast, result)
        totals.update(agree=result.agree, disagree=len(result.disagree), skipped=result.skipped)
    # 316 pairs of 12 points, none of them cut by the step limit; the 6
    # disagreements are one pair's, whose divisor goes negative.
    assert totals == Counter(agree=2_113, disagree=6, skipped=1_673)


@settings(max_examples=200, deadline=None)
@given(programs(max_leaves=10), programs(max_leaves=10))
def test_lowering_cosimulates_on_drawn_programs_and_flags_every_disagreement(small, fast):
    # The Hypothesis twin of the seeded test above: hitting the step limit
    # raises, and a disagreement must come with a negative divisor.
    assume(not depends_on(small, Op.Y) and not depends_on(fast, Op.Y))
    result = cosimulate(small, fast, range(12), EvalConfig(per_call_limit=2_000), max_steps=20_000)
    assert not result.disagree or result.negative_divmod, (small, fast, result)


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
