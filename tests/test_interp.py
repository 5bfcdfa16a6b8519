import gc
import pickle
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopbench import interp, oeis
from loopbench.interp import (
    BIG_VALUE_THRESHOLD,
    CHECK_LIMIT,
    DEFAULT_CONFIG,
    VALUE_BOUND,
    VERIFY_CONFIG,
    VERIFY_LIMIT,
    Budget,
    ErrorKind,
    EvalConfig,
    EvalOutcome,
    evaluate,
    generate_seq,
)
from conftest import FIXTURES, carried_budgets, record_evaluate
from loopbench.induction import classify_all
from loopbench.lang import LOOPING_OPS, TWO, X, Op, Program, parse, subprograms
from loopbench.verify import verify_all
from oracles import (
    RefDivZero,
    RefLimit,
    cost_eval,
    free_vars,
    programs,
    random_program,
    ref_eval,
)

TRIANGLE = parse("loop(x + y, x, 0)")
FIB = parse("loop2(x + y, x, x, 0, 1)")
POWER_TOWER = parse("loop(x * x, x, 2)")
BUSY = parse("loop(x, loop(x + x, 2 * ((2 + 2) + (2 + 2)), 1), 0)")


def test_limit_constants():
    assert CHECK_LIMIT == 100_000
    assert VERIFY_LIMIT == 1_000_000
    assert VALUE_BOUND == 10**285
    assert BIG_VALUE_THRESHOLD == 2**64


def test_value_pins():
    assert evaluate(TRIANGLE, 4).value == 10
    assert [o.value for o in generate_seq(TRIANGLE, 5)] == [0, 1, 3, 6, 10]
    assert evaluate(FIB, 6).value == 8
    assert [o.value for o in generate_seq(FIB, 10)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_cost_pins():
    out = evaluate(parse("2"), 0, 0)
    assert (out.value, out.cost) == (2, 1)
    out = evaluate(parse("x mod 2"), 5, 0)
    assert (out.value, out.cost) == (1, 7)  # x:1, 2:1, mod:5
    assert generate_seq(parse("0"), 3) == [EvalOutcome(0, 1)] * 3
    assert generate_seq(parse("x mod 2"), 1) == [EvalOutcome(0, 7)]


def test_variables_and_constants_cost_one():
    assert evaluate(parse("x"), 9).cost == 1
    assert evaluate(parse("y"), 0, 9).cost == 1
    assert evaluate(parse("x + y"), 1, 2).cost == 3


def test_div_mod_floor_semantics():
    assert evaluate(parse("x div y"), -7, 2).value == -4
    assert evaluate(parse("x mod y"), -7, 2).value == 1
    assert evaluate(parse("x div y"), 7, -2).value == -4
    assert evaluate(parse("x mod y"), 7, -2).value == -1
    assert evaluate(parse("x div y"), 7, 2).value == 3


def test_division_by_zero():
    out = evaluate(parse("1 div 0"), 0)
    assert out.error == ErrorKind.DIV_BY_ZERO
    assert out.value is None
    assert evaluate(parse("x mod (x - x)"), 3).error == ErrorKind.DIV_BY_ZERO


def test_cond_evaluates_only_the_taken_branch():
    assert evaluate(parse("cond(0, 1, 1 div 0)"), 0).value == 1
    assert evaluate(parse("cond(1, 1 div 0, 2)"), 0).value == 2
    assert evaluate(parse("cond(x, 1 div 0, 2)"), 0).error == ErrorKind.DIV_BY_ZERO


def test_loop_counts_down_to_nothing_for_negative_bounds():
    assert evaluate(parse("loop(x + 1, 0 - 2, y)"), 0, 7).value == 7
    assert evaluate(parse("loop(x + 1, 0, y)"), 0, 7).value == 7


def test_loop_body_sees_accumulator_and_iteration_index():
    # The body's y is the iteration counter, its x the accumulator.
    assert evaluate(parse("loop(y, x, 0)"), 5).value == 5
    assert evaluate(parse("loop(x, x, y)"), 5, 7).value == 7


def test_loop2_skips_second_body_on_final_step():
    assert evaluate(parse("loop2(x + y, 1 div 0, 1, x, y)"), 3, 5).value == 8
    out = evaluate(parse("loop2(x + y, 1 div 0, 2, x, y)"), 3, 5)
    assert out.error == ErrorKind.DIV_BY_ZERO


def test_loop2_nonpositive_bound_returns_first_initial():
    assert evaluate(parse("loop2(x + y, x, 0 - 1, x, y)"), 3, 5).value == 3
    assert evaluate(parse("loop2(x + y, x, 0, x, y)"), 3, 5).value == 3


def test_compr_counts_hits_from_zero():
    p = parse("compr(x - (2 + 2), x)")
    assert [o.value for o in generate_seq(p, 5)] == [0, 1, 2, 3, 4]
    assert evaluate(p, 5).error == ErrorKind.TIMEOUT
    assert evaluate(parse("compr(x - (2 + 2), 0 - 2)"), 0).value == 0


def test_power_tower_budget_boundary():
    out = evaluate(POWER_TOWER, 9)
    assert out.value == 2**512
    assert out.cost == 31_895
    assert out.cost < CHECK_LIMIT


def test_overflow_above_value_bound():
    assert evaluate(POWER_TOWER, 10).error == ErrorKind.OVERFLOW
    big = 10**285
    assert evaluate(parse("x"), big).ok
    assert evaluate(parse("x"), big * 10).error == ErrorKind.OVERFLOW
    assert evaluate(parse("x"), -big * 10).error == ErrorKind.OVERFLOW


def test_big_values_cost_their_digit_count():
    doubling = parse("loop(x + x, x, 1)")
    # 2^65 is the first big product; its addition costs 20 digits.
    base = evaluate(doubling, 64).cost
    # Extra iteration: 1 step + two reads + a 20-digit addition.
    assert evaluate(doubling, 65).cost == base + 1 + 1 + 1 + 20
    assert evaluate(doubling, 65).value == 2**65


def test_big_products_cost_digits_squared():
    c7 = evaluate(POWER_TOWER, 7).cost
    c8 = evaluate(POWER_TOWER, 8).cost
    read = len(str(2**128))  # reading a big accumulator costs its digits
    product = len(str(2**256))
    assert c8 - c7 == 1 + 2 * read + product * product


def test_big_value_digit_counts_at_powers_of_ten():
    # 10^20 is the first power of ten above 2^64; past 10^285 a read
    # overflows.
    read = parse("x")
    for k in range(20, 286):
        for m in (10**k - 1, 10**k, 10**k + 1):
            for v in (m, -m):
                out = evaluate(read, v)
                if m > VALUE_BOUND:
                    assert out == EvalOutcome(None, 0, ErrorKind.OVERFLOW), v
                else:
                    assert out == EvalOutcome(v, len(str(m))), v


def test_values_past_the_text_conversion_limit_overflow():
    # 4401 digits is past Python's default int-to-text limit of 4300; the
    # bound is checked before any digit is counted.
    for v in (10**4400, -(10**4400)):
        assert evaluate(parse("x"), v) == EvalOutcome(None, 0, ErrorKind.OVERFLOW)
        assert evaluate(parse("y + 1"), 0, v) == cost_eval(parse("y + 1"), 0, v)
        assert evaluate(parse("y + 1"), 0, v).error == ErrorKind.OVERFLOW


def test_busy_loop_times_out_at_check_limit_only():
    assert evaluate(BUSY, 1).error == ErrorKind.TIMEOUT
    verify_cfg = EvalConfig(per_call_limit=VERIFY_LIMIT)
    out = evaluate(BUSY, 1, budget=Budget(VERIFY_LIMIT), cfg=verify_cfg)
    assert out.ok


def test_timeout_zeroes_the_budget():
    budget = Budget(10)
    out = evaluate(TRIANGLE, 9, budget=budget)
    assert out.error == ErrorKind.TIMEOUT
    assert budget.remaining == 0
    assert out.cost == 10


def test_generate_seq_carries_unused_budget_forward():
    cfg = EvalConfig(per_call_limit=10)
    # Call costs are 2, 6, 10, 14, 18: x=3 alone exceeds 10, but the
    # carried surplus from earlier calls covers it.
    assert [o.cost for o in generate_seq(TRIANGLE, 5, cfg)] == [2, 6, 10, 14, 18]
    assert [o.value for o in generate_seq(TRIANGLE, 5, cfg)] == [0, 1, 3, 6, 10]
    outcomes = generate_seq(TRIANGLE, 6, cfg)
    assert len(outcomes) == 6
    assert outcomes[-1].error == ErrorKind.TIMEOUT


@pytest.mark.parametrize(
    "text, n, calls",
    [
        ("loop(x + y, x, 0)", 20, 20),
        ("loop(x + y, x, 0)", 30, 26),  # x costs 2 + 4x: x = 25 times out
        ("1 div (x - 2)", 10, 3),
    ],
)
def test_generate_seq_calls_evaluate_once_per_term(monkeypatch, text, n, calls):
    recorded = record_evaluate(monkeypatch, interp)
    p = parse(text)
    cfg = EvalConfig(per_call_limit=50)
    outcomes = generate_seq(p, n, cfg)
    assert [call[:3] for call in recorded] == [(p, x, 0) for x in range(calls)]
    assert [call[4] for call in recorded] == outcomes
    assert [call[3] for call in recorded] == carried_budgets(recorded, 50)


def test_generate_seq_stops_at_first_error():
    p = parse("1 div (x - 2)")
    outcomes = generate_seq(p, 10, EvalConfig())
    assert len(outcomes) == 3
    assert outcomes[-1].error == ErrorKind.DIV_BY_ZERO


def test_evaluate_default_y_is_zero():
    assert evaluate(parse("y"), 5).value == 0


def test_cost_is_budget_delta():
    budget = Budget(50)
    out = evaluate(parse("x + x"), 3, budget=budget)
    assert out.cost == 3
    assert budget.remaining == 47
    # Reusing the same budget accumulates.
    out2 = evaluate(parse("x"), 3, budget=budget)
    assert out2.cost == 1
    assert budget.remaining == 46


@settings(max_examples=400, deadline=None)
@given(programs(max_leaves=10), st.integers(-6, 6), st.integers(-6, 6))
def test_interpreter_matches_reference(p, x, y):
    out = evaluate(p, x, y)
    if out.error in (ErrorKind.TIMEOUT, ErrorKind.OVERFLOW):
        # A resource limit the reference does not model: whatever it
        # returns, gives up on or divides by zero, there is nothing to check.
        return
    try:
        ref = ref_eval(p, x, y)
    except RefLimit:
        return  # the reference gave up; nothing to compare
    except RefDivZero:
        assert out.error == ErrorKind.DIV_BY_ZERO, (p, x, y, out)
        return
    assert out.ok and out.value == ref, (p, x, y, out, ref)


def test_compiled_code_goes_with_the_program():
    p = parse("loop(x + y, x, 0)")
    assert evaluate(p, 4).value == 10
    # A program is a tuple, which takes no weak reference; its compiled
    # function does, and nothing but the program holds it.
    ref = weakref.ref(_code(p)[0])
    del p
    gc.collect()
    assert ref() is None


def _has_dict(p: Program) -> bool:
    """Whether p has an instance dict, found without making one, as vars
    would."""
    return any(type(r) is dict for r in gc.get_referents(p))


def test_a_program_has_an_instance_dict_only_while_it_holds_compiled_code():
    p = parse("loop(x + y, x, 0) + compr(x mod 2, x)")
    solutions = oeis.load_solutions(FIXTURES / "solutions.tsv")
    loaded = [side for r in solutions for side in (r.small, r.fast)]
    # The leaves are shared singletons, which any test may evaluate.
    nodes = [q for root in (p, *loaded) for q in subprograms(root) if q.args]
    assert not any(map(_has_dict, nodes))
    assert evaluate(p, 4).ok
    assert [q for q in nodes if _has_dict(q)] == [p] and list(vars(p)) == ["_code"]
    # A copy holds an entry of its own, and the stages evaluate copies, so
    # no other node gains a dict.
    copy = p._replace()
    assert evaluate(copy, 4) == evaluate(p, 4) and list(vars(copy)) == ["_code"]
    problems = oeis.build_problems(solutions, oeis.load_stripped(FIXTURES / "stripped"))
    classify_all(verify_all(problems)[0])
    assert [q for q in nodes if _has_dict(q)] == [p]


def test_configs_with_different_limits_share_one_compilation(monkeypatch):
    compiled = []

    def counting(p):
        compiled.append(p)
        return compile_(p)

    compile_ = interp._compile
    monkeypatch.setattr(interp, "_compile", counting)
    p = parse("loop(x + y, x, 0)")
    for cfg in (DEFAULT_CONFIG, VERIFY_CONFIG, EvalConfig(per_call_limit=20), DEFAULT_CONFIG):
        assert evaluate(p, 4, cfg=cfg).value == 10
    assert evaluate(p, 5, cfg=EvalConfig(per_call_limit=20)).error == ErrorKind.TIMEOUT
    assert len(compiled) == 1 and compiled[0] is p
    # An equal program is a different object and compiles on its own.
    q = parse("loop(x + y, x, 0)")
    assert evaluate(q, 4, cfg=VERIFY_CONFIG).value == 10
    assert len(compiled) == 2 and compiled[1] is q


def test_a_negative_per_call_limit_is_rejected():
    for make in (lambda: EvalConfig(-1), lambda: DEFAULT_CONFIG._replace(per_call_limit=-1)):
        with pytest.raises(ValueError, match="^per_call_limit must not be negative$"):
            make()


def test_a_config_pickles_under_every_protocol():
    cfg = EvalConfig(per_call_limit=7)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(cfg, protocol))
        assert copy == cfg and type(copy) is EvalConfig
        assert copy._replace(per_call_limit=20) == EvalConfig(20)
        assert evaluate(TRIANGLE, 4, cfg=copy) == evaluate(TRIANGLE, 4, cfg=cfg)
        assert evaluate(TRIANGLE, 4, cfg=copy).error == ErrorKind.TIMEOUT


def test_a_zero_per_call_limit_times_out():
    cfg = EvalConfig(per_call_limit=0)
    assert evaluate(parse("0"), 0, cfg=cfg) == EvalOutcome(None, 0, ErrorKind.TIMEOUT)
    assert generate_seq(parse("x"), 3, cfg) == [EvalOutcome(None, 0, ErrorKind.TIMEOUT)]


def test_evaluated_program_pickles_hashes_and_compares_by_syntax():
    text = "loop(x + y, x, 0) + loop2(x + y, x, x, 0, 1) + compr(x mod 2, x)"
    p = parse(text)
    before = hash(p)
    for x in range(6):
        evaluate(p, x)
        evaluate(p, x, cfg=EvalConfig(per_call_limit=50))
    fresh = parse(text)
    assert p == fresh and hash(p) == before == hash(fresh)
    assert len({p, fresh}) == 1
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and hash(copy) == hash(p) and repr(copy) == repr(p)
    assert evaluate(copy, 5) == evaluate(fresh, 5) == cost_eval(fresh, 5)


def _code(p):
    """p's compiled code entry: (run, stored points), the points a dict
    keyed by x if p does not read y, and None if it does."""
    return p._code


def _memo(p, cell="memo"):
    """A memo cell of p's top-level loop, loop2 or compr: "memo" holds
    the most recent record, and a loop's "older" the record before it."""
    run = _code(p)[0]
    return run.__closure__[run.__code__.co_freevars.index(cell)].cell_contents


def _pinned(p, x, value, cost):
    out = evaluate(p, x)
    assert out == cost_eval(p, x)
    assert (out.value, out.cost) == (value, cost)


def test_loop_resumes_from_a_shorter_run():
    p = parse("loop(x + y, x, 0)")
    _pinned(p, 3, 6, 14)
    assert _memo(p) == (0, 3, 6, 12)
    _pinned(p, 6, 21, 26)
    assert _memo(p) == (0, 6, 21, 24)
    # Another initial value starts over.
    p = parse("loop(x + y, 2 + 2, x)")
    _pinned(p, 1, 11, 20)
    _pinned(p, 2, 12, 20)
    assert _memo(p) == (2, 4, 12, 16)


def test_loop2_resumes_from_a_shorter_run():
    p = parse("loop2(x + y, x, x, 0, 1)")
    _pinned(p, 6, 8, 32)
    assert _memo(p) == (0, 1, 5, 5, 3, 25)
    _pinned(p, 10, 55, 52)
    assert _memo(p) == (0, 1, 9, 34, 21, 45)
    # Another second initial value starts over.
    p = parse("loop2(x + y, x, 2 + 2, 0, x)")
    _pinned(p, 1, 3, 24)
    _pinned(p, 2, 6, 24)
    assert _memo(p) == (0, 2, 3, 4, 2, 15)


def test_compr_resumes_from_a_shorter_run():
    p = parse("compr(x mod 2, x)")
    _pinned(p, 3, 6, 60)
    assert _memo(p) == (3, 6, 59)
    _pinned(p, 5, 10, 94)
    assert _memo(p) == (5, 10, 93)
    _pinned(p, 5, 10, 94)


def test_run_after_a_longer_one_starts_over():
    p = parse("loop(x + y, x, 0)")
    _pinned(p, 6, 21, 26)
    _pinned(p, 3, 6, 14)
    assert _memo(p) == (0, 3, 6, 12)
    p = parse("compr(x mod 2, x)")
    _pinned(p, 5, 10, 94)
    _pinned(p, 3, 6, 60)
    assert _memo(p) == (3, 6, 59)


def test_replay_past_the_budget_times_out():
    p = parse("loop(x + y, x, 0)")
    _pinned(p, 6, 21, 26)
    # Reading x and 0 leaves 18 units, less than the 24 of the replay.
    for q in (p, parse("loop(x + y, x, 0)")):
        budget = Budget(20)
        out = evaluate(q, 7, budget=budget)
        assert out == EvalOutcome(None, 20, ErrorKind.TIMEOUT)
        assert budget.remaining == 0
    assert _memo(p) == (0, 6, 21, 24)


# A loop keeps its last successful run from each of its two most recent
# initial values.  A fast program of the shape loop(f, x div 2, loop(g,
# x mod 2, c)) switches its outer initial value with the parity of x, so
# an ascending sweep resumes each call from the record of two calls back;
# x mod 3 cycles through one more initial value than the records hold.

A900000_FAST = "loop((((x + x) + 1) + ((x + x) + 1)) + 1, x div 2, loop((x + x) + 1, x mod 2, 2))"
ALTERNATING = [
    A900000_FAST,
    "loop(x + y, x div 2, x mod 2)",
    "loop((x * x) + 1, x div 2, loop(x + x, x mod 2, 1))",
    "loop(x + y, x div (2 + 1), (x mod (2 + 1)) * y)",
    "loop(x - y, x div 2, cond(x mod 2, y, 0 - x))",
]


def test_alternating_initial_values_keep_a_record_each():
    p = parse(A900000_FAST)
    for x in range(100):
        assert evaluate(p, x) == cost_eval(p, x)
    # Outer initial values 5 (odd x) and 2 (even x), 49 steps each.
    assert _memo(p) == (5, 49, 3 * 2**99 - 1, 5_098)
    assert _memo(p, cell="older") == (2, 49, 3 * 2**98 - 1, 4_928)
    # x = 100 resumes from the record for 2, which is no longer the last.
    _pinned(p, 100, 3 * 2**100 - 1, 5_253)
    assert _memo(p) == (2, 50, 3 * 2**100 - 1, 5_238)
    assert _memo(p, cell="older") == (5, 49, 3 * 2**99 - 1, 5_098)
    # A third initial value displaces the older of the two.
    p = parse("loop(x + y, x div (2 + 1), x mod (2 + 1))")
    for x in range(9):
        assert evaluate(p, x) == cost_eval(p, x)
    assert (_memo(p)[:2], _memo(p, cell="older")[:2]) == ((2, 2), (1, 2))
    _pinned(p, 9, 6, 30)
    assert (_memo(p)[:2], _memo(p, cell="older")[:2]) == ((0, 3), (2, 2))


# A point at a nonzero y, on a program that does not read y, replays the
# stored run of its x.


def test_points_off_the_read_variables_replay_their_zero_point():
    p = parse("loop(x + y, x, 0)")
    assert _pinned_at(p, 6, 3) == EvalOutcome(21, 26)
    assert _code(p)[1] == {6: EvalOutcome(21, 26)}
    stored = _code(p)[1][6]
    assert _pinned_at(p, 6, 0 - 4) is stored
    # A program that reads y keeps no points.
    q = parse("loop(x + 1, y, 2)")
    assert _pinned_at(q, 5, 3) == EvalOutcome(5, 14)
    assert _code(q)[1] is None
    # One that reads neither variable keeps its points by x too.
    r = parse("loop(x + y, 2 + 2, 1)")
    for x, y in [(1, 0), (0, 1), (2, 3)]:
        assert _pinned_at(r, x, y) == EvalOutcome(11, 20)
    assert _code(r)[1] == {0: EvalOutcome(11, 20), 2: EvalOutcome(11, 20)}
    # Points at y = 0 store nothing, so sequences and verify's sweeps
    # keep no points.
    generate_seq(p, 20)
    assert _code(p)[1] == {6: stored}


def test_point_replay_past_the_budget_times_out():
    p = parse("loop(x + y, x, 0)")
    stored = evaluate(p, 6, 1)
    assert stored == EvalOutcome(21, 26)
    for left, want in ((26, EvalOutcome(21, 26)), (25, EvalOutcome(None, 25, ErrorKind.TIMEOUT))):
        # p replays the stored point; an equal fresh program runs.
        for q in (p, parse("loop(x + y, x, 0)")):
            budget = Budget(left)
            assert evaluate(q, 6, 2, budget) == want
            assert budget.remaining == 0
    assert evaluate(p, 6, 2, Budget(26)) is stored
    assert _code(p)[1] == {6: EvalOutcome(21, 26)}


def test_failed_points_are_not_stored():
    p = parse("1 div (x - 2)")
    for y in (1, 2, 1):
        assert _pinned_at(p, 2, y) == EvalOutcome(None, 4, ErrorKind.DIV_BY_ZERO)
        budget = Budget(8)
        assert evaluate(p, 3, y, budget) == EvalOutcome(None, 8, ErrorKind.TIMEOUT)
        assert budget.remaining == 0
    assert _code(p)[1] == {}
    assert _pinned_at(p, 3, 1) == EvalOutcome(1, 9)
    assert _code(p)[1] == {3: EvalOutcome(1, 9)}


def _pinned_at(p, x, y):
    out = evaluate(p, x, y)
    assert out == cost_eval(p, x, y)
    return out


# The differential driver: evaluate must agree with the tree-walking
# cost_eval on value, cost, error kind and the budget left over.  Each pool
# in POOLS is drawn once from its seed, as distinct programs, and each runs
# the pool's (order, grant) sweeps under each of the pool's configs: single
# random points (random); ascending sweeps, which resume loops from the
# previous point, descending ones, which restart them, and shuffled ones
# (looping); loops whose initial value alternates, which resume from their
# older record (alternating); and programs that ignore x, y or both, swept
# twice in one shuffled order so that the second sweep replays the points
# the first stored (off_axis).  A grant is FRESH, the per-call limit;
# TIGHT, drawn per call from SWEEP_BUDGETS so that replays land on
# timeouts; or n units on top of what earlier calls left, carried as in
# generate_seq and acyclic_on.  The configs differ in their per-call limit
# only, both cut to keep the walker's timeouts quick: 2,000 units pay for
# any single big read but for no product past 10^44, and 200 units pay
# for a 20-digit read but not for a 286-digit one.  The value bound and
# the big-value threshold are the cost model's own, so the random,
# looping and off_axis pools take points from EDGES, where the digit
# charge, its square and the overflow check switch on.  cost_eval is a pure function of (x, y, cfg,
# starting budget) for a fixed program and leaves the start less the cost
# (0 on a timeout), so each drawn program's oracle memo, a dict of its own,
# answers a repeated key from the walk already made.  One dict for all
# programs would hash each whole tree per call if keyed by the program,
# and match a collected program whose id was reused if keyed by id().

ORACLE_CONFIGS = [EvalConfig(per_call_limit=2_000), EvalConfig(per_call_limit=200)]
# 0 and the magnitudes at the edges of the two bounds, either sign: 2^64
# is the largest small value and 10^285 the largest that does not
# overflow; powers of ten step the digit count; 2^32 * 2^32 = 2^64 and
# 10^142 * 10^143 = 10^285 land on the bounds, 10^143 * 10^143 past one.
EDGES = [0] + [
    sign * m
    for m in (2**32, 2**63, 2**64 - 1, 2**64, 2**64 + 1, 10**19, 10**20,
              10**142, 10**143, 10**285 - 1, 10**285, 10**285 + 1)
    for sign in (1, -1)
]
FRESH, TIGHT = None, "tight"
ORACLE_BUDGETS = [FRESH, 7, 50]
SWEEP_BUDGETS = [FRESH, 7, 50, 300]
ORDERS = ("ascending", "descending", "shuffled")


def _sweep(p, oracle, points, cfg, grant, rng):
    """evaluate agrees at each point with cost_eval, read through oracle."""
    carried = Budget(0)
    for x, y in points:
        budget = None
        if grant is TIGHT:
            limit = rng.choice(SWEEP_BUDGETS)
            budget = None if limit is FRESH else Budget(limit)
        elif grant is not FRESH:
            carried.remaining += grant
            budget = carried
        start = cfg.per_call_limit if budget is None else budget.remaining
        key = (x, y, cfg, start)
        want = oracle.get(key)
        if want is None:
            want = oracle[key] = cost_eval(p, x, y, Budget(start), cfg)
        assert evaluate(p, x, y, budget, cfg) == want, (p, x, y, cfg, start)
        assert budget is None or budget.remaining == start - want.cost, (p, x, y, cfg, start)


def _distinct(rng, count, keep=lambda p: True):
    """count distinct random programs for which keep holds."""
    found = {}
    while len(found) < count:
        p = random_program(rng, depth=4)
        if keep(p):
            found[p] = None
    return list(found)


def _alternating(rng):
    """The fixed alternating programs, then random ones of the fast shape."""
    found = [parse(text) for text in ALTERNATING]
    while len(found) < 10:
        step = random_program(rng, depth=3)
        inner = Program(
            Op.LOOP,
            (random_program(rng, depth=2), Program(Op.MOD, (X, TWO)), random_program(rng, depth=1)),
        )
        found.append(Program(Op.LOOP, (step, Program(Op.DIV, (X, TWO)), inner)))
    return found


def _looping(p):
    return any(q.op in LOOPING_OPS for q in subprograms(p))


def _off_axis(rng):
    frees = ({Op.X}, {Op.Y}, set())
    return [p for f in frees for p in _distinct(rng, 15, lambda p: free_vars(p) == f)]


def _random_points(rng):
    """A small point, an edge value for x, for y, and for both."""
    small, edge = lambda: rng.randint(-6, 6), lambda: rng.choice(EDGES)
    return [(small(), small()), (edge(), small()), (small(), edge()), (edge(), edge())]


OFF_AXIS = [*range(-3, 9), -(2**64), 2**64 + 1, 10**285, -(10**285) - 1]

# name: (seed, programs, points of one program, configs, (order, grant) sweeps)
POOLS = {
    "random": (
        2304, lambda rng: _distinct(rng, 1500), _random_points,
        ORACLE_CONFIGS, [("ascending", grant) for grant in ORACLE_BUDGETS],
    ),
    "looping": (
        2305, lambda rng: _distinct(rng, 60, _looping),
        lambda rng: [(x, y) for x in range(-3, 12) for y in (0, 1, 5)] + [(x, 0) for x in EDGES],
        ORACLE_CONFIGS, [(order, TIGHT) for order in ORDERS],
    ),
    "alternating": (
        # 20,000 units cover A900000's fast side up to x = 99.
        2306, _alternating, lambda rng: [(x, 0) for x in range(100)],
        [EvalConfig(per_call_limit=20_000), ORACLE_CONFIGS[1]],
        [(order, grant) for order in ORDERS for grant in (FRESH, TIGHT, 60, 500)],
    ),
    "off_axis": (
        2307, _off_axis, lambda rng: [(x, y) for x in OFF_AXIS for y in OFF_AXIS],
        ORACLE_CONFIGS,
        [("shuffled", TIGHT), ("shuffled", TIGHT), ("descending", TIGHT), ("shuffled", 40)],
    ),
}


@pytest.mark.parametrize("pool", POOLS)
def test_evaluate_matches_cost_oracle_on_drawn_programs(pool):
    seed, draw, points, configs, sweeps = POOLS[pool]
    rng = random.Random(seed)
    for p in draw(rng):
        oracle = {}
        up = points(rng)
        orders = dict(zip(ORDERS, (up, up[::-1], rng.sample(up, len(up)))))
        for cfg in configs:
            for order, grant in sweeps:
                _sweep(p, oracle, orders[order], cfg, grant, rng)


POINTS = st.one_of(st.integers(-6, 6), st.sampled_from(EDGES))


# The literals 0, 1 and 2 are always in the small range, so their closure
# charges one unit and never overflows; an edge x drives the operators
# around them past the bound.
LITERAL_PROGRAMS = [
    "1", "2", "0 - 1", "x + 1", "2 - 1", "(1 + 1) * x", "x * 2", "cond(x, 1, 2)",
    "loop(x + 1, x, 1)", "loop(y - 1, x, 0)", "compr(x - 1, x)", "loop2(x, 1, x, 0, 2)",
]


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=lambda cfg: str(cfg.per_call_limit))
def test_literals_match_the_cost_oracle(cfg):
    errors = set()
    for text in LITERAL_PROGRAMS:
        p = parse(text)
        for x in [*range(-2, 4), *EDGES]:
            for y in (0, 1):
                want = cost_eval(p, x, y, cfg=cfg)
                assert evaluate(p, x, y, cfg=cfg) == want, (text, x, y)
                errors.add(want.error)
    # Both the small path and an operator's overflow ran.
    assert {None, ErrorKind.OVERFLOW} <= errors


def _closure_calls(call):
    """call()'s result, and how many interp closures it ran, counted with
    sys.setprofile."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_filename == interp.__file__ and code.co_name in (
            "run", "read_x", "read_y"
        ):
            calls += 1

    sys.setprofile(count)
    try:
        out = call()
    finally:
        sys.setprofile(None)
    return out, calls


def _compiled_run(p, x):
    """evaluate(p, x) on p compiled beforehand, and the closures it ran."""
    evaluate(p, x, 0, Budget(0))  # compiles p, and stores no run
    return _closure_calls(lambda: evaluate(p, x))


def test_a_closed_subterm_runs_as_one_closure():
    # x + 14, with 14 spelled in 0, 1 and 2: nine nodes fold into one.
    p = parse("x + (2 * ((2 * (2 + 1)) + 1))")
    assert _compiled_run(p, 3) == (EvalOutcome(17, 11), 3)


def test_a_closed_subterm_over_an_operand_that_did_not_fold_is_not_run():
    # The innermost loop takes 65,536 steps, past the fold budget, and each
    # loop around it would run it again.
    text = "loop(x + 1, loop(x + x, 2 * (2 * (2 * 2)), 1), 0)"
    alone = _closure_calls(lambda: interp._compile(parse(text)))[1]
    for _ in range(5):
        text = f"loop(x, {text}, 0)"
    assert _closure_calls(lambda: interp._compile(parse(text)))[1] == alone


# Closed subterms, each with whether the whole term folds into one closure:
# an operator over constants does, a loop does not.
BIG = "loop(x * x, (2 * (2 + 1)) + 1, 2)"  # 2^128, past 2^64
SPELLED_2048 = "((2 + 2) * (2 * (2 + 2))) * ((2 * (2 + 2)) * (2 * (2 + 2)))"
CLOSED_CASES = {
    "(2 * 2) + 1": True,
    BIG: False,
    "loop(x * x, (2 * (2 + 2)) + 2, 2)": False,  # 2^1024 overflows
    "1 div 0": False,
    "x mod (2 - 2)": False,  # 2 - 2 folds, the mod reads x
    "loop(x + y, 2 + 2, 1)": False,
    # About 165,000 units, past CHECK_LIMIT.
    f"loop(x + y, {SPELLED_2048}, {BIG})": False,
}
# The closed subterm at top level and inside a loop, loop2 and compr body.
CLOSED_SITES = ["{}", "loop(x + {}, 2, 0)", "loop2(y + {}, x, 2, 0, 1)", "compr(x - {}, 2)"]


def _budgets(cost):
    """Every budget from 0 to cost + 1, or for a long run the first 200,
    ten across the middle and cost - 9 to cost + 1."""
    if cost <= 5_000:
        return range(cost + 2)
    return [*range(200), *range(200, cost - 9, cost // 10), *range(cost - 9, cost + 2)]


@pytest.mark.parametrize("site", CLOSED_SITES)
@pytest.mark.parametrize("closed", CLOSED_CASES)
def test_a_folded_closed_subterm_matches_the_cost_oracle_at_every_budget(closed, site):
    p = parse(site.format(closed))
    if site == "{}":  # folded, p runs as a single closure
        assert (_compiled_run(p, 3)[1] == 1) == CLOSED_CASES[closed]
    full = cost_eval(p, 3, 0, Budget(VERIFY_LIMIT))
    assert full.error != ErrorKind.TIMEOUT
    for start in _budgets(full.cost):
        budget, oracle_budget = Budget(start), Budget(start)
        want = cost_eval(p, 3, 0, oracle_budget)
        assert evaluate(p, 3, 0, budget) == want, start
        assert budget.remaining == oracle_budget.remaining == start - want.cost, start


def test_a_compile_runs_no_closed_loop():
    # The loop takes 2,048 steps in a branch that x = 0 does not take.  The
    # compile runs each of the ten operators spelling 2,048 once, with its
    # two constant operands, and the run calls cond, x and 1.
    p = parse(f"cond(x, 1, loop(x + y, {SPELLED_2048}, 1))")
    out, calls = _closure_calls(lambda: evaluate(p, 0))
    assert out == EvalOutcome(1, 3)
    assert calls <= 10 * 3 + 3


@settings(max_examples=300, deadline=None)
@given(
    programs(max_leaves=10),
    POINTS,
    POINTS,
    st.sampled_from(ORACLE_CONFIGS),
    st.sampled_from(ORACLE_BUDGETS),
)
def test_evaluate_matches_cost_oracle(p, x, y, cfg, grant):
    _sweep(p, {}, [(x, y)], cfg, grant, None)


def test_threads_sharing_a_program_match_one_thread():
    # Nonzero y replays stored points, since p reads no free y, and the
    # last loop alternates its initial value with the parity of x.
    p = parse(
        "loop(x + y, x, 0) + loop2(x + y, x, x, 0, 1) + compr(x mod (2 + 1), x)"
        " + loop(x + y, x div 2, x mod 2)"
    )
    cfg = EvalConfig(per_call_limit=3_000)
    limits = [None, 200, 1_000]
    calls = [(x, y, limit) for x in range(100) for y in (0, 3) for limit in limits]
    want = {
        (x, y, limit): cost_eval(p, x, y, None if limit is None else Budget(limit), cfg)
        for x, y, limit in calls
    }
    failures = []

    def worker(seed):
        order = calls[:]
        random.Random(seed).shuffle(order)
        try:
            for x, y, limit in order * 3:
                got = evaluate(p, x, y, None if limit is None else Budget(limit), cfg)
                if got != want[x, y, limit]:
                    failures.append((x, y, limit, got))
        except Exception as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
