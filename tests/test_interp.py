import gc
import pickle
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopbench import interp
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
    EvalFailure,
    EvalOutcome,
    evaluate,
    generate_seq,
    seq_values,
    speed,
)
from conftest import carried_budgets, record_evaluate
from loopbench.lang import LOOPING_OPS, parse, subprograms
from oracles import RefDivZero, RefLimit, cost_eval, programs, random_program, ref_eval

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
    assert seq_values(TRIANGLE, 5) == [0, 1, 3, 6, 10]
    assert evaluate(FIB, 6).value == 8
    assert seq_values(FIB, 10) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_cost_pins():
    out = evaluate(parse("2"), 0, 0)
    assert (out.value, out.cost) == (2, 1)
    out = evaluate(parse("x mod 2"), 5, 0)
    assert (out.value, out.cost) == (1, 7)  # x:1, 2:1, mod:5
    assert speed(parse("0"), 3) == 3
    assert speed(parse("x mod 2"), 1) == 7


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
    assert seq_values(p, 5) == [0, 1, 2, 3, 4]
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


def test_values_past_the_text_conversion_limit_cost_their_digits():
    # 4401 digits is past Python's default int-to-text limit of 4300.
    out = evaluate(parse("x"), 10**4400, cfg=EvalConfig(value_bound=10**5000))
    assert out.ok
    assert out.cost == 4401


def test_big_value_digit_counts_at_powers_of_ten():
    read = parse("x")
    cfg = EvalConfig(value_bound=10**401)
    for k in range(20, 401):
        for m in (10**k - 1, 10**k, 10**k + 1):
            assert evaluate(read, m, cfg=cfg).cost == len(str(m)), m
            assert evaluate(read, -m, cfg=cfg).cost == len(str(m)), -m


def test_small_value_digit_counts_below_a_zero_threshold():
    # With threshold 0 every nonzero value is big, so the digit count
    # also runs on values below 2^64.
    read = parse("x")
    cfg = EvalConfig(big_value_threshold=0)
    small = [*range(1, 1001), *(10**k + d for k in range(1, 21) for d in (-1, 0, 1))]
    for m in small + [2**63 - 1, 2**63, 2**64 - 1, 2**64]:
        assert evaluate(read, m, cfg=cfg).cost == len(str(m)), m
    assert evaluate(read, 0, cfg=cfg).cost == 1


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
    assert seq_values(TRIANGLE, 5, cfg) == [0, 1, 3, 6, 10]
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
    with pytest.raises(EvalFailure) as info:
        seq_values(p, 10)
    assert info.value.kind == ErrorKind.DIV_BY_ZERO
    assert info.value.index == 2


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
    try:
        ref = ref_eval(p, x, y)
    except RefLimit:
        return  # the reference gave up; nothing to compare
    except RefDivZero:
        if out.ok:
            raise AssertionError(f"{p!r} at ({x},{y}): reference divides by zero, got {out.value}")
        assert out.error in (ErrorKind.DIV_BY_ZERO, ErrorKind.TIMEOUT, ErrorKind.OVERFLOW)
        return
    if out.ok:
        assert out.value == ref
    else:
        # The interpreter hit a resource limit the reference does not
        # model; a plain div-by-zero would have been seen by both.
        assert out.error in (ErrorKind.TIMEOUT, ErrorKind.OVERFLOW)


def test_compiled_code_goes_with_the_program():
    p = parse("loop(x + y, x, 0)")
    assert evaluate(p, 4).value == 10
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None


def test_limits_share_one_compilation(monkeypatch):
    compiled = []

    def counting(p, value_bound, threshold):
        compiled.append((p, value_bound, threshold))
        return compile_(p, value_bound, threshold)

    compile_ = interp._compile
    monkeypatch.setattr(interp, "_compile", counting)
    p = parse("loop(x + y, x, 0)")
    for cfg in (DEFAULT_CONFIG, VERIFY_CONFIG, DEFAULT_CONFIG):
        assert evaluate(p, 4, cfg=cfg).value == 10
    assert compiled == [(p, VALUE_BOUND, BIG_VALUE_THRESHOLD)]
    other = EvalConfig(value_bound=5, big_value_threshold=3)
    assert evaluate(p, 4, cfg=other).error == ErrorKind.OVERFLOW
    assert evaluate(p, 1, cfg=other).value == 1
    assert compiled[1:] == [(p, 5, 3)]
    # An equal program is a different object and compiles on its own.
    q = parse("loop(x + y, x, 0)")
    assert evaluate(q, 4).value == 10
    assert len(compiled) == 3 and compiled[2][0] is q


def test_evaluated_program_pickles_hashes_and_compares_by_syntax():
    text = "loop(x + y, x, 0) + loop2(x + y, x, x, 0, 1) + compr(x mod 2, x)"
    p = parse(text)
    before = hash(p)
    for x in range(6):
        evaluate(p, x)
        evaluate(p, x, cfg=EvalConfig(value_bound=5, big_value_threshold=3))
    fresh = parse(text)
    assert p == fresh and hash(p) == before == hash(fresh)
    assert len({p, fresh}) == 1
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and hash(copy) == hash(p) and repr(copy) == repr(p)
    assert evaluate(copy, 5) == evaluate(fresh, 5) == cost_eval(fresh, 5)


# Differential test against the tree-walking cost oracle: evaluate must
# agree on value, cost, error kind and the budget left over.  The small
# configurations put values beyond the threshold and the bound within
# reach of tiny programs: the value bound above and below the threshold,
# and a threshold of 9 so that small values already cost several digits.
# The small budgets make timeouts land inside loops.  The per-call limit
# is cut to keep the walker's timeouts quick.

ORACLE_CONFIGS = [
    EvalConfig(per_call_limit=2_000),
    EvalConfig(per_call_limit=2_000, value_bound=5, big_value_threshold=3),
    EvalConfig(per_call_limit=2_000, value_bound=3, big_value_threshold=5),
    EvalConfig(per_call_limit=2_000, value_bound=10**6, big_value_threshold=9),
]
ORACLE_BUDGETS = [None, 7, 50]


def _agree(p, x, y, cfg, limit):
    budgets = [None, None] if limit is None else [Budget(limit), Budget(limit)]
    got = evaluate(p, x, y, budgets[0], cfg)
    want = cost_eval(p, x, y, budgets[1], cfg)
    assert got == want, (p, x, y, cfg, limit)
    if limit is not None:
        assert budgets[0].remaining == budgets[1].remaining


def test_evaluate_matches_cost_oracle_on_random_programs():
    rng = random.Random(2304)
    for _ in range(1500):
        p = random_program(rng, depth=4)
        x, y = rng.randint(-6, 6), rng.randint(-6, 6)
        for cfg in ORACLE_CONFIGS:
            for limit in ORACLE_BUDGETS:
                _agree(p, x, y, cfg, limit)


@settings(max_examples=300, deadline=None)
@given(
    programs(max_leaves=10),
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.sampled_from(ORACLE_CONFIGS),
    st.sampled_from(ORACLE_BUDGETS),
)
def test_evaluate_matches_cost_oracle(p, x, y, cfg, limit):
    _agree(p, x, y, cfg, limit)


# Loops resume from their last successful run.  A sweep over the points
# in ascending order resumes every loop from the previous point's run,
# descending order restarts them, and shuffled order mixes both; the
# budgets make replays land on timeouts.

SWEEP_POINTS = [(x, y) for x in range(-3, 12) for y in (0, 1, 5)]
SWEEP_BUDGETS = [None, 7, 50, 300]


def test_sweeps_in_any_order_match_cost_oracle():
    rng = random.Random(2305)
    checked = 0
    while checked < 60:
        p = random_program(rng, depth=4)
        if not any(q.op in LOOPING_OPS for q in subprograms(p)):
            continue
        checked += 1
        shuffled = SWEEP_POINTS[:]
        rng.shuffle(shuffled)
        for cfg in ORACLE_CONFIGS:
            for order in (SWEEP_POINTS, SWEEP_POINTS[::-1], shuffled):
                for x, y in order:
                    _agree(p, x, y, cfg, rng.choice(SWEEP_BUDGETS))


def _memo(p, cfg=DEFAULT_CONFIG):
    """The memo entry of p's top-level loop, loop2 or compr."""
    run = p._code[cfg.value_bound, cfg.big_value_threshold]
    return run.__closure__[run.__code__.co_freevars.index("memo")].cell_contents


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


def test_threads_sharing_a_program_match_one_thread():
    p = parse("loop(x + y, x, 0) + loop2(x + y, x, x, 0, 1) + compr(x mod (2 + 1), x)")
    cfg = EvalConfig(per_call_limit=3_000)
    limits = [None, 200, 1_000]
    calls = [(x, limit) for x in range(100) for limit in limits]
    want = {
        (x, limit): cost_eval(p, x, 0, None if limit is None else Budget(limit), cfg)
        for x, limit in calls
    }
    failures = []

    def worker(seed):
        order = calls[:]
        random.Random(seed).shuffle(order)
        try:
            for x, limit in order * 3:
                got = evaluate(p, x, 0, None if limit is None else Budget(limit), cfg)
                if got != want[x, limit]:
                    failures.append((x, limit, got))
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
