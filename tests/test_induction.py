import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import carried_budgets, fresh_problems, kept_state, record_evaluate, warm
from loopbench import induction
from loopbench.induction import (
    CYCLE_SKIP,
    MAX_PERIOD,
    WINDOW,
    acyclic_on,
    classify,
    classify_all,
    is_acyclic_window,
    read_manifest,
    select_top_loops,
    semantic_test,
    syntactic_test,
    write_manifest,
)
from loopbench.interp import DEFAULT_CONFIG, Budget, ErrorKind, EvalConfig, evaluate
from loopbench.lang import LOOPING_OPS, Op, parse, subprograms, to_text
from loopbench.oeis import ProblemRecord
from loopbench.verify import verify_all
from oracles import brute_cyclic, classify_ref, random_program


def test_window_constants():
    assert WINDOW == 40
    assert CYCLE_SKIP == 9
    assert MAX_PERIOD == 15


def test_select_top_loops_fixture(problems_by_id):
    a79 = problems_by_id["A79"]
    assert select_top_loops(*_sides(a79)) == [a79.small, a79.fast]

    a45 = problems_by_id["A45-A77373"]
    assert select_top_loops(*_sides(a45)) == [
        a45.small,
        parse("loop2(x + y, x, x - 2, 1, 1)"),  # inside the conditional
    ]


def _sides(problem):
    return problem.small, problem.fast


def test_select_top_loops_excludes_nested_occurrences():
    small = parse("loop(loop(x + y, x, 0), x, 1)")
    assert select_top_loops(small, parse("x")) == [small]
    # Every top loop of a side, in preorder, at any argument position.
    first, second = parse("loop(x * y, x, 1)"), parse("compr(x + y, x)")
    fast = parse("(x + loop(x * x, x, 1)) * loop(compr(x + y, x), x, 2)")
    assert select_top_loops(first, fast) == [
        first,
        parse("loop(x * x, x, 1)"),
        parse("loop(compr(x + y, x), x, 2)"),
    ]
    assert select_top_loops(second, parse("loop2(x, y, x, 0, 1) + 1")) == [
        second,
        parse("loop2(x, y, x, 0, 1)"),
    ]


def test_select_top_loops_requires_unique_shape():
    twice = parse("loop(x + y, x, 0) + loop(x + y, x, 0)")
    assert select_top_loops(twice, parse("x")) == []
    # One occurrence per side also disqualifies.
    once_each = parse("loop(x + y, x, 0)")
    assert select_top_loops(once_each, parse("loop(x + y, x, 0) + 1")) == []


def test_select_top_loops_counts_nested_duplicates():
    # The duplicate hides inside another loop's body on the fast side.
    small = parse("loop(x + y, x, 0)")
    fast = parse("loop(loop(x + y, x, 0), x, 1) + 1")
    assert select_top_loops(small, fast) == [fast.args[0]]


def test_syntactic_test_loop():
    assert syntactic_test(parse("loop(x + y, x, 0)"))
    assert not syntactic_test(parse("loop(x + y, 2, 0)"))  # constant bound
    assert not syntactic_test(parse("loop(y, x, 0)"))  # body ignores state
    assert syntactic_test(parse("loop(x, x, 0)"))


def test_syntactic_test_loop2():
    assert syntactic_test(parse("loop2(x + y, x, x, 0, 1)"))
    assert not syntactic_test(parse("loop2(x + y, x, 2, 0, 1)"))  # constant bound
    assert not syntactic_test(parse("loop2(x, y, x, 0, 1)"))  # no body uses both
    assert syntactic_test(parse("loop2(x, x * y, x, 0, 1)"))  # second body qualifies


def test_syntactic_test_compr():
    assert syntactic_test(parse("compr(x - 2, x)"))
    assert not syntactic_test(parse("compr(x - 2, 2)"))


def test_syntactic_test_rejects_non_loops():
    with pytest.raises(ValueError):
        syntactic_test(parse("x + y"))


def test_is_acyclic_window_pins():
    assert not is_acyclic_window([0] * WINDOW)  # constant = period 1
    assert is_acyclic_window(list(range(WINDOW)))
    # Garbage before index 9 is ignored.
    noisy = [7, 3, 9, 1, 4, 1, 5, 9, 2] + ([1, 2, 3] * 11)[:31]
    assert len(noisy) == WINDOW
    assert not is_acyclic_window(noisy)
    # Indices 9 and 39 are the first and last that count.
    assert is_acyclic_window([0] * CYCLE_SKIP + [5] + [0] * 30)
    assert is_acyclic_window([0] * 39 + [5])
    # A period longer than 15 does not count as cyclic.
    assert is_acyclic_window([i % 16 for i in range(WINDOW)])
    assert not is_acyclic_window([i % 15 for i in range(WINDOW)])


def test_is_acyclic_window_requires_exact_length():
    with pytest.raises(ValueError):
        is_acyclic_window([0] * 39)
    with pytest.raises(ValueError):
        is_acyclic_window([0] * 41)


@settings(max_examples=500)
@given(st.lists(st.integers(0, 3), min_size=WINDOW, max_size=WINDOW))
def test_window_test_matches_slicing_oracle(values):
    assert is_acyclic_window(values) == (not brute_cyclic(values))


def test_acyclic_on_pins():
    assert acyclic_on(parse("x"), Op.X)
    assert not acyclic_on(parse("x mod 2"), Op.X)
    assert not acyclic_on(parse("2"), Op.X)
    # 2 - x goes negative and stays strictly decreasing...
    assert acyclic_on(parse("2 - x"), Op.X)
    # ...but clamped at zero it flatlines.
    assert not acyclic_on(parse("2 - x"), Op.X, map_negatives=True)
    # -1 up to x = 9, then 1: a step from the clamp value 0 to 1 at the
    # first index the cycle test reads, and no cycle; clamped to 1 it
    # would be flat.
    assert acyclic_on(parse("cond((x - (2 * (2 * 2))) - 1, 0 - 1, 1)"), Op.X, map_negatives=True)


def test_acyclic_on_other_axis():
    assert acyclic_on(parse("y"), Op.Y)
    assert not acyclic_on(parse("x"), Op.Y)
    with pytest.raises(ValueError):
        acyclic_on(parse("x"), Op.ADD)


def test_acyclic_on_fails_on_evaluation_error():
    # Hits division by zero at x = 2 on the first sweep.
    assert not acyclic_on(parse("1 div (x - 2)"), Op.X)
    # Diverging search exhausts the budget.
    assert not acyclic_on(parse("compr(x + 1, x)"), Op.X, cfg=EvalConfig(per_call_limit=500))


@pytest.mark.parametrize("axis", [Op.X, Op.Y])
def test_acyclic_on_calls_evaluate_once_per_point(monkeypatch, axis):
    calls = record_evaluate(monkeypatch, induction)
    p = parse("loop(x + y, x, 0) + y")
    cfg = EvalConfig(per_call_limit=500)
    assert acyclic_on(p, axis, cfg=cfg)
    points = [(i, other) if axis == Op.X else (other, i)
              for other in range(10) for i in range(40)]
    assert [(q, x, y) for q, x, y, _, _ in calls] == [(p, x, y) for x, y in points]
    # Budgets carry over within a window and start afresh with the next.
    for start in range(0, 400, 40):
        window = calls[start:start + 40]
        assert [granted for *_, granted, _ in window] == carried_budgets(window, 500)


def test_acyclic_on_passes_only_with_the_carried_budget():
    # x costs 2 + 4x units, 3,200 over a window: 80 per point on average.
    p = parse("loop(x + y, x, 0)")
    assert acyclic_on(p, Op.X, cfg=EvalConfig(per_call_limit=80))
    assert evaluate(p, 20, 0, Budget(80)).error == ErrorKind.TIMEOUT
    # 79 per point run out at x = 39, which alone would need only 158.
    assert not acyclic_on(p, Op.X, cfg=EvalConfig(per_call_limit=79))
    assert evaluate(p, 39, 0, Budget(158)).ok


def test_semantic_test_pins(problems_by_id):
    assert semantic_test(parse("loop(x + y, x, 0)"))
    assert semantic_test(parse("loop(x + x, x, 1)"))
    assert semantic_test(parse("loop2(x + y, x, x, 0, 1)"))
    # The off-axis sweep starts at y = 0, where this body flatlines.
    assert not semantic_test(parse("loop(2 * (x * y), x, 1)"))
    # The parity-bound loop cycles along x.
    (top,) = select_top_loops(*_sides(problems_by_id["A180713"]))
    assert not semantic_test(top)


def _script_acyclic(monkeypatch, failing=(), cfg=DEFAULT_CONFIG):
    """Replace acyclic_on with a recorder: each call is logged as
    (program text, axis, map_negatives), and fails iff its
    (program text, axis) is in failing.  Every call must pass cfg on."""
    calls = []

    def recorder(p, axis, map_negatives=False, cfg=DEFAULT_CONFIG):
        assert cfg is expected_cfg
        calls.append((to_text(p), axis, map_negatives))
        return (to_text(p), axis) not in failing

    expected_cfg = cfg
    monkeypatch.setattr(induction, "acyclic_on", recorder)
    return calls


def _piece(text, axis=Op.X):
    """A recorded call on a body or a whole loop, sampled unclamped."""
    return (text, axis, False)


def test_semantic_test_checks_bound_then_body_then_loop(monkeypatch):
    cfg = EvalConfig(per_call_limit=7)
    calls = _script_acyclic(monkeypatch, cfg=cfg)
    assert semantic_test(parse("loop(x + y, x, 0)"), cfg)
    assert calls == [("x", Op.X, True), _piece("x + y"), _piece("loop(x + y, x, 0)")]

    calls.clear()
    assert semantic_test(parse("compr(x - 2, x + 1)"), cfg)
    assert calls == [("x + 1", Op.X, True), _piece("compr(x - 2, x + 1)")]


def test_semantic_test_stops_at_the_first_failing_piece(monkeypatch):
    calls = _script_acyclic(monkeypatch, failing={("x + 1", Op.X)})
    assert not semantic_test(parse("loop(x + y, x + 1, 0)"))
    assert calls == [("x + 1", Op.X, True)]

    calls = _script_acyclic(monkeypatch, failing={("x + y", Op.X)})
    assert not semantic_test(parse("loop(x + y, x, 0)"))
    assert calls == [("x", Op.X, True), _piece("x + y")]


LOOP2 = "loop2(x + y, x * y, x, 0, 1)"


@pytest.mark.parametrize(
    "failing, passes, pieces",
    [
        # f passes on both axes: g is never sampled.
        ((), True, [_piece("x + y"), _piece("x + y", Op.Y), _piece(LOOP2)]),
        # f fails on y and g passes.
        (
            {("x + y", Op.Y)},
            True,
            [
                _piece("x + y"), _piece("x + y", Op.Y),
                _piece("x * y"), _piece("x * y", Op.Y),
                _piece(LOOP2),
            ],
        ),
        # f fails on x, so it is not sampled on y; g then fails on y.
        (
            {("x + y", Op.X), ("x * y", Op.Y)},
            False,
            [_piece("x + y"), _piece("x * y"), _piece("x * y", Op.Y)],
        ),
    ],
    ids=["f-passes", "g-passes", "both-fail"],
)
def test_semantic_test_loop2_tries_f_then_g(monkeypatch, failing, passes, pieces):
    calls = _script_acyclic(monkeypatch, failing=failing)
    assert semantic_test(parse(LOOP2)) is passes
    assert calls == [("x", Op.X, True), *pieces]


def test_semantic_test_rejects_non_loops():
    with pytest.raises(ValueError, match="not a looping operator"):
        semantic_test(parse("x + y"))


def test_classify_samples_only_the_loops_that_pass_the_syntactic_test(monkeypatch):
    # The small side's loop fails the syntactic test (constant bound), the
    # fast side's passes it.  Every sampled piece fails, so the fast
    # side's semantic test samples its bound only.
    problem = ProblemRecord(
        "A1", ["A000001"], [], parse("loop(x + y, 2, 0)"), parse("loop(x * y, x + 1, 1)")
    )
    calls = _script_acyclic(monkeypatch, failing={("2", Op.X), ("x + 1", Op.X)})
    assert classify(problem) == (True, False)
    assert calls == [("x + 1", Op.X, True)]

    calls.clear()
    no_loop_passes = problem._replace(fast=parse("loop(x * y, 1, 1)"))
    assert classify(no_loop_passes) == (False, False)
    assert calls == []


def test_classify_uses_every_top_loop(problems_by_id):
    # The double-factorial problem passes semantically through its fast
    # side even though its small side's window test fails.
    assert classify(problems_by_id["A165"]) == (True, True)


def test_classify_pins(problems_by_id):
    assert classify(problems_by_id["A217"]) == (True, True)
    constant_bound = ProblemRecord(
        "A1", ["A000001"], [], parse("loop(x + y, 2, 0)"), parse("x + 1")
    )
    assert classify(constant_bound) == (False, False)
    assert classify(problems_by_id["A180713"]) == (True, False)


def test_classify_all_fixture(problems):
    # The refuted problem carries stale flags from an earlier run.
    given = [
        p._replace(status="refuted", syn_pass=True, sem_pass=True)
        if p.id == "A999999"
        else p._replace(status="verified")
        for p in problems
    ]
    classified = classify_all(given)
    assert {p.id: (p.syn_pass, p.sem_pass) for p in classified} == {
        "A165": (True, True),
        "A180713": (True, False),
        "A217": (True, True),
        "A45-A77373": (True, True),
        "A537": (True, True),
        "A79": (True, True),
        "A999999": (True, True),
    }
    # Refuted problems come back as given; the others are copies, and
    # the given records keep their flags.
    assert [p.id for p in classified] == [p.id for p in given]
    assert classified[-1] is given[-1]
    assert not any(p.syn_pass or p.sem_pass for p in given[:-1])
    assert [p._replace(syn_pass=False, sem_pass=False) for p in classified[:-1]] == given[:-1]


FIXTURE_FLAGS = {
    "A165": (True, True),
    "A180713": (True, False),
    "A217": (True, True),
    "A45-A77373": (True, True),
    "A537": (True, True),
    "A79": (True, True),
    "A999999": (False, False),
}


# Problems a drawn pool seldom holds, each with its flags: one of each
# classify rule that drawn programs hardly ever reach.
HAND_BUILT = [
    # The bound's window along x reads 3, -1, 3, -3, ...: no cycle until
    # the clamp at 0 makes it 3, 0, 3, 0, ...
    ("loop(x + y, cond(x mod 2, 2 + 1, 0 - x), x)", "x", (True, False)),
    # Only loop2's first body reads both x and y.
    ("loop2(x + y, x, x, 0, 1)", "x", (True, True)),
    # The one loop occurs on both sides, so neither is a top loop.
    ("loop(x + y, x, 0)", "loop(x + y, x, 0) + 0", (False, False)),
    # Bound and body windows are acyclic, but the loop itself overflows
    # along x at x = 10.
    ("loop(x * x, x, 2)", "x", (True, False)),
]


def _drawn_problems(seed, count):
    """count seeded problems of two drawn sides, at least one of them looping."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        small, fast = random_program(rng, depth=4), random_program(rng, depth=4)
        if any(q.op in LOOPING_OPS for side in (small, fast) for q in subprograms(side)):
            found.append(ProblemRecord("P", ("A1",), (), small, fast))
    return found


def test_classify_matches_the_filter_oracle(problems):
    hand_built = [
        ProblemRecord("P", ("A1",), (), parse(small), parse(fast)) for small, fast, _ in HAND_BUILT
    ]
    for problem in problems + hand_built + _drawn_problems(2308, 150):
        want = classify_ref(problem.small, problem.fast)
        assert classify(problem) == want, problem
    assert [classify_ref(p.small, p.fast) for p in hand_built] == [f for *_, f in HAND_BUILT]


def test_classify_leaves_no_evaluator_state_on_the_programs():
    # Programs that hold no state gain none ...
    problems = fresh_problems()
    before = kept_state(problems)
    for problem in problems:
        classify(problem)
        assert kept_state(problems) == before
    verified, _ = verify_all(problems)
    classified = classify_all(verified)
    assert kept_state(problems) == kept_state(classified) == before
    # ... and warmed ones keep the state they hold, and only that.
    warm(problems)
    warmed = kept_state(problems)
    assert len(warmed) > len(before)
    for problem in problems:
        classify(problem)
        assert kept_state(problems) == warmed
    assert classify_all(verified) == classified
    assert kept_state(problems) == kept_state(classified) == warmed


def test_classify_all_flags_do_not_depend_on_kept_state(monkeypatch):
    def flags(records):
        return {p.id: (p.syn_pass, p.sem_pass) for p in classify_all(records)}

    verified, _ = verify_all(fresh_problems())
    assert flags(verified) == FIXTURE_FLAGS
    statuses = [p.status for p in verified]
    fresh = [p._replace(status=s) for p, s in zip(fresh_problems(), statuses)]
    assert flags(fresh) == FIXTURE_FLAGS
    warmed = [p._replace(status=s) for p, s in zip(fresh_problems(), statuses)]
    warm(warmed)
    assert flags(warmed) == FIXTURE_FLAGS
    # Nor when the state of each program the filter evaluates is kept for
    # the next call and the next problem: every copy runs on the first
    # equal one, with the compiled code, loop records and points it holds.
    kept = {}
    real = induction.evaluate
    monkeypatch.setattr(induction, "evaluate", lambda p, *args: real(kept.setdefault(p, p), *args))
    assert flags(warmed) == flags(warmed) == FIXTURE_FLAGS
    assert kept and all(hasattr(p, "_code") for p in kept)


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "manifest"
    write_manifest(["A9", "A1"], path)
    assert path.read_text() == "A1\nA9\n"
    assert read_manifest(path) == ["A1", "A9"]
