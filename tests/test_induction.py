import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import carried_budgets, record_evaluate
from loopbench import induction
from loopbench.induction import (
    CYCLE_SKIP,
    MAX_PERIOD,
    WINDOW,
    Side,
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
from loopbench.interp import Budget, ErrorKind, EvalConfig, evaluate
from loopbench.lang import Op, parse
from loopbench.oeis import ProblemRecord
from oracles import brute_cyclic


def test_window_constants():
    assert WINDOW == 40
    assert CYCLE_SKIP == 9
    assert MAX_PERIOD == 15


def test_select_top_loops_fixture(problems_by_id):
    tops = select_top_loops(*_sides(problems_by_id["A79"]))
    assert len(tops) == 2
    assert {t.side for t in tops} == {Side.SMALL, Side.FAST}
    assert all(t.path == () for t in tops)

    tops = select_top_loops(*_sides(problems_by_id["A45-A77373"]))
    assert [t.side for t in tops] == [Side.SMALL, Side.FAST]
    assert tops[1].path == (2,)  # inside the conditional


def _sides(problem):
    return problem.small, problem.fast


def test_select_top_loops_excludes_nested_occurrences():
    small = parse("loop(loop(x + y, x, 0), x, 1)")
    fast = parse("x")
    tops = select_top_loops(small, fast)
    assert [t.path for t in tops] == [()]


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
    assert [t.side for t in select_top_loops(small, fast)] == [Side.FAST]


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
    assert not semantic_test(top.subprogram)


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


def test_classify_modes_agree_on_fixture(problems):
    for problem in problems:
        assert classify(problem, mode="per-loop") == classify(problem, mode="per-test")
    with pytest.raises(ValueError):
        classify(problems[0], mode="per-problem")


def test_classify_all_fixture(problems):
    for problem in problems:
        problem.status = "verified"
    problems_by_id = {p.id: p for p in problems}
    problems_by_id["A999999"].status = "refuted"
    syn_ids, sem_ids = classify_all(problems)
    assert syn_ids == ["A165", "A180713", "A217", "A45-A77373", "A537", "A79"]
    assert sem_ids == ["A165", "A217", "A45-A77373", "A537", "A79"]
    assert set(sem_ids) <= set(syn_ids)
    assert problems_by_id["A180713"].syn_pass
    assert not problems_by_id["A180713"].sem_pass
    # Refuted problems are left alone.
    assert not problems_by_id["A999999"].syn_pass


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "manifest"
    write_manifest(["A9", "A1"], path)
    assert path.read_text() == "A1\nA9\n"
    assert read_manifest(path) == ["A1", "A9"]
