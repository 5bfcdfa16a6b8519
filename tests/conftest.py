from pathlib import Path

import pytest

from loopbench import oeis
from loopbench.interp import DEFAULT_CONFIG, evaluate
from loopbench.lang import subprograms

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def sequences():
    return oeis.load_stripped(FIXTURES / "stripped")


@pytest.fixture(scope="session")
def solutions():
    return oeis.load_solutions(FIXTURES / "solutions.tsv")


@pytest.fixture
def problems(solutions, sequences):
    # Rebuilt per test, so that a test may replace records in the list.
    return oeis.build_problems(solutions, sequences)


@pytest.fixture
def problems_by_id(problems):
    return {p.id: p for p in problems}


def record_evaluate(monkeypatch, module) -> list[tuple]:
    """Wrap module.evaluate, as the benchmark's tracer does, recording per
    call (program, x, y, budget granted, outcome) in the returned list."""
    calls = []
    real = module.evaluate

    def recording(p, x, y=0, budget=None, cfg=DEFAULT_CONFIG):
        granted = None if budget is None else budget.remaining
        outcome = real(p, x, y, budget, cfg)
        calls.append((p, x, y, granted, outcome))
        return outcome

    monkeypatch.setattr(module, "evaluate", recording)
    return calls


def carried_budgets(calls: list[tuple], limit: int) -> list[int]:
    """Budgets recorded calls are granted when each gets limit plus
    whatever the earlier calls left unspent."""
    granted, left = [], 0
    for *_, outcome in calls:
        granted.append(limit + left)
        left = limit + left - outcome.cost
    return granted


def fresh_problems():
    """The fixture problems from a new load: no other test holds their
    programs, apart from the shared leaves."""
    return oeis.build_problems(
        oeis.load_solutions(FIXTURES / "solutions.tsv"), oeis.load_stripped(FIXTURES / "stripped")
    )


def warm(records) -> None:
    """Evaluate every subprogram of the records' programs along x at
    y = 0 and y = 3, leaving compiled code, loop records and, where a
    subprogram ignores y, stored points on each."""
    for r in records:
        for side in (r.small, r.fast):
            for q in subprograms(side):
                for x in range(12):
                    evaluate(q, x)
                    evaluate(q, x, 3)


def kept_state(records) -> set[tuple[int, int]]:
    """(id of the subprogram, id of its compiled entry) for each subprogram
    of the records' programs that holds evaluator state.  The shared leaves
    may hold state that another test left, so compare before and after."""
    return {
        (id(q), id(q._code))
        for r in records
        for side in (r.small, r.fast)
        for q in subprograms(side)
        if hasattr(q, "_code")
    }
