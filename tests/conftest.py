from pathlib import Path

import pytest

from loopbench import oeis
from loopbench.interp import DEFAULT_CONFIG

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def sequences():
    return oeis.load_stripped(FIXTURES / "stripped")


@pytest.fixture(scope="session")
def solutions():
    return oeis.load_solutions(FIXTURES / "solutions.tsv")


@pytest.fixture
def problems(solutions, sequences):
    # Rebuilt per test: problem records are mutated by verify/classify.
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
