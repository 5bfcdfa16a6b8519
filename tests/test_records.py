"""The public record types: named tuples, immutable, equal and hashed by
their fields, and copied with `_replace`."""

import pickle

import pytest

from loopbench import (
    EvalConfig,
    Op,
    ProblemRecord,
    Program,
    RunResult,
    SequenceRecord,
    SolutionRecord,
    SolverSpec,
    Variant,
    VerifyReport,
    emit,
    evaluate,
    parse,
)
from loopbench.harness import Verdict

X = parse("x")

# (build a record, its fields in order, a field to change, a new value)
RECORDS = [
    (lambda: Program(Op.ADD, (X, X)), ("op", "args"), "op", Op.MUL),
    (lambda: EvalConfig(per_call_limit=7), ("per_call_limit",), "per_call_limit", 5),
    (lambda: SequenceRecord("A1", (0, 1)), ("anum", "terms"), "terms", (1,)),
    (lambda: SolutionRecord("A1", X, X), ("anum", "small", "fast"), "fast", parse("x + 0")),
    (
        lambda: ProblemRecord("A1", ["A000001"], [0, 1], X, X),
        ("id", "anums", "terms", "small", "fast", "status", "syn_pass", "sem_pass"),
        "status",
        "verified",
    ),
    (
        lambda: VerifyReport("A1", "refuted", 3, (3, "0 != 1")),
        ("problem_id", "status", "checked_upto", "failure"),
        "checked_upto",
        4,
    ),
    (lambda: Variant("c2"), ("kind",), "kind", "c3"),
    (
        lambda: RunResult("A1", "z3", "base", Verdict.PROVED, 0.5),
        ("problem_id", "solver", "variant", "verdict", "wall_time"),
        "verdict",
        Verdict.UNKNOWN,
    ),
    (
        lambda: SolverSpec("z3", "z3 {file}", timeout=5.0),
        ("name", "command", "timeout", "tokens"),
        "timeout",
        6.0,
    ),
]


@pytest.mark.parametrize(
    "make, fields, field, value", RECORDS, ids=[type(make()).__name__ for make, *_ in RECORDS]
)
def test_record_is_immutable_compares_by_fields_and_copies_one_field(make, fields, field, value):
    record, twin = make(), make()
    assert record._fields == fields
    assert record == twin and record is not twin
    # A solver spec holds its token map, a dict, so it has no hash.
    if not isinstance(record, SolverSpec):
        assert hash(record) == hash(twin)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(twin, name))
    copy = record._replace(**{field: value})
    assert type(copy) is type(record) and getattr(copy, field) == value != getattr(record, field)
    assert copy != record
    assert [getattr(copy, f) for f in fields if f != field] == [
        getattr(record, f) for f in fields if f != field
    ]


def test_copies_are_checked_as_new_records():
    with pytest.raises(ValueError, match="ADD takes 2 arguments, got 1"):
        Program(Op.ADD, (X, X))._replace(args=(X,))
    with pytest.raises(ValueError, match="per_call_limit must not be negative"):
        EvalConfig()._replace(per_call_limit=-1)
    with pytest.raises(ValueError, match=r"must contain \{file\} exactly once"):
        SolverSpec("z3", "z3 {file}")._replace(command="z3")
    with pytest.raises(ValueError, match="timeout' must be finite and above 0, got -1.0"):
        SolverSpec("z3", "z3 {file}")._replace(timeout=-1)
    with pytest.raises(ValueError, match="unknown conjecture variant 'c9'"):
        Variant("c2")._replace(kind="c9")
    problem = ProblemRecord("A1", ("A000001",), (0, 1), X, X)._replace(terms=[2, 3])
    assert type(problem.terms) is tuple


def test_copies_carry_no_kept_work():
    p = parse("loop(x + y, x, 0)")
    cfg = EvalConfig(per_call_limit=7)._replace(per_call_limit=100)
    assert evaluate(p, 4, cfg=cfg).value == 10
    assert "_code" in vars(p)
    for copy in (p._replace(), pickle.loads(pickle.dumps(p))):
        assert copy == p and "_code" not in vars(copy)
    problem = ProblemRecord("A1", ("A000001",), (0, 1), X, parse("x + 0"))
    emit(problem)
    assert "_smt_head" in vars(problem)
    assert vars(problem._replace()) == {}
