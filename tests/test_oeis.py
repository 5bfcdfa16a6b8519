import random
import re
from pathlib import Path

import pytest

from loopbench.interp import EvalConfig
from loopbench.lang import parse
from loopbench.oeis import (
    STATUSES,
    ProblemRecord,
    SequenceRecord,
    SolutionRecord,
    build_problems,
    covers,
    load_problems,
    load_solutions,
    load_stripped,
    problem_from_json,
    problem_to_json,
    save_problems,
    short_anum,
)
from loopbench.smt import export_all
from oracles import compound_census

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_short_anum():
    assert short_anum("A000045") == "A45"
    assert short_anum("A180713") == "A180713"
    assert short_anum("A000001") == "A1"


def test_load_stripped_fixture(sequences):
    assert len(sequences) == 8
    assert sequences["A000045"].terms[:8] == (0, 1, 1, 2, 3, 5, 8, 13)
    assert len(sequences["A000217"].terms) == 30
    assert sequences["A999999"].terms == (0, 1, 2)


@pytest.mark.parametrize(
    "line",
    [
        "A000001 1,2,3,",
        "A000001 ,1,2,3",
        "A1x ,1,2,",
        "A000001 ,,",
        "A000001 ,1,two,3,",
        "justonefield",
    ],
)
def test_load_stripped_rejects_malformed_lines(tmp_path, line):
    path = tmp_path / "stripped"
    path.write_text(line + "\n")
    with pytest.raises(ValueError) as info:
        load_stripped(path)
    assert ":1:" in str(info.value)


def test_load_stripped_rejects_a_repeated_anum(tmp_path):
    path = tmp_path / "stripped"
    path.write_text("A000001 ,1,2,3,\n# note\nA000002 ,1,\nA000001 ,4,5,6,\n")
    with pytest.raises(ValueError) as info:
        load_stripped(path)
    assert str(info.value) == f"{path}:4: repeated A-number 'A000001' (first on line 1)"


def test_load_stripped_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "stripped"
    path.write_text("# header\n\nA000001 ,1,-2,3,\n")
    records = load_stripped(path)
    assert records["A000001"].terms == (1, -2, 3)


def test_load_solutions_fixture(solutions):
    assert len(solutions) == 8
    by_anum = {s.anum: s for s in solutions}
    assert by_anum["A000217"].small == parse("loop(x + y, x, 0)")
    assert by_anum["A000217"].fast == parse("((x * x) + x) div 2")


def test_load_solutions_skips_y_dependent_rows(tmp_path, capsys):
    path = tmp_path / "solutions.tsv"
    path.write_text("A000001\tx + y\tx\nA000002\tx\tx + 1\n")
    records = load_solutions(path)
    assert [r.anum for r in records] == ["A000002"]
    assert capsys.readouterr().err == f"{path}:1: A000001 solution depends on y, skipped\n"


def test_load_solutions_rejects_bad_rows(tmp_path):
    path = tmp_path / "solutions.tsv"
    for text, message in [
        ("A000001\tx\n", "1: expected 3 tab-separated fields"),
        ("A000001\tx\tnotaprogram(\n", "1: unknown identifier 'notaprogram' (at position 0)"),
        ("A000001\tx\tx\n\nB1\tx\tx + 1\n", "3: bad A-number 'B1'"),
        # A repeated row is an error even where the first is skipped (it
        # depends on y) or the second does not parse.
        ("A1\tx\tx\nA2\tx\tx\nA1\tx\tx + 1\n", "3: repeated A-number 'A1' (first on line 1)"),
        ("A1\ty\tx\nA1\tx\tnotaprogram(\n", "2: repeated A-number 'A1' (first on line 1)"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_solutions(path)
        assert str(info.value) == f"{path}:{message}"


def test_load_solutions_skips_blank_lines(tmp_path):
    rows = ["A000001\tx\tx + 1", "A000002\tx * 2\tx + x", "A000003\t1\t2 - 1"]
    plain, blank = tmp_path / "plain.tsv", tmp_path / "blank.tsv"
    plain.write_text("".join(row + "\n" for row in rows))
    blank.write_text("\n" + "\n  \n".join(rows) + "\n\n")
    assert load_solutions(blank) == load_solutions(plain)
    assert len(load_solutions(plain)) == 3


def test_a_loaded_file_keeps_one_object_per_distinct_subterm():
    # The bench corpus's 180 rows repeat their subterms: 2,648 compound
    # node occurrences, 690 of them distinct (2,336 in the manifest).
    solutions = load_solutions(BENCH / "corpus" / "solutions.tsv")
    problems = load_problems(BENCH / "expected" / "problems.jsonl")
    for records in (solutions, problems):
        assert compound_census(p for r in records for p in (r.small, r.fast)) == (690, 690)


def test_covers(sequences):
    assert covers(parse("loop(x + y, x, 0)"), sequences["A000217"])
    assert not covers(parse("x * x"), sequences["A000217"])
    assert covers(parse("x"), SequenceRecord("A000001", (0, 1, 2, 3)))
    # An execution error anywhere means the terms are not covered.
    assert not covers(parse("x div (x - 1)"), SequenceRecord("A000001", (0, 0, 2)))


def test_covers_respects_budget(sequences):
    tiny = EvalConfig(per_call_limit=3)
    assert not covers(parse("loop(x + y, x, 0)"), sequences["A000217"], tiny)


def test_build_problems_fixture(problems, problems_by_id):
    assert [p.id for p in problems] == sorted(p.id for p in problems)
    assert len(problems) == 7
    merged = problems_by_id["A45-A77373"]
    assert merged.anums == ("A000045", "A077373")
    assert len(merged.terms) == 20  # the longer member's terms
    assert merged.status == "unverified"


def test_build_problems_drops_identical_pairs(sequences):
    same = SolutionRecord("A000045", parse("x"), parse("x"))
    assert build_problems([same], sequences) == []


def test_build_problems_requires_sequence_data(sequences):
    rec = SolutionRecord("A123456", parse("x"), parse("x + 0"))
    with pytest.raises(ValueError):
        build_problems([rec], sequences)


def test_build_problems_order_is_input_invariant(solutions, sequences):
    reference = build_problems(solutions, sequences)
    shuffled = list(solutions)
    random.Random(7).shuffle(shuffled)
    again = build_problems(shuffled, sequences)
    assert [p.id for p in again] == [p.id for p in reference]
    assert [(p.small, p.fast) for p in again] == [(p.small, p.fast) for p in reference]


def test_member_anums_sort_numerically(sequences):
    # A2 must come before A10 in the id despite string order.
    seqs = dict(sequences)
    seqs["A000002"] = SequenceRecord("A000002", (1, 2))
    seqs["A000010"] = SequenceRecord("A000010", (1, 2))
    recs = [
        SolutionRecord("A000010", parse("x"), parse("x + 0")),
        SolutionRecord("A000002", parse("x"), parse("x + 0")),
    ]
    (problem,) = build_problems(recs, seqs)
    assert problem.id == "A2-A10"


def test_problem_json_round_trip(problems):
    for problem in problems:
        again = problem_from_json(problem_to_json(problem))
        assert again == problem


def test_save_and_load_problems(tmp_path, problems):
    path = tmp_path / "problems.jsonl"
    problems = [
        problems[0]._replace(status="verified"),
        problems[1]._replace(syn_pass=True),
        *problems[2:],
    ]
    save_problems(problems, path)
    assert load_problems(path) == problems


GOOD_ROW = '{"id": "A1", "anums": ["A000001"], "terms": [0, 1], "small": "x", "fast": "x + 0"}'


@pytest.mark.parametrize(
    "row, message",
    [
        ("{}", "missing field 'id'"),
        ('{"id": "A1", "anum": "A1"}', "missing field 'anums'"),
        (GOOD_ROW.replace(', "fast": "x + 0"', ""), "missing field 'fast'"),
        ("[1, 2]", "row must be a JSON object, got list"),
        ('"A1"', "row must be a JSON object, got str"),
        (GOOD_ROW.replace("[0, 1]", '[0, "one"]'), "non-integer term 'one'"),
        (GOOD_ROW.replace("[0, 1]", "[0, 1.5]"), "non-integer term 1.5"),
        (GOOD_ROW.replace("[0, 1]", "[0, true]"), "non-integer term True"),
        (GOOD_ROW.replace("[0, 1]", "7"), "field 'terms' must be a list, got 7"),
        (GOOD_ROW.replace('["A000001"]', "[1]"), "field 'anums' must list strings"),
        (GOOD_ROW.replace('"id": "A1"', '"id": 1'), "field 'id' must be a str, got 1"),
        (GOOD_ROW.replace('"x + 0"', "3"), "field 'fast' must be a str, got 3"),
        (GOOD_ROW.replace('"x + 0"', '"x +"'), "field 'fast': unexpected token"),
        (GOOD_ROW[:-1] + ', "status": "verifyed"}', "field 'status' must be one of"),
        (GOOD_ROW[:-1] + ', "status": null}', "field 'status' must be a str, got None"),
        (GOOD_ROW[:-1] + ', "syn_pass": "false"}', "field 'syn_pass' must be a bool"),
        (GOOD_ROW[:-1] + ', "sem_pass": 1}', "field 'sem_pass' must be a bool, got 1"),
        ("{not json", "Expecting property name"),
    ],
)
def test_load_problems_names_the_line_and_field_of_a_bad_row(tmp_path, row, message):
    path = tmp_path / "problems.jsonl"
    path.write_text(GOOD_ROW + "\n\n" + row + "\n" + GOOD_ROW + "\n")
    with pytest.raises(ValueError) as info:
        load_problems(path)
    assert str(info.value).startswith(f"{path}:3: ")
    assert message in str(info.value)
    with pytest.raises(ValueError, match=re.escape(message)):
        problem_from_json(row)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"id": "../escaped"}, "field 'id' must be a plain file name, got '../escaped'"),
        ({"anums": [1]}, "field 'anums' must list strings, got [1]"),
        ({"terms": [True]}, "field 'terms' has a non-integer term True"),
        ({"small": "x"}, "field 'small' must be a Program, got 'x'"),
        ({"status": "bogus"}, "field 'status' must be one of unverified, verified, nonverified, refuted, got 'bogus'"),
        ({"sem_pass": 1}, "field 'sem_pass' must be a bool, got 1"),
    ],
)
def test_problem_record_checks_its_fields_as_a_manifest_row_is(tmp_path, fields, message):
    # A record built in Python holds only what a manifest may, so a writer
    # never makes a file that its reader refuses, or one outside its directory.
    good = {"id": "A1", "anums": ["A000001"], "terms": [0, 1], "small": parse("x"), "fast": parse("x + 0")}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        export_all([ProblemRecord(**{**good, **fields})], tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


def test_problem_record_defaults():
    pr = ProblemRecord("A1", ["A000001"], [1, 2], parse("x"), parse("x + 0"))
    assert pr.status == "unverified"
    assert not pr.syn_pass and not pr.sem_pass


def test_problem_record_is_frozen():
    pr = ProblemRecord("A1", ["A000001"], [1, 2], parse("x"), parse("x + 0"))
    for field, value in (("status", "verified"), ("syn_pass", True), ("sem_pass", True)):
        with pytest.raises(AttributeError):
            setattr(pr, field, value)
    assert pr.status == "unverified"
    # Only refuted problems leave the released benchmark.
    assert pr.released
    assert [pr._replace(status=s).released for s in STATUSES] == [True, True, True, False]


def test_problem_record_holds_tuples_and_hashes(problems):
    # Built from lists, as a caller may still do: the record keeps tuples,
    # so copies made with _replace() share nothing that can change.
    pr = ProblemRecord("A1", ["A000001"], [1, 2], parse("x"), parse("x + 0"))
    assert (pr.anums, pr.terms) == (("A000001",), (1, 2))
    assert pr._replace(status="verified").terms is pr.terms
    assert hash(pr) == hash(ProblemRecord("A1", ("A000001",), (1, 2), parse("x"), parse("x + 0")))
    for problem in [*problems, problem_from_json(problem_to_json(pr))]:
        assert type(problem.anums) is tuple and type(problem.terms) is tuple
        hash(problem)
