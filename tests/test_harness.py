import csv
import io
import json
import re
import stat
import time

import pytest

from loopbench.harness import (
    DEFAULT_TIMEOUT,
    DEFAULT_TOKENS,
    RunResult,
    SolverSpec,
    Verdict,
    aggregate,
    load_results,
    load_solver_config,
    result_from_json,
    run_campaign,
    run_solver,
)
from loopbench.smt import Variant


def _script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return path


@pytest.fixture
def smt_file(tmp_path):
    path = tmp_path / "A1.smt2"
    path.write_text("(set-logic UFNIA)\n(check-sat)\n")
    return path


def test_default_timeout_is_one_minute():
    assert DEFAULT_TIMEOUT == 60.0
    assert SolverSpec("s", "solver {file}").timeout == 60.0


def test_each_spec_gets_its_own_default_tokens():
    a, b = SolverSpec("a", "a {file}"), SolverSpec("b", "b {file}")
    assert a.tokens == b.tokens == DEFAULT_TOKENS
    assert a.tokens is not b.tokens and a.tokens is not DEFAULT_TOKENS


def test_spec_requires_single_file_placeholder():
    with pytest.raises(ValueError):
        SolverSpec("s", "solver")
    with pytest.raises(ValueError):
        SolverSpec("s", "solver {file} {file}")


@pytest.mark.parametrize(
    "timeout",
    [-1.0, 0, float("nan"), float("inf"), 10**6 + 1, 10**9, 10**400, True],
    ids=["-1.0", "0", "nan", "inf", "10**6+1", "10**9", "10**400", "True"],
)
def test_spec_rejects_a_timeout_the_runner_cannot_keep(timeout):
    # A negative timeout would log a timeout row that resume never
    # retries, and one of 10**9 s overflows subprocess's wait.
    with pytest.raises(ValueError, match="^field 'timeout' must be "):
        SolverSpec("s", "sh -c 'echo unsat' {file}", timeout=timeout)


@pytest.mark.parametrize("timeout", [10**5000, -(10**5000)], ids=["10**5000", "-10**5000"])
def test_spec_counts_the_digits_of_a_timeout_too_long_for_str(timeout):
    # str() refuses an integer of more than 4,300 digits.
    message = (
        "field 'timeout' must be above 0 and at most 1000000 seconds,"
        " got an integer of 5001 digits"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SolverSpec("s", "s {file}", timeout=timeout)


def test_spec_command_splits_into_words_and_timeout_is_a_float():
    with pytest.raises(ValueError, match="^field 'cmd' does not split into words: No closing quotation$"):
        SolverSpec("s", 'echo "{file}')
    spec = SolverSpec("s", "s {file}", timeout=10**6)
    assert spec.timeout == 1e6 and type(spec.timeout) is float


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"name": 5}, "field 'name' must be a string"),
        ({"command": None}, "field 'cmd' must be a string"),
        ({"tokens": ["unsat"]}, "field 'tokens' must map lines to verdicts"),
        ({"tokens": None}, "field 'tokens' must map lines to verdicts"),
        ({"tokens": {"ok": "yes"}}, "field 'tokens': 'yes' is not a valid Verdict"),
    ],
)
def test_spec_names_the_field_it_refuses(fields, message):
    # A name that is not a string would log a row that resume rejects, and
    # shlex reads stdin for a command of None on Python 3.10 and 3.11.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SolverSpec(**{"name": "s", "command": "s {file}", **fields})


def test_verdict_tokens(tmp_path, smt_file):
    cases = {
        "echo unsat\n": Verdict.PROVED,
        "echo sat\n": Verdict.COUNTERSAT,
        "echo unknown\n": Verdict.UNKNOWN,
        "echo something else\n": Verdict.UNKNOWN,  # exit 0, no token
        "echo unsatisfiable\n": Verdict.UNKNOWN,  # tokens match whole lines
        "echo broken; exit 3\n": Verdict.ERROR,
        "echo warming up; echo unsat\n": Verdict.PROVED,
        "printf '  unsat  \\n'\n": Verdict.PROVED,  # surrounding space is trimmed
    }
    for body, verdict in cases.items():
        runner = _script(tmp_path, f"s{len(body)}.sh", body)
        spec = SolverSpec("stub", f"{runner} {{file}}")
        got, wall = run_solver(spec, smt_file)
        assert got == verdict, body
        assert wall >= 0


def test_custom_tokens(tmp_path, smt_file):
    runner = _script(tmp_path, "prover.sh", "echo Theorem\n")
    # A verdict is given as a Verdict, or by its name as in a config.
    for verdict in (Verdict.PROVED, "proved"):
        spec = SolverSpec("p", f"{runner} {{file}}", tokens={"Theorem": verdict})
        assert spec.tokens == {"Theorem": Verdict.PROVED}
        assert run_solver(spec, smt_file)[0] == Verdict.PROVED


def test_timeout_kills_the_solver(tmp_path, smt_file):
    runner = _script(tmp_path, "slow.sh", "sleep 30\necho unsat\n")
    spec = SolverSpec("slow", f"{runner} {{file}}", timeout=0.3)
    start = time.monotonic()
    verdict, wall = run_solver(spec, smt_file)
    elapsed = time.monotonic() - start
    assert verdict == Verdict.TIMEOUT
    assert elapsed < 5


def test_missing_binary_is_an_error(smt_file):
    spec = SolverSpec("ghost", "/nonexistent/prover {file}")
    assert run_solver(spec, smt_file)[0] == Verdict.ERROR


def test_file_substitution_respects_quoting(tmp_path):
    smt = tmp_path / "A1.smt2"
    smt.write_text("x\n")
    runner = _script(tmp_path, "cat.sh", 'cat "$2" >/dev/null && echo unsat\n')
    spec = SolverSpec("s", f"{runner} --flag {{file}}")
    assert run_solver(spec, smt)[0] == Verdict.PROVED


def test_load_solver_config(tmp_path):
    config = tmp_path / "solvers.json"
    config.write_text(
        json.dumps(
            {
                "solvers": [
                    {"name": "a", "cmd": "a {file}"},
                    {
                        "name": "b",
                        "cmd": "b {file}",
                        "timeout": 5,
                        "tokens": {"Proof found": "proved"},
                    },
                ]
            }
        )
    )
    specs = load_solver_config(config)
    assert [s.name for s in specs] == ["a", "b"]
    assert specs[0].tokens == DEFAULT_TOKENS
    assert specs[1].timeout == 5.0
    assert specs[1].tokens == {"Proof found": Verdict.PROVED}
    config.write_text(json.dumps({"solvers": [{"name": "c", "cmd": "c {file}"}]}))
    assert load_solver_config(config)[0].name == "c"
    # A map replaces the default table, an empty one too.
    config.write_text(json.dumps({"solvers": [{"name": "e", "cmd": "e {file}", "tokens": {}}]}))
    assert load_solver_config(config)[0].tokens == {}
    config.write_text(json.dumps({"solvers": [{"name": "d", "cmd": "d {file}", "timeout": 10**6}]}))
    assert load_solver_config(config)[0].timeout == 1e6


@pytest.mark.parametrize(
    "data, message",
    [
        ({"solvers": [{"name": "z3"}]}, "solver 0: missing field 'cmd'"),
        ({"solvers": [{"name": "a", "cmd": "a {file}"}, {"cmd": "b {file}"}]}, "solver 1: missing field 'name'"),
        ({"solvers": [1]}, "solver 0: expected an object, got int"),
        ({"solvers": [{"name": 3, "cmd": "a {file}"}]}, "solver 0: field 'name' must be a string"),
        ({"solvers": [{"name": "a", "cmd": ["a", "{file}"]}]}, "solver 0: field 'cmd' must be a string"),
        ({"solvers": [{"name": "a", "cmd": "a {file}", "timeout": "soon"}]}, "field 'timeout' must be a number"),
        ({"solvers": [{"name": "a", "cmd": "a {file}", "timeout": 0}]}, "solver 0: field 'timeout' must be finite and above 0, got 0.0"),
        ({"solvers": [{"name": "a", "cmd": "a {file}", "timeout": -1}]}, "solver 0: field 'timeout' must be finite and above 0, got -1.0"),
        ({"solvers": [{"name": "a", "cmd": "a {file}", "timeout": "inf"}]}, "solver 0: field 'timeout' must be a number, got 'inf'"),
        ({"solvers": [{"name": "a", "cmd": "a {file}", "timeout": "7"}]}, "solver 0: field 'timeout' must be a number, got '7'"),
        ({"solvers": [{"name": "a", "cmd": "a {file}", "timeout": True}]}, "solver 0: field 'timeout' must be a number, got True"),
        ({"solvers": [{"name": "a", "cmd": 'echo "{file}'}]}, "solver 0: field 'cmd' does not split into words: No closing quotation"),
        ({"solvers": [{"name": "a", "cmd": "a"}]}, "solver 0: field 'cmd' must contain {file} exactly once"),
        ({"solvers": [{"name": "a", "cmd": "a {file} {file}"}]}, "solver 0: field 'cmd' must contain {file} exactly once"),
        ({"solvers": [{"name": "a", "cmd": "a {file}", "timeout": float("inf")}]}, "solver 0: field 'timeout' must be finite"),
        ({"solvers": [{"name": "a", "cmd": "a {file}", "timeout": float("nan")}]}, "solver 0: field 'timeout' must be finite and above 0, got nan"),
        ({"solvers": [{"name": "a", "cmd": "a {file}", "timeout": 1e9}]}, "solver 0: field 'timeout' must be at most 1000000 seconds, got 1000000000.0"),
        ({"solvers": [{"name": "a", "cmd": "a {file}", "timeout": 1e308}]}, "solver 0: field 'timeout' must be at most 1000000 seconds, got 1e+308"),
        ({"solvers": [{"name": "a", "cmd": "a {file}", "timeout": 10**6 + 1}]}, "solver 0: field 'timeout' must be at most 1000000 seconds, got 1000001.0"),
        (
            {"solvers": [{"name": "a", "cmd": "a {file}"}, {"name": "b", "cmd": "b {file}", "timeout": 10**400}]},
            "solver 1: field 'timeout' must be above 0 and at most 1000000 seconds, got an integer of 401 digits",
        ),
        (
            {"solvers": [{"name": "a", "cmd": "a {file}", "timeout": -(10**400)}]},
            "solver 0: field 'timeout' must be above 0 and at most 1000000 seconds, got an integer of 401 digits",
        ),
        ({"solvers": [{"name": "a", "cmd": "a {file}", "tokens": ["unsat"]}]}, "field 'tokens' must map"),
        ({"solvers": [{"name": "a", "cmd": "a {file}", "tokens": {"ok": "yes"}}]}, "field 'tokens': 'yes'"),
        ({"provers": []}, 'expected {"solvers": [...]}'),
        ([{"name": "c", "cmd": "c {file}"}], 'expected {"solvers": [...]}'),
        # A falsy value is not an absent map: none of these means the default table.
        *(
            ({"solvers": [{"name": "a", "cmd": "a {file}", "tokens": tokens}]}, "solver 0: field 'tokens' must map lines to verdicts")
            for tokens in ([], None, False, 0, "")
        ),
    ],
)
def test_malformed_solver_config_names_the_entry_and_field(tmp_path, data, message):
    config = tmp_path / "solvers.json"
    config.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=f"^{re.escape(str(config))}: ") as info:
        load_solver_config(config)
    assert message in str(info.value)


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"[1,2", "Expecting ',' delimiter: line 1 column 5 (char 4)"),
        (b"[\xff]", "codec can't decode byte 0xff in position 1"),
    ],
    ids=["not-json", "not-text"],
)
def test_solver_config_that_does_not_parse_names_the_path(tmp_path, raw, message):
    # Raw bytes: the parametrized test above writes json.dumps(data).
    config = tmp_path / "solvers.json"
    config.write_bytes(raw)
    with pytest.raises(ValueError, match=f"^{re.escape(str(config))}: ") as info:
        load_solver_config(config)
    assert message in str(info.value)


GOOD_RESULT = '{"id": "A1", "solver": "s", "variant": "base", "verdict": "proved", "wall_time": 0.5}'


@pytest.mark.parametrize(
    "row, message",
    [
        ("{}", "missing field 'id'"),
        ("[1, 2]", "row must be a JSON object, got list"),
        ('"A1"', "row must be a JSON object, got str"),
        (GOOD_RESULT.replace(', "wall_time": 0.5', ""), "missing field 'wall_time'"),
        (GOOD_RESULT.replace('"solver": "s", ', ""), "missing field 'solver'"),
        (GOOD_RESULT.replace('"A1"', "1"), "field 'id' must be a string, got 1"),
        (GOOD_RESULT.replace('"base"', "null"), "field 'variant' must be a string, got None"),
        (GOOD_RESULT.replace("0.5", '"fast"'), "field 'wall_time' must be a number, got 'fast'"),
        (GOOD_RESULT.replace("0.5", "true"), "field 'wall_time' must be a number, got True"),
        (GOOD_RESULT.replace('"proved"', '"solved"'), "field 'verdict' must be one of proved,"),
        (GOOD_RESULT.replace('"proved"', "[1]"), "field 'verdict' must be one of proved,"),
    ],
)
def test_malformed_result_names_the_line_and_field(tmp_path, row, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        result_from_json(row)
    log = tmp_path / "results.jsonl"
    log.write_text(GOOD_RESULT + "\n\n" + row + "\n" + GOOD_RESULT + "\n")
    with pytest.raises(ValueError) as info:
        load_results(log)
    assert str(info.value).startswith(f"{log}:3: {message}")


def test_result_json_round_trip():
    result = RunResult("A1", "s", "base", Verdict.PROVED, 1.23456)
    again = result_from_json(result.to_json())
    assert again.problem_id == "A1"
    assert again.verdict == Verdict.PROVED
    assert again.wall_time == pytest.approx(1.2346)


def _mk_files(tmp_path, ids):
    files = []
    for pid in ids:
        path = tmp_path / f"{pid}.smt2"
        path.write_text("(check-sat)\n")
        files.append((pid, path))
    return files


def test_run_campaign_and_resume(tmp_path):
    unsat = _script(tmp_path, "unsat.sh", "echo unsat\n")
    sat = _script(tmp_path, "sat.sh", "echo sat\n")
    solvers = [
        SolverSpec("yes", f"{unsat} {{file}}"),
        SolverSpec("no", f"{sat} {{file}}"),
    ]
    files = _mk_files(tmp_path, ["A1", "A2", "A3"])
    log = tmp_path / "results.jsonl"

    first = run_campaign(solvers, files, "base", log, jobs=2)
    assert len(first) == 6
    assert len(load_results(log)) == 6

    # A second run is a no-op; everything is already logged.
    assert run_campaign(solvers, files, "base", log) == []
    assert len(load_results(log)) == 6

    # New problems and new variants fill in the gaps only.
    more_files = _mk_files(tmp_path, ["A4"])
    assert len(run_campaign(solvers, files + more_files, "base", log)) == 2
    assert len(run_campaign(solvers, files[:1], "c1", log)) == 2
    assert len(load_results(log)) == 10


def test_campaign_survives_output_that_is_not_utf8(tmp_path):
    # Bytes 0xff 0xfe on stdout and stderr: each solver is named after the
    # verdict its token or return code gives.
    bodies = {
        "proved": "printf '\\377\\376\\nunsat\\n'; printf '\\377' >&2\n",
        "unknown": "printf '\\377\\376'; printf '\\376' >&2\n",
        "error": "printf '\\377\\376'; printf '\\377' >&2; exit 2\n",
    }
    solvers = [
        SolverSpec(name, f"{_script(tmp_path, name + '.sh', body)} {{file}}")
        for name, body in bodies.items()
    ]
    log = tmp_path / "results.jsonl"
    results = run_campaign(solvers, _mk_files(tmp_path, ["A1"]), "base", log)
    assert sorted((r.solver, r.verdict.value) for r in results) == [(n, n) for n in sorted(bodies)]
    assert len(load_results(log)) == 3


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_campaign_rejects_fewer_than_one_job(tmp_path, jobs):
    log = tmp_path / "results.jsonl"
    solvers = [SolverSpec("yes", "echo unsat {file}")]
    with pytest.raises(ValueError, match=f"^jobs must be at least 1, got {jobs}$"):
        run_campaign(solvers, _mk_files(tmp_path, ["A1"]), "base", log, jobs=jobs)
    assert not log.exists()


@pytest.mark.parametrize(
    "fields, message",
    [
        ((5, "s", "base", Verdict.PROVED, 0.5), "field 'id' must be a string, got 5"),
        (("A1", None, "base", Verdict.PROVED, 0.5), "field 'solver' must be a string, got None"),
        (("A1", "s", ["c3"], Verdict.PROVED, 0.5), "field 'variant' must be a string, got ['c3']"),
        (("A1", "s", "base", "solved", 0.5), "field 'verdict' must be one of proved,"),
        (("A1", "s", "base", Verdict.PROVED, True), "field 'wall_time' must be a number, got True"),
        (("A1", "s", "base", Verdict.PROVED, "0.5"), "field 'wall_time' must be a number, got '0.5'"),
    ],
)
def test_result_names_the_field_it_refuses(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        RunResult(*fields)
    with pytest.raises(ValueError, match=re.escape(message)):
        RunResult("A1", "s", "base", Verdict.PROVED, 0.5)._replace(
            **dict(zip(RunResult._fields, fields))
        )
    # A verdict given by its value is held as the Verdict.
    assert RunResult("A1", "s", "base", "proved", 1).verdict is Verdict.PROVED


@pytest.mark.parametrize(
    "pid, variant, message",
    [
        (5, "base", "field 'id' must be a string, got 5"),
        ("A1", Variant("c3"), "field 'variant' must be a string, got Variant(kind='c3')"),
    ],
)
def test_run_campaign_refuses_what_its_log_could_not_read_back(tmp_path, pid, variant, message):
    path = tmp_path / "A1.smt2"
    path.write_text("(check-sat)\n")
    log = tmp_path / "results.jsonl"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_campaign([SolverSpec("yes", "echo unsat {file}")], [(pid, path)], variant, log)
    assert not log.exists()


def test_a_script_that_runs_itself_is_checked_as_a_file_not_a_program(tmp_path):
    # cmd "{file}" names no program to look up: the script is the solver.
    script = _script(tmp_path, "A1.smt2", "echo unsat\n")
    log = tmp_path / "results.jsonl"
    results = run_campaign([SolverSpec("self", "{file}")], [("A1", script)], "base", log)
    assert [r.verdict for r in results] == [Verdict.PROVED]
    with pytest.raises(ValueError, match="no such file for problem A2$"):
        run_campaign([SolverSpec("self", "{file}")], [("A2", tmp_path / "A2.smt2")], "base", log)


def _result(pid, solver, verdict, variant="base"):
    return RunResult(pid, solver, variant, verdict, 0.1)


def test_load_results_skips_only_a_partial_last_line(tmp_path, capsys):
    log = tmp_path / "results.jsonl"
    whole = [_result("A1", "yes", Verdict.PROVED), _result("A2", "yes", Verdict.UNKNOWN)]
    text = "".join(r.to_json() + "\n" for r in whole)
    torn = '{"id": "A3", "solver'

    log.write_text(text + torn)
    assert load_results(log) == whole
    assert capsys.readouterr().err == f"{log}: skipping a partial last line: {torn}\n"

    # A complete last line that lost only its newline still counts.
    log.write_text(text.rstrip("\n"))
    assert load_results(log) == whole

    # A bad line that is not the unterminated last one is not a torn write.
    for lineno, bad in ((1, torn + "\n" + text), (3, text + torn + "\n")):
        log.write_text(bad)
        with pytest.raises(ValueError, match=f"^{re.escape(str(log))}:{lineno}: Unterminated string"):
            load_results(log)


def test_resume_over_a_partial_last_line_reruns_the_lost_task(tmp_path):
    unsat = _script(tmp_path, "unsat.sh", "echo unsat\n")
    solvers = [SolverSpec("yes", f"{unsat} {{file}}")]
    files = _mk_files(tmp_path, ["A1", "A2"])
    log = tmp_path / "results.jsonl"
    run_campaign(solvers, files, "base", log)
    kept, lost = log.read_text().splitlines(keepends=True)
    log.write_text(kept + lost[:15])  # a crash in the middle of the second write

    rerun = run_campaign(solvers, files, "base", log)
    assert [r.problem_id for r in rerun] == [json.loads(lost)["id"]]
    assert log.read_text().startswith(kept)
    assert sorted(r.problem_id for r in load_results(log)) == ["A1", "A2"]

    # A last record without its newline is kept, and the next one starts a new line.
    log.write_text(log.read_text().rstrip("\n"))
    assert len(run_campaign(solvers, files + _mk_files(tmp_path, ["A3"]), "base", log)) == 1
    assert sorted(r.problem_id for r in load_results(log)) == ["A1", "A2", "A3"]
    assert log.read_text().endswith("\n")


def test_aggregate_counts_and_union():
    results = [
        _result("A1", "s1", Verdict.PROVED),
        _result("A2", "s1", Verdict.PROVED),
        _result("A3", "s1", Verdict.UNKNOWN),
        _result("A4", "s1", Verdict.TIMEOUT),
        _result("A1", "s2", Verdict.UNKNOWN),
        _result("A2", "s2", Verdict.PROVED),
        _result("A3", "s2", Verdict.PROVED),
        _result("A4", "s2", Verdict.COUNTERSAT),
        # A log reused across exports holds rows for ids outside the
        # index: they count nowhere and make no column.
        _result("A999", "s3", Verdict.PROVED, variant="c3"),
    ]
    table = aggregate(
        results,
        all_ids=["A1", "A2", "A3", "A4"],
        syn_ids=["A1", "A2", "A3"],
        sem_ids=["A1"],
        nonver_ids=["A4"],
    )
    assert table.rows == ["NoFilt", "SynFilt", "SemFilt", "NonVer"]
    assert table.methods == ["s1/base", "s2/base"]
    assert table.cells["NoFilt"] == {"s1/base": 2, "s2/base": 2, "All": 3}
    assert table.cells["SynFilt"] == {"s1/base": 2, "s2/base": 2, "All": 3}
    assert table.cells["SemFilt"] == {"s1/base": 1, "s2/base": 0, "All": 1}
    assert table.cells["NonVer"] == {"s1/base": 0, "s2/base": 0, "All": 0}
    # sat on a non-verified problem is expected, not an anomaly.
    assert table.anomalies == []

    text = table.render_text()
    assert "s1/base" in text and "All" in text
    assert text.splitlines()[1].startswith("NoFilt")
    csv = table.render_csv()
    assert csv.splitlines()[0] == "row,s1/base,s2/base,All"
    assert csv.splitlines()[1] == "NoFilt,2,2,3"


def test_report_csv_quotes_a_name_holding_a_comma_or_quote():
    results = [_result("A1", "z3,4.8", Verdict.PROVED), _result("A1", 'say "hi"', Verdict.UNKNOWN)]
    table = aggregate(results, ["A1"], [], [], [])
    rows = list(csv.reader(io.StringIO(table.render_csv())))
    assert rows[0] == ["row", 'say "hi"/base', "z3,4.8/base", "All"]
    assert rows[1] == ["NoFilt", "0", "1", "1"]
    assert all(len(row) == len(rows[0]) for row in rows)


def test_aggregate_flags_countersat_on_verified_problems(capsys):
    results = [_result("A1", "s1", Verdict.COUNTERSAT)]
    table = aggregate(results, ["A1"], [], [], [])
    assert len(table.anomalies) == 1
    assert "anomalies" in table.render_text()
    # Only the index's verified ids count: a log reused across exports
    # holds rows for ids this report does not list.  The table is the
    # one report of an anomaly, so nothing is written to stderr.
    results = [_result(pid, "z3", Verdict.COUNTERSAT) for pid in ("A1", "A2", "A999")]
    table = aggregate(results, ["A1", "A2"], [], [], ["A2"])
    assert [a.problem_id for a in table.anomalies] == ["A1"]
    assert table.render_text().splitlines()[-2:] == [
        "anomalies: 1 countersat on verified problems",
        "  A1 by z3/base",
    ]
    assert capsys.readouterr().err == ""


def test_aggregate_validates_manifests():
    with pytest.raises(ValueError):
        aggregate([], ["A1"], [], ["A1"], [])  # sem not within syn
    with pytest.raises(ValueError):
        aggregate([], ["A1"], ["A2"], [], [])  # unknown id in syn
    with pytest.raises(ValueError):
        aggregate([], ["A1"], [], [], ["A9"])  # unknown id in nonver


def test_aggregate_with_no_results():
    table = aggregate([], ["A1"], ["A1"], [], [])
    assert table.methods == []
    assert table.cells["NoFilt"] == {"All": 0}
