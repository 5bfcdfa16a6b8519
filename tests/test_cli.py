import inspect
import json
import shutil
import stat

import pytest

from conftest import FIXTURES
from loopbench import cli, harness, induction, oeis, verify
from loopbench.cli import main
from loopbench.interp import EvalConfig
from loopbench.lang import MAX_DEPTH


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def corpus(tmp_path):
    shutil.copy(FIXTURES / "stripped", tmp_path / "stripped")
    shutil.copy(FIXTURES / "solutions.tsv", tmp_path / "solutions.tsv")
    return tmp_path


def _built(capsys, corpus):
    manifest = corpus / "problems.jsonl"
    main(
        [
            "build",
            "--stripped", str(corpus / "stripped"),
            "--solutions", str(corpus / "solutions.tsv"),
            "--out", str(manifest),
        ]
    )
    capsys.readouterr()
    return manifest


def _export(directory, rows=(("A1", "A1.smt2", "unsat\n"),), variant="base"):
    """An export made by hand: each (id, file name, text) row's script,
    index.tsv and the variant file."""
    directory.mkdir(exist_ok=True)
    for _, name, text in rows:
        (directory / name).write_text(text)
    (directory / "index.tsv").write_text("".join(f"{pid}\t{name}\n" for pid, name, _ in rows))
    (directory / "variant").write_text(variant + "\n")
    return directory


def test_seq(capsys):
    code, out, err = run(capsys, "seq", "loop(x + y, x, 0)", "5")
    assert code == 0
    assert out == "0 1 3 6 10\n"


def test_seq_reports_errors(capsys):
    code, out, err = run(capsys, "seq", "1 div (x - 2)", "5")
    assert code == 1
    assert out == "-1 -1\n"
    assert "div_by_zero at index 2" in err


def test_seq_rejects_a_negative_count(capsys):
    assert run(capsys, "seq", "x", "-1") == (1, "", "error: n must be at least 0, got -1\n")
    assert run(capsys, "seq", "x", "0") == (0, "", "")


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "2", "0", "0")
    assert code == 0
    assert out == "2 (cost 1)\n"
    code, out, _ = run(capsys, "eval", "loop2(x + y, x, x, 0, 1)", "6", "0")
    assert out == "8 (cost 32)\n"


def test_eval_error_exit(capsys):
    code, out, err = run(capsys, "eval", "1 div 0", "0", "0")
    assert code == 1
    assert "div_by_zero" in err


def test_eval_times_out_under_the_check_budget(capsys):
    # compr(1, x) looks for a c with 1 <= 0, which no c has: the search
    # spends the 100,000-unit checking budget of the cost model.
    assert run(capsys, "eval", "compr(1, x)", "2", "0") == (1, "", "error: timeout\n")


# The README's cost model: 100,000 units per checking call, 1,000,000 per
# verify call.
CHECK_BUDGETS = EvalConfig(per_call_limit=100_000)
VERIFY_BUDGETS = EvalConfig(per_call_limit=1_000_000)


@pytest.mark.parametrize(
    "command,module,name,expected",
    [
        ("eval", cli, "evaluate", CHECK_BUDGETS),
        ("seq", cli, "generate_seq", CHECK_BUDGETS),
        ("cover", oeis, "covers", CHECK_BUDGETS),
        ("verify", verify, "verify_all", VERIFY_BUDGETS),
        ("filter", induction, "classify_all", CHECK_BUDGETS),
        ("pipeline", verify, "verify_all", VERIFY_BUDGETS),
        ("pipeline", induction, "classify_all", CHECK_BUDGETS),
    ],
    ids=["eval", "seq", "cover", "verify", "filter", "pipeline-verify", "pipeline-filter"],
)
def test_each_command_runs_the_budgets_of_the_cost_model(
    capsys, monkeypatch, corpus, command, module, name, expected
):
    real = getattr(module, name)
    seen = []

    def record(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments["cfg"])
        return real(*args, **kwargs)

    manifest = _built(capsys, corpus) if command in ("verify", "filter") else None
    monkeypatch.setattr(module, name, record)
    operands = {
        "eval": ["loop(x + y, x, 0)", "3", "0"],
        "seq": ["loop(x + y, x, 0)", "3"],
        "cover": ["loop(x + y, x, 0)", "--anum", "A000217", "--stripped",
                  str(corpus / "stripped")],
        "verify": ["--problems", str(manifest)],
        "filter": ["--problems", str(manifest), "--syn", str(corpus / "syn"),
                   "--sem", str(corpus / "sem")],
        "pipeline": ["--stripped", str(corpus / "stripped"),
                     "--solutions", str(corpus / "solutions.tsv"),
                     "--outdir", str(corpus / "out")],
    }
    code, _, err = run(capsys, command, *operands[command])
    assert (code, err) == (0, "")
    assert seen == [expected]


# The names that once mirrored the flags; no environment variable
# changes a command.
ENV_NAMES = ["LOOPBENCH_LIMIT", "LOOPBENCH_VERIFY_LIMIT", "LOOPBENCH_VALUE_BOUND",
             "LOOPBENCH_FILTER_MODE", "LOOPBENCH_JOBS"]


def _env_session(capsys, root):
    """Run eval, verify, filter, pipeline --dry-run and run in a fresh
    directory: each one's (exit code, stdout, stderr), and the files written."""
    root.mkdir()
    shutil.copy(FIXTURES / "stripped", root / "stripped")
    shutil.copy(FIXTURES / "solutions.tsv", root / "solutions.tsv")
    _export(root / "smt")
    config = root / "solvers.json"
    config.write_text(json.dumps({"solvers": [{"name": "cat", "cmd": "cat {file}"}]}))
    inputs = ["--stripped", str(root / "stripped"), "--solutions", str(root / "solutions.tsv")]
    manifest = str(root / "problems.jsonl")
    outputs = []
    for argv in (
        ["eval", "loop(x + y, x, 0)", "9", "0"],
        ["build", *inputs, "--out", manifest],
        ["verify", "--problems", manifest, "--reports", str(root / "reports.jsonl")],
        ["filter", "--problems", manifest, "--syn", str(root / "syn"), "--sem", str(root / "sem")],
        ["pipeline", *inputs, "--outdir", str(root / "out"), "--dry-run"],
        ["run", "--config", str(config), "--dir", str(root / "smt"), "--log", str(root / "log")],
    ):
        code, out, err = run(capsys, *argv)
        outputs.append((argv[0], code, out.replace(str(root), "ROOT"), err))
    log = root / "log"
    verdicts = [json.loads(line)["verdict"] for line in log.read_text().splitlines()]
    log.unlink()
    return outputs, verdicts, _tree(root)


@pytest.mark.parametrize(
    "env",
    [
        dict.fromkeys(ENV_NAMES, "bogus"),
        {"LOOPBENCH_LIMIT": "5", "LOOPBENCH_VERIFY_LIMIT": "5", "LOOPBENCH_VALUE_BOUND": "3",
         "LOOPBENCH_FILTER_MODE": "per-test", "LOOPBENCH_JOBS": "0"},
    ],
    ids=["malformed", "non-default"],
)
def test_no_environment_variable_changes_a_command(capsys, monkeypatch, tmp_path, env):
    for name in ENV_NAMES:
        monkeypatch.delenv(name, raising=False)
    unset = _env_session(capsys, tmp_path / "unset")
    assert [code for _, code, _, _ in unset[0]] == [0] * 6
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert _env_session(capsys, tmp_path / "set") == unset


def test_run_rejects_a_malformed_solver_config(capsys, tmp_path):
    config = tmp_path / "solvers.json"
    config.write_text('{"solvers": [{"name": "z3"}]}')
    code, _, err = run(
        capsys, "run", "--config", str(config), "--dir", str(tmp_path), "--log", str(tmp_path / "l")
    )
    assert code == 1
    assert err == f"error: {config}: solver 0: missing field 'cmd'\n"
    assert not (tmp_path / "l").exists()


def test_run_rejects_a_cmd_that_does_not_split_before_any_solver_runs(capsys, tmp_path):
    _export(tmp_path)
    config = tmp_path / "solvers.json"
    config.write_text(json.dumps({"solvers": [
        {"name": "good", "cmd": "echo unsat {file}"},
        {"name": "bad", "cmd": 'echo "{file}'},
    ]}))
    log = tmp_path / "l.jsonl"
    code, out, err = run(capsys, "run", "--config", str(config), "--dir", str(tmp_path), "--log", str(log))
    assert (code, out) == (1, "")
    assert err == (
        f"error: {config}: solver 1: field 'cmd' does not split into words: No closing quotation\n"
    )
    assert not log.exists()


def test_run_rejects_a_repeated_solver_name_before_any_solver_runs(capsys, tmp_path):
    # Results are keyed by solver name: two solvers named z would share one
    # report column, and a resume would count either one's result as both.
    _export(tmp_path)
    config = tmp_path / "solvers.json"
    config.write_text(json.dumps({"solvers": [
        {"name": "z", "cmd": "echo unsat {file}"},
        {"name": "z", "cmd": "echo sat {file}"},
    ]}))
    log = tmp_path / "l.jsonl"
    code, out, err = run(capsys, "run", "--config", str(config), "--dir", str(tmp_path), "--log", str(log))
    assert (code, out, err) == (1, "", f"error: {config}: solver 1: name 'z' repeats solver 0\n")
    assert not log.exists()


def test_run_takes_each_script_from_the_index(capsys, tmp_path):
    # The index names the file; the solver reads it and finds its verdict.
    _export(tmp_path, [("A1", "renamed.smt2", "unsat\n")])
    config = tmp_path / "solvers.json"
    config.write_text(json.dumps({"solvers": [{"name": "cat", "cmd": "cat {file}"}]}))
    log = tmp_path / "l.jsonl"
    code, out, _ = run(capsys, "run", "--config", str(config), "--dir", str(tmp_path), "--log", str(log))
    assert (code, out) == (0, f"1 new results -> {log}\n")
    assert json.loads(log.read_text())["verdict"] == "proved"


@pytest.mark.parametrize(
    "flag, shown",
    [(["--jobs", "0"], 0), (["--jobs", "-3"], -3)],
    ids=["flag-0", "flag-negative"],
)
def test_run_rejects_fewer_than_one_job_before_opening_the_log(capsys, tmp_path, flag, shown):
    _export(tmp_path)
    config = tmp_path / "solvers.json"
    config.write_text(json.dumps({"solvers": [{"name": "s", "cmd": "echo unsat {file}"}]}))
    log = tmp_path / "l.jsonl"
    code, out, err = run(
        capsys, "run", "--config", str(config), "--dir", str(tmp_path), "--log", str(log), *flag
    )
    assert (code, out, err) == (1, "", f"error: jobs must be at least 1, got {shown}\n")
    assert not log.exists()


def _stub_config(tmp_path, cmd="cat {file}"):
    config = tmp_path / "solvers.json"
    config.write_text(json.dumps({"solvers": [{"name": "stub", "cmd": cmd}]}))
    return config


def test_run_logs_the_variant_the_scripts_were_exported_as(capsys, corpus):
    manifest = _built(capsys, corpus)
    smt2 = corpus / "smt2"
    assert run(capsys, "export", "--problems", str(manifest), "--outdir", str(smt2),
               "--variant", "c3")[0] == 0
    assert (smt2 / "variant").read_text() == "c3\n"
    config, log = _stub_config(corpus, "echo unsat {file}"), corpus / "l.jsonl"
    argv = ["--config", str(config), "--dir", str(smt2), "--log", str(log)]
    assert run(capsys, "run", *argv) == (0, f"7 new results -> {log}\n", "")
    assert {json.loads(line)["variant"] for line in log.read_text().splitlines()} == {"c3"}


@pytest.mark.parametrize(
    "text, shown",
    [(None, "[Errno 2] No such file or directory: '{path}'"),
     ("c99\n", "{path}: unknown conjecture variant 'c99'"),
     ("c08\n", "{path}: unknown conjecture variant 'c08'"),
     ("base\tc3\n", "{path}: unknown conjecture variant 'base\\tc3'")],
    ids=["missing", "unknown", "not-a-label", "two-labels"],
)
def test_run_rejects_a_missing_or_unknown_variant_file_before_opening_the_log(
    capsys, tmp_path, text, shown
):
    path = _export(tmp_path / "smt2") / "variant"
    if text is None:
        path.unlink()
    else:
        path.write_text(text)
    log = tmp_path / "l.jsonl"
    code, out, err = run(capsys, "run", "--config", str(_stub_config(tmp_path)),
                         "--dir", str(tmp_path / "smt2"), "--log", str(log))
    assert (code, out, err) == (1, "", f"error: {shown.format(path=path)}\n")
    assert not log.exists()


def test_run_rejects_an_indexed_script_that_does_not_exist_before_opening_the_log(
    capsys, tmp_path
):
    # Logged as an error row, the missing script would never be retried.
    smt2 = _export(tmp_path / "smt2", [("A1", "A1.smt2", "unsat\n"), ("A2", "A2.smt2", "")])
    (smt2 / "A2.smt2").unlink()
    log = tmp_path / "l.jsonl"
    code, out, err = run(capsys, "run", "--config", str(_stub_config(tmp_path)),
                         "--dir", str(smt2), "--log", str(log))
    assert (code, out, err) == (1, "", f"error: {smt2 / 'A2.smt2'}: no such file for problem A2\n")
    assert not log.exists()


def test_run_rejects_a_solver_program_that_is_not_found_before_opening_the_log(
    capsys, tmp_path
):
    _export(tmp_path / "smt2")
    log = tmp_path / "l.jsonl"
    config = _stub_config(tmp_path, "loopbench-no-such-prover {file}")
    code, out, err = run(capsys, "run", "--config", str(config),
                         "--dir", str(tmp_path / "smt2"), "--log", str(log))
    assert (code, out) == (1, "")
    assert err == "error: solver 'stub': program 'loopbench-no-such-prover' not found\n"
    assert not log.exists()


def test_removed_flags_are_usage_errors(capsys):
    # No flag restates the variant an export records, the induction
    # filters have one rule, every command runs the budgets of the cost
    # model, and report prints its table to stdout only.
    pipeline = ["pipeline", "--stripped", "s", "--solutions", "t", "--outdir", "o"]
    filter_ = ["filter", "--problems", "p", "--syn", "s", "--sem", "t"]
    budgets = [
        (["eval", "x", "3", "0"], ["--limit", "--value-bound"]),
        (["seq", "x", "3"], ["--limit", "--value-bound"]),
        (["cover", "x", "--anum", "A1", "--stripped", "s"], ["--limit", "--value-bound"]),
        (["verify", "--problems", "p"], ["--verify-limit", "--value-bound"]),
        (filter_, ["--limit", "--value-bound"]),
        (pipeline, ["--limit", "--verify-limit", "--value-bound"]),
    ]
    report = ["report", "--results", "r", "--index", "i", "--syn", "s", "--sem", "t",
              "--nonverified", "n"]
    for argv in (["export", "--problems", "p", "--outdir", "o", "--c2x-appendix"],
                 [*pipeline, "--c2x-appendix"],
                 ["run", "--config", "c", "--dir", "d", "--log", "l", "--variant", "c3"],
                 [*filter_, "--filter-mode", "per-loop"],
                 [*pipeline, "--filter-mode", "per-loop"],
                 *([*command, flag, "5"] for command, flags in budgets for flag in flags),
                 [*report, "--out", "report.txt"]):
        with pytest.raises(SystemExit) as exit:
            main(argv)
        assert exit.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_fmt(capsys):
    code, out, _ = run(capsys, "fmt", "loop2(x+y,x,x,0,1)")
    assert out == "loop2(x + y, x, x, 0, 1)\n"
    code, out, _ = run(capsys, "fmt", "cond(x, 1, 2)")
    assert out == "cond(x, 1, 2)\n"
    code, out, _ = run(capsys, "fmt", "--if-cond", "cond(x, 1, 2)")
    assert out == "if x <= 0 then 1 else 2\n"


def test_fmt_parse_error(capsys):
    code, _, err = run(capsys, "fmt", "loop(")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "program",
    ["(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1), "x" + " + 1" * MAX_DEPTH],
)
@pytest.mark.parametrize("command", [["fmt"], ["eval"]])
def test_too_deep_programs_are_errors(capsys, command, program):
    argv = command + [program] + (["1", "0"] if command == ["eval"] else [])
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and f"deeper than {MAX_DEPTH} levels" in err


def test_cover(capsys, corpus):
    stripped = str(corpus / "stripped")
    code, out, _ = run(
        capsys, "cover", "loop(x + y, x, 0)", "--anum", "A000217", "--stripped", stripped
    )
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "cover", "x", "--anum", "A000217", "--stripped", stripped)
    assert (code, out) == (1, "false\n")
    code, _, err = run(capsys, "cover", "x", "--anum", "A000000", "--stripped", stripped)
    assert code == 1
    assert "no sequence" in err


def test_build(capsys, corpus):
    manifest = corpus / "problems.jsonl"
    code, out, _ = run(
        capsys,
        "build",
        "--stripped", str(corpus / "stripped"),
        "--solutions", str(corpus / "solutions.tsv"),
        "--out", str(manifest),
    )
    assert code == 0
    assert "7 problems from 8 solutions" in out
    assert len(manifest.read_text().splitlines()) == 7


def test_build_takes_anums_of_any_length(capsys, corpus):
    # int() converts at most 4,300 digits.  An A-number is only shortened
    # and sorted (by value: fewer digits first), so its length is no limit.
    nines, power = "A" + "9" * 5000, "A0001" + "0" * 5000
    row = (FIXTURES / "solutions.tsv").read_text().splitlines()[3]
    assert row.startswith("A000217\t")
    with open(corpus / "stripped", "a") as f:
        f.write(f"{power} ,0,1,3,\n{nines} ,0,1,3,\n")
    with open(corpus / "solutions.tsv", "a") as f:
        f.write(f"{row.replace('A000217', power)}\n{row.replace('A000217', nines)}\n")
    manifest = corpus / "problems.jsonl"
    code, out, err = run(
        capsys,
        "build",
        "--stripped", str(corpus / "stripped"),
        "--solutions", str(corpus / "solutions.tsv"),
        "--out", str(manifest),
    )
    assert (code, err) == (0, "")
    assert "7 problems from 10 solutions" in out
    merged = [p for p in oeis.load_problems(manifest) if nines in p.anums]
    assert [(p.id, p.anums) for p in merged] == [
        (f"A217-{nines}-A1{'0' * 5000}", ("A000217", nines, power))
    ]


def test_verify_and_filter(capsys, corpus):
    manifest = _built(capsys, corpus)
    code, out, _ = run(
        capsys,
        "verify",
        "--problems", str(manifest),
        "--reports", str(corpus / "reports.jsonl"),
        "--nonverified", str(corpus / "all_nonverified100"),
    )
    assert code == 0
    assert "verified=5 nonverified=1 refuted=1" in out
    assert (corpus / "all_nonverified100").read_text() == "A165\n"
    assert '"status": "nonverified"' in (corpus / "reports.jsonl").read_text()

    code, out, _ = run(
        capsys,
        "filter",
        "--problems", str(manifest),
        "--syn", str(corpus / "aind_syn"),
        "--sem", str(corpus / "aind_sem"),
    )
    assert code == 0
    assert "syn=6 sem=5" in out
    assert "A180713" in (corpus / "aind_syn").read_text()
    assert "A180713" not in (corpus / "aind_sem").read_text()
    # The manifest carries the updated statuses and flags.
    text = manifest.read_text()
    assert '"status": "refuted"' in text
    assert '"syn_pass": true' in text


def test_filter_leaves_a_refuted_row_out_and_writes_it_back_unchanged(capsys, corpus):
    manifest = _built(capsys, corpus)
    rows = [json.loads(line) for line in manifest.read_text().splitlines()]
    by_id = {row["id"]: row for row in rows}
    # Stale flags from an earlier run: A217 would pass both filters if it
    # were released, and A180713 fails the semantic one.
    by_id["A217"].update(status="refuted", syn_pass=True, sem_pass=True)
    by_id["A180713"].update(status="verified", syn_pass=True, sem_pass=True)
    manifest.write_text("".join(json.dumps(row) + "\n" for row in rows))
    stale_line = json.dumps(by_id["A217"])

    code, out, _ = run(
        capsys,
        "filter",
        "--problems", str(manifest),
        "--syn", str(corpus / "aind_syn"),
        "--sem", str(corpus / "aind_sem"),
    )
    assert (code, out) == (0, "syn=5 sem=4\n")
    assert (corpus / "aind_syn").read_text() == "A165\nA180713\nA45-A77373\nA537\nA79\n"
    assert (corpus / "aind_sem").read_text() == "A165\nA45-A77373\nA537\nA79\n"
    written = {json.loads(line)["id"]: line for line in manifest.read_text().splitlines()}
    assert written["A217"] == stale_line
    assert json.loads(written["A180713"])["sem_pass"] is False


def test_export_variant_succ(capsys, corpus):
    manifest = _built(capsys, corpus)
    outdir = corpus / "smt"
    code, out, _ = run(
        capsys,
        "export",
        "--problems", str(manifest),
        "--outdir", str(outdir),
        "--variant", "c1",
    )
    assert code == 0
    assert "7 scripts" in out
    assert "(+ c 1)" in (outdir / "A217.smt2").read_text()
    assert (outdir / "index.tsv").exists()


def test_export_rejects_unknown_variant(capsys, corpus):
    manifest = _built(capsys, corpus)
    code, _, err = run(
        capsys, "export", "--problems", str(manifest), "--outdir", str(corpus / "x"),
        "--variant", "c99",
    )
    assert code == 1
    assert "unknown conjecture variant" in err


def test_export_names_a_problem_that_does_not_lower_and_writes_nothing(capsys, corpus):
    manifest = _built(capsys, corpus)
    rows = [json.loads(line) for line in manifest.read_text().splitlines()]
    for row in rows:
        if row["id"] == "A999999":
            row["small"] = "x + y"
    manifest.write_text("".join(json.dumps(row) + "\n" for row in rows))
    outdir = corpus / "smt"
    code, out, err = run(capsys, "export", "--problems", str(manifest), "--outdir", str(outdir))
    assert (code, out) == (1, "")
    assert err == "error: A999999: small program depends on y at top level\n"
    assert not outdir.exists()


@pytest.mark.parametrize("mode", [[], ["--dry-run"]], ids=["write", "dry-run"])
def test_pipeline_rejects_unknown_variant_before_any_work(capsys, corpus, mode):
    outdir = corpus / "out"
    code, out, err = run(
        capsys,
        "pipeline",
        "--stripped", str(corpus / "stripped"),
        "--solutions", str(corpus / "solutions.tsv"),
        "--outdir", str(outdir),
        "--variant", "c99",
        *mode,
    )
    assert code == 1
    assert "error: unknown conjecture variant 'c99'" in err
    assert out == ""
    assert not outdir.exists()


def test_pipeline_dry_run_writes_nothing(capsys, corpus):
    outdir = corpus / "out"
    code, out, _ = run(
        capsys,
        "pipeline",
        "--stripped", str(corpus / "stripped"),
        "--solutions", str(corpus / "solutions.tsv"),
        "--outdir", str(outdir),
        "--dry-run",
    )
    assert code == 0
    assert not outdir.exists()
    lines = out.splitlines()
    assert lines == [
        "solutions: 8",
        "problems: 7",
        "verified: 5",
        "nonverified: 1",
        "refuted: 1",
        "aind_syn: 6",
        "aind_sem: 5",
        "exported: 6",
    ]


def test_pipeline_writes_all_stage_outputs(capsys, corpus):
    outdir = corpus / "out"
    code, out, _ = run(
        capsys,
        "pipeline",
        "--stripped", str(corpus / "stripped"),
        "--solutions", str(corpus / "solutions.tsv"),
        "--outdir", str(outdir),
    )
    assert code == 0
    for name in ("problems.jsonl", "verify_reports.jsonl", "all_nonverified100",
                 "aind_syn", "aind_sem"):
        assert (outdir / name).exists(), name
    smt_files = sorted(p.name for p in (outdir / "base").glob("*.smt2"))
    assert len(smt_files) == 6
    assert "A999999.smt2" not in smt_files


@pytest.mark.parametrize("mode", [[], ["--dry-run"]], ids=["write", "dry-run"])
def test_pipeline_refuses_an_id_too_long_for_a_file_name_before_any_output(
    capsys, corpus, mode
):
    # A second solution for A000217's pair merges into its problem, whose
    # id then spells a 300-digit A-number.
    anum = "A" + "9" * 300
    row = (FIXTURES / "solutions.tsv").read_text().splitlines()[3]
    assert row.startswith("A000217\t")
    with open(corpus / "stripped", "a") as f:
        f.write(f"{anum} ,0,1,3,\n")
    with open(corpus / "solutions.tsv", "a") as f:
        f.write(row.replace("A000217", anum) + "\n")
    outdir = corpus / "out"
    code, out, err = run(
        capsys,
        "pipeline",
        "--stripped", str(corpus / "stripped"),
        "--solutions", str(corpus / "solutions.tsv"),
        "--outdir", str(outdir),
        *mode,
    )
    assert (code, out) == (1, "")
    assert err == f"error: id 'A217-{anum}': its script name is over 255 bytes\n"
    assert not outdir.exists()


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_stage_commands_write_the_same_bytes_as_pipeline(capsys, corpus):
    piped, staged = corpus / "piped", corpus / "staged"
    assert run(
        capsys, "pipeline", "--stripped", str(corpus / "stripped"),
        "--solutions", str(corpus / "solutions.tsv"), "--outdir", str(piped),
    )[0] == 0
    staged.mkdir()
    manifest = str(staged / "problems.jsonl")
    for argv in (
        ["build", "--stripped", str(corpus / "stripped"),
         "--solutions", str(corpus / "solutions.tsv"), "--out", manifest],
        ["verify", "--problems", manifest, "--reports", str(staged / "verify_reports.jsonl"),
         "--nonverified", str(staged / "all_nonverified100")],
        ["filter", "--problems", manifest,
         "--syn", str(staged / "aind_syn"), "--sem", str(staged / "aind_sem")],
        ["export", "--problems", manifest, "--outdir", str(staged / "base")],
    ):
        assert run(capsys, *argv)[0] == 0, argv
    piped_tree = _tree(piped)
    assert sorted(map(str, piped_tree)) == sorted(
        ["problems.jsonl", "verify_reports.jsonl", "all_nonverified100", "aind_syn",
         "aind_sem", "base/index.tsv", "base/variant"]
        + [f"base/{pid}.smt2" for pid in ("A165", "A180713", "A217", "A45-A77373", "A537", "A79")]
    )
    assert _tree(staged) == piped_tree


def test_run_and_report(capsys, corpus, tmp_path):
    outdir = corpus / "out"
    main([
        "pipeline",
        "--stripped", str(corpus / "stripped"),
        "--solutions", str(corpus / "solutions.tsv"),
        "--outdir", str(outdir),
    ])
    capsys.readouterr()

    stub = tmp_path / "stub.sh"
    stub.write_text("#!/bin/sh\necho unsat\n")
    stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
    config = tmp_path / "solvers.json"
    config.write_text('{"solvers": [{"name": "stub", "cmd": "%s {file}"}]}' % stub)
    log = tmp_path / "results.jsonl"

    code, out, _ = run(
        capsys,
        "run",
        "--config", str(config),
        "--dir", str(outdir / "base"),
        "--log", str(log),
        "--jobs", "2",
    )
    assert code == 0
    assert "6 new results" in out

    code, out, _ = run(
        capsys,
        "report",
        "--results", str(log),
        "--index", str(outdir / "base" / "index.tsv"),
        "--syn", str(outdir / "aind_syn"),
        "--sem", str(outdir / "aind_sem"),
        "--nonverified", str(outdir / "all_nonverified100"),
        "--csv", str(tmp_path / "report.csv"),
    )
    assert code == 0
    assert "stub/base" in out
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[1:]}
    assert rows["NoFilt"] == ["6", "6"]
    assert rows["SynFilt"] == ["6", "6"]
    assert rows["SemFilt"] == ["5", "5"]
    assert rows["NonVer"] == ["1", "1"]
    assert (tmp_path / "report.csv").read_text().splitlines()[1] == "NoFilt,6,6"


def test_report_keeps_c2x_and_its_appendix_form_apart(capsys, corpus, tmp_path):
    outdir, log = corpus / "out", tmp_path / "results.jsonl"
    config = _stub_config(tmp_path, "sh -c 'echo unsat' {file}")
    for variant in ("c2x", "c2x-appendix"):
        assert run(capsys, "pipeline", "--stripped", str(corpus / "stripped"),
                   "--solutions", str(corpus / "solutions.tsv"), "--outdir", str(outdir),
                   "--variant", variant)[0] == 0
        assert run(capsys, "run", "--config", str(config), "--dir", str(outdir / variant),
                   "--log", str(log))[0] == 0
    code, out, err = run(
        capsys, "report", "--results", str(log), "--index", str(outdir / "c2x" / "index.tsv"),
        "--syn", str(outdir / "aind_syn"), "--sem", str(outdir / "aind_sem"),
        "--nonverified", str(outdir / "all_nonverified100"),
    )
    assert (code, err) == (0, "")
    assert [line.split() for line in out.splitlines()] == [
        ["stub/c2x", "stub/c2x-appendix", "All"],
        ["NoFilt", "6", "6", "6"],
        ["SynFilt", "6", "6", "6"],
        ["SemFilt", "5", "5", "5"],
        ["NonVer", "1", "1", "1"],
    ]


def test_report_lists_anomalies_of_its_index_only_and_once(capsys, tmp_path):
    _export(tmp_path, rows=(("A1", "A1.smt2", ""), ("A2", "A2.smt2", "")))
    for name, text in (("syn", ""), ("sem", ""), ("nonver", "A2\n")):
        (tmp_path / name).write_text(text)
    log = tmp_path / "results.jsonl"

    def report(*rows):
        log.write_text("".join(
            f'{{"id": "{pid}", "solver": "z3", "variant": "base", "verdict": "{verdict}", '
            f'"wall_time": 0.1}}\n'
            for pid, verdict in rows
        ))
        return run(
            capsys, "report", "--results", str(log), "--index", str(tmp_path / "index.tsv"),
            "--syn", str(tmp_path / "syn"), "--sem", str(tmp_path / "sem"),
            "--nonverified", str(tmp_path / "nonver"),
        )

    # A log reused across exports of different manifests holds a
    # countersat for A999, which this report's index does not list.
    code, out, err = report(("A1", "proved"), ("A2", "countersat"), ("A999", "countersat"))
    assert (code, err) == (0, "")
    assert [line.split() for line in out.splitlines()] == [
        ["z3/base", "All"],
        ["NoFilt", "1", "1"],
        ["SynFilt", "0", "0"],
        ["SemFilt", "0", "0"],
        ["NonVer", "0", "0"],
    ]
    # A countersat on a verified problem of the index is said once, in
    # the table.
    code, out, err = report(("A1", "countersat"))
    assert (code, err) == (0, "")
    assert out.splitlines()[-2:] == [
        "anomalies: 1 countersat on verified problems",
        "  A1 by z3/base",
    ]


def test_entry_point_is_installed():
    import subprocess

    proc = subprocess.run(
        ["loopbench", "seq", "loop(x + y, x, 0)", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0 1 3 6 10\n"


def test_module_runs_as_a_script():
    import os
    import subprocess
    import sys

    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "loopbench.cli", *argv], capture_output=True, text=True, env=env
        )

    proc = module("seq", "loop(x + y, x, 0)", "5")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 1 3 6 10\n", "")
    proc = module("eval", "x div 0", "1", "0")
    assert proc.returncode == 1 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


@pytest.mark.parametrize("command", ["verify", "filter", "export"])
@pytest.mark.parametrize("row", ["{}", '{"id": "A1", "anum": "A1"}', "[1, 2]"])
def test_bad_manifest_row_is_an_error_not_a_traceback(capsys, tmp_path, command, row):
    manifest = tmp_path / "problems.jsonl"
    manifest.write_text(row + "\n")
    outputs = {
        "verify": [],
        "filter": ["--syn", str(tmp_path / "syn.txt"), "--sem", str(tmp_path / "sem.txt")],
        "export": ["--outdir", str(tmp_path / "out")],
    }
    code, out, err = run(capsys, command, "--problems", str(manifest), *outputs[command])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {manifest}:1: ")
    assert manifest.read_text() == row + "\n"
    assert sorted(tmp_path.iterdir()) == [manifest]


@pytest.mark.parametrize("command", ["verify", "filter", "export"])
def test_repeated_manifest_id_is_an_error_and_nothing_is_written(capsys, corpus, command):
    manifest = _built(capsys, corpus)
    first = manifest.read_text().splitlines()[0]
    assert json.loads(first)["id"] == "A165"
    manifest.write_text(manifest.read_text() + first + "\n")
    before = manifest.read_text()
    outputs = {
        "verify": ["--reports", str(corpus / "r"), "--nonverified", str(corpus / "n")],
        "filter": ["--syn", str(corpus / "syn"), "--sem", str(corpus / "sem")],
        "export": ["--outdir", str(corpus / "out")],
    }
    code, out, err = run(capsys, command, "--problems", str(manifest), *outputs[command])
    assert (code, out) == (1, "")
    assert err == f"error: {manifest}:8: repeated id 'A165' (first on line 1)\n"
    assert manifest.read_text() == before
    assert sorted(p.name for p in corpus.iterdir()) == [
        "problems.jsonl", "solutions.tsv", "stripped"
    ]


@pytest.mark.parametrize("command", ["build", "cover", "pipeline"])
def test_repeated_anum_in_the_stripped_file_is_an_error(capsys, corpus, command):
    stripped = corpus / "stripped"
    lines = stripped.read_text().splitlines()
    assert lines[1].startswith("A000045 ")
    stripped.write_text("".join(line + "\n" for line in lines) + "A000045 ,1,2,3,\n")
    before = stripped.read_text()
    args = {
        "build": ["--solutions", str(corpus / "solutions.tsv"), "--out", str(corpus / "p.jsonl")],
        "cover": ["loop(x + y, x, 0)", "--anum", "A000045"],
        "pipeline": ["--solutions", str(corpus / "solutions.tsv"), "--outdir", str(corpus / "out")],
    }
    code, out, err = run(capsys, command, "--stripped", str(stripped), *args[command])
    assert (code, out) == (1, "")
    line = len(lines) + 1
    assert err == f"error: {stripped}:{line}: repeated A-number 'A000045' (first on line 2)\n"
    assert stripped.read_text() == before
    assert sorted(p.name for p in corpus.iterdir()) == ["solutions.tsv", "stripped"]


@pytest.mark.parametrize("command", ["build", "pipeline"])
def test_repeated_anum_in_the_solutions_file_is_an_error(capsys, corpus, command):
    # Keeping either row would drop the other's solution from the benchmark.
    solutions = corpus / "solutions.tsv"
    lines = solutions.read_text().splitlines()
    anum = lines[0].split("\t")[0]
    solutions.write_text("".join(line + "\n" for line in lines) + f"{anum}\tx\tx + 0\n")
    before = solutions.read_text()
    output = {
        "build": ["--out", str(corpus / "p.jsonl")],
        "pipeline": ["--outdir", str(corpus / "out")],
    }
    code, out, err = run(
        capsys, command, "--stripped", str(corpus / "stripped"), "--solutions", str(solutions),
        *output[command],
    )
    assert (code, out) == (1, "")
    line = len(lines) + 1
    assert err == f"error: {solutions}:{line}: repeated A-number {anum!r} (first on line 1)\n"
    assert solutions.read_text() == before
    assert sorted(p.name for p in corpus.iterdir()) == ["solutions.tsv", "stripped"]


@pytest.mark.parametrize("command", ["verify", "filter", "export"])
@pytest.mark.parametrize("pid", ["../escaped", "a/b", "A1\tx", ".."])
def test_manifest_id_must_be_a_plain_file_name(capsys, corpus, command, pid):
    # The id names the exported script: "../escaped" would be written
    # beside the outdir, and a tab would break index.tsv.
    manifest = _built(capsys, corpus)
    rows = manifest.read_text().splitlines()
    rows[0] = json.dumps({**json.loads(rows[0]), "id": pid})
    manifest.write_text("".join(row + "\n" for row in rows))
    before = manifest.read_text()
    outputs = {
        "verify": ["--reports", str(corpus / "r"), "--nonverified", str(corpus / "n")],
        "filter": ["--syn", str(corpus / "syn"), "--sem", str(corpus / "sem")],
        "export": ["--outdir", str(corpus / "out" / "base")],
    }
    code, out, err = run(capsys, command, "--problems", str(manifest), *outputs[command])
    assert (code, out) == (1, "")
    assert err == f"error: {manifest}:1: field 'id' must be a plain file name, got {pid!r}\n"
    assert manifest.read_text() == before
    assert sorted(p.name for p in corpus.iterdir()) == [
        "problems.jsonl", "solutions.tsv", "stripped"
    ]


def _log_readers(tmp_path, log):
    """argv of `run` and `report` over a one-script export and this log."""
    _export(tmp_path)
    config = tmp_path / "solvers.json"
    config.write_text('{"solvers": [{"name": "stub", "cmd": "echo unsat {file}"}]}')
    return {
        "run": ["--config", str(config), "--dir", str(tmp_path), "--log", str(log)],
        "report": ["--results", str(log), "--index", str(tmp_path / "index.tsv"),
                   "--syn", "s", "--sem", "t", "--nonverified", "n"],
    }


@pytest.mark.parametrize("command", ["run", "report"])
@pytest.mark.parametrize("row", ["{}", "[1, 2]"])
def test_bad_results_log_row_is_an_error_not_a_traceback(capsys, tmp_path, command, row):
    log = tmp_path / "results.jsonl"
    good = '{"id": "A0", "solver": "stub", "variant": "base", "verdict": "proved", "wall_time": 0.1}'
    log.write_text(good + "\n" + row + "\n")
    code, out, err = run(capsys, command, *_log_readers(tmp_path, log)[command])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {log}:2: ")
    assert log.read_text() == good + "\n" + row + "\n"


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "command", ["verify", "filter", "export", "run-config", "run-log", "run-torn-log", "report"]
)
def test_too_deeply_nested_json_is_an_error_not_a_traceback(capsys, tmp_path, command):
    log = tmp_path / "results.jsonl"
    if command in ("verify", "filter", "export"):
        bad = tmp_path / "problems.jsonl"
        bad.write_text(DEEP + "\n")
        argv = [command, "--problems", str(bad), *{
            "verify": ["--reports", str(tmp_path / "r"), "--nonverified", str(tmp_path / "n")],
            "filter": ["--syn", str(tmp_path / "syn"), "--sem", str(tmp_path / "sem")],
            "export": ["--outdir", str(tmp_path / "out")],
        }[command]]
    elif command == "run-config":
        _export(tmp_path / "smt2")
        bad = tmp_path / "solvers.json"
        bad.write_text('{"solvers": ' + DEEP + "}")
        argv = ["run", "--config", str(bad), "--dir", str(tmp_path / "smt2"), "--log", str(log)]
    else:
        # A deep last line with no newline is not taken for a torn write.
        bad, reader = log, command.split("-")[0]
        log.write_text(DEEP + ("" if command == "run-torn-log" else "\n"))
        argv = [reader, *_log_readers(tmp_path, log)[reader]]
    before = sorted(tmp_path.rglob("*")), bad.read_text()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {bad}") and err.count("\n") == 1, err
    assert "maximum recursion depth exceeded" in err
    assert (sorted(tmp_path.rglob("*")), bad.read_text()) == before


def test_an_interrupted_run_starts_no_queued_call_and_a_rerun_resumes(
    capsys, monkeypatch, tmp_path
):
    smt2 = _export(tmp_path / "smt2", [(f"A{i}", f"A{i}.smt2", "") for i in range(6)])
    log = tmp_path / "results.jsonl"
    config = _stub_config(tmp_path, "sh -c 'echo unsat' {file}")
    argv = ["run", "--config", str(config), "--dir", str(smt2), "--log", str(log), "--jobs", "1"]
    calls = []

    def interrupted_on_call_2(spec, file):
        calls.append(file)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return harness.Verdict.PROVED, 0.0

    real = harness.run_solver
    monkeypatch.setattr(harness, "run_solver", interrupted_on_call_2)
    try:
        outcome = run(capsys, *argv)
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped main")
    assert outcome == (130, "", "error: interrupted; a rerun resumes\n")
    assert len(calls) == 2
    assert len(log.read_text().splitlines()) == 1

    monkeypatch.setattr(harness, "run_solver", real)
    assert run(capsys, *argv) == (0, f"5 new results -> {log}\n", "")
    ids = [json.loads(line)["id"] for line in log.read_text().splitlines()]
    assert sorted(ids) == [f"A{i}" for i in range(6)]


@pytest.mark.parametrize("command", ["run", "report"])
def test_results_log_that_is_not_utf8_is_an_error_naming_it(capsys, tmp_path, command):
    log = tmp_path / "results.jsonl"
    log.write_bytes(b"\xff\n")
    code, out, err = run(capsys, command, *_log_readers(tmp_path, log)[command])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {log}: 'utf-8' codec can't decode byte 0xff in position 0")
    assert log.read_bytes() == b"\xff\n"


# argv of a command that reads the file {bad} with the reader named.
_UTF8_READERS = {
    "load_stripped": ["cover", "x", "--anum", "A1", "--stripped", "{bad}"],
    "load_solutions": ["build", "--stripped", "{stripped}", "--solutions", "{bad}",
                       "--out", "{tmp}/problems.jsonl"],
    "load_problems": ["verify", "--problems", "{bad}"],
    "read_index": ["report", "--results", "{empty}", "--index", "{bad}",
                   "--syn", "{empty}", "--sem", "{empty}", "--nonverified", "{empty}"],
    "read_manifest": ["report", "--results", "{empty}", "--index", "{empty}",
                      "--syn", "{empty}", "--sem", "{empty}", "--nonverified", "{bad}"],
    "load_results": ["report", "--results", "{bad}", "--index", "{empty}",
                     "--syn", "{empty}", "--sem", "{empty}", "--nonverified", "{empty}"],
}


@pytest.mark.parametrize("reader", list(_UTF8_READERS))
def test_a_file_that_is_not_utf8_is_an_error_naming_it(capsys, tmp_path, reader):
    bad, empty = tmp_path / "bad", tmp_path / "empty"
    bad.write_bytes(b"A1\t\xff\n")
    empty.write_text("")
    names = {"bad": bad, "empty": empty, "stripped": FIXTURES / "stripped", "tmp": tmp_path}
    code, out, err = run(capsys, *(arg.format(**names) for arg in _UTF8_READERS[reader]))
    assert (code, out) == (1, "")
    assert err == f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 3: invalid start byte\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad", "empty"]
