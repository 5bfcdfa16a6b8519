import inspect
import json
import shutil
import stat

import pytest

from conftest import FIXTURES
from loopbench import cli, harness, induction, oeis, verify
from loopbench.cli import main
from loopbench.interp import EvalConfig


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
    assert run(capsys, "seq", "x", "0") == (0, "", "")


def test_seq_reports_errors(capsys):
    code, out, err = run(capsys, "seq", "1 div (x - 2)", "5")
    assert code == 1
    assert out == "-1 -1\n"
    assert "div_by_zero at index 2" in err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "2", "0", "0")
    assert code == 0
    assert out == "2 (cost 1)\n"
    code, out, _ = run(capsys, "eval", "loop2(x + y, x, x, 0, 1)", "6", "0")
    assert out == "8 (cost 32)\n"


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


def test_run_takes_each_script_from_the_index(capsys, tmp_path):
    # The index names the file; the solver reads it and finds its verdict.
    _export(tmp_path, [("A1", "renamed.smt2", "unsat\n")])
    config = tmp_path / "solvers.json"
    config.write_text(json.dumps({"solvers": [{"name": "cat", "cmd": "cat {file}"}]}))
    log = tmp_path / "l.jsonl"
    code, out, _ = run(capsys, "run", "--config", str(config), "--dir", str(tmp_path), "--log", str(log))
    assert (code, out) == (0, f"1 new results -> {log}\n")
    assert json.loads(log.read_text())["verdict"] == "proved"


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


def test_fmt(capsys):
    code, out, _ = run(capsys, "fmt", "loop2(x+y,x,x,0,1)")
    assert out == "loop2(x + y, x, x, 0, 1)\n"
    code, out, _ = run(capsys, "fmt", "cond(x, 1, 2)")
    assert out == "cond(x, 1, 2)\n"
    code, out, _ = run(capsys, "fmt", "--if-cond", "cond(x, 1, 2)")
    assert out == "if x <= 0 then 1 else 2\n"


def test_cover(capsys, corpus):
    stripped = str(corpus / "stripped")
    code, out, _ = run(
        capsys, "cover", "loop(x + y, x, 0)", "--anum", "A000217", "--stripped", stripped
    )
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "cover", "x", "--anum", "A000217", "--stripped", stripped)
    assert (code, out) == (1, "false\n")


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


