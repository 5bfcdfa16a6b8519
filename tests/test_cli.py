import shutil
import stat

import pytest

from conftest import FIXTURES
from loopbench.cli import main
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


def test_seq(capsys):
    code, out, err = run(capsys, "seq", "loop(x + y, x, 0)", "5")
    assert code == 0
    assert out == "0 1 3 6 10\n"


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


def test_eval_error_exit(capsys):
    code, out, err = run(capsys, "eval", "1 div 0", "0", "0")
    assert code == 1
    assert "div_by_zero" in err


def test_eval_respects_limit_flag(capsys):
    code, _, err = run(capsys, "eval", "--limit", "5", "loop(x + y, x, 0)", "9", "0")
    assert code == 1
    assert "timeout" in err


def test_limit_env_override(capsys, monkeypatch):
    monkeypatch.setenv("LOOPBENCH_LIMIT", "5")
    code, _, err = run(capsys, "eval", "loop(x + y, x, 0)", "9", "0")
    assert code == 1
    assert "timeout" in err
    # An explicit flag still wins over the environment.
    code, out, _ = run(capsys, "eval", "--limit", "100000", "loop(x + y, x, 0)", "9", "0")
    assert code == 0


def test_malformed_env_value_is_an_error_of_the_subcommands_taking_it(capsys, monkeypatch):
    monkeypatch.setenv("LOOPBENCH_LIMIT", "abc")
    code, out, err = run(capsys, "eval", "x", "1", "0")
    assert code == 1
    assert out == ""
    assert err == "error: LOOPBENCH_LIMIT must be an integer, got 'abc'\n"
    # An explicit flag does not read the variable.
    assert run(capsys, "eval", "--limit", "9", "x", "1", "0")[:2] == (0, "1 (cost 1)\n")
    monkeypatch.setenv("LOOPBENCH_JOBS", "1.5")
    assert run(capsys, "fmt", "x") == (0, "x\n", "")
    code, _, err = run(capsys, "run", "--config", "c.json", "--dir", ".", "--log", "l.jsonl")
    assert code == 1
    assert err == "error: LOOPBENCH_JOBS must be an integer, got '1.5'\n"
    monkeypatch.delenv("LOOPBENCH_LIMIT")
    monkeypatch.setenv("LOOPBENCH_FILTER_MODE", "bogus")
    code, _, err = run(capsys, "filter", "--problems", "p.jsonl", "--syn", "s", "--sem", "t")
    assert code == 1
    assert err.startswith("error: LOOPBENCH_FILTER_MODE must be one of")


def test_run_rejects_a_malformed_solver_config(capsys, tmp_path):
    config = tmp_path / "solvers.json"
    config.write_text('{"solvers": [{"name": "z3"}]}')
    code, _, err = run(
        capsys, "run", "--config", str(config), "--dir", str(tmp_path), "--log", str(tmp_path / "l")
    )
    assert code == 1
    assert err == f"error: {config}: solver 0: missing field 'cmd'\n"
    assert not (tmp_path / "l").exists()


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
        "--variant", "base",
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
        "--out", str(tmp_path / "report.txt"),
        "--csv", str(tmp_path / "report.csv"),
    )
    assert code == 0
    assert "stub/base" in out
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[1:]}
    assert rows["NoFilt"] == ["6", "6"]
    assert rows["SynFilt"] == ["6", "6"]
    assert rows["SemFilt"] == ["5", "5"]
    assert rows["NonVer"] == ["1", "1"]
    assert (tmp_path / "report.txt").read_text() == out
    assert (tmp_path / "report.csv").read_text().splitlines()[1] == "NoFilt,6,6"


def test_entry_point_is_installed():
    import subprocess

    proc = subprocess.run(
        ["loopbench", "seq", "loop(x + y, x, 0)", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0 1 3 6 10\n"


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
