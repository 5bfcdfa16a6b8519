"""Tests of the benchmark itself: corpus, expectations, checks, tracer.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen_corpus
import spans
import workloads
from kernels import KERNELS
from oracles import ref_eval
from run import prepare_inputs

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
CORPUS = BENCH / "corpus"
EXPECTED = BENCH / "expected"


def _pass(workload: str, tmp: Path, seed: int = 7):
    inputs = tmp / "input"
    prepare_inputs(workload, seed, inputs)
    scratch = tmp / "scratch"
    scratch.mkdir()
    wl = workloads.WORKLOADS[workload](inputs, scratch)
    wl.setup(None)
    try:
        result = wl.run(scratch / "out")
    finally:
        wl.cleanup()
    return wl, result, scratch / "out"


def _tally(wl, result, outdir) -> workloads.Tally:
    tally = workloads.Tally()
    wl.check(result, outdir, tally)
    return tally


@pytest.fixture(scope="module")
def pipeline_pass(tmp_path_factory):
    return _pass("pipeline_corpus", tmp_path_factory.mktemp("pipeline"))


@pytest.fixture(scope="module")
def export_pass(tmp_path_factory):
    return _pass("export_campaign", tmp_path_factory.mktemp("export"))


def test_same_seed_gives_the_committed_corpus_byte_for_byte():
    names = ("stripped", "solutions.tsv", "intended.tsv")
    for name, text in zip(names, gen_corpus.generate(gen_corpus.SEED)):
        assert text == (CORPUS / name).read_text(), name


def test_seeded_inputs_repeat_and_only_permute(tmp_path):
    for workload in workloads.WORKLOADS:
        prepare_inputs(workload, 3, tmp_path / workload / "a")
        prepare_inputs(workload, 3, tmp_path / workload / "b")
        prepare_inputs(workload, 4, tmp_path / workload / "c")
        for path in (tmp_path / workload / "a").iterdir():
            same = (tmp_path / workload / "b" / path.name).read_bytes()
            other = (tmp_path / workload / "c" / path.name).read_bytes()
            assert path.read_bytes() == same
            assert sorted(path.read_bytes().splitlines()) == sorted(other.splitlines()) or (
                sorted(json.loads(path.read_text())) == sorted(json.loads(other))
            )


def test_corpus_has_every_status_as_intended():
    intended = {}
    for line in (CORPUS / "intended.tsv").read_text().splitlines():
        anum, _, status = line.split("\t")
        intended[anum] = status
    statuses = set()
    for line in (EXPECTED / "problems.jsonl").read_text().splitlines():
        row = json.loads(line)
        assert {intended[a] for a in row["anums"]} == {row["status"]}, row["id"]
        statuses.add(row["status"])
    assert statuses == {"verified", "nonverified", "refuted"}


def test_kernel_values_are_the_reference_values():
    want = json.loads((EXPECTED / "kernels.json").read_text())
    for name, (text, points, terms) in KERNELS.items():
        program = workloads.loopbench.parse(text)
        for style, xs in (("single", list(points)), ("carried", range(terms))):
            for x, (value, _, error) in zip(xs, want[name][style]):
                if error is None:
                    assert value == ref_eval(program, x, 0, cap=10**7), (name, style, x)
    errors = [row[2] for styles in want.values() for rows in styles.values() for row in rows]
    assert "timeout" in errors


def test_pipeline_outputs_match_the_expectations(pipeline_pass):
    tally = _tally(*pipeline_pass)
    assert tally.attempted == pipeline_pass[0].operations()
    assert (tally.failed, tally.mismatches) == (0, [])


def test_export_campaign_outputs_match_the_expectations(export_pass):
    wl, result, outdir = export_pass
    tally = _tally(wl, result, outdir)
    assert tally.attempted == wl.operations()
    assert (tally.failed, tally.mismatches) == (0, [])
    verdicts = {r.verdict.value for r in result[0]}
    assert verdicts == {"proved", "countersat", "unknown", "timeout", "error"}


def test_stub_child_outliving_the_timeout_is_counted_and_stopped(export_pass):
    wl = export_pass[0]
    assert wl.leftover == 1
    assert workloads.alive_stub_children(wl.piddir) == []


def test_eval_kernel_outputs_match_the_expectations(tmp_path):
    wl, result, outdir = _pass("eval_kernels", tmp_path)
    tally = _tally(wl, result, outdir)
    assert tally.attempted == wl.operations()
    assert (tally.failed, tally.mismatches) == (0, [])


def test_planted_wrong_status_is_counted(pipeline_pass, tmp_path):
    wl, result, outdir = pipeline_pass
    planted = tmp_path / "out"
    shutil.copytree(outdir, planted)
    rows = [json.loads(line) for line in (planted / "problems.jsonl").read_text().splitlines()]
    rows[0]["status"] = "verified" if rows[0]["status"] != "verified" else "refuted"
    (planted / "problems.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    stdout = result[1].replace(str(outdir), str(planted))
    tally = _tally(wl, (result[0], stdout), planted)
    assert tally.failed == 1
    assert rows[0]["id"] in tally.mismatches[0]


def test_planted_wrong_script_digest_is_counted(export_pass, tmp_path):
    wl, result, outdir = export_pass
    planted = tmp_path / "out"
    shutil.copytree(outdir, planted)
    script = sorted((planted / "c3").glob("*.smt2"))[0]
    script.write_text(script.read_text().replace("(check-sat)", "(check-sat)\n(exit)"))
    tally = _tally(wl, result, planted)
    assert tally.failed == 1
    assert script.name in tally.mismatches[0]


def _bench_copy(tmp_path: Path) -> Path:
    copy = tmp_path / "checkout"
    shutil.copytree(BENCH, copy / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    return copy


def test_planted_wrong_cost_fails_the_run(tmp_path):
    copy = _bench_copy(tmp_path)
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    kernels = json.loads((copy / "bench/expected/kernels.json").read_text())
    kernels["loop_add"]["single"][5][1] += 1
    (copy / "bench/expected/kernels.json").write_text(json.dumps(kernels))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eval_kernels", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=copy, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    samples = int(proc.stdout.split("samples=")[1].split()[0])
    assert result["correct"] is False
    assert result["failed"] == samples
    assert "loop_add single #5" in proc.stderr


def test_run_fails_without_the_sources(tmp_path):
    copy = _bench_copy(tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline_corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=copy, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_the_covered_part_of_child_spans():
    tracer = spans.Tracer()
    outer = spans.Span(1, "verify.verify_all", tracer.root)
    outer.start, outer.end = 0.0, 10.0
    a = spans.Span(2, "verify.verify100", outer)
    a.start, a.end = 1.0, 4.0
    b = spans.Span(3, "verify.verify100", outer)
    b.start, b.end = 3.0, 6.0  # overlaps a: together they cover 1..6
    tracer.spans = [a, b, outer]
    assert spans._covered([(a.start, a.end), (b.start, b.end)]) == 5.0
    metrics = spans.layer_metrics(tracer, ())
    assert metrics["verify.s"] == 10.0
    assert metrics["verify.problem_p50_ms"] == 3000.0


def test_tracer_counts_evaluate_per_caller_and_restores_the_originals():
    from loopbench import interp, verify

    original = interp.evaluate
    tracer = spans.Tracer()
    undo = spans.instrument(tracer)
    try:
        problem = workloads.oeis.ProblemRecord(
            "A1", ["A000001"], [0, 1], workloads.loopbench.parse("x"), workloads.loopbench.parse("x * 1")
        )
        verify.verify_all([problem])
    finally:
        spans.uninstrument(undo)
    assert interp.evaluate is original and verify.evaluate is original
    counts = spans.unit_counts(tracer)
    assert counts["interp.calls"] == 200
    assert counts["units.verify"] == counts["interp.units"] == 100 * (1 + 3)
    assert spans.layer_metrics(tracer, ())["verify.verified"] == 1
