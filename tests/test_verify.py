import json

import pytest

from conftest import record_evaluate
from loopbench import verify
from loopbench.interp import EvalConfig
from loopbench.lang import parse
from loopbench.oeis import ProblemRecord
from loopbench.verify import (
    NONVERIFIED,
    REFUTED,
    VERIFIED,
    VerifyReport,
    emit_nonverified,
    report_to_json,
    save_reports,
    verify100,
    verify_all,
)


def test_fixture_statuses(problems):
    reports = {r.problem_id: r for r in verify_all(problems)}
    assert reports["A217"].status == VERIFIED
    assert reports["A537"].status == VERIFIED
    assert reports["A79"].status == VERIFIED
    assert reports["A45-A77373"].status == VERIFIED
    assert reports["A180713"].status == VERIFIED
    assert reports["A165"].status == NONVERIFIED
    assert reports["A999999"].status == REFUTED
    assert all(p.status == reports[p.id].status for p in problems)


def test_double_factorial_times_out_at_81(problems_by_id):
    report = verify100(problems_by_id["A165"])
    assert report.status == NONVERIFIED
    assert report.checked_upto == 81
    assert report.failure == (81, "timeout")


def test_refuted_at_first_mismatch(problems_by_id):
    report = verify100(problems_by_id["A999999"])
    assert report.status == REFUTED
    assert report.checked_upto == 2
    assert report.failure == (2, "2 != 4")


def test_verified_report_shape(problems_by_id):
    report = verify100(problems_by_id["A217"])
    assert report == VerifyReport("A217", VERIFIED, 100)


def test_long_sequences_are_verified_by_their_terms():
    # With 100 known terms both programs already matched them all during
    # coverage, so no evaluation happens; a would-be mismatch is moot.
    pr = ProblemRecord("A1", ["A000001"], list(range(100)), parse("x"), parse("x * x"))
    assert verify100(pr) == VerifyReport("A1", VERIFIED, 100)
    pr_short = ProblemRecord("A1", ["A000001"], list(range(99)), parse("x"), parse("x * x"))
    assert verify100(pr_short).status == REFUTED


def test_budget_is_fresh_per_call():
    # The looping side needs 18 units at x=4; surplus from cheap earlier
    # calls must not carry over, unlike sequence generation.
    pr = ProblemRecord(
        "A1", ["A000001"], [], parse("loop(x + y, x, 0)"), parse("((x * x) + x) div 2")
    )
    cfg = EvalConfig(per_call_limit=17)
    report = verify100(pr, cfg)
    assert report.status == NONVERIFIED
    assert report.failure == (4, "timeout")


def test_small_side_runs_first():
    pr = ProblemRecord("A1", ["A000001"], [], parse("1 div 0"), parse("1 div 0"))
    report = verify100(pr)
    assert report.status == NONVERIFIED
    assert report.failure == (0, "div_by_zero")


@pytest.mark.parametrize(
    "small, fast, calls",
    [
        ("loop(x + y, x, 0)", "((x * x) + x) div 2", 200),
        ("x * x", "x + x", 2 * 2),  # refuted at x = 1
        # x at every x but 2, where the divisor is 0.
        ("(x * (x - 2)) div (x - 2)", "x", 2 * 2 + 1),
        ("x", "(x * (x - 2)) div (x - 2)", 2 * 3),
    ],
)
def test_verify100_calls_evaluate_once_per_side_and_point(monkeypatch, small, fast, calls):
    recorded = record_evaluate(monkeypatch, verify)
    pr = ProblemRecord("A1", ["A000001"], [], parse(small), parse(fast))
    cfg = EvalConfig(per_call_limit=1_000)
    verify100(pr, cfg)
    points = [(side, x, 0, 1_000) for x in range(100) for side in (pr.small, pr.fast)]
    assert [call[:4] for call in recorded] == points[:calls]


def test_emit_nonverified(tmp_path, problems):
    reports = verify_all(problems)
    out = tmp_path / "all_nonverified100"
    ids = emit_nonverified(reports, out)
    assert ids == ["A165"]
    assert out.read_text() == "A165\n"


def test_report_json():
    plain = json.loads(report_to_json(VerifyReport("A1", VERIFIED, 100)))
    assert plain == {"id": "A1", "status": "verified", "checked_upto": 100}
    failed = json.loads(report_to_json(VerifyReport("A1", REFUTED, 3, (3, "1 != 2"))))
    assert failed["failure_index"] == 3
    assert failed["failure_detail"] == "1 != 2"


def test_save_reports(tmp_path):
    path = tmp_path / "reports.jsonl"
    save_reports([VerifyReport("A1", VERIFIED, 100), VerifyReport("A2", NONVERIFIED, 5, (5, "timeout"))], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1])["status"] == "nonverified"
