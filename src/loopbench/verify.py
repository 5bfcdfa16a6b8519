"""Equality verification of problem pairs on the first 100 inputs."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .interp import Budget, ErrorKind, EvalConfig, VERIFY_CONFIG, evaluate
from .oeis import ProblemRecord

VERIFIED = "verified"
NONVERIFIED = "nonverified"
REFUTED = "refuted"


@dataclass(frozen=True)
class VerifyReport:
    problem_id: str
    status: str
    checked_upto: int
    # (index, detail): detail is the error kind for NonVerified, or
    # "small_value != fast_value" for Refuted.
    failure: tuple[int, str] | None = None


def verify100(problem: ProblemRecord, cfg: EvalConfig = VERIFY_CONFIG) -> VerifyReport:
    """Check small = fast on x = 0..99.

    A problem whose sequence already lists 100 or more terms was checked
    term-by-term during coverage, so it is verified outright.  Otherwise
    both sides are evaluated at each index, small first, each call
    against a fresh budget.  The first value mismatch refutes the
    problem; an execution error before any mismatch leaves it
    non-verified (the errored index counts as unchecked).
    """
    if len(problem.terms) >= 100:
        return VerifyReport(problem.id, VERIFIED, 100)

    limit = cfg.per_call_limit
    budget = Budget(0)
    for i in range(100):
        budget.remaining = limit
        small_out = evaluate(problem.small, i, 0, budget, cfg)
        if small_out.error is not None:
            return VerifyReport(problem.id, NONVERIFIED, i, (i, small_out.error.value))
        budget.remaining = limit
        fast_out = evaluate(problem.fast, i, 0, budget, cfg)
        if fast_out.error is not None:
            return VerifyReport(problem.id, NONVERIFIED, i, (i, fast_out.error.value))
        if small_out.value != fast_out.value:
            return VerifyReport(
                problem.id, REFUTED, i, (i, f"{small_out.value} != {fast_out.value}")
            )
    return VerifyReport(problem.id, VERIFIED, 100)


def verify_all(
    problems: list[ProblemRecord], cfg: EvalConfig = VERIFY_CONFIG
) -> list[VerifyReport]:
    """verify100 over a manifest, updating each problem's status in place."""
    reports = []
    for problem in problems:
        report = verify100(problem, cfg)
        problem.status = report.status
        reports.append(report)
    return reports


def emit_nonverified(reports: list[VerifyReport], path: str | Path) -> list[str]:
    """Write the sorted ids of non-verified problems, one per line."""
    ids = sorted(r.problem_id for r in reports if r.status == NONVERIFIED)
    Path(path).write_text("".join(i + "\n" for i in ids))
    return ids


def report_to_json(report: VerifyReport) -> str:
    d = {
        "id": report.problem_id,
        "status": report.status,
        "checked_upto": report.checked_upto,
    }
    if report.failure is not None:
        d["failure_index"] = report.failure[0]
        d["failure_detail"] = report.failure[1]
    return json.dumps(d)


def save_reports(reports: list[VerifyReport], path: str | Path) -> None:
    Path(path).write_text("".join(report_to_json(r) + "\n" for r in reports))
