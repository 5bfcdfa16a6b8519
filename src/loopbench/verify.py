"""Equality verification of problem pairs on the first 100 inputs."""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .induction import write_manifest
from .interp import Budget, EvalConfig, VERIFY_CONFIG, evaluate
from .oeis import NONVERIFIED, REFUTED, VERIFIED, ProblemRecord


class VerifyReport(NamedTuple):
    problem_id: str
    status: str
    checked_upto: int
    # (index, detail): detail is the error kind for NonVerified, or
    # "small_value != fast_value" for Refuted.
    failure: tuple[int, str] | None = None


def verify100(problem: ProblemRecord, cfg: EvalConfig = VERIFY_CONFIG) -> VerifyReport:
    """Check small = fast on x = 0..99.

    Both sides are evaluated at each index, small first, each call
    against a fresh budget, however many terms the problem's sequence
    lists.  The first value mismatch refutes the problem; an execution
    error before any mismatch leaves it non-verified (the errored index
    counts as unchecked).  It evaluates copies of both sides, so the
    evaluator state of their runs goes when it returns.
    """
    small, fast = problem.small._replace(), problem.fast._replace()
    limit = cfg.per_call_limit
    budget = Budget(0)
    for i in range(100):
        budget.remaining = limit
        small_out = evaluate(small, i, 0, budget, cfg)
        if small_out.error is not None:
            return VerifyReport(problem.id, NONVERIFIED, i, (i, small_out.error.value))
        budget.remaining = limit
        fast_out = evaluate(fast, i, 0, budget, cfg)
        if fast_out.error is not None:
            return VerifyReport(problem.id, NONVERIFIED, i, (i, fast_out.error.value))
        if small_out.value != fast_out.value:
            return VerifyReport(
                problem.id, REFUTED, i, (i, f"{small_out.value} != {fast_out.value}")
            )
    return VerifyReport(problem.id, VERIFIED, 100)


def verify_all(
    problems: list[ProblemRecord], cfg: EvalConfig = VERIFY_CONFIG
) -> tuple[list[ProblemRecord], list[VerifyReport]]:
    """verify100 over a manifest: copies of the problems carrying their
    new status, and the reports, both in manifest order.  The given
    records are left as they are, their programs' evaluator state
    included."""
    reports = [verify100(problem, cfg) for problem in problems]
    verified = [p._replace(status=r.status) for p, r in zip(problems, reports)]
    return verified, reports


def emit_nonverified(reports: list[VerifyReport], path: str | Path) -> list[str]:
    """Write the sorted ids of non-verified problems as a manifest."""
    ids = sorted(r.problem_id for r in reports if r.status == NONVERIFIED)
    write_manifest(ids, path)
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
