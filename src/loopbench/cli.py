"""Command-line interface for the benchmark pipeline.

Subcommands cover the whole flow: fmt/eval/seq for single programs,
cover/build/verify/filter/export for benchmark construction, run/report
for the solver harness, and pipeline to compose build through export.
Every command evaluates under the budgets of the README's cost model:
interp.DEFAULT_CONFIG for checking and filtering, interp.VERIFY_CONFIG
for verification.  Other per-call limits go through the Python API, as
an EvalConfig passed to the library functions these commands call; the
value bound and the big-value threshold are constants of the cost model.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from . import harness, induction, oeis, smt, verify as verify_mod
from .interp import evaluate, generate_seq
from .lang import parse, to_text


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="loopbench")
    subs = top.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fmt", help="parse a program and print it canonically")
    p.add_argument("program")
    p.add_argument(
        "--if-cond",
        action="store_true",
        help="print conditionals as 'if a <= 0 then b else c'",
    )

    p = subs.add_parser("eval", help="evaluate a program at (x, y)")
    p.add_argument("program")
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)

    p = subs.add_parser("seq", help="print the first n values of a program")
    p.add_argument("program")
    p.add_argument("n", type=int)

    p = subs.add_parser("cover", help="check that a program generates a sequence's terms")
    p.add_argument("program")
    p.add_argument("--anum", required=True)
    p.add_argument("--stripped", required=True, type=Path)

    p = subs.add_parser("build", help="group solutions into a problem manifest")
    p.add_argument("--stripped", required=True, type=Path)
    p.add_argument("--solutions", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)

    p = subs.add_parser("verify", help="check each problem's equality on x = 0..99")
    p.add_argument("--problems", required=True, type=Path)
    p.add_argument("--reports", type=Path, help="verify report JSON-lines output")
    p.add_argument("--nonverified", type=Path, help="all_nonverified100 manifest output")

    p = subs.add_parser("filter", help="apply the induction-likelihood filters")
    p.add_argument("--problems", required=True, type=Path)
    p.add_argument("--syn", required=True, type=Path, help="aind_syn manifest output")
    p.add_argument("--sem", required=True, type=Path, help="aind_sem manifest output")

    p = subs.add_parser("export", help="write SMT-LIB scripts for a problem manifest")
    p.add_argument("--problems", required=True, type=Path)
    p.add_argument("--outdir", required=True, type=Path)
    p.add_argument("--variant", default="base", help="base, c1..c8, c2x, c2x-appendix, strong")

    p = subs.add_parser("run", help="run solvers over an exported directory")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--dir", required=True, type=Path, help="export: scripts, index.tsv, variant")
    p.add_argument("--log", required=True, type=Path)
    p.add_argument("--jobs", type=int, default=1, help="solver runs at a time")

    p = subs.add_parser("report", help="aggregate solver results into a table")
    p.add_argument("--results", required=True, type=Path)
    p.add_argument("--index", required=True, type=Path, help="index.tsv of exported problems")
    p.add_argument("--syn", required=True, type=Path)
    p.add_argument("--sem", required=True, type=Path)
    p.add_argument("--nonverified", required=True, type=Path)
    p.add_argument("--csv", type=Path, help="write a CSV copy here")

    p = subs.add_parser("pipeline", help="compose build, verify, filter and export")
    p.add_argument("--stripped", required=True, type=Path)
    p.add_argument("--solutions", required=True, type=Path)
    p.add_argument("--outdir", required=True, type=Path)
    p.add_argument("--variant", default="base")
    p.add_argument(
        "--dry-run",
        action="store_true",
        help="print the stage counts without writing anything",
    )

    return top


def _cmd_fmt(args) -> int:
    print(to_text(parse(args.program), if_style=args.if_cond))
    return 0


def _cmd_eval(args) -> int:
    outcome = evaluate(parse(args.program), args.x, args.y)
    if not outcome.ok:
        raise ValueError(outcome.error.value)
    print(f"{outcome.value} (cost {outcome.cost})")
    return 0


def _cmd_seq(args) -> int:
    if args.n < 0:
        raise ValueError(f"n must be at least 0, got {args.n}")
    outcomes = generate_seq(parse(args.program), args.n)
    values = [o.value for o in outcomes if o.ok]
    if values:
        print(" ".join(str(v) for v in values))
    failed = [o for o in outcomes if not o.ok]
    if failed:
        raise ValueError(f"{failed[0].error.value} at index {len(outcomes) - 1}")
    return 0


def _cmd_cover(args) -> int:
    sequences = oeis.load_stripped(args.stripped)
    if args.anum not in sequences:
        raise ValueError(f"no sequence {args.anum} in {args.stripped}")
    ok = oeis.covers(parse(args.program), sequences[args.anum])
    print("true" if ok else "false")
    return 0 if ok else 1


def _cmd_build(args) -> int:
    sequences = oeis.load_stripped(args.stripped)
    solutions = oeis.load_solutions(args.solutions)
    problems = oeis.build_problems(solutions, sequences)
    oeis.save_problems(problems, args.out)
    print(f"{len(problems)} problems from {len(solutions)} solutions -> {args.out}")
    return 0


def _cmd_verify(args) -> int:
    problems, reports = verify_mod.verify_all(oeis.load_problems(args.problems))
    oeis.save_problems(problems, args.problems)
    if args.reports:
        verify_mod.save_reports(reports, args.reports)
    if args.nonverified:
        verify_mod.emit_nonverified(reports, args.nonverified)
    counts = Counter(p.status for p in problems)
    print(" ".join(f"{s}={counts[s]}" for s in oeis.STATUSES[1:]))
    return 0


def _filter_ids(problems: list[oeis.ProblemRecord]) -> tuple[list[str], list[str]]:
    """The aind_syn and aind_sem ids: released problems passing each filter."""
    released = [p for p in problems if p.released]
    return [p.id for p in released if p.syn_pass], [p.id for p in released if p.sem_pass]


def _cmd_filter(args) -> int:
    problems = induction.classify_all(oeis.load_problems(args.problems))
    oeis.save_problems(problems, args.problems)
    syn_ids, sem_ids = _filter_ids(problems)
    induction.write_manifest(syn_ids, args.syn)
    induction.write_manifest(sem_ids, args.sem)
    print(f"syn={len(syn_ids)} sem={len(sem_ids)}")
    return 0


def _cmd_export(args) -> int:
    problems = oeis.load_problems(args.problems)
    variant = smt.parse_variant(args.variant)
    index = smt.export_all(problems, args.outdir, variant)
    print(f"{len(index)} scripts -> {args.outdir}")
    return 0


def _cmd_run(args) -> int:
    solvers = harness.load_solver_config(args.config)
    variant = smt.read_variant(args.dir)
    files = [(pid, args.dir / name) for pid, name in smt.read_index(args.dir / "index.tsv")]
    results = harness.run_campaign(solvers, files, variant.label(), args.log, args.jobs)
    print(f"{len(results)} new results -> {args.log}")
    return 0


def _cmd_report(args) -> int:
    results = harness.load_results(args.results)
    table = harness.aggregate(
        results,
        all_ids=[pid for pid, _ in smt.read_index(args.index)],
        syn_ids=induction.read_manifest(args.syn),
        sem_ids=induction.read_manifest(args.sem),
        nonver_ids=induction.read_manifest(args.nonverified),
    )
    print(table.render_text(), end="")
    if args.csv:
        args.csv.write_text(table.render_csv())
    return 0


def _cmd_pipeline(args) -> int:
    variant = smt.parse_variant(args.variant)
    sequences = oeis.load_stripped(args.stripped)
    solutions = oeis.load_solutions(args.solutions)
    problems = oeis.build_problems(solutions, sequences)

    problems, reports = verify_mod.verify_all(problems)
    problems = induction.classify_all(problems)
    syn_ids, sem_ids = _filter_ids(problems)
    exported = smt.exported(problems)  # refuses before anything is printed or written

    statuses = Counter(p.status for p in problems)
    counts = [
        ("solutions", len(solutions)),
        ("problems", len(problems)),
        *((s, statuses[s]) for s in oeis.STATUSES[1:]),
        ("aind_syn", len(syn_ids)),
        ("aind_sem", len(sem_ids)),
        ("exported", len(exported)),
    ]
    for name, value in counts:
        print(f"{name}: {value}")
    if args.dry_run:
        return 0

    outdir = args.outdir
    outdir.mkdir(parents=True, exist_ok=True)
    oeis.save_problems(problems, outdir / "problems.jsonl")
    verify_mod.save_reports(reports, outdir / "verify_reports.jsonl")
    verify_mod.emit_nonverified(reports, outdir / "all_nonverified100")
    induction.write_manifest(syn_ids, outdir / "aind_syn")
    induction.write_manifest(sem_ids, outdir / "aind_sem")
    smt.export_all(problems, outdir / variant.label(), variant)
    print(f"pipeline outputs -> {outdir}")
    return 0


_COMMANDS = {
    "fmt": _cmd_fmt,
    "eval": _cmd_eval,
    "seq": _cmd_seq,
    "cover": _cmd_cover,
    "build": _cmd_build,
    "verify": _cmd_verify,
    "filter": _cmd_filter,
    "export": _cmd_export,
    "run": _cmd_run,
    "report": _cmd_report,
    "pipeline": _cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        resumes = "; a rerun resumes" if args.command == "run" else ""
        print(f"error: interrupted{resumes}", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
