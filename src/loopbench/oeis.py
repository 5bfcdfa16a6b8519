"""Sequence data, program-pair solutions, and problem grouping.

Sequences come in the OEIS "stripped" format: one line per sequence,
`Axxxxxx ,t1,t2,...,tn,`, with `#` comment lines skipped.  Solutions are
TSV rows pairing an A-number with a small and a fast program.  Distinct
A-numbers whose solution pair is structurally identical collapse into a
single problem.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path

from .interp import EvalConfig, DEFAULT_CONFIG, generate_seq
from .lang import ParseError, Program, parse, to_text, Op, depends_on

log = logging.getLogger(__name__)

_ANUM_RE = re.compile(r"^A\d+$")


@dataclass(frozen=True)
class SequenceRecord:
    anum: str
    terms: tuple[int, ...]


@dataclass(frozen=True)
class SolutionRecord:
    anum: str
    small: Program
    fast: Program


@dataclass
class ProblemRecord:
    id: str
    anums: list[str]
    terms: list[int]
    small: Program
    fast: Program
    status: str = "unverified"
    syn_pass: bool = False
    sem_pass: bool = False


def short_anum(anum: str) -> str:
    """Canonical A-number: leading zeros stripped (A000045 -> A45)."""
    return f"A{int(anum[1:])}"


def _anum_value(anum: str) -> int:
    return int(anum[1:])


def load_stripped(path: str | Path) -> dict[str, SequenceRecord]:
    """Read an OEIS stripped-format file into anum -> record."""
    records: dict[str, SequenceRecord] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            anum, body = line.split(" ", 1)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed line {line!r}")
        if not _ANUM_RE.match(anum):
            raise ValueError(f"{path}:{lineno}: bad A-number {anum!r}")
        body = body.strip()
        if not (body.startswith(",") and body.endswith(",")):
            raise ValueError(f"{path}:{lineno}: terms must be comma-wrapped")
        parts = [t for t in body.split(",") if t]
        if not parts:
            raise ValueError(f"{path}:{lineno}: no terms for {anum}")
        try:
            terms = tuple(int(t) for t in parts)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer term in {anum}")
        records[anum] = SequenceRecord(anum, terms)
    return records


def load_solutions(path: str | Path) -> list[SolutionRecord]:
    """Read anum/small/fast TSV rows.

    Rows whose programs depend on y are skipped with a warning (one input
    is the sequence index; the other must be unused at top level).  On a
    duplicate A-number the last row wins, with a warning.
    """
    by_anum: dict[str, SolutionRecord] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        cells = line.rstrip("\n").split("\t")
        if len(cells) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
        anum, small_text, fast_text = cells
        if not _ANUM_RE.match(anum):
            raise ValueError(f"{path}:{lineno}: bad A-number {anum!r}")
        try:
            small = parse(small_text)
            fast = parse(fast_text)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}")
        if depends_on(small, Op.Y) or depends_on(fast, Op.Y):
            log.warning("%s:%d: %s solution depends on y, skipped", path, lineno, anum)
            continue
        if anum in by_anum:
            log.warning("%s:%d: duplicate solution for %s, last wins", path, lineno, anum)
        by_anum[anum] = SolutionRecord(anum, small, fast)
    return list(by_anum.values())


def covers(p: Program, seq: SequenceRecord, cfg: EvalConfig = DEFAULT_CONFIG) -> bool:
    """True iff p generates every listed term of seq without error."""
    outcomes = generate_seq(p, len(seq.terms), cfg)
    if len(outcomes) < len(seq.terms) or any(not o.ok for o in outcomes):
        return False
    return all(o.value == t for o, t in zip(outcomes, seq.terms))


def build_problems(
    solutions: list[SolutionRecord],
    sequences: dict[str, SequenceRecord],
) -> list[ProblemRecord]:
    """Group solutions into equational problems.

    Pairs whose sides are structurally identical are dropped (nothing to
    prove).  Solutions for different sequences with the same (small,
    fast) pair merge into one problem carrying the terms of the longest
    member sequence.  Problems are sorted by id.
    """
    groups: dict[tuple[Program, Program], list[SolutionRecord]] = {}
    for rec in solutions:
        if rec.anum not in sequences:
            raise ValueError(f"no sequence data for {rec.anum}")
        if rec.small == rec.fast:
            continue
        groups.setdefault((rec.small, rec.fast), []).append(rec)

    problems = []
    for (small, fast), members in groups.items():
        anums = sorted((m.anum for m in members), key=_anum_value)
        pid = "-".join(short_anum(a) for a in anums)
        terms = max((sequences[a].terms for a in anums), key=len)
        problems.append(ProblemRecord(pid, anums, list(terms), small, fast))
    problems.sort(key=lambda pr: pr.id)
    return problems


# JSON-lines persistence for problem manifests.


def problem_to_json(pr: ProblemRecord) -> str:
    return json.dumps(
        {
            "id": pr.id,
            "anums": pr.anums,
            "terms": pr.terms,
            "small": to_text(pr.small),
            "fast": to_text(pr.fast),
            "status": pr.status,
            "syn_pass": pr.syn_pass,
            "sem_pass": pr.sem_pass,
        }
    )


# What verify100 can set, and the status of a problem not yet verified.
STATUSES = ("unverified", "verified", "nonverified", "refuted")


def _field(d: dict, name: str, kind: type, default=None):
    if name not in d:
        if default is not None:
            return default
        raise ValueError(f"missing field {name!r}")
    value = d[name]
    if not isinstance(value, kind):
        raise ValueError(f"field {name!r} must be a {kind.__name__}, got {value!r}")
    return value


def _program_field(d: dict, name: str) -> Program:
    text = _field(d, name, str)
    try:
        return parse(text)
    except ParseError as exc:
        raise ValueError(f"field {name!r}: {exc}") from None


def problem_from_json(line: str) -> ProblemRecord:
    """One manifest row; a ValueError names the missing or ill-typed field."""
    d = json.loads(line)
    if not isinstance(d, dict):
        raise ValueError(f"row must be a JSON object, got {type(d).__name__}")
    pid = _field(d, "id", str)
    anums = _field(d, "anums", list)
    if not all(isinstance(a, str) for a in anums):
        raise ValueError(f"field 'anums' must list strings, got {anums!r}")
    terms = _field(d, "terms", list)
    for t in terms:
        # bool is an int subclass, but true is not a term.
        if type(t) is not int:
            raise ValueError(f"field 'terms' has a non-integer term {t!r}")
    status = _field(d, "status", str, "unverified")
    if status not in STATUSES:
        raise ValueError(f"field 'status' must be one of {', '.join(STATUSES)}, got {status!r}")
    return ProblemRecord(
        id=pid,
        anums=anums,
        terms=terms,
        small=_program_field(d, "small"),
        fast=_program_field(d, "fast"),
        status=status,
        syn_pass=_field(d, "syn_pass", bool, False),
        sem_pass=_field(d, "sem_pass", bool, False),
    )


def save_problems(problems: list[ProblemRecord], path: str | Path) -> None:
    Path(path).write_text("".join(problem_to_json(p) + "\n" for p in problems))


def load_problems(path: str | Path) -> list[ProblemRecord]:
    """Read a manifest; a bad row raises ValueError naming path:line."""
    problems = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            problems.append(problem_from_json(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return problems
