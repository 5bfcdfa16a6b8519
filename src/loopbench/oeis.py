"""Sequence data, program-pair solutions, and problem grouping.

Sequences come in the OEIS "stripped" format: one line per sequence,
`Axxxxxx ,t1,t2,...,tn,`, with `#` comment lines skipped.  Solutions are
TSV rows pairing an A-number with a small and a fast program.  Distinct
A-numbers whose solution pair is structurally identical collapse into a
single problem.  A problem record checks its own fields, so one built in
Python holds only what a manifest row may; the manifest reader adds the
JSON shape and parses the program text.
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path
from typing import NamedTuple

from .interp import EvalConfig, DEFAULT_CONFIG, generate_seq
from .lang import Checked, ParseError, Program, parse, to_text, Op, depends_on

_ANUM_RE = re.compile(r"A[0-9]+")
# A stripped-format line's terms: comma-wrapped ASCII decimal integers.
_TERMS_RE = re.compile(r",(?:-?[0-9]+,)+")
# A problem id names its exported script, so it must be a plain file name.
_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


class SequenceRecord(NamedTuple):
    anum: str
    terms: tuple[int, ...]


class SolutionRecord(NamedTuple):
    anum: str
    small: Program
    fast: Program


# What verify100 can set, and the status of a problem not yet verified.
UNVERIFIED, VERIFIED, NONVERIFIED, REFUTED = "unverified", "verified", "nonverified", "refuted"
STATUSES = (UNVERIFIED, VERIFIED, NONVERIFIED, REFUTED)


def _typed(name: str, value, kind: type):
    """value, if it is an instance of kind; else a ValueError naming the field."""
    if not isinstance(value, kind):
        raise ValueError(f"field {name!r} must be a {kind.__name__}, got {value!r}")
    return value


class _ProblemFields(NamedTuple):
    id: str
    anums: tuple[str, ...]
    terms: tuple[int, ...]
    small: Program
    fast: Program
    status: str
    syn_pass: bool
    sem_pass: bool


class ProblemRecord(Checked, _ProblemFields):
    """One equality problem.  Each field is checked as in a manifest row, so
    a record built in Python reads back; a bad one raises ValueError."""

    def __new__(
        cls,
        id: str,
        anums: tuple[str, ...],
        terms: tuple[int, ...],
        small: Program,
        fast: Program,
        status: str = UNVERIFIED,
        syn_pass: bool = False,
        sem_pass: bool = False,
    ) -> ProblemRecord:
        if not _ID_RE.fullmatch(_typed("id", id, str)):
            raise ValueError(f"field 'id' must be a plain file name, got {id!r}")
        # Tuples, so that records the stages copy share nothing mutable.
        anums, terms = tuple(anums), tuple(terms)
        if not all(isinstance(a, str) for a in anums):
            raise ValueError(f"field 'anums' must list strings, got {list(anums)!r}")
        for t in terms:
            # bool is an int subclass, but true is not a term.
            if type(t) is not int:
                raise ValueError(f"field 'terms' has a non-integer term {t!r}")
        _typed("small", small, Program)
        _typed("fast", fast, Program)
        if _typed("status", status, str) not in STATUSES:
            raise ValueError(f"field 'status' must be one of {', '.join(STATUSES)}, got {status!r}")
        _typed("syn_pass", syn_pass, bool)
        _typed("sem_pass", sem_pass, bool)
        fields = (id, anums, terms, small, fast, status, syn_pass, sem_pass)
        return tuple.__new__(cls, fields)

    @property
    def released(self) -> bool:
        """Refuted problems are not part of the released benchmark."""
        return self.status != REFUTED


def short_anum(anum: str) -> str:
    """Canonical A-number: leading zeros stripped (A000045 -> A45)."""
    return f"A{_anum_digits(anum) or 0}"


def _anum_digits(anum: str) -> str:
    """The digits of an A-number without its leading zeros: equal for the
    A-numbers of one value, of any length."""
    return anum[1:].lstrip("0")


def _anum_order(anum: str) -> tuple[int, str]:
    """Sort key of A-numbers by value: fewer digits first, then the digits."""
    digits = _anum_digits(anum)
    return len(digits), digits


def read_text(path: str | Path) -> str:
    """A UTF-8 file's text; a file that is not UTF-8 raises ValueError naming it."""
    try:
        return Path(path).read_bytes().decode()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_text(path: str | Path, text: str) -> None:
    """Write a UTF-8 file whole or not at all, through a temporary file beside
    it that any exception, Ctrl-C included, removes; an OSError names path."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(text.encode())
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def load_stripped(path: str | Path) -> dict[str, SequenceRecord]:
    """Read an OEIS stripped-format file into anum -> record; a bad line
    or a repeated A-number (by its value: A45 repeats A000045) raises
    ValueError naming path:line."""
    records: dict[str, SequenceRecord] = {}
    first_lines: dict[str, int] = {}  # keyed by digits without leading zeros
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            anum, body = line.split(" ", 1)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed line {line!r}")
        if not _ANUM_RE.fullmatch(anum):
            raise ValueError(f"{path}:{lineno}: bad A-number {anum!r}")
        body = body.strip()
        if not (body.startswith(",") and body.endswith(",")):
            raise ValueError(f"{path}:{lineno}: terms must be comma-wrapped")
        parts = body[1:-1].split(",")
        if parts == [""]:
            raise ValueError(f"{path}:{lineno}: no terms for {anum}")
        if "" in parts:
            raise ValueError(f"{path}:{lineno}: empty term in {anum}")
        if not _TERMS_RE.fullmatch(body):
            raise ValueError(f"{path}:{lineno}: non-integer term in {anum}")
        try:
            terms = tuple(map(int, parts))
        except ValueError as exc:  # more digits than int() converts
            raise ValueError(f"{path}:{lineno}: term of {anum}: {exc}") from None
        first = first_lines.setdefault(_anum_digits(anum), lineno)
        if first != lineno:
            raise ValueError(f"{path}:{lineno}: repeated A-number {anum!r} (first on line {first})")
        records[anum] = SequenceRecord(anum, terms)
    return records


def load_solutions(path: str | Path) -> list[SolutionRecord]:
    """Read anum/small/fast TSV rows.

    Rows whose programs depend on y are skipped with a warning (one input
    is the sequence index; the other must be unused at top level).  A bad
    row or a repeated A-number (by its value, as in load_stripped) raises
    ValueError naming path:line.  Equal subterms of the file's programs
    are one object (see lang.parse).
    """
    solutions, skipped = [], []  # the skip warnings, printed once the whole file has loaded
    table: dict = {}
    first_lines: dict[str, int] = {}  # as in load_stripped
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
        anum, small_text, fast_text = cells
        if not _ANUM_RE.fullmatch(anum):
            raise ValueError(f"{path}:{lineno}: bad A-number {anum!r}")
        first = first_lines.setdefault(_anum_digits(anum), lineno)
        if first != lineno:
            raise ValueError(f"{path}:{lineno}: repeated A-number {anum!r} (first on line {first})")
        try:
            small = parse(small_text, table)
            fast = parse(fast_text, table)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}")
        if depends_on(small, Op.Y) or depends_on(fast, Op.Y):
            skipped.append(f"{path}:{lineno}: {anum} solution depends on y, skipped")
            continue
        solutions.append(SolutionRecord(anum, small, fast))
    for warning in skipped:
        print(warning, file=sys.stderr)
    return solutions


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
        anums = sorted((m.anum for m in members), key=_anum_order)
        pid = "-".join(short_anum(a) for a in anums)
        terms = max((sequences[a].terms for a in anums), key=len)
        problems.append(ProblemRecord(pid, anums, terms, small, fast))
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


def problem_from_json(line: str, table: dict | None = None) -> ProblemRecord:
    """One manifest row; a ValueError names the missing or ill-typed field.
    Its programs share equal subterms with those parsed with the same
    table (see lang.parse)."""
    d = json.loads(line)
    if not isinstance(d, dict):
        raise ValueError(f"row must be a JSON object, got {type(d).__name__}")
    for name in ("id", "anums", "terms", "small", "fast"):
        if name not in d:
            raise ValueError(f"missing field {name!r}")
    # JSON arrays: the record would take the characters of a string.
    anums, terms = _typed("anums", d["anums"], list), _typed("terms", d["terms"], list)
    sides = []
    for name in ("small", "fast"):
        try:
            sides.append(parse(_typed(name, d[name], str), table))
        except ParseError as exc:
            raise ValueError(f"field {name!r}: {exc}") from None
    # An absent status or filter flag takes the record's default.
    flags = {name: d[name] for name in ("status", "syn_pass", "sem_pass") if name in d}
    return ProblemRecord(d["id"], anums, terms, *sides, **flags)


def _refuse_repeated_ids(problems: list[ProblemRecord]) -> None:
    """Raise ValueError naming the first id that two problems share: a
    manifest or an export directory holds one problem per id."""
    seen = set()
    for p in problems:
        if p.id in seen:
            raise ValueError(f"repeated id {p.id!r}")
        seen.add(p.id)


def save_problems(problems: list[ProblemRecord], path: str | Path) -> None:
    """Write a manifest; repeated ids raise ValueError and write nothing."""
    _refuse_repeated_ids(problems)
    write_text(path, "".join(problem_to_json(p) + "\n" for p in problems))


def load_problems(path: str | Path) -> list[ProblemRecord]:
    """Read a manifest; a bad row or a repeated id raises ValueError naming
    path:line.  Equal subterms of its programs are one object."""
    problems = []
    table: dict = {}
    first_lines: dict[str, int] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            problem = problem_from_json(line, table)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        first = first_lines.setdefault(problem.id, lineno)
        if first != lineno:
            raise ValueError(f"{path}:{lineno}: repeated id {problem.id!r} (first on line {first})")
        problems.append(problem)
    return problems
