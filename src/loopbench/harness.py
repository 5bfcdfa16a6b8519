"""Running external solvers over exported problems and tallying results.

Solvers are described by a command template with a {file} placeholder.
A solver's verdict is read from its stdout: each trimmed line is matched
exactly against the solver's token map (by default unsat/sat/unknown).
Results append to a JSON-lines log keyed by (problem, solver, variant),
so an interrupted campaign resumes where it stopped.
"""

from __future__ import annotations

import io
import json
import math
import shlex
import sys
import time
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import NamedTuple

from .interp import _digit_count
from .lang import Checked
from .oeis import read_text

DEFAULT_TIMEOUT = 60.0
# The longest solver timeout a config may give, in seconds; subprocess
# cannot wait much past 2**31 ms.
MAX_TIMEOUT = 10**6


class Verdict(Enum):
    PROVED = "proved"
    COUNTERSAT = "countersat"
    UNKNOWN = "unknown"
    TIMEOUT = "timeout"
    ERROR = "error"


DEFAULT_TOKENS = {
    "unsat": Verdict.PROVED,
    "sat": Verdict.COUNTERSAT,
    "unknown": Verdict.UNKNOWN,
}


class _SolverFields(NamedTuple):
    name: str
    command: str
    timeout: float
    tokens: dict[str, Verdict]


class SolverSpec(Checked, _SolverFields):
    """One solver, each field checked as in a config entry; a bad one
    raises ValueError naming its config key."""

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        command: str,
        timeout: float = DEFAULT_TIMEOUT,
        tokens: dict[str, Verdict | str] = DEFAULT_TOKENS,
    ) -> SolverSpec:
        # Named by its config field: load_solver_config puts the path and
        # the solver's position in front.
        for field, value in (("name", name), ("cmd", command)):
            # Checked before shlex, which reads stdin for None on Python < 3.12.
            if not isinstance(value, str):
                raise ValueError(f"field {field!r} must be a string")
        try:
            shlex.split(command)
        except ValueError as exc:
            raise ValueError(f"field 'cmd' does not split into words: {exc}") from None
        if command.count("{file}") != 1:
            raise ValueError("field 'cmd' must contain {file} exactly once")
        # bool is an int subclass, but true is not a timeout.
        if type(timeout) not in (int, float):
            raise ValueError(f"field 'timeout' must be a number, got {timeout!r}")
        try:
            timeout = float(timeout)
        except OverflowError:  # an integer that no float holds
            raise ValueError(
                f"field 'timeout' must be above 0 and at most {MAX_TIMEOUT} seconds,"
                f" got an integer of {_digit_count(abs(timeout))} digits"
            ) from None
        if not (math.isfinite(timeout) and timeout > 0):
            raise ValueError(f"field 'timeout' must be finite and above 0, got {timeout}")
        if timeout > MAX_TIMEOUT:
            raise ValueError(f"field 'timeout' must be at most {MAX_TIMEOUT} seconds, got {timeout}")
        if not isinstance(tokens, dict):
            raise ValueError("field 'tokens' must map lines to verdicts")
        # Each spec gets a map of its own, with the verdicts as Verdicts.
        try:
            tokens = {line: Verdict(verdict) for line, verdict in tokens.items()}
        except ValueError as exc:
            raise ValueError(f"field 'tokens': {exc}") from None
        return tuple.__new__(cls, (name, command, timeout, tokens))


def load_solver_config(path: str | Path) -> list[SolverSpec]:
    """Solver specs from a JSON config: {"solvers": [{name, cmd, ...}]}.

    A solver needs a string name that no earlier solver has (results
    are keyed by it) and a cmd that shlex can split, with one {file}
    placeholder; timeout (a JSON number of seconds, above 0 and at most
    MAX_TIMEOUT) and tokens (a map from stdout line to verdict) are optional.
    Raises ValueError starting with the path and naming the solver's
    position and the field that is missing or ill-typed.
    """
    try:
        data = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # not JSON, not text, or nested too deep
        raise ValueError(f"{path}: {exc}") from None
    entries = data.get("solvers") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ValueError(f"{path}: expected {{\"solvers\": [...]}}")
    specs = []
    positions: dict[str, int] = {}
    for i, entry in enumerate(entries):
        where = f"{path}: solver {i}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: expected an object, got {type(entry).__name__}")
        for key in ("name", "cmd"):
            if key not in entry:
                raise ValueError(f"{where}: missing field {key!r}")
        optional = {key: entry[key] for key in ("timeout", "tokens") if key in entry}
        try:
            spec = SolverSpec(entry["name"], entry["cmd"], **optional)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        first = positions.setdefault(spec.name, i)
        if first != i:
            raise ValueError(f"{where}: name {spec.name!r} repeats solver {first}")
        specs.append(spec)
    return specs


def _check_string(field: str, value) -> None:
    """Raise ValueError naming a log field whose value is not a string."""
    if not isinstance(value, str):
        raise ValueError(f"field {field!r} must be a string, got {value!r}")


class _ResultFields(NamedTuple):
    problem_id: str
    solver: str
    variant: str
    verdict: Verdict
    wall_time: float


class RunResult(Checked, _ResultFields):
    """One solver run, each field checked as in a log row, so that a
    result run_campaign logs reads back; a bad one raises ValueError
    naming its log field.  A verdict may be given by its value."""

    __slots__ = ()

    def __new__(
        cls, problem_id: str, solver: str, variant: str, verdict: Verdict | str, wall_time: float
    ) -> RunResult:
        for field, value in (("id", problem_id), ("solver", solver), ("variant", variant)):
            _check_string(field, value)
        # bool is an int subclass, but true is not a wall time.
        if type(wall_time) not in (int, float):
            raise ValueError(f"field 'wall_time' must be a number, got {wall_time!r}")
        try:
            verdict = Verdict(verdict)
        except ValueError:
            names = ", ".join(v.value for v in Verdict)
            raise ValueError(f"field 'verdict' must be one of {names}, got {verdict!r}") from None
        return tuple.__new__(cls, (problem_id, solver, variant, verdict, wall_time))

    def to_json(self) -> str:
        return json.dumps(
            {
                "id": self.problem_id,
                "solver": self.solver,
                "variant": self.variant,
                "verdict": self.verdict.value,
                "wall_time": round(self.wall_time, 4),
            }
        )


def result_from_json(line: str) -> RunResult:
    """One log row; a ValueError names the missing or ill-typed field."""
    d = json.loads(line)
    if not isinstance(d, dict):
        raise ValueError(f"row must be a JSON object, got {type(d).__name__}")
    for name in ("id", "solver", "variant", "verdict", "wall_time"):
        if name not in d:
            raise ValueError(f"missing field {name!r}")
    return RunResult(d["id"], d["solver"], d["variant"], d["verdict"], d["wall_time"])


def _read_log(path: Path) -> tuple[list[RunResult], str]:
    """The results in a log, and its text without a torn last line.

    A crash during a write can leave a last line with no newline that
    does not parse; it is skipped with a warning.  A bad line anywhere
    else raises a ValueError naming path:line, and a log that is not
    UTF-8 one naming the path.
    """
    text = read_text(path) if path.exists() else ""
    tail = text.rpartition("\n")[2]
    if tail.strip():
        try:
            json.loads(tail)
        except json.JSONDecodeError:
            print(f"{path}: skipping a partial last line: {tail}", file=sys.stderr)
            text = text[: len(text) - len(tail)]
        except RecursionError:  # nested too deep: a bad row, named below
            pass
    results = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            if line.strip():
                results.append(result_from_json(line))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return results, text


def load_results(path: str | Path) -> list[RunResult]:
    return _read_log(Path(path))[0]


def run_solver(spec: SolverSpec, file: Path) -> tuple[Verdict, float]:
    """One solver invocation; the process is killed at the timeout."""
    # Only a solver run needs subprocess: no other command loads it.
    import subprocess

    argv = [
        arg.replace("{file}", str(file)) for arg in shlex.split(spec.command)
    ]
    start = time.perf_counter()
    try:
        # Output that is not UTF-8 is decoded with replacement characters,
        # so the verdict still follows the tokens and the return code.
        proc = subprocess.run(
            argv, capture_output=True, text=True, errors="replace", timeout=spec.timeout
        )
    except subprocess.TimeoutExpired:
        return Verdict.TIMEOUT, time.perf_counter() - start
    except OSError:
        return Verdict.ERROR, time.perf_counter() - start
    elapsed = time.perf_counter() - start
    for line in proc.stdout.splitlines():
        verdict = spec.tokens.get(line.strip())
        if verdict is not None:
            return verdict, elapsed
    return (Verdict.UNKNOWN if proc.returncode == 0 else Verdict.ERROR), elapsed


def run_campaign(
    solvers: list[SolverSpec],
    files: list[tuple[str, Path]],
    variant: str,
    log_path: str | Path,
    jobs: int = 1,
) -> list[RunResult]:
    """Run every solver on every file, appending results to log_path.

    (problem, solver, variant) triples already present in the log are
    skipped, so a rerun after an interruption resumes cleanly.  Workers
    only execute solvers; all results funnel through this thread for the
    append.  A missing file or solver program raises ValueError before
    the log is opened: logged as an error row, it would never be retried.
    So does an id or a variant that is not a string, which the log could
    not read back.
    """
    # Only a campaign needs shutil and the pool, and importing the pool also
    # loads queue and logging: every other command would pay for them at
    # start-up.
    import shutil
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    _check_string("variant", variant)
    for pid, path in files:
        _check_string("id", pid)
        if not path.is_file():
            raise ValueError(f"{path}: no such file for problem {pid}")
    for spec in solvers:
        program = shlex.split(spec.command)[0]
        if "{file}" not in program and shutil.which(program) is None:
            raise ValueError(f"solver {spec.name!r}: program {program!r} not found")
    log_path = Path(log_path)
    logged, intact = _read_log(log_path)
    done = {(r.problem_id, r.solver, r.variant) for r in logged}
    tasks = [
        (spec, pid, path)
        for spec in solvers
        for pid, path in files
        if (pid, spec.name, variant) not in done
    ]
    results: list[RunResult] = []
    with log_path.open("a") as sink, ThreadPoolExecutor(max_workers=jobs) as pool:
        # Drop a torn last line and end the last record, so that the next
        # result starts a line of its own.
        sink.truncate(len(intact.encode()))
        if intact and not intact.endswith("\n"):
            sink.write("\n")
        # At most jobs calls are submitted at a time, so an interrupt
        # leaves no queued call to run before the pool shuts down.
        queue, running = iter(tasks), {}
        while True:
            for spec, pid, path in islice(queue, jobs - len(running)):
                running[pool.submit(run_solver, spec, path)] = (spec, pid)
            if not running:
                break
            for future in wait(running, return_when=FIRST_COMPLETED).done:
                spec, pid = running.pop(future)
                verdict, wall = future.result()
                result = RunResult(pid, spec.name, variant, verdict, wall)
                sink.write(result.to_json() + "\n")
                sink.flush()
                results.append(result)
    return results


class ReportTable(NamedTuple):
    """Solved-problem counts per population row and solver/variant column."""

    rows: list[str]
    methods: list[str]  # "solver/variant" labels; an "All" union column is appended
    cells: dict[str, dict[str, int]]
    anomalies: list[RunResult]

    def _grid(self, corner: str) -> list[list[str]]:
        """The header row, under corner, and one row of counts per population."""
        columns = [*self.methods, "All"]
        rows = [[row] + [str(self.cells[row][m]) for m in columns] for row in self.rows]
        return [[corner, *columns], *rows]

    def render_text(self) -> str:
        table = self._grid("")
        widths = [max(len(cell) for cell in column) for column in zip(*table)]
        lines = [
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
            for row in table
        ]
        if self.anomalies:
            lines.append("")
            lines.append(f"anomalies: {len(self.anomalies)} countersat on verified problems")
            for a in self.anomalies:
                lines.append(f"  {a.problem_id} by {a.solver}/{a.variant}")
        return "\n".join(lines) + "\n"

    def render_csv(self) -> str:
        import csv  # only report --csv needs it: no other command loads it

        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(self._grid("row"))
        return out.getvalue()


def aggregate(
    results: list[RunResult],
    all_ids: list[str],
    syn_ids: list[str],
    sem_ids: list[str],
    nonver_ids: list[str],
) -> ReportTable:
    """Tally proved counts for the four benchmark subsets.

    Raises if the manifests are inconsistent: sem must be a subset of
    syn, and every manifest id must belong to the full id set.
    CounterSat verdicts on the full set's verified problems are collected
    as anomalies (a counterexample to a verified identity means something
    is wrong); the table lists them, and nothing else reports them.
    """
    universe = set(all_ids)
    # A log reused across exports holds rows for ids this report does
    # not list; they make no column and count nowhere.
    results = [r for r in results if r.problem_id in universe]
    syn, sem, nonver = set(syn_ids), set(sem_ids), set(nonver_ids)
    if not sem <= syn:
        raise ValueError(f"sem manifest is not a subset of syn: {sorted(sem - syn)}")
    for label, ids in (("syn", syn), ("sem", sem), ("nonver", nonver)):
        orphans = ids - universe
        if orphans:
            raise ValueError(f"{label} manifest ids not in the problem set: {sorted(orphans)}")

    populations = {
        "NoFilt": universe,
        "SynFilt": syn,
        "SemFilt": sem,
        "NonVer": nonver,
    }
    methods = sorted({(r.solver, r.variant) for r in results})
    labels = [f"{solver}/{variant}" for solver, variant in methods]
    proved: dict[str, set[str]] = {label: set() for label in labels}
    verified = universe - nonver
    anomalies = []
    for r in results:
        label = f"{r.solver}/{r.variant}"
        if r.verdict == Verdict.PROVED:
            proved[label].add(r.problem_id)
        elif r.verdict == Verdict.COUNTERSAT and r.problem_id in verified:
            anomalies.append(r)
    union = set().union(*proved.values()) if proved else set()

    rows = list(populations)
    cells = {
        row: {
            **{label: len(populations[row] & proved[label]) for label in labels},
            "All": len(populations[row] & union),
        }
        for row in rows
    }
    return ReportTable(rows, labels, cells, anomalies)
