"""The benchmark's workloads: set-up, one timed pass, and its check.

Set-up loads and parses the inputs through the package's public
functions.  The pass calls the package through module attributes looked
up at call time, so that a traced run's wrappers see every call.  The
check compares every output of the pass with the committed expectations
under expected/ and counts one operation per compared item.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import signal
import time
from pathlib import Path

import loopbench
from kernels import KERNELS
from loopbench import cli, harness, oeis, smt

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
STUB = HERE / "stub_solver.sh"

VARIANTS = ("base", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c2x", "strong")
STUB_TIMEOUT = 0.25
# Two samples run at once, so one solver job each keeps the solver
# processes at or below the core count.
JOBS = 1



def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def outcome_row(outcome) -> list:
    return [outcome.value, outcome.cost, outcome.error.value if outcome.error else None]


class Tally:
    """Attempted and failed operations, with the first few mismatches."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def check(self, what: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failed += 1
            if len(self.mismatches) < 10:
                self.mismatches.append(f"{what}: got {got!r}, want {want!r}")

    def fail_all(self, n: int, why: str) -> None:
        self.attempted += n
        self.failed += n
        self.mismatches.append(why)


def _load_json(name: str):
    return json.loads((EXPECTED / name).read_text())


def _jsonl_by_id(text: str) -> dict[str, dict]:
    rows = (json.loads(line) for line in text.splitlines() if line.strip())
    return {row["id"]: row for row in rows}


class PipelineCorpus:
    """`loopbench pipeline` in process on the committed corpus."""

    name = "pipeline_corpus"

    def __init__(self, inputs: Path, scratch: Path):
        self.stripped = inputs / "stripped"
        self.solutions = inputs / "solutions.tsv"

    def setup(self, tracer) -> None:
        self.sequences = oeis.load_stripped(self.stripped)
        self.rows = oeis.load_solutions(self.solutions)

    def run(self, outdir: Path):
        argv = [
            "pipeline",
            "--stripped", str(self.stripped),
            "--solutions", str(self.solutions),
            "--outdir", str(outdir),
            "--variant", "base",
        ]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(argv)
        return rc, stdout.getvalue()

    def check(self, result, outdir: Path, tally: Tally) -> None:
        rc, stdout = result
        want = _load_json("pipeline.json")
        tally.check("exit code", rc, 0)
        tally.check("stdout", stdout.replace(str(outdir), "OUTDIR"), want["stdout"])
        for name, rows in (
            ("problems.jsonl", (EXPECTED / "problems.jsonl").read_text()),
            ("verify_reports.jsonl", (EXPECTED / "verify_reports.jsonl").read_text()),
        ):
            got = _jsonl_by_id((outdir / name).read_text())
            tally.check(f"{name} ids", sorted(got), sorted(_jsonl_by_id(rows)))
            for pid, row in _jsonl_by_id(rows).items():
                tally.check(f"{name} {pid}", got.get(pid), row)
        for name, text in want["manifests"].items():
            tally.check(name, (outdir / name).read_text(), text)
        for pid, want_digest in want["scripts"].items():
            path = outdir / "base" / f"{pid}.smt2"
            got = digest(path.read_bytes()) if path.exists() else None
            tally.check(f"base/{pid}.smt2", got, want_digest)

    def cleanup(self) -> None:
        pass

    def operations(self) -> int:
        want = _load_json("pipeline.json")
        problems = len(_jsonl_by_id((EXPECTED / "problems.jsonl").read_text()))
        return 2 + 2 * (1 + problems) + len(want["manifests"]) + len(want["scripts"])


class EvalKernels:
    """Micro programs through public evaluate and generate_seq only."""

    name = "eval_kernels"

    def __init__(self, inputs: Path, scratch: Path):
        self.order = json.loads((inputs / "order.json").read_text())

    def setup(self, tracer) -> None:
        self.programs = {name: loopbench.parse(text) for name, (text, _, _) in KERNELS.items()}
        if tracer is not None:
            tracer.labels.update({id(p): name for name, p in self.programs.items()})

    def run(self, outdir: Path):
        evaluate, budget = loopbench.evaluate, loopbench.Budget
        verify_cfg = loopbench.interp.VERIFY_CONFIG
        out = {}
        for name, style in self.order:
            p = self.programs[name]
            _, points, terms = KERNELS[name]
            if style == "single":
                out[name, style] = [
                    evaluate(p, x, 0, budget(verify_cfg.per_call_limit), verify_cfg)
                    for x in points
                ]
            else:
                out[name, style] = loopbench.generate_seq(p, terms)
        return out

    def check(self, result, outdir: Path, tally: Tally) -> None:
        want = _load_json("kernels.json")
        for (name, style), outcomes in sorted(result.items()):
            rows = want[name][style]
            tally.check(f"{name} {style} length", len(outcomes), len(rows))
            for i, (outcome, row) in enumerate(zip(outcomes, rows)):
                tally.check(f"{name} {style} #{i}", outcome_row(outcome), row)

    def cleanup(self) -> None:
        pass

    def operations(self) -> int:
        want = _load_json("kernels.json")
        return sum(1 + len(rows) for styles in want.values() for rows in styles.values())


class ExportCampaign:
    """Export every variant, run a stub solver campaign, then resume it."""

    name = "export_campaign"

    def __init__(self, inputs: Path, scratch: Path):
        self.manifest = inputs / "problems.jsonl"
        self.piddir = scratch / "pids"
        self.leftover = 0

    def setup(self, tracer) -> None:
        self.problems = oeis.load_problems(self.manifest)
        self.variants = [smt.parse_variant(v) for v in VARIANTS]
        self.piddir.mkdir(exist_ok=True)
        command = f"sh {shlex.quote(str(STUB))} {shlex.quote(str(self.piddir))} {{file}}"
        self.solvers = [harness.SolverSpec("stub", command, timeout=STUB_TIMEOUT)]

    def run(self, outdir: Path):
        problems = oeis.load_problems(self.manifest)
        for variant in self.variants:
            index = smt.export_all(problems, outdir / variant.label(), variant)
            if variant.kind == "base":
                files = [(pid, outdir / "base" / name) for pid, name in index]
        log = outdir / "results.jsonl"
        first = harness.run_campaign(self.solvers, files, "base", log, JOBS)
        self.leftover = len(alive_stub_children(self.piddir))
        again = harness.run_campaign(self.solvers, files, "base", log, JOBS)
        return first, again

    def check(self, result, outdir: Path, tally: Tally) -> None:
        first, again = result
        want = _load_json("export.json")
        for label, scripts in want["scripts"].items():
            index = (outdir / label / "index.tsv").read_text()
            tally.check(f"{label}/index.tsv", index, want["index"])
            for pid, want_digest in scripts.items():
                path = outdir / label / f"{pid}.smt2"
                got = digest(path.read_bytes()) if path.exists() else None
                tally.check(f"{label}/{pid}.smt2", got, want_digest)
        verdicts = {r.problem_id: r.verdict.value for r in first}
        tally.check("campaign ids", sorted(verdicts), sorted(want["verdicts"]))
        for pid, verdict in want["verdicts"].items():
            tally.check(f"verdict {pid}", verdicts.get(pid), verdict)
        tally.check("tasks run again on resume", len(again), 0)

    def operations(self) -> int:
        want = _load_json("export.json")
        scripts = sum(1 + len(s) for s in want["scripts"].values())
        return scripts + 1 + len(want["verdicts"]) + 1

    def cleanup(self) -> None:
        stop_stub_children(self.piddir)


WORKLOADS = {w.name: w for w in (PipelineCorpus, EvalKernels, ExportCampaign)}


# Stub solver children that outlive the shell the harness killed.


def _state(pid: int) -> str | None:
    """Process state letter, or None once the process is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


def alive_stub_children(piddir: Path) -> list[int]:
    # Each file is named after the pid it holds; the name is there
    # before the shell has written the content.
    pids = [int(p.name) for p in piddir.iterdir()]
    return [pid for pid in pids if _state(pid) not in (None, "Z")]


def stop_stub_children(piddir: Path, patience: float = 5.0) -> None:
    """Kill the recorded stub children and wait until each has ended."""
    if not piddir.is_dir():
        return
    pids = alive_stub_children(piddir)
    for pid in pids:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + patience
    while any(_state(pid) not in (None, "Z") for pid in pids):
        if time.monotonic() > deadline:
            raise RuntimeError(f"stub children did not end: {pids}")
        time.sleep(0.01)
    for p in piddir.iterdir():
        p.unlink()
