"""Write the benchmark's committed expectations to bench/expected/.

    python3 bench/freeze.py

Run once when the corpus or a workload changes, never to make a failing
benchmark pass.  What it writes:

- problems.jsonl, verify_reports.jsonl, pipeline.json: the outputs of
  `loopbench pipeline` on the corpus (statuses, filter verdicts,
  manifests, stdout and a digest per SMT-LIB script).  Each problem's
  status must equal the status the corpus generator intended, which the
  reference interpreter confirmed.
- kernels.json: value, cost and error of every kernel call.  Values come
  from the test suite's reference interpreter (tests/oracles.ref_eval);
  costs are those of the evaluator at the time of freezing.
- export.json: a digest per exported script and variant, and the stub
  solver's verdict per problem.
- units.json: the cost-model gate, the evaluator's calls, units and
  error counts per workload and caller, and each workload's work units.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import spans  # noqa: E402
import workloads  # noqa: E402
from oracles import ref_eval  # noqa: E402
from run import prepare_inputs  # noqa: E402

EXPECTED = HERE / "expected"


def _write_json(name: str, data) -> None:
    (EXPECTED / name).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _run(workload: str, work: Path, tracer=None):
    inputs = work / workload / "input"
    prepare_inputs(workload, 0, inputs)
    scratch = work / workload / "scratch"
    scratch.mkdir()
    wl = workloads.WORKLOADS[workload](inputs, scratch)
    wl.setup(tracer)
    try:
        result = wl.run(scratch / "out")
    finally:
        wl.cleanup()
    return wl, result, scratch / "out"


def freeze_pipeline(work: Path) -> None:
    _, (rc, stdout), out = _run("pipeline_corpus", work)
    if rc != 0:
        raise SystemExit(f"pipeline exited with {rc}")
    intended = {}
    for line in (HERE / "corpus" / "intended.tsv").read_text().splitlines():
        anum, _, status = line.split("\t")
        intended[anum] = status
    for line in (out / "problems.jsonl").read_text().splitlines():
        row = json.loads(line)
        want = {intended[a] for a in row["anums"]}
        if want != {row["status"]}:
            raise SystemExit(f"{row['id']}: status {row['status']}, intended {want}")
    for name in ("problems.jsonl", "verify_reports.jsonl"):
        shutil.copy(out / name, EXPECTED / name)
    manifests = ("all_nonverified100", "aind_syn", "aind_sem", "base/index.tsv")
    _write_json("pipeline.json", {
        "stdout": stdout.replace(str(out), "OUTDIR"),
        "manifests": {name: (out / name).read_text() for name in manifests},
        "scripts": {
            path.stem: workloads.digest(path.read_bytes())
            for path in sorted((out / "base").glob("*.smt2"))
        },
    })


def freeze_kernels(work: Path) -> None:
    wl, result, _ = _run("eval_kernels", work)
    frozen = {}
    for (name, style), outcomes in sorted(result.items()):
        program = wl.programs[name]
        _, points, _ = workloads.KERNELS[name]
        xs = points if style == "single" else range(len(outcomes))
        rows = []
        for x, outcome in zip(xs, outcomes):
            value, cost, error = workloads.outcome_row(outcome)
            if error is None:
                value = ref_eval(program, x, 0, cap=10**7)
                if value != outcome.value:
                    raise SystemExit(f"{name} at {x}: evaluator {outcome.value}, reference {value}")
            rows.append([value, cost, error])
        frozen.setdefault(name, {})[style] = rows
    _write_json("kernels.json", frozen)


def freeze_export(work: Path) -> None:
    _, (first, again), out = _run("export_campaign", work)
    if again:
        raise SystemExit("the resumed campaign ran tasks again")
    _write_json("export.json", {
        "index": (out / "base" / "index.tsv").read_text(),
        "scripts": {
            label: {
                path.stem: workloads.digest(path.read_bytes())
                for path in sorted((out / label).glob("*.smt2"))
            }
            for label in workloads.VARIANTS
        },
        "verdicts": {r.problem_id: r.verdict.value for r in sorted(first, key=lambda r: r.problem_id)},
    })


def freeze_units(work: Path) -> None:
    units = {}
    for workload in workloads.WORKLOADS:
        tracer = spans.Tracer()
        undo = spans.instrument(tracer)
        try:
            wl, _, _ = _run(workload, work / "traced", tracer)
        finally:
            spans.uninstrument(undo)
        counts = spans.unit_counts(tracer)
        # export_campaign does no evaluator work; its work unit is one
        # checked operation.
        if workload == "export_campaign":
            work_units = wl.operations()
        else:
            work_units = counts["interp.units"]
        units[workload] = {"counts": counts, "work_units": work_units}
    _write_json("units.json", units)


def main() -> int:
    EXPECTED.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        work = Path(tmp)
        freeze_pipeline(work)
        freeze_kernels(work)
        freeze_export(work)
        (work / "traced").mkdir()
        freeze_units(work)
    print(f"expectations -> {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
