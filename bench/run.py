"""Run one workload of the loopbench benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see NOTES.md for why each was chosen):

- pipeline_corpus: `loopbench pipeline` in process on the committed corpus;
- eval_kernels: micro programs through public evaluate and generate_seq;
- export_campaign: every SMT-LIB variant exported, a stub solver campaign
  and its resume.

The seed only permutes the inputs (row order of the corpus files, order
of the kernel calls), so every seed does the same work and must give the
same outputs.  Each sample is one fresh process that sets up, runs one
timed pass and checks every output against expected/; samples are taken
two at a time (one per core) until --seconds have passed.

With --trace 0 the end-to-end metrics of BENCHMARK.json are printed, as
medians over the samples.  With --trace 1, untraced and traced samples
run side by side; the traced ones give the per-layer metrics, and the
difference of the two medians of wall time is the tracing overhead.
Each metric is printed as a line `name value unit (n=samples)`, and the
last line of standard output is the JSON result.  The exit code is
nonzero, and no result is printed, if a sample cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from kernels import KERNELS, STYLES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected"
WORKLOADS = ("pipeline_corpus", "eval_kernels", "export_campaign")
SAMPLE_TIMEOUT = 150
# Samples run this many at a time, one per core.  Each core of a small
# VM switches between fast and slow phases independently of the other,
# so samples on both cores average over both and a run reads steadier.
WORKERS = min(2, os.cpu_count() or 1)
# Set-up is short and noisy, so each run also takes this many samples
# of set-up alone.
SETUP_SAMPLES = 12


def prepare_inputs(workload: str, seed: int, inputs: Path) -> None:
    """Write the workload's inputs for this seed: the committed ones, permuted."""
    rng = random.Random(seed)
    inputs.mkdir(parents=True)
    if workload == "pipeline_corpus":
        lines = (HERE / "corpus" / "stripped").read_text().splitlines(keepends=True)
        header = [line for line in lines if line.startswith("#")]
        body = [line for line in lines if not line.startswith("#")]
        rng.shuffle(body)
        (inputs / "stripped").write_text("".join(header + body))
        rows = (HERE / "corpus" / "solutions.tsv").read_text().splitlines(keepends=True)
        rng.shuffle(rows)
        (inputs / "solutions.tsv").write_text("".join(rows))
    elif workload == "eval_kernels":
        order = [[name, style] for name in KERNELS for style in STYLES]
        rng.shuffle(order)
        (inputs / "order.json").write_text(json.dumps(order))
    else:
        lines = (EXPECTED / "problems.jsonl").read_text().splitlines(keepends=True)
        rng.shuffle(lines)
        (inputs / "problems.jsonl").write_text("".join(lines))


# One sample, in its own process.


def sample(workload: str, workdir: Path, traced: bool, setup_only: bool) -> dict:
    """Set up, run one timed pass and check it; returns the measurements."""
    start = time.perf_counter()
    import workloads  # imports loopbench: part of set-up

    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)
    scratch = Path(tempfile.mkdtemp(dir=workdir))
    outdir = scratch / "out"
    wl = workloads.WORKLOADS[workload](workdir / "input", scratch)
    if tracer is None:
        wl.setup(None)
    else:
        with tracer.span("bench.setup"):
            wl.setup(tracer)
    setup_s = time.perf_counter() - start
    if setup_only:
        wl.cleanup()
        shutil.rmtree(scratch)
        return {"setup_s": setup_s}

    tally = workloads.Tally()
    try:
        start = time.perf_counter()
        if tracer is None:
            result = wl.run(outdir)
        else:
            with tracer.span("bench.pass"):
                result = wl.run(outdir)
        wall_s = time.perf_counter() - start
        wl.check(result, outdir, tally)
    except Exception:
        wall_s = time.perf_counter() - start
        tally.fail_all(wl.operations(), traceback.format_exc())
    finally:
        wl.cleanup()

    measured = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "mismatches": tally.mismatches,
    }
    if tracer is not None:
        tracer.finish()
        layers = spans.layer_metrics(tracer, tuple(workloads.KERNELS))
        layers["harness.leftover_procs"] = getattr(wl, "leftover", 0)
        # The cost-model gate: abstract-cost counts are pinned per workload.
        want = json.loads((EXPECTED / "units.json").read_text())[workload]["counts"]
        for name, count in spans.unit_counts(tracer).items():
            tally.check(f"cost model: {name}", count, want[name])
        measured.update(attempted=tally.attempted, failed=tally.failed, layers=layers)
        tracer.write(OUT / f"trace-{workload}.jsonl")
    shutil.rmtree(scratch)
    return measured


def spawn_together(workload: str, workdir: Path, kinds: list[tuple[bool, bool]]) -> list[dict]:
    """Run one sample per (traced, setup_only) pair, all at once."""
    # A fixed hash seed keeps set and dict iteration order, and so the
    # work done, the same in every sample.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    procs = []
    try:
        for traced, setup_only in kinds:
            argv = [sys.executable, str(Path(__file__).resolve()), "--sample",
                    "--workload", workload, "--workdir", str(workdir),
                    "--trace", str(int(traced))]
            if setup_only:
                argv.append("--setup-only")
            procs.append(subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env))
        results = []
        for proc in procs:
            stdout, _ = proc.communicate(timeout=SAMPLE_TIMEOUT)
            lines = stdout.splitlines()
            if proc.returncode != 0 or not lines:
                raise RuntimeError(f"{workload} sample exited with code {proc.returncode}")
            results.append(json.loads(lines[-1]))
        return results
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one loopbench benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sample", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.sample:
        sys.path.insert(0, str(SRC))
        print(json.dumps(sample(args.workload, args.workdir, bool(args.trace), args.setup_only)))
        return 0

    if not (SRC / "loopbench" / "__init__.py").is_file():
        print(f"error: the loopbench sources are missing under {SRC}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_units = json.loads((EXPECTED / "units.json").read_text())[args.workload]["work_units"]

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        prepare_inputs(args.workload, args.seed, workdir / "input")
        plain, traced = [], []
        began = time.perf_counter()
        setups = []
        while not args.trace and len(setups) < SETUP_SAMPLES:
            probes = spawn_together(args.workload, workdir, [(False, True)] * WORKERS)
            setups += [s["setup_s"] for s in probes]
        while True:
            # With tracing, untraced and traced samples alternate, so that
            # a slot of two holds one of each.
            n = len(plain) + len(traced)
            kinds = [(bool(args.trace) and (n + i) % 2 == 1, False) for i in range(WORKERS)]
            for (want_trace, _), s in zip(kinds, spawn_together(args.workload, workdir, kinds)):
                (traced if want_trace else plain).append(s)
            enough = not args.trace or (plain and traced)
            if enough and time.perf_counter() - began >= args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    taken = plain + traced
    for s in taken:
        for line in s["mismatches"]:
            print(f"mismatch: {line}", file=sys.stderr)
    walls = [s["wall_s"] for s in plain]
    if args.trace:
        values = {
            m["name"]: (statistics.median([s["layers"][m["name"]] for s in traced]), len(traced))
            for m in config["per_layer"]
            if m["name"] != "trace.overhead_s"
        }
        overhead = statistics.median([s["wall_s"] for s in traced]) - statistics.median(walls)
        values["trace.overhead_s"] = (overhead, min(len(traced), len(plain)))
        chosen = config["per_layer"]
    else:
        setup = setups + [s["setup_s"] for s in plain]
        values = {
            "wall_s": (statistics.median(walls), len(walls)),
            "setup_s": (statistics.median(setup), len(setup)),
            "units_per_s": (work_units / statistics.median(walls), len(walls)),
            "peak_rss_mb": (statistics.median([s["rss_mb"] for s in plain]), len(plain)),
        }
        chosen = config["end_to_end"]

    metrics = {}
    for m in chosen:
        value, n = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value:.6g} {m['unit']} (n={n})")
    attempted = sum(s["attempted"] for s in taken)
    failed = sum(s["failed"] for s in taken)
    print(f"fail_share {failed / attempted:.6g} (attempted={attempted} failed={failed})")
    print(f"samples={len(taken)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
