"""Deterministic size and work figures, checked against BENCH_sizes.json.

As a script, `PYTHONPATH=src python tests/test_sizes.py > BENCH_sizes.json`
prints them as one sorted JSON object; as a test, it runs itself in a fresh
process and compares that with the committed file.  Figures whose keys start
with "python" are compared only on the Python version that wrote the file.
"""

import argparse
import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLUTIONS = "bench/corpus/solutions.tsv"
# Each runs in a fresh `python -S`, printing a dict of figures last; late: what only run, report --csv load.
FRESH = ["""import sys, loopbench.cli
late = sorted({"subprocess", "shutil", "concurrent.futures", "csv"} & set(sys.modules))
figures = {"python.modules.import": len(sys.modules), "python.modules.late": late}
loopbench.cli.main(["fmt", "x"])
print({**figures, "python.modules.fmt_x": len(sys.modules)})""", f"""import tracemalloc
from loopbench import oeis
tracemalloc.start()
solutions = oeis.load_solutions({SOLUTIONS!r})
print({{"python.corpus_load_bytes": tracemalloc.get_traced_memory()[0]}})"""]


def pass_figures():
    """The work of one in-process `pipeline --dry-run` over the benchmark's corpus."""
    from loopbench import cli, induction, interp, verify

    compiled, closures, costs = [], [0], {"verify": [], "induction": []}
    interp._compile = lambda p, _real=interp._compile: compiled.append(p) or _real(p)
    for stage in (verify, induction):
        def counted(*args, _real=stage.evaluate, _costs=costs[stage.__name__.rpartition(".")[2]], **kwargs):
            outcome = _real(*args, **kwargs)
            _costs.append(outcome.cost)
            return outcome
        stage.evaluate = counted

    def count(frame, event, arg):  # interp's closures: run, read_x and read_y
        code = frame.f_code
        if event == "call" and code.co_name in ("run", "read_x", "read_y") and code.co_filename == interp.__file__:
            closures[0] += 1

    argv = ["pipeline", "--stripped", "bench/corpus/stripped", "--solutions", SOLUTIONS, "--dry-run"]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(count)
        status = cli.main([*argv, "--outdir", tmp])
        sys.setprofile(None)
    if status:
        raise SystemExit(f"pipeline --dry-run exited {status}")
    return {"pass.compiles": len(compiled), "pass.closure_calls": closures[0],
            **{f"pass.evaluate.{name}.calls": len(c) for name, c in costs.items()},
            **{f"pass.evaluate.{name}.units": sum(c) for name, c in costs.items()}}


def figures():
    from loopbench import EvalConfig, SolverSpec, Variant, cli, lang, oeis

    lines = {f"lines.runtime.{p.name}": p.read_bytes().count(b"\n") for p in (ROOT / "src/loopbench").glob("*.py")}
    subs = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = [a for sub in subs.choices.values() for a in sub._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction)]
    fields = {f"config.fields.{cls.__name__}": len(cls._fields) for cls in (EvalConfig, SolverSpec, Variant)}
    # The corpus's compound objects by identity: equal subterms should be one.
    objects = {id(q): q for r in oeis.load_solutions(SOLUTIONS) for side in (r.small, r.fast)
               for q in lang.subprograms(side) if q.args}
    fresh = [ast.literal_eval(subprocess.run([sys.executable, "-S", "-c", code], check=True, capture_output=True,
                                             text=True).stdout.splitlines()[-1]) for code in FRESH]
    return {**lines, "lines.runtime": sum(lines.values()),
            "lines.tests": sum(p.read_bytes().count(b"\n") for p in (ROOT / "tests").glob("*.py")),
            "cli.options": len(options), **fields, "config.fields": sum(fields.values()), **pass_figures(),
            "corpus.compound_objects": len(objects), "corpus.distinct_subterms": len(set(objects.values())),
            **fresh[0], **fresh[1], "python": "{}.{}".format(*sys.version_info)}


def test_figures_match_the_committed_file():
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    fresh, committed = json.loads(out.stdout), json.loads((ROOT / "BENCH_sizes.json").read_text())
    if fresh["python"] != committed["python"]:
        fresh, committed = ({k: v for k, v in d.items() if not k.startswith("python")} for d in (fresh, committed))
    diff = [f"{key}: committed {committed.get(key)}, now {fresh.get(key)}"
            for key in sorted(fresh.keys() | committed.keys()) if fresh.get(key) != committed.get(key)]
    assert not diff, "\n".join([*diff, "regenerate: PYTHONPATH=src python tests/test_sizes.py > BENCH_sizes.json"])


if __name__ == "__main__":
    os.chdir(ROOT)  # the corpus paths are relative, as the command line takes them
    print(json.dumps(figures(), indent=1, sort_keys=True))
