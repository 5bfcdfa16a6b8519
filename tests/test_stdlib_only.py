"""The runtime imports nothing outside the standard library, and the
package exports exactly its public names."""

import subprocess
import sys
import types
from pathlib import Path

import loopbench

# Run with -S, so that no site hook or .pth file loads anything first:
# every module loaded is then one the interpreter itself needs, or one
# that the package imports.  The modules are found by file name, as
# pkgutil.iter_modules would import inspect itself.
IMPORT_ALL = """
import importlib, os, sys
sys.path.insert(0, sys.argv[1])
import loopbench
for name in sorted(os.listdir(loopbench.__path__[0])):
    if name.endswith(".py") and name != "__init__.py":
        importlib.import_module("loopbench." + name[:-3])
print(" ".join(sorted(sys.modules)))
"""

# Slow to import, and what dataclasses loads: a start-up of any loopbench
# command pays for them if one slips back in.  csv is loaded by
# ReportTable.render_csv alone, since only `report --csv` writes CSV.
COLD_START_FREE = {"dataclasses", "inspect", "ast", "dis", "csv"}
# The solver campaign's thread pool and what it loads, with shutil and
# subprocess: only run_campaign and run_solver import them, so that no
# other command pays for them.
CAMPAIGN_ONLY = {"concurrent.futures", "queue", "logging", "shutil", "subprocess"}

# A two-job campaign over two stub solvers, under -S, printing its
# verdicts and whether the pool was loaded before and after the call.
CAMPAIGN = """
import sys
sys.path.insert(0, sys.argv[1])
from pathlib import Path
from loopbench.harness import SolverSpec, run_campaign
before = "concurrent.futures" in sys.modules
tmp = Path(sys.argv[2])
solvers = [SolverSpec(name, "sh -c 'echo " + name + "' {file}") for name in ("unsat", "sat")]
results = run_campaign(solvers, [("A1", tmp / "A1.smt2")], "base", tmp / "log.jsonl", jobs=2)
print(before, "concurrent.futures" in sys.modules)
print(" ".join(sorted(r.verdict.value for r in results)))
"""


def test_every_module_imports_only_the_standard_library():
    src = str(Path(loopbench.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_ALL, src],
        capture_output=True,
        text=True,
        timeout=60,
    )
    # Without site, a third-party import already fails here.
    assert result.returncode == 0, result.stderr
    out = result.stdout.split()
    package = {name for name in out if name.split(".")[0] == "loopbench"}
    assert {"loopbench.cli", "loopbench.interp", "loopbench.harness"} <= package
    outside = {
        name
        for name in out
        if name.split(".")[0] not in sys.stdlib_module_names | {"loopbench", "__main__"}
    }
    assert outside == set()
    assert COLD_START_FREE.isdisjoint(out)
    assert CAMPAIGN_ONLY.isdisjoint(out)


def test_a_campaign_loads_its_thread_pool_itself(tmp_path):
    (tmp_path / "A1.smt2").write_text("(check-sat)\n")
    src = str(Path(loopbench.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-S", "-c", CAMPAIGN, src, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["False True", "countersat proved"]


def test_all_lists_exactly_the_public_names():
    namespace = {}
    exec("from loopbench import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(loopbench.__all__)
    public = {
        name
        for name, value in vars(loopbench).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(loopbench.__all__) == public | {"__version__"}
