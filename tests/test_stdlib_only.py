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
# command pays for them if one slips back in.
COLD_START_FREE = {"dataclasses", "inspect", "ast", "dis"}


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
