"""The runtime imports nothing outside the standard library."""

import subprocess
import sys
from pathlib import Path

import loopbench

# Run with -S, so that no site hook or .pth file loads anything first:
# every module loaded is then one the interpreter itself needs, or one
# that the package imports.
IMPORT_ALL = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import loopbench
for module in pkgutil.iter_modules(loopbench.__path__):
    importlib.import_module("loopbench." + module.name)
print(" ".join(sorted(sys.modules)))
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
