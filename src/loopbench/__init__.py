"""Loop-program benchmark toolkit.

Parse and print a small loop language, evaluate programs under an
abstract time budget, group OEIS solutions into equivalence problems,
verify and filter them, and export SMT-LIB conjectures for inductive
theorem provers.
"""

from .lang import (
    Op,
    ParseError,
    Program,
    depends_on,
    parse,
    size,
    to_text,
)
from .interp import (
    Budget,
    ErrorKind,
    EvalConfig,
    EvalOutcome,
    evaluate,
    generate_seq,
)
from .oeis import (
    ProblemRecord,
    SequenceRecord,
    SolutionRecord,
    build_problems,
    covers,
    load_problems,
    load_solutions,
    load_stripped,
    save_problems,
)
from .verify import VerifyReport, verify100, verify_all
from .induction import classify, classify_all, select_top_loops
from .smt import Variant, emit, export_all, parse_variant
from .harness import RunResult, SolverSpec, aggregate, run_campaign

__version__ = "0.1.0"

# The names imported above from the package's modules, so that each is
# written once, and the version.
__all__ = [
    name for name, value in globals().items()
    if getattr(value, "__module__", "").startswith("loopbench.")
] + ["__version__"]
