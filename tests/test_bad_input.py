"""Bad input through cli.main: one table of rows, one harness.

Each row runs one command in a fresh directory that holds only the row's
files, named relative to it (a file given as None is absent).  The
command exits 1 with exactly one line, the row's `error:` line, on
stderr, or 2 with argparse's usage error, whose last line is the row's.
Nothing else escapes main, nothing is printed on stdout, and no file or
directory under the row's directory is created, removed or changed.  A
row's line is exact, or a pattern where the text after a fixed prefix is
Python's own and varies across versions.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from conftest import FIXTURES, fresh_problems, nested_texts
from loopbench import oeis
from loopbench.cli import main
from loopbench.lang import MAX_DEPTH

q = shlex.quote

STRIPPED = (FIXTURES / "stripped").read_text()
SOLUTIONS = (FIXTURES / "solutions.tsv").read_text()
CORPUS = {"stripped": STRIPPED, "solutions.tsv": SOLUTIONS}
# The fixture corpus's manifest as `build` writes it: 7 problems, A165 first.
MANIFEST = "".join(oeis.problem_to_json(p) + "\n" for p in fresh_problems())
CONFIG = {"solvers.json": json.dumps({"solvers": [{"name": "stub", "cmd": "echo unsat {file}"}]})}


def export(*rows, variant="base\n"):
    """The files of an export to smt2/ made by hand, with a solver config:
    each (id, file name) row's script, index.tsv and the variant file
    (None: no variant file)."""
    files = {**CONFIG, **{f"smt2/{name}": "unsat\n" for _, name in rows}}
    files["smt2/index.tsv"] = "".join(f"{pid}\t{name}\n" for pid, name in rows)
    files["smt2/variant"] = variant
    return files


EXPORT = export(("A1", "A1.smt2"))

# The commands, each with its inputs and outputs in the row's directory.
COVER = "cover x --anum A1 --stripped stripped"
BUILD = "build --stripped stripped --solutions solutions.tsv --out out.jsonl"
PIPELINE = "pipeline --stripped stripped --solutions solutions.tsv --outdir out"
STRIPPED_READERS = {"cover": COVER, "build": BUILD, "pipeline": PIPELINE}
SOLUTIONS_READERS = {"build": BUILD, "pipeline": PIPELINE}
MANIFEST_READERS = {
    "verify": "verify --problems problems.jsonl --reports r --nonverified n",
    "filter": "filter --problems problems.jsonl --syn s --sem t",
    "export": "export --problems problems.jsonl --outdir out",
}
RUN = "run --config solvers.json --dir smt2 --log results.jsonl"
REPORT = "report --results results.jsonl --index smt2/index.tsv --syn s --sem t --nonverified n"
LOG_READERS = {"run": RUN, "report": REPORT}


def row(id, argv, err, files=None, code=1):
    """One bad input: the command line, the line stderr ends with, the
    files the command finds and its exit code."""
    return pytest.param(argv, files or {}, code, err, id=id)


def with_first_id(pid):
    """MANIFEST with its first row's id replaced."""
    rows = MANIFEST.splitlines()
    rows[0] = json.dumps({**json.loads(rows[0]), "id": pid})
    return "".join(r + "\n" for r in rows)


def recursion(prefix):
    """The line for JSON nested too deep, whose wording varies with Python."""
    return re.compile(re.escape(f"error: {prefix}: maximum recursion depth exceeded") + ".*")


DEEP = "[" * 100_000 + "]" * 100_000
LITERAL = "9" * 5_000
TOO_LONG = "A" + "9" * 300  # an A-number too long for a script name of its problem
GOOD_PROBLEM = '{"id": "A1", "anums": ["A000001"], "terms": [0, 1], "small": "x", "fast": "x + 0"}'
GOOD_RESULT = '{"id": "A1", "solver": "s", "variant": "base", "verdict": "proved", "wall_time": 0.5}'
TIMEOUT_401 = "must be above 0 and at most 1000000 seconds, got an integer of 401 digits"

# Program text, and where each error is found: positions count the text
# as given, and a character no token spells is found before any grammar error.
PROGRAMS = [
    *zip(nested_texts(MAX_DEPTH + 1), [
        "program deeper than 100 levels (at position 398)",
        "program deeper than 100 levels (at position 398)",
        "nesting deeper than 100 levels (at position 100)",
        "program deeper than 100 levels (at position 0)",
        "program deeper than 100 levels (at position 0)",
    ]),
    ("x" + " + 1" * 600, "program deeper than 100 levels (at position 398)"),
    ("(" * 3000, "nesting deeper than 100 levels (at position 100)"),
]
PARSE_ERRORS = [
    ("loop(", "unexpected token 'end of input' (at position 5)"),
    ("x + ) ^", "unexpected character '^' (at position 6)"),
    ("(" * (MAX_DEPTH + 1) + "=", "unexpected character '=' (at position 101)"),
    ("LOOP(X,\tX)  FOO", "loop takes 3 arguments, got 2 (at position 0)"),
    ("  Loop(x, x, 0)\n  Foo", "trailing input starting with 'foo' (at position 18)"),
    ("x +\n\n  ", "unexpected token 'end of input' (at position 7)"),
    ("x − y", "program text must be ASCII (at position 0)"),
    # A literal of more than 20 digits is quoted by its first 20 and its length.
    ("1" * 20, "integer literal 11111111111111111111 is not one of 0, 1, 2 (at position 0)"),
    ("x + " + "1" * 21,
     "integer literal 11111111111111111111... (21 digits) is not one of 0, 1, 2 (at position 4)"),
    ("x + " + LITERAL,
     "integer literal 99999999999999999999... (5000 digits) is not one of 0, 1, 2 (at position 4)"),
    (f"(x {LITERAL})", "expected ')', found '99999999999999999999... (5000 digits)' (at position 3)"),
    (f"x {LITERAL}", "trailing input starting with '99999999999999999999... (5000 digits)' (at position 2)"),
    # So is a word, by its first 20 letters and its length.
    ("x + " + "a" * 21, "unknown identifier 'aaaaaaaaaaaaaaaaaaaa... (21 characters)' (at position 4)"),
    ("x + " + "a" * 5_000, "unknown identifier 'aaaaaaaaaaaaaaaaaaaa... (5000 characters)' (at position 4)"),
]

# Stripped files, each with the line it is refused with.
STRIPPED_LINES = [
    ("A000001 1,2,3,\n", "stripped:1: terms must be comma-wrapped"),
    ("A000001 ,1,2,3\n", "stripped:1: terms must be comma-wrapped"),
    ("A1x ,1,2,\n", "stripped:1: bad A-number 'A1x'"),
    ("A000001 ,,\n", "stripped:1: no terms for A000001"),
    ("A000001 ,1,two,3,\n", "stripped:1: non-integer term in A000001"),
    ("justonefield\n", "stripped:1: malformed line 'justonefield'"),
    # Each would read as an int() term: Arabic-Indic digits, an underscore
    # between digits, a sign or spaces around a term.
    *((f"A1 {body}\n", "stripped:1: non-integer term in A1")
      for body in [",١,1_0, +3,", ",١٢,", ",1_0,", ",+3,", ", 3,", ",3 ,4,", ",1,\u00a02,"]),
    *((f"A000001 ,0,\nA000002 {body}\n", "stripped:2: empty term in A000002")
      for body in [",1,,2,", ",,1,2,", ",1,2,,", ",,,"]),
    ("A000001 ,1,2,3,\n# note\nA000002 ,1,\nA000001 ,4,5,6,\n",
     "stripped:4: repeated A-number 'A000001' (first on line 1)"),
    # Both would be problem A45: the second row's terms would be lost.
    ("A000045 ,0,1,1,\nA45 ,0,1,1,\n", "stripped:2: repeated A-number 'A45' (first on line 1)"),
    ("A١٢ ,1,2,\n", "stripped:1: bad A-number 'A١٢'"),
]
# Solutions files, each with the line it is refused with.
SOLUTIONS_LINES = [
    ("A000001\tx\n", "solutions.tsv:1: expected 3 tab-separated fields"),
    ("A000001\tx\tnotaprogram(\n", "solutions.tsv:1: unknown identifier 'notaprogram' (at position 0)"),
    ("A000001\tx\tx\n\nB1\tx\tx + 1\n", "solutions.tsv:3: bad A-number 'B1'"),
    # Keeping either row would drop the other's solution from the benchmark.
    ("A1\tx\tx\nA2\tx\tx\nA1\tx\tx + 1\n", "solutions.tsv:3: repeated A-number 'A1' (first on line 1)"),
    ("A000045\tx\tx + 0\nA45\tx\tx * 1\n", "solutions.tsv:2: repeated A-number 'A45' (first on line 1)"),
    ("A١٢\tx\tx + 0\n", "solutions.tsv:1: bad A-number 'A١٢'"),
    # A row skipped for depending on y prints its warning only once the file has loaded.
    ("A1\ty\tx\nA2\tx\tfoo(\n", "solutions.tsv:2: unknown identifier 'foo' (at position 0)"),
]
# Rows of a manifest, each on its line 3, after a good row and a blank line.
MANIFEST_ROWS = [
    ("{}", "missing field 'id'"),
    ('{"id": "A1", "anum": "A1"}', "missing field 'anums'"),
    (GOOD_PROBLEM.replace(', "fast": "x + 0"', ""), "missing field 'fast'"),
    ("[1, 2]", "row must be a JSON object, got list"),
    ('"A1"', "row must be a JSON object, got str"),
    (GOOD_PROBLEM.replace("[0, 1]", '[0, "one"]'), "field 'terms' has a non-integer term 'one'"),
    (GOOD_PROBLEM.replace("[0, 1]", "[0, 1.5]"), "field 'terms' has a non-integer term 1.5"),
    (GOOD_PROBLEM.replace("[0, 1]", "[0, true]"), "field 'terms' has a non-integer term True"),
    (GOOD_PROBLEM.replace("[0, 1]", "7"), "field 'terms' must be a list, got 7"),
    (GOOD_PROBLEM.replace('["A000001"]', "[1]"), "field 'anums' must list strings, got [1]"),
    (GOOD_PROBLEM.replace('"id": "A1"', '"id": 1'), "field 'id' must be a str, got 1"),
    (GOOD_PROBLEM.replace('"x + 0"', "3"), "field 'fast' must be a str, got 3"),
    (GOOD_PROBLEM.replace('"x + 0"', '"x +"'),
     "field 'fast': unexpected token 'end of input' (at position 3)"),
    (GOOD_PROBLEM[:-1] + ', "status": "verifyed"}',
     "field 'status' must be one of unverified, verified, nonverified, refuted, got 'verifyed'"),
    (GOOD_PROBLEM[:-1] + ', "status": null}', "field 'status' must be a str, got None"),
    (GOOD_PROBLEM[:-1] + ', "syn_pass": "false"}', "field 'syn_pass' must be a bool, got 'false'"),
    (GOOD_PROBLEM[:-1] + ', "sem_pass": 1}', "field 'sem_pass' must be a bool, got 1"),
    ("{not json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
]
# Rows of a results log, each on its line 3, after a good row and a blank line.
VERDICTS = "proved, countersat, unknown, timeout, error"
LOG_ROWS = [
    ("{}", "missing field 'id'"),
    ("[1, 2]", "row must be a JSON object, got list"),
    ('"A1"', "row must be a JSON object, got str"),
    (GOOD_RESULT.replace(', "wall_time": 0.5', ""), "missing field 'wall_time'"),
    (GOOD_RESULT.replace('"solver": "s", ', ""), "missing field 'solver'"),
    (GOOD_RESULT.replace('"A1"', "1"), "field 'id' must be a string, got 1"),
    (GOOD_RESULT.replace('"base"', "null"), "field 'variant' must be a string, got None"),
    (GOOD_RESULT.replace("0.5", '"fast"'), "field 'wall_time' must be a number, got 'fast'"),
    (GOOD_RESULT.replace("0.5", "true"), "field 'wall_time' must be a number, got True"),
    (GOOD_RESULT.replace('"proved"', '"solved"'), f"field 'verdict' must be one of {VERDICTS}, got 'solved'"),
    (GOOD_RESULT.replace('"proved"', "[1]"), f"field 'verdict' must be one of {VERDICTS}, got [1]"),
]
# Solver configs, as JSON values, and what is said of each after the path.
CONFIGS = [
    ({"solvers": [{"name": "z3"}]}, "solver 0: missing field 'cmd'"),
    ({"solvers": [{"name": "a", "cmd": "a {file}"}, {"cmd": "b {file}"}]}, "solver 1: missing field 'name'"),
    ({"solvers": [1]}, "solver 0: expected an object, got int"),
    ({"solvers": [{"name": 3, "cmd": "a {file}"}]}, "solver 0: field 'name' must be a string"),
    ({"solvers": [{"name": "a", "cmd": ["a", "{file}"]}]}, "solver 0: field 'cmd' must be a string"),
    *(({"solvers": [{"name": "a", "cmd": "a {file}", "timeout": timeout}]}, f"solver 0: field 'timeout' {said}")
      for timeout, said in [
          ("soon", "must be a number, got 'soon'"),
          (0, "must be finite and above 0, got 0.0"),
          (-1, "must be finite and above 0, got -1.0"),
          ("inf", "must be a number, got 'inf'"),
          ("7", "must be a number, got '7'"),
          (True, "must be a number, got True"),
          (float("inf"), "must be finite and above 0, got inf"),
          (float("nan"), "must be finite and above 0, got nan"),
          (1e9, "must be at most 1000000 seconds, got 1000000000.0"),
          (1e308, "must be at most 1000000 seconds, got 1e+308"),
          (10**6 + 1, "must be at most 1000000 seconds, got 1000001.0"),
          (-(10**400), TIMEOUT_401),
      ]),
    ({"solvers": [{"name": "a", "cmd": "a {file}"}, {"name": "b", "cmd": "b {file}", "timeout": 10**400}]},
     f"solver 1: field 'timeout' {TIMEOUT_401}"),
    ({"solvers": [{"name": "a", "cmd": 'echo "{file}'}]},
     "solver 0: field 'cmd' does not split into words: No closing quotation"),
    ({"solvers": [{"name": "good", "cmd": "echo unsat {file}"}, {"name": "bad", "cmd": 'echo "{file}'}]},
     "solver 1: field 'cmd' does not split into words: No closing quotation"),
    ({"solvers": [{"name": "a", "cmd": "a"}]}, "solver 0: field 'cmd' must contain {file} exactly once"),
    ({"solvers": [{"name": "a", "cmd": "a {file} {file}"}]},
     "solver 0: field 'cmd' must contain {file} exactly once"),
    # Results are keyed by solver name: two solvers named z would share one
    # report column, and a resume would count either one's result as both.
    ({"solvers": [{"name": "z", "cmd": "echo unsat {file}"}, {"name": "z", "cmd": "echo sat {file}"}]},
     "solver 1: name 'z' repeats solver 0"),
    ({"solvers": [{"name": "a", "cmd": "a {file}", "tokens": {"ok": "yes"}}]},
     "solver 0: field 'tokens': 'yes' is not a valid Verdict"),
    # A falsy value is not an absent map: none of these means the default table.
    *(({"solvers": [{"name": "a", "cmd": "a {file}", "tokens": tokens}]},
       "solver 0: field 'tokens' must map lines to verdicts")
      for tokens in (["unsat"], [], None, False, 0, "")),
    ({"provers": []}, 'expected {"solvers": [...]}'),
    ([{"name": "c", "cmd": "c {file}"}], 'expected {"solvers": [...]}'),
]
# Rows of an index.tsv, after a good row, and what is said of each.
INDEX_ROWS = [
    ("\nA1", "3: expected 2 tab-separated fields"),
    ("\nA1\tA1.smt2\textra", "3: expected 2 tab-separated fields"),
    ("\nA1\t", "3: expected 2 tab-separated fields"),
    ("\n\tA1.smt2", "3: expected 2 tab-separated fields"),
    # run would log two results under one (problem, solver, variant) key.
    ("\nA0\tother.smt2", "3: repeated id 'A0' (first on line 1)"),
    # run would hand the solver a file outside the export directory.
    ("A1\t/etc/hostname", "2: filename must be a plain file name, got '/etc/hostname'"),
    ("A1\t../A1.smt2", "2: filename must be a plain file name, got '../A1.smt2'"),
    ("../A1\tA1.smt2", "2: id must be a plain file name, got '../A1'"),
    ("A1 \tA1.smt2", "2: id must be a plain file name, got 'A1 '"),
]
# Commands that read the file `bad` with each reader; `empty` is empty.
UTF8_READERS = {
    "load_stripped": "cover x --anum A1 --stripped bad",
    "load_solutions": "build --stripped stripped --solutions bad --out out.jsonl",
    "load_problems": "verify --problems bad",
    "read_index": "report --results empty --index bad --syn empty --sem empty --nonverified empty",
    "read_manifest": "report --results empty --index empty --syn empty --sem empty --nonverified bad",
    "load_results": "report --results bad --index empty --syn empty --sem empty --nonverified empty",
}
# Flags that were removed: no flag restates the variant an export records,
# the induction filters have one rule, every command runs the budgets of
# the cost model, and report prints its table to stdout only.
REMOVED_FLAGS = [
    (MANIFEST_READERS["export"], "--c2x-appendix"),
    (PIPELINE, "--c2x-appendix"),
    (RUN, "--variant c3"),
    (MANIFEST_READERS["filter"], "--filter-mode per-loop"),
    (PIPELINE, "--filter-mode per-loop"),
    *((argv, f"{flag} 5") for argv, flags in [
        ("eval x 3 0", ["--limit", "--value-bound"]),
        ("seq x 3", ["--limit", "--value-bound"]),
        (COVER, ["--limit", "--value-bound"]),
        (MANIFEST_READERS["verify"], ["--verify-limit", "--value-bound"]),
        (MANIFEST_READERS["filter"], ["--limit", "--value-bound"]),
        (PIPELINE, ["--limit", "--verify-limit", "--value-bound"]),
    ] for flag in flags),
    (REPORT, "--out report.txt"),
]

ROWS = [
    # Program text, through the commands that parse it first.
    *(row(f"{cmd}-program-{i}", f"{cmd} {q(text)}{operands}", f"error: {message}")
      for cmd, operands in [("fmt", ""), ("eval", " 1 0")]
      for i, (text, message) in enumerate(PROGRAMS)),
    *(row(f"fmt-parse-{i}", f"fmt {q(text)}", f"error: {message}")
      for i, (text, message) in enumerate(PARSE_ERRORS)),
    row("eval-div-by-zero", "eval '1 div 0' 0 0", "error: div_by_zero"),
    # compr(1, x) looks for a c with 1 <= 0, which no c has: the search
    # spends the 100,000-unit checking budget of the cost model.
    row("eval-timeout", "eval 'compr(1, x)' 2 0", "error: timeout"),
    row("seq-negative-count", "seq x -1", "error: n must be at least 0, got -1"),
    # Number operands take an optional '-' and ASCII digits, as --stripped
    # terms do; int() alone would take the others.
    *(row(f"{argv.split()[0]}-number-{i}", argv, f"loopbench {argv.split()[0]}: error: {said}", code=2)
      for i, (argv, said) in enumerate([
          ("eval x abc 0", "argument x: invalid int value: 'abc'"),
          ("eval x ٢ 1_0", "argument x: invalid int value: '٢'"),
          ("eval x 0 1_0", "argument y: invalid int value: '1_0'"),
          ("eval x +3 0", "argument x: invalid int value: '+3'"),
          # A long operand is quoted by its first 20 characters and its length.
          (f"eval x {LITERAL} 0", "argument x: invalid int value: '99999999999999999999... (5000 digits)'"),
          (f"eval x 0 -{LITERAL}", "argument y: invalid int value: '-9999999999999999999... (5001 characters)'"),
          (f"seq x {'a' * 5_000}", "argument n: invalid int value: 'aaaaaaaaaaaaaaaaaaaa... (5000 characters)'"),
          ("seq x ' 3 '", "argument n: invalid int value: ' 3 '"),
          (f"{RUN} --jobs ٢", "argument --jobs: invalid int value: '٢'"),
          (f"{RUN} --jobs ' 3 '", "argument --jobs: invalid int value: ' 3 '"),
      ])),
    *(row(f"{argv.split()[0]}-removed{flag.split()[0][1:]}", f"{argv} {flag}",
          f"loopbench: error: unrecognized arguments: {flag}", code=2)
      for argv, flag in REMOVED_FLAGS),
    # Input files, named in each line: a stripped file through cover, a
    # solutions file through build, and a repeated A-number through every
    # command that reads the file.
    *(row(f"cover-stripped-{i}", COVER, f"error: {said}", {**CORPUS, "stripped": text})
      for i, (text, said) in enumerate(STRIPPED_LINES)),
    # int() converts at most 4,300 digits, and says so in its own words.
    row("cover-stripped-long-term", COVER, re.compile(r"error: stripped:2: term of A2: .*"),
        {**CORPUS, "stripped": f"A1 ,1,\nA2 ,{'7' * 5000},\n"}),
    *(row(f"{cmd}-stripped-repeated", argv,
          f"error: stripped:{len(STRIPPED.splitlines()) + 1}: repeated A-number 'A000045' (first on line 2)",
          {**CORPUS, "stripped": STRIPPED + "A000045 ,1,2,3,\n"})
      for cmd, argv in STRIPPED_READERS.items()),
    *(row(f"build-solutions-{i}", BUILD, f"error: {said}", {**CORPUS, "solutions.tsv": text})
      for i, (text, said) in enumerate(SOLUTIONS_LINES)),
    *(row(f"{cmd}-solutions-repeated", argv,
          f"error: solutions.tsv:{len(SOLUTIONS.splitlines()) + 1}: repeated A-number 'A000045' (first on line 1)",
          {**CORPUS, "solutions.tsv": SOLUTIONS + "A000045\tx\tx + 0\n"})
      for cmd, argv in SOLUTIONS_READERS.items()),
    # An output that cannot be written is named as given, not by the
    # temporary file a whole-file write goes through.
    row("build-out-no-directory", BUILD.replace("out.jsonl", "nodir/out.jsonl"),
        "error: [Errno 2] No such file or directory: 'nodir/out.jsonl'", CORPUS),
    row("build-out-directory", BUILD.replace("out.jsonl", "sub"),
        "error: [Errno 21] Is a directory: 'sub'", {**CORPUS, "sub/kept": ""}),
    row("cover-no-sequence", "cover x --anum A000000 --stripped stripped",
        "error: no sequence A000000 in stripped", CORPUS),
    row("build-no-sequence-data", BUILD, "error: no sequence data for A123456",
        {**CORPUS, "solutions.tsv": "A123456\tx\tx + 0\n"}),
    # Every bad manifest row through verify, and three through filter and
    # export as well, which read it with the same loader.
    *(row(f"{cmd}-manifest-{i}", argv, f"error: problems.jsonl:3: {said}",
          {"problems.jsonl": f"{GOOD_PROBLEM}\n\n{text}\n{GOOD_PROBLEM}\n"})
      for cmd, argv in MANIFEST_READERS.items() for i, (text, said) in enumerate(MANIFEST_ROWS)
      if cmd == "verify" or i in (0, 1, 3)),
    *(row(f"{cmd}-repeated-id", argv, "error: problems.jsonl:8: repeated id 'A165' (first on line 1)",
          {"problems.jsonl": MANIFEST + MANIFEST.splitlines()[0] + "\n"})
      for cmd, argv in MANIFEST_READERS.items()),
    # The id names the exported script: "../escaped" would be written
    # beside the outdir, and a tab would break index.tsv.
    *(row(f"{cmd}-id-{i}", argv,
          f"error: problems.jsonl:1: field 'id' must be a plain file name, got {pid!r}",
          {"problems.jsonl": with_first_id(pid)})
      for cmd, argv in MANIFEST_READERS.items()
      for i, pid in enumerate(["../escaped", "a/b", "A1\tx", ".."])),
    *(row(f"{cmd}-deep-json", argv, recursion("problems.jsonl:1"), {"problems.jsonl": DEEP + "\n"})
      for cmd, argv in MANIFEST_READERS.items()),
    *(row(f"export-variant-{i}", f"{MANIFEST_READERS['export']} --variant {q(name)}",
          f"error: unknown conjecture variant {name!r}", {"problems.jsonl": MANIFEST})
      for i, name in enumerate(
          ["c99", "c0", "c9", "c08", "c2y", "succ", "twox", "C1", " c1", "c2x-Appendix", ""])),
    row("export-does-not-lower", MANIFEST_READERS["export"],
        "error: A1: small program depends on y at top level",
        {"problems.jsonl": GOOD_PROBLEM.replace('"small": "x"', '"small": "x + y"') + "\n"}),
    *(row(f"pipeline-variant{mode.replace(' --', '-')}", f"{PIPELINE} --variant c99{mode}",
          "error: unknown conjecture variant 'c99'", CORPUS)
      for mode in ["", " --dry-run"]),
    # A second solution for A000217's pair merges into its problem.
    *(row(f"pipeline-id-too-long{mode.replace(' --', '-')}", PIPELINE + mode,
          f"error: id 'A217-{TOO_LONG}': its script name is over 255 bytes",
          {"stripped": STRIPPED + f"{TOO_LONG} ,0,1,3,\n",
           "solutions.tsv": SOLUTIONS + SOLUTIONS.splitlines()[3].replace("A000217", TOO_LONG) + "\n"})
      for mode in ["", " --dry-run"]),
    # Solver configs, export directories and results logs.
    *(row(f"run-config-{i}", RUN, f"error: solvers.json: {said}",
          {**EXPORT, "solvers.json": json.dumps(data)})
      for i, (data, said) in enumerate(CONFIGS)),
    *(row(f"run-config-{name}", RUN, f"error: solvers.json: {said}", {**EXPORT, "solvers.json": raw})
      for name, raw, said in [
          ("not-json", b"[1,2", "Expecting ',' delimiter: line 1 column 5 (char 4)"),
          ("not-text", b"[\xff]", "'utf-8' codec can't decode byte 0xff in position 1: invalid start byte"),
      ]),
    row("run-config-deep-json", RUN, recursion("solvers.json"),
        {**EXPORT, "solvers.json": '{"solvers": ' + DEEP + "}"}),
    *(row(f"run-jobs-{jobs}", f"{RUN} --jobs {jobs}", f"error: jobs must be at least 1, got {jobs}", EXPORT)
      for jobs in [0, -3]),
    *(row(f"run-variant-{i}", RUN, f"error: {said}", export(("A1", "A1.smt2"), variant=text))
      for i, (text, said) in enumerate([
          (None, "[Errno 2] No such file or directory: 'smt2/variant'"),
          ("c99\n", "smt2/variant: unknown conjecture variant 'c99'"),
          ("c08\n", "smt2/variant: unknown conjecture variant 'c08'"),
          ("base\tc3\n", "smt2/variant: unknown conjecture variant 'base\\tc3'"),
      ])),
    *(row(f"run-index-{i}", RUN, f"error: smt2/index.tsv:{said}",
          {**EXPORT, "smt2/index.tsv": f"A0\tA0.smt2\n{text}\n"})
      for i, (text, said) in enumerate(INDEX_ROWS)),
    # Logged as an error row, a missing script would never be retried.
    row("run-missing-script", RUN, "error: smt2/A2.smt2: no such file for problem A2",
        {**export(("A1", "A1.smt2"), ("A2", "A2.smt2")), "smt2/A2.smt2": None}),
    row("run-solver-not-found", RUN,
        "error: solver 'stub': program 'loopbench-no-such-prover' not found",
        {**EXPORT, "solvers.json": CONFIG["solvers.json"].replace("echo unsat", "loopbench-no-such-prover")}),
    # Every bad log row through report, and two through run as well.
    *(row(f"{cmd}-log-{i}", argv, f"error: results.jsonl:3: {said}",
          {**EXPORT, "results.jsonl": f"{GOOD_RESULT}\n\n{text}\n{GOOD_RESULT}\n"})
      for cmd, argv in LOG_READERS.items() for i, (text, said) in enumerate(LOG_ROWS)
      if cmd == "report" or i < 2),
    # A deep last line with no newline is not taken for a torn write.
    *(row(f"{cmd}-log-deep-json{kind}", argv, recursion("results.jsonl:1"),
          {**EXPORT, "results.jsonl": DEEP + end})
      for cmd, argv in LOG_READERS.items() for kind, end in [("", "\n"), ("-torn", "")]),
    *(row(f"{cmd}-log-not-utf8", argv,
          "error: results.jsonl: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
          {**EXPORT, "results.jsonl": b"\xff\n"})
      for cmd, argv in LOG_READERS.items()),
    *(row(f"report-manifest-{i}", REPORT, f"error: {said}",
          {"results.jsonl": "", "smt2/index.tsv": "A1\tA1.smt2\n", "s": syn, "t": sem, "n": nonver})
      for i, (syn, sem, nonver, said) in enumerate([
          ("", "A1\n", "", "sem manifest is not a subset of syn: ['A1']"),
          ("A2\n", "", "", "syn manifest ids not in the problem set: ['A2']"),
          ("", "", "A9\n", "nonver manifest ids not in the problem set: ['A9']"),
      ])),
    *(row(f"{reader}-not-utf8", argv,
          "error: bad: 'utf-8' codec can't decode byte 0xff in position 3: invalid start byte",
          {**CORPUS, "bad": b"A1\t\xff\n", "empty": ""})
      for reader, argv in UTF8_READERS.items()),
]


def _tree(root):
    """Every path under root, with each file's bytes."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def _refused(capsys, root, argv, code, err):
    """Run argv and check its refusal: the exit code, stderr's one error
    line (or argparse's usage error), no output, and no change under root."""
    before = _tree(root)
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse's usage error
        got = exc.code
    out, stderr = capsys.readouterr()
    assert (got, out) == (code, "")
    if code == 1:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1 and stderr.endswith("\n")
    line = stderr.rstrip("\n").rsplit("\n", 1)[-1]
    assert err.fullmatch(line) if isinstance(err, re.Pattern) else line == err, stderr
    assert _tree(root) == before


@pytest.mark.parametrize("argv, files, code, err", ROWS)
def test_bad_input_is_refused_with_one_error_line(capsys, monkeypatch, tmp_path, argv, files, code, err):
    for name, content in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if content is not None:  # None: the file is absent
            path.write_bytes(content if isinstance(content, bytes) else content.encode())
    monkeypatch.chdir(tmp_path)
    _refused(capsys, tmp_path, shlex.split(argv), code, err)


def test_run_refuses_a_re_export_cut_short(capsys, monkeypatch, tmp_path):
    # export --variant c3 over an export to base is interrupted, as by
    # Ctrl-C, at its 3rd script: the directory holds c3 and base scripts,
    # so run must not log them under either name.
    for name, text in {"problems.jsonl": MANIFEST, **CONFIG}.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    argv = ["export", "--problems", "problems.jsonl", "--outdir", "smt2"]
    assert main([*argv, "--variant", "base"]) == 0
    write_text, scripts = Path.write_text, []

    def cut_at_script_3(path, *args, **kwargs):
        if path.suffix == ".smt2":
            scripts.append(path)
            if len(scripts) == 3:
                raise KeyboardInterrupt
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", cut_at_script_3)
    assert main([*argv, "--variant", "c3"]) == 130
    monkeypatch.setattr(Path, "write_text", write_text)
    assert capsys.readouterr().err.endswith("error: interrupted\n")
    _refused(capsys, tmp_path, RUN.split(), 1, "error: [Errno 2] No such file or directory: 'smt2/variant'")


def test_verify_cut_short_in_its_manifest_write_leaves_the_manifest(capsys, monkeypatch, tmp_path):
    # verify rewrites the manifest it reads; Ctrl-C just after the file it
    # writes is opened must leave the old manifest, and no other file.
    (tmp_path / "problems.jsonl").write_text(MANIFEST)
    monkeypatch.chdir(tmp_path)
    before, open_ = _tree(tmp_path), Path.open

    def interrupt_writes(path, mode="r", *args, **kwargs):
        f = open_(path, mode, *args, **kwargs)
        if "w" in mode:
            f.close()
            raise KeyboardInterrupt
        return f

    monkeypatch.setattr(Path, "open", interrupt_writes)
    assert main(shlex.split(MANIFEST_READERS["verify"])) == 130
    assert capsys.readouterr() == ("", "error: interrupted\n")
    assert _tree(tmp_path) == before
