"""Seeded fuzzing of the command line: bad input gives an `error:` line.

Each trial mutates a seed program's text and runs one command on it
through cli.main.  Whatever the text, the command exits 0, 1 or 2
(argparse's usage error), nothing else escapes main, and an exit 1
prints exactly one line, an `error:` line of under 1,000 bytes, on
stderr, unless it is cover's answer "false".
"""

import random
import re

import pytest

from conftest import FIXTURES
from loopbench.cli import main

SEEDS = [
    "loop(x + y, x, 0)",
    "loop2(x + y, x, x, 0, 1)",
    "compr(x mod (2 + 1), x)",
    "if x <= 0 then 1 else (2 * x) div (2 - 1)",
    "cond(x - 2, loop(x * y, x, 2), y)",
]
# Tokens a mutation inserts or swaps in: the language's own, some it does
# not have, non-ASCII digits, literals too long for int() and a long word.
TOKENS = [
    "x", "y", "0", "1", "2", "3", "+", "-", "*", "div", "mod", "(", ")", ",", "<=",
    "cond", "loop", "loop2", "compr", "if", "then", "else", "z", "#",
    "١", "２", "\U0001d7da", "9" * 5_000, "1" + "0" * 300, "a" * 5_000,
]
# Tokens an edit swaps for another of the same kind, so that the text often
# still parses and the command goes on to evaluate it.
KINDS = [{"x", "y", "0", "1", "2"}, {"+", "-", "*", "div", "mod"}, {"loop", "compr"}]
# The operands each command takes after the program text, where {x} and
# {n} are numbers drawn per trial.  seq's count stays small: a long
# sequence would only take longer.
COMMANDS = {
    "fmt": ("fmt",),
    "fmt --if-cond": ("fmt", "--if-cond"),
    "eval": ("eval", "{x}", "{x}"),
    "seq": ("seq", "{n}"),
    "cover": ("cover", "--anum", "A000217", "--stripped", str(FIXTURES / "stripped")),
}
NUMBERS = ["0", "3", "-2", "٢", "9" * 5_000, "1" + "0" * 300]
COUNTS = ["0", "3", "-2", "٢"]


def _mutate(text, rng):
    tokens = re.findall(r"\w+|<=|\S", text)
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(6)
        if edit == 0 or not tokens:
            tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(TOKENS))
        elif edit == 1:
            del tokens[rng.randrange(len(tokens))]
        elif edit == 2:
            tokens[rng.randrange(len(tokens))] = rng.choice(TOKENS)
        else:
            at = rng.randrange(len(tokens))
            kind = next((k for k in KINDS if tokens[at] in k), {tokens[at]})
            tokens[at] = rng.choice(sorted(kind))
    return " ".join(tokens)


def _argv(command, text, rng):
    name, *operands = command
    drawn = {"{x}": NUMBERS, "{n}": COUNTS}
    return [name, text, *(rng.choice(drawn[o]) if o in drawn else o for o in operands)]


@pytest.mark.parametrize("command", COMMANDS)
def test_mutated_program_text_gives_an_error_line_or_a_result(capsys, command):
    rng = random.Random(f"program text {command}")
    codes = set()
    for _ in range(150):
        argv = _argv(COMMANDS[command], _mutate(rng.choice(SEEDS), rng), rng)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        if code == 1 and (out, err) != ("false\n", ""):  # cover's "no" is no error
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
            assert len(lines[0].encode()) < 1_000, argv  # a long token is quoted in part
        codes.add(code)
    # The trials reach both a result and an error.
    assert {0, 1} <= codes
