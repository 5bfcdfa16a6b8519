"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line when it succeeds; a failing
criterion fails its test.  Expected values are frozen literals, not
recomputed.
"""

import random
import stat
import time

from loopbench.harness import RunResult, SolverSpec, Verdict, aggregate, run_campaign
from loopbench.induction import classify, classify_all, is_acyclic_window
from loopbench.interp import (
    CHECK_LIMIT,
    VERIFY_LIMIT,
    Budget,
    ErrorKind,
    EvalConfig,
    VERIFY_CONFIG,
    evaluate,
    generate_seq,
)
from loopbench.lang import parse
from loopbench.oeis import ProblemRecord, build_problems
from loopbench.smt import BASE, Variant, emit, export_all
from loopbench.verify import verify_all
from oracles import brute_cyclic, check_smt_script, random_program
from test_smt import (
    DOUBLE_FACTORIAL_ASSERTS,
    DOUBLE_FACTORIAL_CONJECTURE,
    FIB_ASSERTS,
    FIB_SUCC1_CONJECTURE,
    PARITY_ASSERTS,
    PARITY_TWOX_CONJECTURE,
    cosimulate,
)

DOUBLE_FACTORIALS = [
    1, 2, 8, 48, 384, 3840, 46080, 645120, 10321920, 185794560,
    3715891200, 81749606400, 1961990553600, 51011754393600,
    1428329123020800, 42849873690624000, 1371195958099968000,
    46620662575398912000, 1678343852714360832000,
    63777066403145711616000,
]
PARITY_TERMS = [0, 4, 6, 11, 12, 16, 18, 23, 24, 28, 30, 35, 36, 40, 42, 47, 48, 52, 54, 59]
FIBONACCI = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584, 4181]


def _pass(n, msg):
    print(f"[criterion {n}] PASS: {msg}")


def _timed_terms(text, n):
    start = time.monotonic()
    outcomes = generate_seq(parse(text), n)
    elapsed = time.monotonic() - start
    assert all(o.ok for o in outcomes)
    return [o.value for o in outcomes], elapsed


def test_criterion_1_pinned_term_lists(problems_by_id):
    checks = [
        ("loop(2 * (x * y), x, 1)", DOUBLE_FACTORIALS),
        ("loop(x + x, x, 1) * loop(x * y, x, 1)", DOUBLE_FACTORIALS),
        ("((((((x div 2) * x) mod 2) + (x mod 2)) + x) + x) + x", PARITY_TERMS),
        ("(loop(loop(1, 2 - (x mod (2 + 2)), 2) + x, x mod 2, x) + x) + x", PARITY_TERMS),
        ("loop2(x + y, x, x, 0, 1)", FIBONACCI),
        ("if x <= 0 then 0 else loop2(x + y, x, x - 2, 1, 1)", FIBONACCI),
    ]
    for text, expected in checks:
        values, elapsed = _timed_terms(text, 20)
        assert values == expected, text
        assert elapsed < 1.0, (text, elapsed)
    _pass(1, "six program sides reproduce their pinned 20-term sequences in under 1s each")


def test_criterion_2_side_equality(problems_by_id):
    def both(problem, x):
        cfg = VERIFY_CONFIG
        small = evaluate(problem.small, x, 0, Budget(cfg.per_call_limit), cfg)
        fast = evaluate(problem.fast, x, 0, Budget(cfg.per_call_limit), cfg)
        assert small.ok and fast.ok, (problem.id, x)
        assert small.value == fast.value, (problem.id, x)

    for x in range(100):
        both(problems_by_id["A217"], x)
    for pid in ("A537", "A45-A77373", "A79", "A165"):
        for x in range(31):
            both(problems_by_id[pid], x)
    _pass(2, "small = fast on 0..99 for the triangular pair and 0..30 for four more")


def test_criterion_3_resource_limits():
    squaring = parse("loop(x * x, x, 2)")
    out = evaluate(squaring, 9)
    assert out.value == 2**512
    assert out.cost < CHECK_LIMIT
    assert evaluate(squaring, 10).error == ErrorKind.OVERFLOW

    busy = parse("loop(x, loop(x + x, 2 * ((2 + 2) + (2 + 2)), 1), 0)")
    assert evaluate(busy, 1).error == ErrorKind.TIMEOUT
    assert evaluate(busy, 1, budget=Budget(VERIFY_LIMIT)).ok
    _pass(3, "2^512 fits the checking budget, 2^1024 overflows, the busy loop only passes at 1M")


def test_criterion_4_verification_statuses(problems):
    reports = {r.problem_id: r for r in verify_all(problems)[1]}
    for pid in ("A217", "A537", "A79", "A45-A77373", "A180713"):
        assert reports[pid].status == "verified", pid
        assert reports[pid].checked_upto == 100
    assert reports["A165"].status == "nonverified"
    assert reports["A165"].failure == (81, "timeout")
    assert reports["A999999"].status == "refuted"
    assert reports["A999999"].failure == (2, "2 != 4")
    _pass(4, "fixture corpus verifies 5/1/1 with the pinned failure points")


def test_criterion_5_filters(problems_by_id):
    cfg = EvalConfig(per_call_limit=2000)
    rng = random.Random(20250817)
    pairs = syn_count = sem_count = 0
    while pairs < 200:
        small = random_program(rng, 3)
        fast = random_program(rng, 3)
        if small == fast:
            continue
        pairs += 1
        pr = ProblemRecord(f"R{pairs}", ["A000001"], [], small, fast)
        syn, sem = classify(pr, cfg)
        assert syn or not sem, (pr.small, pr.fast)
        syn_count += syn
        sem_count += sem
    assert syn_count > 0 and sem_count > 0  # the sample exercises both filters

    rng = random.Random(11)
    for _ in range(10_000):
        window = [rng.randrange(4) for _ in range(40)]
        assert is_acyclic_window(window) == (not brute_cyclic(window))

    assert classify(problems_by_id["A217"]) == (True, True)
    constant_bound = ProblemRecord(
        "C1", ["A000001"], [], parse("loop(x + y, 2, 0)"), parse("x + 1")
    )
    assert classify(constant_bound) == (False, False)
    _pass(5, "sem implies syn on 200 random pairs, window test matches a 10k-sample oracle")


def test_criterion_6_smt_export(problems, problems_by_id):
    for pid, variant, asserts, conj in (
        ("A165", BASE, DOUBLE_FACTORIAL_ASSERTS, DOUBLE_FACTORIAL_CONJECTURE),
        ("A45-A77373", Variant("c1"), FIB_ASSERTS, FIB_SUCC1_CONJECTURE),
        ("A180713", Variant("c2x-appendix"), PARITY_ASSERTS, PARITY_TWOX_CONJECTURE),
    ):
        script = emit(problems_by_id[pid], variant)
        assert script.endswith(f"{asserts}\n{conj}\n(check-sat)\n"), pid

    for problem in problems:
        if problem.id != "A999999":
            for variant in (BASE, Variant("c2"), Variant("c2x"), Variant("strong")):
                check_smt_script(emit(problem, variant))
    _pass(6, "three known-good scripts match frozen text; all exports pass the surface check")


def test_criterion_7_lowering_cosimulation(problems):
    compared = 0
    for problem in problems:
        if problem.id == "A999999":
            continue
        result = cosimulate(problem.small, problem.fast, range(31))
        assert result.disagree == [], problem.id
        assert not result.negative_divmod, problem.id
        compared += result.agree
    assert compared >= 6 * 25
    _pass(7, f"definition-level evaluation agrees with the interpreter on {compared} points")


def test_criterion_8_solver_harness(problems, tmp_path):
    exported = export_all(problems, tmp_path / "smt", BASE)
    files = [(pid, tmp_path / "smt" / fname) for pid, fname in exported[:2]]

    def script(name, body):
        path = tmp_path / name
        path.write_text("#!/bin/sh\n" + body)
        path.chmod(path.stat().st_mode | stat.S_IEXEC)
        return path

    fast_yes = script("yes.sh", "echo unsat\n")
    fast_no = script("no.sh", "echo sat\n")
    slow = script("slow.sh", "sleep 30\necho unsat\n")
    solvers = [
        SolverSpec("yes", f"{fast_yes} {{file}}"),
        SolverSpec("no", f"{fast_no} {{file}}"),
        SolverSpec("slow", f"{slow} {{file}}", timeout=0.3),
    ]
    log = tmp_path / "results.jsonl"
    start = time.monotonic()
    results = run_campaign(solvers, files, "base", log, jobs=3)
    assert time.monotonic() - start < 10  # the sleeping solver was killed
    verdicts = {(r.solver, r.problem_id): r.verdict for r in results}
    assert len(results) == 6
    assert all(verdicts[("yes", pid)] == Verdict.PROVED for pid, _ in files)
    assert all(verdicts[("no", pid)] == Verdict.COUNTERSAT for pid, _ in files)
    assert all(verdicts[("slow", pid)] == Verdict.TIMEOUT for pid, _ in files)
    assert run_campaign(solvers, files, "base", log) == []  # resume is a no-op

    ids = [pid for pid, _ in files]
    extra = [RunResult(ids[1], "other", "base", Verdict.PROVED, 0.1)]
    table = aggregate(results + extra, ids, ids[:1], [], ids[1:])
    assert table.cells["NoFilt"]["yes/base"] == 2
    assert table.cells["NoFilt"]["All"] == 2  # union across methods
    assert table.cells["SynFilt"]["other/base"] == 0
    anomalous = {(r.problem_id, r.solver) for r in table.anomalies}
    assert anomalous == {(ids[0], "no")}  # countersat flagged only on the verified problem
    _pass(8, "stub campaign maps verdicts, kills on timeout, resumes idempotently, tallies the union")


def test_criterion_9_pipeline_funnel(solutions, sequences):
    problems = build_problems(solutions, sequences)
    assert len(solutions) == 8
    assert len(problems) == 7  # two solutions share one problem
    merged = next(p for p in problems if p.id == "A45-A77373")
    assert merged.anums == ("A000045", "A077373")

    problems, _ = verify_all(problems)
    statuses = [p.status for p in problems]
    assert statuses.count("verified") == 5
    assert statuses.count("nonverified") == 1
    assert statuses.count("refuted") == 1

    problems = classify_all(problems)
    exported_ids = {p.id for p in problems if p.status != "refuted"}
    syn_ids = {p.id for p in problems if p.syn_pass}
    sem_ids = {p.id for p in problems if p.sem_pass}
    nonver_ids = {p.id for p in problems if p.status == "nonverified"}
    assert set(sem_ids) <= set(syn_ids) <= exported_ids
    assert nonver_ids <= exported_ids
    assert len(exported_ids) == 6
    assert (len(syn_ids), len(sem_ids)) == (6, 5)
    _pass(9, "8 solutions -> 7 problems -> 5/1/1 statuses -> 6 exported with syn 6 / sem 5 nested")
