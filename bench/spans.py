"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of the loopbench modules where their
callers look them up, so a traced run records a span around every call
into a module from another one, or from the benchmark itself.  Each span
keeps its name, start, end, parent and a few attributes taken from the
call's result; spans stay in memory and are written out once, at the
end.  Spans inside the modules are not recorded.

`evaluate` is called hundreds of thousands of times in one pass, so its
calls are not kept as spans: each call's time, units and error kind are
added to the calling span instead, which still covers that time when the
caller's self time is computed.  A layer's self time is the duration of
its spans minus the part of that interval their child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import loopbench
from loopbench import cli, harness, induction, interp, lang, oeis, smt, verify

# The package's modules, as callers that may have imported a function by name.
MODULES = (loopbench, cli, harness, induction, interp, lang, oeis, smt, verify)

# (module, public function) pairs that get a span.
SPANNED = {
    lang: ("parse", "to_text"),
    oeis: ("load_stripped", "load_solutions", "build_problems", "save_problems",
           "load_problems", "covers"),
    interp: ("generate_seq",),
    verify: ("verify_all", "verify100", "save_reports", "emit_nonverified"),
    induction: ("classify_all", "classify", "acyclic_on", "write_manifest"),
    smt: ("emit", "export_all"),
    harness: ("run_campaign", "run_solver", "load_results"),
}
ERROR_KINDS = tuple(kind.value for kind in interp.ErrorKind)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "attrs", "leaf_s", "leaf")

    def __init__(self, span_id: int, name: str, parent: "Span | None"):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs: dict = {}
        self.leaf_s = 0.0  # time of folded evaluate calls made from this span
        self.leaf: Counter = Counter()  # their calls, units and errors

    def to_json(self) -> str:
        return json.dumps({
            "id": self.id,
            "name": self.name,
            "parent": self.parent.id if self.parent else None,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
            "evaluate_s": self.leaf_s,
            "evaluate": dict(self.leaf),
        })


class Tracer:
    """Spans of one process, kept in memory until `write`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.root = Span(0, "bench", None)
        self.root.start = time.perf_counter()
        self.labels: dict[int, str] = {}  # id(program) -> kernel name
        self.kernel = defaultdict(Counter)  # kernel name -> units, ns
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()
        self._next_id = 1

    def _stack(self) -> list[Span]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def current(self) -> Span:
        """Innermost open span of this thread; a worker thread's calls
        belong to the span open in the main thread."""
        stack = self._stack()
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        return main[-1] if main else self.root

    @contextlib.contextmanager
    def span(self, name: str):
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(span_id, name, self.current())
        stack = self._stack()
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def wrap_evaluate(self, caller: str, fn):
        tracer = self

        def traced(p, *args, **kwargs):
            parent = tracer.current()
            start = time.perf_counter_ns()
            outcome = fn(p, *args, **kwargs)
            ns = time.perf_counter_ns() - start
            parent.leaf_s += ns / 1e9
            leaf = parent.leaf
            leaf["calls"] += 1
            leaf["units"] += outcome.cost
            leaf["units." + caller] += outcome.cost
            if outcome.error is not None:
                leaf[outcome.error.value] += 1
            label = tracer.labels.get(id(p))
            if label is not None:
                k = tracer.kernel[label]
                k["units"] += outcome.cost
                k["ns"] += ns
            return outcome

        traced.__wrapped__ = fn
        return traced

    def finish(self) -> None:
        self.root.end = time.perf_counter()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as sink:
            for span in [self.root, *self.spans]:
                sink.write(span.to_json() + "\n")


def _replace_everywhere(original, replacement_for, undo: list) -> None:
    """Rebind every module attribute that is `original`."""
    for module in MODULES:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement_for(module))
                undo.append((module, attr, original))


# Attributes taken from a call's arguments and result, after its span ended.


def _record_verify(span: Span, args, kwargs, report) -> None:
    span.attrs["status"] = report.status


def _record_classify(span: Span, args, kwargs, result) -> None:
    span.attrs["syn"], span.attrs["sem"] = result


def _record_parse(span: Span, args, kwargs, program) -> None:
    span.attrs["nodes"] = lang.size(program)


def _record_count(span: Span, args, kwargs, result) -> None:
    span.attrs["items"] = len(result)


def _record_export(span: Span, args, kwargs, index) -> None:
    outdir = Path(args[1] if len(args) > 1 else kwargs["outdir"])
    span.attrs["items"] = len(index)
    span.attrs["bytes"] = sum((outdir / name).stat().st_size for _, name in index)


def _record_campaign(span: Span, args, kwargs, results) -> None:
    span.attrs["items"] = len(results)
    span.attrs["busy_s"] = sum(r.wall_time for r in results)
    span.attrs["verdicts"] = dict(Counter(r.verdict.value for r in results))


RECORDERS = {
    "verify.verify100": _record_verify,
    "induction.classify": _record_classify,
    "lang.parse": _record_parse,
    "oeis.build_problems": _record_count,
    "oeis.load_problems": _record_count,
    "harness.run_campaign": _record_campaign,
    "smt.export_all": _record_export,
}


def instrument(tracer: Tracer) -> list:
    """Wrap the package's public functions in every module that holds them.

    Returns what `uninstrument` needs to put the originals back.
    """
    undo: list = []
    for module, names in SPANNED.items():
        layer = module.__name__.rsplit(".", 1)[-1]
        for name in names:
            original = getattr(module, name)
            span_name = f"{layer}.{name}"
            wrapped = tracer.wrap(span_name, original, RECORDERS.get(span_name))
            _replace_everywhere(original, lambda _module, w=wrapped: w, undo)
    evaluate = interp.evaluate
    _replace_everywhere(
        evaluate,
        lambda module: tracer.wrap_evaluate(module.__name__.rsplit(".", 1)[-1], evaluate),
        undo,
    )
    return undo


def uninstrument(undo: list) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


# Per-layer metrics.


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _quantile_ms(durations: list[float], q: int) -> float:
    """q-th percentile in ms; the single value when there is one."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(tracer: Tracer, kernels: tuple[str, ...]) -> dict[str, float]:
    """Per-layer metrics of one traced process, from its spans."""
    spans = tracer.spans
    children = defaultdict(list)
    for s in spans:
        children[s.parent.id].append((s.start, s.end))
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_s(*names: str) -> float:
        return sum(
            (s.end - s.start) - _covered(children[s.id]) - s.leaf_s
            for name in names
            for s in by_name[name]
        )

    def total_s(name: str) -> float:
        return sum(s.end - s.start for s in by_name[name])

    def durations(name: str) -> list[float]:
        return [s.end - s.start for s in by_name[name]]

    leaf = Counter()
    leaf_s = 0.0
    for s in [tracer.root, *spans]:
        leaf.update(s.leaf)
        leaf_s += s.leaf_s

    m: dict[str, float] = {}
    m["interp.calls"] = leaf["calls"]
    m["interp.units"] = leaf["units"]
    for kind in ERROR_KINDS:
        m[f"interp.{kind}"] = leaf[kind]
    m["interp.units_per_s"] = leaf["units"] / leaf_s if leaf_s else 0.0
    for name in kernels:
        k = tracer.kernel[name]
        m[f"interp.kernel.{name}.units_per_s"] = k["units"] / (k["ns"] / 1e9) if k["ns"] else 0.0

    checks = by_name["verify.verify100"]
    m["verify.s"] = total_s("verify.verify_all")
    m["verify.units"] = leaf["units.verify"]
    m["verify.problem_p50_ms"] = _quantile_ms(durations("verify.verify100"), 50)
    m["verify.problem_p90_ms"] = _quantile_ms(durations("verify.verify100"), 90)
    for status in ("verified", "nonverified", "refuted"):
        m[f"verify.{status}"] = sum(1 for s in checks if s.attrs.get("status") == status)
    wasted = sum(s.leaf["units"] for s in checks if s.attrs.get("status") == "nonverified")
    m["verify.timeout_units_share"] = wasted / leaf["units.verify"] if leaf["units.verify"] else 0.0

    classified = by_name["induction.classify"]
    m["induction.s"] = total_s("induction.classify_all")
    m["induction.units"] = leaf["units.induction"]
    m["induction.acyclic_calls"] = len(by_name["induction.acyclic_on"])
    m["induction.problem_p90_ms"] = _quantile_ms(durations("induction.classify"), 90)
    m["induction.syn"] = sum(1 for s in classified if s.attrs.get("syn"))
    m["induction.sem"] = sum(1 for s in classified if s.attrs.get("sem"))

    parse_s = self_s("lang.parse")
    nodes = sum(s.attrs.get("nodes", 0) for s in by_name["lang.parse"])
    m["lang.parse_s"] = parse_s
    m["lang.parse_nodes_per_s"] = nodes / parse_s if parse_s else 0.0
    m["lang.to_text_s"] = self_s("lang.to_text")

    m["oeis.load_s"] = self_s("oeis.load_stripped", "oeis.load_solutions", "oeis.load_problems")
    m["oeis.build_s"] = self_s("oeis.build_problems")
    m["oeis.save_s"] = self_s("oeis.save_problems")
    m["oeis.problems"] = sum(
        s.attrs.get("items", 0) for s in by_name["oeis.build_problems"] + by_name["oeis.load_problems"]
    )

    exports = by_name["smt.export_all"]
    m["smt.emit_s"] = self_s("smt.emit")
    m["smt.write_s"] = self_s("smt.export_all")
    m["smt.scripts"] = len(by_name["smt.emit"])
    m["smt.bytes"] = sum(s.attrs.get("bytes", 0) for s in exports)

    campaigns = by_name["harness.run_campaign"]
    m["harness.campaign_s"] = sum(s.end - s.start for s in campaigns if s.attrs.get("items"))
    m["harness.resume_s"] = sum(s.end - s.start for s in campaigns if not s.attrs.get("items"))
    m["harness.solver_busy_s"] = sum(s.attrs.get("busy_s", 0.0) for s in campaigns)
    m["harness.call_p50_ms"] = _quantile_ms(durations("harness.run_solver"), 50)
    m["harness.call_p90_ms"] = _quantile_ms(durations("harness.run_solver"), 90)
    verdicts = Counter()
    for s in campaigns:
        verdicts.update(s.attrs.get("verdicts", {}))
    for verdict in harness.Verdict:
        m[f"harness.verdict.{verdict.value}"] = verdicts[verdict.value]
    return m


def unit_counts(tracer: Tracer) -> dict[str, int]:
    """The abstract-cost counts that the committed gate pins."""
    leaf = Counter()
    for s in [tracer.root, *tracer.spans]:
        leaf.update(s.leaf)
    counts = {"interp.calls": leaf["calls"], "interp.units": leaf["units"]}
    for kind in ERROR_KINDS:
        counts[f"interp.{kind}"] = leaf[kind]
    for caller in ("verify", "induction", "interp", "loopbench"):
        counts[f"units.{caller}"] = leaf["units." + caller]
    return counts
