"""Per-layer tracing from outside the program.

``Tracer.installed()`` rebinds the module attributes through which
``pipeline``, ``reduction``, ``bounds``, ``nrc`` and the benchmark itself
reach each layer's public functions to timing wrappers, and restores them on
exit.  The program's source is not touched.  Spans stay in memory (name,
start, end, parent span, instance id, a few result fields) and per-layer
metrics are derived from them afterwards.  A function that a later version of
the program no longer has under the same name is an error, so that the change
that renames it also updates ``_TARGETS``.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from decisive import bounds, cli, emit, pipeline, reduction
from decisive.errors import SizeLimitError

from instances import nrc4_guesses

# the package exports a function named nrc, which hides the module attribute
nrc = importlib.import_module("decisive.nrc")

# verdict labels decide() can return in its default "auto" strategy
STAGES = (
    "trivial-small-n",
    "full-locus",
    "triple-gap",
    "rooted",
    "zero-and",
    "quadruple-bound+search",
    "fpt",
    "direct-search",
)


def stage_metric(label: str) -> str:
    return "pipeline.stage." + label.replace("+", "_")


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root span
    instance: str
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _decide_info(verdict) -> dict:
    return {"decided_by": verdict.decided_by}


def _reduce_info(ri) -> dict:
    return {"kernel_rows": ri.n_reduced, "spares": ri.spares}


def _found_info(outcome) -> dict:
    return {"found": outcome.found}


def _text_info(text: str) -> dict:
    return {"bytes": len(text)}  # the emitters write ASCII only


# (module, attribute, span name, result -> info).  A function reached under
# two names (nrc4 from pipeline and from the nrc dispatcher) gets one span
# name for both.
_TARGETS: list[tuple[Any, str, str, Optional[Callable[[Any], dict]]]] = [
    (cli, "parse_pattern_text", "cli.parse", None),
    (pipeline, "decide", "pipeline.decide", _decide_info),
    (bounds, "triple_coverage", "bounds.triple_coverage", None),
    (bounds, "rooted_decide", "bounds.rooted_decide", None),
    (bounds, "lower_bound_screen", "bounds.lower_bound_screen", None),
    (reduction, "reduce_pattern", "reduction.reduce_pattern", _reduce_info),
    (reduction, "zero_and_screen", "reduction.zero_and_screen",
     lambda w: {"hit": w is not None}),
    (reduction, "fpt_nrc4", "reduction.fpt_nrc4", None),
    (reduction, "lift_coloring", "reduction.lift_coloring", None),
    (reduction, "nrc", "reduction.kernel_nrc", _found_info),
    (nrc, "nrc2", "nrc.nrc2", None),
    (nrc, "nrc3", "nrc.nrc3", _found_info),
    (nrc, "nrc4", "nrc.nrc4", _found_info),
    (pipeline, "nrc4", "nrc.nrc4", _found_info),
    (nrc, "non_neighbor_witness", "nrc.non_neighbor_witness", None),
    (pipeline, "build_hypergraph", "core.build_hypergraph", None),
    (pipeline, "verify_no_rainbow", "core.verify_no_rainbow", None),
    (emit, "emit_ilp", "emit.emit_ilp", None),
    (emit.IlpModel, "to_lp_text", "emit.lp_text", _text_info),
    (emit, "emit_cnf", "emit.emit_cnf", None),
    (emit.CnfFormula, "to_dimacs", "emit.dimacs", _text_info),
]

# arguments worth keeping on a span: the searched node count and color count
_ARG_INFO = {
    "nrc.nrc4": lambda args, kwargs: {"nodes": args[0].node_count},
    "reduction.kernel_nrc": lambda args, kwargs: {"r": args[1]},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instance = ""
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable, info: Optional[Callable]) -> Callable:
        arg_info = _ARG_INFO.get(name)

        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(),
                        self._stack[-1] if self._stack else -1, self.instance)
            if arg_info is not None:
                span.info.update(arg_info(args, kwargs))
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.info.update(info(result))
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, info in _TARGETS:
                if not hasattr(owner, attr):
                    raise AttributeError(f"cannot trace {name}: "
                                         f"{owner.__name__}.{attr} is gone")
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, info))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._stack.clear()

    # ----------------------------------------------------------------------
    # derived metrics
    # ----------------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        own = self.self_times()

        def named(name: str) -> list[int]:
            return [i for i, s in enumerate(spans) if s.name == name]

        def total(name: str) -> float:
            return sum(spans[i].duration for i in named(name))

        def self_total(name: str) -> float:
            return sum(own[i] for i in named(name))

        def count(name: str, pred: Callable[[Span], bool] = lambda s: True) -> int:
            return sum(1 for i in named(name) if pred(spans[i]))

        decides = [spans[i] for i in named("pipeline.decide")]
        m: dict[str, float] = {
            "cli.parse_s": total("cli.parse"),
            "pipeline.decide_self_s": self_total("pipeline.decide"),
        }
        for label in STAGES:
            m[stage_metric(label)] = sum(
                1 for s in decides if s.info.get("decided_by") == label
            )
        m["pipeline.stage.refused"] = sum(
            1 for s in decides if s.info.get("error") == SizeLimitError.__name__
        )

        m["bounds.triple_coverage_s"] = total("bounds.triple_coverage")
        m["bounds.triple_coverage_calls"] = count("bounds.triple_coverage")
        m["bounds.rooted_decide_s"] = total("bounds.rooted_decide")
        m["bounds.lower_bound_screen_s"] = total("bounds.lower_bound_screen")
        m["bounds.lower_bound_refusals"] = count(
            "bounds.lower_bound_screen",
            lambda s: s.info.get("error") == SizeLimitError.__name__,
        )

        reduces = [spans[i] for i in named("reduction.reduce_pattern")]
        first_reduce: dict[str, Span] = {}
        for s in reduces:
            first_reduce.setdefault(s.instance, s)
        m["reduction.reduce_pattern_s"] = total("reduction.reduce_pattern")
        m["reduction.reduce_pattern_calls"] = len(reduces)
        m["reduction.kernel_rows_max"] = max(
            (s.info.get("kernel_rows", 0) for s in reduces), default=0
        )
        m["reduction.spares_total"] = sum(
            s.info.get("spares", 0) for s in first_reduce.values()
        )
        m["reduction.zero_and_screen_s"] = total("reduction.zero_and_screen")
        m["reduction.zero_and_hits"] = count(
            "reduction.zero_and_screen", lambda s: s.info.get("hit", False)
        )
        m["reduction.fpt_nrc4_self_s"] = self_total("reduction.fpt_nrc4")
        m["reduction.lift_coloring_s"] = total("reduction.lift_coloring")

        found = lambda s: s.info.get("found", False)  # noqa: E731
        m["nrc.nrc4_s"] = total("nrc.nrc4")
        m["nrc.nrc4_calls"] = count("nrc.nrc4")
        m["nrc.nrc4_found"] = count("nrc.nrc4", found)
        m["nrc.nrc3_s"] = total("nrc.nrc3")
        m["nrc.nrc3_calls"] = count("nrc.nrc3")
        m["nrc.nrc3_found"] = count("nrc.nrc3", found)
        m["nrc.nrc2_s"] = total("nrc.nrc2")
        m["nrc.non_neighbor_witness_s"] = total("nrc.non_neighbor_witness")
        exhausted = [
            spans[i] for i in named("nrc.nrc4")
            if "found" in spans[i].info and not spans[i].info["found"]
        ]
        guesses = sum(nrc4_guesses(s.info["nodes"]) for s in exhausted)
        m["nrc.nrc4_ns_per_guess"] = (
            sum(s.duration for s in exhausted) * 1e9 / guesses if guesses else 0.0
        )
        r23 = [
            spans[i] for i in named("reduction.kernel_nrc")
            if spans[i].info.get("r") in (2, 3)
        ]
        m["nrc.kernel_r23_useful_ratio"] = (
            sum(1 for s in r23 if found(s)) / len(r23) if r23 else 0.0
        )

        m["core.build_hypergraph_s"] = total("core.build_hypergraph")
        m["core.build_hypergraph_calls"] = count("core.build_hypergraph")
        m["core.verify_no_rainbow_s"] = total("core.verify_no_rainbow")

        m["emit.emit_ilp_s"] = total("emit.emit_ilp")
        m["emit.lp_text_s"] = total("emit.lp_text")
        m["emit.emit_cnf_s"] = total("emit.emit_cnf")
        m["emit.dimacs_s"] = total("emit.dimacs")
        m["emit.bytes_out"] = sum(
            spans[i].info.get("bytes", 0)
            for i in named("emit.lp_text") + named("emit.dimacs")
        )
        return m

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "instance": s.instance, **s.info}
            for s in self.spans
        ]
