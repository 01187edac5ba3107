"""Span tracing of satguide's layers, installed from outside the package.

`Tracer.install()` replaces public functions and methods of the satguide
modules with wrappers that record a span per call: a name, start and end
time, and the id of the enclosing span. It patches the name in every
module that calls it, because satguide modules bind imported functions in
their own namespace (`saturation.resolve` is what the search calls, not
`rules.resolve`). `uninstall()` puts the originals back. Nothing inside
`src/` changes.

Spans live in flat in-memory arrays while the run lasts and are written
to one `.npz` file when it ends. A layer's self time is its spans'
duration minus the time covered by their direct child spans, so the self
times of all spans add up to the duration of the root spans.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

import satguide.datagen as datagen
import satguide.guidance as guidance
import satguide.heuristics as heuristics
import satguide.neural.models as models
import satguide.neural.tensor as tensor
import satguide.parser as parser
import satguide.premsel as premsel
import satguide.rules as rules
import satguide.saturation as saturation

# `satguide.neural.train` the module is shadowed by `train` the function in
# the package namespace
train = importlib.import_module("satguide.neural.train")

def _searched(counts, args, result):
    counts["saturation.processed"] += result.processed_count
    counts["saturation.generated"] += result.generated_count
    counts["saturation.discarded_given"] += result.state.discarded_given


def _subsumed(counts, args, result):
    counts["rules.subsumes_hits"] += bool(result)


def _ranked(counts, args, result):
    counts["premsel.premises_ranked"] += len(result.order)


def _cascaded(counts, args, result):
    counts["premsel.levels_tried"] += len(result.levels_attempted)


def _labeled(counts, args, result):
    counts["datagen.examples"] += len(result)


# (owner, attribute, span name[, hook]). An owner is a module or a class;
# the same function is patched in each module that imported it. A hook
# sees the call's arguments and result and adds to the tracer's counts.
SPANS = [
    (parser, "parse_tptp", "parser"),
    (saturation, "prove", "saturation", _searched),
    (guidance, "prove", "saturation", _searched),
    (premsel, "prove", "saturation", _searched),
    (datagen, "prove", "saturation", _searched),
    (saturation, "resolve", "rules.resolve"),
    (saturation, "factor", "rules.factor"),
    (saturation, "is_tautology", "rules.tautology"),
    (saturation, "subsumes", "rules.subsumes", _subsumed),
    (rules, "rename_clause_apart", "fol.rename_apart"),
    (saturation, "canonical_key", "fol.canonical_key"),
    (heuristics.SelectionSchedule, "insert", "heuristics.insert"),
    (heuristics.SelectionSchedule, "pop_next", "heuristics.pop"),
    (guidance.ClauseScorer, "score_batch", "guidance.score_batch"),
    (guidance.ClauseScorer, "__init__", "guidance.conj_embed"),
    (guidance, "tokenize", "tokens.tokenize"),
    (guidance, "tokenize_conjecture", "tokens.tokenize"),
    (premsel, "tokenize_texts", "tokens.tokenize"),
    (guidance, "embed_sequence", "neural.embed"),
    (guidance, "embed_sequences", "neural.embed"),
    (premsel, "embed_sequence", "neural.embed"),
    (guidance, "combiner_logit", "neural.combiner"),
    (premsel, "combiner_logit", "neural.combiner"),
    (premsel, "rank_premises", "premsel.rank", _ranked),
    (premsel, "cascade_prove", "premsel.cascade", _cascaded),
    (datagen, "generate_traces", "datagen.trace"),
    (datagen, "label_examples", "datagen.label", _labeled),
    (train, "prepare_pairs", "neural.prepare"),
    (models, "forward_logits", "neural.forward"),
    (tensor.Tensor, "backward", "neural.backward"),
    (train, "adam_step", "neural.adam"),
    (train, "accuracy", "neural.eval"),
]

# Counted, not timed: the unifier is the innermost hot call, and a span
# per call would cost more than the call itself.
COUNTERS = [(rules, "unify_atoms", "unify")]


class Tracer:
    """Flat span log plus per-name counters; single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span_wrapper(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        counts = self.counts

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter_wrapper(self, name: str, fn):
        counts = self.counts
        calls, hits = f"{name}.calls", f"{name}.successes"

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[calls] += 1
            if result is not None:
                counts[hits] += 1
            return result

        counted.__wrapped__ = fn
        return counted

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._name_id(name))

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, *hook in SPANS:
            wrapper = self.span_wrapper(name, getattr(owner, attr), *hook)
            self._patch(owner, attr, wrapper)
        for owner, attr, name in COUNTERS:
            self._patch(owner, attr, self.counter_wrapper(name, getattr(owner, attr)))

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __len__(self) -> int:
        return len(self.name)

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        if not len(self):
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = np.bincount(parent + 1, weights=dur, minlength=len(dur) + 1)[1:]
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_s, minlength=k)
        # a recursive name (none today) would count its nested time twice
        # in `incl`; `self` is exact regardless
        return {
            n: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }

    def write(self, path: str):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        t = self.tracer
        self.sid = len(t.name)
        t.name.append(self.nid)
        t.parent.append(t._stack[-1])
        t.start.append(time.perf_counter())
        t.end.append(0.0)
        t._stack.append(self.sid)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.end[self.sid] = time.perf_counter()
        t._stack.pop()
        return False


# Per-layer metrics of one traced pass, in the order they are reported.
# Every `_ms` figure is a self time: the layer's own work, without the
# layers it calls, so that the `_ms` figures of a pass add up to its
# traced wall time.
LAYER_METRICS = [
    ("parser.ms", "ms"), ("parser.kchars_per_s", "kchars/s"),
    ("saturation.self_ms", "ms"), ("saturation.processed", "count"),
    ("saturation.generated", "count"), ("saturation.discarded_given", "count"),
    ("saturation.us_per_processed", "us"),
    ("rules.resolve_ms", "ms"), ("rules.resolve_calls", "count"),
    ("rules.factor_ms", "ms"), ("rules.tautology_ms", "ms"),
    ("rules.subsumes_ms", "ms"), ("rules.subsumes_calls", "count"),
    ("rules.subsumes_hit_ratio", "ratio"),
    ("unify.calls", "count"), ("unify.success_ratio", "ratio"),
    ("fol.rename_apart_ms", "ms"), ("fol.canonical_key_ms", "ms"),
    ("fol.canonical_key_calls", "count"), ("fol.duplicate_ratio", "ratio"),
    ("heuristics.insert_ms", "ms"), ("heuristics.insert_calls", "count"),
    ("heuristics.pop_ms", "ms"),
    ("guidance.score_batch_ms", "ms"), ("guidance.clause_evals", "count"),
    ("guidance.batch_calls", "count"), ("guidance.evals_per_batch", "count"),
    ("guidance.us_per_eval", "us"), ("guidance.conj_embed_ms", "ms"),
    ("tokens.tokenize_ms", "ms"), ("neural.embed_ms", "ms"), ("neural.combiner_ms", "ms"),
    ("premsel.rank_ms", "ms"), ("premsel.premises_ranked", "count"),
    ("premsel.cascade_ms", "ms"), ("premsel.levels_tried", "count"),
    ("datagen.trace_ms", "ms"), ("datagen.label_ms", "ms"),
    ("datagen.examples", "count"), ("neural.prepare_ms", "ms"),
    ("neural.forward_ms", "ms"), ("neural.backward_ms", "ms"),
    ("neural.adam_ms", "ms"), ("neural.eval_ms", "ms"),
    ("trace.other_ms", "ms"), ("trace.attempts", "count"), ("trace.spans", "count"),
    ("trace.wall_s", "s"), ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio"),
]

# `<span>_ms` metrics whose span name differs from the metric prefix
_SELF_MS = {"parser.ms": "parser", "saturation.self_ms": "saturation"}
_SEARCH_CORE = ("saturation", "rules.", "fol.", "heuristics.")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, root: str, work: dict, untraced_s: float) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    `work` holds counts the attempts report themselves: `attempts`,
    `chars` parsed, and the scorer's `clause_evals` and `batch_calls`.
    `untraced_s` is the wall time of the same attempts run untraced.
    """
    tot = tracer.totals()
    counts = tracer.counts

    def self_ms(span: str) -> float:
        return tot.get(span, {}).get("self_s", 0.0) * 1e3

    def calls(span: str) -> int:
        return tot.get(span, {}).get("calls", 0)

    def incl_s(span: str) -> float:
        return tot.get(span, {}).get("incl_s", 0.0)

    wall_s = incl_s(root)
    processed = counts["saturation.processed"]
    core_ms = sum(self_ms(n) for n in tot if n.startswith(_SEARCH_CORE))
    evals, batches = work["clause_evals"], work["batch_calls"]
    m: dict[str, float] = {}
    for name, unit in LAYER_METRICS:
        if unit == "ms" and name != "trace.other_ms":
            m[name] = self_ms(_SELF_MS.get(name, name[: -len("_ms")]))
    m.update({
        "parser.kchars_per_s": _ratio(work["chars"] / 1e3, incl_s("parser")),
        "saturation.processed": processed,
        "saturation.generated": counts["saturation.generated"],
        "saturation.discarded_given": counts["saturation.discarded_given"],
        "saturation.us_per_processed": _ratio(core_ms * 1e3, processed),
        "rules.resolve_calls": calls("rules.resolve"),
        "rules.subsumes_calls": calls("rules.subsumes"),
        "rules.subsumes_hit_ratio": _ratio(counts["rules.subsumes_hits"],
                                           calls("rules.subsumes")),
        "unify.calls": counts["unify.calls"],
        "unify.success_ratio": _ratio(counts["unify.successes"], counts["unify.calls"]),
        "fol.canonical_key_calls": calls("fol.canonical_key"),
        # every canonical key that is not a duplicate is inserted into the
        # schedule, and input clauses are keyed and inserted alike
        "fol.duplicate_ratio": 1.0 - _ratio(calls("heuristics.insert"),
                                            calls("fol.canonical_key"))
        if calls("fol.canonical_key") else 0.0,
        "heuristics.insert_calls": calls("heuristics.insert"),
        "guidance.clause_evals": evals,
        "guidance.batch_calls": batches,
        "guidance.evals_per_batch": _ratio(evals, batches),
        "guidance.us_per_eval": _ratio(incl_s("guidance.score_batch") * 1e6, evals),
        "premsel.premises_ranked": counts["premsel.premises_ranked"],
        "premsel.levels_tried": counts["premsel.levels_tried"],
        "datagen.examples": counts["datagen.examples"],
        "trace.other_ms": self_ms(root),
        "trace.attempts": work["attempts"],
        "trace.spans": len(tracer),
        "trace.wall_s": wall_s,
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": wall_s - untraced_s,
        "trace.overhead_ratio": _ratio(wall_s - untraced_s, untraced_s),
    })
    return m
