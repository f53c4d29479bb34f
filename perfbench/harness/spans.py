"""Spans around calls into each layer, recorded from the benchmark's files.

:func:`install_layer_wrappers` replaces public functions at the name
their caller looks them up by (``repro.parser.candidates.extract_features``
is the binding ``SemanticParser.generate_candidates`` calls; methods are
wrapped on their class).  Each call becomes a span ``(id, name, start,
end, parent, request, thread)`` kept in memory and written out when the
run ends.  Nothing under ``src/`` changes.

Parents come from a per-thread stack.  A span opened on a thread whose
stack is empty adopts the innermost open *fan-out* span (the pool's
``parse_all``) as parent, so parses on pool threads nest under the call
that dispatched them.  ``request`` is the request id the benchmark's
loop sets before each operation (``None`` inside the server process,
where requests of two connections interleave in micro-batches).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, str, float, float, Optional[int], Any, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.pairs: set = set()
        self.request: Any = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._fanout: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- span bookkeeping ------------------------------------------------------
    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, function: Callable, args, kwargs, *, outermost=False, fanout=False):
        stack = self._stack()
        if outermost and any(open_name == name for _, open_name in stack):
            return function(*args, **kwargs)
        if stack:
            parent = stack[-1][0]
        else:
            parent = self._fanout[-1] if self._fanout else None
        span_id = next(self._ids)
        stack.append((span_id, name))
        if fanout:
            self._fanout.append(span_id)
        request = self.request
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if fanout:
                self._fanout.remove(span_id)
            self.spans.append(
                (span_id, name, start, end, parent, request, threading.get_ident())
            )

    @contextmanager
    def span(self, name: str):
        """A span around benchmark-side code (e.g. encoding a result)."""
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        span_id = next(self._ids)
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, self.request, threading.get_ident())
            )

    # -- installation ----------------------------------------------------------
    def wrap(self, owner, attribute: str, name: str, *, outermost=False, fanout=False,
             count: Optional[Callable] = None) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        tracer = self

        if name:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if count is not None:
                    count(tracer, args, kwargs)
                return tracer.call(name, original, args, kwargs, outermost=outermost, fanout=fanout)
        else:  # counter only: the call is too hot or too broad for a span
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                count(tracer, args, kwargs)
                return original(*args, **kwargs)

        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.pairs = set()
        self._local = threading.local()
        self._fanout = []

    # -- persistence -----------------------------------------------------------
    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        payload = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "pairs": sorted(self.pairs),
            "extra": extra or {},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _bump(key: str) -> Callable:
    def count(tracer: Tracer, args, kwargs) -> None:
        tracer.counts[key] += 1
    return count


def _count_rank(tracer: Tracer, args, kwargs) -> None:
    tracer.counts["rank.calls"] += 1
    tracer.counts["rank.candidates"] += len(args[1])


def _count_generate(tracer: Tracer, args, kwargs) -> None:
    grammar, analysis = args[0], args[1]
    tracer.counts["generate.calls"] += 1
    tracer.pairs.add((grammar.table.fingerprint.digest, analysis.question))


#: (span name, owner path, attribute, options) for every traced layer call.
LAYER_CALLS = [
    ("parser.lexicon", "repro.parser.lexicon:Lexicon", "analyze", {}),
    ("parser.grammar", "repro.parser.grammar:CandidateGrammar", "generate", {"count": _count_generate}),
    ("dcs.validate", "repro.parser.candidates", "validate", {}),
    ("dcs.execute", "repro.dcs.memo:MemoizedExecutor", "execute", {"outermost": True}),
    ("parser.features", "repro.parser.candidates", "extract_features", {}),
    ("parser.rank", "repro.parser.candidates:SemanticParser", "rank", {"count": _count_rank}),
    ("core.explain", "repro.core.explanation:ExplanationGenerator", "explain", {}),
    ("retrieval.route", "repro.retrieval.router:ShardSetRouter", "route_sets", {}),
    ("compose.compose", "repro.compose", "compose_answer", {}),
    ("tables.update", "repro.tables.catalog:TableCatalog", "update", {}),
    ("retrieval.index_update", "repro.retrieval.corpus_index:CorpusIndex", "update", {}),
    ("tables.register", "repro.tables.catalog:TableCatalog", "register_many", {}),
    ("perf.pool_parse", "repro.perf.pool:ThreadWorkerPool", "parse_all", {"fanout": True}),
    ("parser.prepare", "repro.parser.training:Trainer", "prepare", {}),
    ("parser.gradient", "repro.parser.model:LogLinearModel", "gradient", {}),
    ("parser.gradient", "repro.parser.model:LogLinearModel", "apply_gradient", {}),
    ("parser.evaluate", "repro.interface.retraining", "evaluate_parser", {}),
    ("interface.feedback", "repro.interface.retraining:RetrainingPipeline", "collect_feedback", {}),
    # Counters only: cache hit ratios measured where the lookups happen,
    # in every process (pool workers keep caches of their own).
    (None, "repro.parser.candidates:SemanticParser", "generate_candidates", {"count": _bump("candidates.lookups")}),
    (None, "repro.dcs.memo:ExecutionCache", "lookup", {"count": _bump("execution.lookups")}),
    (None, "repro.dcs.memo:ExecutionCache", "store", {"count": _bump("execution.stores")}),
]


def _resolve(path: str):
    import importlib

    module_name, _, attribute = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attribute) if attribute else owner


def install_layer_wrappers(tracer: Tracer) -> None:
    for name, owner_path, attribute, options in LAYER_CALLS:
        tracer.wrap(_resolve(owner_path), attribute, name, **options)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Seconds per span name, minus the part of each span its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: Dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _, _, _ in spans:
        totals[name] += (end - start) - _covered(children.get(span_id, ()))
    return dict(totals)


def root_coverage(spans: Sequence[Span]) -> Dict[Any, float]:
    """Per request id: seconds covered by the union of its root spans."""
    roots: Dict[Any, List[Tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, request, _ in spans:
        if parent is None:
            roots[request].append((start, end))
    return {request: _covered(intervals) for request, intervals in roots.items()}


def span_seconds(spans: Sequence[Span], name: str) -> float:
    """Total duration of the spans called ``name``."""
    return sum(end - start for _, span_name, start, end, *_ in spans if span_name == name)


def merge(payloads: Sequence[Dict[str, Any]]) -> Tuple[List[Span], Counter, set, List[Dict[str, Any]]]:
    """Combine span dumps of several processes (ids are process-local)."""
    spans: List[Span] = []
    counts: Counter = Counter()
    pairs: set = set()
    extras = []
    for index, payload in enumerate(payloads):
        offset = (index + 1) << 40
        for span_id, name, start, end, parent, request, thread in payload["spans"]:
            spans.append(
                (span_id + offset, name, start, end,
                 None if parent is None else parent + offset, request, thread)
            )
        counts.update(payload["counts"])
        pairs.update(tuple(pair) for pair in payload["pairs"])
        extras.append(payload.get("extra", {}))
    return spans, counts, pairs, extras


#: Per-layer metrics derived from span self time (ms per request).
SPAN_METRICS = {
    "parser.lexicon_ms": "parser.lexicon",
    "parser.grammar_ms": "parser.grammar",
    "dcs.validate_ms": "dcs.validate",
    "dcs.execute_ms": "dcs.execute",
    "parser.features_ms": "parser.features",
    "parser.rank_ms": "parser.rank",
    "core.explain_ms": "core.explain",
    "retrieval.route_ms": "retrieval.route",
    "compose.compose_ms": "compose.compose",
    "tables.update_ms": "tables.update",
    "retrieval.index_update_ms": "retrieval.index_update",
    "tables.register_ms": "tables.register",
    "perf.pool_parse_ms": "perf.pool_parse",
    "api.encode_ms": "api.encode",
    "parser.prepare_ms": "parser.prepare",
    "parser.gradient_ms": "parser.gradient",
    "parser.evaluate_ms": "parser.evaluate",
    "interface.feedback_ms": "interface.feedback",
}


def layer_metrics(spans: Sequence[Span], counts: Counter, pairs: set, requests: int) -> Dict[str, float]:
    """The span- and counter-derived per-layer metrics (all workloads)."""
    selfs = self_times(spans)
    per_request = max(1, requests)
    metrics = {
        metric: 1000.0 * selfs.get(span_name, 0.0) / per_request
        for metric, span_name in SPAN_METRICS.items()
    }
    calls = Counter(name for _, name, *_ in spans)
    metrics["parser.candidates_per_parse"] = (
        counts["rank.candidates"] / counts["rank.calls"] if counts["rank.calls"] else 0.0
    )
    metrics["parser.generate_per_pair"] = (
        counts["generate.calls"] / len(pairs) if pairs else 0.0
    )
    lookups = counts["candidates.lookups"]
    metrics["parser.candidate_hit_ratio"] = (
        1.0 - counts["generate.calls"] / lookups if lookups else 0.0
    )
    executions = counts["execution.lookups"]
    metrics["dcs.exec_hit_ratio"] = (
        1.0 - counts["execution.stores"] / executions if executions else 0.0
    )
    metrics["core.explain_calls"] = calls["core.explain"] / per_request
    metrics["compose.attempts"] = float(calls["compose.compose"])
    return metrics
