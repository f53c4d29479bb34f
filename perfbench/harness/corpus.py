"""``corpus_zipf_live``: corpus-wide questions with live one-cell edits.

An in-process ``ReproEngine(workers=2)`` over the fixed 500-shard
discovery corpus (the ``CorpusConfig`` of the repo's discovery bench)
answers ``query(..., max_candidates=10)`` drawn Zipf from a fixed pool
of questions, warmed before timing.  About 3% of operations are
one-cell edits of a pool question's gold table, applied with
``engine.update``; each invalidates the cached parses of the edited
shard.  The seed orders each block of the stream (see ``_Stream``).
The warm path (routing, memo hits, envelope) sets the latency median;
edit invalidations and the updates themselves set throughput and the
tail.

The pool's (question, shard) pairs, with those a run's edits re-parse,
fit the parser's 256-entry candidate cache on purpose.  A pool that
overflows it makes the LRU thrash: every miss is then a full 10-shard
re-parse (~1.5 s on a 2-vCPU VM), a run of tens of seconds sees only
about ten of them, and throughput and tail spread by over 30% between
seeds.  Edit invalidations are many small misses instead (one shard
each), so their count per run is stable.
"""

from __future__ import annotations

import json
import random
import time
from statistics import median
from typing import Dict, List, Optional, Tuple

from repro.api import ReproEngine
from repro.api.schema import SchemaValidationError
from repro.dataset.corpus import CorpusConfig, build_discovery_corpus
from repro.tables.table import Table
from repro.tables.values import NumberValue

from .calibration import Calibrator, measure_setups
from .checks import EnvelopeValidator
from .context import Context, Outcome
from .report import Metric, answer_digest, enough_units, self_peak_rss_mb, tail
from .spans import Tracer, install_layer_wrappers, layer_metrics, root_coverage

CORPUS = CorpusConfig(num_tables=500, num_questions=300, seed=2019, scale=1.0)
#: Distinct questions in the pool (first in corpus order).  Their ~75
#: (question, shard) pairs, plus the pairs a run's edits re-parse, fit
#: the parser's 256-entry candidate cache; see the module docstring.
POOL_QUESTIONS = 8
ZIPF_EXPONENT = 1.1
#: Queries per stratified block of the stream (see ``_Stream``).
BLOCK_QUERIES = 100
#: Seed of the fixed edit script's cell choices.
EDIT_SCRIPT_SEED = 2019
EDIT_SHARE = 0.03
MAX_CANDIDATES = 10
WORKERS = 2
SETUPS = 9
#: Operations whose answers form the digest (always completed, even past
#: the time budget, so the digest depends on the seed alone).
DIGEST_OPS = 40


def _pool(corpus, engine: ReproEngine) -> Tuple[List, int]:
    """The first distinct corpus questions and their routed (question, shard) pairs."""
    seen, pool = set(), []
    for question in corpus.questions:
        if question.question not in seen and len(pool) < POOL_QUESTIONS:
            seen.add(question.question)
            pool.append(question)
    pairs = sum(
        len(engine.routing(question.question, max_candidates=MAX_CANDIDATES).candidates)
        for question in pool
    )
    return pool, pairs


def _edited(table: Table, rng: random.Random, step: int) -> Table:
    """``table`` with one cell rewritten (a number bumped, else text tagged)."""
    rows = [[cell.value for cell in record.cells] for record in table.records]
    row = rng.randrange(len(rows))
    numeric = [c for c, value in enumerate(rows[row]) if isinstance(value, NumberValue)]
    if numeric:
        column = rng.choice(numeric)
        rows[row][column] = NumberValue(rows[row][column].number + 1 + step % 7)
    else:
        column = rng.randrange(1, len(rows[row])) if len(rows[row]) > 1 else 0
        rows[row][column] = f"{rows[row][column].display()} rev{step}"
    return Table(columns=table.columns, rows=rows, name=table.name)


class _Stream:
    """The operation stream: Zipf queries over the pool plus edits, in blocks.

    Every block holds each pool question in proportion to its Zipf weight
    (at least once) and a fixed number of edits; the edit script (which
    gold table, which cell, in which block) is fixed.  The seed shuffles
    each block.  Seeds then differ in order only, not in the mix: an edit
    can flip which shard answers a popular question, and with seeded
    edit targets the low answer-accuracy share would swing by tens of
    percent between seeds.
    """

    def __init__(self, pool, seed: int) -> None:
        self.rng = random.Random(seed)
        self.edit_rng = random.Random(EDIT_SCRIPT_SEED)
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(pool))]
        total = sum(weights)
        self.block = [
            question
            for question, weight in zip(pool, weights)
            for _ in range(max(1, round(BLOCK_QUERIES * weight / total)))
        ]
        self.edits = round(len(self.block) * EDIT_SHARE / (1.0 - EDIT_SHARE))
        self.gold_names = sorted({question.gold_name for question in pool})
        self.edit_count = 0
        self.pending: List[Tuple[str, object]] = []

    @property
    def block_done(self) -> bool:
        return not self.pending

    def next(self) -> Tuple[str, object]:
        if not self.pending:
            block = [("query", question) for question in self.block]
            for _ in range(self.edits):
                block.append(("edit", self.gold_names[self.edit_count % len(self.gold_names)]))
                self.edit_count += 1
            self.rng.shuffle(block)
            self.pending = block[::-1]
        return self.pending.pop()


class _Run:
    def __init__(self, engine: ReproEngine, stream: _Stream, outcome: Outcome,
                 tracer: Optional[Tracer]) -> None:
        self.engine = engine
        self.stream = stream
        self.outcome = outcome
        self.tracer = tracer
        self.refs = {ref.name: ref for ref in engine.refs()}
        self.tables = {ref.name: engine.catalog.table(ref) for ref in self.refs.values()
                       if ref.name in stream.gold_names}
        self.query_seconds: List[float] = []
        self.update_seconds: List[float] = []
        # The same, normalized by the samples taken during the run.
        self.query_normalized: List[float] = []
        self.update_normalized: List[float] = []
        self.busy_normalized = 0.0
        self.busy = 0.0
        self.completed = 0
        self.shards_parsed = 0
        self.fallbacks = 0
        self.digest_rows: List[Tuple[str, Tuple[str, ...], str]] = []
        self.step = 0
        self.validate = EnvelopeValidator()

    def _query(self, question) -> None:
        started = time.perf_counter()
        result = self.engine.query(question.question, max_candidates=MAX_CANDIDATES)
        if self.tracer is not None:
            with self.tracer.span("api.encode"):
                payload = result.to_dict()
                json.dumps(payload)
        else:
            payload = result.to_dict()
            json.dumps(payload)
        elapsed = time.perf_counter() - started
        self.busy += elapsed
        top_sexpr = result.candidates[0].sexpr if result.candidates else ""
        if len(self.digest_rows) < DIGEST_OPS:
            self.digest_rows.append((question.question, tuple(result.answer), top_sexpr))
        try:
            self.validate(payload)
        except SchemaValidationError as error:
            self.outcome.failed += 1
            self.outcome.fail_check(f"schema: {question.question!r}: {error}")
            return
        if not result.ok:
            self.outcome.failed += 1
            self.outcome.fail_check(f"error {result.error_code}: {question.question!r}")
            return
        self.shards_parsed += result.routing.shards_parsed
        self.fallbacks += bool(result.routing.fallback)
        self.query_seconds.append(elapsed)
        self.completed += 1

    def _edit(self, name: str) -> None:
        new_table = _edited(self.tables[name], self.stream.edit_rng, self.stream.edit_count)
        started = time.perf_counter()
        try:
            ref = self.engine.update(self.refs[name], new_table)
        except Exception as error:  # a failed write is a failed operation
            self.busy += time.perf_counter() - started
            self.outcome.failed += 1
            self.outcome.fail_check(f"update {name!r}: {type(error).__name__}: {error}")
            return
        elapsed = time.perf_counter() - started
        self.busy += elapsed
        self.refs[name], self.tables[name] = ref, new_table
        if ref.digest != new_table.fingerprint.digest:
            self.outcome.failed += 1
            self.outcome.fail_check(f"update {name!r} published {ref.digest}")
            return
        if len(self.digest_rows) < DIGEST_OPS:
            self.digest_rows.append((f"edit {name}", (ref.digest,), ""))
        self.update_seconds.append(elapsed)
        self.completed += 1

    def run(self, seconds: float, calibrator: Calibrator) -> None:
        """The whole number of blocks whose normalized time is nearest ``seconds``.

        Normalized, not raw, time decides (scaled by the samples so far),
        so drift does not change how many operations a run does.  Checks
        and samples run between operations and are not timed.  The run
        is one normalization window: a block (~1 s) holds too few
        calibration samples for a steady median, and per-block windows
        spread the latency median by 11% between seeds against 4% for
        one window.
        """
        calibrator.start_window()
        blocks = 0
        while True:
            kind, item = self.stream.next()
            self.step += 1
            self.outcome.attempted += 1
            if self.tracer is not None:
                self.tracer.request = self.step
            if kind == "query":
                self._query(item)
            else:
                self._edit(item)
            calibrator.sample_if_due()
            if not self.stream.block_done:
                continue
            blocks += 1
            if (len(self.digest_rows) >= DIGEST_OPS and calibrator.samples_ms
                    and enough_units(blocks, 1, self.busy * calibrator.time_scale(), seconds)):
                break
        scale = calibrator.window_scale()
        self.query_normalized = [seconds * scale for seconds in self.query_seconds]
        self.update_normalized = [seconds * scale for seconds in self.update_seconds]
        self.busy_normalized = self.busy * scale

    def throughput(self) -> Tuple[float, float]:
        """Completed operations per busy second: raw and normalized."""
        return self.completed / self.busy, self.completed / self.busy_normalized


def _warm(engine: ReproEngine, pool, stream: _Stream, outcome: Outcome) -> Dict[str, float]:
    """Ask every pool question once, before any edit; returns the quality shares.

    Answer accuracy and gold recall are taken here, on the unedited
    corpus, weighted by each question's share of a stream block.  In the
    stream, an edit can flip which shard answers a popular question, so
    stream-wide shares would depend on where each seed put the edits.
    """
    validate = EnvelopeValidator()
    weight = {question.question: 0 for question in pool}
    for question in stream.block:
        weight[question.question] += 1
    routed = answered = 0
    for question in pool:
        outcome.attempted += 1
        result = engine.query(question.question, max_candidates=MAX_CANDIDATES)
        try:
            validate(result.to_dict())
        except SchemaValidationError as error:
            outcome.failed += 1
            outcome.fail_check(f"schema: {question.question!r}: {error}")
            continue
        if not result.ok:
            outcome.failed += 1
            outcome.fail_check(f"error {result.error_code}: {question.question!r}")
            continue
        share = weight[question.question]
        routed += share * (question.gold_digest in {ranked.shard.digest for ranked in result.ranked})
        answered += share * (result.shard is not None and result.shard.digest == question.gold_digest)
    total = len(stream.block)
    return {"gold_recall": routed / total, "answer_accuracy": answered / total}


def _setup(corpus, calibrator: Calibrator):
    def setup():
        started = time.perf_counter()
        engine = ReproEngine(workers=WORKERS)
        engine.register_many(corpus.tables)
        return engine, time.perf_counter() - started

    return measure_setups(calibrator, SETUPS, setup, release=ReproEngine.close)


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    corpus = build_discovery_corpus(CORPUS)
    setup_cal = Calibrator()
    engine, setups, setups_normalized = _setup(corpus, setup_cal)
    try:
        pool, pairs = _pool(corpus, engine)
        stream = _Stream(pool, ctx.seed)
        # Fill the caches before timing: a cold pool question costs 10
        # shard parses (~1.5 s), so an unwarmed run would time the first
        # sighting of each question instead of the live steady state.
        warm_started = time.perf_counter()
        quality = _warm(engine, pool, stream, outcome)
        outcome.sizes = {
            "shards": len(corpus.tables), "pool": len(pool), "pool_pairs": pairs,
            "zipf": ZIPF_EXPONENT, "edit_share": EDIT_SHARE, "block": len(stream.block) + stream.edits,
            "max_candidates": MAX_CANDIDATES, "workers": WORKERS, "setups": SETUPS,
            "seconds": ctx.seconds,
            "warmup_s": round(time.perf_counter() - warm_started, 2),
        }
        timed_cal = Calibrator()
        main = _Run(engine, stream, outcome, tracer=None)
        main.run(ctx.seconds / 2 if ctx.trace else ctx.seconds, timed_cal)
        for phase, cal in (("setup", setup_cal), ("timed", timed_cal)):
            cal.check(phase)
            outcome.calibration[phase] = cal.summary()
        if not ctx.trace:
            _end_to_end(outcome, main, setups, setups_normalized, quality, len(pool))
        else:
            _traced(ctx, outcome, engine, corpus, main)
        outcome.digest = answer_digest(main.digest_rows)
    finally:
        engine.close()
    return outcome


def _end_to_end(outcome, main: _Run, setups, setups_normalized, quality, pool) -> None:
    latencies = [seconds * 1000.0 for seconds in main.query_seconds]
    normalized = [seconds * 1000.0 for seconds in main.query_normalized]
    tail_ms, percentile = tail(latencies)
    updates = [seconds * 1000.0 for seconds in main.update_seconds] or [0.0]
    updates_normalized = [seconds * 1000.0 for seconds in main.update_normalized] or [0.0]
    throughput, normalized_throughput = main.throughput()
    outcome.metrics = {
        "latency_p50_ms": Metric(median(latencies), "ms", len(latencies), median(normalized)),
        "latency_tail_ms": Metric(tail_ms, "ms", len(latencies), tail(normalized)[0],
                                  percentile=round(percentile, 2)),
        "throughput_per_s": Metric(throughput, "1/s", main.completed, normalized_throughput),
        "setup_s": Metric(median(setups), "s", len(setups), median(setups_normalized)),
        "peak_rss_mb": Metric(self_peak_rss_mb(), "MB", 1),
        "answer_accuracy": Metric(quality["answer_accuracy"], "share", pool,
                                  meaning="answering shard is the gold table, Zipf-weighted, before edits"),
        "gold_recall": Metric(quality["gold_recall"], "share", pool,
                              meaning="routed shards include the gold table, Zipf-weighted, before edits"),
        "update_p50_ms": Metric(median(updates), "ms", len(main.update_seconds),
                                median(updates_normalized)),
    }


def _traced(ctx, outcome, engine, corpus, untraced: _Run) -> None:
    tracer = Tracer()
    install_layer_wrappers(tracer)
    try:
        # One traced set-up: the register path is reported per set-up.
        tracer.request = "setup"
        spare = ReproEngine(workers=WORKERS)
        spare.register_many(corpus.tables)
        spare.close()
        register_ms = layer_metrics(tracer.spans, tracer.counts, set(), 1)["tables.register_ms"]
        tracer.reset()
        cal = Calibrator()
        traced = _Run(engine, untraced.stream, outcome, tracer)
        before = engine.cache_stats()
        traced.run(ctx.seconds / 2, cal)
        after = engine.cache_stats()
        cal.check("traced")
        outcome.calibration["traced"] = cal.summary()
    finally:
        tracer.uninstall()
    tracer.dump(str(ctx.work / "spans.json"))
    requests = max(1, traced.completed)
    layers = layer_metrics(tracer.spans, tracer.counts, tracer.pairs, requests)
    layers["tables.register_ms"] = register_ms
    # The engine's own counters: its warm path answers from the pool's
    # ranked-parse memo without a candidate-cache lookup at all.
    for metric, cache in (("parser.candidate_hit_ratio", "candidates"),
                          ("dcs.exec_hit_ratio", "execution")):
        hits = after[cache]["hits"] - before[cache]["hits"]
        misses = after[cache]["misses"] - before[cache]["misses"]
        layers[metric] = hits / (hits + misses) if hits + misses else 0.0
    layers["retrieval.shards_parsed"] = traced.shards_parsed / max(1, len(traced.query_seconds))
    layers["retrieval.fallbacks"] = float(traced.fallbacks)
    covered = sum(root_coverage(tracer.spans).values())
    layers["trace.uncovered_ms"] = 1000.0 * (traced.busy - covered) / requests
    layers["trace.overhead_ratio"] = untraced.throughput()[1] / traced.throughput()[1]
    updates = [seconds * 1000.0 for seconds in traced.update_normalized]
    layers["update_p50_ms"] = median(updates) if updates else 0.0
    outcome.layers = layers
