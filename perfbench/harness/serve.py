"""``serve_fresh_tcp``: a fresh ``repro serve`` answering never-seen questions.

A ``python -m repro serve --backend process --workers 2 --model W``
serves a fixed ``build_dataset`` corpus; two ``ReproClient`` TCP
connections in one process send it single-table questions in closed-loop
rounds (each connection one request per round, so the calibration sample
between rounds finds the server idle).  Every question is asked once per
server, so every parse is cold.  ``W`` is trained on a disjoint dataset,
so ranking is not all ties.  The seed orders the questions.  This is the
only workload that loads the dispatcher, the process pool and the wire.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from statistics import median
from typing import List, Tuple

from repro.api import ReproClient
from repro.api.schema import SchemaValidationError
from repro.dataset import DatasetConfig, build_dataset
from repro.dcs.executor import answers_match
from repro.parser import train_parser
from repro.tables import load_tables, save_tables
from repro.tables.values import parse_value

from .calibration import Calibrator, measure_setups
from .checks import EnvelopeValidator
from .context import Context, Outcome
from .report import Metric, answer_digest, child_pids, enough_units, peak_rss_mb, tail
from .spans import layer_metrics, merge

SERVED = DatasetConfig(num_tables=48, questions_per_table=8, seed=2019)
#: Disjoint training data for the served weights ``W`` (another generator seed).
WEIGHTS_DATA = DatasetConfig(num_tables=12, questions_per_table=6, seed=3019)
WEIGHTS_EXAMPLES = 40
WEIGHTS_EPOCHS = 2
WORKERS = 2
SETUPS = 9
#: Questions per block of the seeded question order.  A run answers the
#: whole number of blocks whose normalized time is nearest to --seconds:
#: two blocks at any normalized rate from 9 to 15 questions/s (12 on a
#: 2-vCPU VM), so drift does not change how much work a run does.
ORDER_BLOCK = 90
#: Answer accuracy counts the first blocks only (always completed).
QUALITY_BLOCKS = 2
#: Requests whose answers form the digest (always completed).
DIGEST_REQUESTS = 40
LAUNCHER = Path(__file__).resolve().parent.parent / "serve_launcher.py"


def _prepare(ctx: Context):
    dataset = build_dataset(SERVED)
    corpus = ctx.work / "corpus"
    save_tables(dataset.tables, corpus / "tables")
    with (corpus / "questions.jsonl").open("w", encoding="utf-8") as handle:
        for example in dataset.examples:
            handle.write(json.dumps({"question": example.question, "table": example.table.name}) + "\n")
    weights = build_dataset(WEIGHTS_DATA).training_examples(annotated=False)[:WEIGHTS_EXAMPLES]
    model_path = ctx.work / "W.json"
    train_parser(weights, epochs=WEIGHTS_EPOCHS, use_annotations=False, seed=11).model.save(model_path)
    # The server fingerprints the tables it loads back from disk; ask by
    # (and check against) those digests.
    served = {
        id(table): loaded.fingerprint.digest
        for table, loaded in zip(dataset.tables, load_tables(corpus / "tables"))
    }
    # A fixed shuffle cut into blocks, each block in a seeded order.  Runs
    # answer whole blocks, so every run answers the same questions and
    # answer accuracy measures the program, not which questions a seed
    # happened to draw.
    examples = [(example, served[id(example.table)]) for example in dataset.examples]
    random.Random(0).shuffle(examples)
    rng = random.Random(ctx.seed)
    ordered = []
    for start in range(0, len(examples), ORDER_BLOCK):
        block = examples[start:start + ORDER_BLOCK]
        rng.shuffle(block)
        ordered.extend(block)
    return corpus, model_path, ordered


def _default_sigint() -> None:
    # A shell starts background jobs with SIGINT ignored and children
    # inherit that; the server stops (and its pools drain) on SIGINT.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class _Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, ctx: Context, corpus: Path, model: Path, trace_dir: Path = None) -> None:
        serve_args = [
            "serve", "--corpus", str(corpus), "--port", "0", "--backend", "process",
            "--workers", str(WORKERS), "--model", str(model),
        ]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [sys.executable, str(LAUNCHER), str(trace_dir), *serve_args]
        env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
        self.workers: List[int] = []
        self.clients: List[ReproClient] = []
        self._marker = str(corpus).encode("utf-8")
        self._log = open(ctx.work / "server.log", "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ctx.root, env=env, stdout=subprocess.PIPE, stderr=self._log,
            stdin=subprocess.DEVNULL, preexec_fn=_default_sigint,
        )
        line = self.process.stdout.readline().decode("utf-8")
        if " on " not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r} (see {ctx.work / 'server.log'})")
        self.port = int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
        self.clients.append(ReproClient.connect("127.0.0.1", self.port, timeout=120.0))
        self.setup_seconds = time.perf_counter() - started
        self.clients.append(ReproClient.connect("127.0.0.1", self.port, timeout=120.0))

    def pids(self) -> List[int]:
        return [self.process.pid, *self.workers]

    def stop(self) -> None:
        """SIGINT (the server drains and closes its pools), then reap leftovers."""
        for client in self.clients:
            client.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        for pid in self.workers:
            self._reap(pid)
        self.process.stdout.close()
        self._log.close()

    def _reap(self, pid: int) -> None:
        """Kill a pool worker that outlived its server, and wait for it to go."""
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    if self._marker not in handle.read():
                        return  # gone, and the pid was reused
                os.kill(pid, signal.SIGKILL)
            except (FileNotFoundError, ProcessLookupError):
                return
            time.sleep(0.05)


class _Run:
    def __init__(self, server: _Server, examples, outcome: Outcome) -> None:
        self.server = server
        self.examples = examples
        self.outcome = outcome
        self.validate = EnvelopeValidator()
        self.latencies: List[float] = []
        self.overheads: List[float] = []
        self.busy = 0.0
        # The same, each block normalized by the samples taken inside it.
        self.normalized: List[float] = []
        self.busy_normalized = 0.0
        self.completed = 0
        self.judged = 0
        self.correct_answers = 0
        self.checked = 0
        self.gold_shard = 0
        self.digest_rows: List[Tuple[str, Tuple[str, ...], str]] = []

    def _ask(self, client, item):
        example, digest = item
        started = time.perf_counter()
        try:
            result = client.query(example.question, target=digest)
        except Exception as error:  # a transport failure is a failed request
            return None, time.perf_counter() - started, error
        return result, time.perf_counter() - started, None

    def _check(self, item, result, elapsed, error) -> None:
        example, digest = item
        self.outcome.attempted += 1
        if len(self.digest_rows) < DIGEST_REQUESTS:
            top = result.candidates[0].sexpr if result is not None and result.candidates else ""
            answer = tuple(result.answer) if result is not None else ()
            self.digest_rows.append((example.question, answer, top))
        if error is not None:
            self.outcome.failed += 1
            self.outcome.fail_check(f"{example.question!r}: {type(error).__name__}: {error}")
            return
        try:
            self.validate(result.to_dict())
        except SchemaValidationError as failure:
            self.outcome.failed += 1
            self.outcome.fail_check(f"schema: {example.question!r}: {failure}")
            return
        if not result.ok:
            self.outcome.failed += 1
            self.outcome.fail_check(f"error {result.error_code}: {example.question!r}")
            return
        self.completed += 1
        self.latencies.append(elapsed)
        self.overheads.append(elapsed - result.timing.total_seconds)
        if self.checked < QUALITY_BLOCKS * ORDER_BLOCK:
            self.judged += 1
            self.gold_shard += result.shard.digest == digest
            self.correct_answers += answers_match(
                [parse_value(text) for text in result.answer], example.gold_answer
            )

    def run(self, seconds: float, calibrator: Calibrator, min_blocks: int = 1) -> None:
        """Closed-loop rounds in whole blocks, about ``seconds`` of normalized time.

        A program fast enough to exhaust the questions stops early.
        """
        first, second = self.server.clients
        position = 0
        calibrator.start_window()
        busy_mark = self.busy
        with ThreadPoolExecutor(max_workers=1) as helper:
            while position % ORDER_BLOCK or not enough_units(
                position // ORDER_BLOCK, min_blocks, self.busy_normalized, seconds
            ):
                if position + 2 > len(self.examples):
                    break
                pair = self.examples[position:position + 2]
                position += 2
                started = time.perf_counter()
                pending = helper.submit(self._ask, second, pair[1])
                answered = [self._ask(first, pair[0]), pending.result()]
                self.busy += time.perf_counter() - started
                for item, reply in zip(pair, answered):
                    self._check(item, *reply)
                    self.checked += 1
                if not self.server.workers:
                    self.server.workers = child_pids(self.server.process.pid)
                calibrator.sample_if_due()
                if position % ORDER_BLOCK == 0 or position + 2 > len(self.examples):
                    scale = calibrator.window_scale()
                    self.normalized.extend(
                        seconds * scale for seconds in self.latencies[len(self.normalized):]
                    )
                    self.busy_normalized += (self.busy - busy_mark) * scale
                    busy_mark = self.busy

    def throughput(self) -> Tuple[float, float]:
        """Completed requests per busy second: raw and normalized."""
        return self.completed / self.busy, self.completed / self.busy_normalized


def _setups(ctx, corpus, model, calibrator: Calibrator):
    def setup():
        server = _Server(ctx, corpus, model)
        return server, server.setup_seconds

    return measure_setups(calibrator, SETUPS, setup, release=_Server.stop)


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    corpus, model, examples = _prepare(ctx)
    outcome.sizes = {
        "tables": SERVED.num_tables, "questions": len(examples), "connections": 2,
        "backend": "process", "workers": WORKERS, "setups": SETUPS, "seconds": ctx.seconds,
    }
    setup_cal = Calibrator()
    server, setups, setups_normalized = _setups(ctx, corpus, model, setup_cal)
    try:
        timed_cal = Calibrator(watch=server.pids)
        main = _Run(server, examples, outcome)
        if ctx.trace:
            main.run(ctx.seconds / 2, timed_cal)
        else:
            main.run(ctx.seconds, timed_cal, min_blocks=QUALITY_BLOCKS)
        rss = peak_rss_mb(server.pids())
    finally:
        server.stop()
    for phase, cal in (("setup", setup_cal), ("timed", timed_cal)):
        cal.check(phase)
        outcome.calibration[phase] = cal.summary()
    outcome.digest = answer_digest(main.digest_rows)
    if ctx.trace:
        _traced(ctx, outcome, corpus, model, examples, main.throughput()[1])
        return outcome
    latencies = [seconds * 1000.0 for seconds in main.latencies]
    normalized = [seconds * 1000.0 for seconds in main.normalized]
    throughput, normalized_throughput = main.throughput()
    tail_ms, percentile = tail(latencies)
    judged = max(1, main.judged)
    outcome.metrics = {
        "latency_p50_ms": Metric(median(latencies), "ms", len(latencies), median(normalized)),
        "latency_tail_ms": Metric(tail_ms, "ms", len(latencies), tail(normalized)[0],
                                  percentile=round(percentile, 2)),
        "throughput_per_s": Metric(throughput, "1/s", main.completed, normalized_throughput),
        "setup_s": Metric(median(setups), "s", len(setups), median(setups_normalized)),
        "peak_rss_mb": Metric(rss, "MB", len(server.pids()), meaning="server plus pool workers"),
        "answer_accuracy": Metric(main.correct_answers / judged, "share", judged),
        "gold_recall": Metric(main.gold_shard / judged, "share", judged,
                              meaning="answering shard is the gold table"),
    }
    return outcome


def _traced(ctx, outcome, corpus, model, examples, untraced_throughput) -> None:
    trace_dir = ctx.work / "spans"
    trace_dir.mkdir(exist_ok=True)
    for stale in trace_dir.glob("*.json"):
        stale.unlink()
    server = _Server(ctx, corpus, model, trace_dir=trace_dir)
    try:
        cal = Calibrator(watch=server.pids)
        traced = _Run(server, examples, outcome)
        traced.run(ctx.seconds / 2, cal)
        mean_batch = server.clients[0].stats()["server"]["mean_batch"]
    finally:
        server.stop()
    cal.check("traced")
    outcome.calibration["traced"] = cal.summary()
    payloads = [json.loads(path.read_text()) for path in sorted(trace_dir.glob("spans-*.json"))]
    spans, counts, pairs, extras = merge(payloads)
    requests = max(1, traced.completed)
    layers = layer_metrics(spans, counts, pairs, requests)
    pools = [pool for extra in extras for pool in extra.get("pools", {}).values()]
    for metric, key in (("perf.tables_shipped", "tables_shipped"), ("perf.retries", "retries"),
                        ("perf.inline_parses", "inline_parses")):
        layers[metric] = float(sum(pool.get(key, 0) for pool in pools))
    layers["serving.mean_batch"] = float(mean_batch)
    layers["serving.overhead_ms"] = 1000.0 * sum(traced.overheads) / requests
    roots = sum(end - start for _, _, start, end, parent, _, _ in spans if parent is None)
    layers["trace.uncovered_ms"] = 1000.0 * (sum(traced.latencies) - roots) / requests
    layers["trace.overhead_ratio"] = untraced_throughput / traced.throughput()[1]
    outcome.layers = layers
