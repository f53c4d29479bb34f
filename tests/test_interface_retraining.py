"""Unit tests for the feedback-retraining pipeline (Table 9 machinery)."""

import pytest

from repro.interface import RetrainingConfig, RetrainingPipeline
from repro.parser import SemanticParser, evaluation
from repro.tables.fingerprint import LRUCache
from repro.users import FeedbackConfig, JudgmentParameters


@pytest.fixture(scope="module")
def pipeline_inputs():
    from repro.dataset import DatasetConfig, build_dataset, split_by_tables
    from repro.parser import train_parser

    dataset = build_dataset(DatasetConfig(num_tables=10, questions_per_table=5, seed=61))
    split = split_by_tables(dataset, test_fraction=0.3, seed=5)
    baseline = train_parser(
        split.train.training_examples()[:30], epochs=2, use_annotations=False, seed=1
    )
    return baseline, split


class TestFeedbackCollection:
    def test_collect_feedback_produces_training_examples(self, pipeline_inputs):
        baseline, split = pipeline_inputs
        pipeline = RetrainingPipeline(baseline, RetrainingConfig(epochs=2))
        feedback = pipeline.collect_feedback(split.train.examples[:12])
        assert len(feedback.training_examples) == 12
        assert feedback.annotated_count > 0


class TestComparison:
    def test_compare_reports_both_parsers(self, pipeline_inputs):
        baseline, split = pipeline_inputs
        pipeline = RetrainingPipeline(
            baseline,
            RetrainingConfig(
                epochs=2,
                feedback=FeedbackConfig(
                    seed=2,
                    judgment=JudgmentParameters(recognise_correct=0.95, reject_incorrect=0.99),
                ),
            ),
        )
        feedback = pipeline.collect_feedback(split.train.examples[:12])
        dev = split.test.evaluation_examples()[:10]
        comparison = pipeline.compare(
            annotated_training=feedback.training_examples,
            unannotated_training=[],
            dev_examples=dev,
        )
        summary = comparison.summary()
        assert summary["train_examples"] == 12
        assert 0.0 <= summary["correctness_with"] <= 1.0
        assert 0.0 <= summary["correctness_without"] <= 1.0
        assert "mrr_gain" in summary

    def test_train_parser_fresh_does_not_mutate_baseline(self, pipeline_inputs):
        baseline, split = pipeline_inputs
        before = dict(baseline.model.weights)
        pipeline = RetrainingPipeline(baseline, RetrainingConfig(epochs=1))
        pipeline.train_parser(
            split.train.training_examples()[:8], use_annotations=False, fresh=True
        )
        assert baseline.model.weights == before


class _NoMemo(LRUCache):
    """An evaluation memo that never remembers (the cold reference)."""

    def get_or_create(self, key, factory):
        return factory()


class _RecordingPipeline(RetrainingPipeline):
    """Keeps every parser ``compare`` trains, for weight comparisons."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trained = []

    def train_parser(self, *args, **kwargs):
        parser = super().train_parser(*args, **kwargs)
        self.trained.append(parser)
        return parser


def _outcome_fields(report):
    return [
        (
            outcome.parse.top.sexpr if outcome.parse.top else None,
            outcome.parse.top.answer if outcome.parse.top else None,
            outcome.correct_indices,
            outcome.reciprocal_rank,
        )
        for outcome in report.outcomes
    ]


class TestSharedCachesMatchColdParsers:
    """Fresh parsers share the baseline's weight-independent caches and the
    evaluation memos; the Table 9 numbers must be exactly those of cold
    ``SemanticParser()`` parsers evaluated without memos."""

    def test_compare_matches_cold_reference(self, pipeline_inputs, monkeypatch):
        baseline, split = pipeline_inputs
        config = RetrainingConfig(epochs=2, feedback=FeedbackConfig(seed=4))
        feedback = RetrainingPipeline(baseline, config).collect_feedback(
            split.train.examples[:10]
        )
        annotated = feedback.training_examples
        assert any(example.annotated_queries for example in annotated)
        weak = split.train.training_examples(annotated=False)[10:14]
        dev = split.test.evaluation_examples()[:6]
        weights_before = dict(baseline.model.weights)

        evaluation.clear_evaluation_caches()
        shared_pipeline = _RecordingPipeline(baseline, config)
        shared = shared_pipeline.compare(annotated, weak, dev)

        with monkeypatch.context() as cold_world:
            cold_world.setattr(evaluation, "_PERTURBED_TABLES", _NoMemo())
            cold_world.setattr(evaluation, "_EQUIVALENCE_VERDICTS", _NoMemo())
            cold_world.setattr(
                baseline, "with_model", lambda model: SemanticParser(model=model)
            )
            cold_pipeline = _RecordingPipeline(baseline, config)
            cold = cold_pipeline.compare(annotated, weak, dev)

        assert baseline.model.weights == weights_before
        for parser in shared_pipeline.trained:
            assert parser.model is not baseline.model
            assert parser.config is baseline.config
            for name in SemanticParser._SHARED_STATE:
                assert getattr(parser, name) is getattr(baseline, name), name
        for parser in cold_pipeline.trained:
            assert parser._candidate_cache is not baseline._candidate_cache
        shared_weights = [parser.model.weights for parser in shared_pipeline.trained]
        assert shared_weights == [parser.model.weights for parser in cold_pipeline.trained]
        assert all(shared_weights), "training left the weights empty"
        for shared_report, cold_report in (
            (shared.with_annotations, cold.with_annotations),
            (shared.without_annotations, cold.without_annotations),
        ):
            assert _outcome_fields(shared_report) == _outcome_fields(cold_report)
            assert shared_report.correctness == cold_report.correctness
            assert shared_report.mrr == cold_report.mrr
