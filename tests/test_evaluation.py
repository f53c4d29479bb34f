"""Unit tests for parser evaluation: equivalence, correctness, MRR, bounds."""

import pytest

from repro.dcs import builder as q, execute
from repro.parser import (
    EvaluationExample,
    SemanticParser,
    clear_evaluation_caches,
    evaluate_parser,
    find_correct_indices,
    perturbed_tables,
    queries_equivalent,
)
from repro.parser import evaluation
from repro.tables import Table
from repro.tables.fingerprint import LRUCache


class TestPerturbedTables:
    def test_same_shape_and_content(self, medals_table):
        copies = perturbed_tables(medals_table, count=2, seed=1)
        assert len(copies) == 2
        for copy in copies:
            assert copy.num_rows == medals_table.num_rows
            assert copy.columns == medals_table.columns
            nations = {value.display() for value in copy.column_values("Nation")}
            assert nations == {value.display() for value in medals_table.column_values("Nation")}

    def test_deterministic_for_seed(self, medals_table):
        first = perturbed_tables(medals_table, count=1, seed=9)[0]
        second = perturbed_tables(medals_table, count=1, seed=9)[0]
        assert first.to_dicts() == second.to_dicts()

    def test_numeric_columns_are_shuffled(self, medals_table):
        copy = perturbed_tables(medals_table, count=1, seed=3)[0]
        original = [value.display() for value in medals_table.column_values("Total")]
        shuffled = [value.display() for value in copy.column_values("Total")]
        assert sorted(original) == sorted(shuffled)


class TestQueryEquivalence:
    def test_identical_queries_equivalent(self, medals_table):
        gold = q.column_values("Total", q.column_records("Nation", "Fiji"))
        assert queries_equivalent(gold, gold, medals_table)

    def test_spurious_query_detected(self, seasons_table):
        """The Figure 8 case: same answer on this table, different query."""
        gold = q.max_(q.column_values("Year", q.column_records("League", "USL A-League")))
        spurious = q.min_(q.column_values("Year", q.argmax_records("Attendance")))
        gold_answer = execute(gold, seasons_table).answer_strings()
        spurious_answer = execute(spurious, seasons_table).answer_strings()
        # Both may or may not coincide on the original table; equivalence must
        # look past the single-table answer either way.
        assert not queries_equivalent(spurious, gold, seasons_table, perturbations=4)

    def test_semantically_identical_but_syntactically_different(self, medals_table):
        gold = q.value_difference("Total", "Nation", "Fiji", "Tonga")
        reversed_operands = q.value_difference("Total", "Nation", "Tonga", "Fiji")
        assert queries_equivalent(reversed_operands, gold, medals_table)

    def test_wrong_column_projection_not_equivalent(self, medals_table):
        gold = q.column_values("Total", q.column_records("Nation", "Fiji"))
        wrong = q.column_values("Silver", q.column_records("Nation", "Fiji"))
        assert not queries_equivalent(wrong, gold, medals_table)

    def test_failing_candidate_not_equivalent(self, medals_table):
        gold = q.max_(q.column_values("Total", q.all_records()))
        failing = q.max_(q.column_values("Total", q.column_records("Nation", "Atlantis")))
        assert not queries_equivalent(failing, gold, medals_table)


class TestEvaluationMemos:
    """``perturbed_tables`` and ``queries_equivalent`` are memoised by
    content; the memo must never change what either returns."""

    @pytest.fixture(autouse=True)
    def cold(self):
        clear_evaluation_caches()
        yield
        clear_evaluation_caches()

    def test_cached_perturbed_tables_equal_uncached(self, medals_table):
        built = perturbed_tables(medals_table, count=3, seed=5)
        hits = evaluation._PERTURBED_TABLES.hits
        cached = perturbed_tables(medals_table, count=3, seed=5)
        assert evaluation._PERTURBED_TABLES.hits == hits + 1
        assert cached is not built, "callers must get a list of their own"
        uncached = evaluation._build_perturbed_tables(medals_table, 3, 5)
        for copies in (built, cached):
            assert [c.to_dicts() for c in copies] == [u.to_dicts() for u in uncached]
            assert [c.name for c in copies] == [u.name for u in uncached]

    def test_same_content_under_another_name_keeps_its_name(self, medals_table):
        renamed = Table(
            columns=medals_table.columns,
            rows=[[cell.value for cell in record] for record in medals_table],
            name="renamed",
        )
        assert renamed.fingerprint == medals_table.fingerprint
        perturbed_tables(medals_table, count=2, seed=5)
        copies = perturbed_tables(renamed, count=2, seed=5)
        assert {copy.name for copy in copies} == {"renamed~perturbed"}

    def test_verdicts_match_after_clearing(self, medals_table, seasons_table):
        cases = [
            (
                q.value_difference("Total", "Nation", "Tonga", "Fiji"),
                q.value_difference("Total", "Nation", "Fiji", "Tonga"),
                medals_table,
            ),
            (
                q.column_values("Silver", q.column_records("Nation", "Fiji")),
                q.column_values("Total", q.column_records("Nation", "Fiji")),
                medals_table,
            ),
            (
                q.min_(q.column_values("Year", q.argmax_records("Attendance"))),
                q.max_(q.column_values("Year", q.column_records("League", "USL A-League"))),
                seasons_table,
            ),
            # The first case's candidate against another gold: the verdict
            # is keyed by both queries, never by the candidate alone.
            (
                q.value_difference("Total", "Nation", "Tonga", "Fiji"),
                q.column_values("Total", q.column_records("Nation", "Fiji")),
                medals_table,
            ),
        ]
        memoised = [queries_equivalent(c, g, t, perturbations=4) for c, g, t in cases]
        hits = evaluation._EQUIVALENCE_VERDICTS.hits
        assert [queries_equivalent(c, g, t, perturbations=4) for c, g, t in cases] == memoised
        assert evaluation._EQUIVALENCE_VERDICTS.hits == hits + len(cases)
        clear_evaluation_caches()
        assert [queries_equivalent(c, g, t, perturbations=4) for c, g, t in cases] == memoised
        assert memoised == [True, False, False, False]

    def test_memos_stay_within_their_bounds(self, monkeypatch, medals_table):
        for index in range(evaluation._PERTURBED_TABLES.maxsize + 6):
            tiny = Table(columns=["Nation", "Total"], rows=[["A", index], ["B", 1]])
            perturbed_tables(tiny, count=1, seed=1)
            assert len(evaluation._PERTURBED_TABLES) <= evaluation._PERTURBED_TABLES.maxsize
        assert evaluation._PERTURBED_TABLES.evictions >= 6
        small = LRUCache(maxsize=2)
        monkeypatch.setattr(evaluation, "_EQUIVALENCE_VERDICTS", small)
        gold = q.column_values("Total", q.column_records("Nation", "Fiji"))
        for column in ("Gold", "Silver", "Bronze", "Rank"):
            wrong = q.column_values(column, q.column_records("Nation", "Fiji"))
            assert not queries_equivalent(wrong, gold, medals_table)
            assert len(small) <= 2
        assert small.evictions == 2

    def test_edited_table_never_reuses_an_old_verdict(self, medals_table):
        """"Rank 1" and "largest Total" pick the same nation on the full
        table but not on its perturbations; cut down to its first row (same
        name, new content) the table makes the two queries equivalent, so a
        verdict keyed by anything but content would be stale."""
        gold = q.column_values("Nation", q.argmax_records("Total"))
        candidate = q.column_values("Nation", q.column_records("Rank", 1))
        assert queries_equivalent(candidate, gold, medals_table) is False
        first_row = [cell.value for cell in medals_table.record(0)]
        edited = Table(columns=medals_table.columns, rows=[first_row], name=medals_table.name)
        assert edited.fingerprint != medals_table.fingerprint
        misses = evaluation._EQUIVALENCE_VERDICTS.misses
        assert queries_equivalent(candidate, gold, edited) is True
        assert evaluation._EQUIVALENCE_VERDICTS.misses == misses + 1
        clear_evaluation_caches()
        assert queries_equivalent(candidate, gold, edited) is True
        assert queries_equivalent(candidate, gold, medals_table) is False


class TestMetrics:
    @pytest.fixture
    def example(self, medals_table):
        gold = q.column_values("Total", q.column_records("Nation", "Fiji"))
        return EvaluationExample(
            question="What was the Total of Fiji?",
            table=medals_table,
            gold_query=gold,
            gold_answer=tuple(execute(gold, medals_table).answer_values()),
        )

    def test_find_correct_indices(self, example):
        parser = SemanticParser()
        parse = parser.parse(example.question, example.table)
        indices = find_correct_indices(parse.candidates, example)
        assert indices
        assert all(0 <= index < len(parse.candidates) for index in indices)

    def test_evaluate_parser_produces_consistent_report(self, example):
        parser = SemanticParser()
        report = evaluate_parser(parser, [example], k=7)
        assert report.total == 1
        assert 0.0 <= report.correctness <= 1.0
        assert report.correctness <= report.answer_accuracy + 1e-9
        assert report.correctness <= report.correctness_bound + 1e-9
        assert 0.0 <= report.mrr <= 1.0

    def test_bound_is_monotone_in_k(self, example, medals_table):
        gold2 = q.count(q.column_records("Nation", "Fiji"))
        example2 = EvaluationExample(
            question="How many rows list Fiji?",
            table=medals_table,
            gold_query=gold2,
            gold_answer=tuple(execute(gold2, medals_table).answer_values()),
        )
        parser = SemanticParser()
        report = evaluate_parser(parser, [example, example2], k=7)
        assert report.bound_at(1) <= report.bound_at(7) <= report.bound_at(50)

    def test_summary_keys(self, example):
        parser = SemanticParser()
        report = evaluate_parser(parser, [example], k=7)
        summary = report.summary()
        assert {"examples", "correctness", "answer_accuracy", "mrr", "bound@7"} <= set(summary)

    def test_oracle_weights_reach_full_correctness(self, example):
        parser = SemanticParser()
        parser.model.weights = {
            "overlap:recall": 4.0,
            "overlap:precision": 2.0,
            "entities:unused": -3.0,
            "trigger:difference:spurious_op": -3.0,
            "trigger:count:spurious_op": -3.0,
            "trigger:max:spurious_op": -2.0,
            "trigger:min:spurious_op": -2.0,
            "structure:size": -0.2,
        }
        report = evaluate_parser(parser, [example], k=7)
        assert report.correctness == 1.0
