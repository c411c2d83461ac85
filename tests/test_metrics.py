import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from t2tbio.metrics import (
    MetricsError,
    MetricsReport,
    accuracy,
    classification_f1,
    entity_prf,
    lenient_accuracy,
    normalize_answer,
    sample_average_f1,
)
from t2tbio.rng import SplitMix64
from t2tbio.task_codec import EntitySpan

from oracles import (
    accuracy_oracle,
    classification_oracle,
    entity_prf_oracle,
    lenient_oracle,
    sample_f1_oracle,
)


def spans(*triples):
    return [EntitySpan(s, e, t) for s, e, t in triples]


class TestEntityPrf:
    def test_perfect(self):
        gold = [spans((0, 1, "D")), spans((2, 2, "D"))]
        report = entity_prf(gold, gold)
        assert report.precision == report.recall == report.f1 == 1.0

    def test_empty_pred(self):
        report = entity_prf([spans((0, 0, "D"))], [[]])
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 == 0.0

    def test_type_must_match(self):
        report = entity_prf([spans((0, 0, "D"))], [spans((0, 0, "C"))])
        assert report.f1 == 0.0
        assert report.counts == {"tp": 0, "fp": 1, "fn": 1}

    def test_alignment_error(self):
        with pytest.raises(MetricsError):
            entity_prf([[]], [[], []])

    def test_matches_bruteforce_on_random_fixtures(self):
        rng = SplitMix64(101)
        for _ in range(100):
            n = 1 + rng.next_below(50)
            gold, pred = [], []
            for _ in range(n):
                g = [(rng.next_below(8), rng.next_below(8) + 8, "T") for _ in range(rng.next_below(4))]
                p = [(rng.next_below(8), rng.next_below(8) + 8, "T") for _ in range(rng.next_below(4))]
                gold.append(g)
                pred.append(p)
            report = entity_prf(
                [spans(*g) for g in gold],
                [spans(*p) for p in pred],
            )
            op, orc, of = entity_prf_oracle(gold, pred)
            assert abs(report.precision - op) < 1e-12
            assert abs(report.recall - orc) < 1e-12
            assert abs(report.f1 - of) < 1e-12

    def test_adding_true_positive_never_lowers_recall(self):
        rng = SplitMix64(7)
        for _ in range(50):
            gold = [spans((rng.next_below(4), 4 + rng.next_below(4), "T")) for _ in range(5)]
            pred = [list(g) if rng.next_below(2) else [] for g in gold]
            before = entity_prf(gold, pred).recall
            # add one more matched gold span as a prediction
            missing = next((i for i, p in enumerate(pred) if not p), None)
            if missing is None:
                continue
            pred[missing] = list(gold[missing])
            after = entity_prf(gold, pred).recall
            assert after >= before


class TestClassificationF1:
    CLASSES = ["CPR:3", "CPR:4", "CPR:5", "CPR:6", "CPR:9", "false"]

    def test_all_correct(self):
        gold = ["CPR:3", "CPR:4", "false"]
        report = classification_f1(gold, gold, self.CLASSES, self.CLASSES[:-1])
        for c in ("CPR:3", "CPR:4"):
            assert report.per_class[c].f1 == 1.0
        assert report.f1 == 1.0

    def test_single_class_all_wrong(self):
        gold = ["CPR:3"] * 4
        pred = ["CPR:4"] * 4
        report = classification_f1(gold, pred, self.CLASSES)
        assert report.per_class["CPR:3"].f1 == 0.0
        assert report.f1 == 0.0

    def test_micro_counts_equal_class_sums(self):
        rng = SplitMix64(55)
        gold = [self.CLASSES[rng.next_below(6)] for _ in range(60)]
        pred = [self.CLASSES[rng.next_below(6)] for _ in range(60)]
        report = classification_f1(gold, pred, self.CLASSES)
        # micro counts over all classes equal the sums of per-class counts
        tp = sum(
            sum(1 for g, p in zip(gold, pred) if g == c and p == c) for c in self.CLASSES
        )
        assert report.counts["tp"] == tp

    def test_matches_confusion_matrix_oracle(self):
        rng = SplitMix64(77)
        positive = self.CLASSES[:-1]
        for _ in range(100):
            n = 5 + rng.next_below(80)
            gold = [self.CLASSES[rng.next_below(6)] for _ in range(n)]
            pred = [self.CLASSES[rng.next_below(6)] for _ in range(n)]
            report = classification_f1(gold, pred, self.CLASSES, positive)
            per_class, (mp, mr, mf) = classification_oracle(gold, pred, self.CLASSES, positive)
            assert abs(report.precision - mp) < 1e-12
            assert abs(report.recall - mr) < 1e-12
            assert abs(report.f1 - mf) < 1e-12
            for c in self.CLASSES:
                op, orc, of, osup = per_class[c]
                assert abs(report.per_class[c].precision - op) < 1e-12
                assert abs(report.per_class[c].recall - orc) < 1e-12
                assert abs(report.per_class[c].f1 - of) < 1e-12
                assert report.per_class[c].support == osup


class TestAccuracy:
    def test_identical(self):
        assert accuracy(["a", "b"], ["a", "b"]) == 1.0

    def test_disjoint(self):
        assert accuracy(["a", "b"], ["b", "a"]) == 0.0

    def test_matches_count_oracle(self):
        rng = SplitMix64(3)
        for _ in range(100):
            n = 1 + rng.next_below(50)
            gold = [rng.next_below(3) for _ in range(n)]
            pred = [rng.next_below(3) for _ in range(n)]
            assert abs(accuracy(gold, pred) - accuracy_oracle(gold, pred)) < 1e-12


class TestSampleAverageF1:
    def test_perfect(self):
        sets = [{"a"}, {"b", "c"}]
        assert sample_average_f1(sets, sets) == 1.0

    def test_partial_doc(self):
        # gold {a,b}, pred {a}: P=1, R=0.5, F1=2/3
        assert abs(sample_average_f1([{"a", "b"}], [{"a"}]) - 2 / 3) < 1e-12

    def test_both_empty_scores_one(self):
        assert sample_average_f1([set()], [set()]) == 1.0

    def test_matches_bruteforce(self):
        rng = SplitMix64(9)
        labels = [f"l{i}" for i in range(6)]
        for _ in range(100):
            n = 1 + rng.next_below(30)
            gold = [{labels[rng.next_below(6)] for _ in range(rng.next_below(4))} for _ in range(n)]
            pred = [{labels[rng.next_below(6)] for _ in range(rng.next_below(4))} for _ in range(n)]
            assert abs(sample_average_f1(gold, pred) - sample_f1_oracle(gold, pred)) < 1e-12


class TestLenientAccuracy:
    def test_any_snippet_counts(self):
        groups = [(["wrong", "also wrong", "RESID database"], ["RESID database"])]
        assert lenient_accuracy(groups) == 1.0

    def test_normalization_bridges_surface_forms(self):
        assert normalize_answer("The RESID database.") == normalize_answer("RESID database")
        groups = [(["The RESID database."], ["RESID database"])]
        assert lenient_accuracy(groups) == 1.0

    def test_no_matches(self):
        groups = [(["x"], ["y"]), (["a"], ["b"])]
        assert lenient_accuracy(groups) == 0.0

    def test_empty_group_rejected(self):
        with pytest.raises(MetricsError, match="no snippets"):
            lenient_accuracy([([], ["a"])])

    def test_matches_bruteforce(self):
        rng = SplitMix64(13)
        words = ["alpha", "beta", "gamma", "delta", "The alpha.", "an beta"]
        for _ in range(100):
            n = 1 + rng.next_below(20)
            groups = []
            for _ in range(n):
                preds = [words[rng.next_below(6)] for _ in range(1 + rng.next_below(3))]
                golds = [words[rng.next_below(6)] for _ in range(1 + rng.next_below(2))]
                groups.append((preds, golds))
            assert abs(
                lenient_accuracy(groups) - lenient_oracle(groups, normalize_answer)
            ) < 1e-12


class TestNormalization:
    def test_leading_articles_dropped(self):
        assert normalize_answer("The   Answer") == "answer"
        assert normalize_answer("an answer") == "answer"

    def test_interior_articles_kept(self):
        assert normalize_answer("role of the gene") == "role of the gene"

    def test_punctuation_stripped(self):
        assert normalize_answer("IL-2, (gene)!") == "il2 gene"


@given(st.permutations(list(range(8))))
def test_permutation_invariance(order):
    gold = [[("T", i, i)] if i % 2 else [] for i in range(8)]
    pred = [[("T", i, i)] if i % 3 else [] for i in range(8)]
    to_spans = lambda items: [EntitySpan(s, e, t) for (t, s, e) in items]
    base = entity_prf([to_spans(g) for g in gold], [to_spans(p) for p in pred])
    shuffled = entity_prf(
        [to_spans(gold[i]) for i in order], [to_spans(pred[i]) for i in order]
    )
    assert base.f1 == shuffled.f1
    assert base.precision == shuffled.precision


def test_all_outputs_in_unit_interval():
    rng = SplitMix64(21)
    for _ in range(50):
        n = 1 + rng.next_below(20)
        gold = [["x", "y"][rng.next_below(2)] for _ in range(n)]
        pred = [["x", "y"][rng.next_below(2)] for _ in range(n)]
        report = classification_f1(gold, pred, ["x", "y"])
        for value in (report.precision, report.recall, report.f1):
            assert 0.0 <= value <= 1.0
        assert 0.0 <= accuracy(gold, pred) <= 1.0


def test_report_serialization_round_trip():
    report = MetricsReport(precision=0.5, recall=1.0, f1=2 / 3, counts={"tp": 1, "fp": 1, "fn": 0})
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["f1"] == 2 / 3
    table = report.format_table()
    assert "precision" in table and "0.5000" in table


@pytest.mark.parametrize(
    "score",
    [lambda: entity_prf([], []), lambda: classification_f1([], [], ["x"]), lambda: accuracy([], []),
     lambda: sample_average_f1([], []), lambda: lenient_accuracy([])],
    ids=["entity_prf", "classification_f1", "accuracy", "sample_average_f1", "lenient_accuracy"],
)
def test_an_empty_list_has_no_score(score):
    with pytest.raises(MetricsError, match="cannot score an empty list"):
        score()


def test_a_class_listed_twice_is_rejected():
    """A repeated class would enter the micro sums twice."""
    gold, pred = ["entailment", "neutral", "contradiction"], ["entailment", "entailment", "neutral"]
    with pytest.raises(MetricsError, match="class 'entailment' is listed more than once"):
        classification_f1(gold, pred, ["entailment", "entailment", "neutral", "contradiction"])
