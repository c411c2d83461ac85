"""Evaluation metrics: entity-level P/R/F1, per-class and micro F1, accuracy,
sample-average F1 for multi-label documents, and lenient accuracy for QA.

Zero-division convention throughout: precision or recall with an empty
denominator is 0, and a document whose gold and predicted label sets are both
empty scores a per-document F1 of 1. Every metric raises MetricsError on an
empty list, which has no score, not a score of 0. Lenient accuracy uses a
deterministic normalized-string-match protocol (lowercase, strip punctuation,
collapse whitespace, drop leading articles) in place of human assessment;
reports carry the protocol name so the numbers are never mistaken for
expert-scored ones.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import asdict, dataclass, field

from .errors import T2TBioError
from .task_codec import EntitySpan

LENIENT_MATCH_PROTOCOL = (
    "normalized-string-match (lowercase, strip punctuation, collapse whitespace, "
    "drop leading articles); deterministic stand-in for expert assessment"
)

# the report's optional scalar fields, in table and JSON order
_SCALAR_METRICS = ("precision", "recall", "f1", "accuracy", "lenient_accuracy", "sample_average_f1")

_PUNCT = set(string.punctuation)
_ARTICLES = {"a", "an", "the"}


class MetricsError(T2TBioError):
    pass


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class MetricsReport:
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    accuracy: float | None = None
    lenient_accuracy: float | None = None
    sample_average_f1: float | None = None
    per_class: dict[str, ClassMetrics] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    protocol: str | None = None

    def to_dict(self) -> dict:
        """The fields that hold a value, in field order: no None, no empty dict."""
        return {name: value for name, value in asdict(self).items() if value is not None and value != {}}

    def format_table(self) -> str:
        lines = []
        if self.protocol is not None:
            lines.append(f"# protocol: {self.protocol}")
        width = 18
        for name in _SCALAR_METRICS:
            value = getattr(self, name)
            if value is not None:
                lines.append(f"{name:<{width}} {value:.4f}")
        for name, count in sorted(self.counts.items()):
            lines.append(f"{name:<{width}} {count}")
        if self.per_class:
            lines.append("")
            label_w = max(5, max(len(x) for x in self.per_class))
            lines.append(f"{'class':<{label_w}} {'P':>8} {'R':>8} {'F1':>8} {'support':>8}")
            for label, cm in sorted(self.per_class.items()):
                lines.append(
                    f"{label:<{label_w}} {cm.precision:>8.4f} {cm.recall:>8.4f} "
                    f"{cm.f1:>8.4f} {cm.support:>8}"
                )
        return "\n".join(lines)


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp > 0 else 0.0
    r = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def entity_prf(
    gold: list[list[EntitySpan]],
    pred: list[list[EntitySpan]],
    dropped_markers: int = 0,
) -> MetricsReport:
    """Micro-averaged entity-level P/R/F1.

    A predicted span is a true positive iff (start, end, type) all match a gold
    span of the same sentence exactly; duplicates match at most once.
    """
    if len(gold) != len(pred):
        raise MetricsError(f"gold has {len(gold)} sentences, pred has {len(pred)}")
    if not gold:
        raise MetricsError("cannot score an empty list")
    tp = fp = fn = 0
    for g_spans, p_spans in zip(gold, pred):
        g = Counter((s.start_word, s.end_word, s.entity_type) for s in g_spans)
        p = Counter((s.start_word, s.end_word, s.entity_type) for s in p_spans)
        hits = sum((g & p).values())
        tp += hits
        fp += sum(p.values()) - hits
        fn += sum(g.values()) - hits
    precision, recall, f1 = _prf(tp, fp, fn)
    counts = {"tp": tp, "fp": fp, "fn": fn}
    if dropped_markers:
        counts["dropped_markers"] = dropped_markers
    return MetricsReport(precision=precision, recall=recall, f1=f1, counts=counts)


def classification_f1(
    gold: list[str],
    pred: list[str],
    classes: list[str],
    positive_classes: list[str] | None = None,
) -> MetricsReport:
    """Per-class P/R/F1 plus micro-F1 over the positive classes.

    ``positive_classes`` defaults to all classes; pass the label set minus the
    negative/"false" class to match the relation-extraction convention. A
    class listed twice raises MetricsError.
    """
    if len(gold) != len(pred):
        raise MetricsError(f"gold has {len(gold)} labels, pred has {len(pred)}")
    if not gold:
        raise MetricsError("cannot score an empty list")
    if positive_classes is None:
        positive_classes = list(classes)
    per_class: dict[str, ClassMetrics] = {}
    micro_tp = micro_fp = micro_fn = 0
    for c in classes:
        if c in per_class:  # its counts would enter the micro sums twice
            raise MetricsError(f"class {c!r} is listed more than once")
        tp = sum(1 for g, p in zip(gold, pred) if g == c and p == c)
        fp = sum(1 for g, p in zip(gold, pred) if g != c and p == c)
        fn = sum(1 for g, p in zip(gold, pred) if g == c and p != c)
        p_, r_, f_ = _prf(tp, fp, fn)
        per_class[c] = ClassMetrics(precision=p_, recall=r_, f1=f_, support=tp + fn)
        if c in positive_classes:
            micro_tp += tp
            micro_fp += fp
            micro_fn += fn
    precision, recall, f1 = _prf(micro_tp, micro_fp, micro_fn)
    return MetricsReport(
        precision=precision,
        recall=recall,
        f1=f1,
        per_class=per_class,
        counts={"tp": micro_tp, "fp": micro_fp, "fn": micro_fn},
    )


def accuracy(gold: list, pred: list) -> float:
    if len(gold) != len(pred):
        raise MetricsError(f"gold has {len(gold)} items, pred has {len(pred)}")
    if not gold:
        raise MetricsError("cannot score an empty list")
    return sum(1 for g, p in zip(gold, pred) if g == p) / len(gold)


def sample_average_f1(gold: list[set[str]], pred: list[set[str]]) -> float:
    """Mean over documents of the per-document label-set F1."""
    if len(gold) != len(pred):
        raise MetricsError(f"gold has {len(gold)} documents, pred has {len(pred)}")
    if not gold:
        raise MetricsError("cannot score an empty list")
    total = 0.0
    for g, p in zip(gold, pred):
        if not g and not p:
            total += 1.0
            continue
        hits = len(g & p)
        prec = hits / len(p) if p else 0.0
        rec = hits / len(g) if g else 0.0
        total += 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
    return total / len(gold)


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace, drop leading articles."""
    lowered = text.lower()
    no_punct = "".join(ch for ch in lowered if ch not in _PUNCT)
    words = no_punct.split()
    while words and words[0] in _ARTICLES:
        words = words[1:]
    return " ".join(words)


def lenient_accuracy(groups: list[tuple[list[str], list[str]]]) -> float:
    """Per-question QA score under the any-snippet rule.

    Each group is (predictions, gold answers) for one question, one prediction
    per context snippet. The question counts as correct iff any normalized
    prediction equals any normalized gold answer.
    """
    if not groups:
        raise MetricsError("cannot score an empty list")
    correct = 0
    for i, (preds, golds) in enumerate(groups):
        if not preds:
            raise MetricsError(f"no snippets for question {i}")
        if not golds:
            raise MetricsError(f"no gold answers for question {i}")
        gold_norm = {normalize_answer(g) for g in golds}
        if any(normalize_answer(p) in gold_norm for p in preds):
            correct += 1
    return correct / len(groups)
