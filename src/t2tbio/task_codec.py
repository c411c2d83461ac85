"""Serialize the five supervised task families to and from text-to-text form.

Every encoder prepends ``task_name + ": "`` to the input so one model can be
fine-tuned on a mixture of tasks and condition on the prefix. Entity mentions
in NER targets are wrapped in the marker tokens ``*{`` and ``}*`` (entity type
rides on the task prefix, one type per dataset); classification-style tasks
emit the label text and are decoded back onto their closed label set by
nearest edit distance. All decoders are total: arbitrary model output yields a
(possibly empty) structured result, never an exception.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import CodecError

OPEN_MARK = "*{"
CLOSE_MARK = "}*"

NLI_LABELS = ("entailment", "contradiction", "neutral")
EMPTY_LABEL_SET_TARGET = "none"


_FIELD = re.compile(r"[^ \t]+")


def split_fields(text: str) -> list[str]:
    """``text`` split at runs of ASCII spaces and tabs: the words of an NER
    target, which ``encode_ner`` joins with spaces, and the columns of a
    CoNLL line. ``str.split()`` would also split a word at a form feed,
    U+0085 or other Unicode whitespace."""
    return _FIELD.findall(text)


@dataclass(frozen=True)
class EntitySpan:
    """Inclusive word-index span with its entity type."""

    start_word: int
    end_word: int
    entity_type: str


@dataclass(frozen=True)
class QAExample:
    question: str
    snippets: tuple[str, ...]
    gold_answers: tuple[str, ...]

    def __post_init__(self):
        if not self.snippets:
            raise CodecError("QAExample needs at least one snippet")
        if not self.gold_answers:
            raise CodecError("QAExample needs at least one gold answer")


@dataclass(frozen=True)
class TaskExample:
    task_name: str
    input_text: str
    target_text: str
    gold: dict

    def __post_init__(self):
        if not self.input_text.startswith(self.task_name + ": "):
            raise CodecError(f"input_text must begin with the task prefix {self.task_name + ': '!r}")


@dataclass
class NerDecodeResult:
    spans: list[EntitySpan] = field(default_factory=list)
    dropped_markers: int = 0


def _check_spans(spans: list[EntitySpan], n_words: int) -> list[EntitySpan]:
    ordered = sorted(spans, key=lambda s: (s.start_word, s.end_word))
    prev_end = -1
    for s in ordered:
        if not 0 <= s.start_word <= s.end_word < n_words:
            raise CodecError(f"span ({s.start_word}, {s.end_word}) out of range for {n_words} words")
        if s.start_word <= prev_end:
            raise CodecError("overlapping entities")
        prev_end = s.end_word
    return ordered


def encode_ner(words: list[str], spans: list[EntitySpan], task_name: str) -> TaskExample:
    """Wrap each entity span of the sentence in ``*{ ... }*`` marker tokens."""
    if not words:
        raise CodecError("words must be non-empty")
    if any(w in (OPEN_MARK, CLOSE_MARK) for w in words):
        raise CodecError("marker collision: sentence already contains a marker token")
    ordered = _check_spans(spans, len(words))

    out: list[str] = []
    starts = {s.start_word for s in ordered}
    ends = {s.end_word for s in ordered}
    for i, w in enumerate(words):
        if i in starts:
            out.append(OPEN_MARK)
        out.append(w)
        if i in ends:
            out.append(CLOSE_MARK)
    return TaskExample(
        task_name=task_name,
        input_text=f"{task_name}: " + " ".join(words),
        target_text=" ".join(out),
        gold={
            "kind": "ner",
            "words": list(words),
            "spans": [[s.start_word, s.end_word, s.entity_type] for s in ordered],
        },
    )


def decode_ner(generated: str, source_words: list[str], entity_type: str = "ENT") -> NerDecodeResult:
    """Recover entity spans from generated text.

    Scans for balanced ``*{ ... }*`` regions and aligns the unwrapped token
    stream to ``source_words`` left to right by exact match; generated tokens
    that do not match the current source word are skipped (hallucination
    tolerance). Unbalanced markers and regions that match no source words are
    dropped and counted, never fatal.
    """
    result = NerDecodeResult()
    tokens = split_fields(generated)
    j = 0  # source pointer
    region_start: int | None = None  # first matched source index in open region
    region_matched = False
    in_region = False
    for tok in tokens:
        if tok == OPEN_MARK:
            if in_region:
                result.dropped_markers += 1  # nested open: drop the stale region
            in_region = True
            region_start = None
            region_matched = False
            continue
        if tok == CLOSE_MARK:
            if not in_region:
                result.dropped_markers += 1
                continue
            if region_matched:
                result.spans.append(
                    EntitySpan(start_word=region_start, end_word=j - 1, entity_type=entity_type)
                )
            else:
                result.dropped_markers += 1
            in_region = False
            continue
        if j < len(source_words) and tok == source_words[j]:
            if in_region and not region_matched:
                region_start = j
                region_matched = True
            j += 1
        # else: hallucinated token, skipped
    if in_region:
        result.dropped_markers += 1
    return result


def encode_re(sentence: str, label: str, task_name: str, label_set: list[str]) -> TaskExample:
    """Relation extraction as closed-set label generation."""
    if label not in label_set:
        raise CodecError(f"unknown label {label!r} (declared set: {sorted(label_set)})")
    return TaskExample(
        task_name=task_name,
        input_text=f"{task_name}: {sentence}",
        target_text=label,
        gold={"kind": "re", "label": label},
    )


def encode_nli(premise: str, hypothesis: str, label: str, task_name: str = "mednli") -> TaskExample:
    if label not in NLI_LABELS:
        raise CodecError(f"unknown label {label!r} (expected one of {NLI_LABELS})")
    return TaskExample(
        task_name=task_name,
        input_text=f"{task_name}: premise: {premise} hypothesis: {hypothesis}",
        target_text=label,
        gold={"kind": "nli", "label": label},
    )


def encode_doc(text: str, labels: set[str], task_name: str) -> TaskExample:
    """Multi-label document classification; target is the sorted label list."""
    ordered = sorted(labels)
    target = ", ".join(ordered) if ordered else EMPTY_LABEL_SET_TARGET
    return TaskExample(
        task_name=task_name,
        input_text=f"{task_name}: {text}",
        target_text=target,
        gold={"kind": "doc", "labels": ordered},
    )


def encode_qa(q: QAExample, snippet_index: int, task_name: str) -> TaskExample:
    """One example per (question, snippet); target is the first gold answer."""
    if not 0 <= snippet_index < len(q.snippets):
        raise CodecError(
            f"snippet index {snippet_index} out of range ({len(q.snippets)} snippets)"
        )
    return TaskExample(
        task_name=task_name,
        input_text=f"{task_name}: question: {q.question} context: {q.snippets[snippet_index]}",
        target_text=q.gold_answers[0],
        gold={"kind": "qa", "question": q.question, "answers": list(q.gold_answers)},
    )


def parse_doc_labels(generated: str) -> set[str]:
    """Inverse of the encode_doc target format."""
    text = generated.strip()
    if not text or text == EMPTY_LABEL_SET_TARGET:
        return set()
    return {part.strip() for part in text.split(",") if part.strip()}


def decode_label(generated: str, label_set: list[str], diagnostics: dict | None = None) -> str:
    """Map free text onto a closed label set; total.

    Exact match after trimming and lowercasing wins; otherwise the nearest
    label by character edit distance, ties broken by label-set order. Empty
    output falls back to the first label.
    """
    if not label_set:
        raise CodecError("label_set must be non-empty")
    norm = generated.strip().lower()
    if not norm:
        if diagnostics is not None:
            diagnostics["empty_generation"] = diagnostics.get("empty_generation", 0) + 1
        return label_set[0]
    for label in label_set:
        if label.strip().lower() == norm:
            return label
    if diagnostics is not None:
        diagnostics["fuzzy_match"] = diagnostics.get("fuzzy_match", 0) + 1
    best = label_set[0]
    best_dist = _edit_distance(norm, best.strip().lower())
    for label in label_set[1:]:
        d = _edit_distance(norm, label.strip().lower())
        if d < best_dist:
            best, best_dist = label, d
    return best


def _edit_distance(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]
