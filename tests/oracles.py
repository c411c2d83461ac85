"""Reference implementations used only by the tests.

The metric oracles are written in a deliberately different style (plain
loops, explicit confusion counts) and kept free of any imports from
t2tbio.metrics so the two sides stay independent. ``reconstruct`` is the
span-corruption round-trip oracle: it splices target spans back over the
input sentinels by scanning, sharing no code with ``corrupt``.
``normal_one_shot`` is the one-shot weight draw that ``model._fill_normal``'s
blocked draw must match bit for bit, ``normal_array`` the draw of a
generator's next normals that it takes, and ``next_normal`` the scalar draw
``normal_array`` follows; ``u64_array`` is the vectorised ``next_u64``.
``sentinel_index`` is the inverse of ``Vocabulary.sentinel_id``, and
``greedy_segment`` the greedy longest-match over a whole text that
``Vocabulary.encode``'s per-word memo must agree with.
"""

from __future__ import annotations

import math

import numpy as np

from t2tbio.corruption import CorruptionExample
from t2tbio.errors import CorruptionError, VocabError
from t2tbio.rng import _GAMMA, SplitMix64, _mix, draw_normals, jump
from t2tbio.vocab import BOUNDARY, EOS_ID, UNK_ID, Vocabulary


def prf_from_counts(tp, fp, fn):
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def entity_prf_oracle(gold_sentences, pred_sentences):
    """gold/pred: per-sentence lists of (start, end, type) tuples."""
    tp = fp = fn = 0
    for gold, pred in zip(gold_sentences, pred_sentences):
        gold_left = list(gold)
        for span in pred:
            if span in gold_left:
                gold_left.remove(span)
                tp += 1
            else:
                fp += 1
        fn += len(gold_left)
    return prf_from_counts(tp, fp, fn)


def classification_oracle(gold, pred, classes, positive_classes):
    confusion = {}
    for g, p in zip(gold, pred):
        confusion[(g, p)] = confusion.get((g, p), 0) + 1
    per_class = {}
    tp_sum = fp_sum = fn_sum = 0
    for c in classes:
        tp = confusion.get((c, c), 0)
        fp = sum(n for (g, p), n in confusion.items() if p == c and g != c)
        fn = sum(n for (g, p), n in confusion.items() if g == c and p != c)
        per_class[c] = prf_from_counts(tp, fp, fn) + (tp + fn,)
        if c in positive_classes:
            tp_sum += tp
            fp_sum += fp
            fn_sum += fn
    return per_class, prf_from_counts(tp_sum, fp_sum, fn_sum)


def accuracy_oracle(gold, pred):
    hits = 0
    for g, p in zip(gold, pred):
        if g == p:
            hits += 1
    return hits / len(gold)


def sample_f1_oracle(gold_sets, pred_sets):
    scores = []
    for g, p in zip(gold_sets, pred_sets):
        if len(g) == 0 and len(p) == 0:
            scores.append(1.0)
            continue
        inter = 0
        for x in p:
            if x in g:
                inter += 1
        prec = inter / len(p) if len(p) else 0.0
        rec = inter / len(g) if len(g) else 0.0
        scores.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return sum(scores) / len(scores)


def lenient_oracle(groups, normalize):
    correct = 0
    for preds, golds in groups:
        ok = False
        for p in preds:
            for g in golds:
                if normalize(p) == normalize(g):
                    ok = True
        if ok:
            correct += 1
    return correct / len(groups)


def sentinel_index(v: Vocabulary, token_id: int) -> int:
    """k of the sentinel ``token_id`` of ``v``: the inverse of ``sentinel_id``."""
    if not v.is_sentinel(token_id):
        raise VocabError(f"id {token_id} is not a sentinel")
    return v.size - 1 - token_id


def greedy_segment(v: Vocabulary, text: str) -> list[int]:
    """The ids of ``text`` by greedy longest-match over the whole text, after
    each space becomes a word boundary and one boundary leads: at each
    position the longest learned piece, or unk for one character that starts
    none. Words are not split first, so nothing here relies on pieces
    staying inside a word."""
    if not text:
        return []
    learned = {p: i for i, p in enumerate(v.pieces) if 3 <= i < v.first_sentinel_id}
    s = BOUNDARY + text.replace(" ", BOUNDARY)
    ids, at = [], 0
    while at < len(s):
        end = next((end for end in range(len(s), at, -1) if s[at:end] in learned), None)
        ids.append(UNK_ID if end is None else learned[s[at:end]])
        at = at + 1 if end is None else end
    return ids


def reconstruct(example: CorruptionExample, v: Vocabulary) -> list[int]:
    """Splice target spans back into the input; inverse of ``corrupt``.

    Deliberately scan-based and independent of the corruption code so it can
    serve as the round-trip oracle. Raises on any structural violation of the
    sentinel layout.
    """
    target = list(example.target_ids)
    if target and target[-1] == EOS_ID:
        target = target[:-1]
    # parse target into sentinel-keyed spans, in order
    order: list[int] = []
    spans: dict[int, list[int]] = {}
    current: int | None = None
    for t in target:
        if v.is_sentinel(t):
            k = sentinel_index(v, t)
            if k in spans:
                raise CorruptionError(f"malformed pair: sentinel {k} repeated in target")
            order.append(k)
            spans[k] = []
            current = k
        else:
            if current is None:
                raise CorruptionError("malformed pair: target tokens before first sentinel")
            spans[current].append(t)
    if not order:
        raise CorruptionError("malformed pair: target lacks a final sentinel")
    final = order[-1]
    if spans[final]:
        raise CorruptionError("malformed pair: final sentinel carries tokens")
    if order != list(range(len(order))):
        raise CorruptionError(f"malformed pair: sentinel order {order} is not 0..{len(order) - 1}")

    expected = 0
    out: list[int] = []
    for t in example.input_ids:
        if v.is_sentinel(t):
            k = sentinel_index(v, t)
            if k != expected:
                raise CorruptionError(
                    f"malformed pair: input sentinel {k} where {expected} was expected"
                )
            if k >= final:
                raise CorruptionError(f"malformed pair: input uses final sentinel {k}")
            out.extend(spans[k])
            expected += 1
        else:
            out.append(t)
    if expected != final:
        raise CorruptionError(
            f"malformed pair: input has {expected} sentinels, target has {final}"
        )
    return out


def u64_array(rng: SplitMix64, count: int) -> np.ndarray:
    """The next ``count`` outputs of ``rng.next_u64`` as a uint64 array: the
    counters state + k * gamma, k = 1..count, through the mix function;
    uint64 arithmetic wraps exactly like the masked Python integers."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(rng.getstate())
    rng.setstate(jump(rng.getstate(), count))
    _mix(z, np.empty_like(z))
    return z


def normal_array(rng: SplitMix64, count: int) -> np.ndarray:
    """The next ``count`` standard normal draws of ``rng`` as a float64 array:
    the one-block case of ``rng.draw_normals``."""
    out = np.empty(count)
    draw_normals([(out, rng.getstate(), 1.0)])
    rng.setstate(jump(rng.getstate(), 2 * count))
    return out


def normal_one_shot(rng: SplitMix64, shape: tuple[int, ...], std: float, dtype) -> np.ndarray:
    """A tensor of ``shape`` holding ``std`` times the next normal draws of
    ``rng``, cast to ``dtype``, drawn all at once."""
    return (normal_array(rng, math.prod(shape)).reshape(shape) * std).astype(dtype)


def next_normal(rng: SplitMix64) -> float:
    """The next standard normal draw of ``rng``, by Box-Muller (one value per
    two uniforms), one scalar at a time with ``math``'s log and cos."""
    u1 = rng.next_float()
    u2 = rng.next_float()
    # avoid log(0)
    u1 = max(u1, 5e-324)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
