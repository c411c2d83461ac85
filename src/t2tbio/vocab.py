"""Subword vocabulary: greedy pair-merge training, encode/decode, sentinels.

The vocabulary is a flat list of piece strings. Ids 0/1/2 are pad, eos, unk;
the top ``num_sentinels`` ids are reserved span-mask sentinels laid out in
descending order (sentinel k has id ``size - 1 - k``) and rendered as the
literal text ``<extra_id_k>``. Everything in between is learned from the
corpus, starting from the single-character alphabet so any training-alphabet
string is always encodable.

Whitespace handling: each space character is rewritten to a private-use
word-boundary marker and the text gets one leading marker, so segmentation
sees word boundaries and decoding can restore the original spacing exactly
(including runs of spaces). Decode maps markers back to spaces and strips the
single leading one.

Training is the incremental pair-merge update (Sennrich et al., arXiv
1508.07909) over the corpus's distinct words, each with its count: the
adjacent-pair counts, an index from each pair to the words that hold it, and
a heap of (-count, pair) live across merges. A merge of (a, b) into ab
changes only the counts beside each merge site: (a, b) itself, (left, a) ->
(left, ab) and (b, right) -> (ab, right). Merges stay within a word unit, so
a learned piece holds the boundary marker at index 0 or not at all.
Under that invariant greedy longest-match never crosses a word, a text's ids
are the concatenation of its words' ids, and ``encode`` memoizes them per
word. ``Vocabulary`` rejects a learned piece that breaks the invariant, so a
vocabulary loaded from a file keeps it too.

A vocabulary file is one JSON document, ``{"format": "t2tbio-vocab v2",
"num_sentinels": k, "pieces": [...]}`` with the pieces in id order, one a
line. ``data_io`` writes and reads it by the rules every JSON file of the
package follows, ``read_document`` checking its format first and then its
keys and types; JSON's escapes carry any piece. The size is the number of
pieces.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain

from .data_io import read_document, write_document
from .errors import ConfigError, DataFormatError, VocabError

PAD_ID = 0
EOS_ID = 1
UNK_ID = 2

PAD_PIECE = "<pad>"
EOS_PIECE = "</s>"
UNK_PIECE = "<unk>"

# Word-boundary marker; a private-use codepoint so it never collides with
# ordinary text. Occurrences in input text are treated as spaces.
BOUNDARY = "\ue000"

# Words whose ids one Vocabulary keeps; the memo is emptied when it fills.
ENCODE_MEMO_MAX = 1 << 16

VOCAB_FORMAT = "t2tbio-vocab v2"
_SENTINEL_RE = re.compile(r"^<extra_id_(\d+)>$")
_SURROGATE_PAIR_RE = re.compile("[\ud800-\udbff][\udc00-\udfff]")


def sentinel_piece(k: int) -> str:
    return f"<extra_id_{k}>"


def _is_reserved_piece(piece: str) -> bool:
    return piece in (PAD_PIECE, EOS_PIECE, UNK_PIECE) or _SENTINEL_RE.match(piece) is not None


@dataclass(frozen=True)
class Vocabulary:
    """Immutable subword vocabulary; safe to share across threads.

    Its one mutable part is the per-word encode memo. Each access is a single
    dict get, set or clear, and an entry depends only on its key, so threads
    sharing a vocabulary get the ids one thread would. Racing misses may
    segment a word twice, and may leave the memo up to one entry per racing
    thread above ``ENCODE_MEMO_MAX`` until the next miss empties it."""

    pieces: tuple[str, ...]
    num_sentinels: int
    piece_to_id: dict[str, int] = field(init=False, repr=False, compare=False)
    _max_piece_len: int = field(init=False, repr=False, compare=False)
    _memo: dict[str, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_sentinels < 0:
            raise VocabError("num_sentinels must be non-negative")
        if len(self.pieces) < 3 + self.num_sentinels:
            raise VocabError("vocabulary too small for specials and sentinels")
        if self.pieces[:3] != (PAD_PIECE, EOS_PIECE, UNK_PIECE):
            raise VocabError("ids 0..2 must be pad, eos, unk")
        size = len(self.pieces)
        for k in range(self.num_sentinels):
            if self.pieces[size - 1 - k] != sentinel_piece(k):
                raise VocabError(f"pieces[{size - 1 - k}]: sentinel {k} must sit at id {size - 1 - k}")
        mapping: dict[str, int] = {}
        for i, p in enumerate(self.pieces):
            if p in mapping:
                raise VocabError(f"pieces[{i}]: duplicate piece {p!r}")
            mapping[p] = i
        learned = self.learned_pieces()
        for i, p in enumerate(learned, start=3):
            if _is_reserved_piece(p):
                raise VocabError(f"pieces[{i}]: reserved string {p!r} among learned pieces")
            if BOUNDARY in p[1:]:
                raise VocabError(f"pieces[{i}]: learned piece {p!r} holds a word boundary past its first character")
        object.__setattr__(self, "piece_to_id", mapping)
        object.__setattr__(self, "_max_piece_len", max((len(p) for p in learned), default=1))
        object.__setattr__(self, "_memo", {})

    @property
    def size(self) -> int:
        return len(self.pieces)

    @property
    def first_sentinel_id(self) -> int:
        """Smallest id in the sentinel block (= size - num_sentinels)."""
        return self.size - self.num_sentinels

    def learned_pieces(self) -> tuple[str, ...]:
        return self.pieces[3 : self.size - self.num_sentinels]

    def is_sentinel(self, token_id: int) -> bool:
        return self.num_sentinels > 0 and token_id >= self.first_sentinel_id

    def sentinel_id(self, k: int) -> int:
        if not 0 <= k < self.num_sentinels:
            raise VocabError(
                f"sentinel index out of range: {k} (vocabulary has {self.num_sentinels})"
            )
        return self.size - 1 - k

    def encode(self, text: str) -> list[int]:
        """Greedy longest-match segmentation; unknown characters map to unk."""
        if not text:
            return []
        memo = self._memo
        ids: list[int] = []
        for word in text.replace(" ", BOUNDARY).split(BOUNDARY):
            word_ids = memo.get(word)
            if word_ids is None:
                word_ids = self._segment(BOUNDARY + word)
                if len(memo) >= ENCODE_MEMO_MAX:
                    memo.clear()
                memo[word] = word_ids
            ids += word_ids
        return ids

    def _segment(self, normalized: str) -> list[int]:
        """Greedy longest-match over boundary-normalized text."""
        ids: list[int] = []
        learned_floor = 3
        learned_ceil = self.size - self.num_sentinels
        i = 0
        n = len(normalized)
        while i < n:
            match_id = None
            for length in range(min(self._max_piece_len, n - i), 0, -1):
                cand = self.piece_to_id.get(normalized[i : i + length])
                if cand is not None and learned_floor <= cand < learned_ceil:
                    match_id = cand
                    i += length
                    break
            if match_id is None:
                match_id = UNK_ID
                i += 1
            ids.append(match_id)
        return ids

    def decode(self, ids: list[int]) -> str:
        """Concatenate pieces, restore spacing; stops at eos, skips pad."""
        parts: list[str] = []
        for token_id in ids:
            if not 0 <= token_id < self.size:
                raise VocabError(f"id out of range: {token_id} (vocab size {self.size})")
            if token_id == PAD_ID:
                continue
            if token_id == EOS_ID:
                break
            parts.append(self.pieces[token_id])
        text = "".join(parts).replace(BOUNDARY, " ")
        if text.startswith(" "):
            text = text[1:]
        return text


def train_vocab(corpus, target_size: int, num_sentinels: int = 100) -> Vocabulary:
    """Train a greedy pair-merge subword vocabulary.

    Starts from the single-character alphabet of the (boundary-normalized)
    corpus and repeatedly merges the most frequent adjacent pair, breaking
    frequency ties by lexicographically smallest pair. Merges never cross word
    boundaries and never produce a reserved piece string. Stops at
    ``target_size`` total pieces or when no merge candidates remain, so the
    returned size is at most ``target_size``.

    Each distinct word is held once, as a list of its symbols led by a
    boundary marker, with the number of times it occurs. A merge visits the
    words the pair index lists under the merged pair (a, b); the index still
    lists a word under the pairs that earlier merges took from it, so a word
    may hold no site. In each word it finds the sites left to right without
    overlap, as ``list.index`` finds a, and merges each in place. A site
    changes only the counts beside it: (a, b) loses one, (left, a) becomes
    (left, ab) and (b, right) becomes (ab, right), weighted by the word's
    count. A left neighbour is ab already when the site before it ended
    there. The word is indexed under those two new pairs; it held its other
    pairs before the merge and is listed under them already.
    """
    lines = [line for line in corpus if line]
    if not lines:
        raise VocabError("empty corpus")
    if num_sentinels < 0:
        raise VocabError("num_sentinels must be non-negative")

    # word -> frequency, in first-seen order, in one count over the lines'
    # words; a line's words are split only when the count reaches it, so
    # the corpus's words are never all held at once
    counts = Counter(chain.from_iterable(line.replace(" ", BOUNDARY).split(BOUNDARY) for line in lines))
    alphabet = {BOUNDARY}.union(*counts)

    floor = 3 + num_sentinels + len(alphabet)
    if target_size < floor:
        raise VocabError(
            f"vocab size below floor: target_size={target_size} but the minimum is "
            f"{floor} (3 specials + {num_sentinels} sentinels + {len(alphabet)} characters)"
        )

    learned: list[str] = sorted(alphabet)
    budget = target_size - 3 - num_sentinels - len(learned)
    # each word's symbols, led by its boundary marker, merged in place
    words = [[BOUNDARY, *word] for word in counts]
    freqs = list(counts.values())
    # adjacent-pair counts, the words that may hold each pair (a superset:
    # merges do not remove stale entries) and a max-heap of (-count, pair)
    # whose entries go stale when a count changes and are skipped on pop
    pair_counts: dict[tuple[str, str], int] = {}
    holders: defaultdict[tuple[str, str], set[int]] = defaultdict(set)
    for w, (word, freq) in enumerate(zip(words, freqs)):
        for pair in zip(word, word[1:]):
            pair_counts[pair] = pair_counts.get(pair, 0) + freq
            holders[pair].add(w)
    heap = [(-count, pair) for pair, count in pair_counts.items()]
    heapq.heapify(heap)

    while budget > 0 and heap:
        # highest count first, then lexicographically smallest pair
        neg_count, best = heapq.heappop(heap)
        if pair_counts.get(best) != -neg_count:
            continue
        a, b = best
        merged = a + b
        if _is_reserved_piece(merged):  # never learned: this entry and any later one are dropped
            continue
        delta: defaultdict[tuple[str, str], int] = defaultdict(int)
        for w in holders.pop(best):
            word, freq = words[w], freqs[w]
            i = 0
            while True:
                try:  # the next a that has a symbol after it
                    i = word.index(a, i, len(word) - 1)
                except ValueError:
                    break
                if word[i + 1] == b:  # a site: (left, a, b, right) becomes (left, ab, right)
                    delta[best] -= freq
                    if i:  # the left neighbour is ab already if a site ended there
                        left = word[i - 1]
                        delta[left, a] -= freq
                        delta[left, merged] += freq
                        holders[left, merged].add(w)
                    if i + 2 < len(word):
                        right = word[i + 2]
                        delta[b, right] -= freq
                        delta[merged, right] += freq
                        holders[merged, right].add(w)
                    word[i : i + 2] = [merged]
                i += 1
        for pair, d in delta.items():
            if d:
                count = pair_counts.get(pair, 0) + d
                if count:
                    pair_counts[pair] = count
                    heapq.heappush(heap, (-count, pair))
                else:
                    del pair_counts[pair]
        learned.append(merged)
        budget -= 1

    pieces = [PAD_PIECE, EOS_PIECE, UNK_PIECE] + learned
    pieces += [sentinel_piece(k) for k in range(num_sentinels - 1, -1, -1)]
    return Vocabulary(pieces=tuple(pieces), num_sentinels=num_sentinels)


@dataclass(frozen=True)
class _VocabDocument:
    """A vocabulary file's JSON document but for its ``format``, read by
    ``data_io.read_document``."""

    num_sentinels: int
    pieces: list[str]


def save_vocab(v: Vocabulary, path) -> None:
    """Write ``v`` to ``path`` as a vocabulary file (see the module docstring).
    A piece holding a high surrogate and then a low one raises VocabError,
    since JSON reads the two back as the one character they encode."""
    paired = [i for i, p in enumerate(v.pieces) if _SURROGATE_PAIR_RE.search(p)]
    if paired:
        raise VocabError(f"{path}: pieces[{paired[0]}] holds a surrogate pair, which JSON reads back as one character")
    write_document(path, VOCAB_FORMAT, {"num_sentinels": v.num_sentinels, "pieces": v.pieces}, indent=1)


def load_vocab(path) -> Vocabulary:
    """The vocabulary in the file at ``path``. An error names the path, and
    for a rule that one piece breaks, that piece as ``pieces[i]``."""
    try:
        doc = read_document(path, _VocabDocument, VOCAB_FORMAT)
        return Vocabulary(pieces=tuple(doc.pieces), num_sentinels=doc.num_sentinels)
    except (DataFormatError, ConfigError) as e:  # the message names the path
        # a v1 file is not JSON: its text is the json.JSONDecodeError's doc
        if getattr(e.__cause__, "doc", "").startswith("t2tbio-vocab v1 "):
            raise VocabError(f"{path}: a t2tbio-vocab v1 text file, which this version no longer reads: "
                             "run vocab-train again") from e
        raise VocabError(str(e)) from e
    except VocabError as e:
        raise VocabError(f"{path}: {e}") from e
