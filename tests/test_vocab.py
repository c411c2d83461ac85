import hashlib
import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t2tbio import vocab as vocab_module
from t2tbio.data_io import read_json
from t2tbio.errors import VocabError
from t2tbio.rng import SplitMix64
from t2tbio.vocab import (
    BOUNDARY,
    EOS_ID,
    EOS_PIECE,
    PAD_ID,
    PAD_PIECE,
    UNK_ID,
    UNK_PIECE,
    Vocabulary,
    load_vocab,
    save_vocab,
    sentinel_piece,
    train_vocab,
)

from helpers import word_vocab
from oracles import greedy_segment
from reference_model import recount_train_vocab


def test_train_merges_most_frequent_pair_first():
    # "abab": the pair (a, b) occurs twice, so "ab" is the first merge
    v = train_vocab(["abab"], target_size=10, num_sentinels=2)
    assert "a" in v.pieces and "b" in v.pieces and "ab" in v.pieces


def test_greedy_longest_match_uses_merged_piece():
    # one merge only: 3 specials + alphabet {a, b, boundary} + "ab"
    v = train_vocab(["abab"], target_size=7, num_sentinels=0)
    ids = v.encode("abab")
    ab = v.piece_to_id["ab"]
    assert ids[1:] == [ab, ab]


def test_single_character_corpus_minimal_size():
    v = train_vocab(["x"], target_size=5, num_sentinels=0)
    # pad, eos, unk, boundary, "x"
    assert v.size == 5
    assert "x" in v.pieces


def test_sentinel_id_layout():
    v = word_vocab(["alpha"], num_sentinels=100)
    assert v.sentinel_id(0) == v.size - 1
    assert v.sentinel_id(1) == v.size - 2
    assert v.sentinel_id(99) == v.size - 100
    with pytest.raises(VocabError, match="sentinel index out of range"):
        v.sentinel_id(100)


def test_sentinel_layout_at_size_1000():
    filler = [f"w{i}" for i in range(897)]  # 3 + 897 + 100 = 1000
    v = word_vocab(filler, num_sentinels=100)
    assert v.size == 1000
    assert v.sentinel_id(0) == 999
    assert v.sentinel_id(99) == 900


def test_empty_corpus_rejected():
    with pytest.raises(VocabError, match="empty corpus"):
        train_vocab([], target_size=100)
    with pytest.raises(VocabError, match="empty corpus"):
        train_vocab([""], target_size=100)


def test_size_below_floor_reports_floor():
    with pytest.raises(VocabError, match="vocab size below floor") as exc:
        train_vocab(["abc"], target_size=5, num_sentinels=2)
    # floor = 3 specials + 2 sentinels + 4 chars (a, b, c, boundary)
    assert "9" in str(exc.value)


def test_encode_empty_text():
    v = train_vocab(["abab"], target_size=10, num_sentinels=2)
    assert v.encode("") == []


def test_decode_stops_at_eos_and_skips_pad():
    v = word_vocab(["hello", "world"])
    h = v.piece_to_id["hello"]
    w = v.piece_to_id["world"]
    assert v.decode([PAD_ID, h, EOS_ID, w]) == "hello"
    assert v.decode([EOS_ID]) == ""


def test_decode_renders_sentinels():
    v = word_vocab(["x"], num_sentinels=4)
    assert v.decode([v.sentinel_id(0)]) == "<extra_id_0>"
    assert v.decode([v.sentinel_id(3)]) == "<extra_id_3>"


def test_decode_rejects_out_of_range_ids():
    v = word_vocab(["x"])
    with pytest.raises(VocabError, match="id out of range"):
        v.decode([v.size])
    with pytest.raises(VocabError, match="id out of range"):
        v.decode([-1])


def test_figure_sentence_round_trip():
    sentence = "IL - 2 gene expression and NF - kappa B activation"
    v = train_vocab([sentence], target_size=120, num_sentinels=4)
    assert v.decode(v.encode("IL - 2")) == "IL - 2"
    assert v.decode(v.encode(sentence)) == sentence


def test_unknown_characters_map_to_unk():
    v = train_vocab(["abc"], target_size=20, num_sentinels=0)
    ids = v.encode("axb")
    assert UNK_ID in ids


def test_train_is_deterministic():
    corpus = ["the cat sat", "the bat sat", "a cat sat on the mat"]
    v1 = train_vocab(corpus, target_size=40, num_sentinels=4)
    v2 = train_vocab(corpus, target_size=40, num_sentinels=4)
    assert v1.pieces == v2.pieces


def test_merges_never_produce_reserved_strings():
    corpus = ["<unk> <unk> <unk> <pad> </s> <extra_id_0>"] * 3
    v = train_vocab(corpus, target_size=200, num_sentinels=2)
    for piece in v.learned_pieces():
        assert piece not in ("<pad>", "</s>", "<unk>")
        assert not piece.startswith("<extra_id_") or not piece.endswith(">")
    # literal "<unk>" text still round-trips as characters
    assert v.decode(v.encode("<unk>")) == "<unk>"


@given(st.text(alphabet="abcd -", max_size=40))
def test_round_trip_over_training_alphabet(s):
    v = train_vocab(["abcd abcd - dcba", "a b c d -"], target_size=60, num_sentinels=4)
    assert v.decode(v.encode(s)) == s


@given(st.text(alphabet="ab c", max_size=30))
def test_encode_never_emits_reserved_ids(s):
    v = train_vocab(["abc cab bca", "a b c"], target_size=40, num_sentinels=8)
    ids = v.encode(s)
    for i in ids:
        assert i != PAD_ID
        assert i < v.first_sentinel_id


def test_id_bijection():
    v = train_vocab(["some words for a vocabulary"], target_size=80, num_sentinels=8)
    for piece, idx in v.piece_to_id.items():
        assert v.pieces[idx] == piece
    assert len(v.piece_to_id) == v.size


def test_save_load_round_trip(tmp_path):
    v = train_vocab(["the cat sat on the mat", "a cat"], target_size=50, num_sentinels=8)
    path = tmp_path / "vocab.json"
    save_vocab(v, path)
    loaded = load_vocab(path)
    assert loaded.pieces == v.pieces
    assert loaded.num_sentinels == v.num_sentinels
    assert read_json(path) == {"format": "t2tbio-vocab v2", "num_sentinels": v.num_sentinels, "pieces": list(v.pieces)}


# pieces built from characters a text file or a JSON string treats specially:
# line ends, backslashes and quotes, escape letters, the word-boundary marker
# (which a learned piece may hold only first), a character beyond the BMP and
# lone surrogates, which UTF-8 cannot encode but a JSON escape can
piece_characters = st.sampled_from(["\\", "n", "r", "u", "\n", "\r", '"', "\U0001F9EC", "\ud800", "\udfff", "a"])
any_pieces = st.lists(
    st.builds(lambda first, rest: first + "".join(rest), st.sampled_from(["", BOUNDARY]),
              st.lists(piece_characters, min_size=1, max_size=8)),
    max_size=12,
    unique=True,
)


@settings(max_examples=300, deadline=None)
@given(any_pieces, st.integers(0, 3))
def test_save_load_round_trips_any_piece(tmp_path_factory, learned, sentinels):
    pieces = (PAD_PIECE, EOS_PIECE, UNK_PIECE, *learned, *(sentinel_piece(k) for k in reversed(range(sentinels))))
    v = Vocabulary(pieces=pieces, num_sentinels=sentinels)
    path = tmp_path_factory.getbasetemp() / "any_vocab.json"  # rewritten by every example
    paired = [i for i, p in enumerate(pieces)
              if any("\ud800" <= a <= "\udbff" and "\udc00" <= b <= "\udfff" for a, b in zip(p, p[1:]))]
    if paired:  # JSON would read the pair back as the one character it encodes
        with pytest.raises(VocabError, match=rf"pieces\[{paired[0]}\] holds a surrogate pair"):
            save_vocab(v, path)
        return
    save_vocab(v, path)
    loaded = load_vocab(path)
    assert (loaded.pieces, loaded.num_sentinels) == (v.pieces, v.num_sentinels)


def test_a_trained_piece_holding_a_lone_surrogate_round_trips(tmp_path):
    v = train_vocab(["ab\ud800c ab\ud800c"], 12, 2)
    assert any("\ud800" in p and len(p) > 1 for p in v.learned_pieces())
    save_vocab(v, tmp_path / "vocab.json")
    assert load_vocab(tmp_path / "vocab.json") == v


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe t2tbio-vocab v1\n", b"t2tbio-vocab v1 size=" + b"9" * 5000 + b" sentinels=0\n"],
    ids=["not-utf8", "5000-digit-size"],
)
def test_load_rejects_unreadable_file_naming_it(tmp_path, content):
    path = tmp_path / "vocab.txt"
    path.write_bytes(content)
    with pytest.raises(VocabError, match="vocab.txt"):
        load_vocab(path)


def test_a_negative_sentinel_count_is_rejected():
    with pytest.raises(VocabError, match="num_sentinels must be non-negative"):
        Vocabulary(pieces=("<pad>", "</s>", "<unk>", "a", "b"), num_sentinels=-1)


def test_vocabulary_invariants_enforced():
    with pytest.raises(VocabError):
        Vocabulary(pieces=("<pad>", "</s>", "<unk>", sentinel_piece(1)), num_sentinels=1)
    with pytest.raises(VocabError, match="duplicate"):
        Vocabulary(pieces=("<pad>", "</s>", "<unk>", "x", "x"), num_sentinels=0)


# -- incremental training against the recounting oracle ----------------------

# word fragments that make ties, runs of one character, reserved strings,
# multiple spaces and literal boundary markers likely
FRAGMENTS = ["a", "b", "c", "aa", "aaaa", "ab", "ba", " ", "  ", "<unk>", "<pad>", "</s>",
             "<extra_id_0>", "<extra_id_12>", "<", ">", BOUNDARY]
# whole words, repeated, between runs of spaces or literal boundary markers,
# after and before spaces: train_vocab counts each distinct word once
WORDS = ["a", "ab", "ba", "aab", "abab", "<unk>"]
SEPARATORS = [" ", "   ", BOUNDARY, " " + BOUNDARY + " "]
EDGES = ["", " ", "   "]
spaced_words = st.builds(
    lambda lead, words, times, sep, trail: lead + sep.join(words * times) + trail,
    st.sampled_from(EDGES),
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=4),
    st.integers(1, 3),
    st.sampled_from(SEPARATORS),
    st.sampled_from(EDGES),
)
corpus_lines = st.one_of(
    st.text(alphabet="ab <>" + BOUNDARY, max_size=16),
    st.lists(st.sampled_from(FRAGMENTS), max_size=10).map("".join),
    spaced_words,
)


def _train_outcome(train, lines, size, sentinels):
    try:
        v = train(lines, target_size=size, num_sentinels=sentinels)
    except VocabError as e:
        return ("error", str(e))
    return ("pieces", v.pieces, v.num_sentinels)


@settings(max_examples=300, deadline=None)
@given(st.lists(corpus_lines, min_size=1, max_size=8), st.integers(10, 120), st.integers(-1, 6))
def test_incremental_training_matches_recount_oracle(lines, size, sentinels):
    assert _train_outcome(train_vocab, lines, size, sentinels) == _train_outcome(
        recount_train_vocab, lines, size, sentinels
    )


@pytest.mark.parametrize("size", [120, 300, 600])
def test_incremental_training_matches_oracle_on_fixture_corpus(fixtures_dir, size):
    lines = (fixtures_dir / "pretrain_corpus.txt").read_text(encoding="utf-8").splitlines()
    assert train_vocab(lines, size, 16).pieces == recount_train_vocab(lines, size, 16).pieces


def long_tail_corpus(seed: int, lines: int, words_per_line: int = 12) -> list[str]:
    """Lines of words drawn from SplitMix64: runs of one letter and two-letter
    cycles, whose merge sites touch or overlap, among random letter strings."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(lines):
        words = []
        for _ in range(words_per_line):
            kind, n = rng.next_below(4), 2 + rng.next_below(9)
            if kind == 0:  # aaaa
                word = "abcde"[rng.next_below(5)] * n
            elif kind == 1:  # abab
                x, y = "abcde"[rng.next_below(5)], "abcde"[rng.next_below(5)]
                word = (x + y) * (n // 2) + x * (n % 2)
            else:
                word = "".join("abcdefgh"[rng.next_below(8)] for _ in range(n))
            words.append(word)
        out.append(" ".join(words))
    return out


# sha256 of the pieces, one a line, as the recounting trainer learned them
LONG_TAIL_SHA256 = "e24c8bc7a6c51febb5c626e11ad872f3fe3c86dc502812e633c8455062cd07c8"


def test_long_merge_tail_matches_its_pinned_digest():
    lines = long_tail_corpus(37, 400)
    assert len(set(" ".join(lines).split(" "))) >= 1000
    v = train_vocab(lines, 2000, 8)
    assert v.size == 2000  # 1980 merges over the 9-symbol alphabet
    assert hashlib.sha256("\n".join(v.pieces).encode("utf-8")).hexdigest() == LONG_TAIL_SHA256


def test_long_tail_corpus_matches_recount_oracle():
    lines = long_tail_corpus(37, 200)
    assert train_vocab(lines, 400, 8).pieces == recount_train_vocab(lines, 400, 8).pieces


# -- the per-word encode memo ------------------------------------------------


MEMO_VOCAB = train_vocab(["abc abd cab  ab", "a bb c", "<unk> ca"], target_size=40, num_sentinels=2)


@given(st.lists(st.text(alphabet="abcdx <>" + BOUNDARY, max_size=20), min_size=1, max_size=6))
def test_memo_encode_matches_uncached_encode(texts):
    for _ in range(2):  # the second pass reads every word from the memo
        assert [MEMO_VOCAB.encode(t) for t in texts] == [greedy_segment(MEMO_VOCAB, t) for t in texts]


def test_greedy_segment_oracle_on_known_ids():
    v = train_vocab(["abab"], target_size=7, num_sentinels=0)  # one merge: "ab"
    boundary, a, b, ab = (v.piece_to_id[p] for p in (BOUNDARY, "a", "b", "ab"))
    assert greedy_segment(v, "abab xa") == [boundary, ab, ab, boundary, UNK_ID, a]
    assert greedy_segment(v, "b") == [boundary, b]
    assert greedy_segment(v, "") == []


@pytest.mark.parametrize("piece", ["a" + BOUNDARY + "b", "a" + BOUNDARY, BOUNDARY + BOUNDARY],
                         ids=["inside", "last", "after-a-leading-one"])
def test_piece_spanning_a_boundary_is_rejected(piece):
    pieces = ("<pad>", "</s>", "<unk>", BOUNDARY, "a", "b", piece)
    with pytest.raises(VocabError) as info:
        Vocabulary(pieces=pieces, num_sentinels=0)
    assert str(info.value) == f"pieces[6]: learned piece {piece!r} holds a word boundary past its first character"


SPECIALS = ["<pad>", "</s>", "<unk>"]


def write_vocab_document(path, doc) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.mark.parametrize(
    "pieces, sentinels, piece, message",
    [
        pytest.param(SPECIALS + ["a", "b", "a"], 0, 5, "duplicate piece 'a'", id="duplicate"),
        pytest.param(SPECIALS + ["a", "<extra_id_3>", "b"], 0, 4, "reserved string '<extra_id_3>' among learned pieces",
                     id="reserved-string"),
        pytest.param(SPECIALS + ["a", sentinel_piece(0), sentinel_piece(1)], 2, 5, "sentinel 0 must sit at id 5",
                     id="misplaced-sentinel"),
        pytest.param(SPECIALS + [BOUNDARY, "a", "b", "a" + BOUNDARY + "b"], 0, 6,
                     "learned piece 'a\\ue000b' holds a word boundary past its first character", id="boundary"),
        pytest.param(SPECIALS, 1, None, "vocabulary too small for specials and sentinels", id="too-small"),
    ],
)
def test_load_names_the_path_and_the_piece_of_a_broken_rule(tmp_path, pieces, sentinels, piece, message):
    """A rule that one piece breaks names it as ``pieces[i]``, i its id; a
    rule of the whole vocabulary names only the path."""
    path = tmp_path / "vocab.json"
    write_vocab_document(path, {"format": "t2tbio-vocab v2", "num_sentinels": sentinels, "pieces": pieces})
    with pytest.raises(VocabError) as info:
        load_vocab(path)
    assert str(info.value) == (f"{path}: {message}" if piece is None else f"{path}: pieces[{piece}]: {message}")


VALID_DOCUMENT = {"format": "t2tbio-vocab v2", "num_sentinels": 1, "pieces": SPECIALS + ["a", sentinel_piece(0)]}


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("pieces", "<pad> </s> <unk>", "pieces must be a JSON list"),
        ("pieces", {"0": "<pad>"}, "pieces must be a JSON list"),
        ("pieces", [*SPECIALS, 7, sentinel_piece(0)], "pieces[3]: expected a string, got 7"),
        ("pieces", [*SPECIALS, None, sentinel_piece(0)], "pieces[3]: expected a string, got None"),
        ("num_sentinels", -1, "num_sentinels must be non-negative"),
        ("num_sentinels", True, "num_sentinels: expected an integer, got True"),
        ("num_sentinels", 1.0, "num_sentinels: expected an integer, got 1.0"),
        ("num_sentinels", None, "the document needs 'num_sentinels'"),  # None: the key is deleted
        ("pieces", None, "the document needs 'pieces'"),
        ("format", None, "the document needs 'format'"),
        ("size", 5, "unknown key 'size' in the document"),
        ("format", "t2tbio-vocab v1", "format: unknown format 't2tbio-vocab v1', expected 't2tbio-vocab v2'"),
        ("format", 2, "format: unknown format 2, expected 't2tbio-vocab v2'"),
    ],
    ids=["pieces-string", "pieces-object", "pieces-number", "pieces-null", "negative-sentinels", "bool-sentinels",
         "float-sentinels", "no-sentinels", "no-pieces", "no-format", "unknown-key", "other-format",
         "number-format"],
)
def test_a_mutated_document_raises_vocab_error_naming_the_path(tmp_path, key, value, message):
    path = tmp_path / "vocab.json"
    doc = dict(VALID_DOCUMENT)
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    write_vocab_document(path, doc)
    with pytest.raises(VocabError) as info:
        load_vocab(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("doc", [[], "t2tbio-vocab v2", None], ids=["list", "string", "null"])
def test_a_document_that_is_not_an_object_is_rejected(tmp_path, doc):
    path = tmp_path / "vocab.json"
    write_vocab_document(path, doc)
    with pytest.raises(VocabError) as info:
        load_vocab(path)
    assert str(info.value) == f"{path}: the document must be a JSON object"


def test_every_cut_of_a_saved_file_raises_vocab_error_naming_the_path(tmp_path):
    path = tmp_path / "vocab.json"
    save_vocab(Vocabulary(tuple(VALID_DOCUMENT["pieces"]), 1), path)
    data = path.read_bytes()
    for cut in range(len(data) - 1):  # the last byte is the newline after the document
        path.write_bytes(data[:cut])
        with pytest.raises(VocabError) as info:
            load_vocab(path)
        assert str(info.value).startswith(f"{path}: ")


def test_a_v1_text_file_is_rejected_naming_its_format(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("t2tbio-vocab v1 size=4 sentinels=1\n<pad>\n</s>\n<unk>\n<extra_id_0>\n", encoding="utf-8")
    with pytest.raises(VocabError) as info:
        load_vocab(path)
    assert str(info.value).startswith(f"{path}: a t2tbio-vocab v1 text file")


@settings(max_examples=300, deadline=None)
@given(st.lists(corpus_lines, min_size=1, max_size=8), st.integers(10, 120), st.integers(0, 6))
def test_trained_pieces_hold_a_boundary_only_first(lines, size, sentinels):
    """The invariant the per-word memo rests on, and that ``Vocabulary``
    checks, holds for every vocabulary ``train_vocab`` returns, also from
    corpora holding a literal boundary marker."""
    try:
        v = train_vocab(lines, target_size=size, num_sentinels=sentinels)
    except VocabError as e:
        assert str(e).startswith(("empty corpus", "vocab size below floor")), e
        return
    assert all(BOUNDARY not in p[1:] for p in v.learned_pieces())


def test_memo_never_grows_past_its_cap(monkeypatch):
    monkeypatch.setattr(vocab_module, "ENCODE_MEMO_MAX", 8)
    v = Vocabulary(pieces=MEMO_VOCAB.pieces, num_sentinels=MEMO_VOCAB.num_sentinels)
    words = ["".join("abc"[(i >> k) % 3] for k in range(4)) for i in range(60)]
    for i in range(0, len(words), 5):
        text = " ".join(words[i : i + 5])
        assert v.encode(text) == greedy_segment(v, text)
        assert 0 < len(v._memo) <= 8


def test_memo_shared_across_threads_gives_the_uncached_ids(monkeypatch):
    monkeypatch.setattr(vocab_module, "ENCODE_MEMO_MAX", 8)
    v = Vocabulary(pieces=MEMO_VOCAB.pieces, num_sentinels=MEMO_VOCAB.num_sentinels)
    texts = [" ".join("abc"[(i * 7 + k) % 3] * (1 + (i + k) % 4) for k in range(6)) for i in range(40)]
    expected = [greedy_segment(v, t) for t in texts]
    n_threads = 6  # with a 1 us switch interval their misses interleave
    results: list = [None] * n_threads
    sizes: list[int] = []

    def work(slot):
        got = []
        for _ in range(20):
            got.append([v.encode(t) for t in texts])
            sizes.append(len(v._memo))
        results[slot] = got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == [expected] * 20 for r in results)
    assert max(sizes) <= 8 + n_threads
