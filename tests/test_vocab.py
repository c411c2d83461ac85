import hashlib
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t2tbio import vocab as vocab_module
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
    path = tmp_path / "vocab.txt"
    save_vocab(v, path)
    loaded = load_vocab(path)
    assert loaded.pieces == v.pieces
    assert loaded.num_sentinels == v.num_sentinels
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == f"t2tbio-vocab v1 size={v.size} sentinels={v.num_sentinels}"


# pieces built from the characters the file format escapes and their escape letters
escape_prone_pieces = st.lists(
    st.lists(st.sampled_from(["\\", "n", "r", "\n", "\r", "a", "b"]), min_size=1, max_size=8).map("".join),
    max_size=12,
    unique=True,
)


@settings(max_examples=300, deadline=None)
@given(escape_prone_pieces)
def test_save_load_round_trips_escaped_characters(tmp_path_factory, learned):
    v = Vocabulary(pieces=(PAD_PIECE, EOS_PIECE, UNK_PIECE, *learned, sentinel_piece(0)), num_sentinels=1)
    path = tmp_path_factory.getbasetemp() / "escaped_vocab.txt"  # rewritten by every example
    save_vocab(v, path)
    assert load_vocab(path) == v


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("not a vocab\nx\n", encoding="utf-8")
    with pytest.raises(VocabError, match="bad vocabulary header"):
        load_vocab(path)


@pytest.mark.parametrize(
    "content",
    ["[" * 5000 + "\nx\n", "[" * (1 << 20)],
    ids=["5000-bracket-line", "1MB-line-no-newline"],
)
def test_a_long_bad_header_is_not_echoed_whole(tmp_path, content):
    path = tmp_path / "vocab.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(VocabError, match="bad vocabulary header") as info:
        load_vocab(path)
    assert len(str(info.value)) < 200


def test_a_header_cut_by_the_read_cap_is_rejected(tmp_path):
    # the first 64 characters would match the header pattern on their own
    path = tmp_path / "vocab.txt"
    path.write_text("t2tbio-vocab v1 size=3 sentinels=" + "0" * 100 + "\n<pad>\n</s>\n<unk>\n", encoding="utf-8")
    with pytest.raises(VocabError, match="bad vocabulary header"):
        load_vocab(path)


def test_load_rejects_wrong_count(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("t2tbio-vocab v1 size=5 sentinels=0\n<pad>\n</s>\n<unk>\n", encoding="utf-8")
    with pytest.raises(VocabError, match="lists 3 pieces"):
        load_vocab(path)


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
    with pytest.raises(VocabError, match="holds a word boundary past its first character") as info:
        Vocabulary(pieces=pieces, num_sentinels=0)
    assert info.value.piece_id == 6


SPECIALS = ["<pad>", "</s>", "<unk>"]


@pytest.mark.parametrize(
    "pieces, sentinels, line, message",
    [
        pytest.param(SPECIALS + ["a", "b", "a"], 0, 7, "duplicate piece 'a'", id="duplicate"),
        pytest.param(SPECIALS + ["a", "<extra_id_3>", "b"], 0, 6, "reserved string '<extra_id_3>' among learned pieces",
                     id="reserved-string"),
        pytest.param(SPECIALS + ["a", sentinel_piece(0), sentinel_piece(1)], 2, 7, "sentinel 0 must sit at id 5",
                     id="misplaced-sentinel"),
        pytest.param(SPECIALS + [BOUNDARY, "a", "b", "a" + BOUNDARY + "b"], 0, 8,
                     "learned piece 'a\\ue000b' holds a word boundary past its first character", id="boundary"),
        pytest.param(SPECIALS, 1, None, "vocabulary too small for specials and sentinels", id="too-small"),
    ],
)
def test_load_names_the_path_and_the_line_of_a_broken_rule(tmp_path, pieces, sentinels, line, message):
    """A piece's line is its id + 2, after the header; a rule of the whole
    vocabulary names only the path."""
    path = tmp_path / "vocab.txt"
    path.write_text(f"t2tbio-vocab v1 size={len(pieces)} sentinels={sentinels}\n" + "\n".join(pieces) + "\n",
                    encoding="utf-8")
    with pytest.raises(VocabError) as info:
        load_vocab(path)
    assert str(info.value) == (f"{path}: {message}" if line is None else f"{path}:{line}: {message}")
    if line is not None:  # the line named is the one that holds the piece
        assert path.read_text(encoding="utf-8").splitlines()[line - 1] == pieces[line - 2]


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
