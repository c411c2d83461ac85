import json
import math
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from t2tbio.corruption import (
    CorruptionExample,
    SpanCorruptionConfig,
    apply_span_mask,
    corrupt,
    derive_seed,
    max_spans,
    max_target_len,
    write_shard,
)
from t2tbio.errors import ConfigError, CorruptionError, DataFormatError
from t2tbio.rng import SplitMix64
from t2tbio.vocab import EOS_ID, PAD_ID

from helpers import random_token_sequence, read_shard, word_vocab
from oracles import reconstruct, sentinel_index

WORDS = [f"tok{i}" for i in range(40)]


@pytest.fixture(scope="module")
def v():
    return word_vocab(WORDS, num_sentinels=64)


def sentinels_in(ids, v):
    return [sentinel_index(v, t) for t in ids if v.is_sentinel(t)]


def test_zero_rate_leaves_input_unchanged(v):
    tokens = random_token_sequence(SplitMix64(1), 12, v)
    cfg = SpanCorruptionConfig(corruption_rate=0.0)
    ex = corrupt(tokens, cfg, v, 7)
    assert list(ex.input_ids) == tokens
    assert list(ex.target_ids) == [v.sentinel_id(0), EOS_ID]


def test_mask_budget_exact(v):
    for rate in (0.1, 0.15, 0.3):
        for length in (10, 33, 64, 128, 512):
            tokens = random_token_sequence(SplitMix64(length), length, v)
            cfg = SpanCorruptionConfig(corruption_rate=rate)
            ex = corrupt(tokens, cfg, v, length)
            masked = length - sum(1 for t in ex.input_ids if not v.is_sentinel(t))
            expected = max(1, int(length * rate + 0.5))
            assert masked == expected


def test_max_target_len_bounds_every_target(v):
    for rate in (0.0, 0.01, 0.1, 0.15, 0.5):
        cfg = SpanCorruptionConfig(corruption_rate=rate, mean_span_length=1.0)
        for n in (1, 2, 5, 16, 33):
            tokens = random_token_sequence(SplitMix64(n), n, v)
            longest = max(len(corrupt(tokens, cfg, v, s).target_ids) for s in range(20))
            assert longest <= max_target_len(n, cfg), (rate, n)
    assert max_target_len(40, SpanCorruptionConfig(corruption_rate=0.0)) == 2  # final sentinel, eos


def test_max_target_len_counts_the_one_token_a_small_rate_masks(v):
    # 2 * 0.1 rounds to no token, but a positive rate masks one: sentinel,
    # token, final sentinel, eos
    cfg = SpanCorruptionConfig(corruption_rate=0.1)
    assert len(corrupt(random_token_sequence(SplitMix64(2), 2, v), cfg, v, 3).target_ids) == 4
    assert max_target_len(2, cfg) == 4


def test_sentinels_increasing_and_matched(v):
    tokens = random_token_sequence(SplitMix64(5), 60, v)
    cfg = SpanCorruptionConfig(corruption_rate=0.3, mean_span_length=2.0)
    ex = corrupt(tokens, cfg, v, 11)
    in_sent = sentinels_in(ex.input_ids, v)
    tgt_sent = sentinels_in(ex.target_ids, v)
    assert in_sent == list(range(len(in_sent)))
    assert tgt_sent == in_sent + [len(in_sent)]
    assert ex.target_ids[-1] == EOS_ID


def test_no_adjacent_sentinels_in_input(v):
    for seed in range(30):
        tokens = random_token_sequence(SplitMix64(seed), 50, v)
        cfg = SpanCorruptionConfig(corruption_rate=0.3, mean_span_length=1.5)
        ex = corrupt(tokens, cfg, v, seed)
        for a, b in zip(ex.input_ids, ex.input_ids[1:]):
            assert not (v.is_sentinel(a) and v.is_sentinel(b))


def test_masked_multiset_preserved(v):
    tokens = random_token_sequence(SplitMix64(3), 40, v)
    ex = corrupt(tokens, SpanCorruptionConfig(), v, 9)
    removed = sorted(
        t for t in tokens
    )  # multiset of original = non-sentinel input tokens + target span tokens
    kept = [t for t in ex.input_ids if not v.is_sentinel(t)]
    span_tokens = [t for t in ex.target_ids if not v.is_sentinel(t) and t != EOS_ID]
    assert sorted(kept + span_tokens) == removed


def test_deterministic_and_seed_sensitive(v):
    tokens = random_token_sequence(SplitMix64(2), 100, v)
    cfg = SpanCorruptionConfig()
    a = corrupt(tokens, cfg, v, 42)
    b = corrupt(tokens, cfg, v, 42)
    assert a == b
    differing = 0
    for s in range(100):
        x = corrupt(tokens, cfg, v, 2 * s)
        y = corrupt(tokens, cfg, v, 2 * s + 1)
        differing += x != y
    assert differing >= 99


def test_rejects_reserved_tokens(v):
    with pytest.raises(CorruptionError, match="reserved token"):
        corrupt([3, PAD_ID, 4], SpanCorruptionConfig(), v, 0)
    with pytest.raises(CorruptionError, match="reserved token"):
        corrupt([3, EOS_ID], SpanCorruptionConfig(), v, 0)
    with pytest.raises(CorruptionError, match="reserved token"):
        corrupt([v.sentinel_id(0)], SpanCorruptionConfig(), v, 0)


def test_rejects_empty_input(v):
    with pytest.raises(CorruptionError, match="empty"):
        corrupt([], SpanCorruptionConfig(), v, 0)


def test_too_many_spans():
    # 3 sentinels: two spans and the final sentinel
    v = word_vocab(WORDS, num_sentinels=3)
    tokens = random_token_sequence(SplitMix64(8), 64, v)
    cfg = SpanCorruptionConfig(corruption_rate=0.5, mean_span_length=1.0)
    with pytest.raises(CorruptionError, match=r"too many spans: \d+ \(limit 2\)"):
        corrupt(tokens, cfg, v, 1)


@pytest.mark.parametrize("rate", [0.0, 0.1, 0.3, 0.5, 0.9])
def test_max_spans_bounds_every_example_and_is_reached(v, rate):
    cfg = SpanCorruptionConfig(corruption_rate=rate, mean_span_length=1.0)
    for n in (1, 2, 3, 5, 8):
        tokens = random_token_sequence(SplitMix64(n), n, v)
        most = max(len(sentinels_in(corrupt(tokens, cfg, v, s).input_ids, v)) for s in range(200))
        assert most == max_spans(n, cfg), (rate, n)


def test_max_spans_grows_with_the_window():
    for rate in (0.0, 0.1, 0.15, 0.3, 0.5, 0.9, 0.99):
        cfg = SpanCorruptionConfig(corruption_rate=rate)
        bounds = [max_spans(n, cfg) for n in range(1, 600)]
        assert bounds == sorted(bounds), rate


def test_config_is_the_objective_alone():
    assert [f.name for f in fields(SpanCorruptionConfig)] == ["corruption_rate", "mean_span_length"]


def test_apply_span_mask_merges_adjacent(v):
    tokens = random_token_sequence(SplitMix64(4), 10, v)
    ex = apply_span_mask(tokens, [(2, 4), (4, 6)], v)
    # adjacent selections collapse to one span -> one interior sentinel
    assert sentinels_in(ex.input_ids, v) == [0]
    assert list(ex.target_ids[1:5]) == tokens[2:6]


def test_reconstruct_single_splice(v):
    a, b, c = 3, 4, 5
    s0, s1 = v.sentinel_id(0), v.sentinel_id(1)
    ex = CorruptionExample(input_ids=(a, s0, c), target_ids=(s0, b, s1, EOS_ID))
    assert reconstruct(ex, v) == [a, b, c]


def test_reconstruct_detects_mismatch(v):
    s0, s1, s2 = v.sentinel_id(0), v.sentinel_id(1), v.sentinel_id(2)
    bad = CorruptionExample(input_ids=(3, s0, 4), target_ids=(s1, 5, s2, EOS_ID))
    with pytest.raises(CorruptionError, match="malformed pair"):
        reconstruct(bad, v)
    # input missing the sentinel that the target declares
    bad2 = CorruptionExample(input_ids=(3, 4), target_ids=(s0, 5, s1, EOS_ID))
    with pytest.raises(CorruptionError, match="malformed pair"):
        reconstruct(bad2, v)


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=120))
def test_round_trip_property(seed, length):
    v = word_vocab(WORDS, num_sentinels=64)
    rng = SplitMix64(seed)
    tokens = random_token_sequence(rng, length, v)
    rate = (0.1, 0.15, 0.3)[seed % 3]
    ex = corrupt(tokens, SpanCorruptionConfig(corruption_rate=rate), v, seed)
    assert reconstruct(ex, v) == tokens


def test_shard_round_trip(tmp_path, v):
    cfg = SpanCorruptionConfig()
    examples = [
        corrupt(random_token_sequence(SplitMix64(i), 20, v), cfg, v, 5) for i in range(7)
    ]
    path = tmp_path / "shard.tsv"
    write_shard(path, examples, cfg, 5)
    loaded = read_shard(path)
    assert loaded == examples
    manifest = json.loads((tmp_path / "shard.tsv.manifest.json").read_text(encoding="utf-8"))
    assert manifest["records"] == 7
    # the base seed is recorded beside the objective; the sentinel limit is the vocabulary's
    assert manifest["config"] == {"corruption_rate": 0.15, "mean_span_length": 3.0, "seed": 5}


def test_derive_seed_is_an_int_mixing_in_the_index():
    seeds = [derive_seed(5, i) for i in range(50)]
    assert all(type(s) is int and 0 <= s < 2**64 for s in seeds)
    assert len(set(seeds)) == 50
    assert derive_seed(5, 3) == derive_seed(5, 3) != derive_seed(6, 3)


def test_shard_reader_validates(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("1 2 3\n", encoding="utf-8")  # missing tab
    with pytest.raises(DataFormatError, match="INPUT<TAB>TARGET"):
        read_shard(path)
    path.write_text("1 x\t2\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="non-integer"):
        read_shard(path)


@pytest.mark.parametrize(
    "manifest",
    [b"\xff\xfe{}", b'{"records": ' + b"9" * 5000 + b"}", b"[7]"],
    ids=["not-utf8", "5000-digit-int", "not-an-object"],
)
def test_shard_reader_rejects_bad_manifest(tmp_path, manifest):
    path = tmp_path / "shard.tsv"
    path.write_text("1 2\t3\n", encoding="utf-8")
    (tmp_path / "shard.tsv.manifest.json").write_bytes(manifest)
    with pytest.raises(DataFormatError, match="manifest"):
        read_shard(path)


@pytest.mark.parametrize("mean_span", [math.inf, math.nan])
def test_mean_span_length_must_be_finite(mean_span):
    with pytest.raises(ConfigError, match="mean_span_length"):
        SpanCorruptionConfig(mean_span_length=mean_span)


def test_config_validation():
    # a bad objective is a config error; CorruptionError is left to the data
    with pytest.raises(ConfigError, match=r"^corruption_rate must be in \[0, 1\)$"):
        SpanCorruptionConfig(corruption_rate=1.0)
    with pytest.raises(ConfigError, match="^mean_span_length must be finite and >= 1$"):
        SpanCorruptionConfig(mean_span_length=0.5)
