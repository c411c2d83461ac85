"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance and budget is pinned here, not configurable.
"""

import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from t2tbio.corruption import SpanCorruptionConfig, apply_span_mask, corrupt
from t2tbio.data_io import (
    read_conll_ner,
    read_qa_json,
    read_task_examples,
    read_tsv_pairs,
    write_task_examples,
)
from t2tbio.errors import T2TBioError
from t2tbio.metrics import (
    accuracy,
    classification_f1,
    entity_prf,
    lenient_accuracy,
    normalize_answer,
    sample_average_f1,
)
from t2tbio import model
from t2tbio.model import EOS_ID, ModelConfig, cross_entropy, greedy_decode, init_params, loss_and_grads
from t2tbio.rng import SplitMix64
from t2tbio.task_codec import EntitySpan, TaskExample, decode_ner, encode_ner
from t2tbio.trainer import (
    CorpusEntry,
    MixtureEntry,
    TrainConfig,
    finetune,
    load_task_pairs,
    pretrain,
)
from t2tbio.vocab import train_vocab

from helpers import (
    exact_match_rate,
    random_sentence,
    random_spans,
    random_token_sequence,
    read_shard,
    smoke_script,
    word_vocab,
)
from oracles import (
    accuracy_oracle,
    classification_oracle,
    entity_prf_oracle,
    lenient_oracle,
    reconstruct,
    sample_f1_oracle,
    sentinel_index,
)
from test_gradients import central_difference, relative_error
from test_model import counted_calls, randomized_params, tiny_batch, TINY


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {description}")


FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


# -- 1 ----------------------------------------------------------------------


def test_criterion_1_corruption_round_trip():
    with criterion(1, "corruption round trip on 1000 random sequences in < 5 s"):
        v = word_vocab([f"tok{i}" for i in range(60)], num_sentinels=256)
        rng = SplitMix64(2024)
        rates = (0.1, 0.15, 0.3)
        start = time.monotonic()
        for case in range(1000):
            length = 5 + rng.next_below(508)  # 5..512
            tokens = random_token_sequence(rng, length, v)
            cfg = SpanCorruptionConfig(corruption_rate=rates[case % 3])
            example = corrupt(tokens, cfg, v, rng.next_u64())
            assert reconstruct(example, v) == tokens, f"round trip failed on case {case}"
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


# -- 2 ----------------------------------------------------------------------


def test_criterion_2_masking_golden_structure():
    with criterion(2, "span-masking worked example reproduces the documented structure"):
        words = (
            "IL - 2 gene expression and NF - kappa B activation through CD28 "
            "requires reactive oxygen production by 5 - lipoxygenase"
        ).split()
        v = word_vocab(words, num_sentinels=8)
        tokens = v.encode(" ".join(words))
        assert len(tokens) == len(words)  # whole-word vocab

        # fixture mask selection: the groups ("IL","-","2"), ("kappa","B"),
        # ("oxygen","production"), given as single-token picks so that
        # consecutive selections must merge into spans
        picks = [(0, 1), (1, 2), (2, 3), (8, 9), (9, 10), (15, 16), (16, 17)]
        example = apply_span_mask(tokens, picks, v)

        sent = [sentinel_index(v, t) for t in example.input_ids if v.is_sentinel(t)]
        assert sent == [0, 1, 2], "one sentinel per merged span, in increasing order"

        decoded_input = v.decode(list(example.input_ids))
        assert "<extra_id_0>" in decoded_input
        assert "IL" not in decoded_input.split() and "kappa" not in decoded_input.split()

        # target: sentinel, span tokens, ..., final sentinel, then eos
        expected_target = (
            [v.sentinel_id(0)]
            + v.encode("IL - 2")
            + [v.sentinel_id(1)]
            + v.encode("kappa B")
            + [v.sentinel_id(2)]
            + v.encode("oxygen production")
            + [v.sentinel_id(3), EOS_ID]
        )
        assert list(example.target_ids) == expected_target
        assert reconstruct(example, v) == tokens


# -- 3 ----------------------------------------------------------------------


def test_criterion_3_ner_codec_round_trip():
    with criterion(3, "NER codec round trip on 1000 random sentences, zero failures"):
        rng = SplitMix64(7)
        alphabet = [f"w{i}" for i in range(30)]
        for case in range(1000):
            n = 1 + rng.next_below(14)
            words = random_sentence(rng, n, alphabet)
            spans = random_spans(rng, n, 4, "T")
            encoded = encode_ner(words, spans, "task")
            decoded = decode_ner(encoded.target_text, words, entity_type="T")
            assert decoded.spans == spans, f"round trip failed on case {case}"
            assert decoded.dropped_markers == 0


# -- 4 ----------------------------------------------------------------------


def test_criterion_4_gradient_check():
    with criterion(4, "analytic vs central-difference gradients, rel err < 1e-4, < 60 s"):
        assert TINY.d_model == 8 and TINY.n_heads == 2 and TINY.dtype == "float64"
        assert TINY.n_encoder_layers == 2 and TINY.n_decoder_layers == 2
        params = randomized_params(TINY, seed=2024)
        batch = tiny_batch(seed=2024, b=2, s=4, t=5)
        start = time.monotonic()
        _, grads = loss_and_grads(params, TINY, batch)
        worst = ("", 0.0)
        for name in sorted(params):
            numeric = central_difference(params, TINY, batch, name)
            err = relative_error(grads[name], numeric)
            if err > worst[1]:
                worst = (name, err)
            assert err < 1e-4, f"{name}: relative error {err:.3e}"
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s"
        print(f"  (worst tensor: {worst[0]} at {worst[1]:.2e}; {elapsed:.1f} s)", end=" ")


# -- 5 ----------------------------------------------------------------------


def test_criterion_5_uniform_logit_loss_anchor():
    with criterion(5, "uniform-logit loss equals ln(vocab_size) within 1e-6"):
        logits = np.zeros((3, 4, 57))
        targets = np.full((3, 4), 11)
        mask = np.ones((3, 4), dtype=bool)
        loss, _ = cross_entropy(logits, targets, mask)
        assert abs(loss - math.log(57)) < 1e-6
        # whole model: a zero embedding forces uniform logits regardless of depth
        params = init_params(TINY, seed=0)
        params["embedding"] = np.zeros_like(params["embedding"])
        model_loss, _ = loss_and_grads(params, TINY, tiny_batch(seed=5))
        assert abs(model_loss - math.log(TINY.vocab_size)) < 1e-6


# -- 6 ----------------------------------------------------------------------

OVERFIT_WORDS = ["cell", "protein", "kinase", "tumor", "gene", "expression", "pathway", "receptor"]


def overfit_model_cfg(vocab_size: int) -> ModelConfig:
    return ModelConfig(
        vocab_size=vocab_size,
        d_model=64,
        n_heads=4,
        d_ff=128,
        n_encoder_layers=2,
        n_decoder_layers=2,
        rel_pos_buckets=16,
        rel_pos_max_distance=32,
        max_seq_len=64,
    )


def unique_word_set_sentences(count: int, fixture_seed: int, n_words: int = 3) -> list[list[str]]:
    """Sentences of distinct words with pairwise-distinct word sets, so no two
    training sentences are permutations of each other."""
    rng = SplitMix64(fixture_seed)
    bodies: list[list[str]] = []
    seen: set[frozenset] = set()
    while len(bodies) < count:
        picks: list[str] = []
        while len(picks) < n_words:
            w = OVERFIT_WORDS[rng.next_below(len(OVERFIT_WORDS))]
            if w not in picks:
                picks.append(w)
        key = frozenset(picks)
        if key in seen:
            continue
        seen.add(key)
        bodies.append(picks)
    return bodies


def test_criterion_6a_pretraining_overfit():
    with criterion(6, "(a) span-infilling loss falls below 10% of initial within 300 steps"):
        lines = [
            line
            for line in open(fixture("pretrain_corpus.txt"), encoding="utf-8").read().splitlines()
            if line
        ]
        assert len(lines) == 30
        v = train_vocab(lines, target_size=200, num_sentinels=32)
        cfg = overfit_model_cfg(v.size)
        t_cfg = TrainConfig(
            learning_rate=3e-3, batch_size=32, num_steps=300, input_len=16, target_len=16, seed=0
        )
        start = time.monotonic()
        result = pretrain(
            cfg,
            init_params(cfg, seed=0),
            [CorpusEntry(fixture("pretrain_corpus.txt"))],
            SpanCorruptionConfig(),
            t_cfg,
            v,
        )
        elapsed = time.monotonic() - start
        initial = result.losses[0]
        final = float(np.mean(result.losses[-10:]))
        assert final < 0.1 * initial, f"final {final:.3f} vs initial {initial:.3f}"
        assert elapsed < 300.0, f"took {elapsed:.0f} s"
        # trailing-mean sanity from the training contract
        assert float(np.mean(result.losses[-100:])) < initial
        print(f"  (loss {initial:.2f} -> {final:.3f}, ratio {final / initial:.3f})", end=" ")


@pytest.fixture(scope="module")
def copy_model(tmp_path_factory):
    """Criterion 6b's copy task and the model fine-tuned on it for 200 steps:
    (params, model config, (input, target) id pairs, seconds the fine-tuning took)."""
    bodies = unique_word_set_sentences(16, fixture_seed=3)
    examples = [
        TaskExample("copy", "copy: " + " ".join(b), " ".join(b), {}) for b in bodies
    ]
    path = tmp_path_factory.mktemp("copy") / "copy.jsonl"
    write_task_examples(path, examples)
    v = train_vocab([ex.input_text for ex in examples], target_size=100, num_sentinels=8)
    cfg = overfit_model_cfg(v.size)
    t_cfg = TrainConfig(
        learning_rate=2e-3, batch_size=16, num_steps=200, input_len=24, target_len=24, seed=0
    )
    entry = MixtureEntry("copy", str(path))
    start = time.monotonic()
    result = finetune(init_params(cfg, seed=0), [entry], cfg, t_cfg, v)
    pairs, _, _ = load_task_pairs(entry, v, 24, 24)
    return result.params, cfg, pairs, time.monotonic() - start


def test_criterion_6b_copy_task_overfit(copy_model):
    with criterion(6, "(b) copy-task fine-tuning reaches >= 95% exact match within 200 steps"):
        params, cfg, pairs, train_s = copy_model
        start = time.monotonic()
        rate = exact_match_rate(params, cfg, pairs, max_len=24)
        elapsed = train_s + time.monotonic() - start
        assert rate >= 0.95, f"exact match {rate:.3f}"
        assert elapsed < 300.0, f"took {elapsed:.0f} s"
        print(f"  (exact match {rate:.3f})", end=" ")


def test_copy_model_decodes_drafts_in_fewer_passes(copy_model, monkeypatch):
    # the copy model's outputs are runs of its inputs, so drafts copied from
    # the input are accepted: the tokens stay those of one-token steps, and
    # the decoder makes fewer passes than there are tokens
    params, cfg, pairs, _ = copy_model
    passes = tokens = 0
    for enc, _ in pairs:
        with monkeypatch.context() as m:
            m.setattr(model, "_draft", lambda *args: [])
            one_token_steps = greedy_decode(params, cfg, list(enc), 24)
        with monkeypatch.context() as m:
            calls = counted_calls(m, model, "_stack_fwd")
            assert greedy_decode(params, cfg, list(enc), 24) == one_token_steps, enc
        passes += [args[2] for args in calls].count("dec")
        tokens += len(one_token_steps)
    assert passes < tokens, (passes, tokens)


def test_criterion_6c_prefix_conditioned_mixture(tmp_path):
    with criterion(6, "(c) two-task prefixed mixture reaches >= 90% exact match per task"):
        bodies = unique_word_set_sentences(16, fixture_seed=11)
        keep = [
            TaskExample("keep", "keep: " + " ".join(b), " ".join(b), {}) for b in bodies
        ]
        flip = [
            TaskExample("flip", "flip: " + " ".join(b), " ".join(reversed(b)), {})
            for b in bodies
        ]
        keep_path, flip_path = tmp_path / "keep.jsonl", tmp_path / "flip.jsonl"
        write_task_examples(keep_path, keep)
        write_task_examples(flip_path, flip)
        v = train_vocab([ex.input_text for ex in keep + flip], target_size=100, num_sentinels=8)
        cfg = overfit_model_cfg(v.size)
        t_cfg = TrainConfig(
            learning_rate=2e-3, batch_size=16, num_steps=400, input_len=24, target_len=24, seed=0
        )
        mixture = [MixtureEntry("keep", str(keep_path)), MixtureEntry("flip", str(flip_path))]
        start = time.monotonic()
        result = finetune(init_params(cfg, seed=0), mixture, cfg, t_cfg, v)
        rates = {}
        for entry in mixture:
            pairs, _, _ = load_task_pairs(entry, v, 24, 24)
            rates[entry.task_name] = exact_match_rate(result.params, cfg, pairs, max_len=24)
        elapsed = time.monotonic() - start
        for task, rate in rates.items():
            assert rate >= 0.90, f"{task}: exact match {rate:.3f}"
        assert elapsed < 300.0, f"took {elapsed:.0f} s"
        print(f"  (keep {rates['keep']:.3f}, flip {rates['flip']:.3f})", end=" ")


# -- 7 ----------------------------------------------------------------------


def test_criterion_7_metric_oracle_equivalence():
    with criterion(7, "all five metrics match brute-force oracles on 100 fixtures each"):
        rng = SplitMix64(777)

        for _ in range(100):  # entity P/R/F1
            n = 1 + rng.next_below(40)
            gold_raw = [
                [(rng.next_below(6), 6 + rng.next_below(6), "T") for _ in range(rng.next_below(4))]
                for _ in range(n)
            ]
            pred_raw = [
                [(rng.next_below(6), 6 + rng.next_below(6), "T") for _ in range(rng.next_below(4))]
                for _ in range(n)
            ]
            report = entity_prf(
                [[EntitySpan(*t) for t in g] for g in gold_raw],
                [[EntitySpan(*t) for t in p] for p in pred_raw],
            )
            op, orc, of = entity_prf_oracle(gold_raw, pred_raw)
            assert abs(report.precision - op) <= 1e-12
            assert abs(report.recall - orc) <= 1e-12
            assert abs(report.f1 - of) <= 1e-12

        classes = ["CPR:3", "CPR:4", "CPR:5", "false"]
        for _ in range(100):  # per-class / micro F1
            n = 2 + rng.next_below(60)
            gold = [classes[rng.next_below(4)] for _ in range(n)]
            pred = [classes[rng.next_below(4)] for _ in range(n)]
            report = classification_f1(gold, pred, classes, classes[:-1])
            per_class, (mp, mr, mf) = classification_oracle(gold, pred, classes, classes[:-1])
            assert abs(report.f1 - mf) <= 1e-12
            for c in classes:
                assert abs(report.per_class[c].f1 - per_class[c][2]) <= 1e-12

        for _ in range(100):  # accuracy
            n = 1 + rng.next_below(50)
            gold = [rng.next_below(3) for _ in range(n)]
            pred = [rng.next_below(3) for _ in range(n)]
            assert abs(accuracy(gold, pred) - accuracy_oracle(gold, pred)) <= 1e-12

        label_pool = [f"l{i}" for i in range(5)]
        for _ in range(100):  # sample-average F1
            n = 1 + rng.next_below(25)
            gold = [
                {label_pool[rng.next_below(5)] for _ in range(rng.next_below(4))} for _ in range(n)
            ]
            pred = [
                {label_pool[rng.next_below(5)] for _ in range(rng.next_below(4))} for _ in range(n)
            ]
            assert abs(sample_average_f1(gold, pred) - sample_f1_oracle(gold, pred)) <= 1e-12

        answers = ["alpha", "beta", "the gamma", "Delta!", "delta"]
        for _ in range(100):  # lenient accuracy
            n = 1 + rng.next_below(15)
            groups = []
            for _ in range(n):
                preds = [answers[rng.next_below(5)] for _ in range(1 + rng.next_below(3))]
                golds = [answers[rng.next_below(5)] for _ in range(1 + rng.next_below(2))]
                groups.append((preds, golds))
            assert abs(
                lenient_accuracy(groups) - lenient_oracle(groups, normalize_answer)
            ) <= 1e-12


# -- 8 ----------------------------------------------------------------------


def test_criterion_8_lenient_accuracy_any_snippet_rule():
    with criterion(8, "a question with one correct snippet among many scores correct"):
        groups = [
            (["wrong answer", "also wrong", "protein kinase A"], ["Protein kinase A."]),
            (["nope", "still nope"], ["something else"]),
        ]
        assert lenient_accuracy(groups) == 0.5
        only_last = [(["x", "y", "z", "cell cycle arrest"], ["the cell cycle arrest"])]
        assert lenient_accuracy(only_last) == 1.0


# -- 9 ----------------------------------------------------------------------


def collect_files(root: str) -> dict[str, bytes]:
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


def test_criterion_9_pipeline_determinism(tmp_path):
    with criterion(9, "smoke pipeline is byte-identical across two seeded runs and >= 95% exact"):
        # the smoke script itself, run twice; its config fixes seed 0
        smoke = smoke_script()
        a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
        assert smoke.main(a_dir) == 0
        assert smoke.main(b_dir) == 0
        report = json.loads(open(os.path.join(a_dir, "report.json"), encoding="utf-8").read())
        assert report["accuracy"] >= 0.95
        files_a = collect_files(a_dir)
        files_b = collect_files(b_dir)
        assert set(files_a) == set(files_b)
        # config.json is the run INPUT and embeds its own out_dir path; every
        # produced artifact must match byte for byte
        mismatched = [
            name for name in files_a if name != "config.json" and files_a[name] != files_b[name]
        ]
        assert mismatched == [], f"byte differences in: {mismatched}"
        # the comparison covers checkpoints, predictions, and reports
        assert any(name.endswith("weights.bin") for name in files_a)
        assert "preds.jsonl" in files_a and "report.json" in files_a


# -- 10 ---------------------------------------------------------------------


def random_blob(rng: SplitMix64) -> bytes:
    kind = rng.next_below(3)
    n = rng.next_below(160)
    if kind == 0:  # arbitrary bytes
        return bytes(rng.next_below(256) for _ in range(n))
    if kind == 1:  # printable ASCII with structure-ish characters
        alphabet = b"abc \t\n{}[]\"':,01B-IO|"
        return bytes(alphabet[rng.next_below(len(alphabet))] for _ in range(n))
    # mutated valid-looking content
    seeds = [
        b"word\tB-Disease\nnext\tO\n\n",
        b'{"questions": [{"id": "a", "body": "q", "snippets": ["s"], "exact_answer": ["x"]}]}',
        b'{"task": "t", "input": "t: x", "target": "y", "gold": {}}\n',
        b"a\tb\nc\td\n",
    ]
    base = bytearray(seeds[rng.next_below(len(seeds))])
    for _ in range(1 + rng.next_below(6)):
        if base:
            base[rng.next_below(len(base))] = rng.next_below(256)
    return bytes(base)


def test_criterion_10_reader_fuzzing(tmp_path):
    with criterion(10, "10,000 fuzzed byte strings per reader: structured errors only"):
        readers = [
            ("conll", read_conll_ner),
            ("tsv", lambda p: read_tsv_pairs(p, ["a", "b"])),
            ("qa", read_qa_json),
            ("task", read_task_examples),
        ]
        extras = [("shard", read_shard)]
        rng = SplitMix64(4242)
        path = tmp_path / "fuzz.bin"
        for name, reader in readers:
            for _ in range(10_000):
                path.write_bytes(random_blob(rng))
                try:
                    reader(str(path))
                except T2TBioError:
                    pass
        for name, reader in extras:
            for _ in range(2_000):
                path.write_bytes(random_blob(rng))
                try:
                    reader(str(path))
                except T2TBioError:
                    pass
