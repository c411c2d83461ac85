"""Fuzzed inputs of the subcommands other than ``evaluate``, whose fuzz test
is ``test_evaluate_fuzz.py``. Vocabulary files, raw datasets (CoNLL, TSV and
QA JSON), TaskExample JSONL, corpora and run configs are damaged: a line cut
short, dropped, repeated, swapped or nested too deep to parse, a character
inserted, a number rewritten, or a JSON value deleted or replaced at any
depth. ``cli.run`` returns an exit code, 0 to 3, and never raises. Standard
output is a strict UTF-8 stream, as a terminal's is. A run config with values
deleted or replaced either loads or raises a ConfigError that starts with its
path.

Every number a draw writes is small. A run config that would still train more
than a few tiny steps is reported as a hypothesis event and not run."""

import contextlib
import copy
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from t2tbio.checkpoint import save_checkpoint
from t2tbio.cli import EXIT_DATA_ERROR, EXIT_FLOOR, EXIT_OK, EXIT_USAGE, load_config, run
from t2tbio.errors import ConfigError, T2TBioError
from t2tbio.model import ModelConfig, init_params
from t2tbio.vocab import save_vocab

from helpers import word_vocab
from test_evaluate_fuzz import ODD_TEXT, mutate

FIXTURES = Path(__file__).parent.parent / "fixtures"
WORDS = ["t:", "alpha", "beta", "gamma", "delta"]
VOCAB = word_vocab(WORDS, num_sentinels=8)
MODEL = {"vocab_size": VOCAB.size, "d_model": 16, "n_heads": 2, "d_ff": 32, "n_encoder_layers": 1,
         "n_decoder_layers": 1, "rel_pos_buckets": 8, "rel_pos_max_distance": 16, "max_seq_len": 32}
CORPUS = "".join(" ".join(WORDS[1 + (i + j) % 4] for j in range(20)) + "\n" for i in range(4))
TASKS = [{"task": "t", "input": f"t: {w} beta", "target": w, "gold": {}} for w in WORDS[1:]]
RUN_CONFIG = {
    "vocab_path": "vocab.txt",
    "out_dir": "out",
    "seed": 0,
    "model": MODEL,
    "train": {"num_steps": 2, "batch_size": 2, "input_len": 16, "target_len": 16, "checkpoint_every": 1},
    "corruption": {"corruption_rate": 0.15, "mean_span_length": 3.0},
    "corpora": [{"path": "c.txt", "weight": 1.0}],
    "mixture": [{"task": "t", "path": "t.jsonl", "weight": 1.0}],
}
# the raw dataset that encode-task reads, per task type
RAW = {"ner": "ner_synthetic.conll", "re": "re_synthetic.tsv", "nli": "nli_synthetic.tsv", "doc": "doc_synthetic.tsv",
       "qa": "qa_synthetic.json"}

SMALL_INT = st.integers(-2, 64)
# names no file can have, as a path's value
NO_FILE_NAME = st.sampled_from(["\x00", "o\x00ut", "\ud800"])
# what replaces a run-config value: no number in it sizes much work
SMALL_VALUE = (ODD_TEXT | NO_FILE_NAME | st.none() | st.booleans() | SMALL_INT | st.floats()
               | st.lists(SMALL_INT | ODD_TEXT, max_size=3)
               | st.dictionaries(st.text(max_size=4), SMALL_INT | ODD_TEXT, max_size=2))
# characters a line may gain: a column or tag separator, a vocabulary escape,
# a lone surrogate (no UTF-8 then), a BIO prefix, a reserved piece
INSERTED = st.sampled_from(["\t", " ", "\\", "\ud800", "\r", "B-", "I-", "O", "<extra_id_0>", "", '"', "{"])
DEPTH = 5000  # brackets: beyond the JSON decoder's recursion limit


def damaged(text: str, data) -> str:
    """``text`` with at most one fault in its lines."""
    lines = text.split("\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    fault = data.draw(st.sampled_from(["none", "cut", "drop", "repeat", "swap", "insert", "number", "deep"]))
    if fault == "cut":
        lines[i] = lines[i][: data.draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
    elif fault == "drop":
        del lines[i]
    elif fault == "repeat":
        lines.insert(i, lines[i])
    elif fault == "swap" and i + 1 < len(lines):
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif fault == "insert":
        at = data.draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + data.draw(INSERTED) + lines[i][at:]
    elif fault == "deep":
        lines[i] = "[" * DEPTH
    text = "\n".join(lines)
    numbers = [m.span() for m in re.finditer(r"\d+", text)]
    if fault == "number" and numbers:
        start, end = data.draw(st.sampled_from(numbers))
        text = text[:start] + str(data.draw(st.integers(0, 300))) + text[end:]
    return text


def write(path, text: str) -> None:
    # a lone surrogate goes in as its bytes, which are not UTF-8
    Path(path).write_bytes(text.encode("utf-8", "surrogatepass"))


def jsonl(records: list) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


def vocab_text(v) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        save_vocab(v, Path(tmp) / "vocab.txt")
        return (Path(tmp) / "vocab.txt").read_text(encoding="utf-8")


VOCAB_TEXT = vocab_text(VOCAB)


@contextlib.contextmanager
def scratch_dir():
    """A new directory, the working directory inside the block, so that the
    relative paths of a mutated config land in it."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield Path(tmp)
        finally:
            os.chdir(cwd)


def exits_with_a_code(argv: list[str]) -> None:
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    with contextlib.redirect_stdout(stdout):
        rc = run(argv)
    event(f"exit {rc}")  # --hypothesis-show-statistics counts them
    assert rc in (EXIT_OK, EXIT_DATA_ERROR, EXIT_USAGE, EXIT_FLOOR)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A step-0 checkpoint of a tiny model over ``VOCAB``."""
    cfg = ModelConfig(**MODEL)
    path = tmp_path_factory.mktemp("fuzz") / "ck"
    save_checkpoint(path, init_params(cfg, seed=0), cfg, None, rng_state=0, step=0)
    return path


@given(data=st.data())
def test_predict(checkpoint, data):
    records = copy.deepcopy(TASKS)
    for _ in range(data.draw(st.integers(0, 2))):
        mutate(records, data)
    files = {"in.jsonl": jsonl(records), "vocab.txt": VOCAB_TEXT}
    bad = data.draw(st.sampled_from(sorted(files)))
    files[bad] = damaged(files[bad], data)
    with scratch_dir():
        for name, text in files.items():
            write(name, text)
        exits_with_a_code(["predict", "--checkpoint", str(checkpoint), "--vocab", "vocab.txt", "--in", "in.jsonl",
                           "--out", "out.jsonl", "--max-len", str(data.draw(st.integers(1, 8)))])


@pytest.mark.parametrize("task_type", sorted(RAW))
@given(data=st.data())
def test_encode_task(task_type, data):
    text = (FIXTURES / RAW[task_type]).read_text(encoding="utf-8")
    if task_type == "qa":  # its JSON mutated first, then its lines
        payload = [json.loads(text)]
        for _ in range(data.draw(st.integers(0, 2))):
            mutate(payload, data)
        text = json.dumps(payload[0], indent=1)
    name = data.draw(st.sampled_from(["t", "ner", "", "a: b", ""]))
    argv = ["encode-task", "--task-type", task_type, "--task-name", name, "--in", "raw", "--out", "out.jsonl"]
    labels = data.draw(st.sampled_from([None, "CPR:3,CPR:4,false", ",", "x"]))
    if labels is not None:
        argv += ["--labels", labels]
    with scratch_dir():
        write("raw", damaged(text, data))
        exits_with_a_code(argv)


@given(data=st.data())
def test_vocab_train(data):
    corpus = "\n".join((FIXTURES / "pretrain_corpus.txt").read_text(encoding="utf-8").splitlines()[:6])
    with scratch_dir():
        write("c.txt", damaged(corpus, data))
        exits_with_a_code(["vocab-train", "--corpus", "c.txt", "--size", str(data.draw(st.integers(1, 300))),
                           "--sentinels", str(data.draw(st.integers(0, 40))), "--out", "vocab.txt"])


@given(data=st.data())
def test_corrupt(data):
    files = {"c.txt": CORPUS, "vocab.txt": VOCAB_TEXT}
    bad = data.draw(st.sampled_from(sorted(files)))
    files[bad] = damaged(files[bad], data)
    argv = ["corrupt", "--vocab", "vocab.txt", "--in", "c.txt", "--out", "shard.tsv",
            f"--rate={data.draw(st.floats(0, 1, exclude_max=True) | st.sampled_from([0.0, 0.15, 0.5, 0.99]))!r}",
            f"--mean-span={data.draw(st.floats(1, 1e6))!r}",
            f"--seed={data.draw(st.integers(-(2**70), 2**70))}"]
    if data.draw(st.booleans()):
        argv += ["--input-len", str(data.draw(st.integers(1, 64)))]
    with scratch_dir():
        for name, text in files.items():
            write(name, text)
        exits_with_a_code(argv)


def too_big(cfg) -> str | None:
    """What would make a run config train more than a few tiny steps, if
    anything."""
    m, t = cfg.model, cfg.train
    for what, value, limit in (
        ("train.num_steps * train.batch_size", t.num_steps * t.batch_size, 32),
        ("model.d_model", m.d_model, 64),
        ("model.d_ff", m.d_ff, 256),
        ("model layers", m.n_encoder_layers + m.n_decoder_layers, 6),
        ("model.rel_pos_buckets", m.rel_pos_buckets, 64),
    ):
        if value > limit:
            return f"{what} {value} > {limit}"
    return None


@settings(max_examples=500)  # no run: each example only loads a config
@given(data=st.data())
def test_a_run_config_loads_or_its_error_starts_with_the_path(data):
    config = [copy.deepcopy(RUN_CONFIG)]
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(config, data, SMALL_VALUE)
    with scratch_dir():
        write("config.json", json.dumps(config[0], indent=1))
        try:
            load_config("config.json")
        except ConfigError as e:
            assert str(e).startswith("config.json: "), str(e)


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
@given(data=st.data())
def test_training_run_config(command, data):
    config = [copy.deepcopy(RUN_CONFIG)]
    for _ in range(data.draw(st.integers(0, 3))):
        mutate(config, data, SMALL_VALUE)
    files = {"config.json": json.dumps(config[0], indent=1), "vocab.txt": VOCAB_TEXT, "c.txt": CORPUS,
             "t.jsonl": jsonl(TASKS)}
    bad = data.draw(st.sampled_from(sorted(files)))
    files[bad] = damaged(files[bad], data)
    with scratch_dir():
        for name, text in files.items():
            write(name, text)
        try:
            big = too_big(load_config("config.json"))
        except T2TBioError:
            big = None  # the run stops at the same error
        if big:
            event(f"not run: {big}")
            return
        exits_with_a_code([command, "--config", "config.json"])
