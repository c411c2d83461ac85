#!/usr/bin/env python3
"""End-to-end smoke run: vocab-train -> encode-task -> finetune -> inspect-checkpoint
-> predict -> evaluate.

Uses the bundled fixtures and writes everything under runs/smoke/ (``main(out)``
takes another directory; the acceptance suite runs it twice). inspect-checkpoint
loads the whole training state finetune wrote (weights, Adam state, rng state),
where predict reads only the weights, and writes no file. The final evaluate
enforces an exact-match floor of 0.95, so a non-zero exit means the pipeline
regressed.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from t2tbio.cli import run  # noqa: E402
from t2tbio.vocab import load_vocab  # noqa: E402

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
FIXTURES = os.path.join(ROOT, "fixtures")
OUT = os.path.join(ROOT, "runs", "smoke")


def commands(out: str) -> list[list[str]]:
    """The argv of each CLI stage, in order, writing under ``out``; finetune
    reads ``<out>/config.json``, which ``main`` writes once the vocabulary exists."""
    vocab_path = os.path.join(out, "vocab.txt")
    train_path = os.path.join(out, "train.jsonl")
    preds_path = os.path.join(out, "preds.jsonl")
    return [
        [
            "vocab-train",
            "--corpus", os.path.join(FIXTURES, "pretrain_corpus.txt"),
            "--corpus", os.path.join(FIXTURES, "task_text.txt"),
            "--size", "256", "--sentinels", "16",
            "--out", vocab_path,
        ],
        [
            "encode-task", "--task-type", "ner", "--task-name", "smoke_ner",
            "--in", os.path.join(FIXTURES, "smoke_ner.conll"),
            "--out", train_path,
        ],
        ["finetune", "--config", os.path.join(out, "config.json")],
        ["inspect-checkpoint", "--checkpoint", os.path.join(out, "run", "final")],
        [
            "predict",
            "--checkpoint", os.path.join(out, "run", "final"),
            "--vocab", vocab_path,
            "--in", train_path,
            "--out", preds_path,
            "--max-len", "32",
        ],
        [
            "evaluate", "--task-type", "match",
            "--pred", preds_path,
            "--gold", train_path,
            "--out", os.path.join(out, "report.json"),
            "--floor", "accuracy=0.95",
        ],
    ]


def write_config(out: str) -> None:
    vocab_path = os.path.join(out, "vocab.txt")
    config = {
        "seed": 0,
        "out_dir": os.path.join(out, "run"),
        "vocab_path": vocab_path,
        "model": {
            "vocab_size": load_vocab(vocab_path).size,
            "d_model": 64, "n_heads": 4, "d_ff": 128,
            "n_encoder_layers": 2, "n_decoder_layers": 2,
            "rel_pos_buckets": 16, "rel_pos_max_distance": 32, "max_seq_len": 64,
        },
        "train": {
            "learning_rate": 0.002, "batch_size": 16, "num_steps": 400,
            "input_len": 32, "target_len": 32, "seed": 0,
        },
        "mixture": [{"task": "smoke_ner", "path": os.path.join(out, "train.jsonl"), "weight": 1.0}],
    }
    with open(os.path.join(out, "config.json"), "w", encoding="utf-8") as f:
        json.dump(config, f, indent=2, sort_keys=True)


def main(out: str = OUT) -> int:
    os.makedirs(out, exist_ok=True)
    for argv in commands(out):
        if argv[0] == "finetune":
            write_config(out)
        rc = run(argv)
        if rc != 0:
            return rc
    print(f"smoke run complete; artifacts under {os.path.relpath(out)}")
    return 0


if __name__ == "__main__":
    import logging

    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    sys.exit(main())
