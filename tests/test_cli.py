import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import t2tbio
from t2tbio.cli import EXIT_DATA_ERROR, EXIT_FLOOR, EXIT_OK, EXIT_USAGE, build_parser, load_config, run
from t2tbio.checkpoint import layout, load_checkpoint, save_checkpoint
from t2tbio.corruption import SpanCorruptionConfig
from t2tbio.data_io import read_task_examples
from t2tbio.model import param_count
from t2tbio.trainer import TrainConfig
from t2tbio.vocab import BOUNDARY, EOS_ID, load_vocab, save_vocab

from helpers import (
    CHECKPOINT_PARTS,
    read_shard,
    remove_checkpoint_part,
    smoke_script,
    word_vocab,
)
from test_acceptance import collect_files

SUBCOMMANDS = [
    "vocab-train",
    "corrupt",
    "encode-task",
    "pretrain",
    "finetune",
    "predict",
    "evaluate",
    "inspect-checkpoint",
]


class TestHelp:
    def test_top_level_help_lists_all_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in SUBCOMMANDS:
            assert name in out

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_subcommand_help_documents_every_flag(self, name, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        # every declared option string appears in its help text
        sub = next(
            action for action in parser._actions if hasattr(action, "choices") and action.choices
        )
        for action in sub.choices[name]._actions:
            for option in action.option_strings:
                if option.startswith("--"):
                    assert option in out, f"{name} help is missing {option}"

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["corrupt"])  # missing required flags
        assert exc.value.code == 2


# each command's required flags, with values argparse accepts
MINIMAL_ARGV = {
    "vocab-train": ["--corpus", "c.txt", "--out", "v.txt"],
    "corrupt": ["--vocab", "v.txt", "--in", "c.txt", "--out", "s.tsv"],
    "encode-task": ["--task-type", "ner", "--task-name", "t", "--in", "d.conll", "--out", "t.jsonl"],
    "pretrain": ["--config", "config.json"],
    "finetune": ["--config", "config.json"],
    "predict": ["--checkpoint", "ckpt", "--vocab", "v.txt", "--in", "t.jsonl", "--out", "p.jsonl"],
    "evaluate": ["--task-type", "match", "--pred", "p.jsonl", "--gold", "t.jsonl"],
    "inspect-checkpoint": ["--checkpoint", "ckpt"],
}
SEED_DEFAULTS = {"corrupt": 0, "pretrain": None, "finetune": None}  # the commands that read a seed


class TestDeclaredFlags:
    """A command declares only the options it reads; any other is a usage error."""

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_deterministic_is_a_usage_error(self, name, capsys):
        build_parser().parse_args([name, *MINIMAL_ARGV[name]])  # valid without the flag
        with pytest.raises(SystemExit) as exc:
            run([name, *MINIMAL_ARGV[name], "--deterministic"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --deterministic" in capsys.readouterr().err

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_seed_only_where_it_is_read(self, name, capsys):
        argv = [name, *MINIMAL_ARGV[name]]
        if name in SEED_DEFAULTS:
            assert build_parser().parse_args(argv).seed == SEED_DEFAULTS[name]
            assert build_parser().parse_args([*argv, "--seed", "5"]).seed == 5
            return
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--seed", "5"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


ROOT = Path(__file__).resolve().parent.parent


def readme_commands() -> list[list[str]]:
    """The argv of every ``t2tbio`` command in the README's CLI walkthrough."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## CLI walkthrough", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("t2tbio ")]


def smoke_commands() -> list[list[str]]:
    """The argv of every stage of ``scripts/run_smoke.py``."""
    return smoke_script().commands("runs/smoke")


def test_readme_run_config_loads(tmp_path):
    """The README's run-config example is a config ``load_config`` accepts."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Run config", 1)[1]
    (tmp_path / "config.json").write_text(section.split("```json\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    cfg = load_config(tmp_path / "config.json")
    assert cfg.corruption == SpanCorruptionConfig(corruption_rate=0.15, mean_span_length=3.0)
    assert cfg.corpora and cfg.mixture


class TestDocumentedCommands:
    """The README walkthrough and the smoke script use only flags the CLI
    declares, so neither can drift from it."""

    @pytest.mark.parametrize(
        "commands, names",
        [(readme_commands, set(SUBCOMMANDS)), (smoke_commands, set(SUBCOMMANDS) - {"corrupt", "pretrain"})],
        ids=["readme", "run_smoke"],
    )
    def test_every_command_parses(self, commands, names):
        parser = build_parser()
        argvs = commands()
        for argv in argvs:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"does not parse: t2tbio {' '.join(argv)}")
        assert {argv[0] for argv in argvs} == names


@pytest.fixture()
def trained_vocab(tmp_path, fixtures_dir):
    path = tmp_path / "vocab.txt"
    rc = run(
        [
            "vocab-train",
            "--corpus",
            str(fixtures_dir / "pretrain_corpus.txt"),
            "--corpus",
            str(fixtures_dir / "task_text.txt"),
            "--size",
            "256",
            "--sentinels",
            "16",
            "--out",
            str(path),
        ]
    )
    assert rc == EXIT_OK
    return path


class TestVocabAndCorrupt:
    def test_vocab_train_writes_loadable_file(self, trained_vocab):
        v = load_vocab(trained_vocab)
        assert v.num_sentinels == 16

    def test_vocab_train_output_bytes_are_pinned(self, trained_vocab):
        # any change to the merge order or tie-break changes these bytes
        digest = hashlib.sha256(trained_vocab.read_bytes()).hexdigest()
        assert digest == "3c4d91abae1d18eac29d84da6fb966589b9c12654b03ab7917b4efe598001c41"

    def test_corrupt_rate_zero(self, tmp_path, fixtures_dir, trained_vocab):
        out = tmp_path / "shard.tsv"
        rc = run(
            [
                "corrupt",
                "--vocab",
                str(trained_vocab),
                "--in",
                str(fixtures_dir / "pretrain_corpus.txt"),
                "--out",
                str(out),
                "--rate",
                "0",
            ]
        )
        assert rc == EXIT_OK
        v = load_vocab(trained_vocab)
        records = read_shard(out)
        assert len(records) == 30
        for ex in records:
            assert list(ex.target_ids) == [v.sentinel_id(0), EOS_ID]

    def test_corrupt_deterministic_given_seed(self, tmp_path, fixtures_dir, trained_vocab):
        outs = []
        for name in ("a.tsv", "b.tsv"):
            out = tmp_path / name
            rc = run(
                [
                    "corrupt",
                    "--vocab",
                    str(trained_vocab),
                    "--in",
                    str(fixtures_dir / "pretrain_corpus.txt"),
                    "--out",
                    str(out),
                    "--seed",
                    "5",
                ]
            )
            assert rc == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


    def test_corrupt_shard_bytes_are_pinned(self, tmp_path, fixtures_dir, trained_vocab):
        # any change to the span sampling, the per-record seeds or the shard
        # format changes these bytes
        out = tmp_path / "shard.tsv"
        argv = ["corrupt", "--vocab", str(trained_vocab), "--in", str(fixtures_dir / "pretrain_corpus.txt"),
                "--out", str(out), "--rate", "0.3", "--mean-span", "2", "--seed", "7"]
        assert run(argv) == EXIT_OK
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "4bf7ef5f0d560b46a61dae772fed30f4d5ddf2f8cd80650118437c27641e2bc2"
        manifest = json.loads((tmp_path / "shard.tsv.manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"] == {"corruption_rate": 0.3, "mean_span_length": 2.0, "seed": 7}

    def test_corrupt_names_the_line_of_a_document_with_too_many_spans(self, tmp_path, caplog):
        # 8 sentinels: 7 spans and the final one; the third line's 40 words
        # at rate 0.5 and mean span 1 make more
        corpus, vocab, out = tmp_path / "corpus.txt", tmp_path / "vocab.txt", tmp_path / "shard.tsv"
        corpus.write_text("alpha beta alpha\n\n" + "alpha beta " * 20 + "\n", encoding="utf-8")
        save_vocab(word_vocab(["alpha", "beta"]), vocab)
        argv = ["corrupt", "--vocab", str(vocab), "--in", str(corpus), "--out", str(out),
                "--rate", "0.5", "--mean-span", "1"]
        assert run(argv) == EXIT_DATA_ERROR
        assert f"{corpus}:3: too many spans: " in caplog.text
        assert "(limit 7)" in caplog.text
        assert not out.exists()


class TestEncodeTask:
    def test_ner(self, tmp_path, fixtures_dir):
        out = tmp_path / "ner.jsonl"
        rc = run(
            [
                "encode-task",
                "--task-type",
                "ner",
                "--task-name",
                "ncbi_ner",
                "--in",
                str(fixtures_dir / "ner_synthetic.conll"),
                "--out",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        examples = read_task_examples(out)
        assert len(examples) == 6
        assert examples[0].input_text == "ncbi_ner: Lupus is a chronic disease"
        assert examples[0].target_text == "*{ Lupus }* is a chronic disease"

    def test_re_nli_doc_qa(self, tmp_path, fixtures_dir):
        for task_type, src, expected_count in (
            ("re", "re_synthetic.tsv", 8),
            ("nli", "nli_synthetic.tsv", 6),
            ("doc", "doc_synthetic.tsv", 7),
            ("qa", "qa_synthetic.json", 6),  # one example per (question, snippet)
        ):
            out = tmp_path / f"{task_type}.jsonl"
            rc = run(
                [
                    "encode-task",
                    "--task-type",
                    task_type,
                    "--task-name",
                    task_type,
                    "--in",
                    str(fixtures_dir / src),
                    "--out",
                    str(out),
                ]
            )
            assert rc == EXIT_OK
            assert len(read_task_examples(out)) == expected_count

    def test_data_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.conll"
        bad.write_text("onlyonecolumn\n", encoding="utf-8")
        rc = run(
            [
                "encode-task",
                "--task-type",
                "ner",
                "--task-name",
                "x",
                "--in",
                str(bad),
                "--out",
                str(tmp_path / "out.jsonl"),
            ]
        )
        assert rc == EXIT_DATA_ERROR


def write_predictions(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")


class TestEvaluate:
    def test_perfect_ner_scores_one_and_exits_zero(self, tmp_path, fixtures_dir):
        gold = tmp_path / "gold.jsonl"
        rc = run(
            [
                "encode-task",
                "--task-type",
                "ner",
                "--task-name",
                "ncbi_ner",
                "--in",
                str(fixtures_dir / "ner_synthetic.conll"),
                "--out",
                str(gold),
            ]
        )
        assert rc == EXIT_OK
        examples = read_task_examples(gold)
        preds = tmp_path / "preds.jsonl"
        write_predictions(
            preds,
            [{"task": ex.task_name, "input": ex.input_text, "prediction": ex.target_text} for ex in examples],
        )
        report_path = tmp_path / "report.json"
        rc = run(
            [
                "evaluate",
                "--task-type",
                "ner",
                "--pred",
                str(preds),
                "--gold",
                str(gold),
                "--out",
                str(report_path),
                "--floor",
                "f1=1.0",
            ]
        )
        assert rc == EXIT_OK
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["f1"] == 1.0
        assert report["passed"] is True

    def test_floor_failure_exits_3(self, tmp_path, fixtures_dir):
        gold = tmp_path / "gold.jsonl"
        run(
            [
                "encode-task",
                "--task-type",
                "nli",
                "--task-name",
                "mednli",
                "--in",
                str(fixtures_dir / "nli_synthetic.tsv"),
                "--out",
                str(gold),
            ]
        )
        examples = read_task_examples(gold)
        preds = tmp_path / "preds.jsonl"
        write_predictions(
            preds,
            [{"task": ex.task_name, "input": ex.input_text, "prediction": "neutral"} for ex in examples],
        )
        rc = run(
            [
                "evaluate",
                "--task-type",
                "nli",
                "--pred",
                str(preds),
                "--gold",
                str(gold),
                "--floor",
                "accuracy=0.99",
            ]
        )
        assert rc == EXIT_FLOOR

    def test_qa_lenient_grouping(self, tmp_path, fixtures_dir):
        gold = tmp_path / "gold.jsonl"
        run(
            [
                "encode-task",
                "--task-type",
                "qa",
                "--task-name",
                "bioasq",
                "--in",
                str(fixtures_dir / "qa_synthetic.json"),
                "--out",
                str(gold),
            ]
        )
        examples = read_task_examples(gold)
        # answer correctly only on the LAST snippet of each question
        rows = []
        seen = {}
        for ex in examples:
            seen[ex.gold["question"]] = seen.get(ex.gold["question"], 0) + 1
        counts = dict(seen)
        for ex in examples:
            q = ex.gold["question"]
            counts[q] -= 1
            answer = ex.gold["answers"][0] if counts[q] == 0 else "wrong"
            rows.append({"task": ex.task_name, "input": ex.input_text, "prediction": answer})
        preds = tmp_path / "preds.jsonl"
        write_predictions(preds, rows)
        report_path = tmp_path / "report.json"
        rc = run(
            [
                "evaluate",
                "--task-type",
                "qa",
                "--pred",
                str(preds),
                "--gold",
                str(gold),
                "--out",
                str(report_path),
            ]
        )
        assert rc == EXIT_OK
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["lenient_accuracy"] == 1.0
        assert "protocol" in report

    def test_doc_sample_average(self, tmp_path, fixtures_dir):
        gold = tmp_path / "gold.jsonl"
        run(
            [
                "encode-task",
                "--task-type",
                "doc",
                "--task-name",
                "hoc",
                "--in",
                str(fixtures_dir / "doc_synthetic.tsv"),
                "--out",
                str(gold),
            ]
        )
        examples = read_task_examples(gold)
        preds = tmp_path / "preds.jsonl"
        write_predictions(
            preds,
            [{"task": ex.task_name, "input": ex.input_text, "prediction": ex.target_text} for ex in examples],
        )
        report_path = tmp_path / "report.json"
        rc = run(
            [
                "evaluate",
                "--task-type",
                "doc",
                "--pred",
                str(preds),
                "--gold",
                str(gold),
                "--out",
                str(report_path),
            ]
        )
        assert rc == EXIT_OK
        assert json.loads(report_path.read_text(encoding="utf-8"))["sample_average_f1"] == 1.0

    def test_length_mismatch_is_data_error(self, tmp_path, fixtures_dir, caplog):
        gold = tmp_path / "gold.jsonl"
        run(
            [
                "encode-task",
                "--task-type",
                "nli",
                "--task-name",
                "mednli",
                "--in",
                str(fixtures_dir / "nli_synthetic.tsv"),
                "--out",
                str(gold),
            ]
        )
        preds = tmp_path / "preds.jsonl"
        examples = read_task_examples(gold)
        write_predictions(preds, [{"input": examples[0].input_text, "prediction": "x"}])
        rc = run(["evaluate", "--task-type", "nli", "--pred", str(preds), "--gold", str(gold)])
        assert rc == EXIT_DATA_ERROR
        n = len(examples)
        assert caplog.records[-1].getMessage() == f"{preds}: prediction file has 1 records, gold file {gold} has {n}"

    def test_predictions_out_of_gold_order_are_a_data_error(self, tmp_path, fixtures_dir, caplog):
        # each record carries its own gold record's task and input, in reverse
        # order: scored in file order, two of six would match by chance
        gold, preds = tmp_path / "gold.jsonl", tmp_path / "preds.jsonl"
        argv = ["--task-type", "nli", "--task-name", "mednli", "--out", str(gold)]
        assert run(["encode-task", *argv, "--in", str(fixtures_dir / "nli_synthetic.tsv")]) == EXIT_OK
        examples = read_task_examples(gold)
        rows = [{"task": ex.task_name, "input": ex.input_text, "prediction": ex.target_text} for ex in examples]
        write_predictions(preds, rows[::-1])
        rc = run(["evaluate", "--task-type", "nli", "--pred", str(preds), "--gold", str(gold)])
        assert rc == EXIT_DATA_ERROR
        assert caplog.records[-1].getMessage() == f"{preds}:1: input is not gold record 1's"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("input", None, "prediction record needs a string 'input'"),  # None: the key is deleted
            ("input", 7, "prediction record needs a string 'input'"),
            ("task", "other", "task is not gold record 2's"),
        ],
        ids=["no-input", "number-input", "other-task"],
    )
    def test_a_prediction_not_paired_with_its_gold_record_is_a_data_error(self, tmp_path, fixtures_dir, caplog,
                                                                            key, value, message):
        gold, preds = tmp_path / "gold.jsonl", tmp_path / "preds.jsonl"
        argv = ["--task-type", "nli", "--task-name", "mednli", "--out", str(gold)]
        assert run(["encode-task", *argv, "--in", str(fixtures_dir / "nli_synthetic.tsv")]) == EXIT_OK
        rows = [{"task": ex.task_name, "input": ex.input_text, "prediction": "x"} for ex in read_task_examples(gold)]
        if value is None:
            del rows[1][key]
        else:
            rows[1][key] = value
        write_predictions(preds, rows)
        rc = run(["evaluate", "--task-type", "nli", "--pred", str(preds), "--gold", str(gold)])
        assert rc == EXIT_DATA_ERROR
        assert caplog.records[-1].getMessage() == f"{preds}:2: {message}"

    @pytest.mark.parametrize(
        "task_type, prediction, bad, where",
        [
            ("ner", 5, "pred", ":1: prediction record needs a string 'prediction'"),
            ("re", "x", "gold", ": gold record 1: a re report needs 'label' of type str"),
            ("nli", "x", "gold", ": gold record 1: a nli report needs 'label' of type str"),
            ("qa", "x", "gold", ": gold record 1: a qa report needs 'question' of type str"),
            ("doc", "x", "gold", ": gold record 1: a doc report needs 'labels' of type list[str]"),
        ],
        ids=["number-prediction", "re-on-ner-gold", "nli-on-ner-gold", "qa-on-ner-gold", "doc-on-ner-gold"],
    )
    def test_field_the_report_reads_is_a_data_error(self, tmp_path, fixtures_dir, caplog, task_type, prediction,
                                                     bad, where):
        files = {"gold": tmp_path / "gold.jsonl", "pred": tmp_path / "preds.jsonl"}
        argv = ["--task-type", "ner", "--task-name", "ner", "--out", str(files["gold"])]
        assert run(["encode-task", *argv, "--in", str(fixtures_dir / "ner_synthetic.conll")]) == EXIT_OK
        examples = read_task_examples(files["gold"])
        rows = [{"input": ex.input_text, "prediction": "x"} for ex in examples]
        rows[0]["prediction"] = prediction
        write_predictions(files["pred"], rows)
        rc = run(["evaluate", "--task-type", task_type, "--pred", str(files["pred"]), "--gold", str(files["gold"])])
        assert rc == EXIT_DATA_ERROR
        assert str(files[bad]) + where in caplog.text

    @pytest.mark.parametrize("span", [[0, 0], [True, 0, "Disease"]], ids=["two-values", "bool-start"])
    def test_a_ner_span_other_than_start_end_type_is_a_data_error(self, tmp_path, caplog, span):
        gold, preds = tmp_path / "gold.jsonl", tmp_path / "preds.jsonl"
        record = {"task": "t", "input": "t: Lupus", "target": "x", "gold": {"words": ["Lupus"], "spans": [span]}}
        gold.write_text(json.dumps(record) + "\n", encoding="utf-8")
        write_predictions(preds, [{"input": "t: Lupus", "prediction": "x"}])
        rc = run(["evaluate", "--task-type", "ner", "--pred", str(preds), "--gold", str(gold)])
        assert rc == EXIT_DATA_ERROR
        assert f"{gold}: gold record 1: a ner report needs 'spans' of type list[tuple[int, int, str]]" in caplog.text

    def test_a_label_stdout_cannot_encode_is_printed_escaped(self, tmp_path):
        # a lone surrogate is a valid JSON escape but no UTF-8 text
        gold, preds = tmp_path / "gold.jsonl", tmp_path / "preds.jsonl"
        gold.write_text(json.dumps({"task": "t", "input": "t: a", "target": "x", "gold": {"label": "\ud800"}}) + "\n",
                        encoding="utf-8")
        write_predictions(preds, [{"input": "t: a", "prediction": "x"}])
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")  # as a terminal's
        with contextlib.redirect_stdout(stdout):
            rc = run(["evaluate", "--task-type", "re", "--pred", str(preds), "--gold", str(gold)])
        stdout.seek(0)
        assert rc == EXIT_OK
        assert "\\ud800" in stdout.read()


def run_entry_point(argv: list[str], env: dict | None = None) -> subprocess.CompletedProcess:
    """Run ``python -m t2tbio.cli`` in a child process, with no inherited
    T2TBIO_* variables beyond ``env``."""
    src = str(Path(t2tbio.__file__).resolve().parent.parent)
    child_env = {k: v for k, v in os.environ.items() if not k.startswith("T2TBIO_")}
    child_env.update(env or {}, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "t2tbio.cli", *argv], capture_output=True, text=True, env=child_env, timeout=120
    )


MODEL = {"vocab_size": 64, "d_model": 16, "n_heads": 2, "d_ff": 32, "max_seq_len": 32}
TRAIN = {"num_steps": 1, "input_len": 16, "target_len": 16}


class TestRunConfigErrors:
    """Malformed run-config values reach the user as a data error naming the
    field, from the installed entry point, never as a traceback."""

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    @pytest.mark.parametrize(
        "overrides, env, field",
        [
            ({"corpora": [{"path": "c.txt", "weight": "heavy"}]}, {}, "corpora[0].weight"),
            ({"mixture": [{"task": "a", "path": "a.jsonl", "weight": "w"}]}, {}, "mixture[0].weight"),
            ({"seed": "x"}, {}, "seed"),
            ({}, {"T2TBIO_SEED": "abc"}, "T2TBIO_SEED"),
            ({"mixture": None}, {}, "mixture"),
            ({"model": {**MODEL, "max_seq_len": float("inf")}}, {}, "model.max_seq_len"),
            ({"out_dir": 5}, {}, "out_dir"),
            ({"vocab_path": [1]}, {}, "vocab_path"),
            ({"train": {**TRAIN, "learning_rate": float("nan")}}, {}, "train.learning_rate"),
            ({"model": {**MODEL, "n_heads": True}}, {}, "model.n_heads"),
            ({"train": {**TRAIN, "num_steps": 2.5}}, {}, "train.num_steps"),
        ],
        ids=["corpora-weight", "mixture-weight", "seed", "env-seed", "mixture-not-a-list", "inf-max-seq-len",
             "int-out-dir", "list-vocab-path", "nan-learning-rate", "bool-n-heads", "fractional-num-steps"],
    )
    def test_bad_number_exits_1_naming_the_field(self, tmp_path, command, overrides, env, field):
        payload = {
            "vocab_path": str(tmp_path / "vocab.txt"),
            "out_dir": str(tmp_path / "out"),
            "model": MODEL,
            "train": TRAIN,
            **overrides,
        }
        config = tmp_path / "config.json"
        # inf goes in as the literal 1e999 (json.dumps writes Infinity); both parse to inf
        config.write_text(json.dumps(payload).replace("Infinity", "1e999"), encoding="utf-8")
        proc = run_entry_point([command, "--config", str(config)], env)
        assert proc.returncode == EXIT_DATA_ERROR, proc.stderr
        assert field in proc.stderr
        assert "Traceback" not in proc.stderr


class TestRunConfigErrorsStartWithTheFile:
    """A value that a section's own check rejects exits 1 with an error that
    starts with the config's path and names the key, whichever command is
    run, before anything is written."""

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"corruption": {"corruption_rate": 1.5}}, "corruption: corruption_rate must be in [0, 1)"),
            ({"train": {**TRAIN, "batch_size": 0}}, "train: batch_size must be positive and num_steps non-negative"),
            ({"mixture": [{"task": "a", "path": "a.jsonl", "weight": 0}]},
             "mixture[0]: weight for task 'a' must be positive and finite"),
            ({"corpora": [{"path": "c.txt", "weight": -1}]},
             "corpora[0]: corpus weight for c.txt must be finite and non-negative"),
        ],
        ids=["corruption-rate", "batch-size", "mixture-weight", "corpus-weight"],
    )
    def test_exits_1(self, tmp_path, caplog, command, overrides, message):
        payload = {"vocab_path": str(tmp_path / "vocab.txt"), "out_dir": str(tmp_path / "out"), "model": MODEL,
                   "train": TRAIN, **overrides}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        assert run([command, "--config", str(config)]) == EXIT_DATA_ERROR
        assert caplog.records[-1].getMessage() == f"{config}: {message}"
        assert sorted(os.listdir(tmp_path)) == ["config.json"]


NOT_UTF8 = b"\xff\xfe not UTF-8\n"
HUGE_INT_JSON = b'{"prediction": ' + b"9" * 5000 + b"}\n"  # beyond Python's 4300-digit limit
DEEP_JSON = b"[" * 5000 + b"\n"  # nested beyond Python's recursion limit
EVALUATE = "evaluate --task-type match --pred {pred} --gold {gold}"


class TestUnreadableInputs:
    """An input file that is not UTF-8, or JSON holding an integer literal
    too long for Python to parse or nested deeper than its recursion limit,
    is a data error naming the file, from the installed entry point, never a
    traceback."""

    @pytest.mark.parametrize(
        "argv, bad, content",
        [
            pytest.param("vocab-train --corpus {corpus} --out {out}", "corpus", NOT_UTF8, id="vocab-train-corpus"),
            pytest.param("corrupt --vocab {vocab} --in {corpus} --out {out}", "corpus", NOT_UTF8, id="corrupt-corpus"),
            pytest.param("corrupt --vocab {vocab} --in {corpus} --out {out}", "vocab", NOT_UTF8, id="corrupt-vocab"),
            pytest.param(EVALUATE, "pred", NOT_UTF8, id="evaluate-pred-not-utf8"),
            pytest.param(EVALUATE, "pred", HUGE_INT_JSON, id="evaluate-pred-huge-int"),
            pytest.param(EVALUATE, "gold", NOT_UTF8, id="evaluate-gold-not-utf8"),
            pytest.param(EVALUATE, "gold", HUGE_INT_JSON, id="evaluate-gold-huge-int"),
            pytest.param("encode-task --task-type qa --task-name q --in {qa} --out {out}", "qa", HUGE_INT_JSON,
                         id="encode-task-qa-huge-int"),
            pytest.param("inspect-checkpoint --checkpoint {ckpt}", "manifest", NOT_UTF8,
                         id="inspect-manifest-not-utf8"),
            pytest.param("inspect-checkpoint --checkpoint {ckpt}", "manifest", HUGE_INT_JSON,
                         id="inspect-manifest-huge-int"),
            pytest.param(EVALUATE, "gold", DEEP_JSON, id="evaluate-gold-deep"),
            pytest.param("encode-task --task-type qa --task-name q --in {qa} --out {out}", "qa", DEEP_JSON,
                         id="encode-task-qa-deep"),
            pytest.param("inspect-checkpoint --checkpoint {ckpt}", "manifest", DEEP_JSON, id="inspect-manifest-deep"),
        ],
    )
    def test_exits_1_naming_the_file(self, tmp_path, argv, bad, content):
        files = {
            "corpus": tmp_path / "corpus.txt",
            "vocab": tmp_path / "vocab.txt",
            "pred": tmp_path / "pred.jsonl",
            "gold": tmp_path / "gold.jsonl",
            "qa": tmp_path / "qa.json",
            "manifest": tmp_path / "ckpt" / "manifest.json",
        }
        files["corpus"].write_text("alpha beta\n", encoding="utf-8")
        save_vocab(word_vocab(["alpha", "beta"]), files["vocab"])
        write_predictions(files["pred"], [{"input": "t: alpha", "prediction": "beta"}])
        files["gold"].write_text('{"task": "t", "input": "t: alpha", "target": "beta"}\n', encoding="utf-8")
        files["qa"].write_text('{"questions": []}', encoding="utf-8")
        files["manifest"].parent.mkdir()
        files[bad].write_bytes(content)
        names = {**files, "ckpt": files["manifest"].parent, "out": tmp_path / "out"}
        proc = run_entry_point(argv.format(**names).split())
        assert proc.returncode == EXIT_DATA_ERROR, proc.stderr
        assert str(files[bad]) in proc.stderr
        assert "Traceback" not in proc.stderr


class TestResumeWarmStart:
    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_both_flags_are_a_usage_error(self, tmp_path, command, capsys):
        argv = [command, "--config", str(tmp_path / "config.json"),
                "--resume", str(tmp_path / "a"), "--warm-start", str(tmp_path / "b")]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == EXIT_USAGE
        assert "not allowed with argument" in capsys.readouterr().err


class TestPredictMaxLen:
    @pytest.mark.parametrize("max_len", ["0", "-3", "two"])
    def test_below_one_is_a_usage_error(self, tmp_path, max_len, capsys):
        out = tmp_path / "preds.jsonl"
        argv = ["predict", "--checkpoint", str(tmp_path), "--vocab", str(tmp_path / "v.txt"),
                "--in", str(tmp_path / "in.jsonl"), "--out", str(out), "--max-len", max_len]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == EXIT_USAGE
        assert "--max-len" in capsys.readouterr().err
        assert not out.exists()


def run_corrupt(tmp_path, *flags) -> tuple[subprocess.CompletedProcess, Path]:
    """``corrupt`` over a one-line corpus in a child process, with ``flags``
    added; returns the process and the shard path."""
    corpus, vocab, out = tmp_path / "corpus.txt", tmp_path / "vocab.txt", tmp_path / "shard.tsv"
    corpus.write_text("alpha beta alpha\n", encoding="utf-8")
    save_vocab(word_vocab(["alpha", "beta"]), vocab)
    proc = run_entry_point(["corrupt", "--vocab", str(vocab), "--in", str(corpus), "--out", str(out), *flags])
    return proc, out


class TestCorruptInputLen:
    @pytest.mark.parametrize("input_len", ["0", "-3"])
    def test_below_one_is_a_usage_error(self, tmp_path, input_len):
        proc, out = run_corrupt(tmp_path, "--input-len", input_len)
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert "--input-len" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


class TestIntegerFloors:
    """An integer flag below its floor is a usage error naming the flag."""

    @pytest.mark.parametrize("flag, value", [("--size", "0"), ("--size", "-3"), ("--sentinels", "-3")])
    def test_vocab_train_exits_2(self, tmp_path, flag, value):
        corpus, out = tmp_path / "corpus.txt", tmp_path / "vocab.txt"
        corpus.write_text("alpha beta alpha\n", encoding="utf-8")
        proc = run_entry_point(["vocab-train", "--corpus", str(corpus), "--out", str(out), flag, value])
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert flag in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


class TestCorruptFloats:
    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("flag", ["--rate", "--mean-span"])
    def test_non_finite_is_a_usage_error(self, tmp_path, flag, value):
        proc, out = run_corrupt(tmp_path, flag, value)
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert flag in proc.stderr and "must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, rule",
        [("--rate", "1.5", "corruption_rate must be in [0, 1)"), ("--rate", "-0.1", "corruption_rate must be in [0, 1)"),
         ("--rate", "1", "corruption_rate must be in [0, 1)"),
         ("--mean-span", "0.5", "mean_span_length must be finite and >= 1")],
        ids=["rate-1.5", "rate--0.1", "rate-1", "mean-span-0.5"],
    )
    def test_out_of_range_is_a_usage_error_naming_the_flag(self, tmp_path, flag, value, rule):
        proc, out = run_corrupt(tmp_path, flag, value)
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert f"argument {flag}: {rule}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


class TestFloat64Pretrain:
    def test_writes_float64_checkpoints_and_exits_0(self, tmp_path, fixtures_dir, trained_vocab):
        out = tmp_path / "out"
        config = tmp_path / "config.json"
        payload = {
            "vocab_path": str(trained_vocab),
            "out_dir": str(out),
            "model": {**MODEL, "vocab_size": load_vocab(trained_vocab).size, "dtype": "float64"},
            "train": {**TRAIN, "num_steps": 3, "batch_size": 2, "checkpoint_every": 2},
            "corpora": [{"path": str(fixtures_dir / "pretrain_corpus.txt")}],
        }
        config.write_text(json.dumps(payload), encoding="utf-8")
        assert run(["pretrain", "--config", str(config)]) == EXIT_OK
        for ckpt in ("step_000002", "final"):
            params, cfg, manifest = load_checkpoint(out / ckpt)
            assert cfg.dtype == "float64"
            assert all(p.dtype == "float64" for p in params.values())
            assert manifest.step == (2 if ckpt == "step_000002" else 3)


class TestNonFiniteUpdate:
    @staticmethod
    def config(tmp_path, fixtures_dir, trained_vocab, lr) -> Path:
        payload = {
            "vocab_path": str(trained_vocab),
            "out_dir": str(tmp_path / "out"),
            "model": {**MODEL, "vocab_size": load_vocab(trained_vocab).size},
            "train": {**TRAIN, "batch_size": 2, "learning_rate": lr},
            "corpora": [{"path": str(fixtures_dir / "pretrain_corpus.txt")}],
        }
        (tmp_path / "config.json").write_text(json.dumps(payload), encoding="utf-8")
        return tmp_path / "config.json"

    def test_exits_1_naming_the_step_and_the_tensor(self, tmp_path, fixtures_dir, trained_vocab):
        # a finite update of about lr = 1e37 takes a rel-bias of 3.35e38 past
        # float32's range; the bias is the same in every bucket, so attention
        # stays finite (and uniform)
        config = self.config(tmp_path, fixtures_dir, trained_vocab, 1e37)
        cfg = t2tbio.ModelConfig(**{**MODEL, "vocab_size": load_vocab(trained_vocab).size})
        params = t2tbio.init_params(cfg, 0)
        params["enc.rel_bias"][:] = 3.35e38
        save_checkpoint(tmp_path / "warm", params, cfg, None, rng_state=0, step=0)
        proc = run_entry_point(["pretrain", "--config", str(config), "--warm-start", str(tmp_path / "warm")])
        assert proc.returncode == EXIT_DATA_ERROR, proc.stderr
        assert "step 0: non-finite Adam update in tensor enc.rel_bias" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out" / "final").exists()

    def test_an_overflowing_learning_rate_exits_1_naming_it(self, tmp_path, fixtures_dir, trained_vocab):
        config = self.config(tmp_path, fixtures_dir, trained_vocab, 1e38)
        proc = run_entry_point(["pretrain", "--config", str(config)])
        assert proc.returncode == EXIT_DATA_ERROR, proc.stderr
        assert "learning_rate 1e+38 overflows float32 in Adam's step size lr / (1 - beta1)" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()


class TestLengthCaps:
    """Each trainer checks the length caps it uses against the model's
    ``max_seq_len``, naming the cap and both values; a cap it never reads is
    not checked."""

    def test_pretrain_runs_with_a_target_len_over_max_seq_len(self, tmp_path, fixtures_dir, trained_vocab):
        payload = {
            "vocab_path": str(trained_vocab),
            "out_dir": str(tmp_path / "out"),
            "model": {**MODEL, "vocab_size": load_vocab(trained_vocab).size},
            "train": {"num_steps": 1, "input_len": 16, "batch_size": 2},  # target_len: the default
            "corpora": [{"path": str(fixtures_dir / "pretrain_corpus.txt")}],
        }
        assert TrainConfig().target_len > MODEL["max_seq_len"]
        (tmp_path / "config.json").write_text(json.dumps(payload), encoding="utf-8")
        assert run(["pretrain", "--config", str(tmp_path / "config.json")]) == EXIT_OK
        assert (tmp_path / "out" / "final").is_dir()

    def test_pretrain_rejects_a_rate_whose_one_masked_token_overflows_max_seq_len(
        self, tmp_path, fixtures_dir, trained_vocab
    ):
        # 2 * 0.1 rounds to no masked token, but a positive rate masks one, so
        # a target holds 4 tokens: sentinel, token, final sentinel, eos
        payload = {
            "vocab_path": str(trained_vocab),
            "out_dir": str(tmp_path / "out"),
            "model": {**MODEL, "vocab_size": load_vocab(trained_vocab).size, "max_seq_len": 3},
            "train": {"num_steps": 1, "input_len": 2, "batch_size": 2},
            "corruption": {"corruption_rate": 0.1},
            "corpora": [{"path": str(fixtures_dir / "pretrain_corpus.txt")}],
        }
        (tmp_path / "config.json").write_text(json.dumps(payload), encoding="utf-8")
        proc = run_entry_point(["pretrain", "--config", str(tmp_path / "config.json")])
        assert proc.returncode == EXIT_DATA_ERROR, proc.stderr
        assert ("corruption.corruption_rate 0.1 could produce targets of 4 tokens, beyond model.max_seq_len 3"
                in proc.stderr)
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_pretrain_rejects_a_rate_that_can_run_out_of_sentinels(self, tmp_path, fixtures_dir, trained_vocab):
        # 64-token windows at rate 0.3 can make 19 spans; with the final
        # sentinel they need 20 of the vocabulary's 16
        payload = {
            "vocab_path": str(trained_vocab),
            "out_dir": str(tmp_path / "out"),
            "model": {**MODEL, "vocab_size": load_vocab(trained_vocab).size, "max_seq_len": 128},
            "train": {"num_steps": 20, "input_len": 64, "batch_size": 2, "checkpoint_every": 1},
            "corruption": {"corruption_rate": 0.3, "mean_span_length": 1.0},
            "corpora": [{"path": str(fixtures_dir / "pretrain_corpus.txt")}],
        }
        (tmp_path / "config.json").write_text(json.dumps(payload), encoding="utf-8")
        proc = run_entry_point(["pretrain", "--config", str(tmp_path / "config.json")])
        assert proc.returncode == EXIT_DATA_ERROR, proc.stderr
        assert ("corruption.corruption_rate 0.3 could mask 19 spans of a 64-token window, which with the final "
                "sentinel need 20 sentinels; the vocabulary has 16") in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_finetune_rejects_a_target_len_over_max_seq_len_and_writes_nothing(self, tmp_path):
        vocab = word_vocab(["alpha", "beta"])
        save_vocab(vocab, tmp_path / "vocab.txt")
        (tmp_path / "t.jsonl").write_text('{"task": "t", "input": "t: alpha", "target": "beta"}\n', encoding="utf-8")
        payload = {
            "vocab_path": str(tmp_path / "vocab.txt"),
            "out_dir": str(tmp_path / "out"),
            "model": {**MODEL, "vocab_size": vocab.size},
            "train": {**TRAIN, "target_len": 40},
            "mixture": [{"task": "t", "path": str(tmp_path / "t.jsonl")}],
        }
        (tmp_path / "config.json").write_text(json.dumps(payload), encoding="utf-8")
        proc = run_entry_point(["finetune", "--config", str(tmp_path / "config.json")])
        assert proc.returncode == EXIT_DATA_ERROR, proc.stderr
        assert "train.target_len 40 exceeds model.max_seq_len 32" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()


class TestVocabSize:
    """Training checks the model's ``vocab_size`` against the vocabulary's
    size before it reads a corpus or task file or creates its ``out_dir``:
    a larger one would train a checkpoint ``predict`` rejects, a smaller one
    would fail only at step 0."""

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    @pytest.mark.parametrize("offset", [7, -1], ids=["larger", "smaller"])
    def test_a_vocab_size_other_than_the_vocabulary_s_exits_1(self, tmp_path, caplog, command, offset):
        vocab = word_vocab(["alpha", "beta"], num_sentinels=16)
        save_vocab(vocab, tmp_path / "vocab.txt")
        (tmp_path / "c.txt").write_text("alpha beta " * 10 + "\n", encoding="utf-8")
        (tmp_path / "t.jsonl").write_text('{"task": "t", "input": "t: alpha", "target": "beta"}\n', encoding="utf-8")
        payload = {
            "vocab_path": str(tmp_path / "vocab.txt"),
            "out_dir": str(tmp_path / "out"),
            "model": {**MODEL, "vocab_size": vocab.size + offset},
            "train": {**TRAIN, "batch_size": 2},
            "corpora": [{"path": str(tmp_path / "c.txt")}],
            "mixture": [{"task": "t", "path": str(tmp_path / "t.jsonl")}],
        }
        (tmp_path / "config.json").write_text(json.dumps(payload), encoding="utf-8")
        assert run([command, "--config", str(tmp_path / "config.json")]) == EXIT_DATA_ERROR
        assert f"model.vocab_size {vocab.size + offset} is not the vocabulary's size {vocab.size}" in caplog.text
        assert not (tmp_path / "out").exists()


class TestErrorsNameTheirFiles:
    """An error about a file's contents names the file; one comparing a
    checkpoint's model with the configured one names the first field that
    differs."""

    @pytest.fixture
    def files(self, tmp_path):
        """(vocabulary, run config payload, the tiny model of both) for a
        one-task finetune."""
        vocab = word_vocab(["alpha", "beta"])
        save_vocab(vocab, tmp_path / "vocab.txt")
        (tmp_path / "t.jsonl").write_text('{"task": "t", "input": "t: alpha", "target": "beta"}\n', encoding="utf-8")
        payload = {
            "vocab_path": str(tmp_path / "vocab.txt"),
            "out_dir": str(tmp_path / "out"),
            "model": {**MODEL, "vocab_size": vocab.size},
            "train": TRAIN,
            "mixture": [{"task": "t", "path": str(tmp_path / "t.jsonl")}],
        }
        return vocab, payload, t2tbio.ModelConfig(**payload["model"])

    def test_warm_start_from_another_model(self, tmp_path, caplog, files):
        _, payload, cfg = files
        other = replace(cfg, d_ff=2 * cfg.d_ff)
        save_checkpoint(tmp_path / "warm", t2tbio.init_params(other, 0), other, None, rng_state=0, step=0)
        (tmp_path / "config.json").write_text(json.dumps(payload), encoding="utf-8")
        argv = ["finetune", "--config", str(tmp_path / "config.json"), "--warm-start", str(tmp_path / "warm")]
        assert run(argv) == EXIT_DATA_ERROR
        assert caplog.records[-1].getMessage() == (
            f"{tmp_path / 'warm' / 'manifest.json'}: warm-start checkpoint does not match the configured model: "
            f"model.d_ff is {other.d_ff}, the configured model's is {cfg.d_ff}"
        )
        assert not (tmp_path / "out").exists()

    def test_predict_with_a_vocabulary_of_another_size(self, tmp_path, caplog, files):
        vocab, _, cfg = files
        other = replace(cfg, vocab_size=vocab.size + 1)
        save_checkpoint(tmp_path / "ck", t2tbio.init_params(other, 0), other, None, rng_state=0, step=0)
        argv = ["predict", "--checkpoint", str(tmp_path / "ck"), "--vocab", str(tmp_path / "vocab.txt"),
                "--in", str(tmp_path / "t.jsonl"), "--out", str(tmp_path / "preds.jsonl")]
        assert run(argv) == EXIT_DATA_ERROR
        assert caplog.records[-1].getMessage() == (
            f"{tmp_path / 'vocab.txt'}: vocabulary size {vocab.size} does not match model.vocab_size "
            f"{vocab.size + 1} in {tmp_path / 'ck' / 'manifest.json'}"
        )
        assert not (tmp_path / "preds.jsonl").exists()

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_a_config_without_vocab_path(self, tmp_path, caplog, files, command):
        _, payload, _ = files
        del payload["vocab_path"]
        (tmp_path / "config.json").write_text(json.dumps(payload), encoding="utf-8")
        assert run([command, "--config", str(tmp_path / "config.json")]) == EXIT_DATA_ERROR
        assert caplog.records[-1].getMessage() == f"{tmp_path / 'config.json'}: config needs vocab_path for {command}"

    def test_a_vocabulary_piece_spanning_a_word_boundary(self, tmp_path):
        vocab = tmp_path / "bad_vocab.txt"
        pieces = ["<pad>", "</s>", "<unk>", BOUNDARY, "a", "b", "a" + BOUNDARY + "b"]
        vocab.write_text(f"t2tbio-vocab v1 size={len(pieces)} sentinels=0\n" + "\n".join(pieces) + "\n",
                         encoding="utf-8")
        (tmp_path / "c.txt").write_text("a b\n", encoding="utf-8")
        proc = run_entry_point(["corrupt", "--vocab", str(vocab), "--in", str(tmp_path / "c.txt"),
                                "--out", str(tmp_path / "s.tsv")])
        assert proc.returncode == EXIT_DATA_ERROR, proc.stderr
        assert f"{vocab}:8: learned piece 'a\\ue000b' holds a word boundary past its first character" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "s.tsv").exists()


class TestPathsNoFileCanHave:
    """A run-config path holding a NUL or a lone surrogate (a valid JSON
    escape) names no file: a data error naming it, and nothing written."""

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    @pytest.mark.parametrize("name", ["c\x00.txt", "\ud800"], ids=["nul", "lone-surrogate"])
    @pytest.mark.parametrize("key", ["out_dir", "source"])
    def test_exits_1(self, tmp_path, caplog, command, name, key):
        vocab = word_vocab(["alpha", "beta"], num_sentinels=16)
        save_vocab(vocab, tmp_path / "vocab.txt")
        (tmp_path / "c.txt").write_text("alpha beta " * 10 + "\n", encoding="utf-8")
        (tmp_path / "t.jsonl").write_text('{"task": "t", "input": "t: alpha", "target": "beta"}\n', encoding="utf-8")
        source = name if key == "source" else str(tmp_path / ("c.txt" if command == "pretrain" else "t.jsonl"))
        payload = {
            "vocab_path": str(tmp_path / "vocab.txt"),
            "out_dir": name if key == "out_dir" else str(tmp_path / "out"),
            "model": {**MODEL, "vocab_size": vocab.size},
            "train": {**TRAIN, "batch_size": 2},
            "corpora": [{"path": source}],
            "mixture": [{"task": "t", "path": source}],
        }
        (tmp_path / "config.json").write_text(json.dumps(payload), encoding="utf-8")
        assert run([command, "--config", str(tmp_path / "config.json")]) == EXIT_DATA_ERROR
        assert (f"out_dir {name!r}" if key == "out_dir" else f"{name}: cannot read file") in caplog.text
        assert sorted(os.listdir(tmp_path)) == ["c.txt", "config.json", "t.jsonl", "vocab.txt"]


class TestMalformedOptimizerState:
    """A checkpoint whose format, model record, weights, moments or rng state
    do not fit its config is a data error naming the file, never a
    traceback."""

    @pytest.fixture
    def checkpoint(self, tmp_path):
        vocab = word_vocab(["alpha", "beta"])
        save_vocab(vocab, tmp_path / "vocab.txt")
        (tmp_path / "t.jsonl").write_text(
            '{"task": "t", "input": "t: alpha", "target": "beta"}\n', encoding="utf-8"
        )
        payload = {
            "vocab_path": str(tmp_path / "vocab.txt"),
            "out_dir": str(tmp_path / "out"),
            "model": {**MODEL, "vocab_size": vocab.size},
            "train": {**TRAIN, "num_steps": 2, "batch_size": 1},
            "mixture": [{"task": "t", "path": str(tmp_path / "t.jsonl")}],
        }
        (tmp_path / "config.json").write_text(json.dumps(payload), encoding="utf-8")
        assert run(["finetune", "--config", str(tmp_path / "config.json")]) == EXIT_OK
        return tmp_path / "out" / "final"

    @staticmethod
    def mutate(ckpt, change):
        path = ckpt / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        change(manifest)
        path.write_text(json.dumps(manifest), encoding="utf-8")

    @staticmethod
    def argv(ckpt, command) -> list[str]:
        """``predict``, ``inspect-checkpoint`` or ``finetune --resume`` on
        ``ckpt``."""
        if command == "inspect-checkpoint":
            return ["inspect-checkpoint", "--checkpoint", str(ckpt)]
        root = ckpt.parent.parent
        if command == "resume":
            return ["finetune", "--config", str(root / "config.json"), "--resume", str(ckpt)]
        return ["predict", "--checkpoint", str(ckpt), "--vocab", str(root / "vocab.txt"),
                "--in", str(root / "t.jsonl"), "--out", str(root / "preds.jsonl")]

    @pytest.mark.parametrize("command", ["predict", "inspect-checkpoint", "resume"])
    def test_a_v1_checkpoint_exits_1_naming_its_format(self, checkpoint, command):
        """The layout of the v1 writer: the weights' entries under
        ``tensors``, the moments' entries in an Adam record and the rng state
        in a file of its own."""

        def v1_layout(manifest):
            rng = {"algo": "splitmix64", "state": manifest.pop("rng_state")}
            (checkpoint / "rng_state").write_text(json.dumps(rng), encoding="utf-8")
            manifest["model"]["dropout_rate"] = 0.0
            manifest.update(format="t2tbio-checkpoint v1", tensors=manifest.pop("weights"),
                            optimizer={"name": "adam", "step": manifest["step"], "tensors": manifest.pop("moments")})

        self.mutate(checkpoint, v1_layout)
        proc = run_entry_point(self.argv(checkpoint, command))
        assert proc.returncode == EXIT_DATA_ERROR, proc.stderr
        assert f"{checkpoint / 'manifest.json'}: format: unknown format 't2tbio-checkpoint v1'" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["predict", "inspect-checkpoint", "resume"])
    def test_a_manifest_without_runtime_exits_1_naming_it(self, checkpoint, command):
        self.mutate(checkpoint, lambda m: m.pop("runtime"))
        proc = run_entry_point(self.argv(checkpoint, command))
        assert proc.returncode == EXIT_DATA_ERROR, proc.stderr
        assert f"{checkpoint / 'manifest.json'}: the document needs 'runtime'" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["predict", "inspect-checkpoint"])
    def test_a_float_head_count_exits_1(self, checkpoint, command):
        self.mutate(checkpoint, lambda m: m["model"].update(n_heads=2.0))
        proc = run_entry_point(self.argv(checkpoint, command))
        assert proc.returncode == EXIT_DATA_ERROR, proc.stderr
        assert str(checkpoint / "manifest.json") in proc.stderr and "model.n_heads" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_resume_with_a_reshaped_moment_exits_1(self, checkpoint):
        def reshape(manifest):
            entry = next(e for e in manifest["moments"] if e["name"] == "m.enc.norm")
            assert entry["shape"] == [16]
            entry["shape"] = [4, 4]

        self.mutate(checkpoint, reshape)
        proc = run_entry_point(self.argv(checkpoint, "resume"))
        assert proc.returncode == EXIT_DATA_ERROR, proc.stderr
        assert str(checkpoint / "optimizer.bin") in proc.stderr and "m.enc.norm" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_resume_with_moments_missing_past_step_0_exits_1(self, checkpoint):
        def drop(manifest):
            manifest["moments"] = [e for e in manifest["moments"] if e["name"][2:] != "enc.norm"]

        self.mutate(checkpoint, drop)
        proc = run_entry_point(self.argv(checkpoint, "resume"))
        assert proc.returncode == EXIT_DATA_ERROR, proc.stderr
        assert str(checkpoint / "optimizer.bin") in proc.stderr and "enc.norm" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_inspect_with_weights_too_large_to_allocate_exits_1(self, checkpoint):
        """A model far larger than memory, listed with its own entries, is
        rejected by the size of ``weights.bin`` before anything is
        allocated."""
        cfg = replace(load_checkpoint(checkpoint)[1], vocab_size=10**13)
        self.mutate(checkpoint, lambda m: m.update(model=cfg.to_dict(), weights=layout(cfg)[0]))
        proc = run_entry_point(["inspect-checkpoint", "--checkpoint", str(checkpoint)])
        assert proc.returncode == EXIT_DATA_ERROR, proc.stderr
        assert str(checkpoint / "weights.bin") in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["predict", "inspect-checkpoint"])
    def test_weights_of_another_dtype_exit_1(self, checkpoint, command):
        params, cfg, _ = load_checkpoint(checkpoint)
        assert cfg.dtype == "float32"
        params = {k: x.astype(np.float64) for k, x in params.items()}
        # save_checkpoint refuses float64 weights under a float32 config, so
        # save them as a float64 model and relabel the manifest's model
        save_checkpoint(checkpoint, params, replace(cfg, dtype="float64"), None, rng_state=0, step=0)
        self.mutate(checkpoint, lambda m: m["model"].update(dtype="float32"))
        proc = run_entry_point(self.argv(checkpoint, command))
        assert proc.returncode == EXIT_DATA_ERROR, proc.stderr
        assert str(checkpoint / "weights.bin") in proc.stderr and '"name": "dec.0.cross.norm"' in proc.stderr
        assert '"dtype": "<f8"' in proc.stderr and '"dtype": "<f4"' in proc.stderr
        assert "Traceback" not in proc.stderr


class TestInspectCheckpoint:
    """``inspect-checkpoint`` loads both of a checkpoint's blobs."""

    def test_prints_the_saved_state(self, tmp_path, capsys):
        cfg = t2tbio.ModelConfig(**MODEL)
        params = t2tbio.init_params(cfg, seed=3)
        moments = np.ones((2, sum(x.size for x in params.values())), cfg.np_dtype)
        ckpt = tmp_path / "ck"
        save_checkpoint(ckpt, params, cfg, moments, rng_state=2**64 - 3, step=5)
        assert run(["inspect-checkpoint", "--checkpoint", str(ckpt)]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert sorted(summary) == ["format", "model", "parameters", "runtime", "step", "tensors"]
        assert summary["format"] == "t2tbio-checkpoint v2"
        assert summary["model"] == cfg.to_dict()
        assert summary["step"] == 5
        assert summary["tensors"] == len(params)
        assert summary["parameters"] == param_count(params)
        assert summary["runtime"] == json.loads((ckpt / "manifest.json").read_bytes())["runtime"]

    def test_a_cut_optimizer_blob_exits_1(self, tmp_path):
        cfg = t2tbio.ModelConfig(**MODEL)
        params = t2tbio.init_params(cfg, seed=3)
        moments = np.ones((2, sum(x.size for x in params.values())), cfg.np_dtype)
        ckpt = tmp_path / "ck"
        save_checkpoint(ckpt, params, cfg, moments, rng_state=2**64 - 3, step=5)
        os.truncate(ckpt / "optimizer.bin", 8)
        proc = run_entry_point(["inspect-checkpoint", "--checkpoint", str(ckpt)])
        assert proc.returncode == EXIT_DATA_ERROR, proc.stderr
        assert str(ckpt / "optimizer.bin") in proc.stderr
        assert "Traceback" not in proc.stderr


class TestResumeFromAPartialCheckpoint:
    """A checkpoint is a whole training state: resuming from one whose
    manifest lacks its rng state, its moments' entries or its step is a data
    error naming the key and the manifest, and writes no ``final/``."""

    @pytest.mark.parametrize("part", CHECKPOINT_PARTS)
    def test_exits_1_naming_the_part(self, tmp_path, part):
        vocab = word_vocab(["alpha", "beta"])
        save_vocab(vocab, tmp_path / "vocab.txt")
        (tmp_path / "t.jsonl").write_text(
            '{"task": "t", "input": "t: alpha", "target": "beta"}\n', encoding="utf-8"
        )
        payload = {
            "vocab_path": str(tmp_path / "vocab.txt"),
            "out_dir": str(tmp_path / "out"),
            "model": {**MODEL, "vocab_size": vocab.size},
            "train": {**TRAIN, "num_steps": 4, "batch_size": 1, "checkpoint_every": 2},
            "mixture": [{"task": "t", "path": str(tmp_path / "t.jsonl")}],
        }
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        assert run(["finetune", "--config", str(config)]) == EXIT_OK
        ckpt = tmp_path / "out" / "step_000002"
        path = remove_checkpoint_part(ckpt, part)
        again = tmp_path / "again"
        proc = run_entry_point(["finetune", "--config", str(config), "--resume", str(ckpt), "--out-dir", str(again)])
        assert proc.returncode == EXIT_DATA_ERROR, proc.stderr
        assert str(path) in proc.stderr and part in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (again / "final").exists()


class TestSeedOverride:
    """``--seed`` and ``T2TBIO_SEED`` seed a run alike, its weights and its
    sampling stream both; a flag wins over its environment variable."""

    @pytest.fixture
    def config(self, tmp_path):
        vocab = word_vocab(["alpha", "beta", "gamma"])
        save_vocab(vocab, tmp_path / "vocab.txt")
        (tmp_path / "corpus.txt").write_text("alpha beta gamma " * 8 + "\n", encoding="utf-8")
        payload = {
            "vocab_path": str(tmp_path / "vocab.txt"),
            "out_dir": str(tmp_path / "config-out"),
            "model": {**MODEL, "vocab_size": vocab.size},
            "train": {**TRAIN, "batch_size": 2},
            "corpora": [{"path": str(tmp_path / "corpus.txt")}],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    @staticmethod
    def pretrain(config, out_dir, *flags) -> dict[str, bytes]:
        assert run(["pretrain", "--config", str(config), "--out-dir", str(out_dir), *flags]) == EXIT_OK
        return collect_files(str(out_dir))

    def test_flag_and_env_seed_a_run_alike(self, tmp_path, config, monkeypatch):
        by_flag = self.pretrain(config, tmp_path / "flag", "--seed", "5")
        unseeded = self.pretrain(config, tmp_path / "unseeded")
        monkeypatch.setenv("T2TBIO_SEED", "5")
        assert self.pretrain(config, tmp_path / "env") == by_flag
        assert unseeded["final/weights.bin"] != by_flag["final/weights.bin"]
        rng_state = [json.loads(files["final/manifest.json"])["rng_state"] for files in (unseeded, by_flag)]
        assert rng_state[0] != rng_state[1]

    def test_flags_beat_the_environment(self, tmp_path, config, monkeypatch):
        by_flag = self.pretrain(config, tmp_path / "flag", "--seed", "5")
        monkeypatch.setenv("T2TBIO_SEED", "9")
        monkeypatch.setenv("T2TBIO_OUT_DIR", str(tmp_path / "env"))
        assert self.pretrain(config, tmp_path / "both", "--seed", "5") == by_flag
        assert not (tmp_path / "env").exists()


class TestFloorValues:
    """A ``--floor`` names a scalar metric and gives a finite value; anything
    else is a config error that writes no report, never a traceback."""

    @pytest.mark.parametrize(
        "floor, message",
        [
            ("accuracy=nan", "--floor value for 'accuracy' must be finite"),
            ("accuracy=-inf", "--floor value for 'accuracy' must be finite"),
            ("task_type=0", "--floor names unknown metric 'task_type'"),
        ],
        ids=["nan", "minus-inf", "task-type"],
    )
    def test_exits_1(self, tmp_path, floor, message):
        pred, gold, report = tmp_path / "pred.jsonl", tmp_path / "gold.jsonl", tmp_path / "report.json"
        write_predictions(pred, [{"input": "t: alpha", "prediction": "beta"}])
        gold.write_text('{"task": "t", "input": "t: alpha", "target": "beta"}\n', encoding="utf-8")
        argv = EVALUATE.format(pred=pred, gold=gold).split() + ["--out", str(report), "--floor", floor]
        proc = run_entry_point(argv)
        assert proc.returncode == EXIT_DATA_ERROR, proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not report.exists()
