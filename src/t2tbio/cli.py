"""Command-line entry point.

Subcommands cover the whole pipeline: vocab-train, corrupt, encode-task,
pretrain, finetune, predict, evaluate, inspect-checkpoint. Stages exchange
line-delimited JSON (or the documented text formats), so each stage can be
tested and replaced independently. Exit codes: 0 success, 1 data error,
2 usage error, 3 metric below a configured floor.

The run config that drives ``pretrain`` and ``finetune`` is defined here
(``RunConfig``, read by ``load_config``); its JSON layout and the type of each
value come from its dataclasses through ``data_io.read_record``. The gold
fields that ``evaluate`` reads are checked by the same type rule,
``data_io.json_value``, against the types listed in ``_GOLD_FIELDS``.

Only the commands that draw random numbers take ``--seed``: ``corrupt``
(default 0) and the two training commands, where it overrides the run
config's ``seed`` and ``train.seed`` as ``--out-dir`` overrides its
``out_dir``. Both flags win over the ``T2TBIO_SEED`` and ``T2TBIO_OUT_DIR``
environment variables (see ``load_config``).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import typing
from dataclasses import dataclass, field, replace

from . import data_io, metrics, task_codec
from .checkpoint import MANIFEST_NAME, check_model, load_checkpoint, load_optimizer
from .corruption import SpanCorruptionConfig, corrupt, derive_seed, write_shard
from .errors import ConfigError, CorruptionError, DataFormatError, T2TBioError
from .model import ModelConfig, greedy_decode, init_params, param_count
from .trainer import CorpusEntry, MixtureEntry, TrainConfig, finetune, pretrain
from .vocab import EOS_ID, load_vocab, save_vocab, train_vocab

log = logging.getLogger("t2tbio.cli")

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE = 2
EXIT_FLOOR = 3

TASK_TYPES = ("ner", "re", "nli", "doc", "qa", "match")

ENV_OUT_DIR = "T2TBIO_OUT_DIR"
ENV_SEED = "T2TBIO_SEED"


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig = field(default_factory=TrainConfig)
    corruption: SpanCorruptionConfig = field(default_factory=SpanCorruptionConfig)
    vocab_path: str = ""
    out_dir: str = "runs/default"
    seed: int = 0
    corpora: list[CorpusEntry] = field(default_factory=list)
    mixture: list[MixtureEntry] = field(default_factory=list)


def load_config(path, out_dir: str | None = None, seed: int | None = None) -> RunConfig:
    """Load and validate a run config JSON document.

    The schema is ``RunConfig`` and the dataclasses it holds: unknown keys are
    rejected by name and every value is checked against its field's type;
    a ConfigError about the file's contents starts with its path and names
    the key.
    ``pretrain`` and ``finetune`` check the length caps they use against the
    model's ``max_seq_len``; a cap one of them never reads is not checked.
    ``out_dir`` and ``seed``, or else the ``T2TBIO_OUT_DIR`` and
    ``T2TBIO_SEED`` environment variables, override the config's; a seed
    override sets both ``seed`` and ``train.seed``.
    """
    try:
        cfg = data_io.read_record(RunConfig, data_io.read_json(path), "")
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e
    if out_dir is None:
        out_dir = os.environ.get(ENV_OUT_DIR, cfg.out_dir)
    try:
        os.stat(out_dir)
    except OSError:
        pass  # not there yet: the first save makes it
    except ValueError as e:  # a name no file can have, holding a NUL or a lone surrogate
        origin = f"{path}: " if out_dir == cfg.out_dir else ""  # else an override's
        raise ConfigError(f"{origin}out_dir {out_dir!r}: {e}") from e
    cfg.out_dir = out_dir
    if seed is None and ENV_SEED in os.environ:
        try:
            seed = int(os.environ[ENV_SEED])
        except ValueError as e:
            raise ConfigError(f"{ENV_SEED}: cannot read {os.environ[ENV_SEED]!r} as int") from e
    if seed is not None:
        cfg.seed = seed
        cfg.train = replace(cfg.train, seed=seed)
    return cfg


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _int_at_least(floor: int):
    """An argparse type: an integer no smaller than ``floor``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _corruption_float(name: str):
    """An argparse type: a finite number that ``SpanCorruptionConfig``
    accepts as its field ``name``."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        try:
            SpanCorruptionConfig(**{name: value})
        except ConfigError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="t2tbio", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vocab-train", help="train a subword vocabulary from text corpora")
    p.add_argument("--corpus", action="append", required=True, help="corpus text file (repeatable)")
    p.add_argument("--size", type=_positive_int, default=4096, help="target vocabulary size (at least 1)")
    p.add_argument("--sentinels", type=_non_negative_int, default=100,
                   help="number of reserved sentinel tokens (at least 0)")
    p.add_argument("--out", required=True, help="output vocabulary file")

    p = sub.add_parser("corrupt", help="write a span-corruption shard from a corpus")
    p.add_argument("--vocab", required=True, help="vocabulary file")
    p.add_argument("--in", dest="input", required=True, help="corpus text file, one document per line")
    p.add_argument("--out", required=True, help="output shard file (sidecar manifest is added)")
    p.add_argument("--rate", type=_corruption_float("corruption_rate"), default=0.15,
                   help="fraction of tokens to mask, in [0, 1)")
    p.add_argument("--mean-span", type=_corruption_float("mean_span_length"), default=3.0,
                   help="mean masked span length (at least 1)")
    p.add_argument("--input-len", type=_positive_int, default=None,
                   help="truncate documents to this many tokens (at least 1)")
    p.add_argument("--seed", type=int, default=0, help="base seed of the per-record corruption seeds")

    p = sub.add_parser("encode-task", help="convert a raw dataset to TaskExample JSONL")
    p.add_argument("--task-type", choices=TASK_TYPES[:5], required=True)
    p.add_argument("--task-name", required=True, help="prefix baked into every input")
    p.add_argument("--in", dest="input", required=True, help="raw dataset file")
    p.add_argument("--out", required=True, help="output TaskExample JSONL")
    p.add_argument("--labels", default=None, help="comma-separated closed label set (re)")

    for name, what in (("pretrain", "span-infilling pretraining"), ("finetune", "supervised fine-tuning")):
        p = sub.add_parser(name, help=f"{what} from a run config")
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--out-dir", default=None, help="override out_dir (and T2TBIO_OUT_DIR)")
        start = p.add_mutually_exclusive_group()
        start.add_argument("--warm-start", help="checkpoint directory to initialize weights from")
        start.add_argument("--resume", help="checkpoint directory to resume training from")
        p.add_argument("--seed", type=int, default=None, help="override seed and train.seed (and T2TBIO_SEED)")

    p = sub.add_parser("predict", help="greedy-decode a TaskExample file with a checkpoint")
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p.add_argument("--vocab", required=True, help="vocabulary file")
    p.add_argument("--in", dest="input", required=True, help="TaskExample JSONL")
    p.add_argument("--out", required=True, help="output predictions JSONL")
    p.add_argument("--max-len", type=_positive_int, default=64, help="maximum generated tokens (at least 1)")

    p = sub.add_parser("evaluate", help="score predictions against gold TaskExamples")
    p.add_argument("--task-type", choices=TASK_TYPES, required=True)
    p.add_argument("--pred", required=True, help="predictions JSONL from the predict command")
    p.add_argument("--gold", required=True, help="gold TaskExample JSONL")
    p.add_argument("--out", default=None, help="write the report JSON here")
    p.add_argument("--entity-type", default=None, help="entity type for decoded NER spans")
    p.add_argument("--labels", default=None, help="comma-separated closed label set (re/nli)")
    p.add_argument(
        "--negative-label",
        default="false",
        help="label excluded from micro-F1 for relation extraction",
    )
    p.add_argument(
        "--floor",
        action="append",
        default=[],
        metavar="METRIC=VALUE",
        help="fail (exit 3) when a report metric is below VALUE (repeatable)",
    )

    p = sub.add_parser("inspect-checkpoint", help="print a checkpoint manifest summary")
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")

    return parser


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_vocab_train(args) -> int:
    lines: list[str] = []
    for path in args.corpus:
        lines.extend(data_io.read_lines(path))
    v = train_vocab(lines, target_size=args.size, num_sentinels=args.sentinels)
    save_vocab(v, args.out)
    log.info("wrote vocabulary: %d pieces (%d sentinels) -> %s", v.size, v.num_sentinels, args.out)
    return EXIT_OK


def _cmd_corrupt(args) -> int:
    v = load_vocab(args.vocab)
    cfg = SpanCorruptionConfig(corruption_rate=args.rate, mean_span_length=args.mean_span)
    examples = []
    for lineno, line in enumerate(data_io.read_lines(args.input), start=1):
        if not line.strip():
            continue
        ids = v.encode(line)
        if args.input_len is not None:
            ids = ids[: args.input_len]
        if not ids:
            continue
        try:
            examples.append(corrupt(ids, cfg, v, derive_seed(args.seed, len(examples))))
        except CorruptionError as e:
            raise CorruptionError(f"{args.input}:{lineno}: {e}") from e
    write_shard(args.out, examples, cfg, args.seed)
    log.info("wrote %d corruption records -> %s", len(examples), args.out)
    return EXIT_OK


def _parse_label_flag(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    labels = [x.strip() for x in raw.split(",") if x.strip()]
    if not labels:
        raise ConfigError("--labels must list at least one label")
    return labels


def _cmd_encode_task(args) -> int:
    examples: list[task_codec.TaskExample] = []
    if args.task_type == "ner":
        for words, spans in data_io.read_conll_ner(args.input):
            examples.append(task_codec.encode_ner(words, spans, args.task_name))
    elif args.task_type == "re":
        records = data_io.read_tsv_pairs(args.input, ["sentence", "label"])
        labels = _parse_label_flag(args.labels)
        if labels is None:
            labels = sorted({r["label"] for r in records})
        for r in records:
            examples.append(task_codec.encode_re(r["sentence"], r["label"], args.task_name, labels))
    elif args.task_type == "nli":
        for r in data_io.read_tsv_pairs(args.input, ["premise", "hypothesis", "label"]):
            examples.append(
                task_codec.encode_nli(r["premise"], r["hypothesis"], r["label"], args.task_name)
            )
    elif args.task_type == "doc":
        for r in data_io.read_tsv_pairs(args.input, ["text", "labels"]):
            labels = {x.strip() for x in r["labels"].split("|") if x.strip()}
            examples.append(task_codec.encode_doc(r["text"], labels, args.task_name))
    elif args.task_type == "qa":
        for q in data_io.read_qa_json(args.input):
            for i in range(len(q.snippets)):
                examples.append(task_codec.encode_qa(q, i, args.task_name))
    data_io.write_task_examples(args.out, examples)
    log.info("wrote %d task examples -> %s", len(examples), args.out)
    return EXIT_OK


def _initial_params(cfg: RunConfig, warm_start: str | None):
    if warm_start is not None:
        params, model_cfg, _ = load_checkpoint(warm_start)
        check_model(warm_start, model_cfg, cfg.model, "warm-start checkpoint does not match the configured model")
        return params
    return init_params(cfg.model, seed=cfg.seed)


def _cmd_train(args) -> int:
    cfg = load_config(args.config, out_dir=args.out_dir, seed=args.seed)
    if not cfg.vocab_path:
        raise ConfigError(f"{args.config}: config needs vocab_path for {args.command}")
    v = load_vocab(cfg.vocab_path)
    params = None if args.resume else _initial_params(cfg, args.warm_start)
    io = {"out_dir": cfg.out_dir, "resume": args.resume}
    if args.command == "pretrain":
        pretrain(cfg.model, params, cfg.corpora, cfg.corruption, cfg.train, v, **io)
    else:
        finetune(params, cfg.mixture, cfg.model, cfg.train, v, **io)
    log.info("%s finished at step %d; checkpoints under %s", args.command, cfg.train.num_steps, cfg.out_dir)
    return EXIT_OK


def _cmd_predict(args) -> int:
    params, model_cfg, _ = load_checkpoint(args.checkpoint)
    v = load_vocab(args.vocab)
    if v.size != model_cfg.vocab_size:
        raise ConfigError(f"{args.vocab}: vocabulary size {v.size} does not match model.vocab_size "
                          f"{model_cfg.vocab_size} in {os.path.join(args.checkpoint, MANIFEST_NAME)}")
    records = []
    for ex in data_io.read_task_examples(args.input):
        ids = v.encode(ex.input_text) + [EOS_ID]
        generated = greedy_decode(params, model_cfg, ids[: model_cfg.max_seq_len], max_len=args.max_len)
        records.append(
            {"task": ex.task_name, "input": ex.input_text, "prediction": v.decode(generated), "target": ex.target_text}
        )
    data_io.write_json(args.out, *records)
    log.info("wrote %d predictions -> %s", len(records), args.out)
    return EXIT_OK


def read_predictions(path, golds: list[task_codec.TaskExample]) -> list[str]:
    """The prediction of each record of the JSONL file at ``path``. Record i
    is scored against ``golds[i]``, so it needs that record's ``input``, and
    its ``task`` where it has one; a record that names another gold record is
    a DataFormatError at its line."""
    predictions = []
    for i, (lineno, record) in enumerate(data_io.read_jsonl(path)):
        for key in ("prediction", "input"):
            if not isinstance(record.get(key), str):
                raise DataFormatError(f"prediction record needs a string {key!r}", path=str(path), line=lineno)
        if i < len(golds):
            for key, gold in (("input", golds[i].input_text), ("task", golds[i].task_name)):
                if key in record and record[key] != gold:
                    raise DataFormatError(f"{key} is not gold record {i + 1}'s", path=str(path), line=lineno)
        predictions.append(record["prediction"])
    return predictions


# the gold fields each task type's report reads, with their JSON types
_GOLD_FIELDS = {
    "ner": (("words", list[str]), ("spans", list[tuple[int, int, str]])),
    "re": (("label", str),),
    "nli": (("label", str),),
    "doc": (("labels", list[str]),),
    "qa": (("question", str), ("answers", list[str])),
}


def _evaluate_report(args, predictions: list[str], golds) -> metrics.MetricsReport:
    for i, ex in enumerate(golds, start=1):
        for name, kind in _GOLD_FIELDS.get(args.task_type, ()):
            try:
                data_io.json_value(kind, ex.gold.get(name), name)
            except ConfigError as e:
                raise DataFormatError(
                    f"gold record {i}: a {args.task_type} report needs {name!r} of type "
                    f"{kind if typing.get_args(kind) else kind.__name__}", path=str(args.gold)) from e
    if args.task_type == "ner":
        gold_spans = []
        pred_spans = []
        dropped = 0
        entity_type = args.entity_type
        if entity_type is None:
            for ex in golds:
                if ex.gold["spans"]:
                    entity_type = ex.gold["spans"][0][2]
                    break
            entity_type = entity_type or "ENT"
        for ex, pred in zip(golds, predictions):
            gold_spans.append(
                [task_codec.EntitySpan(start_word=s, end_word=e, entity_type=t) for s, e, t in ex.gold["spans"]]
            )
            decoded = task_codec.decode_ner(pred, ex.gold["words"], entity_type=entity_type)
            pred_spans.append(decoded.spans)
            dropped += decoded.dropped_markers
        return metrics.entity_prf(gold_spans, pred_spans, dropped_markers=dropped)
    if args.task_type == "re":
        gold_labels = [ex.gold["label"] for ex in golds]
        labels = _parse_label_flag(args.labels) or sorted(set(gold_labels))
        decoded = [task_codec.decode_label(p, labels) for p in predictions]
        positive = [c for c in labels if c != args.negative_label]
        return metrics.classification_f1(gold_labels, decoded, labels, positive_classes=positive)
    if args.task_type == "nli":
        gold_labels = [ex.gold["label"] for ex in golds]
        labels = _parse_label_flag(args.labels) or list(task_codec.NLI_LABELS)
        decoded = [task_codec.decode_label(p, labels) for p in predictions]
        report = metrics.classification_f1(gold_labels, decoded, labels)
        report.accuracy = metrics.accuracy(gold_labels, decoded)
        return report
    if args.task_type == "doc":
        gold_sets = [set(ex.gold["labels"]) for ex in golds]
        pred_sets = [task_codec.parse_doc_labels(p) for p in predictions]
        return metrics.MetricsReport(
            sample_average_f1=metrics.sample_average_f1(gold_sets, pred_sets)
        )
    if args.task_type == "qa":
        groups: dict[str, tuple[list[str], list[str]]] = {}
        for ex, pred in zip(golds, predictions):
            q = ex.gold["question"]
            if q not in groups:
                groups[q] = ([], list(ex.gold["answers"]))
            groups[q][0].append(pred)
        return metrics.MetricsReport(
            lenient_accuracy=metrics.lenient_accuracy(list(groups.values())),
            protocol=metrics.LENIENT_MATCH_PROTOCOL,
        )
    # match: exact string equality against the gold target text
    gold_targets = [ex.target_text for ex in golds]
    return metrics.MetricsReport(accuracy=metrics.accuracy(gold_targets, predictions))


def _parse_floors(raw: list[str]) -> dict[str, float]:
    floors = {}
    for item in raw:
        if "=" not in item:
            raise ConfigError(f"--floor expects METRIC=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        name = name.strip()
        if name not in metrics._SCALAR_METRICS:
            known = ", ".join(metrics._SCALAR_METRICS)
            raise ConfigError(f"--floor names unknown metric {name!r} (known: {known})")
        try:
            floors[name] = float(value)
        except ValueError as e:
            raise ConfigError(f"--floor value for {name!r} is not a number") from e
        if not math.isfinite(floors[name]):
            raise ConfigError(f"--floor value for {name!r} must be finite, got {value!r}")
    return floors


def _cmd_evaluate(args) -> int:
    floors = _parse_floors(args.floor)
    golds = data_io.read_task_examples(args.gold)
    preds = read_predictions(args.pred, golds)
    if len(preds) != len(golds):
        raise DataFormatError(f"prediction file has {len(preds)} records, gold file {args.gold} has {len(golds)}",
                              path=str(args.pred))
    report = _evaluate_report(args, preds, golds)
    payload = report.to_dict()
    payload["task_type"] = args.task_type
    failed = []
    for name, floor in floors.items():
        value = payload.get(name)
        if value is None:
            raise ConfigError(f"--floor names metric {name!r}, which a {args.task_type} report lacks")
        if value < floor:
            failed.append((name, value, floor))
    payload["floors"] = {name: floors[name] for name in sorted(floors)}
    payload["passed"] = not failed
    if args.out:
        data_io.write_json(args.out, payload, indent=2)
    # a label stdout cannot encode, such as a lone surrogate from a JSON
    # escape, is printed as its escape rather than raising
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    print(report.format_table().encode(encoding, "backslashreplace").decode(encoding))
    for name, value, floor in failed:
        log.error("metric %s=%.4f is below the floor %.4f", name, value, floor)
    return EXIT_FLOOR if failed else EXIT_OK


def _cmd_inspect_checkpoint(args) -> int:
    params, cfg, manifest = load_checkpoint(args.checkpoint)
    load_optimizer(args.checkpoint, manifest)
    summary = {
        "model": cfg.to_dict(),
        "tensors": len(manifest.weights),
        "parameters": param_count(params),
        "step": manifest.step,
        "format": manifest.format,
        "runtime": manifest.runtime,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


_COMMANDS = {
    "vocab-train": _cmd_vocab_train,
    "corrupt": _cmd_corrupt,
    "encode-task": _cmd_encode_task,
    "pretrain": _cmd_train,
    "finetune": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "inspect-checkpoint": _cmd_inspect_checkpoint,
}


def run(argv: list[str] | None = None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except T2TBioError as e:
        log.error("%s", e)
        return EXIT_DATA_ERROR
    except OSError as e:
        log.error("%s", e)
        return EXIT_DATA_ERROR


def main(argv: list[str] | None = None) -> None:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
