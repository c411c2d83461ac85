"""File formats: benchmark-format readers, TaskExample JSONL, JSON documents
and typed records.

Readers are total over arbitrary byte streams: they either return parsed
records or raise DataFormatError with the path and line number; they never
crash with an undeclared exception type. ``read_text`` and ``write_lines``
are the package's only way to read and to write a text file: only the
checkpoint blobs, which ``checkpoint`` reads and writes as bytes, bypass
them. ``read_lines`` holds the one rule for splitting a text file into
lines. ``parse_json``/``read_json``/``read_jsonl`` and ``write_json`` hold
the one rule for parsing and for writing every JSON and JSONL artifact:
run configs, checkpoint and shard manifests, vocabularies, TaskExample and
prediction files. ``read_document`` is the one reader of a JSON document
that a dataclass describes (a run config, a checkpoint manifest, a
vocabulary), and with ``write_document`` the one place a versioned
document's ``format`` is read and written. ``json_value`` holds the one
rule for a JSON value's type, which run configs, checkpoint manifests,
vocabulary files, TaskExample records and the gold fields a report reads
are all checked by; ``read_record`` builds a dataclass from a JSON object
through it, checking each value against its field's type. This is the
bottom file layer: from the package it imports only ``errors`` and
``task_codec``. The repo ships only small synthetic fixtures in these
formats; real benchmark data is supplied by path.
"""

from __future__ import annotations

import json
import re
import sys
import types
import typing
from dataclasses import MISSING, fields, is_dataclass

from .errors import CodecError, ConfigError, DataFormatError
from .task_codec import EntitySpan, QAExample, TaskExample, split_fields


def read_text(path) -> str:
    """The whole file as text; DataFormatError naming the path if it cannot be
    read or is not UTF-8."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except (OSError, ValueError) as e:  # ValueError: a name no file has, holding a NUL or a lone surrogate
        raise DataFormatError(f"cannot read file: {e}", path=str(path)) from e
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataFormatError(f"not valid UTF-8: {e}", path=str(path)) from e


def read_lines(path) -> list[str]:
    """The file's lines, without their ends. A line ends only at "\\n",
    "\\r\\n" or "\\r", as ``open()`` reads text; ``str.splitlines`` would
    also break lines at form feeds, U+0085, U+2028 and other separators."""
    lines = re.split(r"\r\n?|\n", read_text(path))
    if lines[-1] == "":  # nothing after the last line end
        lines.pop()
    return lines


def parse_json(text: str, path, line: int | None = None):
    """The JSON value ``text`` holds; DataFormatError naming ``path`` (and
    ``line``, if given) if it is not JSON."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # also an integer beyond Python's digit limit, or deep nesting
        raise DataFormatError(f"bad JSON: {e}", path=str(path), line=line) from e


def read_json(path):
    """The JSON document that makes up the file; DataFormatError naming the
    path if it cannot be read or parsed."""
    return parse_json(read_text(path), path)


def read_jsonl(path):
    """(line number, object) for each non-blank line of a JSONL file."""
    for lineno, line in enumerate(read_lines(path), start=1):
        if line.strip():
            record = parse_json(line, path, lineno)
            if not isinstance(record, dict):
                raise DataFormatError("record must be an object", path=str(path), line=lineno)
            yield lineno, record


def write_lines(path, lines) -> None:
    """Write the file at ``path`` as UTF-8 text, each of ``lines`` followed
    by a newline. Every text artifact the package writes is written here."""
    with open(path, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(line + "\n")


def write_json(path, *docs, indent: int | None = None) -> None:
    """Write each of ``docs`` as JSON with sorted keys, a newline after each:
    one document makes a JSON file, one per record a JSONL file."""
    encoder = json.JSONEncoder(indent=indent, sort_keys=True)  # json.dumps would build one per doc
    write_lines(path, map(encoder.encode, docs))


def write_document(path, fmt: str, fields: dict, indent: int | None = None) -> None:
    """Write the versioned JSON document of format ``fmt``: ``fields`` and,
    under ``format``, ``fmt``, as ``write_json`` writes one document."""
    write_json(path, {"format": fmt, **fields}, indent=indent)


def read_document(path, cls, fmt: str | None = None):
    """``cls``, a dataclass, from the JSON document in the file at ``path``,
    read by ``read_record``. A versioned document, of format ``fmt``, has its
    ``format`` checked before any other key, and ``cls`` is built from the
    rest: a document of another format is rejected as that, whatever keys it
    holds. A ConfigError starts with the path; a file that cannot be read
    or parsed raises DataFormatError, which names it too."""
    doc = read_json(path)
    try:
        if fmt is not None and isinstance(doc, dict):
            found = doc.pop("format", MISSING)
            if found != fmt:
                raise ConfigError("the document needs 'format'" if found is MISSING
                                  else f"format: unknown format {found!r}, expected {fmt!r}")
        return read_record(cls, doc, "")
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e


# ---------------------------------------------------------------------------
# CoNLL-style BIO files
# ---------------------------------------------------------------------------


def read_conll_ner(path) -> list[tuple[list[str], list[EntitySpan]]]:
    """Token-per-line BIO file with blank-line sentence separators.

    Columns are separated by ASCII spaces and tabs
    (``task_codec.split_fields``), and a line with none is a sentence break.
    The token is the first column, the tag the last.
    An I- tag without a preceding B- of the same type is healed to a span
    start.
    """
    sentences: list[tuple[list[str], list[EntitySpan]]] = []
    words: list[str] = []
    tags: list[str] = []

    def flush():
        if words:
            sentences.append((list(words), _bio_to_spans(tags)))
            words.clear()
            tags.clear()

    for lineno, line in enumerate(read_lines(path), start=1):
        fields = split_fields(line)
        if not fields:
            flush()
            continue
        if len(fields) < 2:
            raise DataFormatError(
                "expected at least a token and a tag column", path=str(path), line=lineno
            )
        tag = fields[-1]
        if tag != "O" and not (tag.startswith(("B-", "I-")) and len(tag) > 2):
            raise DataFormatError(f"malformed BIO tag {tag!r}", path=str(path), line=lineno)
        words.append(fields[0])
        tags.append(tag)
    flush()
    return sentences


def _bio_to_spans(tags: list[str]) -> list[EntitySpan]:
    spans: list[EntitySpan] = []
    start: int | None = None
    current_type: str | None = None

    def close(end: int):
        nonlocal start, current_type
        if start is not None:
            spans.append(EntitySpan(start_word=start, end_word=end, entity_type=current_type))
            start, current_type = None, None

    for i, tag in enumerate(tags):
        if tag == "O":
            close(i - 1)
        elif tag.startswith("B-"):
            close(i - 1)
            start, current_type = i, tag[2:]
        else:  # I-
            t = tag[2:]
            if start is None or current_type != t:
                close(i - 1)
                start, current_type = i, t
    close(len(tags) - 1)
    return spans


# ---------------------------------------------------------------------------
# TSV files (RE / NLI / document classification)
# ---------------------------------------------------------------------------


def read_tsv_pairs(path, columns: list[str]) -> list[dict[str, str]]:
    """Verbatim tab-split records; no quoting rules, quoted tabs split anyway."""
    if not columns:
        raise ConfigError("columns must be declared")
    records: list[dict[str, str]] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if line == "":
            continue
        parts = line.split("\t")
        if len(parts) != len(columns):
            raise DataFormatError(
                f"expected {len(columns)} tab-separated columns, got {len(parts)}",
                path=str(path),
                line=lineno,
            )
        records.append(dict(zip(columns, parts)))
    return records


# ---------------------------------------------------------------------------
# QA JSON (factoid questions with snippets and exact answers)
# ---------------------------------------------------------------------------


def read_qa_json(path) -> list[QAExample]:
    """Factoid QA JSON: {"questions": [{id, body, snippets, exact_answer}]}.

    Snippets may be plain strings or {"text": ...} objects; exact answers may
    be a string, a list, or a list of synonym lists (flattened). Questions with
    no snippets are skipped; duplicate ids merge snippet and answer lists.
    """
    payload = read_json(path)
    if isinstance(payload, dict):
        questions = payload.get("questions")
    elif isinstance(payload, list):
        questions = payload
    else:
        raise DataFormatError("top level must be an object or a list", path=str(path))
    if not isinstance(questions, list):
        raise DataFormatError('missing or invalid "questions" list', path=str(path))

    merged: dict[str, dict] = {}
    order: list[str] = []
    for i, q in enumerate(questions):
        if not isinstance(q, dict):
            raise DataFormatError(f"question {i} is not an object", path=str(path))
        body = q.get("body", q.get("question"))
        if not isinstance(body, str) or not body:
            raise DataFormatError(f"question {i} lacks a body", path=str(path))
        qid = q.get("id")
        if qid is None:
            qid = body
        if not isinstance(qid, str):
            raise DataFormatError(f"question {i} has a non-string id", path=str(path))
        snippets = _parse_snippets(q.get("snippets", []), i, path)
        answers = _parse_answers(q.get("exact_answer", []), i, path)
        if qid not in merged:
            merged[qid] = {"question": body, "snippets": [], "answers": []}
            order.append(qid)
        slot = merged[qid]
        for s in snippets:
            if s not in slot["snippets"]:
                slot["snippets"].append(s)
        for a in answers:
            if a not in slot["answers"]:
                slot["answers"].append(a)

    out: list[QAExample] = []
    for qid in order:
        slot = merged[qid]
        if not slot["snippets"]:
            continue
        if not slot["answers"]:
            raise DataFormatError(f"question {qid!r} has no gold answers", path=str(path))
        out.append(
            QAExample(
                question=slot["question"],
                snippets=tuple(slot["snippets"]),
                gold_answers=tuple(slot["answers"]),
            )
        )
    return out


def _parse_snippets(raw, index: int, path) -> list[str]:
    if not isinstance(raw, list):
        raise DataFormatError(f"question {index}: snippets must be a list", path=str(path))
    out = []
    for s in raw:
        if isinstance(s, str):
            out.append(s)
        elif isinstance(s, dict) and isinstance(s.get("text"), str):
            out.append(s["text"])
        else:
            raise DataFormatError(
                f"question {index}: snippet must be a string or have a text field", path=str(path)
            )
    return out


def _parse_answers(raw, index: int, path) -> list[str]:
    if isinstance(raw, str):
        return [raw]
    if not isinstance(raw, list):
        raise DataFormatError(f"question {index}: exact_answer must be a string or list", path=str(path))
    out: list[str] = []
    for a in raw:
        if isinstance(a, str):
            out.append(a)
        elif isinstance(a, list) and all(isinstance(x, str) for x in a):
            out.extend(a)
        else:
            raise DataFormatError(f"question {index}: malformed exact_answer entry", path=str(path))
    return out


# ---------------------------------------------------------------------------
# TaskExample JSONL
# ---------------------------------------------------------------------------


def write_task_examples(path, examples: list[TaskExample]) -> None:
    records = [
        {"task": ex.task_name, "input": ex.input_text, "target": ex.target_text, "gold": ex.gold}
        for ex in examples
    ]
    write_json(path, *records)


def read_task_examples(path) -> list[TaskExample]:
    out: list[TaskExample] = []
    for lineno, record in read_jsonl(path):
        try:
            task, input_text, target_text = [json_value(str, record[key], key) for key in ("task", "input", "target")]
            gold = json_value(dict, record.get("gold", {}), "gold")
            out.append(TaskExample(task_name=task, input_text=input_text, target_text=target_text, gold=gold))
        except KeyError as e:
            raise DataFormatError(f"missing field {e}", path=str(path), line=lineno) from e
        except (ConfigError, CodecError) as e:
            raise DataFormatError(str(e), path=str(path), line=lineno) from e
    return out


# ---------------------------------------------------------------------------
# typed records
# ---------------------------------------------------------------------------


_EXPECTED = {int: "an integer", float: "a finite number", str: "a string", dict: "a JSON object"}


def json_value(kind, value, where: str):
    """``value`` read as a JSON value of type ``kind``, or ConfigError naming
    ``where``: an int is a JSON integer (not a bool), a float a finite
    number, a str a string, a dict any JSON object, a dataclass a JSON object
    read by ``read_record``, ``list[X]`` a JSON list of X, ``tuple[X, Y,
    ...]`` a JSON list of exactly those items and ``X | None`` null or an
    X. A value whose type is ``kind`` itself, unless that is float, is
    returned before the dataclass and generic-type checks: the fast path for
    the strings and objects that make up most of a record."""
    if type(value) is kind and kind is not float:
        return value
    if is_dataclass(kind):
        return read_record(kind, value, where)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is types.UnionType:  # X | None
        return None if value is None else json_value(args[0], value, where)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a JSON list")
        items = args * len(value) if origin is list else args  # each item's type
        if len(items) != len(value):
            raise ConfigError(f"{where} must be a JSON list of {len(items)} items")
        return [json_value(item, x, f"{where}[{i}]") for i, (item, x) in enumerate(zip(items, value))]
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"{where}: expected {_EXPECTED[kind]}, got {value!r}")


def read_record(cls, section, where: str):
    """``cls`` from the JSON object at ``where`` (a dotted key path, "" for a
    whole document). Its keys are the dataclass's field names, or a field's
    ``metadata["key"]``; fields without a default are required, and
    ConfigError names a bad field. A ConfigError from the record's own
    ``__post_init__`` is prefixed with ``where``, unless that is the whole
    document."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where or 'the document'} must be a JSON object")
    by_key = {f.metadata.get("key", f.name): f for f in fields(cls)}
    unknown = sorted(set(section) - set(by_key))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where or 'the document'}")
    hints = typing.get_type_hints(cls)
    values = {}
    for key, f in by_key.items():
        if key in section:
            values[f.name] = json_value(hints[f.name], section[key], f"{where}.{key}" if where else key)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where or 'the document'} needs {key!r}")
    try:
        return cls(**values)
    except ConfigError as e:  # from the record's own checks, which know no key path
        if not where:
            raise
        raise ConfigError(f"{where}: {e}") from e
