"""Fuzzed ``evaluate`` inputs. Predictions and gold JSONL with fields deleted
or retyped at any depth, records dropped or lines cut short make
``cli.run`` return an exit code, 0 to 3, and never raise. Standard output is
a strict UTF-8 stream, as a terminal's is, so a report that cannot be
printed is found too."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from t2tbio.cli import EXIT_DATA_ERROR, EXIT_FLOOR, EXIT_OK, EXIT_USAGE, TASK_TYPES, run

# one well-formed gold record's "gold" field and a prediction, per task type
GOLD = {
    "ner": ({"words": ["the", "p53", "gene"], "spans": [[1, 1, "GENE"]]}, "the *{ p53 }* gene"),
    "re": ({"label": "true"}, "true"),
    "nli": ({"label": "entailment"}, "neutral"),
    "doc": ({"labels": ["cancer", "immune"]}, "cancer, immune"),
    "qa": ({"question": "what binds p53?", "answers": ["mdm2"]}, "MDM2"),
    "match": ({}, "x"),
}
RECORDS = 3

# strings a report reads in odd ways: empty, blank, NER markers, the
# negative relation label, a lone surrogate (valid as a JSON escape, not as UTF-8)
ODD_TEXT = st.sampled_from(["", " ", "*{", "}*", "false", "ENT", "\ud800", "a,b", "none"])
JSON_LEAF = (st.none() | st.booleans() | st.integers(min_value=-(10**20), max_value=10**20) | st.floats()
             | ODD_TEXT | st.text(max_size=8))
JSON_VALUE = st.recursive(JSON_LEAF, lambda inner: st.lists(inner, max_size=3)
                          | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)
REPLACEMENT = ODD_TEXT | JSON_LEAF | JSON_VALUE  # odd strings and leaves first: most fields hold one


def paths(value, path=()):
    """The path of every value nested in a JSON value, its own first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from paths(item, (*path, key))


def mutate(records: list, data, replacement=REPLACEMENT) -> None:
    """Delete or replace one value nested at any depth in one of ``records``,
    a replacement drawn from ``replacement``."""
    i = data.draw(st.integers(0, len(records) - 1))
    every = list(paths(records[i]))[1:] or [()]
    read = [p for p in every if p[:1] == ("gold",) and len(p) > 1]  # what a report reads: half the draws
    path = data.draw(st.sampled_from(every) | st.sampled_from(read) if read else st.sampled_from(every))
    if not path:
        records[i] = data.draw(replacement)
        return
    parent = records[i]
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(replacement)


@pytest.mark.parametrize("task_type", TASK_TYPES)
@given(data=st.data())
def test_mutated_inputs_exit_with_a_code(task_type, data):
    gold, prediction = GOLD[task_type]
    files = {
        "gold": [{"task": "t", "input": "t: the p53 gene", "target": prediction, "gold": json.loads(json.dumps(gold))}
                 for _ in range(RECORDS)],
        "pred": [{"input": "t: the p53 gene", "prediction": prediction} for _ in range(RECORDS)],
    }
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(files[data.draw(st.sampled_from(["gold", "gold", "pred"]))], data)
    lines = {name: [json.dumps(r) for r in records] for name, records in files.items()}
    # then at most one fault in the lines themselves
    damage, name = data.draw(st.sampled_from(["none", "pop", "cut"])), data.draw(st.sampled_from(sorted(files)))
    if damage == "pop":  # the two files then disagree on their record count
        lines[name].pop()
    elif damage == "cut":
        i = data.draw(st.integers(0, RECORDS - 1))
        lines[name][i] = lines[name][i][: data.draw(st.integers(0, len(lines[name][i]) - 1))]
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["evaluate", "--task-type", task_type]
        for name in sorted(lines):
            path = Path(tmp) / f"{name}.jsonl"
            path.write_text("".join(line + "\n" for line in lines[name]), encoding="utf-8")
            argv += [f"--{name}", str(path)]
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
        with contextlib.redirect_stdout(stdout):
            rc = run(argv)
    assert rc in (EXIT_OK, EXIT_DATA_ERROR, EXIT_USAGE, EXIT_FLOOR)
