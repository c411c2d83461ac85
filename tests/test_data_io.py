import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from t2tbio.cli import load_config
from t2tbio.data_io import (
    json_value,
    read_conll_ner,
    read_lines,
    read_qa_json,
    read_task_examples,
    read_tsv_pairs,
    write_task_examples,
)
from t2tbio.errors import ConfigError, DataFormatError, T2TBioError
from t2tbio.task_codec import EntitySpan, TaskExample


# every separator ``str.splitlines`` breaks at besides the three line ends
UNICODE_SEPARATORS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


class TestReadLines:
    """A line ends only at "\\n", "\\r\\n" or "\\r", as ``open()`` reads text."""

    @pytest.mark.parametrize(
        "text, lines",
        [
            ("", []),
            ("a", ["a"]),
            ("a\n", ["a"]),
            ("a\r\nb\rc\nd", ["a", "b", "c", "d"]),
            ("a\n\nb\n\n", ["a", "", "b", ""]),
            ("\r\r\n", ["", ""]),
            (f"a{UNICODE_SEPARATORS}b\n", [f"a{UNICODE_SEPARATORS}b"]),
        ],
        ids=["empty", "no-end", "one", "three-ends", "blank", "cr-then-crlf", "separators"],
    )
    def test_lines(self, tmp_path, text, lines):
        path = tmp_path / "t.txt"
        path.write_bytes(text.encode("utf-8"))
        assert read_lines(path) == lines

    def test_agrees_with_open(self, tmp_path):
        text = f"one\r\ntwo\rthree{UNICODE_SEPARATORS}\n\nfour"
        path = tmp_path / "t.txt"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as f:
            assert read_lines(path) == [line.removesuffix("\n") for line in f]


class TestConllReader:
    def test_fixture_parses(self, fixtures_dir):
        sentences = read_conll_ner(fixtures_dir / "ner_synthetic.conll")
        assert len(sentences) == 6
        words, spans = sentences[0]
        assert words[0] == "Lupus"
        assert spans == [EntitySpan(0, 0, "Disease")]

    def test_multiword_span(self, fixtures_dir):
        sentences = read_conll_ner(fixtures_dir / "ner_synthetic.conll")
        words, spans = sentences[1]
        assert spans == [EntitySpan(6, 7, "Disease")]
        assert words[6:8] == ["rheumatoid", "arthritis"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.conll"
        path.write_text("", encoding="utf-8")
        assert read_conll_ner(path) == []

    def test_orphan_i_tag_healed(self, tmp_path):
        path = tmp_path / "heal.conll"
        path.write_text("word\tI-Disease\nnext\tO\n", encoding="utf-8")
        diags = {}
        sentences = read_conll_ner(path, diagnostics=diags)
        assert sentences[0][1] == [EntitySpan(0, 0, "Disease")]
        assert diags["healed_i_tags"] == 1

    def test_i_tag_type_switch_healed(self, tmp_path):
        path = tmp_path / "heal2.conll"
        path.write_text("a\tB-Gene\nb\tI-Disease\n", encoding="utf-8")
        diags = {}
        sentences = read_conll_ner(path, diagnostics=diags)
        assert sentences[0][1] == [EntitySpan(0, 0, "Gene"), EntitySpan(1, 1, "Disease")]
        assert diags["healed_i_tags"] == 1

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_text("good\tO\nonlyonetoken\n", encoding="utf-8")
        with pytest.raises(DataFormatError) as exc:
            read_conll_ner(path)
        assert exc.value.line == 2

    def test_a_next_line_character_stays_inside_its_token(self, tmp_path):
        # columns split at ASCII spaces and tabs only, as encode_ner joins words
        path = tmp_path / "nel.conll"
        path.write_text("Lupus\x85erythematosus\tB-Disease\nis O\n \t\nIt\f \tO\n", encoding="utf-8")
        assert read_conll_ner(path) == [(["Lupus\x85erythematosus", "is"], [EntitySpan(0, 0, "Disease")]),
                                        (["It\f"], [])]

    def test_a_line_of_unicode_whitespace_is_not_a_sentence_break(self, tmp_path):
        path = tmp_path / "ff.conll"
        path.write_text("a\tO\n\x0c\nb\tO\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="expected at least a token and a tag column") as exc:
            read_conll_ner(path)
        assert exc.value.line == 2

    def test_bad_tag_rejected(self, tmp_path):
        path = tmp_path / "bad2.conll"
        path.write_text("word\tB-\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="malformed BIO tag"):
            read_conll_ner(path)


class TestTsvReader:
    def test_fixture_parses(self, fixtures_dir):
        records = read_tsv_pairs(fixtures_dir / "re_synthetic.tsv", ["sentence", "label"])
        assert len(records) == 8
        assert records[0]["label"] == "CPR:4"

    def test_two_line_fixture(self, tmp_path):
        path = tmp_path / "two.tsv"
        path.write_text("a\tx\nb\ty\n", encoding="utf-8")
        records = read_tsv_pairs(path, ["text", "label"])
        assert records == [{"text": "a", "label": "x"}, {"text": "b", "label": "y"}]

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\nc\n", encoding="utf-8")
        with pytest.raises(DataFormatError) as exc:
            read_tsv_pairs(path, ["x", "y"])
        assert exc.value.line == 2

    def test_a_form_feed_stays_inside_its_column(self, tmp_path):
        # PMC text extracted from PDFs carries page breaks
        path = tmp_path / "nli.tsv"
        path.write_text("the drug\fhelps\tit helps\tentailment\n", encoding="utf-8")
        records = read_tsv_pairs(path, ["premise", "hypothesis", "label"])
        assert records == [{"premise": "the drug\fhelps", "hypothesis": "it helps", "label": "entailment"}]

    def test_quoted_tabs_split_anyway(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text('"a\tb"\tc\n', encoding="utf-8")
        records = read_tsv_pairs(path, ["one", "two", "three"])
        assert records == [{"one": '"a', "two": 'b"', "three": "c"}]


class TestQaReader:
    def test_fixture_parses(self, fixtures_dir):
        questions = read_qa_json(fixtures_dir / "qa_synthetic.json")
        assert len(questions) == 3
        q = questions[0]
        assert len(q.snippets) == 3  # dict-style snippet accepted
        assert "PKA" in q.gold_answers
        assert questions[1].gold_answers == ("the inhibitor",)  # nested list flattened
        assert questions[2].gold_answers == ("cell cycle arrest",)  # bare string

    def test_zero_snippet_question_skipped(self, tmp_path):
        path = tmp_path / "qa.json"
        path.write_text(
            json.dumps(
                {
                    "questions": [
                        {"id": "a", "body": "q1", "snippets": [], "exact_answer": ["x"]},
                        {"id": "b", "body": "q2", "snippets": ["s"], "exact_answer": ["y"]},
                    ]
                }
            ),
            encoding="utf-8",
        )
        diags = {}
        questions = read_qa_json(path, diagnostics=diags)
        assert len(questions) == 1
        assert diags["skipped_no_snippets"] == 1

    def test_duplicate_ids_merge_snippets(self, tmp_path):
        path = tmp_path / "qa.json"
        path.write_text(
            json.dumps(
                {
                    "questions": [
                        {"id": "a", "body": "q", "snippets": ["s1"], "exact_answer": ["x"]},
                        {"id": "a", "body": "q", "snippets": ["s2", "s1"], "exact_answer": ["y"]},
                    ]
                }
            ),
            encoding="utf-8",
        )
        questions = read_qa_json(path)
        assert len(questions) == 1
        assert questions[0].snippets == ("s1", "s2")
        assert questions[0].gold_answers == ("x", "y")

    def test_bad_json_is_structured_error(self, tmp_path):
        path = tmp_path / "qa.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataFormatError, match="bad JSON"):
            read_qa_json(path)


class TestTaskExamples:
    def test_round_trip(self, tmp_path):
        examples = [
            TaskExample("t", "t: hello", "world", {"kind": "re", "label": "x"}),
            TaskExample("t", "t: bye", "moon", {}),
        ]
        path = tmp_path / "ex.jsonl"
        write_task_examples(path, examples)
        assert read_task_examples(path) == examples

    def test_prefix_enforced(self, tmp_path):
        path = tmp_path / "ex.jsonl"
        path.write_text(
            json.dumps({"task": "t", "input": "wrong", "target": "x", "gold": {}}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DataFormatError, match="task prefix"):
            read_task_examples(path)

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"task": 5, "input": "t: a", "target": "x"}, ":1: task: expected a string, got 5"),
            ({"task": "t", "input": "t: a", "target": None}, ":1: target: expected a string, got None"),
            ({"task": "t", "input": "t: a", "target": "x", "gold": []}, ":1: gold: expected a JSON object, got []"),
            ({"task": "t", "target": "x"}, ":1: missing field 'input'"),
            ({"task": "t", "input": "t:a", "target": "x"}, ":1: input_text must begin with the task prefix 't: '"),
        ],
        ids=["int-task", "null-target", "list-gold", "missing-input", "no-prefix"],
    )
    def test_a_bad_field_is_named_at_its_line(self, tmp_path, record, message):
        path = tmp_path / "ex.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError) as exc:
            read_task_examples(path)
        assert str(exc.value) == str(path) + message

    def test_json_nested_beyond_the_recursion_limit_is_a_data_error(self, tmp_path):
        path = tmp_path / "ex.jsonl"
        path.write_text("[" * 5000 + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=":1: bad JSON"):
            read_task_examples(path)

    def test_a_raw_line_separator_stays_inside_its_string(self, tmp_path):
        example = TaskExample("t", "t: a\u2028b\x85c", "x", {})
        path = tmp_path / "ex.jsonl"
        path.write_text(json.dumps({"task": "t", "input": example.input_text, "target": "x"}, ensure_ascii=False)
                        + "\n", encoding="utf-8")
        assert read_task_examples(path) == [example]

    def test_unknown_keys_are_accepted(self, tmp_path):
        # prediction files carry extra keys, and predict reads them as task examples
        path = tmp_path / "ex.jsonl"
        path.write_text(json.dumps({"task": "t", "input": "t: a", "target": "x", "prediction": "y"}) + "\n",
                        encoding="utf-8")
        assert read_task_examples(path) == [TaskExample("t", "t: a", "x", {})]


class TestJsonValue:
    """``json_value``: the one type rule for JSON values."""

    @pytest.mark.parametrize(
        "kind, value",
        [
            (int, 3),
            (float, 2),
            (str, ""),
            (dict, {"a": [1]}),
            (list[str], []),
            (list[tuple[int, int, str]], [[0, 1, "GENE"], [2, 2, "X"]]),
        ],
        ids=["int", "int-as-float", "str", "dict", "empty-list", "list-of-tuples"],
    )
    def test_accepts(self, kind, value):
        assert json_value(kind, value, "f") == value

    @pytest.mark.parametrize(
        "kind, value, message",
        [
            (tuple[int, int, str], [0, 1], "f must be a JSON list of 3 items"),
            (tuple[int, int, str], [0, 1, "A", "B"], "f must be a JSON list of 3 items"),
            (tuple[int, str], (0, "A"), "f must be a JSON list"),  # a JSON document holds no tuple
            (tuple[int, int, str], [True, 1, "A"], "f[0]: expected an integer, got True"),
            (int, False, "f: expected an integer, got False"),
            (dict, [], "f: expected a JSON object, got []"),
            (dict, None, "f: expected a JSON object, got None"),
            (list[tuple[int, str]], [[1, "a"], [1, 2]], "f[1][1]: expected a string, got 2"),
            (float, 10**400, "f: expected a finite number, got " + str(10**400)),
        ],
        ids=["short-tuple", "long-tuple", "python-tuple", "bool-in-tuple", "bool-as-int", "list-as-dict",
             "null-as-dict", "nested-item", "huge-int-as-float"],
    )
    def test_rejects_naming_the_value(self, kind, value, message):
        with pytest.raises(ConfigError) as exc:
            json_value(kind, value, "f")
        assert str(exc.value) == message


def minimal_config(tmp_path, **overrides):
    payload = {
        "seed": 1,
        "out_dir": str(tmp_path / "out"),
        "vocab_path": "vocab.txt",
        "model": {"vocab_size": 64, "d_model": 16, "n_heads": 2, "d_ff": 32, "max_seq_len": 32},
        "train": {"num_steps": 2, "input_len": 16, "target_len": 16},
    }
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestRunConfig:
    def test_minimal_loads(self, tmp_path):
        cfg = load_config(minimal_config(tmp_path))
        assert cfg.seed == 1
        assert cfg.model.d_model == 16
        assert cfg.train.num_steps == 2

    def test_unknown_key_named(self, tmp_path):
        path = minimal_config(tmp_path, banana=1)
        with pytest.raises(ConfigError, match="banana") as exc:
            load_config(path)
        assert str(exc.value) == f"{path}: unknown key 'banana' in the document"

    def test_a_config_that_is_not_an_object_names_the_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1]", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"{path}: the document must be a JSON object"

    def test_unknown_model_key_named(self, tmp_path):
        path = minimal_config(
            tmp_path,
            model={"vocab_size": 64, "d_model": 16, "n_heads": 2, "d_ff": 32, "warp": 9},
        )
        with pytest.raises(ConfigError, match="warp"):
            load_config(path)

    def test_length_caps_are_left_to_the_trainers(self, tmp_path):
        # pretraining never reads target_len, so a config is not rejected
        # over it here; pretrain and finetune check the caps they use
        path = minimal_config(
            tmp_path,
            train={"num_steps": 1, "input_len": 16, "target_len": 99},
        )
        assert load_config(path).train.target_len == 99

    def test_env_overrides(self, tmp_path, monkeypatch):
        monkeypatch.setenv("T2TBIO_OUT_DIR", "/elsewhere")
        monkeypatch.setenv("T2TBIO_SEED", "77")
        cfg = load_config(minimal_config(tmp_path))
        assert cfg.out_dir == "/elsewhere"
        assert cfg.seed == 77

    def test_seed_argument_and_env_give_the_same_config(self, tmp_path, monkeypatch):
        by_argument = load_config(minimal_config(tmp_path), seed=5)
        monkeypatch.setenv("T2TBIO_SEED", "5")
        by_env = load_config(minimal_config(tmp_path))
        assert by_env == by_argument
        assert (by_env.seed, by_env.train.seed) == (5, 5)

    def test_arguments_beat_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("T2TBIO_OUT_DIR", "/from-env")
        monkeypatch.setenv("T2TBIO_SEED", "77")
        cfg = load_config(minimal_config(tmp_path), out_dir="/from-flag", seed=3)
        assert (cfg.out_dir, cfg.seed, cfg.train.seed) == ("/from-flag", 3, 3)

    def test_dropout_rate_is_an_unknown_key(self, tmp_path):
        # the model has no dropout: a run config cannot set a rate, not even 0
        path = minimal_config(tmp_path, model={"vocab_size": 64, "dropout_rate": 0.0})
        with pytest.raises(ConfigError, match="unknown key 'dropout_rate' in model"):
            load_config(path)

    def test_corruption_seed_is_an_unknown_key(self, tmp_path):
        path = minimal_config(tmp_path, corruption={"corruption_rate": 0.2, "seed": 3})
        with pytest.raises(ConfigError, match="unknown key 'seed' in corruption"):
            load_config(path)

    def test_corruption_max_sentinels_is_an_unknown_key(self, tmp_path):
        # the vocabulary's sentinels bound the spans
        path = minimal_config(tmp_path, corruption={"corruption_rate": 0.2, "max_sentinels": 16})
        with pytest.raises(ConfigError, match="unknown key 'max_sentinels' in corruption"):
            load_config(path)

    @pytest.mark.parametrize(
        "section, message",
        [
            ({"corruption": {"corruption_rate": 1.5}}, "corruption: corruption_rate must be in [0, 1)"),
            ({"corruption": {"mean_span_length": 0.5}}, "corruption: mean_span_length must be finite and >= 1"),
            ({"train": {"batch_size": 0}}, "train: batch_size must be positive and num_steps non-negative"),
            ({"model": {"vocab_size": 64, "d_model": 16, "n_heads": 3}}, "model: d_model must be divisible by n_heads"),
            ({"mixture": [{"task": "a", "path": "a.jsonl", "weight": 0}]},
             "mixture[0]: weight for task 'a' must be positive and finite"),
            ({"corpora": [{"path": "c.txt"}, {"path": "d.txt", "weight": -1}]},
             "corpora[1]: corpus weight for d.txt must be finite and non-negative"),
        ],
        ids=["corruption-rate", "mean-span-length", "batch-size", "n-heads", "mixture-weight", "corpus-weight"],
    )
    def test_a_record_s_own_check_names_the_file_and_the_key(self, tmp_path, section, message):
        path = minimal_config(tmp_path, **section)
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_an_out_dir_no_file_can_have_names_where_it_came_from(self, tmp_path):
        path = minimal_config(tmp_path, out_dir="o\x00ut")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value).startswith(f"{path}: out_dir 'o\\x00ut': ")
        with pytest.raises(ConfigError) as exc:
            load_config(minimal_config(tmp_path), out_dir="a\x00b")  # the override's, not the file's
        assert str(exc.value).startswith("out_dir 'a\\x00b': ")

    def test_mixture_entries(self, tmp_path):
        path = minimal_config(
            tmp_path,
            mixture=[{"task": "a", "path": "a.jsonl"}, {"task": "b", "path": "b.jsonl", "weight": 2.0}],
        )
        cfg = load_config(path)
        assert cfg.mixture[1].weight == 2.0


def test_fixture_coverage_for_every_task_family(fixtures_dir):
    # pretraining corpus plus one fixture per supervised task family
    for name in (
        "pretrain_corpus.txt",
        "ner_synthetic.conll",
        "re_synthetic.tsv",
        "nli_synthetic.tsv",
        "doc_synthetic.tsv",
        "qa_synthetic.json",
    ):
        assert (fixtures_dir / name).is_file(), f"missing fixture {name}"
    assert len(read_conll_ner(fixtures_dir / "ner_synthetic.conll")) > 0
    assert len(read_tsv_pairs(fixtures_dir / "re_synthetic.tsv", ["sentence", "label"])) > 0
    assert len(read_tsv_pairs(fixtures_dir / "nli_synthetic.tsv", ["premise", "hypothesis", "label"])) > 0
    assert len(read_tsv_pairs(fixtures_dir / "doc_synthetic.tsv", ["text", "labels"])) > 0
    assert len(read_qa_json(fixtures_dir / "qa_synthetic.json")) > 0


@given(st.binary(max_size=300))
def test_readers_total_over_random_bytes(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "blob"
    path.write_bytes(data)
    for reader in (
        lambda p: read_conll_ner(p),
        lambda p: read_tsv_pairs(p, ["a", "b"]),
        lambda p: read_qa_json(p),
        lambda p: read_task_examples(p),
    ):
        try:
            reader(path)
        except T2TBioError:
            pass
