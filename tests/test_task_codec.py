import pytest
from hypothesis import given
from hypothesis import strategies as st

from t2tbio.errors import CodecError
from t2tbio.rng import SplitMix64
from t2tbio.task_codec import (
    EntitySpan,
    QAExample,
    decode_label,
    decode_ner,
    encode_doc,
    encode_ner,
    encode_nli,
    encode_qa,
    encode_re,
    parse_doc_labels,
)

from helpers import random_sentence, random_spans

CHEMPROT_LABELS = ["CPR:3", "CPR:4", "CPR:5", "CPR:6", "CPR:9", "false"]


class TestNerEncode:
    def test_lupus_example(self):
        ex = encode_ner(
            ["Lupus", "is", "a", "disease"],
            [EntitySpan(0, 0, "Disease")],
            "ncbi_ner",
        )
        assert ex.input_text == "ncbi_ner: Lupus is a disease"
        assert ex.target_text == "*{ Lupus }* is a disease"

    def test_no_entities_gives_plain_sentence(self):
        ex = encode_ner(["no", "entities", "here"], [], "ncbi_ner")
        assert ex.target_text == "no entities here"

    def test_adjacent_entities(self):
        ex = encode_ner(
            ["w0", "w1", "w2"],
            [EntitySpan(0, 0, "X"), EntitySpan(1, 1, "X")],
            "t",
        )
        assert ex.target_text == "*{ w0 }* *{ w1 }* w2"

    def test_overlapping_spans_rejected(self):
        with pytest.raises(CodecError, match="overlapping"):
            encode_ner(["a", "b", "c"], [EntitySpan(0, 1, "X"), EntitySpan(1, 2, "X")], "t")

    def test_marker_collision_rejected(self):
        with pytest.raises(CodecError, match="marker collision"):
            encode_ner(["a", "*{", "b"], [], "t")

    def test_prefix_law(self):
        ex = encode_ner(["a"], [], "sometask")
        assert ex.input_text.startswith("sometask: ")


class TestNerDecode:
    def test_round_trip(self):
        words = ["Lupus", "is", "a", "disease"]
        spans = [EntitySpan(0, 0, "Disease")]
        ex = encode_ner(words, spans, "t")
        out = decode_ner(ex.target_text, words, entity_type="Disease")
        assert out.spans == spans
        assert out.dropped_markers == 0

    def test_unclosed_marker_dropped(self):
        out = decode_ner("*{ Lupus", ["Lupus", "is"])
        assert out.spans == []
        assert out.dropped_markers == 1

    def test_mismatched_entity_text_dropped(self):
        out = decode_ner("*{ Lupu }* is a disease", ["Lupus", "is", "a", "disease"])
        assert out.spans == []
        assert out.dropped_markers == 1

    def test_hallucinated_tokens_skipped(self):
        out = decode_ner("*{ Lupus definitely }* is a disease", ["Lupus", "is", "a", "disease"])
        assert out.spans == [EntitySpan(0, 0, "ENT")]

    @pytest.mark.parametrize("word", ["Lupus\x85erythematosus", "Lupus\x0cerythematosus"], ids=["nel", "form-feed"])
    def test_a_word_holding_unicode_whitespace_round_trips(self, word):
        # encode_ner joins words with spaces, so decode_ner splits at those
        # alone; a word holding other whitespace is still one word
        words = [word, "is", "a", "disease"]
        ex = encode_ner(words, [EntitySpan(0, 0, "Disease")], "t")
        out = decode_ner(ex.target_text, words, entity_type="Disease")
        assert (out.spans, out.dropped_markers) == ([EntitySpan(0, 0, "Disease")], 0)

    def test_tabs_separate_generated_words(self):
        out = decode_ner("*{\tLupus }*\tis", ["Lupus", "is"])
        assert (out.spans, out.dropped_markers) == ([EntitySpan(0, 0, "ENT")], 0)

    def test_stray_close_marker_counted(self):
        out = decode_ner("}* hello", ["hello"])
        assert out.spans == []
        assert out.dropped_markers == 1

    @given(st.integers(min_value=0, max_value=2**32))
    def test_random_round_trip(self, seed):
        rng = SplitMix64(seed)
        n = 1 + rng.next_below(12)
        words = random_sentence(rng, n, [f"w{i}" for i in range(20)])
        spans = random_spans(rng, n, 4, "T")
        ex = encode_ner(words, spans, "task")
        out = decode_ner(ex.target_text, words, entity_type="T")
        assert out.spans == spans

    @given(st.text(alphabet="ab*{} ", max_size=60))
    def test_total_on_marker_soup(self, soup):
        out = decode_ner(soup, ["ab", "a", "b"])
        for s in out.spans:
            assert 0 <= s.start_word <= s.end_word < 3


class TestRe:
    def test_chemprot_style(self):
        ex = encode_re("@CHEMICAL$ inhibits @GENE$ in cells", "CPR:4", "chemprot", CHEMPROT_LABELS)
        assert ex.target_text == "CPR:4"
        assert ex.input_text.startswith("chemprot: @CHEMICAL$")

    def test_negative_class(self):
        ex = encode_re("nothing here", "false", "chemprot", CHEMPROT_LABELS)
        assert ex.target_text == "false"

    def test_unknown_label(self):
        with pytest.raises(CodecError, match="unknown label"):
            encode_re("s", "CPR:99", "chemprot", CHEMPROT_LABELS)


class TestNli:
    def test_layout(self):
        ex = encode_nli("it rains", "it rains", "entailment")
        assert ex.input_text == "mednli: premise: it rains hypothesis: it rains"
        assert ex.target_text == "entailment"

    def test_bad_label(self):
        with pytest.raises(CodecError, match="unknown label"):
            encode_nli("p", "h", "maybe")

    def test_round_trip_through_decode_label(self):
        ex = encode_nli("p", "h", "contradiction")
        assert decode_label(ex.target_text, list(("entailment", "contradiction", "neutral"))) == (
            "contradiction"
        )


class TestDoc:
    def test_empty_set(self):
        assert encode_doc("text", set(), "hoc").target_text == "none"

    def test_sorted_join(self):
        assert encode_doc("text", {"b", "a"}, "hoc").target_text == "a, b"

    def test_ten_label_fixture(self):
        labels = {f"hallmark{i}" for i in (9, 3, 7, 1, 5, 0, 8, 2, 6, 4)}
        expected = ", ".join(f"hallmark{i}" for i in range(10))
        assert encode_doc("doc", labels, "hoc").target_text == expected

    def test_order_independent(self):
        a = encode_doc("x", {"m", "k", "z"}, "hoc").target_text
        b = encode_doc("x", {"z", "m", "k"}, "hoc").target_text
        assert a == b

    def test_parse_inverse(self):
        assert parse_doc_labels("a, b") == {"a", "b"}
        assert parse_doc_labels("none") == set()
        assert parse_doc_labels("") == set()


class TestQa:
    def test_resid_example(self):
        q = QAExample(
            question="What is the RESID database?",
            snippets=("The RESID database is a comprehensive collection of annotations.",),
            gold_answers=("RESID database",),
        )
        ex = encode_qa(q, 0, "bioasq")
        assert ex.input_text == (
            "bioasq: question: What is the RESID database? "
            "context: The RESID database is a comprehensive collection of annotations."
        )
        assert ex.target_text == "RESID database"

    def test_index_out_of_range(self):
        q = QAExample(question="q", snippets=("s",), gold_answers=("a",))
        with pytest.raises(CodecError, match="out of range"):
            encode_qa(q, 1, "bioasq")

    def test_first_gold_answer_is_target(self):
        q = QAExample(question="q", snippets=("s1", "s2"), gold_answers=("first", "second"))
        assert encode_qa(q, 1, "bioasq").target_text == "first"


class TestDecodeLabel:
    def test_exact_after_trim_lowercase(self):
        assert decode_label(" Entailment ", list(("entailment", "neutral"))) == "entailment"

    def test_nearest_by_edit_distance(self):
        assert decode_label("entailmnt", ["entailment", "contradiction", "neutral"]) == "entailment"

    def test_empty_falls_back_to_first(self):
        diags = {}
        assert decode_label("", ["entailment", "neutral"], diagnostics=diags) == "entailment"
        assert diags["empty_generation"] == 1

    def test_tie_breaks_by_label_order(self):
        # "ac" is distance 1 from both "aa" and "ab"; first label wins
        assert decode_label("ac", ["aa", "ab"]) == "aa"
        assert decode_label("ac", ["ab", "aa"]) == "ab"

    @given(st.text(max_size=20))
    def test_total(self, text):
        assert decode_label(text, CHEMPROT_LABELS) in CHEMPROT_LABELS
