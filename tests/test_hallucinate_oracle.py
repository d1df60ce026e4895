"""Differential tests: response parsing, sentence dedup, mock sentences and the
JSON writer against the original code kept in reference_hallucinate.py and
against json.dumps."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_hallucinate
from corpus_forge.corpus import open_atomic, write_json
from corpus_forge.errors import AllSeedsFailed, TransportError
from corpus_forge.gateway import MockBackend
from corpus_forge.hallucinate import (
    GenerationPlan,
    PipelineReport,
    generate_sentences,
    parse_delimited,
)
from corpus_forge.prompts import PromptTemplateSet

# Unicode whitespace that str.split() and \s both take (no-break space, line
# and file separators, next line), Unicode digits that \d takes (Arabic-Indic
# three) and one it does not (superscript two), the prefix marks, both
# delimiters, and an NFC/NFD pair
CHARS = [
    " ", "\u00a0", "\t", "\n", "\r", "\u2028", "\u2029", "\x1c", "\x85", "\u3000",
    "1", "7", "\u0663", "\u00b2", ".", ")", ":", ",", ";",
    "a", "B", "\u00e9", "e\u0301", "\u00df",
]
raw_text = st.lists(st.sampled_from(CHARS), max_size=40).map("".join)

whitespace = st.lists(st.sampled_from([" ", "\t", "\n", "\u00a0", "\u2028", "\x1c"]),
                      max_size=3).map("".join)
digits = st.lists(st.sampled_from(["1", "2", "0", "\u0663", "\u00b2"]), min_size=1,
                  max_size=3).map("".join)
prefix = st.one_of(
    st.just(""),
    st.tuples(whitespace, digits, whitespace, st.sampled_from([".", ")", ":"]),
              whitespace).map("".join),
)
words = st.lists(st.sampled_from(["Der", "Hund", "ist", "gut.", "Caf\u00e9",
                                  "Cafe\u0301", "3", "\u00b2"]), max_size=4)
item = st.tuples(whitespace, prefix, words, whitespace).map(
    lambda t: t[0] + t[1] + " ".join(t[2]) + t[3])


def responses(delimiter):
    """Items joined by the delimiter, or by line breaks, with whitespace and
    empty pieces around them; one item gives a one-item response."""
    return st.tuples(
        st.lists(item, max_size=6),
        st.sampled_from([delimiter, delimiter + " ", " " + delimiter, "\n", "\r\n"]),
        st.booleans(),
    ).map(lambda t: t[1].join(t[0]) + (t[1] if t[2] else ""))


class TestParseDelimited:
    @settings(deadline=None, max_examples=300)
    @given(text=raw_text, delimiter=st.sampled_from([",", ";"]))
    def test_any_text_matches_reference(self, text, delimiter):
        assert (parse_delimited(text, delimiter)
                == reference_hallucinate.parse_delimited(text, delimiter))

    @settings(deadline=None, max_examples=300)
    @given(data=st.data(), delimiter=st.sampled_from([",", ";"]))
    def test_list_responses_match_reference(self, data, delimiter):
        text = data.draw(responses(delimiter))
        assert (parse_delimited(text, delimiter)
                == reference_hallucinate.parse_delimited(text, delimiter))

    @pytest.mark.parametrize("text", [
        "\u0663. Hund;Katze", "\u00b2) Hund;Katze", "1. Hund; 2: Katze",
        "Hund\u2028Katze", "Hund\x1cKatze", "Hund", ";;", "1. ;2. ",
        "12 3. Hund;x", "1. 2. Hund;x",
    ])
    def test_edge_cases_match_reference(self, text):
        expected = reference_hallucinate.parse_delimited(text, ";")
        assert parse_delimited(text, ";") == expected


class ScriptedGateway:
    """Answers request i with outcomes[i]: a response, or an exception."""

    def __init__(self, outcomes):
        self.outcomes = outcomes

    def complete_batch(self, requests):
        return list(enumerate(self.outcomes[:len(requests)]))


SENTENCES = ["Der Hund ist gut.", "Das Caf\u00e9 ist hier.", "Das Cafe\u0301 ist hier.",
             "1. Der Hund ist gut.", " Der  Hund ist gut. ", "Ein Baum"]
sentence_response = st.one_of(
    st.lists(st.sampled_from(SENTENCES), max_size=8).map(";".join),
    st.lists(st.sampled_from(SENTENCES), max_size=3).map("\n".join),
    raw_text,
)


class TestGenerateSentences:
    @settings(deadline=None, max_examples=300)
    @given(outcomes=st.lists(
        st.one_of(sentence_response, st.just(TransportError("down"))),
        min_size=1, max_size=6))
    def test_records_and_counts_match_reference(self, outcomes):
        """NFC/NFD twins and repeats under different seeds: the first seed keeps
        the sentence, in the order the reference keeps it."""
        seeds = [f"seed{i}" for i in range(len(outcomes))]
        answers = [(i, o) for i, o in enumerate(outcomes)
                   if not isinstance(o, Exception)]
        expected, parsed = reference_hallucinate.sentence_records(seeds, answers)
        report = PipelineReport()
        gateway = ScriptedGateway(outcomes)
        if not expected:
            with pytest.raises(AllSeedsFailed):
                generate_sentences(seeds, GenerationPlan(),
                                   PromptTemplateSet.defaults(), gateway, report)
        else:
            assert generate_sentences(seeds, GenerationPlan(),
                                      PromptTemplateSet.defaults(), gateway,
                                      report) == expected
        assert report.sentences_parsed == parsed
        assert report.sentence_failures == len(seeds) - len(answers)

    def test_nfd_twin_under_a_later_seed_is_dropped(self):
        outcomes = ["Das Caf\u00e9 ist hier.;Ein Baum",
                    "Das Cafe\u0301 ist hier.;Ein Baum"]
        records = generate_sentences(["a", "b"], GenerationPlan(),
                                     PromptTemplateSet.defaults(),
                                     ScriptedGateway(outcomes))
        assert records == [{"seed": "a", "sentence": "Das Caf\u00e9 ist hier."},
                           {"seed": "a", "sentence": "Ein Baum"}]


@settings(deadline=None, max_examples=200)
@given(seed=st.text(max_size=8), n=st.integers(1, 40))
def test_mock_sentences_match_reference(seed, n):
    assert (MockBackend()._sentences(seed, n)
            == reference_hallucinate.mock_sentences(seed, n))


json_scalar = st.one_of(st.none(), st.booleans(), st.integers(),
                        st.floats(allow_nan=True), st.text(max_size=6))
json_value = st.recursive(
    json_scalar,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8,
)
flat_record = st.one_of(
    st.text(),
    st.dictionaries(st.text(max_size=6), st.text(), min_size=1, max_size=4),
)
payload = st.one_of(
    st.lists(flat_record, max_size=6),
    st.lists(st.text(), max_size=6),
    st.lists(st.dictionaries(st.text(max_size=4), st.text(), max_size=2), max_size=4),
    st.lists(st.one_of(flat_record, json_value), max_size=5),
    json_value,
)


@settings(deadline=None, max_examples=400)
@given(value=payload)
def test_write_json_bytes_match_json_dumps(value):
    """Flat records (the fast path), [], records holding {}, nested payloads
    and non-string values (json.dumps) all give json.dumps's bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        with open_atomic(path) as fh:
            write_json(fh, value)
        expected = json.dumps(value, ensure_ascii=False, indent=2) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")
