"""Differential tests: response parsing, sentence dedup, mock sentences and the
JSON writer against the original code kept in reference_hallucinate.py and
against json.dumps."""

import json
import sys
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import reference_hallucinate
from conftest import deeper
from corpus_forge import prompts
from corpus_forge.corpus import SplitSpec, open_atomic, write_json
from corpus_forge.errors import (
    AllSeedsFailed,
    AllTranslationsFailed,
    InsufficientData,
    TransportError,
)
from corpus_forge.gateway import Gateway, MockBackend
from corpus_forge.hallucinate import (
    GenerationPlan,
    PipelineReport,
    generate_sentences,
    parse_delimited,
    run_pipeline,
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
# text without whitespace but the space, which parse_delimited need not
# normalize unless it holds a double space
printable_text = st.lists(st.sampled_from([c for c in CHARS if c.isprintable()]),
                          max_size=40).map("".join)

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


# whitespace that pads a piece on either side of the delimiter: runs of it,
# and Unicode whitespace that str.split() takes, some of it line breaks too
pad = st.lists(st.sampled_from([" ", "\u00a0", "\x1c", "\x85", "\t", "\n", "\u3000"]),
               max_size=3).map("".join)


def repetitive_responses(pool, delimiter):
    """The shape of the mock's answers: 100 to 130 pieces, a short cycle of
    padded items of pool taken in turn, joined by the delimiter or by line
    breaks, with or without a trailing one."""
    piece = st.tuples(pad, st.sampled_from(pool), pad).map("".join)
    return st.tuples(
        st.lists(piece, min_size=1, max_size=6),
        st.integers(100, 130),
        st.sampled_from([delimiter, "\n"]),
        st.booleans(),
    ).map(lambda t: t[2].join(t[0][i % len(t[0])] for i in range(t[1]))
          + (t[2] if t[3] else ""))


# a few items, some under numbered prefixes, that the pieces of a
# repetitive response are drawn from
item_pool = st.lists(item, min_size=1, max_size=4)


class TestParseDelimited:
    @deeper(300)
    @given(text=raw_text, delimiter=st.sampled_from([",", ";"]))
    def test_any_text_matches_reference(self, text, delimiter):
        assert (parse_delimited(text, delimiter)
                == reference_hallucinate.parse_delimited(text, delimiter))

    @deeper(300)
    @given(text=printable_text, delimiter=st.sampled_from([",", ";"]))
    def test_printable_text_matches_reference(self, text, delimiter):
        assert (parse_delimited(text, delimiter)
                == reference_hallucinate.parse_delimited(text, delimiter))

    def test_no_whitespace_but_the_space_is_printable(self):
        """What lets parse_delimited keep a printable text as it is."""
        assert [chr(c) for c in range(sys.maxunicode + 1)
                if chr(c).isspace() and chr(c).isprintable()] == [" "]

    @deeper(300)
    @given(data=st.data(), delimiter=st.sampled_from([",", ";"]))
    def test_list_responses_match_reference(self, data, delimiter):
        text = data.draw(responses(delimiter))
        assert (parse_delimited(text, delimiter)
                == reference_hallucinate.parse_delimited(text, delimiter))

    @deeper(200)
    @given(data=st.data(), delimiter=st.sampled_from([",", ";"]))
    def test_repetitive_responses_match_reference(self, data, delimiter):
        """Hundreds of pieces, few of them distinct: repeats under numbered
        prefixes and padded differently clean to the same item."""
        text = data.draw(repetitive_responses(data.draw(item_pool), delimiter))
        assert (parse_delimited(text, delimiter)
                == reference_hallucinate.parse_delimited(text, delimiter))

    @pytest.mark.parametrize("text", [
        MockBackend()._sentences("Hund", 100),
        "1. Der Hund ist gut.;2) Der Hund ist gut.;" * 60,
        "\u00a0 Der\x85Hund \x1c; \u00a0Katze\x1c ;" * 60,
        "1.\x1cHund\x85\n 2:\u00a0Katze\n" * 60,
        " 1. Der Hund ist gut. ; 2) Katze ; " * 60,
        "\u00a0\n" + "Der Hund ist gut.; Katze ;" * 60 + "\n\x85",
    ], ids=["mock", "numbered repeats", "padded repeats", "numbered lines",
            "spaced repeats", "line breaks at the ends"])
    def test_mock_shaped_responses_match_reference(self, text):
        expected = reference_hallucinate.parse_delimited(text, ";")
        assert parse_delimited(text, ";") == expected

    @pytest.mark.parametrize("text", [
        "\u0663. Hund;Katze", "\u00b2) Hund;Katze", "1. Hund; 2: Katze",
        "Hund\u2028Katze", "Hund\x1cKatze", "Hund", ";;", "1. ;2. ",
        "12 3. Hund;x", "1. 2. Hund;x",
    ])
    def test_edge_cases_match_reference(self, text):
        expected = reference_hallucinate.parse_delimited(text, ";")
        assert parse_delimited(text, ";") == expected


class ScriptedGateway:
    """Answers request i with outcomes[i]: a response, which it puts through
    parse as Gateway does, or an exception."""

    def __init__(self, outcomes):
        self.outcomes = outcomes

    def complete_batch(self, requests, parse):
        return [(i, o if isinstance(o, Exception) else parse(o))
                for i, o in enumerate(self.outcomes[:len(requests)])]


SENTENCES = ["Der Hund ist gut.", "Das Caf\u00e9 ist hier.", "Das Cafe\u0301 ist hier.",
             "1. Der Hund ist gut.", " Der  Hund ist gut. ", "Ein Baum"]
sentence_response = st.one_of(
    st.lists(st.sampled_from(SENTENCES), max_size=8).map(";".join),
    st.lists(st.sampled_from(SENTENCES), max_size=3).map("\n".join),
    raw_text,
)


class TestGenerateSentences:
    @deeper(300)
    @given(outcomes=st.lists(
        st.one_of(sentence_response, st.just(TransportError("down"))),
        min_size=1, max_size=6))
    def test_records_and_counts_match_reference(self, outcomes):
        """NFC/NFD twins and repeats under different seeds: the first seed keeps
        the sentence, in the order the reference keeps it."""
        self.check_against_reference(outcomes)

    @deeper(100)
    @given(data=st.data())
    def test_repetitive_responses_match_reference(self, data):
        """Mock-shaped answers drawn from one pool of items: every seed repeats
        its own sentences and those of the seeds before it."""
        pool = data.draw(item_pool)
        self.check_against_reference(data.draw(st.lists(
            st.one_of(repetitive_responses(pool, ";"), st.just(TransportError("down"))),
            min_size=1, max_size=4)))

    @staticmethod
    def check_against_reference(outcomes):
        """generate_sentences on one answer per seed gives the reference's
        records, or AllSeedsFailed where it has none, and its counts."""
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

    def test_nfd_twin_under_a_later_seed_is_dropped(self):
        outcomes = ["Das Caf\u00e9 ist hier.;Ein Baum",
                    "Das Cafe\u0301 ist hier.;Ein Baum"]
        records = generate_sentences(["a", "b"], GenerationPlan(),
                                     PromptTemplateSet.defaults(),
                                     ScriptedGateway(outcomes))
        assert records == [{"seed": "a", "sentence": "Das Caf\u00e9 ist hier."},
                           {"seed": "a", "sentence": "Ein Baum"}]


class FailingMock:
    """The mock backend, failing each sentence or translation request whose
    user text's CRC-32 leaves a remainder mod 4 in that stage's failing
    set. A request fails alike in every run."""

    def __init__(self, templates, mock_seed, failing):
        self.backend = MockBackend(templates, mock_seed=mock_seed)
        self.templates = templates
        self.failing = failing  # stage -> the remainders whose requests fail

    def complete(self, request):
        stage, _ = prompts.classify_system_text(
            self.templates, request.first_content("system"))
        user = request.first_content("user")
        if (user is not None
                and zlib.crc32(user.encode("utf-8")) % 4 in self.failing[stage]):
            raise TransportError(f"simulated {stage} failure")
        return self.backend.complete(request)


@deeper(100)
@given(nouns=st.integers(1, 6), verbs=st.integers(1, 6), per_seed=st.integers(1, 6),
       mock_seed=st.integers(0, 3),
       sentence_failing=st.frozensets(st.integers(0, 3), max_size=2),
       translation_failing=st.frozensets(st.integers(0, 3), max_size=2),
       deleted=st.sampled_from([["translations.json"],
                                ["sentences.json", "translations.json"]]))
def test_funnel_adds_up_and_survives_a_resume(nouns, verbs, per_seed, mock_seed,
                                              sentence_failing, translation_failing,
                                              deleted):
    """report.json's counts add up and none is negative, and a run resumed
    after deleting the later checkpoints writes the same report.
    sentences_parsed is the one exception: resumed from sentences.json, it
    counts the sentences after dedup (ROADMAP item 5)."""
    templates = PromptTemplateSet.defaults()
    plan = GenerationPlan(n_nouns=nouns, n_verbs=verbs, sentences_per_seed=per_seed)
    backend = FailingMock(templates, mock_seed, {
        prompts.STAGE_SENTENCES: sentence_failing,
        prompts.STAGE_TRANSLATION: translation_failing})
    spec = SplitSpec(train_token_threshold=10, valid_token_threshold=5)

    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp)
        checkpoints = run_dir / "checkpoints"
        load = lambda path: json.loads(path.read_text(encoding="utf-8"))

        def run():
            try:
                run_pipeline(plan, templates, Gateway(backend, max_in_flight=2),
                             spec, run_dir, mock_seed=mock_seed)
            except InsufficientData:
                pass  # the report is written all the same
            return load(run_dir / "reports" / "report.json")

        try:
            report = run()
        except (AllSeedsFailed, AllTranslationsFailed):
            assert not (run_dir / "reports").exists()
            return
        sentences = load(checkpoints / "sentences.json")
        assert report["seeds_parsed"] == (report["sentence_failures"]
                                          + len({r["seed"] for r in sentences}))
        assert report["sentences_deduplicated"] == (report["sentences_translated"]
                                                    + report["translation_failures"])
        assert all(count >= 0 for count in report.values()
                   if isinstance(count, int))

        for name in deleted:
            (checkpoints / name).unlink()
        resumed = run()
        if "sentences.json" not in deleted:  # the rerun resumes from it
            assert resumed.pop("sentences_parsed") == len(sentences)
            del report["sentences_parsed"]
        assert resumed == report


@deeper(200)
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


class Label(str):
    """A str subclass, which json.dumps writes as the string it holds."""


string = st.one_of(st.text(), st.text().map(Label))
string_key = st.one_of(st.text(max_size=6), st.text(max_size=6).map(Label))
flat_record = st.one_of(
    string,
    st.dictionaries(string_key, string, min_size=1, max_size=4),
)
# objects that hold strings but are not flat: non-string keys, or a bool,
# None or a number among string values
not_quite_flat = st.one_of(
    st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans(), st.none()),
                    string, min_size=1, max_size=3),
    st.tuples(st.dictionaries(string_key, string, max_size=2), string_key,
              st.one_of(st.booleans(), st.none(), st.integers(), st.floats()),
              st.dictionaries(string_key, string, max_size=2)).map(
        lambda t: {**t[0], t[1]: t[2], **{k: v for k, v in t[3].items() if k != t[1]}}),
)


def is_flat(record):
    """A string, or a non-empty object whose keys and values are strings."""
    return isinstance(record, str) or (isinstance(record, dict) and bool(record) and all(
        isinstance(x, str) for item in record.items() for x in item))


# what write_json accepts: a list of flat records, or any payload but a
# non-empty list
payload = st.one_of(
    st.lists(flat_record, max_size=6),
    st.lists(st.text(), max_size=6),
    json_value.filter(lambda v: not isinstance(v, list) or not v),
)


@deeper(400)
@given(value=payload)
def test_write_json_bytes_match_json_dumps(value):
    """Flat records (the fast path), str subclasses, [], and objects and
    scalars (json.dumps) all give json.dumps's bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        with open_atomic(path) as fh:
            write_json(fh, value)
        expected = json.dumps(value, ensure_ascii=False, indent=2) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")


@deeper(200)
@given(before=st.lists(flat_record, max_size=4),
       record=st.one_of(not_quite_flat, json_value).filter(lambda r: not is_flat(r)),
       after=st.lists(flat_record, max_size=2))
def test_write_json_refuses_a_list_that_is_not_flat(before, record, after):
    """A record that is not flat, first, last or among flat ones, is a
    TypeError, and the file open_atomic was writing is not left."""
    with tempfile.TemporaryDirectory() as tmp:
        with pytest.raises(TypeError), open_atomic(Path(tmp) / "out.json") as fh:
            write_json(fh, [*before, record, *after])
        assert list(Path(tmp).iterdir()) == []
