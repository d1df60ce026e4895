import hashlib
import random
import re
import string
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_bpe
from conftest import make_corpus, syllable_corpus
from corpus_forge import bpe
from corpus_forge.corpus import open_atomic, tokenize
from corpus_forge.errors import CorpusFormatError, EmptyCorpus


def classic_corpus():
    # word frequencies: low x5, lower x2, newest x6, widest x3
    lines = ["low"] * 5 + ["lower"] * 2 + ["newest"] * 6 + ["widest"] * 3
    return make_corpus([(line, line) for line in lines])


class TestTrain:
    def test_first_merge_is_e_s(self):
        # hand-counted: ('e','s') and ('s','t</w>') both occur 9 times;
        # lexicographic tie-break picks ('e','s')
        model = bpe.train_bpe([classic_corpus()], 100)
        assert model.merges[0] == ("e", "s")

    def test_single_word_terminates(self):
        corpus = make_corpus([("aaaa", "aaaa")])
        model = bpe.train_bpe([corpus], 100)
        assert model.merges[0] == ("a", "a")
        assert len(model.vocab) <= 100

    def test_determinism(self):
        a = bpe.train_bpe([classic_corpus()], 50)
        b = bpe.train_bpe([classic_corpus()], 50)
        assert a.merges == b.merges
        assert a.vocab == b.vocab

    def test_vocab_cap(self):
        model = bpe.train_bpe([classic_corpus()], 12)
        assert len(model.vocab) <= 12

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            bpe.train_bpe([], 10)

    @pytest.mark.parametrize("train", [bpe.train_bpe, reference_bpe.train_bpe],
                             ids=["package", "oracle"])
    def test_whitespace_lines_rejected(self, train):
        # a SentencePair refuses such lines, so a stand-in serves them
        corpus = SimpleNamespace(source_lines=lambda: [" ", "\t\u3000"],
                                 target_lines=lambda: ["\u2003 "])
        with pytest.raises(EmptyCorpus, match="no tokens in training corpora"):
            train([corpus], 10)

    def test_joint_training_sees_both_sides(self):
        corpus = make_corpus([("aaa aaa", "zzz zzz")])
        model = bpe.train_bpe([corpus], 100)
        merged = {left + right for left, right in model.merges}
        assert any("a" in s for s in merged)
        assert any("z" in s for s in merged)


class TestEncodeDecode:
    def test_zero_merges_character_fallback(self):
        model = bpe.BpeModel(merges=[], vocab=Counter(), target_vocab_size=10)
        assert bpe.encode(model, "ab") == ["a@@", "b"]

    def test_fully_merged_word(self):
        model = bpe.train_bpe([make_corpus([("low low", "low low")])], 100)
        assert bpe.encode(model, "low") == ["low"]

    def test_unknown_characters_pass_through(self):
        model = bpe.train_bpe([classic_corpus()], 100)
        tokens = bpe.encode(model, "xyz")
        assert bpe.decode(tokens) == "xyz"

    def test_decode_marker_collapse(self):
        assert bpe.decode(["lo@@", "w", "new@@", "est"]) == "low newest"

    def test_decode_empty(self):
        assert bpe.decode([]) == ""

    @given(
        st.lists(
            st.text(alphabet="lowenstid", min_size=1, max_size=10),
            min_size=1,
            max_size=8,
        )
    )
    def test_round_trip_over_training_alphabet(self, words):
        model = bpe.train_bpe([classic_corpus()], 30)
        line = " ".join(words)
        assert bpe.decode(bpe.encode(model, line)) == line

    def test_round_trip_random_ascii(self):
        import random

        model = bpe.train_bpe([classic_corpus()], 30)
        rng = random.Random(0)
        alphabet = string.ascii_lowercase
        for _ in range(200):
            words = [
                "".join(rng.choices(alphabet, k=rng.randint(1, 12)))
                for _ in range(rng.randint(1, 10))
            ]
            line = " ".join(words)
            assert bpe.decode(bpe.encode(model, line)) == line


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = bpe.train_bpe([classic_corpus()], 30)
        path = tmp_path / "model.bpe"
        with open_atomic(path) as fh:
            bpe.save_model(model, fh)
        loaded = bpe.load_model(path)
        assert loaded.merges == model.merges
        assert loaded.target_vocab_size == model.target_vocab_size
        assert bpe.encode(loaded, "newest") == bpe.encode(model, "newest")

    def test_unknown_header_rejected(self, tmp_path):
        path = tmp_path / "bad.bpe"
        path.write_text("nonsense 42\ne s\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError):
            bpe.load_model(path)

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_vocab_size_below_one_rejected(self, tmp_path, size):
        path = tmp_path / "bad.bpe"
        path.write_text(f"bpe-v1 {size}\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as caught:
            bpe.load_model(path)
        assert str(path) in str(caught.value)

    @pytest.mark.parametrize("merge", ["a b c", "a  b", " b", "c "],
                             ids=["three-symbols", "two-spaces", "empty-left",
                                  "empty-right"])
    def test_bad_merge_line_rejected(self, tmp_path, merge):
        path = tmp_path / "bad.bpe"
        path.write_text(f"bpe-v1 10\ne s\n{merge}\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError,
                           match="^" + re.escape(f"{path}:3: bad merge line")):
            bpe.load_model(path)


# the last holds the characters of the end-of-word boundary "</w>"
ALPHABETS = ("ab", "aab", "lowenstid", "ab</w>")


@st.composite
def lines_over_alphabet(draw, max_lines=12):
    alphabet = draw(st.sampled_from(ALPHABETS))
    word = st.text(alphabet=alphabet, min_size=1, max_size=8)
    line = st.lists(word, min_size=1, max_size=6).map(" ".join)
    return draw(st.lists(line, min_size=1, max_size=max_lines))


@st.composite
def training_corpus(draw):
    sources = draw(lines_over_alphabet())
    targets = draw(lines_over_alphabet())
    return make_corpus(list(zip(sources, targets)))


class TestAgainstSeedOracle:
    """The incremental trainer and indexed encoder against reference_bpe."""

    @settings(deadline=None)
    @given(training_corpus(), st.integers(min_value=1, max_value=60))
    def test_same_merges_and_vocab(self, corpus, target):
        model = bpe.train_bpe([corpus], target)
        expected = reference_bpe.train_bpe([corpus], target)
        assert model.merges == expected.merges
        assert sorted(model.vocab.items()) == sorted(expected.vocab.items())

    @settings(deadline=None)
    @given(training_corpus(), st.integers(min_value=1, max_value=60),
           lines_over_alphabet(max_lines=4))
    def test_same_encoding_of_trained_model(self, corpus, target, lines):
        model = bpe.train_bpe([corpus], target)
        for line in lines + lines:  # the second pass reads the word cache
            assert bpe.encode(model, line) == reference_bpe.encode(model, line)

    @settings(deadline=None)
    @given(training_corpus(), st.data(), lines_over_alphabet(max_lines=4))
    def test_same_encoding_with_shuffled_and_repeated_merges(self, corpus, data,
                                                             lines):
        trained = bpe.train_bpe([corpus], 60).merges
        repeats = data.draw(st.lists(st.sampled_from(trained))) if trained else []
        merges = data.draw(st.permutations(trained + repeats))
        model = bpe.BpeModel(merges=merges, vocab=Counter(), target_vocab_size=60)
        for line in lines:
            assert bpe.encode(model, line) == reference_bpe.encode(model, line)

    def test_recurring_pair_applies_in_list_order(self):
        # ("a", "bc") recurs once ("b", "c") rebuilds "bc". Lowest rank first
        # would join "a"+"bc" at rank 0 in "xabcd" instead of "x"+"a" at rank 2
        merges = [("a", "bc"), ("b", "c"), ("x", "a"), ("a", "bc")]
        model = bpe.BpeModel(merges=merges, vocab=Counter(), target_vocab_size=9)
        for word, expected in (("xabcd", ["xa@@", "bc@@", "d"]),
                               ("abcd", ["abc@@", "d"])):
            assert reference_bpe.encode(model, word) == expected
            assert bpe.encode(model, word) == expected


def word_corpus(words_with_freqs):
    """A corpus holding each word, on both sides, the given number of times."""
    line = " ".join(word for word, freq in words_with_freqs for _ in range(freq))
    return make_corpus([(line, line)])


@st.composite
def equal_frequency_corpus(draw):
    alphabet = draw(st.sampled_from(ALPHABETS))
    words = draw(st.lists(st.text(alphabet=alphabet, min_size=1, max_size=8),
                          min_size=1, max_size=12, unique=True))
    freq = draw(st.integers(min_value=1, max_value=3))
    return word_corpus([(word, freq) for word in words])


@st.composite
def corpus_of_pieces(draw, pieces):
    word = st.lists(st.sampled_from(pieces), min_size=1, max_size=2).map("".join)
    return word_corpus(draw(st.lists(
        st.tuples(word, st.integers(min_value=1, max_value=3)),
        min_size=1, max_size=6)))


# A literal "</w>" in a word ends a symbol as the end-of-word boundary does.
# So a later merge can rebuild a symbol an earlier merge consumed, and the
# merged pair recurs: RECURS merges ("a", "b</w>") twice. And one joined
# string can come from two pairs: TWO_ROUTES joins "w></w>" from ("w", "></w>")
# and from ("w>", "</w>").
RECURS = [("ab</w>a", 2), ("b</w>ab", 1), ("ab", 2)]
TWO_ROUTES = [("aw>w>", 1), ("</w>", 1), ("w></w>a", 1), ("w></w>b", 1)]


class TestHeapOrderAgainstSeedOracle:
    """The heap's pick under ties, and its lazy re-checks, against the
    reference trainer's full recount."""

    def assert_same_as_oracle(self, corpus, target):
        model = bpe.train_bpe([corpus], target)
        expected = reference_bpe.train_bpe([corpus], target)
        assert model.merges == expected.merges
        assert sorted(model.vocab.items()) == sorted(expected.vocab.items())

    @settings(deadline=None)
    @given(equal_frequency_corpus(), st.integers(min_value=1, max_value=60))
    def test_every_word_type_equally_frequent(self, corpus, target):
        self.assert_same_as_oracle(corpus, target)

    @settings(deadline=None)
    @given(corpus_of_pieces([word for word, _ in RECURS]),
           st.integers(min_value=1, max_value=60))
    @example(word_corpus(RECURS), 60)
    def test_merged_pair_recurs(self, corpus, target):
        self.assert_same_as_oracle(corpus, target)

    @settings(deadline=None)
    @given(corpus_of_pieces([word for word, _ in TWO_ROUTES]),
           st.integers(min_value=1, max_value=60))
    @example(word_corpus(TWO_ROUTES), 60)
    def test_joined_string_from_two_pairs(self, corpus, target):
        self.assert_same_as_oracle(corpus, target)

    def test_examples_hold_what_they_claim(self):
        merges = reference_bpe.train_bpe([word_corpus(RECURS)], 60).merges
        assert merges.count(("a", "b</w>")) == 2
        merges = reference_bpe.train_bpe([word_corpus(TWO_ROUTES)], 60).merges
        assert {("w", "></w>"), ("w>", "</w>")} <= set(merges)


def test_literal_boundary_round_trips_under_every_prefix():
    """A "</w>" inside a word is the word's own text: only the final symbol
    carries the end-of-word boundary, however many merges have applied."""
    merges = bpe.train_bpe([word_corpus(RECURS)], 60).merges
    assert len(merges) == 8
    for k in range(len(merges) + 1):
        model = bpe.BpeModel(merges=merges[:k], vocab=Counter(), target_vocab_size=60)
        for word, _ in RECURS:
            assert bpe.decode(bpe.encode(model, word)) == word, merges[:k]


def test_literal_boundary_encodes_as_the_oracle_does_under_every_prefix():
    merges = bpe.train_bpe([word_corpus(RECURS)], 60).merges
    for k in range(len(merges) + 1):
        model = bpe.BpeModel(merges=merges[:k], vocab=Counter(), target_vocab_size=60)
        for word, _ in RECURS:
            assert bpe.encode(model, word) == reference_bpe.encode(model, word), k


# a word over these characters often holds the marker "@@"
MARKED_WORD = st.text(alphabet="a@@b</w>", min_size=1, max_size=8)


@settings(deadline=None)
@given(st.lists(st.lists(MARKED_WORD, min_size=1, max_size=6).map(" ".join),
                min_size=1, max_size=8),
       st.integers(min_value=1, max_value=60),
       st.lists(st.text(alphabet="a@@b</w> ", max_size=24), min_size=1, max_size=6))
def test_a_line_round_trips_or_holds_the_marker(sources, target, lines):
    """decode(encode(x)) is x's tokens joined by spaces, unless a word of x
    holds "@@", which decode could not restore and encode refuses."""
    model = bpe.train_bpe([make_corpus([(line, line) for line in sources])], target)
    for line in lines + lines:  # the second pass reads the word cache
        words = tokenize(line)
        if any(bpe.MARKER in word for word in words):
            with pytest.raises(CorpusFormatError, match="holds the marker @@"):
                bpe.encode(model, line)
        else:
            assert bpe.decode(bpe.encode(model, line)) == " ".join(words)


def test_model_at_a_size_the_properties_never_reach(tmp_path):
    """Pins the model trained on 2,000 lines to a vocabulary of 600, hundreds
    of merges past what the hypothesis corpora reach."""
    model = bpe.train_bpe([syllable_corpus()], 600)
    path = tmp_path / "model.bpe"
    with open_atomic(path) as fh:
        bpe.save_model(model, fh)
    assert len(model.vocab) == 600
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "abed02094cb73765a11c5b6415c9ddb2d858dde0d4c04951569d7fd64afd42b8")
