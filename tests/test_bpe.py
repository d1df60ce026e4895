import string
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import reference_bpe
from conftest import make_corpus
from corpus_forge import bpe
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
        bpe.save_model(model, path)
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


ALPHABETS = ("ab", "aab", "lowenstid")


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
