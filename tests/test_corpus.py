import json
import re
import unicodedata

import pytest
from hypothesis import given, strategies as st

from conftest import make_corpus
from corpus_forge.corpus import (
    ParallelCorpus,
    SentencePair,
    SplitSpec,
    dedup,
    make_splits,
    normalize,
    open_atomic,
    read_jsonl,
    tokenize,
    write_jsonl,
    write_plain_pair,
)
from corpus_forge.errors import (
    ConfigError,
    CorpusFormatError,
    EmptyCorpus,
    InsufficientData,
)


def count_tokens(text):
    return len(tokenize(text))


class TestCountTokens:
    def test_four_tokens(self):
        assert count_tokens("Der Hund bellt .") == 4

    def test_empty(self):
        assert count_tokens("") == 0
        assert count_tokens("   \t ") == 0

    def test_whitespace_runs_collapse(self):
        assert tokenize("  a\t b  ") == ["a", "b"]

    def test_nfd_spelling_is_the_nfc_token(self):
        assert tokenize(unicodedata.normalize("NFD", "Café au lait")) == [
            "Café", "au", "lait"
        ]

    @given(st.text(min_size=1), st.text(min_size=1))
    def test_concatenation_additive(self, a, b):
        if count_tokens(a) == 0 or count_tokens(b) == 0:
            return
        assert count_tokens(a + " " + b) == count_tokens(a) + count_tokens(b)

    @given(st.lists(st.one_of(
        st.text(),
        st.sampled_from([unicodedata.normalize("NFD", w)
                         for w in ("Café", "Ängste", "ḉ", "Å")]),
        st.characters(categories=["Mn", "Mc", "Me"]),  # combining marks
        st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u2028\u3000"),
    )).map("".join))
    def test_tokens_survive_a_join(self, text):
        # so BLEU may score a decoder's tokens as they are, unjoined
        assert tokenize(" ".join(tokenize(text))) == tokenize(text)


def seed_word_key(text):
    return normalize(text).casefold()


class TestDedup:
    def test_seed_word_case_insensitive(self):
        assert dedup(["Eule", "eule", "Katze"], seed_word_key) == ["Eule", "Katze"]

    def test_sentence_case_sensitive(self):
        assert dedup(["Eule", "eule"], normalize) == ["Eule", "eule"]

    def test_exact_repeat(self):
        assert dedup(["a", "a", "a"], normalize) == ["a"]

    def test_key_picks_the_compared_part(self):
        tagged = [("s1", "Satz."), ("s2", " Satz. "), ("s2", "Neu.")]
        kept = dedup(tagged, key=lambda pair: normalize(pair[1]))
        assert kept == [("s1", "Satz."), ("s2", "Neu.")]

    @given(st.lists(st.text(min_size=1, max_size=8)))
    def test_idempotent(self, items):
        once = dedup(items, normalize)
        assert dedup(once, normalize) == once
        assert len(once) <= len(items)


def four_token_corpus(n):
    return make_corpus([(f"w{i} x{i} y{i} z{i}", f"a{i} b{i} c{i} d{i}")
                        for i in range(n)])


def split_to_threshold(corpus, train_tokens, rng_seed):
    """make_splits with a train threshold and the smallest valid one."""
    spec = SplitSpec(train_token_threshold=train_tokens, valid_token_threshold=1,
                     rng_seed=rng_seed)
    return make_splits(corpus, spec)


class TestSampleToThreshold:
    """Threshold sampling: the properties of each prefix make_splits takes."""

    def test_overshoot_kept(self):
        corpus = four_token_corpus(4)
        splits = split_to_threshold(corpus, 10, rng_seed=1)
        assert len(splits["train"]) == 3
        assert splits["train"].source_token_count() == 12
        assert len(splits["valid"]) == 1

    def test_tiny_threshold_takes_one(self):
        splits = split_to_threshold(four_token_corpus(5), 1, rng_seed=0)
        assert len(splits["train"]) == 1
        assert len(splits["valid"]) == 1

    def test_deterministic(self):
        corpus = four_token_corpus(20)
        a = split_to_threshold(corpus, 30, rng_seed=7)["train"]
        b = split_to_threshold(corpus, 30, rng_seed=7)["train"]
        assert [p.id for p in a.pairs] == [p.id for p in b.pairs]

    def test_insufficient(self):
        with pytest.raises(InsufficientData):
            split_to_threshold(four_token_corpus(2), 100, rng_seed=0)
        with pytest.raises(InsufficientData,  # train fits, nothing left for valid
                           match="^0 source tokens left for valid, threshold 1 "):
            split_to_threshold(four_token_corpus(2), 8, rng_seed=0)

    @given(st.integers(1, 96), st.integers(0, 2**32 - 1))
    def test_partition_and_bound(self, threshold, rng_seed):
        corpus = make_corpus([
            (" ".join(f"w{i}" for _ in range(1 + i % 5)), "t") for i in range(40)
        ])  # 120 source tokens, sentences of 1 to 5 tokens
        splits = split_to_threshold(corpus, threshold, rng_seed)
        longest = max(count_tokens(p.source) for p in corpus.pairs)
        tokens = splits["train"].source_token_count()
        assert threshold <= tokens < threshold + longest
        train_ids = [p.id for p in splits["train"].pairs]
        valid_ids = [p.id for p in splits["valid"].pairs]
        assert len(valid_ids) == 1 and valid_ids[0] not in train_ids
        assert len(set(train_ids)) == len(train_ids)


class TestMakeSplits:
    def test_derived_arithmetic(self):
        # 30 pairs x 4 tokens: train needs ceil(40/4)=10 pairs, valid 5 pairs
        corpus = four_token_corpus(30)
        spec = SplitSpec(train_token_threshold=40, valid_token_threshold=20,
                         rng_seed=11)
        splits = make_splits(corpus, spec)
        assert len(splits["train"]) == 10
        assert len(splits["valid"]) == 5

    def test_three_way_disjoint(self):
        corpus = four_token_corpus(30)  # 120 tokens
        spec = SplitSpec(train_token_threshold=40, valid_token_threshold=20,
                         test_token_threshold=20, rng_seed=2)
        splits = make_splits(corpus, spec)
        ids = [frozenset(p.id for p in s.pairs) for s in splits.values()]
        assert len(splits) == 3
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                assert not ids[i] & ids[j]
        assert sum(len(s) for s in ids) <= len(corpus)

    @pytest.mark.parametrize("thresholds, message", [
        ((4, 12, None), "8 source tokens left for valid, threshold 12 not reachable"),
        ((4, 4, 8), "4 source tokens left for test, threshold 8 not reachable"),
    ])
    def test_short_split_names_what_is_left_for_it(self, thresholds, message):
        # 3 pairs x 4 tokens: each earlier split takes one pair
        train, valid, test = thresholds
        spec = SplitSpec(train_token_threshold=train, valid_token_threshold=valid,
                         test_token_threshold=test)
        with pytest.raises(InsufficientData, match=f"^{message}$"):
            make_splits(four_token_corpus(3), spec)

    def test_test_split_exactly_when_given_a_threshold(self):
        corpus = four_token_corpus(30)
        spec = SplitSpec(train_token_threshold=40, valid_token_threshold=20)
        assert set(make_splits(corpus, spec)) == {"train", "valid"}
        spec.test_token_threshold = 20
        assert set(make_splits(corpus, spec)) == {"train", "valid", "test"}

    def test_deterministic(self):
        corpus = four_token_corpus(30)
        spec = SplitSpec(train_token_threshold=40, valid_token_threshold=20,
                         rng_seed=5)
        a = make_splits(corpus, spec)
        b = make_splits(corpus, spec)
        for name in a:
            assert [p.id for p in a[name].pairs] == [p.id for p in b[name].pairs]


class TestSentencePairInvariants:
    def test_rejects_empty_side(self):
        with pytest.raises(ValueError):
            SentencePair(id="x", source="  ", target="ok")

    def test_rejects_linebreaks(self):
        with pytest.raises(ValueError):
            SentencePair(id="x", source="a\nb", target="ok")

    def test_synthetic_needs_seed(self):
        with pytest.raises(ValueError):
            SentencePair(id="x", source="a", target="b", origin="synthetic")

    def test_natural_forbids_seed(self):
        with pytest.raises(ValueError):
            SentencePair(id="x", source="a", target="b", seed_word="Eule")


class TestOnDiskFormats:
    def test_jsonl_lines_are_json_dumps(self, tmp_path):
        pairs = [
            SentencePair(id="n-1", source="Grüße aus Köln", target='say "hi"'),
            SentencePair(id="s-1", source="a\\b \u2028 c", target="ünd\u2029",
                         origin="synthetic", seed_word="Straße"),
        ]
        path = tmp_path / "c.jsonl"
        with open_atomic(path) as fh:
            write_jsonl(ParallelCorpus(pairs), fh)
        expected = "".join(
            json.dumps({"id": p.id, "src": p.source, "tgt": p.target,
                        "origin": p.origin, "seed_word": p.seed_word},
                       ensure_ascii=False) + "\n"
            for p in pairs)
        assert path.read_bytes() == expected.encode("utf-8")
        assert '"seed_word": null' in expected

    def test_jsonl_round_trip(self, tmp_path):
        corpus = make_corpus([("ein Haus", "a house"), ("zwei Hunde", "two dogs")])
        path = tmp_path / "c.jsonl"
        with open_atomic(path) as fh:
            write_jsonl(corpus, fh)
        loaded = read_jsonl(path)
        assert [(p.source, p.target) for p in loaded.pairs] == [
            (p.source, p.target) for p in corpus.pairs
        ]

    def test_jsonl_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "1", "src": "a"}\n', encoding="utf-8")
        with pytest.raises(CorpusFormatError):
            read_jsonl(path)

    def test_jsonl_id_map_spans_files(self, tmp_path):
        """One id map is one id space: an id of an earlier file is a
        ConfigError naming both places, a repeat in one file a
        CorpusFormatError, and the map gains each file's ids."""
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path, ids in ((first, ["x", "y"]), (second, ["z", "y"])):
            path.write_text("".join(json.dumps({"id": i, "src": "a", "tgt": "b",
                                                "origin": "natural"}) + "\n"
                                    for i in ids), encoding="utf-8")
        seen = {}
        read_jsonl(first, seen)
        assert seen == {"x": (first, 1), "y": (first, 2)}
        with pytest.raises(ConfigError) as info:
            read_jsonl(second, seen)
        assert str(info.value) == f"{second}:2: pair id 'y' repeats {first}:2"
        with pytest.raises(CorpusFormatError,
                           match=re.escape(f"{first}:1: pair id 'x' repeats line 1")):
            read_jsonl(first, {"x": (first, 1)})

    @pytest.mark.parametrize("text", ["", "\n", " \n\t\n"],
                             ids=["no-lines", "blank-line", "blank-lines"])
    def test_jsonl_of_no_pairs_is_an_empty_corpus(self, tmp_path, text):
        path = tmp_path / "empty.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(EmptyCorpus, match=f"^empty corpus: {re.escape(str(path))}$"):
            read_jsonl(path)

    def test_plain_pair_round_trip(self, tmp_path):
        corpus = make_corpus([("ein Haus", "a house"), ("zwei Hunde", "two dogs")])
        with open_atomic(tmp_path / "c.de", tmp_path / "c.en") as files:
            write_plain_pair(corpus, *files)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.de", "c.en"]
        assert (tmp_path / "c.de").read_bytes() == b"ein Haus\nzwei Hunde\n"
        assert (tmp_path / "c.en").read_bytes() == b"a house\ntwo dogs\n"
