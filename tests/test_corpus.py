import pytest
from hypothesis import given, strategies as st

from conftest import make_corpus
from corpus_forge.corpus import (
    ParallelCorpus,
    SentencePair,
    SplitSpec,
    count_tokens,
    dedup,
    make_splits,
    read_jsonl,
    read_plain_pair,
    sample_to_threshold,
    write_jsonl,
    write_plain_pair,
)
from corpus_forge.errors import CorpusFormatError, InsufficientData


class TestCountTokens:
    def test_four_tokens(self):
        assert count_tokens("Der Hund bellt .") == 4

    def test_empty(self):
        assert count_tokens("") == 0
        assert count_tokens("   \t ") == 0

    def test_whitespace_runs_collapse(self):
        assert count_tokens("  a\t b  ") == 2

    @given(st.text(min_size=1), st.text(min_size=1))
    def test_concatenation_additive(self, a, b):
        if count_tokens(a) == 0 or count_tokens(b) == 0:
            return
        assert count_tokens(a + " " + b) == count_tokens(a) + count_tokens(b)


class TestDedup:
    def test_seed_word_case_insensitive(self):
        assert dedup(["Eule", "eule", "Katze"], "seed_word") == ["Eule", "Katze"]

    def test_sentence_case_sensitive(self):
        assert dedup(["Eule", "eule"], "sentence") == ["Eule", "eule"]

    def test_exact_repeat(self):
        assert dedup(["a", "a", "a"], "sentence") == ["a"]

    @given(st.lists(st.text(min_size=1, max_size=8)))
    def test_idempotent(self, items):
        once = dedup(items, "sentence")
        assert dedup(once, "sentence") == once
        assert len(once) <= len(items)


def four_token_corpus(n):
    return make_corpus([(f"w{i} x{i} y{i} z{i}", f"a{i} b{i} c{i} d{i}")
                        for i in range(n)])


class TestSampleToThreshold:
    def test_overshoot_kept(self):
        corpus = four_token_corpus(3)
        selected, remainder = sample_to_threshold(corpus, 10, rng_seed=1)
        assert len(selected) == 3
        assert selected.source_token_count() == 12
        assert len(remainder) == 0

    def test_tiny_threshold_takes_one(self):
        corpus = four_token_corpus(5)
        selected, _ = sample_to_threshold(corpus, 1, rng_seed=0)
        assert len(selected) == 1

    def test_deterministic(self):
        corpus = four_token_corpus(20)
        a, _ = sample_to_threshold(corpus, 30, rng_seed=7)
        b, _ = sample_to_threshold(corpus, 30, rng_seed=7)
        assert [p.id for p in a.pairs] == [p.id for p in b.pairs]

    def test_insufficient(self):
        with pytest.raises(InsufficientData):
            sample_to_threshold(four_token_corpus(2), 100, rng_seed=0)

    def test_partition_and_bound(self):
        corpus = four_token_corpus(25)
        threshold = 37
        selected, remainder = sample_to_threshold(corpus, threshold, rng_seed=3)
        longest = max(count_tokens(p.source) for p in corpus.pairs)
        tokens = selected.source_token_count()
        assert threshold <= tokens < threshold + longest
        ids = sorted(p.id for p in selected.pairs) + sorted(
            p.id for p in remainder.pairs
        )
        assert sorted(ids) == sorted(p.id for p in corpus.pairs)


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
        splits = make_splits(corpus, spec, with_test=True)
        ids = [frozenset(p.id for p in s.pairs) for s in splits.values()]
        assert len(splits) == 3
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                assert not ids[i] & ids[j]
        assert sum(len(s) for s in ids) <= len(corpus)

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

    def test_duplicate_ids_rejected(self):
        pair = SentencePair(id="x", source="a", target="b")
        with pytest.raises(ValueError):
            ParallelCorpus([pair, pair], "de", "en")


class TestOnDiskFormats:
    def test_jsonl_round_trip(self, tmp_path):
        corpus = make_corpus([("ein Haus", "a house"), ("zwei Hunde", "two dogs")])
        path = tmp_path / "c.jsonl"
        write_jsonl(corpus, path)
        loaded = read_jsonl(path, "de", "en")
        assert [(p.source, p.target) for p in loaded.pairs] == [
            (p.source, p.target) for p in corpus.pairs
        ]

    def test_jsonl_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "1", "src": "a"}\n', encoding="utf-8")
        with pytest.raises(CorpusFormatError):
            read_jsonl(path, "de", "en")

    def test_plain_pair_round_trip(self, tmp_path):
        corpus = make_corpus([("ein Haus", "a house"), ("zwei Hunde", "two dogs")])
        write_plain_pair(corpus, tmp_path / "c")
        loaded = read_plain_pair(tmp_path / "c", "de", "en")
        assert loaded.source_lines() == corpus.source_lines()
        assert loaded.target_lines() == corpus.target_lines()

    def test_plain_pair_not_utf8_rejected(self, tmp_path):
        (tmp_path / "c.de").write_text("a\nb\n", encoding="utf-8")
        (tmp_path / "c.en").write_bytes(b"a\n\xffb\n")
        with pytest.raises(CorpusFormatError, match=r"c\.en:2: not valid UTF-8"):
            read_plain_pair(tmp_path / "c", "de", "en")

    def test_plain_pair_line_mismatch_rejected(self, tmp_path):
        (tmp_path / "c.de").write_text("a\nb\n", encoding="utf-8")
        (tmp_path / "c.en").write_text("a\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError):
            read_plain_pair(tmp_path / "c", "de", "en")
