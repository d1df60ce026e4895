import math
import random
import unicodedata

import pytest

from corpus_forge.errors import EmptyInput, LengthMismatch
from corpus_forge.metrics import (
    corpus_bleu,
    cross_evaluate,
    frequency_profile,
    matrix_record,
    render_matrix_markdown,
    render_score_row_markdown,
)


def toks(*sentences):
    return [s.split() for s in sentences]


class TestCorpusBleu:
    def test_identical_is_100(self):
        hyps = toks("the cat sat on the mat", "a quick brown fox jumps")
        report = corpus_bleu(hyps, hyps)
        assert report.bleu == 100.0
        assert report.brevity_penalty == 1.0

    def test_clipped_unigram_precision(self):
        # classic clipping: "the" appears twice in the reference, so only
        # 2 of the 7 hypothesis unigrams count
        hyp = toks("the the the the the the the")
        ref = toks("the cat is on the mat")
        report = corpus_bleu(hyp, ref)
        assert abs(report.precisions[0] - 2 / 7) < 1e-12

    def test_brevity_penalty_formula(self):
        hyp = toks("a b c d e f g")
        ref = toks("a b c d e f g h i j k l m n")
        report = corpus_bleu(hyp, ref)
        assert abs(report.brevity_penalty - math.exp(-1.0)) < 1e-12

    def test_no_penalty_when_longer(self):
        hyp = toks("a b c d e f g h")
        ref = toks("a b c d e")
        assert corpus_bleu(hyp, ref).brevity_penalty == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            corpus_bleu(toks("a"), toks("a", "b"))

    def test_empty_corpus(self):
        with pytest.raises(EmptyInput):
            corpus_bleu([], [])

    @pytest.mark.parametrize("refs", [toks("a b", "c"), [[], []]])
    def test_output_with_no_tokens_scores_zero(self, refs):
        # exp(1 - r/c) falls to 0 with the output length c, as in sacreBLEU
        report = corpus_bleu([[], []], refs)
        assert (report.bleu, report.brevity_penalty, report.hyp_len) == (0.0, 0.0, 0)

    def test_precision_monotone_without_smoothing(self):
        rng = random.Random(1)
        vocab = [f"w{i}" for i in range(30)]
        hyps, refs = [], []
        for _ in range(20):
            ref = [rng.choice(vocab) for _ in range(rng.randint(5, 12))]
            hyp = [
                w if rng.random() < 0.7 else rng.choice(vocab) for w in ref
            ]
            hyps.append(hyp)
            refs.append(ref)
        p = corpus_bleu(hyps, refs).precisions
        assert 0 <= p[3] <= p[2] <= p[1] <= p[0] <= 1

    def test_permutation_invariance(self):
        rng = random.Random(2)
        vocab = [f"w{i}" for i in range(10)]
        refs = [[rng.choice(vocab) for _ in range(rng.randint(5, 8))]
                for _ in range(15)]
        # noisy copies: some tokens replaced, some segments cut short
        hyps = [[w if rng.random() < 0.8 else rng.choice(vocab) for w in ref]
                [:rng.randint(4, len(ref))] for ref in refs]
        base = corpus_bleu(hyps, refs)
        assert base.bleu > 0 and base.brevity_penalty < 1
        order = list(range(15))
        rng.shuffle(order)
        assert corpus_bleu([hyps[i] for i in order], [refs[i] for i in order]) == base

    def test_log_precisions_added_left_to_right(self):
        # precisions 5/7, 2/3, 2/5 and 1/4: a compensated sum of their logs,
        # as builtin sum() is since Python 3.12, ends in ...2001 instead
        report = corpus_bleu(toks("c a a c b c c"), toks("b b c a a c a"))
        assert report.precisions == [5 / 7, 2 / 3, 2 / 5, 1 / 4]
        assert report.bleu == 46.713797772820016

    def test_zero_overlap_without_smoothing_is_zero(self):
        report = corpus_bleu(toks("a b c d e"), toks("v w x y z"))
        assert report.bleu == 0.0


class TestFrequencyProfile:
    def test_basic_counts(self):
        profile = frequency_profile(["a a b"])
        assert profile.type_count == 2
        assert profile.token_count == 3
        assert abs(profile.ttr - 2 / 3) < 1e-12

    def test_case_folding(self):
        assert frequency_profile(["A a"]).type_count == 1

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            frequency_profile(["   "])

    def test_rank_frequency_sorted(self):
        profile = frequency_profile(["b b b a a c", "c a b"])
        freqs = [f for _, _, f in profile.rank_frequency]
        assert freqs == sorted(freqs, reverse=True)
        assert sum(freqs) == profile.token_count

    def test_tie_broken_lexicographically(self):
        profile = frequency_profile(["b a"])
        assert [w for _, w, _ in profile.rank_frequency] == ["a", "b"]

    def test_duplication_halves_ttr(self):
        lines = ["ein Haus am See", "der alte Mann schweigt"]
        single = frequency_profile(lines)
        doubled = frequency_profile(lines + lines)
        assert doubled.type_count == single.type_count
        assert doubled.token_count == 2 * single.token_count
        assert abs(doubled.ttr - single.ttr / 2) < 1e-12

    def test_ttr_one_iff_all_distinct(self):
        assert frequency_profile(["a b c"]).ttr == 1.0
        assert frequency_profile(["a a"]).ttr < 1.0

    def test_zipf_points(self):
        profile = frequency_profile(["a a a b b c"])
        points = [(rank, freq) for rank, _, freq in profile.rank_frequency]
        assert points == [(1, 3), (2, 2), (3, 1)]


def split_lines(lines):
    return [line.split() for line in lines]


class TestCrossEvaluate:
    def test_identity_translator_scores_100(self):
        lines = ["a b c d", "e f g h"]
        assert cross_evaluate(split_lines, {"copy": (lines, lines)}) == {"copy": 100.0}

    def test_one_score_per_eval_set(self):
        lines = ["a b c d"]
        sets = {"same": (lines, lines), "other": (lines, ["e f g h"])}
        assert cross_evaluate(split_lines, sets) == {"same": 100.0, "other": 0.0}

    def test_failed_translation_is_raised(self):
        def broken(_):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            cross_evaluate(broken, {"s": (["a b"], ["a b"])})

    def test_bleu_tokens_are_corpus_tokens(self):
        # references are split by corpus.tokenize: extra whitespace and an
        # NFD spelling change no token
        refs = [unicodedata.normalize("NFD", "  Café  au lait "), "a\tb c  d"]
        out = [["Café", "au", "lait"], ["a", "b", "c", "d"]]
        assert cross_evaluate(lambda _: out, {"s": (refs, refs)}) == {"s": 100.0}


class TestRendering:
    def test_score_row(self):
        out = render_score_row_markdown(["Synth-de", "Nat-de", "Aug-de"],
                                        [3.5, 16.4, 18.9])
        assert "| 3.5 | 16.4 | 18.9 |" in out

    def test_matrix_absent_cells_dash(self):
        out = render_matrix_markdown({"Aug-de": {"Test": 18.9}},
                                     ["Synth-val", "Nat-val", "Test"])
        assert "| Aug-de | - | - | 18.9 |" in out

    def test_matrix_record_holds_each_score_once(self):
        rows = {"Nat": {"Nat-val": 17.0, "Test": 16.4}, "Aug": {"Test": 18.9}}
        assert matrix_record(rows, ["Nat-val", "Test"]) == {
            "rows": ["Nat", "Aug"],
            "columns": ["Nat-val", "Test"],
            "cells": [{"model": "Nat", "eval_set": "Nat-val", "bleu": 17.0},
                      {"model": "Nat", "eval_set": "Test", "bleu": 16.4},
                      {"model": "Aug", "eval_set": "Test", "bleu": 18.9}],
        }
