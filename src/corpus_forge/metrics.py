"""Corpus BLEU, cross-evaluation score rows, and lexical diversity profiles."""

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .corpus import tokenize
from .errors import EmptyInput, LengthMismatch

MAX_ORDER = 4


@dataclass
class BleuReport:
    bleu: float
    precisions: list
    brevity_penalty: float
    hyp_len: int
    ref_len: int


@dataclass
class FrequencyProfile:
    type_count: int
    token_count: int
    ttr: float
    rank_frequency: list  # (rank, word, frequency), frequency non-increasing


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(hypotheses, references) -> BleuReport:
    """Corpus-level BLEU with clipped n-gram precisions (n=1..4) and brevity penalty.

    Inputs are pre-tokenized: each segment is a sequence of tokens. One
    reference per hypothesis. Unsmoothed: an order with no clipped match
    scores 0. Hypotheses with no tokens at all score 0, as in sacreBLEU:
    the brevity penalty exp(1 - r/c) falls to 0 with their length c. No
    segments at all is EmptyInput.
    """
    if len(hypotheses) != len(references):
        raise LengthMismatch(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise EmptyInput("empty hypothesis corpus")

    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)

    clipped = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    for hyp, ref in zip(hypotheses, references):
        for n in range(1, MAX_ORDER + 1):
            hyp_counts = _ngrams(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _ngrams(ref, n)
            totals[n - 1] += sum(hyp_counts.values())
            clipped[n - 1] += sum(
                min(c, ref_counts[g]) for g, c in hyp_counts.items()
            )

    # an order with no n-grams at all is vacuously perfect, not a miss
    precisions = [c / n if n else 1.0 for c, n in zip(clipped, totals)]

    if hyp_len > ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / hyp_len) if hyp_len else 0.0
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        log_sum = 0.0  # added left to right, as every float sum is
        for p in precisions:
            log_sum += math.log(p)
        score = 100.0 * bp * math.exp(log_sum / MAX_ORDER)
    return BleuReport(
        bleu=score,
        precisions=precisions,
        brevity_penalty=bp,
        hyp_len=hyp_len,
        ref_len=ref_len,
    )


def frequency_profile(corpus_side) -> FrequencyProfile:
    """Case-folded type/token statistics and rank-frequency list for one corpus side."""
    counts = Counter(
        token.casefold() for line in corpus_side for token in tokenize(line)
    )
    token_count = sum(counts.values())
    if token_count == 0:
        raise EmptyInput("no tokens in input")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    rank_frequency = [(rank, word, freq) for rank, (word, freq) in enumerate(ranked, 1)]
    return FrequencyProfile(
        type_count=len(counts),
        token_count=token_count,
        ttr=len(counts) / token_count,
        rank_frequency=rank_frequency,
    )


def cross_evaluate(translate, eval_sets) -> dict:
    """Score one model on every eval set with corpus BLEU: {eval set: BLEU}.

    translate: source_lines -> each line's output tokens.
    eval_sets: mapping label -> (source_lines, reference_lines); the
    references are split by corpus.tokenize.
    """
    return {
        label: corpus_bleu(translate(src_lines),
                           [tokenize(line) for line in ref_lines]).bleu
        for label, (src_lines, ref_lines) in eval_sets.items()
    }


# ---------------------------------------------------------------------------
# Rendering

def format_score(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.1f}"


def _table(header, rows) -> str:
    """A Markdown table: a header row, a "---" rule, then one line per row."""
    line = lambda cells: "| " + " | ".join(cells) + " |\n"
    return line(header) + "|" + "---|" * len(header) + "\n" + "".join(map(line, rows))


def render_score_row_markdown(labels, scores) -> str:
    """One-row table: model labels as the header, one score per column."""
    return _table(labels, [[format_score(s) for s in scores]])


def render_matrix_markdown(rows, columns) -> str:
    """A line per model of rows, {model: {eval set: BLEU}}: its score on each
    eval set of columns, or "-" where its row lacks one."""
    return _table(["Model", *columns], [
        [model, *(format_score(row.get(c)) for c in columns)]
        for model, row in rows.items()])


def matrix_record(rows, columns) -> dict:
    """results.json's matrix: the models of rows, the eval sets of columns,
    and a {"model", "eval_set", "bleu"} cell per score, model by model."""
    return {"rows": list(rows), "columns": columns,
            "cells": [{"model": model, "eval_set": c, "bleu": row[c]}
                      for model, row in rows.items() for c in columns if c in row]}
