"""Corpus BLEU, cross-evaluation matrices, and lexical diversity profiles."""

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


@dataclass
class EvalMatrix:
    rows: list  # model labels
    columns: list  # evaluation-set labels
    cells: dict  # (row, col) -> float, present iff evaluated
    failures: dict  # (row, col) -> reason for absent cells

    def get(self, row, col):
        return self.cells.get((row, col))

    def to_dict(self):
        return {
            "rows": self.rows,
            "columns": self.columns,
            "cells": [
                {"model": r, "eval_set": c, "bleu": self.cells[(r, c)]}
                for r in self.rows
                for c in self.columns
                if (r, c) in self.cells
            ],
            "failures": [
                {"model": r, "eval_set": c, "reason": reason}
                for (r, c), reason in sorted(self.failures.items())
            ],
        }


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(hypotheses, references) -> BleuReport:
    """Corpus-level BLEU with clipped n-gram precisions (n=1..4) and brevity penalty.

    Inputs are pre-tokenized: each segment is a sequence of tokens. One
    reference per hypothesis. Unsmoothed: an order with no clipped match
    scores 0.
    """
    if len(hypotheses) != len(references):
        raise LengthMismatch(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise EmptyInput("empty hypothesis corpus")

    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    if hyp_len == 0:
        raise EmptyInput("hypotheses contain no tokens")

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

    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / MAX_ORDER)
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


def cross_evaluate(models, eval_sets) -> EvalMatrix:
    """Score every (model, eval set) pairing with corpus BLEU.

    models: mapping label -> translate(source_lines) -> target_lines.
    eval_sets: mapping label -> (source_lines, reference_lines).
    Failed cells are recorded as absent, with a reason.
    """
    rows = list(models)
    columns = list(eval_sets)
    cells = {}
    failures = {}
    for row in rows:
        for col in columns:
            src_lines, ref_lines = eval_sets[col]
            try:
                out_lines = models[row](src_lines)
                report = corpus_bleu(
                    [tokenize(line) for line in out_lines],
                    [tokenize(line) for line in ref_lines],
                )
                cells[(row, col)] = report.bleu
            except Exception as exc:  # per-cell isolation by contract
                failures[(row, col)] = f"{type(exc).__name__}: {exc}"
    return EvalMatrix(rows=rows, columns=columns, cells=cells, failures=failures)


# ---------------------------------------------------------------------------
# Rendering

def format_score(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.1f}"


def render_score_row_markdown(labels, scores) -> str:
    """One-row table: model labels as the header, one score per column."""
    header = "| " + " | ".join(labels) + " |"
    rule = "|" + "|".join(["---"] * len(labels)) + "|"
    row = "| " + " | ".join(format_score(s) for s in scores) + " |"
    return "\n".join([header, rule, row]) + "\n"


def render_matrix_markdown(matrix: EvalMatrix) -> str:
    header = "| Model | " + " | ".join(matrix.columns) + " |"
    rule = "|" + "|".join(["---"] * (len(matrix.columns) + 1)) + "|"
    lines = [header, rule]
    for row in matrix.rows:
        scores = [format_score(matrix.get(row, col)) for col in matrix.columns]
        lines.append("| " + row + " | " + " | ".join(scores) + " |")
    return "\n".join(lines) + "\n"
