"""Reference BPE: the original full-recount trainer and merge-list encoder.

Kept as the oracle for the differential tests in test_bpe.py; the
package's incremental trainer and rank-indexed encoder must reproduce these
merges, symbol vocabularies and encodings exactly.
"""

from collections import Counter

from corpus_forge.bpe import BOUNDARY, MARKER, BpeModel
from corpus_forge.corpus import normalize
from corpus_forge.errors import EmptyCorpus


def _word_symbols(word):
    chars = list(word)
    chars[-1] = chars[-1] + BOUNDARY
    return tuple(chars)


def _word_frequencies(lines):
    freqs = Counter()
    for line in lines:
        for word in normalize(line).split():
            freqs[word] += 1
    return freqs


def _pair_counts(words):
    counts = Counter()
    for symbols, freq in words.items():
        for left, right in zip(symbols, symbols[1:]):
            counts[(left, right)] += freq
    return counts


def _merge_word(symbols, pair, joined):
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            out.append(joined)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def _symbol_vocab(words):
    vocab = Counter()
    for symbols, freq in words.items():
        for symbol in symbols:
            vocab[symbol] += freq
    return vocab


def train_bpe(corpora, target_vocab_size):
    """Train a joint model on the source and target sides of the given corpora.

    Merges the most frequent adjacent symbol pair until the symbol vocabulary
    reaches target_vocab_size or no pair occurs at least twice.
    """
    lines = []
    for corpus in corpora:
        lines.extend(corpus.source_lines())
        lines.extend(corpus.target_lines())
    freqs = _word_frequencies(lines)
    if not freqs:
        raise EmptyCorpus("no tokens in training corpora")

    words = {_word_symbols(w): f for w, f in freqs.items()}
    merges = []
    vocab = _symbol_vocab(words)
    while len(vocab) < target_vocab_size:
        counts = _pair_counts(words)
        if not counts:
            break
        best_count = max(counts.values())
        if best_count < 2:
            break
        pair = min(p for p, c in counts.items() if c == best_count)
        joined = pair[0] + pair[1]
        words = {_merge_word(s, pair, joined): f for s, f in words.items()}
        merges.append(pair)
        vocab = _symbol_vocab(words)
    return BpeModel(merges=merges, vocab=vocab, target_vocab_size=target_vocab_size)


def encode(model, text):
    """Split a line into subword tokens, marking word-internal units with "@@"."""
    tokens = []
    for word in normalize(text).split():
        symbols = _word_symbols(word)
        for pair in model.merges:
            if len(symbols) == 1:
                break
            symbols = _merge_word(symbols, pair, pair[0] + pair[1])
        # only the final symbol carries the boundary; a "</w>" ending any
        # other is the word's own text
        *pieces, final = symbols
        tokens.extend(p + MARKER for p in pieces)
        tokens.append(final.removesuffix(BOUNDARY))
    return tokens
