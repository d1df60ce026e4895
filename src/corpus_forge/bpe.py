"""Joint source-target byte-pair-encoding subword model.

Training uses the classic merge loop over whitespace words: each word is a
character sequence whose last character carries an end-of-word boundary
suffix. Encoded output marks every non-final subword of a word with "@@".
Ties between equally frequent pairs break lexicographically so two runs on
the same corpus produce byte-identical models.

Training builds three tallies once, over the word types weighted by their
frequency: adjacent-pair counts, an index from each pair to the word types
that hold it, and symbol counts. A merge rewrites only the word types the
index lists for its pair and moves their old pairs and symbols out of the
tallies and their new ones in, as learn_bpe.py of subword-nmt does (Sennrich
et al. 2016). Each merge takes the most frequent pair, the lexicographically
smallest among ties; training stops when the symbol vocabulary reaches the
target size, or when no pair occurs at least twice.

Encoding applies the merge list in order: merge k joins every
non-overlapping occurrence of its pair, left to right, in the word as merges
0..k-1 left it. A model indexes each pair to every rank it holds, because a
pair can recur in a list once a later merge rebuilds one of its symbols (and
a loaded list may repeat or reorder pairs freely). A word is then encoded by
applying, again and again, the lowest rank held by one of its adjacent pairs
that is above the last rank applied; the merges skipped in between would
have found nothing to join. Each model memoizes the tokens of every word it
has encoded.
"""

from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .corpus import open_atomic, open_text, tokenize
from .errors import CorpusFormatError, EmptyCorpus

BOUNDARY = "</w>"
MARKER = "@@"


@dataclass
class BpeModel:
    merges: list  # ordered (left, right) symbol pairs; not mutated once built
    vocab: Counter  # symbol -> frequency over the training corpus
    target_vocab_size: int
    continuation_marker: str = MARKER
    _ranks: dict = field(init=False, repr=False, compare=False)
    _cache: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._ranks = {}  # pair -> ascending ranks of that pair in merges
        for rank, pair in enumerate(self.merges):
            self._ranks.setdefault(pair, []).append(rank)
        self._cache = {}  # word -> its encoded tokens


def _word_symbols(word):
    chars = list(word)
    chars[-1] = chars[-1] + BOUNDARY
    return tuple(chars)


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


def _tally(index, symbols, freq, pairs, where, vocab):
    """Add (freq > 0) or remove (freq < 0) one word type's pairs and symbols.

    Counts that fall to zero are deleted, so the keys of pairs and where are
    exactly the pairs some word type holds, and len(vocab) is the size of the
    symbol vocabulary.
    """
    for symbol in symbols:
        vocab[symbol] += freq
        if not vocab[symbol]:
            del vocab[symbol]
    for pair in zip(symbols, symbols[1:]):
        pairs[pair] += freq
        if freq > 0:
            where[pair].add(index)
        elif pairs[pair]:
            where[pair].discard(index)
        else:
            del pairs[pair]
            del where[pair]


def train_bpe(corpora, target_vocab_size):
    """Train a joint model on the source and target sides of the given corpora.

    Merges the most frequent adjacent symbol pair until the symbol vocabulary
    reaches target_vocab_size or no pair occurs at least twice.
    """
    lines = []
    for corpus in corpora:
        lines.extend(corpus.source_lines())
        lines.extend(corpus.target_lines())
    freqs = Counter(word for line in lines for word in tokenize(line))
    if not freqs:
        raise EmptyCorpus("no tokens in training corpora")

    words = [_word_symbols(w) for w in freqs]
    word_freqs = list(freqs.values())
    pairs = Counter()  # pair -> occurrences, weighted by word frequency
    where = defaultdict(set)  # pair -> indices of the word types holding it
    vocab = Counter()  # symbol -> occurrences, weighted by word frequency
    for index, (symbols, freq) in enumerate(zip(words, word_freqs)):
        _tally(index, symbols, freq, pairs, where, vocab)

    merges = []
    while len(vocab) < target_vocab_size and pairs:
        best_count = max(pairs.values())
        if best_count < 2:
            break
        pair = min(p for p, c in pairs.items() if c == best_count)
        joined = pair[0] + pair[1]
        for index in list(where[pair]):
            freq = word_freqs[index]
            _tally(index, words[index], -freq, pairs, where, vocab)
            words[index] = _merge_word(words[index], pair, joined)
            _tally(index, words[index], freq, pairs, where, vocab)
        merges.append(pair)
    return BpeModel(merges=merges, vocab=vocab, target_vocab_size=target_vocab_size)


def _encode_word(model, word):
    symbols = _word_symbols(word)
    last = -1
    while len(symbols) > 1:
        best_rank = best_pair = None
        for pair in zip(symbols, symbols[1:]):
            ranks = model._ranks.get(pair)
            if ranks is None:
                continue
            i = bisect_right(ranks, last)
            if i < len(ranks) and (best_rank is None or ranks[i] < best_rank):
                best_rank, best_pair = ranks[i], pair
        if best_pair is None:
            break
        symbols = _merge_word(symbols, best_pair, best_pair[0] + best_pair[1])
        last = best_rank
    pieces = [s.removesuffix(BOUNDARY) for s in symbols]
    return tuple(p + model.continuation_marker for p in pieces[:-1]) + (pieces[-1],)


def encode(model, text):
    """Split a line into subword tokens, marking word-internal units with "@@"."""
    tokens = []
    for word in tokenize(text):
        pieces = model._cache.get(word)
        if pieces is None:
            pieces = model._cache[word] = _encode_word(model, word)
        tokens.extend(pieces)
    return tokens


def decode(tokens):
    """Inverse of encode: join with spaces, then collapse every "@@ "."""
    return " ".join(tokens).replace(MARKER + " ", "")


def save_model(model, path):
    with open_atomic(path) as fh:
        fh.write(f"bpe-v1 {model.target_vocab_size}\n")
        for left, right in model.merges:
            fh.write(f"{left} {right}\n")


def load_model(path):
    with open_text(path) as fh:
        header = fh.readline().rstrip("\n").split()
        if len(header) != 2 or header[0] != "bpe-v1":
            raise CorpusFormatError(f"{path}: unknown BPE model header")
        try:
            target = int(header[1])
        except ValueError:
            raise CorpusFormatError(
                f"{path}: BPE vocabulary size {header[1]!r} is not an integer"
            ) from None
        merges = []
        for lineno, line in enumerate(fh, 2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(" ")
            if len(parts) != 2:
                raise CorpusFormatError(f"{path}:{lineno}: bad merge line")
            merges.append((parts[0], parts[1]))
    return BpeModel(merges=merges, vocab=Counter(), target_vocab_size=target)
