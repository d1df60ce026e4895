"""Joint source-target byte-pair-encoding subword model.

Training uses the classic merge loop over whitespace words: each word is a
character sequence whose last character carries an end-of-word boundary
suffix. Encoded output marks every non-final subword of a word with "@@".
Ties between equally frequent pairs break lexicographically so two runs on
the same corpus produce byte-identical models.

Training builds three tallies once, over the word types weighted by their
frequency: adjacent-pair counts, an index `where` from each pair to word
types, and symbol counts. Each merge takes the most frequent pair, the
lexicographically smallest among ties; training stops when the symbol
vocabulary reaches the target size, or when no pair occurs at least twice.

The pick comes from a heap of (-count, pair) entries. Tuple order is the tie
rule: the smallest entry has the highest count and, among those, the
smallest pair. A merge pushes a new entry for every pair whose count it
changed and never removes the old ones; an entry whose count is no longer
the pair's count is dropped when it reaches the top, so a stale entry costs
one pop and is never picked.

A merge rewrites only the word types `where` lists for its pair. It sums
the change to each pair's count over those words first, the old word's
pairs out and the new word's in, and applies each nonzero change once, as
update_pair_statistics of subword-nmt does (Sennrich et al. 2016). `where`
is a superset: an index is added for each new pair, which always holds the
joined symbol, and is never removed while the pair still occurs somewhere.
A stale index, a word type that no longer holds the pair, is harmless: the
merge leaves that word unchanged in length, and it is skipped.

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
from heapq import heapify, heappop, heappush

from .corpus import open_text, tokenize
from .errors import CorpusFormatError, EmptyCorpus

BOUNDARY = "</w>"
MARKER = "@@"


@dataclass
class BpeModel:
    merges: list  # ordered (left, right) symbol pairs; not mutated once built
    vocab: Counter  # symbol -> frequency over the training corpus
    target_vocab_size: int
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
    left, right = pair
    out = []
    i = 0
    last = len(symbols) - 1
    while i <= last:
        symbol = symbols[i]
        if symbol == left and i < last and symbols[i + 1] == right:
            out.append(joined)
            i += 2
        else:
            out.append(symbol)
            i += 1
    return tuple(out)


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
    where = defaultdict(set)  # pair -> indices of word types that may hold it
    vocab = Counter()  # symbol -> occurrences, weighted by word frequency
    for index, (symbols, freq) in enumerate(zip(words, word_freqs)):
        for symbol in symbols:
            vocab[symbol] += freq
        for pair in zip(symbols, symbols[1:]):
            pairs[pair] += freq
            where[pair].add(index)
    heap = [(-count, pair) for pair, count in pairs.items()]
    heapify(heap)

    merges = []
    while len(vocab) < target_vocab_size and heap:
        top_count, pair = heappop(heap)
        if pairs.get(pair) != -top_count:
            continue  # stale: the pair's count has changed since the push
        if -top_count < 2:
            break
        left, right = pair
        joined = left + right
        delta = defaultdict(int)  # pair -> change in its count by this merge
        merged = 0  # occurrences of pair joined, weighted by word frequency
        for index in where.pop(pair):
            old = words[index]
            new = _merge_word(old, pair, joined)
            if len(new) == len(old):
                continue  # stale: the word type no longer holds pair
            words[index] = new
            freq = word_freqs[index]
            merged += (len(old) - len(new)) * freq
            for p in zip(old, old[1:]):
                delta[p] -= freq
            for p in zip(new, new[1:]):
                delta[p] += freq
                if joined in p:
                    where[p].add(index)
        for p, change in delta.items():
            if not change:
                continue
            count = pairs[p] + change
            if count:
                pairs[p] = count
                heappush(heap, (-count, p))
            else:
                del pairs[p]
                where.pop(p, None)
        for symbol, change in ((left, -merged), (right, -merged), (joined, merged)):
            vocab[symbol] += change
            if not vocab[symbol]:
                del vocab[symbol]
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
    # merges only join symbols, so the final one alone carries the boundary;
    # a "</w>" ending any other is the word's own text
    *pieces, final = symbols
    return tuple(p + MARKER for p in pieces) + (final.removesuffix(BOUNDARY),)


def encode(model, text):
    """Split a line into subword tokens, marking word-internal units with "@@".
    A word that holds "@@", which decode could not restore, is a CorpusFormatError."""
    tokens = []
    for word in tokenize(text):
        pieces = model._cache.get(word)
        if pieces is None:
            if MARKER in word:
                raise CorpusFormatError(f"word {word!r} holds the marker {MARKER}")
            pieces = model._cache[word] = _encode_word(model, word)
        tokens.extend(pieces)
    return tokens


def decode(tokens):
    """Inverse of encode: join with spaces, then collapse every "@@ "."""
    return " ".join(tokens).replace(MARKER + " ", "")


def save_model(model, fh):
    """Write model to the text file fh: its header, then one merge a line."""
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
        if target < 1:
            raise CorpusFormatError(f"{path}: BPE vocabulary size {target} is below 1")
        merges = []
        for lineno, line in enumerate(fh, 2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(" ")
            if len(parts) != 2 or not all(parts):  # two non-empty symbols
                raise CorpusFormatError(f"{path}:{lineno}: bad merge line")
            merges.append((parts[0], parts[1]))
    return BpeModel(merges=merges, vocab=Counter(), target_vocab_size=target)
