"""Reference lexical EM: the original per-iteration dict trainer and decoder.

Kept as the oracle for the differential tests in test_em.py; the package's
row-at-a-time trainer and argmax table must reproduce these probabilities,
log-likelihoods, argmaxes and translations exactly. Its sums, z, each row
total and each log-likelihood, are explicit left-to-right adds, as the
package's are: the values builtin sum() gives on Python 3.10 and 3.11, on
every Python. A log-likelihood adds each source word's terms in corpus
order, then the words' sums in sorted order.
Tokens here are raw ``str.split()`` units, so feed it NFC-normalized text.
"""

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

from corpus_forge.em import NULL_TOKEN
from corpus_forge.errors import EmptyCorpus


@dataclass
class LexiconModel:
    t: dict  # source word -> {target word: probability}
    log_likelihoods: list  # one per iteration


def _tokenized(corpus):
    return [(p.source.split(), p.target.split()) for p in corpus.pairs]


def train_em(corpus, iterations: int) -> LexiconModel:
    """Train t(e|f) on a parallel corpus for a fixed number of EM iterations."""
    if len(corpus) == 0:
        raise EmptyCorpus("cannot train on an empty corpus")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    bitext = _tokenized(corpus)
    source_vocab = {f for src, _ in bitext for f in src}
    target_vocab = {e for _, tgt in bitext for e in tgt}

    uniform = 1.0 / (len(target_vocab) + 1)  # +1 for the null target
    t = {f: defaultdict(lambda u=uniform: u) for f in source_vocab}

    log_likelihoods = []
    for _ in range(iterations):
        counts = {f: Counter() for f in source_vocab}
        word_log_likelihoods = dict.fromkeys(source_vocab, 0.0)
        for src, tgt in bitext:
            candidates = tgt + [NULL_TOKEN]
            for f in src:
                tf = t[f]
                z = 0.0
                for e in candidates:
                    z += tf[e]
                word_log_likelihoods[f] += math.log(z / len(candidates))
                for e in candidates:
                    counts[f][e] += tf[e] / z
        for f, c in counts.items():
            total = 0.0
            for n in c.values():
                total += n
            t[f] = defaultdict(float, {e: n / total for e, n in c.items()})
        log_likelihood = 0.0
        for f in sorted(word_log_likelihoods):
            log_likelihood += word_log_likelihoods[f]
        log_likelihoods.append(log_likelihood)

    return LexiconModel(
        t={f: dict(d) for f, d in t.items()},
        log_likelihoods=log_likelihoods,
    )


def best_target(model: LexiconModel, f: str):
    """Argmax of t(.|f); ties break lexicographically among real words.

    The null target is a candidate in every sentence, so it frequently ends
    up exactly tied with a word's true translation; it only wins the argmax
    when strictly more probable. Returns None when f is unseen.
    """
    dist = model.t.get(f)
    if not dist:
        return None
    return min(dist, key=lambda e: (-dist[e], e == NULL_TOKEN, e))


def translate(model: LexiconModel, source_lines):
    """Map each token to its argmax target; drop null emissions, copy OOV through."""
    out = []
    for line in source_lines:
        words = []
        for f in line.split():
            e = best_target(model, f)
            if e is None:
                words.append(f)  # out-of-vocabulary: copy through
            elif e != NULL_TOKEN:
                words.append(e)
        out.append(" ".join(words))
    return out
