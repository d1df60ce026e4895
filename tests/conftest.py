import os
import random

import pytest

from corpus_forge.corpus import ParallelCorpus, SentencePair


def make_corpus(sentences, source_lang="de", target_lang="en", prefix="p"):
    pairs = [
        SentencePair(id=f"{prefix}-{i}", source=s, target=t)
        for i, (s, t) in enumerate(sentences)
    ]
    return ParallelCorpus(pairs, source_lang, target_lang)


# Two disjoint toy vocabularies with one-to-one translations. The "natural"
# domain uses vocabulary A; the "synthetic" domain covers vocabulary B plus a
# sliver of A, so augmentation adds genuinely new translation knowledge.
VOCAB_A = {f"quell{i}": f"well{i}" for i in range(20)}
VOCAB_B = {f"neu{i}": f"fresh{i}" for i in range(10)}

# every function word appears in at least two patterns with different
# companions, so EM co-occurrence statistics can disambiguate them
SYN_PATTERNS = [
    ("{w} ist da", "{t} is there"),
    ("wir sehen {w} da", "we see {t} there"),
    ("{w} ist hier", "{t} is here"),
    ("wir sehen {w} hier", "we see {t} here"),
    ("wir finden {w} da", "we find {t} there"),
]


def _random_sentence(rng, vocab, length):
    words = rng.sample(sorted(vocab), length)
    return " ".join(words), " ".join(vocab[w] for w in words)


def make_experiment_fixture(seed=0):
    """Corpora with controlled vocabulary overlap for the Nat/Synth/Aug study.

    nat_train covers vocabulary A; syn_train is repetitive and covers B;
    the test set mixes A sentences with B sentences, so the augmented model
    has strictly more usable lexicon than the natural one.
    """
    rng = random.Random(seed)

    def natural_block(count, prefix):
        sentences = [
            _random_sentence(rng, VOCAB_A, rng.randint(4, 7)) for _ in range(count)
        ]
        return make_corpus(sentences, prefix=prefix)

    def synthetic_block(count, prefix):
        # word cycles fast, pattern cycles slowly: each word meets every pattern
        sentences = []
        for i in range(count):
            src_t, tgt_t = SYN_PATTERNS[(i // len(VOCAB_B)) % len(SYN_PATTERNS)]
            word = sorted(VOCAB_B)[i % len(VOCAB_B)]
            sentences.append((src_t.format(w=word), tgt_t.format(t=VOCAB_B[word])))
        return make_corpus(sentences, prefix=prefix)

    def mixed_test(count, prefix):
        sentences = []
        for i in range(count):
            if i % 3 == 2:
                src_t, tgt_t = SYN_PATTERNS[i % len(SYN_PATTERNS)]
                word = sorted(VOCAB_B)[(i * 7) % len(VOCAB_B)]
                sentences.append((src_t.format(w=word), tgt_t.format(t=VOCAB_B[word])))
            else:
                sentences.append(_random_sentence(rng, VOCAB_A, rng.randint(4, 7)))
        return make_corpus(sentences, prefix=prefix)

    return {
        "nat_train": natural_block(80, "nt"),
        "syn_train": synthetic_block(50, "st"),
        "nat_valid": natural_block(20, "nv"),
        "syn_valid": synthetic_block(20, "sv"),
        "test": mixed_test(24, "te"),
    }


@pytest.fixture
def experiment_fixture():
    return make_experiment_fixture()


def in_worker(train_em, fail):
    """train_em that calls fail() in any forked worker; the caller trains as usual."""
    caller = os.getpid()

    def train(corpus, iterations):
        if os.getpid() != caller:
            fail()
        return train_em(corpus, iterations)

    return train
