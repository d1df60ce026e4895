import os
import random
from types import SimpleNamespace

import pytest
from hypothesis import settings

from corpus_forge import em, prompts
from corpus_forge.corpus import ParallelCorpus, SentencePair
from corpus_forge.gateway import ChatMessage, ChatRequest, MockBackend

# a deeper search than the default, selected with --hypothesis-profile=ci
settings.register_profile("ci", max_examples=1000, deadline=None)


def make_corpus(sentences, prefix="p"):
    pairs = [
        SentencePair(id=f"{prefix}-{i}", source=s, target=t)
        for i, (s, t) in enumerate(sentences)
    ]
    return ParallelCorpus(pairs)


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


@pytest.fixture
def unread_lexicons():
    """run_experiment's lexicons for a test that reads none: os.devnull."""
    with open(os.devnull, "w", encoding="utf-8") as sink:
        yield dict.fromkeys(em.LABELS, sink)


def _syllable_lexicons(rng, size):
    """Two lexicons of size one- to three-syllable words, one to one:
    (the source words in sorted order, {source word: target word})."""
    onsets = ["", "b", "d", "f", "g", "k", "l", "m", "n", "r", "s", "t", "w",
              "sch", "st", "tr", "pf"]
    vowels = ["a", "e", "i", "o", "u", "ä", "ö", "ü", "ei", "au", "ie"]
    codas = ["", "", "n", "r", "s", "t", "l", "ch", "ng", "ck"]

    def lexicon():
        words = set()
        while len(words) < size:
            words.add("".join(rng.choice(onsets) + rng.choice(vowels)
                              + rng.choice(codas)
                              for _ in range(rng.randint(1, 3))))
        return sorted(words)

    source, target = lexicon(), lexicon()
    rng.shuffle(target)
    return source, dict(zip(source, target))


def _zipfian_pairs(rng, source, translation, count):
    """count pairs of 3-12 words drawn with weight 1/rank from source."""
    weights = [1 / rank for rank in range(1, len(source) + 1)]
    pairs = []
    for _ in range(count):
        words = rng.choices(source, weights, k=rng.randint(3, 12))
        pairs.append((" ".join(words), " ".join(translation[w] for w in words)))
    return pairs


def syllable_corpus(seed=0, n_lines=2000):
    """Zipfian lines over a lexicon of one- to three-syllable words, with a
    second lexicon, one to one with the first, on the target side."""
    rng = random.Random(seed)
    source, translation = _syllable_lexicons(rng, 1500)
    return make_corpus(_zipfian_pairs(rng, source, translation, n_lines))


# six fixed frames around one seed word: synthetic text repeats far more
# than natural text
STUDY_TEMPLATES = [
    ("der {w} ist gut", "the {t} is good"),
    ("ich sehe den {w} heute", "i see the {t} today"),
    ("das {w} ist hier", "the {t} is here"),
    ("wir mögen das {w} sehr", "we like the {t} very much"),
    ("ein {w} kommt morgen", "a {t} comes tomorrow"),
    ("mein {w} ist alt", "my {t} is old"),
]


def study_corpora():
    """experiment's five inputs at a size no property reaches.

    Natural train, valid and test hold 3,000, 500 and 500 Zipfian pairs over
    a 1,500-word syllable lexicon. Synthetic train fills every template with
    each of 500 seed words (3,000 pairs); synthetic valid holds 500 pairs
    whose seed words come from those 500 and 100 others.
    """
    rng = random.Random(0)
    source, translation = _syllable_lexicons(rng, 1500)
    seeds = rng.sample(source, 600)

    def natural(count, prefix):
        return make_corpus(_zipfian_pairs(rng, source, translation, count),
                           prefix=prefix)

    def synthetic(pairs, prefix):
        return make_corpus([(src.format(w=w), tgt.format(t=translation[w]))
                            for w, (src, tgt) in pairs], prefix=prefix)

    return {
        "nat_train": natural(3000, "nt"),
        "nat_valid": natural(500, "nv"),
        "test": natural(500, "te"),
        "syn_train": synthetic([(w, template) for w in seeds[:500]
                                for template in STUDY_TEMPLATES], "st"),
        "syn_valid": synthetic([(rng.choice(seeds), rng.choice(STUDY_TEMPLATES))
                                for _ in range(500)], "sv"),
    }


def in_worker(train_em, fail, worker=True):
    """train_em that, in any forked worker, puts a lexicon header on disk and
    calls fail(); the caller trains as usual. With worker False, the caller
    fails and a worker trains."""
    caller = os.getpid()

    def train(corpus, iterations, out):
        if (os.getpid() != caller) == worker:
            out.write(f"lexicon-v1 iterations={iterations}\n")
            out.flush()
            fail()
        return train_em(corpus, iterations, out)

    return train


class MockSession:
    """Stands in for the requests.Session of an HttpBackend: answers each post
    as a chat-completions endpoint would, with the mock backend's text, or
    with bad_content in its place where is_bad(stage, request) holds."""

    def __init__(self, bad_content, is_bad):
        self.templates = prompts.PromptTemplateSet.defaults()
        self.backend = MockBackend(self.templates)
        self.bad_content = bad_content
        self.is_bad = is_bad

    def post(self, url, json=None, headers=None, timeout=None):
        request = ChatRequest(tuple(ChatMessage(m["role"], m["content"])
                                    for m in json["messages"]))
        stage, _ = prompts.classify_system_text(
            self.templates, request.first_content("system"))
        content = (self.bad_content if self.is_bad(stage, request)
                   else self.backend.complete(request))
        body = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        return SimpleNamespace(status_code=200, json=lambda: body)
