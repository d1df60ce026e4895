"""Seeded input generators for the benchmark workloads.

Every generator depends only on the workload seed and its size arguments,
so the same seed always gives byte-identical inputs. Nothing here imports
corpus_forge: the program receives only the files written from these rows.

The seed decides which words and sentences occur, not how much work they
make: word lengths follow Zipf rank, sentence lengths and punctuation come
in fixed proportions, and synthetic seed words are drawn one per rank
band. Otherwise BPE and EM time would vary by a tenth from seed to seed.
"""

import itertools
import json
import math
import random

_SRC_ONSETS = ["b", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s",
               "t", "w", "z", "sch", "st", "br", "gr", "kl", "pf", "tr"]
_SRC_VOWELS = ["a", "e", "i", "o", "u", "ä", "ö", "ü", "au", "ei", "ie"]
_SRC_CODAS = ["", "n", "r", "l", "t", "ng", "ch", "s", "nd", "rt"]
_TGT_ONSETS = ["b", "c", "d", "f", "g", "h", "j", "l", "m", "n", "p", "r",
               "s", "t", "v", "w", "th", "sh", "ch", "bl", "cr", "st"]
_TGT_VOWELS = ["a", "e", "i", "o", "u", "y", "ea", "oo", "ai", "ou"]
_TGT_CODAS = ["", "n", "r", "l", "t", "ck", "ss", "m", "nd", "ght"]

# Zipf exponent and type count of the natural corpus: fixed so that the
# workload seed changes which words occur, not the shape of the distribution
NATURAL_TYPES = 3000
NATURAL_EXPONENT = 1.1
SENTENCE_LENGTHS = (5, 15)
COMMA_SHARE = 0.3
END_MARKS = (".", ".", ".", ".", "?", "!")

# mock-style templates: few, fixed frames around one seed word, so the
# synthetic side repeats far more than the natural side
SYNTHETIC_TEMPLATES = [
    ("Der {s} ist gut.", "The {t} is good."),
    ("Ich sehe den {s} heute.", "I see the {t} today."),
    ("Das {s} ist hier.", "The {t} is here."),
    ("Wir mögen das {s} sehr.", "We like the {t} very much."),
    ("Ein {s} kommt morgen.", "A {t} comes tomorrow."),
    ("Mein {s} ist alt.", "My {t} is old."),
]


def _words(rng, count, onsets, vowels, codas):
    """count distinct pseudo-words of one to three syllables."""
    seen = set()
    out = []
    while len(out) < count:
        word = "".join(
            rng.choice(onsets) + rng.choice(vowels) + rng.choice(codas)
            for _ in range(rng.randint(1, 3))
        )
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def word_length(rank):
    """Letters of the word at Zipf rank (from 0): frequent words are short."""
    return min(10, 3 + int(math.log(rank + 2, 2.5)))


def _ranked_words(rng, count, onsets, vowels, codas):
    """count distinct pseudo-words, the one at rank r word_length(r) long."""
    seen = set()
    out = []
    for rank in range(count):
        length = word_length(rank)
        while True:
            word = ""
            while len(word) < length:
                word += rng.choice(onsets) + rng.choice(vowels) + rng.choice(codas)
            word = word[:length]
            if word not in seen:
                break
        seen.add(word)
        out.append(word)
    return out


def lexicon(seed, n_types=NATURAL_TYPES):
    """Deterministic one-to-one bilingual lexicon, in Zipf rank order."""
    rng = random.Random(f"lexicon-{seed}")
    source = _ranked_words(rng, n_types, _SRC_ONSETS, _SRC_VOWELS, _SRC_CODAS)
    target = _ranked_words(rng, n_types, _TGT_ONSETS, _TGT_VOWELS, _TGT_CODAS)
    return source, target


def _sentence_case(words):
    return [words[0][:1].upper() + words[0][1:]] + words[1:]


def natural_rows(words, seed, n_pairs, prefix):
    """Zipfian natural pairs: 5-15 tokens, attached commas and end marks.

    words is lexicon(seed). Targets are the word-by-word image of the source
    under it, carrying the same punctuation, so the pairs are learnable but
    the punctuation makes surface types differ from lexicon entries.
    """
    source, target = words
    rng = random.Random(f"natural-{seed}-{prefix}")
    cum_weights = list(itertools.accumulate(
        1.0 / rank ** NATURAL_EXPONENT for rank in range(1, len(source) + 1)
    ))
    ranks = range(len(source))
    low, high = SENTENCE_LENGTHS
    lengths = [low + i % (high - low + 1) for i in range(n_pairs)]
    ends = [END_MARKS[i % len(END_MARKS)] for i in range(n_pairs)]
    rng.shuffle(lengths)
    rng.shuffle(ends)
    commas = set(rng.sample(range(n_pairs), round(COMMA_SHARE * n_pairs)))
    rows = []
    for i, (length, end) in enumerate(zip(lengths, ends)):
        picked = rng.choices(ranks, cum_weights=cum_weights, k=length)
        src = [source[j] for j in picked]
        tgt = [target[j] for j in picked]
        if i in commas:
            k = rng.randrange(length - 1)
            src[k] += ","
            tgt[k] += ","
        src[-1] += end
        tgt[-1] += end
        rows.append({
            "id": f"{prefix}-{i:06d}",
            "src": " ".join(_sentence_case(src)),
            "tgt": " ".join(_sentence_case(tgt)),
            "origin": "natural",
            "seed_word": None,
        })
    return rows


def synthetic_rows(words, seed, n_seeds, prefix):
    """Low-diversity templated pairs: every template over each seed word.

    words is lexicon(seed). Seed words come from its mid and tail ranks, one
    from each of n_seeds equal rank bands, so synthetic data teaches
    translations the natural sample sees rarely.
    """
    source, target = words
    rng = random.Random(f"synthetic-{seed}-{prefix}")
    low = len(source) // 10
    band = (len(source) - low) / n_seeds
    picked = [low + int(i * band + rng.random() * band) for i in range(n_seeds)]
    rows = []
    for j in picked:
        for src_t, tgt_t in SYNTHETIC_TEMPLATES:
            rows.append({
                "id": f"{prefix}-{len(rows):06d}",
                "src": src_t.format(s=source[j]),
                "tgt": tgt_t.format(t=target[j]),
                "origin": "synthetic",
                "seed_word": source[j],
            })
    return rows


def seed_words(seed, count):
    """Distinct capitalised seed nouns for the generate workloads."""
    rng = random.Random(f"seeds-{seed}")
    return [w.capitalize() for w in _words(rng, count, _SRC_ONSETS, _SRC_VOWELS,
                                          _SRC_CODAS)]


def write_jsonl(rows, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def write_lines(lines, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")
