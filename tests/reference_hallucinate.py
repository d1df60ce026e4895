"""Reference response parsing, sentence dedup and mock sentences: the original code.

Kept as the oracle for the differential tests in test_hallucinate_oracle.py.
parse_delimited cleans every piece with a regex substitution and a
split/join of its own. sentence_records is the sentence step of
generate_sentences after the requests: it tags every parsed sentence with
its seed and deduplicates all of them by their NFC form, returning the
records and the number of sentences parsed. mock_sentences is
MockBackend._sentences, which formats one template per sentence.
"""

import re

from corpus_forge import mockdata
from corpus_forge.corpus import dedup, normalize

_NUMBERED_PREFIX = re.compile(r"^\s*\d+\s*[.):]\s*")


def _clean_item(item: str) -> str:
    item = _NUMBERED_PREFIX.sub("", item)
    return " ".join(item.split())


def parse_delimited(text: str, delimiter: str):
    """Split a response on its delimiter, trimming items and dropping empties.

    Falls back to splitting on line breaks when the delimiter yields fewer
    than two items (chat models sometimes ignore formatting instructions).
    """
    items = [_clean_item(piece) for piece in text.split(delimiter)]
    items = [i for i in items if i]
    if len(items) < 2:
        by_line = [_clean_item(piece) for piece in text.splitlines()]
        by_line = [i for i in by_line if i]
        if len(by_line) > len(items):
            items = by_line
    return items


def sentence_records(seeds, answers):
    """({"seed", "sentence"} records, sentences parsed) from the (index,
    response) answers to one request per seed."""
    tagged = [(seeds[index], sentence) for index, response in answers
              for sentence in parse_delimited(response, ";")]
    records = [{"seed": seed, "sentence": sentence}
               for seed, sentence in dedup(tagged, key=lambda p: normalize(p[1]))]
    return records, len(tagged)


def mock_sentences(seed: str, n: int) -> str:
    templates = mockdata.SENTENCE_TEMPLATES
    rendered = [templates[i % len(templates)].format(seed=seed) for i in range(n)]
    return ";".join(rendered) + ";"
