"""Every file writer goes through corpus.open_atomic: a write that fails
part-way keeps the bytes a file held before and leaves no temp file."""

from collections import Counter
from types import SimpleNamespace

import pytest

from corpus_forge import bpe, em
from corpus_forge.cli import _write_csv
from corpus_forge.corpus import (
    ORIGIN_SYNTHETIC,
    ParallelCorpus,
    SentencePair,
    write_jsonl,
    write_plain_pair,
)

PREVIOUS = "earlier contents\n"


def failing_jsonl(tmp_path):
    # the second record holds a seed word json cannot encode
    corpus = ParallelCorpus(
        [
            SentencePair(id="0", source="a", target="b"),
            SentencePair(id="1", source="c", target="d",
                         origin=ORIGIN_SYNTHETIC, seed_word=object()),
        ],
        "de", "en",
    )
    path = tmp_path / "corpus.jsonl"
    return path, lambda: write_jsonl(corpus, path)


def failing_plain_pair(tmp_path):
    corpus = SimpleNamespace(
        source_lang="de", target_lang="en",
        source_lines=lambda: ["a", None], target_lines=lambda: ["b", "d"],
    )
    return tmp_path / "pair.de", lambda: write_plain_pair(corpus, tmp_path / "pair")


def failing_csv(tmp_path):
    def rows():
        yield ["a", 1]
        raise RuntimeError("row source failed")

    path = tmp_path / "ttr.csv"
    return path, lambda: _write_csv(path, ["word", "count"], rows())


def failing_bpe_model(tmp_path):
    model = bpe.BpeModel(merges=[("a", "b"), ("c",)], vocab=Counter(),
                         target_vocab_size=10)
    path = tmp_path / "model.bpe"
    return path, lambda: bpe.save_model(model, path)


def failing_lexicon(tmp_path):
    model = em.LexiconModel(t={"a": {"b": 0.5, "c": "not a number"}},
                            log_likelihoods=[0.0])
    path = tmp_path / "model.lexicon"
    return path, lambda: em.save_model(model, path)


@pytest.mark.parametrize("make", [
    failing_jsonl, failing_plain_pair, failing_csv, failing_bpe_model,
    failing_lexicon,
], ids=["write_jsonl", "write_plain_pair", "write_csv", "bpe.save_model",
        "em.save_model"])
def test_failed_write_keeps_previous_file(tmp_path, make):
    path, write = make(tmp_path)
    path.write_text(PREVIOUS, encoding="utf-8")
    with pytest.raises(Exception):
        write()
    assert path.read_text(encoding="utf-8") == PREVIOUS
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
