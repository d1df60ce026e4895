"""Every file writer goes through corpus.open_atomic: a write that fails
part-way keeps the bytes a file held before and leaves no temp file, and the
directories a file goes in are created with it."""

import os
import re
from collections import Counter
from types import SimpleNamespace

import pytest

from corpus_forge import bpe, em
from corpus_forge.cli import _write_csv
from corpus_forge.corpus import (
    ORIGIN_SYNTHETIC,
    SentencePair,
    check_writable,
    open_atomic,
    write_jsonl,
    write_plain_pair,
)
from corpus_forge.errors import ConfigError

PREVIOUS = "earlier contents\n"


def failing_jsonl(tmp_path):
    # the second record holds a seed word json cannot encode, which a
    # SentencePair refuses to hold
    corpus = SimpleNamespace(pairs=[
        SentencePair(id="0", source="a", target="b"),
        SimpleNamespace(id="1", source="c", target="d", origin=ORIGIN_SYNTHETIC,
                        seed_word=object()),
    ])
    path = tmp_path / "corpus.jsonl"
    return path, lambda: write_jsonl(corpus, path)


def failing_plain_pair(tmp_path):
    corpus = SimpleNamespace(source_lines=lambda: ["a", None],
                             target_lines=lambda: ["b", "d"])
    return tmp_path / "pair.de", lambda: write_plain_pair(
        corpus, tmp_path / "pair.de", tmp_path / "pair.en")


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
    # the header is written before the pairs are read, and the second pair
    # has no source text to tokenize
    corpus = SimpleNamespace(pairs=[SentencePair(id="0", source="a", target="b"),
                                    SimpleNamespace(source=None, target="d")])
    path = tmp_path / "model.lexicon"
    return path, lambda: em.save_model(corpus, 3, path)


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


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_open_atomic_failed_set_keeps_every_file(tmp_path, error):
    """An error in the block, or a KeyboardInterrupt, leaves every path of a
    set as it was: no temp file, and no directory the call created."""
    old, new = tmp_path / "old.txt", tmp_path / "new" / "deeper" / "new.txt"
    old.write_text(PREVIOUS, encoding="utf-8")
    with pytest.raises(error):
        with open_atomic(old, new) as (old_fh, new_fh):
            old_fh.write("text\n")
            new_fh.write("text\n")
            old_fh.flush()
            raise error()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.txt"]
    assert old.read_text(encoding="utf-8") == PREVIOUS


def test_open_atomic_set_replaces_every_file(tmp_path):
    paths = [tmp_path / "a.txt", tmp_path / "b" / "b.txt"]
    paths[0].write_text(PREVIOUS, encoding="utf-8")
    with open_atomic(*paths) as files:
        for path, fh in zip(paths, files):
            fh.write(path.name + "\n")
    for path in paths:
        assert path.read_text(encoding="utf-8") == path.name + "\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a.txt", "b", "b.txt"]


def test_open_atomic_refused_later_path_leaves_nothing(tmp_path):
    """A temp file the OS refuses ends the call before the block runs, and
    the temp files opened before it are deleted."""
    paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
    (tmp_path / "b.txt.tmp").mkdir()
    with pytest.raises(ConfigError, match=re.escape(f"cannot write {paths[1]}: ")):
        with open_atomic(*paths):
            pytest.fail("the block ran")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.txt.tmp"]


def test_open_atomic_creates_missing_directories(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    with open_atomic(path) as fh:
        fh.write("text\n")
    assert path.read_text(encoding="utf-8") == "text\n"
    assert sorted(p.name for p in path.parent.iterdir()) == ["out.txt"]


@pytest.mark.parametrize("arrange, where", [
    (lambda tmp_path: (tmp_path / "a").write_text("", encoding="utf-8"), "a/out.txt"),
    (lambda tmp_path: (tmp_path / "out.txt").mkdir(), "out.txt"),
], ids=["file-for-directory", "directory-for-file"])
def test_open_atomic_refused_is_a_config_error(tmp_path, arrange, where):
    """A directory the OS will not create, or a target it will not replace,
    ends in ConfigError naming the target, and no temp file is left."""
    arrange(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    path = tmp_path / where
    with pytest.raises(ConfigError, match="^" + re.escape(f"cannot write {path}: ")):
        with open_atomic(path) as fh:
            fh.write("text\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("where", ["a/out.txt", "a/b/c/out.txt"])
def test_check_writable_says_what_open_atomic_would(tmp_path, where):
    """Under a file, check_writable raises the ConfigError open_atomic
    raises, and creates nothing."""
    (tmp_path / "a").write_text("", encoding="utf-8")
    path = tmp_path / where
    with pytest.raises(ConfigError) as at_write:
        with open_atomic(path):
            pass
    with pytest.raises(ConfigError) as at_check:
        check_writable(path)
    assert str(at_check.value) == str(at_write.value)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a"]


def test_check_writable_refuses_a_directory_as_open_atomic_does(tmp_path):
    path = tmp_path / "out.txt"
    path.mkdir()
    with pytest.raises(ConfigError) as at_write:
        with open_atomic(path) as fh:
            fh.write("text\n")
    with pytest.raises(ConfigError) as at_check:
        check_writable(path)
    assert str(at_check.value) == str(at_write.value)
    assert str(at_check.value) == f"cannot write {path}: Is a directory"
    assert list(tmp_path.iterdir()) == [path]


def test_check_writable_passes_a_link_that_open_atomic_replaces(tmp_path):
    (tmp_path / "d").mkdir()
    link = tmp_path / "out.txt"
    link.symlink_to(tmp_path / "d")
    check_writable(link)
    with open_atomic(link) as fh:
        fh.write("text\n")
    assert not link.is_symlink()
    assert link.read_text(encoding="utf-8") == "text\n"


@pytest.mark.parametrize("where", ["out.txt", "new/deeper/out.txt"])
def test_check_writable_creates_nothing(tmp_path, where):
    check_writable(tmp_path / where)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write any directory")
def test_check_writable_refuses_a_read_only_directory(tmp_path):
    locked = tmp_path / "locked"
    locked.mkdir(mode=0o500)
    try:
        with pytest.raises(ConfigError, match="Permission denied"):
            check_writable(locked / "new" / "out.txt")
    finally:
        locked.chmod(0o700)
