"""Parallel corpora: sentence pairs, tokens, dedup, threshold splits, file formats.

A "token" throughout the toolkit is what tokenize() returns: a
whitespace-delimited unit after Unicode NFC normalization. Thresholds are
read as "first prefix reaching at least the threshold": the sentence that
crosses the line is kept.
"""

import errno
import json
import os
import random
import unicodedata
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Optional

from .errors import ConfigError, CorpusFormatError, EmptyCorpus, InsufficientData

ORIGIN_NATURAL = "natural"
ORIGIN_SYNTHETIC = "synthetic"


@dataclass(frozen=True)
class SentencePair:
    id: str
    source: str
    target: str
    origin: str = ORIGIN_NATURAL
    seed_word: Optional[str] = None

    def __post_init__(self):
        if self.origin not in (ORIGIN_NATURAL, ORIGIN_SYNTHETIC):
            raise ValueError(f"bad origin: {self.origin!r}")
        check_line(self.id, "pair ids")
        for side in (self.source, self.target):
            check_line(side, "source/target")
        if self.origin == ORIGIN_SYNTHETIC:
            if self.seed_word is None:
                raise ValueError("synthetic pairs must carry a seed_word")
            check_line(self.seed_word, "seed words")
        elif self.seed_word is not None:
            raise ValueError("natural pairs must not carry a seed_word")


def check_line(text, what: str) -> None:
    """ValueError unless text is a string that is non-empty after trimming and
    holds no line break, as every sentence of a corpus must be."""
    if not isinstance(text, str):
        raise ValueError(f"{what} must be strings, got {text!r}")
    if not text.strip():
        raise ValueError(f"{what} must be non-empty after trimming")
    if "\n" in text or "\r" in text:
        raise ValueError(f"{what} must be single-line")


@dataclass
class ParallelCorpus:
    pairs: list

    def __len__(self):
        return len(self.pairs)

    def source_lines(self):
        return [p.source for p in self.pairs]

    def target_lines(self):
        return [p.target for p in self.pairs]

    def source_token_count(self):
        return sum(len(tokenize(p.source)) for p in self.pairs)


@dataclass
class SplitSpec:
    train_token_threshold: int = 900_000
    valid_token_threshold: int = 100_000
    test_token_threshold: Optional[int] = None  # None: no test split
    rng_seed: int = 0


def normalize(text: str) -> str:
    return unicodedata.normalize("NFC", text).strip()


def tokenize(text: str) -> list:
    """The toolkit's tokens: NFC-normalize, then split on whitespace."""
    return normalize(text).split()


def dedup(items: Iterable, key: Callable) -> list:
    """Drop every item whose key(item) an earlier item already had, keeping order."""
    seen = set()
    kept = []
    for item in items:
        k = key(item)
        if k not in seen:
            seen.add(k)
            kept.append(item)
    return kept


def _take_until(pairs, threshold, name):
    """First prefix of pairs whose source tokens reach >= threshold, plus the
    rest. name is the split drawn, for the message when pairs fall short;
    None when pairs are the whole corpus, not what earlier splits left."""
    total = 0
    for i, pair in enumerate(pairs):
        total += len(tokenize(pair.source))
        if total >= threshold:
            return pairs[: i + 1], pairs[i + 1 :]
    held = (f"{total} source tokens left for {name}" if name
            else f"corpus has {total} source tokens")
    raise InsufficientData(f"{held}, threshold {threshold} not reachable")


def split_thresholds(spec: SplitSpec):
    """Each split that make_splits draws, in order, mapped to its threshold:
    "train", "valid" and, when spec has a test threshold, "test"."""
    thresholds = {"train": spec.train_token_threshold,
                  "valid": spec.valid_token_threshold,
                  "test": spec.test_token_threshold}
    return {name: t for name, t in thresholds.items() if t is not None}


def make_splits(corpus: ParallelCorpus, spec: SplitSpec):
    """Draw the splits of split_thresholds(spec), keyed by name, sequentially
    from one seeded shuffle: prefix consumption keeps them disjoint by id."""
    rest = list(corpus.pairs)
    random.Random(spec.rng_seed).shuffle(rest)
    splits = {}
    for name, threshold in split_thresholds(spec).items():
        split, rest = _take_until(rest, threshold, name if splits else None)
        splits[name] = ParallelCorpus(split)
    return splits


# ---------------------------------------------------------------------------
# On-disk formats: (a) line-aligned plain text pair, (b) JSON lines, (c) JSON.

@contextmanager
def _refused(verb, path):
    """Turn an OSError raised in the block into ConfigError naming path."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot {verb} {path}: {exc.strerror}") from None


@contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading.

    A file the OS will not open ends in ConfigError naming the path. Bytes
    that are not UTF-8 end in CorpusFormatError naming the path and the
    first line that holds them.
    """
    with _refused("read", path):
        fh = open(path, encoding="utf-8")
    try:
        with fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, 1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise CorpusFormatError(
                        f"{path}:{lineno}: not valid UTF-8 ({exc.reason})"
                    ) from None
        raise


def _temp(path: Path) -> Path:
    """The temp file open_atomic writes path's text into: <path>.tmp."""
    return path.with_name(path.name + ".tmp")


@contextmanager
def open_atomic(*paths, reads=()):
    """Open each of paths for writing UTF-8 text through a temp file beside
    it, <path>.tmp, creating its directory first. Yields the file of a
    single path, or a tuple of files in the order of paths.

    Every file named here is a different file: each of reads, the files
    the caller reads, each of paths and each <path>.tmp. Two names of one
    file (equal, or a symlink or hard link to it) are a ConfigError naming
    the file, raised before anything is opened or created.

    A directory the OS will not create, a temp file it will not open, or a
    path that is a directory (not a link to one), which os.replace would
    not replace, is a ConfigError naming the path, raised before the block
    runs. The temp files replace their paths only when the block ends
    without an error, and only after every one of them is closed. On an
    error, a KeyboardInterrupt included, every temp file opened and every
    directory created here is deleted, so each path keeps what it held.

    A replaced path survives a crash of the process, since os.replace
    swaps whole files. No fsync is made, of a file or of its directory, so
    after a power loss a replaced file may come back empty or short; a
    resumed hallucinate then refuses such a checkpoint as malformed (exit
    1), and its stage's requests are paid for again.
    """
    paths = [Path(p) for p in paths]
    named = {}  # identity: (name, written)
    for name, written in ([(Path(p), False) for p in reads]
                          + [(n, True) for p in paths for n in (p, _temp(p))]):
        if "\0" in str(name):  # which no OS call takes
            raise ConfigError(f"{str(name)!r} cannot name a file: it holds a NUL")
        keys = [os.path.realpath(name)]
        with suppress(OSError):  # a file that exists
            stat = os.stat(name)
            keys.append((stat.st_dev, stat.st_ino))
        for key in keys:
            if key in named:
                first, first_written = named[key]
                if first_written:
                    raise ConfigError(f"two outputs would be written to {name}")
                also = "" if name == first else f" (as {name})"
                raise ConfigError(f"input {first} would be "
                                  f"{'written' if written else 'read twice'}{also}")
            named[key] = name, written
    made, tmps, files = [], [], []  # made: directories, outermost first
    try:
        with ExitStack() as stack:
            for path in paths:
                tmp = _temp(path)
                with _refused("write", path):
                    if path.is_dir() and not path.is_symlink():
                        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR))
                    made += reversed([d for d in path.parents if not d.exists()])
                    path.parent.mkdir(parents=True, exist_ok=True)
                    files.append(stack.enter_context(
                        open(tmp, "w", encoding="utf-8", newline="\n")))
                tmps.append(tmp)
            yield files[0] if len(files) == 1 else tuple(files)
        for path, tmp in zip(paths, tmps):
            with _refused("write", path):
                os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        for directory in reversed(made):
            with suppress(OSError):  # not empty: another writer's file is in it
                directory.rmdir()
        raise


class _DryRun(Exception):
    """Ends check_writable's block, so open_atomic deletes what it made."""


def check_writable(*paths, reads=()):
    """Raise the ConfigError open_atomic(*paths, reads=reads) would raise,
    leaving nothing: a dry run that opens every temp file, then deletes them
    and each directory it made. For outputs written by more than one
    open_atomic call, as a run's checkpoints are, before the first of them."""
    with suppress(_DryRun), open_atomic(*paths, reads=reads):
        raise _DryRun


# the string encoder json.dumps uses when ensure_ascii is off
_encode_str = json.encoder.encode_basestring
# json.dumps(obj, ensure_ascii=False), without a new encoder for each call
_encode_json = json.JSONEncoder(ensure_ascii=False).encode


def _flat_json(record) -> str:
    """A flat record as json.dumps renders it at indent 2 in a list: a string,
    or a non-empty object whose keys and values are strings. TypeError for
    any other record, from the string encoder."""
    if isinstance(record, dict) and record:
        return "{\n    " + ",\n    ".join([_encode_str(k) + ": " + _encode_str(v)
                                        for k, v in record.items()]) + "\n  }"
    return _encode_str(record)


def write_json(fh, payload) -> None:
    """Write payload to the text file fh as indented JSON with a final newline.

    The bytes are json.dumps(payload, ensure_ascii=False, indent=2) + "\\n".
    A non-empty list must hold flat records only, as every checkpoint does:
    it is written one record at a time, without the pure-Python encoder that
    indent selects, and a record that is not flat is a TypeError.
    """
    if isinstance(payload, list) and payload:
        fh.write("[\n  " + _flat_json(payload[0]))
        fh.writelines(",\n  " + _flat_json(record)
                      for record in islice(payload, 1, None))
        fh.write("\n]\n")
    else:
        fh.write(json.dumps(payload, ensure_ascii=False, indent=2) + "\n")


def write_jsonl(corpus: ParallelCorpus, fh) -> None:
    """Write corpus to the text file fh, one JSON object per pair."""
    for p in corpus.pairs:
        record = {
            "id": p.id,
            "src": p.source,
            "tgt": p.target,
            "origin": p.origin,
            "seed_word": p.seed_word,
        }
        fh.write(_encode_json(record) + "\n")


def read_jsonl(path, seen=None) -> ParallelCorpus:
    """A corpus from JSON lines; a file of no pairs, which no command can
    work on, is EmptyCorpus. seen maps each pair id read so far to the
    (path, line) that gave it, and gains this file's ids: an id that repeats
    in this file is a CorpusFormatError, and one that seen holds from an
    earlier file a ConfigError naming both places."""
    pairs = []
    seen = {} if seen is None else seen
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            # ValueError: bad JSON, or an integer past Python's digit limit;
            # RecursionError: nesting deeper than the parser goes
            except (ValueError, RecursionError) as exc:
                raise CorpusFormatError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise CorpusFormatError(f"{path}:{lineno}: expected a JSON object")
            missing = {"id", "src", "tgt", "origin"} - record.keys()
            if missing:
                raise CorpusFormatError(
                    f"{path}:{lineno}: missing fields {sorted(missing)}"
                )
            try:
                pair = SentencePair(
                    id=record["id"],
                    source=record["src"],
                    target=record["tgt"],
                    origin=record["origin"],
                    seed_word=record.get("seed_word"),
                )
            except ValueError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: {exc}") from exc
            if pair.id in seen:
                first_path, first_line = seen[pair.id]
                if first_path != path:
                    raise ConfigError(f"{path}:{lineno}: pair id {pair.id!r} "
                                      f"repeats {first_path}:{first_line}")
                raise CorpusFormatError(f"{path}:{lineno}: pair id {pair.id!r} "
                                        f"repeats line {first_line}")
            seen[pair.id] = path, lineno
            pairs.append(pair)
    if not pairs:
        raise EmptyCorpus(f"empty corpus: {path}")
    return ParallelCorpus(pairs)


def write_plain_pair(corpus: ParallelCorpus, source_fh, target_fh) -> None:
    """Write the source sides to the text file source_fh and the target sides
    to target_fh, line i aligned to line i."""
    for fh, lines in ((source_fh, corpus.source_lines()),
                      (target_fh, corpus.target_lines())):
        for line in lines:
            fh.write(line + "\n")
