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

    def __post_init__(self):
        ids = [p.id for p in self.pairs]
        if len(set(ids)) != len(ids):
            raise ValueError("pair ids must be unique")

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


def _take_until(pairs, threshold):
    """First prefix of pairs whose source tokens reach >= threshold, plus the rest."""
    total = 0
    for i, pair in enumerate(pairs):
        total += len(tokenize(pair.source))
        if total >= threshold:
            return pairs[: i + 1], pairs[i + 1 :]
    raise InsufficientData(
        f"corpus has {total} source tokens, threshold {threshold} not reachable"
    )


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
        split, rest = _take_until(rest, threshold)
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


@contextmanager
def open_atomic(*paths):
    """Open each of paths for writing UTF-8 text through a temp file beside
    it, <path>.tmp, creating its directory first. Yields the file of a
    single path, or a tuple of files in the order of paths.

    The temp files replace their paths only when the block ends without an
    error, and only after every one of them is closed. On an error, a
    KeyboardInterrupt included, every temp file opened and every directory
    created here is deleted, so each path keeps whatever it held before. A
    directory, temp file or replacement the OS refuses is a ConfigError.
    """
    paths = [Path(p) for p in paths]
    made, tmps, files = [], [], []  # made: directories, outermost first
    try:
        with ExitStack() as stack:
            for path in paths:
                tmp = path.with_name(path.name + ".tmp")
                with _refused("write", path):
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


def check_writable(*paths):
    """Raise the ConfigError open_atomic would raise for the first of paths
    that it cannot write, creating nothing.

    A path cannot be written when its directory cannot be created or written
    in, or when the path is itself a directory. Each command calls this
    first, with every path it writes, so an output under a file, in a
    directory it may not write, or in a directory's place costs no work and
    leaves no earlier output behind.
    """
    for path in map(Path, paths):
        directory = path.parent  # the nearest directory that exists decides
        while not os.path.exists(directory) and directory != directory.parent:
            directory = directory.parent
        if not os.path.isdir(directory):
            # as mkdir says: a file is in the way if it has the directory's name
            reason = errno.EEXIST if directory == path.parent else errno.ENOTDIR
        elif not os.access(directory, os.W_OK | os.X_OK):
            reason = errno.EACCES
        elif os.path.isdir(path) and not os.path.islink(path):
            # os.replace puts a file in place of a link, never of a directory
            reason = errno.EISDIR
        else:
            continue
        raise ConfigError(f"cannot write {path}: {os.strerror(reason)}")


# the string encoder json.dumps uses when ensure_ascii is off
_encode_str = json.encoder.encode_basestring
# json.dumps(obj, ensure_ascii=False), without a new encoder for each call
_encode_json = json.JSONEncoder(ensure_ascii=False).encode


def _is_flat_record(record) -> bool:
    """A string, or a non-empty object whose keys and values are strings."""
    if isinstance(record, str):
        return True
    return (isinstance(record, dict) and bool(record)
            and all(isinstance(k, str) and isinstance(v, str)
                    for k, v in record.items()))


def write_json(path, payload) -> None:
    """Write payload as indented UTF-8 JSON, atomically, with a final newline.

    The bytes are json.dumps(payload, ensure_ascii=False, indent=2) + "\\n".
    A non-empty list of flat records, as every checkpoint is, is written one
    record at a time, without the pure-Python encoder that indent selects.
    """
    with open_atomic(path) as fh:
        if not (isinstance(payload, list) and payload
                and all(map(_is_flat_record, payload))):
            fh.write(json.dumps(payload, ensure_ascii=False, indent=2) + "\n")
            return
        separator = "[\n  "
        for record in payload:
            if isinstance(record, str):
                fh.write(separator + _encode_str(record))
            else:
                fields = ",\n    ".join([_encode_str(k) + ": " + _encode_str(v)
                                         for k, v in record.items()])
                fh.write(separator + "{\n    " + fields + "\n  }")
            separator = ",\n  "
        fh.write("\n]\n")


def write_jsonl(corpus: ParallelCorpus, path) -> None:
    with open_atomic(path) as fh:
        for p in corpus.pairs:
            record = {
                "id": p.id,
                "src": p.source,
                "tgt": p.target,
                "origin": p.origin,
                "seed_word": p.seed_word,
            }
            fh.write(_encode_json(record) + "\n")


def read_jsonl(path) -> ParallelCorpus:
    """A corpus from JSON lines; a pair id that repeats is a CorpusFormatError,
    and a file of no pairs, which no command can work on, is EmptyCorpus."""
    pairs = []
    first_line = {}  # pair id -> the line that gave it first
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
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
            if pair.id in first_line:
                raise CorpusFormatError(
                    f"{path}:{lineno}: pair id {pair.id!r} repeats line "
                    f"{first_line[pair.id]}"
                )
            first_line[pair.id] = lineno
            pairs.append(pair)
    if not pairs:
        raise EmptyCorpus(f"empty corpus: {path}")
    return ParallelCorpus(pairs)


def write_plain_pair(corpus: ParallelCorpus, source_path, target_path) -> None:
    """Write the source sides to source_path and the target sides to
    target_path, line i aligned to line i, both or neither."""
    with open_atomic(source_path, target_path) as files:
        for fh, lines in zip(files, (corpus.source_lines(), corpus.target_lines())):
            for line in lines:
                fh.write(line + "\n")
