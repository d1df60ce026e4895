"""Three-stage synthetic corpus generation: seed words, sentences, translations.

Each stage returns the JSON records that it checkpoints under the run
directory, so an interrupted run resumes without repeating paid API calls.
Responses are parsed defensively: when the expected delimiter yields fewer
than two items the parser falls back to line breaks, and numbered-list
prefixes are stripped. Each gateway worker parses the answer it receives
before it takes the next request, so a stage holds parsed answers and never
more than max_in_flight raw ones.
"""

import json
import logging
import re
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from . import prompts
from .corpus import (
    ORIGIN_SYNTHETIC,
    ParallelCorpus,
    SentencePair,
    SplitSpec,
    check_line,
    check_writable,
    dedup,
    make_splits,
    normalize,
    open_atomic,
    open_text,
    split_thresholds,
    write_json,
    write_jsonl,
)
from .errors import (
    AllSeedsFailed,
    AllTranslationsFailed,
    CorpusFormatError,
    EmptyResponse,
    InsufficientData,
)
from .gateway import ChatMessage, ChatRequest

log = logging.getLogger(__name__)

_NUMBERED_PREFIX = re.compile(r"^\s*\d+\s*[.):]\s*")
PAIR_ID = "syn-{:06d}"  # the pair id of sentence i, by its index i


@dataclass
class GenerationPlan:
    n_nouns: int = 600
    n_verbs: int = 600
    sentences_per_seed: int = 100
    source_lang: str = "de"
    target_lang: str = "en"
    generation_temperature: float = 1.0
    translation_temperature: float = 0.0
    model_name: str = "gpt-3.5-turbo"


@dataclass
class PipelineReport:
    seeds_requested: int = 0
    seeds_parsed: int = 0
    sentences_parsed: int = 0
    sentences_deduplicated: int = 0
    sentences_translated: int = 0
    pairs_sampled: int = 0
    sentence_failures: int = 0
    translation_failures: int = 0
    rng_seed: int = 0
    mock_seed: int = None
    insufficient_data: bool = False


def _clean_items(pieces):
    """The non-empty pieces, trimmed of spaces and of a numbered-list prefix.

    Each piece holds no whitespace but single spaces.
    """
    items = []
    for piece in pieces:
        item = piece.strip(" ")
        # isdigit() holds for every character \d matches
        if item[:1].isdigit():
            item = _NUMBERED_PREFIX.sub("", item)
        if item:
            items.append(item)
    return items


def parse_delimited(text: str, delimiter: str):
    """Split a response on its delimiter, trimming items and dropping empties.

    Whitespace runs become one space and a leading "N." / "N)" / "N:" is
    dropped. Falls back to splitting on line breaks when the delimiter yields
    fewer than two items (chat models sometimes ignore formatting
    instructions). The delimiter holds no whitespace.
    """
    # isprintable() is false for every whitespace character but the space, so
    # a stripped text that is printable and holds no double space is normalized
    core = text.strip()
    normal = (core if core.isprintable() and "  " not in core
              else " ".join(core.split()))
    items = _clean_items(normal.split(delimiter))
    if len(items) < 2:
        by_line = _clean_items(" ".join(line.split()) for line in text.splitlines())
        if len(by_line) > len(items):
            items = by_line
    return items


def _request(plan, temperature, system, user=None, assistant=None):
    """A stage's request: its system message, then the user text and the
    assistant message given.

    system and assistant are ChatMessages that a stage builds once and puts
    in each of its requests; only the user message is built per request.
    """
    messages = (system,) if user is None else (system, ChatMessage("user", user))
    if assistant is not None:
        messages += (assistant,)
    return ChatRequest(messages, plan.model_name, temperature)


def _answers(gateway, requests, what, subjects, parse):
    """(index, parse(response)) of each request that succeeded; each failure
    is logged."""
    answers = []
    for index, outcome in gateway.complete_batch(requests, parse):
        if isinstance(outcome, Exception):
            log.warning("%s failed for %r: %s", what, subjects[index], outcome)
        else:
            answers.append((index, outcome))
    return answers


def generate_seed_words(plan, templates, gateway):
    """One request for nouns and one for verbs; parse, combine, dedup.
    Returns the seed words; a failed request aborts the stage."""
    requests = [
        _request(plan, plan.generation_temperature,
                 ChatMessage("system",
                             prompts.render(templates.system_for(stage), n=n)))
        for stage, n in ((prompts.STAGE_SEED_NOUNS, plan.n_nouns),
                         (prompts.STAGE_SEED_VERBS, plan.n_verbs))
    ]
    seeds = []
    # parse_delimited is looked up at each call, where a tracer may wrap it
    for _, outcome in gateway.complete_batch(
            requests, lambda text: parse_delimited(text, ",")):
        if isinstance(outcome, Exception):
            raise outcome
        seeds.extend(outcome)
    # chat models vary the capitalization of one lemma
    deduped = dedup(seeds, key=lambda seed: normalize(seed).casefold())
    if not deduped:
        raise EmptyResponse("seed generation parsed to zero seeds")
    return deduped


def _distinct_sentences(text):
    """(the number of sentences parsed from a response, its distinct ones in
    the order they first appear)."""
    sentences = parse_delimited(text, ";")
    return len(sentences), list(dict.fromkeys(sentences))


def generate_sentences(seeds, plan, templates, gateway, report=None):
    """One request per seed; global sentence dedup. Returns {"seed", "sentence"}
    records, each sentence kept under the first seed that produced it, and
    sets report.sentences_parsed, the count before dedup."""
    system = ChatMessage("system", prompts.render(templates.sentences_system,
                                                  n=plan.sentences_per_seed))
    fewshot = (ChatMessage("assistant", templates.sentences_fewshot)
               if templates.sentences_fewshot else None)
    answers = _answers(
        gateway,
        [_request(plan, plan.generation_temperature, system, seed, fewshot)
         for seed in seeds],
        "sentence generation", seeds, _distinct_sentences)
    # each distinct sentence once, under the first seed that produced it: the
    # mock, like the chat models it stands in for, repeats itself heavily
    first_seed = {}
    parsed = 0
    for index, (count, sentences) in answers:
        seed = seeds[index]
        parsed += count
        for sentence in sentences:
            if sentence not in first_seed:
                first_seed[sentence] = seed
    if report is not None:
        report.sentences_parsed = parsed
    if not first_seed:
        raise AllSeedsFailed("no sentences produced by any seed")
    # equal text gives an equal key, so this keeps what deduplicating every
    # parsed sentence would
    return [{"seed": seed, "sentence": sentence}
            for sentence, seed in dedup(first_seed.items(),
                                        key=lambda p: normalize(p[0]))]


def translate_sentences(sentences, plan, templates, gateway):
    """One translation call per sentence record; failures dropped with a logged
    count. Returns {"id", "src", "tgt", "seed_word"} records, the one of
    sentence i holding the id PAIR_ID.format(i)."""
    system = ChatMessage("system", prompts.render(templates.translation_system,
                                                  src=plan.source_lang,
                                                  tgt=plan.target_lang))
    sources = [record["sentence"] for record in sentences]
    # the requests go once the batch returns, before the records are built
    answers = _answers(
        gateway,
        [_request(plan, plan.translation_temperature, system, source)
         for source in sources],
        "translation", sources, lambda text: " ".join(text.split()))
    records = []
    for index, target in answers:
        if target:
            records.append({"id": PAIR_ID.format(index), "src": sources[index],
                            "tgt": target, "seed_word": sentences[index]["seed"]})
    if len(records) < len(sentences):
        log.info("dropped %d failed translations", len(sentences) - len(records))
    if not records:
        raise AllTranslationsFailed("every translation request failed")
    return records


# ---------------------------------------------------------------------------
# Checkpointed pipeline

@contextmanager
def _checkpoint_errors(path):
    """Turn a ValueError raised in the block, or the RecursionError of JSON
    nested too deep to parse, into CorpusFormatError naming path."""
    try:
        yield
    except (ValueError, RecursionError) as exc:
        raise CorpusFormatError(f"{path}: malformed checkpoint: {exc}") from None


def _check_records(records, keys):
    """ValueError unless records is a non-empty list of lines, or of objects
    with lines at keys, a line being what check_line accepts, and no two
    records hold one line, or one line at keys[0]. No stage writes an empty
    list, a blank string, a line break or a seed, sentence or id twice."""
    if not isinstance(records, list):
        raise ValueError("expected a JSON list")
    if not records:
        raise ValueError("expected a non-empty JSON list, got []")
    first = {}  # each record's line, or its line at keys[0] -> its number
    for number, record in enumerate(records, 1):
        if keys and not isinstance(record, dict):
            raise ValueError(f"expected a JSON object, got {record!r}")
        for key in keys or (None,):
            value = record if key is None else record.get(key)
            if not isinstance(value, str):
                raise ValueError(f"expected strings, got {value!r} in {record!r}")
            check_line(value, repr(record) if key is None else f"{key} in {record!r}")
        unique = record[keys[0]] if keys else record
        if unique in first:
            raise ValueError(f"record {number} repeats {unique!r} of record "
                             f"{first[unique]}")
        first[unique] = number


def _check_agreement(path, records, agrees):
    """CorpusFormatError naming path and its first record for which agrees is
    false, one that the earlier checkpoints could not have produced."""
    with _checkpoint_errors(path):
        for number, record in enumerate(records, 1):
            if not agrees(record):
                raise ValueError(f"record {number} does not agree with the "
                                 f"earlier checkpoints: {record!r}")


def _stage(path: Path, produce, keys=()):
    """Load a stage's records from its checkpoint, or produce them and write one.

    The checkpoint is checked by _check_records(records, keys); a malformed
    one ends in CorpusFormatError. Returns (records, resumed).
    """
    if path.exists():
        with _checkpoint_errors(path):
            with open_text(path) as fh:
                records = json.load(fh)
            _check_records(records, keys)
        log.info("resumed %d records from %s", len(records), path)
        return records, True
    records = produce()
    with open_atomic(path) as fh:
        write_json(fh, records)
    return records, False


def run_pipeline(plan, templates, gateway, split_spec: SplitSpec, run_dir,
                 mock_seed=None, reads=()):
    """Chain the three stages, sample train/valid splits, persist everything.

    Returns (splits, report). The splits and the report are written as one
    set; when the generated corpus cannot meet the split thresholds, the
    report is written alone and InsufficientData raised. A file of the run
    that could not be written, or that is one of reads, the files the caller
    read, ends it before the first request. A resumed checkpoint that
    disagrees with an earlier one is malformed. The report counts what the
    checkpoints hold, but sentences_parsed is the count after dedup when
    sentences.json is resumed.
    """
    # every file the run writes, by its path in the run directory
    files = {name: Path(run_dir) / name for name in [
        "checkpoints/seeds.json", "checkpoints/sentences.json",
        "checkpoints/translations.json",
        *(f"corpora/{split}.jsonl" for split in split_thresholds(split_spec)),
        "reports/report.json"]}
    check_writable(*files.values(), reads=reads)

    report = PipelineReport(seeds_requested=plan.n_nouns + plan.n_verbs,
                            rng_seed=split_spec.rng_seed, mock_seed=mock_seed)
    started = time.monotonic()

    seeds, _ = _stage(files["checkpoints/seeds.json"],
                      lambda: generate_seed_words(plan, templates, gateway))
    report.seeds_parsed = len(seeds)

    sentences, resumed = _stage(
        files["checkpoints/sentences.json"],
        lambda: generate_sentences(seeds, plan, templates, gateway, report),
        keys=("sentence", "seed"),
    )
    if resumed:
        known = set(seeds)
        _check_agreement(files["checkpoints/sentences.json"], sentences,
                         lambda r: r["seed"] in known)
        report.sentences_parsed = len(sentences)
    report.sentences_deduplicated = len(sentences)
    report.sentence_failures = len(seeds) - len({r["seed"] for r in sentences})

    translations, resumed = _stage(
        files["checkpoints/translations.json"],
        lambda: translate_sentences(sentences, plan, templates, gateway),
        keys=("id", "src", "tgt", "seed_word"),
    )
    if resumed:
        origin = {PAIR_ID.format(i): (r["sentence"], r["seed"])
                  for i, r in enumerate(sentences)}
        _check_agreement(files["checkpoints/translations.json"], translations,
                         lambda r: origin.get(r["id"]) == (r["src"], r["seed_word"]))
    # _check_records has checked each field that SentencePair checks
    corpus = ParallelCorpus([
        SentencePair(id=r["id"], source=r["src"], target=r["tgt"],
                     origin=ORIGIN_SYNTHETIC, seed_word=r["seed_word"])
        for r in translations])
    report.sentences_translated = len(corpus)
    report.translation_failures = len(sentences) - len(corpus)

    try:
        splits = make_splits(corpus, split_spec)
    except InsufficientData:
        report.insufficient_data = True
        with open_atomic(files["reports/report.json"]) as fh:
            write_json(fh, asdict(report))
        raise

    report.pairs_sampled = sum(len(split) for split in splits.values())
    with open_atomic(*(files[f"corpora/{name}.jsonl"] for name in splits),
                     files["reports/report.json"]) as (*corpora, report_fh):
        for split, fh in zip(splits.values(), corpora):
            write_jsonl(split, fh)
        write_json(report_fh, asdict(report))
    log.info("pipeline finished in %.2fs", time.monotonic() - started)
    return splits, report
