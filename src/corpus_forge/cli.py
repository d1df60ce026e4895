"""corpus-forge: one binary with subcommands for every pipeline stage.

Exit codes: 0 success, 2 usage (bad flags), 3 configuration, 4 transport,
5 insufficient data, 1 internal error. Stages communicate only through the
documented file formats, so each is independently rerunnable.
"""

import csv
import functools
import logging
import sys
from pathlib import Path

import click

from . import bpe, em, metrics
from .config import load_config
from .corpus import (
    SplitSpec,
    make_splits,
    open_atomic,
    open_text,
    read_jsonl,
    write_json,
    write_jsonl,
    write_plain_pair,
)
from .errors import (
    ConfigError,
    CorpusForgeError,
    InsufficientData,
    TransportError,
)
from .gateway import Gateway, make_backend
from .hallucinate import run_pipeline

log = logging.getLogger(__name__)

EXIT_CONFIG = 3
EXIT_TRANSPORT = 4
EXIT_INSUFFICIENT_DATA = 5

# a directory given for a file, or a file for --out-dir, is a usage error
IN_FILE = click.Path(exists=True, dir_okay=False)
FILE = click.Path(dir_okay=False)  # --config, or a file to write
DIR = click.Path(file_okay=False, path_type=Path)

# reference transformer setup from the original experiments, exported as
# metadata so external NMT toolkits can replicate the full-scale training
REFERENCE_TRANSFORMER = {
    "architecture": "transformer",
    "attention_heads": 4,
    "layers": 3,
    "batch_size": 2000,
    "max_epochs": 100,
    "early_stopping": "validation-loss",
    "toolkit": "fairseq",
}


def mapped_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except InsufficientData as exc:
            click.echo(f"insufficient data: {exc}", err=True)
            sys.exit(EXIT_INSUFFICIENT_DATA)
        except TransportError as exc:
            click.echo(f"transport error: {exc}", err=True)
            sys.exit(EXIT_TRANSPORT)
        except CorpusForgeError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


def config_options(fn):
    fn = click.option("--config", "config_path", type=FILE, default=None,
                      help="YAML run configuration.")(fn)
    fn = click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
                      help="Override a config key (dotted path).")(fn)
    return fn


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Debug logging.")
def main(verbose):
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )


@main.command()
@config_options
@click.option("--backend", type=click.Choice(["http", "mock"]), default=None,
              help="Override the configured backend.")
@click.option("--run-id", default=None, help="Run directory name.")
@mapped_errors
def hallucinate(config_path, overrides, backend, run_id):
    """Generate a synthetic parallel corpus via the three-stage pipeline."""
    cfg = load_config(config_path, overrides)
    if backend:
        cfg.backend = backend
    backend_impl = make_backend(
        cfg.backend,
        config=cfg.http,
        templates=cfg.templates,
        mock_seed=cfg.mock_seed,
    )
    gateway = Gateway(backend_impl, max_in_flight=cfg.http.max_in_flight)
    if run_id is None:
        run_id = f"run-s{cfg.rng_seed}-m{cfg.mock_seed}"
    run_dir = Path(cfg.paths.run_root) / run_id
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"paths.run_root: cannot create run directory {run_dir}: {exc.strerror}"
        ) from None
    click.echo(f"run directory: {run_dir}")
    click.echo(f"seeds: rng_seed={cfg.rng_seed} mock_seed={cfg.mock_seed}")
    splits, _ = run_pipeline(
        cfg.plan, cfg.templates, gateway, cfg.splits, run_dir,
        mock_seed=cfg.mock_seed if cfg.backend == "mock" else None,
    )
    for name, split in splits.items():
        click.echo(f"{name}: {len(split)} pairs")


@main.command()
@click.option("--input", "input_path", required=True, type=IN_FILE)
@click.option("--src", "source_lang", required=True)
@click.option("--tgt", "target_lang", required=True)
@click.option("--train-tokens", type=click.IntRange(min=1), required=True)
@click.option("--valid-tokens", type=click.IntRange(min=1), required=True)
@click.option("--test-tokens", type=click.IntRange(min=1), default=None)
@click.option("--rng-seed", type=int, default=0)
@click.option("--out-dir", "out", required=True, type=DIR)
@mapped_errors
def sample(input_path, source_lang, target_lang, train_tokens, valid_tokens,
           test_tokens, rng_seed, out):
    """Sample train/valid(/test) splits from a JSON-lines corpus."""
    corpus = read_jsonl(input_path, source_lang, target_lang)
    spec = SplitSpec(
        train_token_threshold=train_tokens,
        valid_token_threshold=valid_tokens,
        test_token_threshold=test_tokens,
        rng_seed=rng_seed,
    )
    splits = make_splits(corpus, spec)
    out.mkdir(parents=True, exist_ok=True)
    for name, split in splits.items():
        write_jsonl(split, out / f"{name}.jsonl")
        click.echo(f"{name}: {len(split)} pairs, "
                   f"{split.source_token_count()} source tokens")


@main.command("bpe-train")
@click.option("--input", "input_paths", multiple=True, required=True,
              type=IN_FILE, help="Training corpora (JSON lines).")
@click.option("--src", "source_lang", required=True)
@click.option("--tgt", "target_lang", required=True)
@click.option("--vocab-size", type=click.IntRange(min=1), default=16_000)
@click.option("--out", "model_path", required=True, type=FILE)
@mapped_errors
def bpe_train(input_paths, source_lang, target_lang, vocab_size, model_path):
    """Train a joint source-target BPE model on training corpora."""
    corpora = [read_jsonl(p, source_lang, target_lang) for p in input_paths]
    model = bpe.train_bpe(corpora, vocab_size)
    bpe.save_model(model, model_path)
    click.echo(
        f"trained {len(model.merges)} merges, "
        f"final symbol vocabulary {len(model.vocab)}"
    )


@main.command("bpe-apply")
@click.option("--model", "model_path", required=True, type=IN_FILE)
@click.option("--input", "input_path", required=True, type=IN_FILE)
@click.option("--output", "output_path", required=True, type=FILE)
@mapped_errors
def bpe_apply(model_path, input_path, output_path):
    """Encode a plain-text file line by line with a trained BPE model.

    A failure leaves no output behind: an existing output file keeps its contents.
    """
    model = bpe.load_model(model_path)
    with open_text(input_path) as src, open_atomic(output_path) as dst:
        for line in src:
            dst.write(" ".join(bpe.encode(model, line.rstrip("\n"))) + "\n")
    click.echo(f"encoded {input_path} -> {output_path}")


def _write_csv(path, header, rows):
    """Write a CSV file atomically, quoting fields that hold commas or quotes."""
    with open_atomic(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _by_stem(input_paths):
    """Map each input's file stem, which names its outputs, to its path."""
    by_stem = {}
    for path in input_paths:
        stem = Path(path).stem
        if stem in by_stem:
            raise ConfigError(f"inputs {by_stem[stem]} and {path} share a file stem")
        by_stem[stem] = path
    return by_stem


def _write_analysis(corpora_by_label, out_dir):
    ttr_path = out_dir / "ttr.csv"
    zipf_path = out_dir / "zipf.csv"
    profiles = [
        (label, side, metrics.frequency_profile(lines))
        for label, corpus in corpora_by_label.items()
        for side, lines in (
            ("source", corpus.source_lines()),
            ("target", corpus.target_lines()),
        )
    ]
    _write_csv(
        ttr_path,
        ["corpus", "side", "type_count", "token_count", "ttr"],
        (
            [label, side, p.type_count, p.token_count, f"{p.ttr:.6f}"]
            for label, side, p in profiles
        ),
    )
    _write_csv(
        zipf_path,
        ["corpus", "side", "rank", "word", "frequency"],
        (
            [label, side, rank, word, freq]
            for label, side, p in profiles
            for rank, word, freq in p.rank_frequency
        ),
    )
    click.echo(f"wrote {ttr_path} and {zipf_path}")


@main.command()
@config_options
@click.option("--nat-train", required=True, type=IN_FILE)
@click.option("--syn-train", required=True, type=IN_FILE)
@click.option("--nat-valid", required=True, type=IN_FILE)
@click.option("--syn-valid", default=None, type=IN_FILE)
@click.option("--test", "test_path", required=True, type=IN_FILE)
@click.option("--src", "source_lang", required=True)
@click.option("--tgt", "target_lang", required=True)
@click.option("--out-dir", "out", required=True, type=DIR)
@mapped_errors
def experiment(config_path, overrides, nat_train, syn_train, nat_valid, syn_valid,
               test_path, source_lang, target_lang, out):
    """Train Nat/Synth/Aug baselines, cross-evaluate, and profile diversity."""
    cfg = load_config(config_path, overrides)
    load = lambda p: read_jsonl(p, source_lang, target_lang)
    corpora = {
        "nat-train": load(nat_train),
        "syn-train": load(syn_train),
        "nat-valid": load(nat_valid),
        "test": load(test_path),
    }
    if syn_valid:
        corpora["syn-valid"] = load(syn_valid)

    # run_experiment refuses overlapping corpora and returns once every fit
    # has; nothing is written before it
    fits, matrix = em.run_experiment(
        corpora["nat-train"],
        corpora["syn-train"],
        corpora["nat-valid"],
        corpora["test"],
        cfg.em.iterations,
        syn_valid=corpora.get("syn-valid"),
    )
    out.mkdir(parents=True, exist_ok=True)
    _write_analysis(corpora, out)
    models_dir = out / "models"
    models_dir.mkdir(exist_ok=True)
    for label, fit in fits.items():
        with open_atomic(models_dir / f"{label.lower()}.lexicon") as fh:
            fh.write(fit.lexicon)

    test_scores = [matrix.get(m, "Test") for m in ("Synth", "Nat", "Aug")]
    results_md = (
        "# Experiment results\n\n"
        "## Test-set scores\n\n"
        + metrics.render_score_row_markdown(["Synth", "Nat", "Aug"], test_scores)
        + "\n## Cross-method validation\n\n"
        + metrics.render_matrix_markdown(matrix)
    )
    with open_atomic(out / "results.md") as fh:
        fh.write(results_md)
    write_json(
        out / "results.json",
        {"em_iterations": cfg.em.iterations, "matrix": matrix.to_dict()},
    )
    click.echo(results_md)


@main.command()
@click.option("--input", "input_paths", multiple=True, required=True,
              type=IN_FILE)
@click.option("--src", "source_lang", required=True)
@click.option("--tgt", "target_lang", required=True)
@click.option("--out-dir", "out", required=True, type=DIR)
@mapped_errors
def analyze(input_paths, source_lang, target_lang, out):
    """Emit TTR and rank-frequency statistics for one or more corpora."""
    corpora = {
        stem: read_jsonl(p, source_lang, target_lang)
        for stem, p in _by_stem(input_paths).items()
    }
    out.mkdir(parents=True, exist_ok=True)
    _write_analysis(corpora, out)


@main.command()
@click.option("--input", "input_paths", multiple=True, required=True,
              type=IN_FILE, help="JSON-lines corpora.")
@click.option("--src", "source_lang", required=True)
@click.option("--tgt", "target_lang", required=True)
@click.option("--out-dir", "out", required=True, type=DIR)
@mapped_errors
def export(input_paths, source_lang, target_lang, out):
    """Write line-aligned text pairs plus reference training metadata.

    Every input is read and checked before anything is written.
    """
    by_stem = _by_stem(input_paths)
    corpora = {}
    for stem, path in by_stem.items():
        corpora[stem] = read_jsonl(path, source_lang, target_lang)
        if len(corpora[stem]) == 0:
            raise ConfigError(f"refusing to export empty corpus: {path}")
    out.mkdir(parents=True, exist_ok=True)
    for stem, corpus in corpora.items():
        write_plain_pair(corpus, out / stem)
        click.echo(f"exported {by_stem[stem]} ({len(corpus)} pairs)")
    write_json(out / "reference_transformer.json", REFERENCE_TRANSFORMER)


if __name__ == "__main__":
    main()
