"""corpus-forge: one binary with subcommands for every pipeline stage.

Exit codes: 0 success, 2 usage (bad flags), and for a CorpusForgeError the
exit_code of its class in errors.py. Stages communicate only through the
documented file formats, so each is independently rerunnable.
"""

import csv
import logging
import os
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
    split_thresholds,
    write_json,
    write_jsonl,
    write_plain_pair,
)
from .errors import ConfigError, CorpusForgeError, CorpusFormatError
from .gateway import Gateway, make_backend
from .hallucinate import run_pipeline

log = logging.getLogger(__name__)

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


class _Commands(click.Group):
    """A group whose commands end a CorpusForgeError in its class's exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except CorpusForgeError as exc:
            click.echo(f"{exc.label}: {exc}", err=True)
            # not ctx.exit, whose code click returns under standalone_mode=False
            sys.exit(exc.exit_code)


def config_options(fn):
    fn = click.option("--config", "config_path", type=FILE, default=None,
                      help="YAML run configuration.")(fn)
    fn = click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
                      help="Override a config key (dotted path).")(fn)
    return fn


def ignored_language_options(fn):
    """Accept --src and --tgt and ignore them: the benchmark's subword and
    study steps still pass them to bpe-train, sample, experiment and
    analyze."""
    for flag in ("--src", "--tgt"):
        fn = click.option(flag, hidden=True, expose_value=False)(fn)
    return fn


@click.group(cls=_Commands)
@click.option("-v", "--verbose", is_flag=True, help="Debug logging.")
def main(verbose):
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _file_name(ctx, param, value):
    """A value that is one file or directory name, or None when not given:
    non-empty, no path separator, neither "." nor ".."."""
    if value is not None and (value in ("", ".", "..") or "/" in value
                              or os.sep in value):
        raise click.BadParameter(
            f"{value!r} cannot be a file name: it must be non-empty, hold no "
            "path separator and be neither . nor ..")
    return value


@main.command()
@config_options
@click.option("--backend", type=click.Choice(["http", "mock"]), default=None,
              help="Override the configured backend.")
@click.option("--run-id", default=None, callback=_file_name,
              help="Run directory name.")
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
    click.echo(f"run directory: {run_dir}")
    click.echo(f"seeds: rng_seed={cfg.rng_seed} mock_seed={cfg.mock_seed}")
    splits, _ = run_pipeline(
        cfg.plan, cfg.templates, gateway, cfg.splits, run_dir,
        mock_seed=cfg.mock_seed if cfg.backend == "mock" else None,
        reads=filter(None, [config_path]),
    )
    for name, split in splits.items():
        click.echo(f"{name}: {len(split)} pairs")


@main.command()
@click.option("--input", "input_path", required=True, type=IN_FILE)
@ignored_language_options
@click.option("--train-tokens", type=click.IntRange(min=1), required=True)
@click.option("--valid-tokens", type=click.IntRange(min=1), required=True)
@click.option("--test-tokens", type=click.IntRange(min=1), default=None)
@click.option("--rng-seed", type=int, default=0)
@click.option("--out-dir", "out", required=True, type=DIR)
def sample(input_path, train_tokens, valid_tokens, test_tokens, rng_seed, out):
    """Sample train/valid(/test) splits from a JSON-lines corpus."""
    corpus = read_jsonl(input_path)
    spec = SplitSpec(
        train_token_threshold=train_tokens,
        valid_token_threshold=valid_tokens,
        test_token_threshold=test_tokens,
        rng_seed=rng_seed,
    )
    names = list(split_thresholds(spec))
    with open_atomic(*(out / f"{name}.jsonl" for name in names),
                     reads=[input_path]) as files:
        splits = make_splits(corpus, spec)
        for name, fh in zip(names, files):
            write_jsonl(splits[name], fh)
    for name, split in splits.items():
        click.echo(f"{name}: {len(split)} pairs, "
                   f"{split.source_token_count()} source tokens")


@main.command("bpe-train")
@click.option("--input", "input_paths", multiple=True, required=True,
              type=IN_FILE, help="Training corpora (JSON lines).")
@ignored_language_options
@click.option("--vocab-size", type=click.IntRange(min=1), default=16_000)
@click.option("--out", "model_path", required=True, type=FILE)
def bpe_train(input_paths, vocab_size, model_path):
    """Train a joint source-target BPE model on training corpora."""
    corpora = [read_jsonl(p) for p in input_paths]
    with open_atomic(model_path, reads=input_paths) as fh:
        model = bpe.train_bpe(corpora, vocab_size)
        bpe.save_model(model, fh)
    click.echo(
        f"trained {len(model.merges)} merges, "
        f"final symbol vocabulary {len(model.vocab)}"
    )


@main.command("bpe-apply")
@click.option("--model", "model_path", required=True, type=IN_FILE)
@click.option("--input", "input_path", required=True, type=IN_FILE)
@click.option("--output", "output_path", required=True, type=FILE)
def bpe_apply(model_path, input_path, output_path):
    """Encode a plain-text file line by line with a trained BPE model.

    A failure leaves no output behind: an existing output file keeps its contents.
    """
    model = bpe.load_model(model_path)
    with open_text(input_path) as src, \
            open_atomic(output_path, reads=[model_path, input_path]) as dst:
        for lineno, line in enumerate(src, 1):
            try:
                tokens = bpe.encode(model, line.rstrip("\n"))
            except CorpusFormatError as exc:
                raise CorpusFormatError(f"{input_path}:{lineno}: {exc}") from None
            dst.write(" ".join(tokens) + "\n")
    click.echo(f"encoded {input_path} -> {output_path}")


def _write_csv(fh, header, rows):
    """Write a CSV table to fh, quoting fields that hold commas or quotes."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _by_stem(input_paths):
    """Map each input's file stem, which labels its corpus, to its path."""
    by_stem = {}
    for path in input_paths:
        stem = Path(path).stem
        if stem in by_stem:
            raise ConfigError(f"inputs {by_stem[stem]} and {path} share a file stem")
        by_stem[stem] = path
    return by_stem


def _write_analysis(corpora_by_label, ttr_fh, zipf_fh):
    profiles = [
        (label, side, metrics.frequency_profile(lines))
        for label, corpus in corpora_by_label.items()
        for side, lines in (
            ("source", corpus.source_lines()),
            ("target", corpus.target_lines()),
        )
    ]
    _write_csv(
        ttr_fh,
        ["corpus", "side", "type_count", "token_count", "ttr"],
        (
            [label, side, p.type_count, p.token_count, f"{p.ttr:.6f}"]
            for label, side, p in profiles
        ),
    )
    _write_csv(
        zipf_fh,
        ["corpus", "side", "rank", "word", "frequency"],
        (
            [label, side, rank, word, freq]
            for label, side, p in profiles
            for rank, word, freq in p.rank_frequency
        ),
    )


@main.command()
@config_options
@click.option("--nat-train", required=True, type=IN_FILE)
@click.option("--syn-train", required=True, type=IN_FILE)
@click.option("--nat-valid", required=True, type=IN_FILE)
@click.option("--syn-valid", default=None, type=IN_FILE)
@click.option("--test", "test_path", required=True, type=IN_FILE)
@ignored_language_options
@click.option("--out-dir", "out", required=True, type=DIR)
def experiment(config_path, overrides, nat_train, syn_train, nat_valid, syn_valid,
               test_path, out):
    """Train Nat/Synth/Aug baselines, cross-evaluate, and profile diversity."""
    cfg = load_config(config_path, overrides)
    corpora = {
        "nat-train": read_jsonl(nat_train),
        "syn-train": read_jsonl(syn_train),
        "nat-valid": read_jsonl(nat_valid),
        "test": read_jsonl(test_path),
    }
    if syn_valid:
        corpora["syn-valid"] = read_jsonl(syn_valid)

    ttr, zipf = out / "ttr.csv", out / "zipf.csv"
    lexicons = [out / f"models/{label.lower()}.lexicon" for label in em.LABELS]
    # all seven replace their targets together; none is written to before
    # run_experiment forks the worker that writes Aug's lexicon
    reads = filter(None, (config_path, nat_train, syn_train, nat_valid, syn_valid,
                          test_path))
    with open_atomic(ttr, zipf, out / "results.md", out / "results.json", *lexicons,
                     reads=reads) as (ttr_fh, zipf_fh, md_fh, json_fh, *streams):
        _, matrix = em.run_experiment(
            corpora["nat-train"],
            corpora["syn-train"],
            corpora["nat-valid"],
            corpora["test"],
            cfg.em.iterations,
            syn_valid=corpora.get("syn-valid"),
            lexicons=dict(zip(em.LABELS, streams)),
        )
        _write_analysis(corpora, ttr_fh, zipf_fh)
        test_scores = [matrix.get(m, "Test") for m in ("Synth", "Nat", "Aug")]
        results_md = (
            "# Experiment results\n\n"
            "## Test-set scores\n\n"
            + metrics.render_score_row_markdown(["Synth", "Nat", "Aug"], test_scores)
            + "\n## Cross-method validation\n\n"
            + metrics.render_matrix_markdown(matrix)
        )
        md_fh.write(results_md)
        write_json(json_fh,
                   {"em_iterations": cfg.em.iterations, "matrix": matrix.to_dict()})
    click.echo(f"wrote {ttr} and {zipf}")
    click.echo(results_md)


@main.command()
@click.option("--input", "input_paths", multiple=True, required=True,
              type=IN_FILE)
@ignored_language_options
@click.option("--out-dir", "out", required=True, type=DIR)
def analyze(input_paths, out):
    """Emit TTR and rank-frequency statistics for one or more corpora."""
    corpora = {stem: read_jsonl(p) for stem, p in _by_stem(input_paths).items()}
    ttr, zipf = out / "ttr.csv", out / "zipf.csv"
    with open_atomic(ttr, zipf, reads=input_paths) as (ttr_fh, zipf_fh):
        _write_analysis(corpora, ttr_fh, zipf_fh)
    click.echo(f"wrote {ttr} and {zipf}")


@main.command()
@click.option("--input", "input_paths", multiple=True, required=True,
              type=IN_FILE, help="JSON-lines corpora.")
@click.option("--src", "source_lang", required=True, callback=_file_name)
@click.option("--tgt", "target_lang", required=True, callback=_file_name)
@click.option("--out-dir", "out", required=True, type=DIR)
def export(input_paths, source_lang, target_lang, out):
    """Write line-aligned text pairs plus reference training metadata.

    Every input is read and checked before any output replaces its target.
    """
    names = [out / f"{Path(path).stem}.{lang}" for path in input_paths
             for lang in (source_lang, target_lang)]
    with open_atomic(*names, out / "reference_transformer.json",
                     reads=input_paths) as (*pair_fhs, meta_fh):
        corpora = [read_jsonl(path) for path in input_paths]
        for i, corpus in enumerate(corpora):
            write_plain_pair(corpus, pair_fhs[2 * i], pair_fhs[2 * i + 1])
        write_json(meta_fh, REFERENCE_TRANSFORMER)
    for path, corpus in zip(input_paths, corpora):
        click.echo(f"exported {path} ({len(corpus)} pairs)")


if __name__ == "__main__":
    main()
