import csv
import json
import os
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import in_worker, make_corpus, make_experiment_fixture
from corpus_forge import em
from corpus_forge.cli import (
    EXIT_CONFIG,
    EXIT_INSUFFICIENT_DATA,
    main,
)
from corpus_forge.corpus import read_jsonl, write_jsonl


@pytest.fixture
def runner():
    return CliRunner()


MOCK_ARGS = [
    "--set", "plan.n_nouns=5",
    "--set", "plan.n_verbs=5",
    "--set", "plan.sentences_per_seed=4",
    "--set", "splits.train_token_threshold=60",
    "--set", "splits.valid_token_threshold=20",
]


# every template is set, so a test's one bad template setting is the only error
ALL_TEMPLATES = [
    "--set", "templates.seed_nouns_system=Give {n} nouns",
    "--set", "templates.seed_verbs_system=Give {n} verbs",
    "--set", "templates.sentences_system=Give {n} sentences",
    "--set", "templates.translation_system=Translate {src} to {tgt}",
]


def hallucinate_args(run_root, run_id="r1", extra=()):
    return (
        ["hallucinate", "--backend", "mock", "--run-id", run_id,
         "--set", f"paths.run_root={run_root}"]
        + MOCK_ARGS
        + list(extra)
    )


def snapshot(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


class TestHallucinate:
    def test_mock_run_produces_artifacts(self, runner, tmp_path):
        result = runner.invoke(main, hallucinate_args(tmp_path / "runs"))
        assert result.exit_code == 0, result.output
        run_dir = tmp_path / "runs" / "r1"
        assert (run_dir / "corpora" / "train.jsonl").exists()
        assert (run_dir / "corpora" / "valid.jsonl").exists()
        assert (run_dir / "reports" / "report.json").exists()

    def test_idempotent_given_fixed_seeds(self, runner, tmp_path):
        assert runner.invoke(
            main, hallucinate_args(tmp_path / "runs", "a")
        ).exit_code == 0
        assert runner.invoke(
            main, hallucinate_args(tmp_path / "runs", "b")
        ).exit_code == 0
        assert snapshot(tmp_path / "runs" / "a") == snapshot(tmp_path / "runs" / "b")

    def test_missing_api_key_http_backend(self, runner, tmp_path, monkeypatch):
        monkeypatch.delenv("LLM_API_KEY", raising=False)
        result = runner.invoke(
            main,
            hallucinate_args(tmp_path / "runs", extra=["--backend", "http"])[0:]
        )
        # --backend appears twice; the later http wins
        assert result.exit_code == EXIT_CONFIG

    @pytest.mark.parametrize("setting", [
        "http.max_in_flight=2.5",
        "http.max_in_flight=true",
        "http.max_in_flight=0",
        "http.max_retries=1.5",
        "http.max_retries=true",
    ])
    def test_non_integer_http_counts_are_config_errors(self, runner, tmp_path,
                                                       setting):
        result = runner.invoke(
            main, hallucinate_args(tmp_path / "runs", extra=["--set", setting])
        )
        assert result.exit_code == EXIT_CONFIG, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        key = setting.split("=")[0]
        assert f"config error: invalid configuration: {key} must be" in result.output

    @pytest.mark.parametrize("setting, message", [
        ("templates.seed_nouns_system=5",
         "templates.seed_nouns_system must be a string, got 5"),
        ("templates.sentences_fewshot=[a]",
         "templates.sentences_fewshot must be a string, got ['a']"),
        ("plan.n_nouns=2.5", "plan.n_nouns must be an integer, got 2.5"),
        ("plan.n_nouns=true", "plan.n_nouns must be an integer, got True"),
        ("plan.sentences_per_seed=0", "plan.sentences_per_seed must be >= 1"),
        ("mock_seed=2.7", "mock_seed must be an integer, got 2.7"),
        ("rng_seed=false", "rng_seed must be an integer, got False"),
    ])
    def test_mistyped_config_values_are_config_errors(self, runner, tmp_path,
                                                      setting, message):
        run_root = tmp_path / "runs"
        result = runner.invoke(main, hallucinate_args(
            run_root, extra=ALL_TEMPLATES + ["--set", setting]))
        assert result.exit_code == EXIT_CONFIG, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        assert f"config error: invalid configuration: {message}" in result.output
        assert not run_root.exists()

    # Every setting with a value of the wrong type and, where the setting has
    # a lower bound, a value below it. Listed by hand, so that a setting
    # whose check goes missing fails here.
    @pytest.mark.parametrize("setting", [
        "backend=5",
        "mock_seed=2.7",
        "rng_seed=false",
        "http.endpoint_url=5",
        "http.api_key_source=[LLM_API_KEY]",
        "http.max_in_flight=2.5", "http.max_in_flight=0",
        "http.max_retries=true", "http.max_retries=-1",
        "http.backoff_base=slow", "http.backoff_base=-1",
        "http.timeout=slow", "http.timeout=0",
        "plan.n_nouns=2.5", "plan.n_nouns=0",
        "plan.n_verbs=true", "plan.n_verbs=0",
        "plan.sentences_per_seed='4'", "plan.sentences_per_seed=0",
        "plan.source_lang=5",
        "plan.target_lang=[en]",
        "plan.generation_temperature=hot", "plan.generation_temperature=-0.5",
        "plan.translation_temperature=.nan", "plan.translation_temperature=-1",
        "plan.model_name=5",
        "templates.seed_nouns_system=5", "templates.seed_nouns_system=''",
        "templates.seed_verbs_system=true", "templates.seed_verbs_system=''",
        "templates.sentences_system=[a]", "templates.sentences_system=''",
        "templates.translation_system=1.5", "templates.translation_system=''",
        "templates.sentences_fewshot={a: b}",
        "splits.train_token_threshold=true", "splits.train_token_threshold=0",
        "splits.valid_token_threshold=2.5", "splits.valid_token_threshold=0",
        "em.iterations=2.7", "em.iterations=0",
        "paths.run_root=5",
    ])
    def test_every_setting_is_checked(self, runner, tmp_path, monkeypatch, setting):
        monkeypatch.chdir(tmp_path)  # a run_root of 5 would land here
        result = runner.invoke(main, hallucinate_args(
            tmp_path / "runs", extra=ALL_TEMPLATES + ["--set", setting]))
        assert result.exit_code == EXIT_CONFIG, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        key = setting.split("=")[0]
        assert f"config error: invalid configuration: {key} must be" in result.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("setting", [
        "splits.rng_seed=3",  # the split seed is the top-level rng_seed
        "splits.test_token_threshold=10",  # hallucinate draws no test split
        "templates.sentence_fewshot=x",
        "em.iteration=3",
        "paths.root=x",
        "http.retries=2",
        "plan.nouns=3",
    ])
    def test_unknown_settings_are_config_errors(self, runner, tmp_path, setting):
        run_root = tmp_path / "runs"
        result = runner.invoke(main, hallucinate_args(
            run_root, extra=ALL_TEMPLATES + ["--set", setting]))
        assert result.exit_code == EXIT_CONFIG, result.output
        key = setting.split("=")[0]
        message = f"config error: invalid configuration: unknown setting {key}\n"
        assert message in result.output
        assert not run_root.exists()

    def test_config_file_not_valid_yaml(self, runner, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text("em: [\n", encoding="utf-8")
        run_root = tmp_path / "runs"
        result = runner.invoke(main, hallucinate_args(
            run_root, extra=["--config", str(config)]))
        assert result.exit_code == EXIT_CONFIG, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        assert "config error: config file is not valid YAML" in result.output
        assert not run_root.exists()

    def test_insufficient_data_exit_code(self, runner, tmp_path):
        args = hallucinate_args(
            tmp_path / "runs",
            extra=["--set", "splits.train_token_threshold=100000"],
        )
        result = runner.invoke(main, args)
        assert result.exit_code == EXIT_INSUFFICIENT_DATA


@pytest.fixture
def fixture_paths(tmp_path):
    fx = make_experiment_fixture()
    paths = {}
    for name, corpus in fx.items():
        path = tmp_path / f"{name}.jsonl"
        write_jsonl(corpus, path)
        paths[name] = path
    return paths


class TestSample:
    def test_splits_written(self, runner, tmp_path, fixture_paths):
        out = tmp_path / "splits"
        result = runner.invoke(main, [
            "sample", "--input", str(fixture_paths["nat_train"]),
            "--src", "de", "--tgt", "en",
            "--train-tokens", "100", "--valid-tokens", "40",
            "--rng-seed", "1", "--out-dir", str(out),
        ])
        assert result.exit_code == 0, result.output
        train = read_jsonl(out / "train.jsonl", "de", "en")
        valid = read_jsonl(out / "valid.jsonl", "de", "en")
        assert train.source_token_count() >= 100
        assert valid.source_token_count() >= 40
        assert not {p.id for p in train.pairs} & {p.id for p in valid.pairs}


    @pytest.mark.parametrize("flag, value", [
        ("--train-tokens", "0"),
        ("--valid-tokens", "-3"),
        ("--test-tokens", "0"),
    ])
    def test_thresholds_below_one_are_usage_errors(self, runner, tmp_path,
                                                   fixture_paths, flag, value):
        out = tmp_path / "splits"
        tokens = {"--train-tokens": "100", "--valid-tokens": "40",
                  "--test-tokens": "20", flag: value}
        result = runner.invoke(main, [
            "sample", "--input", str(fixture_paths["nat_train"]),
            "--src", "de", "--tgt", "en", "--out-dir", str(out),
        ] + [arg for item in tokens.items() for arg in item])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"Invalid value for '{flag}'" in result.output
        assert not out.exists()


class TestBpeCommands:
    def test_train_and_apply(self, runner, tmp_path, fixture_paths):
        model_path = tmp_path / "model.bpe"
        result = runner.invoke(main, [
            "bpe-train", "--input", str(fixture_paths["nat_train"]),
            "--src", "de", "--tgt", "en",
            "--vocab-size", "80", "--out", str(model_path),
        ])
        assert result.exit_code == 0, result.output
        text_in = tmp_path / "in.txt"
        text_in.write_text("quell1 quell2\n", encoding="utf-8")
        text_out = tmp_path / "out.txt"
        result = runner.invoke(main, [
            "bpe-apply", "--model", str(model_path),
            "--input", str(text_in), "--output", str(text_out),
        ])
        assert result.exit_code == 0, result.output
        encoded = text_out.read_text(encoding="utf-8").strip()
        assert encoded.replace("@@ ", "") == "quell1 quell2"

    @pytest.mark.parametrize("vocab_size", ["0", "-3"])
    def test_vocab_size_below_one_is_a_usage_error(self, runner, tmp_path,
                                                   fixture_paths, vocab_size):
        model_path = tmp_path / "model.bpe"
        result = runner.invoke(main, [
            "bpe-train", "--input", str(fixture_paths["nat_train"]),
            "--src", "de", "--tgt", "en",
            "--vocab-size", vocab_size, "--out", str(model_path),
        ])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Invalid value for '--vocab-size'" in result.output
        assert not model_path.exists()


class TestExperiment:
    def experiment_args(self, fixture_paths, out_dir, extra=()):
        return [
            "experiment",
            "--nat-train", str(fixture_paths["nat_train"]),
            "--syn-train", str(fixture_paths["syn_train"]),
            "--nat-valid", str(fixture_paths["nat_valid"]),
            "--syn-valid", str(fixture_paths["syn_valid"]),
            "--test", str(fixture_paths["test"]),
            "--src", "de", "--tgt", "en",
            "--out-dir", str(out_dir),
            "--set", "em.iterations=8",
        ] + list(extra)

    def test_full_run_outputs(self, runner, tmp_path, fixture_paths):
        out = tmp_path / "results"
        result = runner.invoke(
            main, self.experiment_args(fixture_paths, out)
        )
        assert result.exit_code == 0, result.output
        results_md = (out / "results.md").read_text(encoding="utf-8")
        assert "| Synth | Nat | Aug |" in results_md
        assert "| Model |" in results_md
        payload = json.loads((out / "results.json").read_text(encoding="utf-8"))
        assert len(payload["matrix"]["cells"]) == 9
        assert (out / "ttr.csv").exists()
        assert (out / "zipf.csv").exists()
        assert (out / "models" / "aug.lexicon").exists()

    @pytest.mark.parametrize("setting, message", [
        ("em=5", "em must be a mapping, got 5"),
        ("paths=5", "paths must be a mapping, got 5"),
        ("templates=5", "templates must be a mapping, got 5"),
        ("em.iterations=0", "em.iterations must be >= 1"),
        ("em.iterations=2.7", "em.iterations must be an integer, got 2.7"),
        ("em.iterations=true", "em.iterations must be an integer, got True"),
        ("em.iterations='3'", "em.iterations must be an integer, got '3'"),
        ("em.iterations=[", "config error: override em.iterations is not valid YAML"),
    ])
    def test_malformed_config_is_a_config_error(self, runner, tmp_path,
                                                fixture_paths, setting, message):
        out = tmp_path / "results"
        result = runner.invoke(
            main, self.experiment_args(fixture_paths, out, ["--set", setting])
        )
        assert result.exit_code == EXIT_CONFIG, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        assert message in result.output
        assert not out.exists()

    def test_config_file_not_utf8(self, runner, tmp_path, fixture_paths):
        config = tmp_path / "run.yaml"
        config.write_bytes(b"em:\n  iterations: 3 # \xff\n")
        out = tmp_path / "results"
        result = runner.invoke(
            main, self.experiment_args(fixture_paths, out, ["--config", str(config)])
        )
        assert result.exit_code == EXIT_CONFIG, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"config error: config file is not UTF-8: {config}" in result.output
        assert not out.exists()

    def test_training_eval_overlap_rejected(self, runner, tmp_path, fixture_paths):
        # no pair id may be in two inputs: train and eval, two training
        # corpora, or two eval sets
        for flag, shared in [("--nat-valid", "nat_train"),
                             ("--syn-train", "nat_train"),
                             ("--test", "nat_valid")]:
            out = tmp_path / "results"
            args = self.experiment_args(fixture_paths, out)
            args[args.index(flag) + 1] = str(fixture_paths[shared])
            result = runner.invoke(main, args)
            assert result.exit_code == EXIT_CONFIG, (flag, result.output)
            assert isinstance(result.exception, SystemExit), result.exception
            assert "Traceback" not in result.output
            assert "config error: input corpora share pair ids: " in result.output
            # refused before anything is written
            assert not out.exists()

    def test_dead_worker_is_a_clean_error(self, runner, tmp_path, fixture_paths,
                                          monkeypatch):
        # forked workers inherit the patch and die before they return a fit
        monkeypatch.setattr(em, "_use_worker", lambda: True)
        monkeypatch.setattr(em, "train_em", in_worker(em.train_em, lambda: os._exit(3)))
        out = tmp_path / "results"
        result = runner.invoke(main, self.experiment_args(fixture_paths, out))
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        assert result.output.endswith(
            "error: a worker process died while fitting Aug\n")
        assert not out.exists()

    def test_empty_synthetic_training_set(self, runner, tmp_path, fixture_paths):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "results"
        args = self.experiment_args(fixture_paths, out)
        args[args.index("--syn-train") + 1] = str(empty)
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == "error: cannot train on an empty corpus\n"
        assert not out.exists()


class TestExport:
    def test_aligned_files_and_metadata(self, runner, tmp_path, fixture_paths):
        out = tmp_path / "export"
        result = runner.invoke(main, [
            "export", "--input", str(fixture_paths["nat_train"]),
            "--src", "de", "--tgt", "en", "--out-dir", str(out),
        ])
        assert result.exit_code == 0, result.output
        src = (out / "nat_train.de").read_text(encoding="utf-8").splitlines()
        tgt = (out / "nat_train.en").read_text(encoding="utf-8").splitlines()
        assert len(src) == len(tgt) > 0
        meta = json.loads(
            (out / "reference_transformer.json").read_text(encoding="utf-8")
        )
        assert meta["attention_heads"] == 4
        assert meta["layers"] == 3
        assert meta["batch_size"] == 2000
        assert meta["max_epochs"] == 100
        assert meta["early_stopping"] == "validation-loss"

    def test_inputs_sharing_a_stem_refused(self, runner, tmp_path, fixture_paths):
        paths = [tmp_path / "a" / "train.jsonl", tmp_path / "b" / "train.jsonl"]
        for path, name in zip(paths, ["nat_train", "syn_train"]):
            path.parent.mkdir()
            path.write_bytes(fixture_paths[name].read_bytes())
        out = tmp_path / "export"
        result = runner.invoke(main, [
            "export", "--input", str(paths[0]), "--input", str(paths[1]),
            "--src", "de", "--tgt", "en", "--out-dir", str(out),
        ])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert f"inputs {paths[0]} and {paths[1]} share a file stem" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("bad, exit_code", [
        ('{"id": "a", "src": "x", "tgt": "u", "origin": "natural"}\n' * 2, 1),
        ("", EXIT_CONFIG),
    ], ids=["repeated-id", "empty"])
    def test_bad_later_input_writes_nothing(self, runner, tmp_path, fixture_paths,
                                            bad, exit_code):
        path = tmp_path / "bad.jsonl"
        path.write_text(bad, encoding="utf-8")
        out = tmp_path / "export"
        result = runner.invoke(main, [
            "export", "--input", str(fixture_paths["nat_train"]),
            "--input", str(path), "--src", "de", "--tgt", "en",
            "--out-dir", str(out),
        ])
        assert result.exit_code == exit_code, result.output
        assert str(path) in result.output
        assert not out.exists()

    def test_empty_corpus_refused(self, runner, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        result = runner.invoke(main, [
            "export", "--input", str(empty),
            "--src", "de", "--tgt", "en", "--out-dir", str(tmp_path / "out"),
        ])
        assert result.exit_code != 0


class TestAnalyze:
    def test_csv_outputs(self, runner, tmp_path, fixture_paths):
        out = tmp_path / "analysis"
        result = runner.invoke(main, [
            "analyze", "--input", str(fixture_paths["syn_train"]),
            "--src", "de", "--tgt", "en", "--out-dir", str(out),
        ])
        assert result.exit_code == 0, result.output
        header = (out / "ttr.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "corpus,side,type_count,token_count,ttr"

    def test_inputs_sharing_a_stem_refused(self, runner, tmp_path, fixture_paths):
        paths = [tmp_path / "nat" / "train.jsonl", tmp_path / "syn" / "train.jsonl"]
        for path, name in zip(paths, ["nat_train", "syn_train"]):
            path.parent.mkdir()
            path.write_bytes(fixture_paths[name].read_bytes())
        out = tmp_path / "analysis"
        result = runner.invoke(main, [
            "analyze", "--input", str(paths[0]), "--input", str(paths[1]),
            "--src", "de", "--tgt", "en", "--out-dir", str(out),
        ])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert f"inputs {paths[0]} and {paths[1]} share a file stem" in result.output
        assert not out.exists()

    def test_tokens_with_commas_and_quotes_read_back_intact(self, runner, tmp_path):
        path = tmp_path / "punct.jsonl"
        write_jsonl(make_corpus([('gar, nicht "so"', "not, at all")]), path)
        out = tmp_path / "analysis"
        result = runner.invoke(main, [
            "analyze", "--input", str(path),
            "--src", "de", "--tgt", "en", "--out-dir", str(out),
        ])
        assert result.exit_code == 0, result.output
        with open(out / "zipf.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 5 for row in rows)
        words = {(row[1], row[3]) for row in rows[1:]}
        assert {("source", "gar,"), ("source", '"so"'), ("target", "not,")} <= words


class TestMalformedInputs:
    """Malformed files end in a typed error: exit code 1, no traceback."""

    def assert_clean_failure(self, result, where):
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        assert f"error: {where}" in result.output

    @pytest.mark.parametrize("bad_line", [
        "[1, 2]",
        '{"id": "1", "src": 5, "tgt": "b", "origin": "natural"}',
        '{"id": "1", "src": "a", "tgt": null, "origin": "natural"}',
    ])
    def test_jsonl_line_of_wrong_shape(self, runner, tmp_path, bad_line):
        path = tmp_path / "bad.jsonl"
        good = '{"id": "0", "src": "a", "tgt": "b", "origin": "natural"}'
        path.write_text(f"{good}\n{bad_line}\n", encoding="utf-8")
        result = runner.invoke(main, [
            "analyze", "--input", str(path), "--src", "de", "--tgt", "en",
            "--out-dir", str(tmp_path / "out"),
        ])
        self.assert_clean_failure(result, f"{path}:2:")

    @pytest.mark.parametrize("command", ["analyze", "sample", "export"])
    def test_jsonl_repeated_pair_id(self, runner, tmp_path, command):
        path = tmp_path / "dup.jsonl"
        path.write_text(
            '{"id": "a", "src": "x y", "tgt": "u v", "origin": "natural"}\n'
            '{"id": "b", "src": "x", "tgt": "u", "origin": "natural"}\n'
            '{"id": "a", "src": "y", "tgt": "v", "origin": "natural"}\n',
            encoding="utf-8")
        out = tmp_path / "out"
        args = {
            "analyze": ["analyze", "--input", str(path)],
            "sample": ["sample", "--input", str(path), "--train-tokens", "1",
                       "--valid-tokens", "1"],
            "export": ["export", "--input", str(path)],
        }[command] + ["--src", "de", "--tgt", "en", "--out-dir", str(out)]
        result = runner.invoke(main, args)
        self.assert_clean_failure(result, f"{path}:3: pair id 'a' repeats line 1")
        assert not out.exists()

    def test_jsonl_not_utf8(self, runner, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = b'{"id": "0", "src": "a", "tgt": "b", "origin": "natural"}\n'
        path.write_bytes(good + b'{"id": "1", "src": "\xff", "tgt": "b", '
                         b'"origin": "natural"}\n')
        result = runner.invoke(main, [
            "analyze", "--input", str(path), "--src", "de", "--tgt", "en",
            "--out-dir", str(tmp_path / "out"),
        ])
        self.assert_clean_failure(result, f"{path}:2: not valid UTF-8")

    @pytest.mark.parametrize("bad_file", ["model", "text"])
    def test_bpe_apply_not_utf8(self, runner, tmp_path, bad_file):
        paths = {"model": tmp_path / "model.bpe", "text": tmp_path / "in.txt"}
        paths["model"].write_text("bpe-v1 10\ne s\n", encoding="utf-8")
        paths["text"].write_text("esel\n", encoding="utf-8")
        paths[bad_file].write_bytes(b"\xff" + paths[bad_file].read_bytes())
        result = runner.invoke(main, [
            "bpe-apply", "--model", str(paths["model"]),
            "--input", str(paths["text"]), "--output", str(tmp_path / "out.txt"),
        ])
        self.assert_clean_failure(result, f"{paths[bad_file]}:1: not valid UTF-8")

    @pytest.mark.parametrize("previous", [None, "old output\n"])
    def test_failed_bpe_apply_leaves_no_output(self, runner, tmp_path, previous):
        model_path = tmp_path / "model.bpe"
        model_path.write_text("bpe-v1 10\ne s\n", encoding="utf-8")
        text_in = tmp_path / "in.txt"
        text_in.write_bytes(b"esel\nesel\nes\xffel\nesel\n")
        text_out = tmp_path / "out.txt"
        if previous is not None:
            text_out.write_text(previous, encoding="utf-8")
        before = sorted(p.name for p in tmp_path.iterdir())
        result = runner.invoke(main, [
            "bpe-apply", "--model", str(model_path),
            "--input", str(text_in), "--output", str(text_out),
        ])
        self.assert_clean_failure(result, f"{text_in}:3: not valid UTF-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        if previous is not None:
            assert text_out.read_text(encoding="utf-8") == previous

    def test_bpe_header_with_non_integer_size(self, runner, tmp_path):
        model_path = tmp_path / "model.bpe"
        model_path.write_text("bpe-v1 abc\ne s\n", encoding="utf-8")
        text_in = tmp_path / "in.txt"
        text_in.write_text("esel\n", encoding="utf-8")
        result = runner.invoke(main, [
            "bpe-apply", "--model", str(model_path),
            "--input", str(text_in), "--output", str(tmp_path / "out.txt"),
        ])
        self.assert_clean_failure(result, f"{model_path}:")

    LANGS = ["--src", "de", "--tgt", "en"]

    @pytest.mark.parametrize("args, exit_code", [
        (["analyze", "--input", "{dir}", *LANGS, "--out-dir", "{new}"], 2),
        (["bpe-apply", "--model", "{dir}", "--input", "{text}", "--output", "{new}"], 2),
        (hallucinate_args("{new}", extra=["--config", "{dir}"]), 2),
        (["bpe-train", "--input", "{corpus}", *LANGS, "--out", "{dir}"], 2),
        (["bpe-apply", "--model", "{model}", "--input", "{text}", "--output", "{dir}"],
         2),
        (["analyze", "--input", "{corpus}", *LANGS, "--out-dir", "{text}"], 2),
        (["sample", "--input", "{corpus}", *LANGS, "--train-tokens", "1",
          "--valid-tokens", "1", "--out-dir", "{text}"], 2),
        (["export", "--input", "{corpus}", *LANGS, "--out-dir", "{text}"], 2),
        (["experiment", "--nat-train", "{corpus}", "--syn-train", "{corpus}",
          "--nat-valid", "{corpus}", "--test", "{corpus}", *LANGS,
          "--out-dir", "{text}"], 2),
        (hallucinate_args("{text}"), EXIT_CONFIG),
    ], ids=["analyze-input", "bpe-apply-model", "hallucinate-config",
            "bpe-train-out", "bpe-apply-output", "analyze-out-dir", "sample-out-dir",
            "export-out-dir", "experiment-out-dir", "hallucinate-run-root"])
    def test_path_of_the_wrong_kind(self, runner, tmp_path, args, exit_code):
        """A directory where a file goes, or the reverse, writes nothing."""
        paths = {name: tmp_path / name
                 for name in ("dir", "new", "text", "corpus", "model")}
        paths["dir"].mkdir()
        paths["text"].write_text("esel\n", encoding="utf-8")
        paths["corpus"].write_text(
            '{"id": "a", "src": "x y", "tgt": "u v", "origin": "natural"}\n',
            encoding="utf-8")
        paths["model"].write_text("bpe-v1 10\ne s\n", encoding="utf-8")
        before = snapshot(tmp_path), sorted(tmp_path.rglob("*"))
        result = runner.invoke(main, [a.format(**paths) for a in args])
        assert result.exit_code == exit_code, result.output
        assert "Traceback" not in result.output
        if exit_code == EXIT_CONFIG:
            assert "config error: paths.run_root: cannot create run directory" \
                in result.output
        else:
            assert "Invalid value" in result.output
        assert (snapshot(tmp_path), sorted(tmp_path.rglob("*"))) == before


def _drop_sentence_key(records):
    del records[0]["sentence"]
    return records


def _non_string_seed(records):
    records[1] = 5
    return records


def _empty_source(records):
    records[0]["src"] = " "
    return records


def _two_line_sentence(records):
    records[0]["sentence"] = "Eine Eule\nruft"
    return records


class TestMalformedCheckpoints:
    """A malformed checkpoint ends in an error naming it: exit 1, no traceback."""

    @pytest.mark.parametrize("name, corrupt, message", [
        ("seeds.json", lambda records: "not json", "malformed checkpoint: Expecting"),
        ("seeds.json", lambda records: {"a": 1}, "expected a JSON list"),
        ("seeds.json", lambda records: [], "expected a non-empty JSON list, got []"),
        ("sentences.json", lambda records: [],
         "expected a non-empty JSON list, got []"),
        ("seeds.json", _non_string_seed, "expected strings, got 5"),
        ("sentences.json", _drop_sentence_key, "expected strings, got None"),
        ("translations.json", _empty_source, "must be non-empty"),
        ("sentences.json", _two_line_sentence, "must be single-line"),
    ], ids=["not-json", "object", "empty-seeds", "empty-sentences",
            "non-string-seed", "no-sentence", "empty-source", "two-line-sentence"])
    def test_resume_from_malformed_checkpoint(self, runner, tmp_path, name,
                                              corrupt, message):
        args = hallucinate_args(tmp_path / "runs")
        assert runner.invoke(main, args).exit_code == 0
        path = tmp_path / "runs" / "r1" / "checkpoints" / name
        payload = corrupt(json.loads(path.read_text(encoding="utf-8")))
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload),
                        encoding="utf-8")
        before = snapshot(tmp_path / "runs")
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        assert f"error: {path}: malformed checkpoint: " in result.output
        assert message in result.output
        assert snapshot(tmp_path / "runs") == before

    def test_resume_from_checkpoint_not_utf8(self, runner, tmp_path):
        args = hallucinate_args(tmp_path / "runs")
        assert runner.invoke(main, args).exit_code == 0
        path = tmp_path / "runs" / "r1" / "checkpoints" / "sentences.json"
        path.write_bytes(b"[\n" + b'  {"seed": "\xff", "sentence": "a"}\n]\n')
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"error: {path}:2: not valid UTF-8" in result.output
