import csv
import hashlib
import json
import os
import re
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import (MockSession, in_worker, make_corpus, make_experiment_fixture,
                      study_corpora)
from corpus_forge import bpe, cli, em, hallucinate, prompts
from corpus_forge.cli import main
from corpus_forge.corpus import check_writable, read_jsonl, write_jsonl
from corpus_forge.errors import (
    AuthError,
    ConfigError,
    CorpusForgeError,
    InsufficientData,
    RateLimited,
    TransportError,
)
from corpus_forge.gateway import BackendConfig, HttpBackend, MockBackend


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


@pytest.fixture
def requests_sent(monkeypatch):
    """The requests that hallucinate sends to its mock backend."""
    sent = []

    class Counting(MockBackend):
        def complete(self, request):
            sent.append(request)
            return super().complete(request)

    monkeypatch.setattr(cli, "make_backend", lambda *args, **kwargs: Counting())
    return sent


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
        assert result.exit_code == ConfigError.exit_code

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
        assert result.exit_code == ConfigError.exit_code, result.output
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
        assert result.exit_code == ConfigError.exit_code, result.output
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
        assert result.exit_code == ConfigError.exit_code, result.output
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
        "iterations=3",  # em.iterations
        "bakend=http",
    ])
    def test_unknown_settings_are_config_errors(self, runner, tmp_path, setting):
        run_root = tmp_path / "runs"
        result = runner.invoke(main, hallucinate_args(
            run_root, extra=ALL_TEMPLATES + ["--set", setting]))
        assert result.exit_code == ConfigError.exit_code, result.output
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
        assert result.exit_code == ConfigError.exit_code, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        assert "config error: config file is not valid YAML" in result.output
        assert not run_root.exists()

    def test_file_named_checkpoints_is_a_config_error(self, runner, tmp_path,
                                                      requests_sent):
        run_dir = tmp_path / "runs" / "r1"
        run_dir.mkdir(parents=True)
        (run_dir / "checkpoints").write_text("not a directory\n", encoding="utf-8")
        result = runner.invoke(main, hallucinate_args(tmp_path / "runs"))
        assert result.exit_code == ConfigError.exit_code, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        seeds = run_dir / "checkpoints" / "seeds.json"
        assert f"config error: cannot write {seeds}: " in result.output
        assert snapshot(run_dir) == {"checkpoints": b"not a directory\n"}
        assert requests_sent == []

    @pytest.mark.parametrize("directory, written", [
        ("corpora", "train.jsonl"), ("reports", "report.json")])
    def test_file_named_like_a_later_directory(self, runner, tmp_path,
                                               requests_sent, directory, written):
        """Each directory of the run is checked before the first request, not
        only the one written first."""
        run_dir = tmp_path / "runs" / "r1"
        run_dir.mkdir(parents=True)
        (run_dir / directory).write_text("not a directory\n", encoding="utf-8")
        result = runner.invoke(main, hallucinate_args(tmp_path / "runs"))
        assert result.exit_code == ConfigError.exit_code, result.output
        assert "Traceback" not in result.output
        path = run_dir / directory / written
        assert f"config error: cannot write {path}: File exists\n" in result.output
        assert requests_sent == []
        assert snapshot(tmp_path / "runs") == {f"r1/{directory}": b"not a directory\n"}
        assert sorted(run_dir.iterdir()) == [run_dir / directory]

    def test_failed_seed_request_leaves_no_run_directory(self, runner, tmp_path,
                                                         monkeypatch):
        class Unreachable(MockBackend):
            def complete(self, request):
                raise TransportError("connection refused")

        monkeypatch.setattr(cli, "make_backend",
                            lambda *args, **kwargs: Unreachable())
        result = runner.invoke(main, hallucinate_args(tmp_path / "runs"))
        assert result.exit_code == TransportError.exit_code, result.output
        assert "transport error: connection refused\n" in result.output
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("run_id", ["", ".", "..", "a/b", "../r1"])
    def test_run_id_that_is_not_one_name(self, runner, tmp_path, requests_sent,
                                         run_id):
        run_root = tmp_path / "runs"
        run_root.mkdir()
        result = runner.invoke(main, hallucinate_args(run_root, run_id))
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--run-id'" in result.output
        assert requests_sent == []
        assert sorted(tmp_path.rglob("*")) == [run_root]

    def test_unreadable_checkpoint_is_a_config_error(self, runner, tmp_path,
                                                     monkeypatch):
        seeds = tmp_path / "runs" / "r1" / "checkpoints" / "seeds.json"
        seeds.mkdir(parents=True)
        requests = []

        class Counting(MockBackend):
            def complete(self, request):
                requests.append(request)
                return super().complete(request)

        monkeypatch.setattr(cli, "make_backend", lambda *args, **kwargs: Counting())
        result = runner.invoke(main, hallucinate_args(tmp_path / "runs"))
        assert result.exit_code == ConfigError.exit_code, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        assert f"config error: cannot write {seeds}: Is a directory\n" in result.output
        assert requests == []

    @pytest.mark.parametrize("content", [None, 5, ["a"]],
                             ids=["null", "number", "list"])
    def test_seed_answer_that_is_not_a_string_is_an_error(
            self, runner, tmp_path, monkeypatch, content):
        monkeypatch.setenv("LLM_API_KEY", "sk-test")
        seed_stages = (prompts.STAGE_SEED_NOUNS, prompts.STAGE_SEED_VERBS)
        session = MockSession(content, lambda stage, request: stage in seed_stages)
        monkeypatch.setattr(cli, "make_backend", lambda *args, **kwargs: HttpBackend(
            BackendConfig(max_retries=0), session=session))
        result = runner.invoke(main, hallucinate_args(tmp_path / "runs"))
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        assert ("error: malformed response body: content is not a string: "
                f"{content!r}\n") in result.output
        assert snapshot(tmp_path / "runs") == {}

    def test_insufficient_data_exit_code(self, runner, tmp_path):
        args = hallucinate_args(
            tmp_path / "runs",
            extra=["--set", "splits.train_token_threshold=100000"],
        )
        result = runner.invoke(main, args)
        assert result.exit_code == InsufficientData.exit_code

    @pytest.mark.parametrize("refusal", ["symlink-loop", "name-too-long"])
    def test_config_file_the_os_refuses(self, runner, tmp_path, refusal):
        if refusal == "symlink-loop":
            config = tmp_path / "loop.yaml"
            config.symlink_to(config.name)
        else:
            config = tmp_path / ("a" * 300 + ".yaml")
        run_root = tmp_path / "runs"
        result = runner.invoke(main, hallucinate_args(
            run_root, extra=["--config", str(config)]))
        assert result.exit_code == ConfigError.exit_code, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        assert f"config error: cannot read {config}: " in result.output
        assert not run_root.exists()


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
            "--train-tokens", "100", "--valid-tokens", "40",
            "--rng-seed", "1", "--out-dir", str(out),
        ])
        assert result.exit_code == 0, result.output
        train = read_jsonl(out / "train.jsonl")
        valid = read_jsonl(out / "valid.jsonl")
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
            "--out-dir", str(out),
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
        assert result.exit_code == ConfigError.exit_code, result.output
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
        assert result.exit_code == ConfigError.exit_code, result.output
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
            assert result.exit_code == ConfigError.exit_code, (flag, result.output)
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

    @pytest.mark.parametrize("worker, dies, message", [
        (False, False, "Nat failed"),
        (True, False, "Aug failed"),
        (True, True, "a worker process died while fitting Aug"),
    ], ids=["nat-raises", "aug-raises", "worker-dies"])
    def test_failed_fit_keeps_every_lexicon(self, runner, tmp_path, fixture_paths,
                                            monkeypatch, worker, dies, message):
        """A fit that fails in the caller (Nat) or in the worker (Aug), after
        its lexicon file got a line, ends the run as it always did: no temp
        file, no new lexicon, and an earlier nat.lexicon keeps its bytes."""
        def fail():
            if dies:
                os._exit(3)
            raise CorpusForgeError(message)

        monkeypatch.setattr(em, "_use_worker", lambda: True)
        monkeypatch.setattr(em, "train_em", in_worker(em.train_em, fail, worker))
        out = tmp_path / "results"
        (out / "models").mkdir(parents=True)
        (out / "models" / "nat.lexicon").write_bytes(b"earlier lexicon\n")
        result = runner.invoke(main, self.experiment_args(fixture_paths, out))
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == f"error: {message}\n"
        assert snapshot(out) == {"models/nat.lexicon": b"earlier lexicon\n"}

    @pytest.mark.parametrize("label", ["nat", "aug"])
    def test_temp_file_refused_before_any_fit(self, runner, tmp_path,
                                              fixture_paths, monkeypatch, label):
        def fit(*args, **kwargs):
            pytest.fail("a model was fitted")
        monkeypatch.setattr(em, "train_em", fit)
        out = tmp_path / "results"
        (out / "models" / f"{label}.lexicon.tmp").mkdir(parents=True)
        result = runner.invoke(main, self.experiment_args(fixture_paths, out))
        assert result.exit_code == ConfigError.exit_code, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        lexicon = out / "models" / f"{label}.lexicon"
        assert result.output == f"config error: cannot write {lexicon}: Is a directory\n"
        assert [p.name for p in out.rglob("*")] == ["models", f"{label}.lexicon.tmp"]

    def assert_empty_input_refused(self, runner, tmp_path, fixture_paths,
                                   monkeypatch, flag):
        """An empty input ends experiment, naming it, before the first fit."""
        def fit(*args, **kwargs):
            pytest.fail("a model was fitted")
        monkeypatch.setattr(em, "train_em", fit)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "results"
        args = self.experiment_args(fixture_paths, out)
        args[args.index(flag) + 1] = str(empty)
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == f"error: empty corpus: {empty}\n"
        assert not out.exists()

    def test_empty_synthetic_training_set(self, runner, tmp_path, fixture_paths,
                                          monkeypatch):
        self.assert_empty_input_refused(runner, tmp_path, fixture_paths,
                                        monkeypatch, "--syn-train")

    @pytest.mark.parametrize("flag", ["--test", "--nat-valid", "--syn-valid"])
    def test_empty_evaluation_set(self, runner, tmp_path, fixture_paths,
                                  monkeypatch, flag):
        self.assert_empty_input_refused(runner, tmp_path, fixture_paths,
                                        monkeypatch, flag)

    # sha256 of each output, computed with the flat-table trainer that the
    # row-at-a-time trainer replaced; two lexicons print differently since
    # Python 3.12 made float sum() compensated, and the BLEU scores do not
    COMPENSATED_SUM = sys.version_info >= (3, 12)
    PINNED = {
        "models/nat.lexicon": (
            "48fc64b1913ba88fe8c98a9defd23288eca3c7add4603e3bde29be1b39560d6b"
            if COMPENSATED_SUM else
            "8b58200006c6a1b4af05dacd4abaa7d15eb20c967e1e40bb2d3a60361d88162b"),
        "models/synth.lexicon": "2bcb223a105696ab613ce5a8ca3d08ec281fa720aee927184685398201e2c65d",
        "models/aug.lexicon": (
            "c654642492de75792be399d766db31d223a0b9faf5c5203ada7ad3b5993d8198"
            if COMPENSATED_SUM else
            "0aa85a4f267cf83c327f8b0239bd343bb1d36d01abc5c5bb2590439cb252f70f"),
        "results.json": "1f98994692650b962fed05d942399bddb2d1e64d150cce61d6693ad7979a8dd1",
        "results.md": "529acf4a56e6c07f2176582e0c6031760283a1713019d6916aefad487c5b142c",
        "ttr.csv": "1581b4150c35651f0b828acc5155458fb699cfdaaa87fec5144fe498e6515999",
        "zipf.csv": "054254ed7a03d9daf616e9176c43643ceffca08415cb55eb5012dd47fca94d04",
    }

    def test_outputs_at_a_size_the_properties_never_reach(self, runner, tmp_path):
        """Pins experiment, 10 iterations, on 3,000 natural and 3,000
        synthetic training pairs: 35,415 source tokens."""
        paths = {}
        for name, corpus in study_corpora().items():
            paths[name] = tmp_path / f"{name}.jsonl"
            write_jsonl(corpus, paths[name])
        out = tmp_path / "results"
        result = runner.invoke(main, self.experiment_args(
            paths, out, ["--set", "em.iterations=10"]))
        assert result.exit_code == 0, result.output
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in self.PINNED}
        assert digests == self.PINNED


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
        assert result.exit_code == ConfigError.exit_code, result.output
        assert f"inputs {paths[0]} and {paths[1]} share a file stem" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("inputs, src, tgt, repeated", [
        (["reference_transformer.jsonl"], "de", "json", "reference_transformer.json"),
        (["x.de.jsonl", "x.jsonl"], "en", "de.en", "x.de.en"),
    ], ids=["metadata", "dotted-code"])
    def test_outputs_sharing_a_name_refused(self, runner, tmp_path, inputs, src,
                                            tgt, repeated):
        # an input that is read ends in exit 1, so exit 3 means none was
        paths = [tmp_path / name for name in inputs]
        for path in paths:
            path.write_text("not json\n", encoding="utf-8")
        out = tmp_path / "export"
        result = runner.invoke(main, [
            "export", *(a for path in paths for a in ("--input", str(path))),
            "--src", src, "--tgt", tgt, "--out-dir", str(out),
        ])
        assert result.exit_code == ConfigError.exit_code, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == (
            f"config error: two outputs would be written to {out / repeated}\n")
        assert not out.exists()

    @pytest.mark.parametrize("bad, exit_code", [
        ('{"id": "a", "src": "x", "tgt": "u", "origin": "natural"}\n' * 2, 1),
        ("", 1),
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

    @pytest.mark.parametrize("src, tgt, flag", [
        ("de", "de", "--tgt"), ("", "en", "--src"), ("de", "", "--tgt"),
        ("a/b", "en", "--src"), ("de", "x/y", "--tgt"),
    ], ids=["equal", "empty-src", "empty-tgt", "path-src", "path-tgt"])
    def test_language_codes_must_name_two_files(self, runner, tmp_path, src, tgt,
                                                flag):
        # an input that is read ends in exit 1, so exit 2 means it was not
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        out = tmp_path / "export"
        result = runner.invoke(main, [
            "export", "--input", str(path), "--src", src, "--tgt", tgt,
            "--out-dir", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"Invalid value for '{flag}'" in result.output
        assert not out.exists()


class TestAnalyze:
    def test_csv_outputs(self, runner, tmp_path, fixture_paths):
        out = tmp_path / "analysis"
        result = runner.invoke(main, [
            "analyze", "--input", str(fixture_paths["syn_train"]),
            "--out-dir", str(out),
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
            "--out-dir", str(out),
        ])
        assert result.exit_code == ConfigError.exit_code, result.output
        assert f"inputs {paths[0]} and {paths[1]} share a file stem" in result.output
        assert not out.exists()

    def test_empty_input_refused(self, runner, tmp_path, fixture_paths):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "analysis"
        result = runner.invoke(main, [
            "analyze", "--input", str(fixture_paths["syn_train"]),
            "--input", str(empty), "--out-dir", str(out),
        ])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == f"error: empty corpus: {empty}\n"
        assert not out.exists()

    def test_tokens_with_commas_and_quotes_read_back_intact(self, runner, tmp_path):
        path = tmp_path / "punct.jsonl"
        write_jsonl(make_corpus([('gar, nicht "so"', "not, at all")]), path)
        out = tmp_path / "analysis"
        result = runner.invoke(main, [
            "analyze", "--input", str(path), "--out-dir", str(out),
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
            "analyze", "--input", str(path), "--out-dir", str(tmp_path / "out"),
        ])
        self.assert_clean_failure(result, f"{path}:2:")

    @pytest.mark.parametrize("fields", [
        '"id": null, "origin": "natural"',
        '"id": 1, "origin": "natural"',
        '"id": [1], "origin": "natural"',
        '"id": "", "origin": "natural"',
        '"id": "1", "origin": "synthetic", "seed_word": 5',
        '"id": "1", "origin": "synthetic", "seed_word": ["x"]',
        '"id": "1", "origin": "synthetic", "seed_word": ""',
    ])
    def test_jsonl_id_and_seed_word_are_lines(self, runner, tmp_path, fields):
        # sample used to write such an id as str(id) and a seed word as given
        path = tmp_path / "bad.jsonl"
        good = '{"id": "0", "src": "a", "tgt": "b", "origin": "natural"}'
        path.write_text(f'{good}\n{{"src": "c", "tgt": "d", {fields}}}\n',
                        encoding="utf-8")
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "sample", "--input", str(path), "--train-tokens", "1",
            "--valid-tokens", "1", "--out-dir", str(out),
        ])
        self.assert_clean_failure(result, f"{path}:2: ")
        assert not out.exists()

    # each command reading an empty file, as its first input or, for
    # bpe-train-second, after a non-empty one; it writes in {out} alone
    EMPTY_INPUT = {
        "sample": ["sample", "--input", "{empty}", "--train-tokens", "1",
                   "--valid-tokens", "1", "--out-dir", "{out}"],
        "bpe-train": ["bpe-train", "--input", "{empty}", "--out", "{out}/model.bpe"],
        "bpe-train-second": ["bpe-train", "--input", "{nat_train}",
                             "--input", "{empty}", "--out", "{out}/model.bpe"],
        "experiment": ["experiment", "--nat-train", "{empty}",
                       "--syn-train", "{syn_train}", "--nat-valid", "{nat_valid}",
                       "--test", "{test}", "--out-dir", "{out}"],
        "analyze": ["analyze", "--input", "{empty}", "--out-dir", "{out}"],
        "export": ["export", "--input", "{empty}", "--src", "de", "--tgt", "en",
                   "--out-dir", "{out}"],
    }

    @pytest.mark.parametrize("command", list(EMPTY_INPUT))
    def test_empty_corpus_refused(self, runner, tmp_path, fixture_paths,
                                  monkeypatch, command):
        """A corpus of no pairs ends every command that reads one alike,
        before any work or write."""
        def work(*args, **kwargs):
            pytest.fail("the command worked on an empty corpus")
        monkeypatch.setattr(bpe, "train_bpe", work)
        monkeypatch.setattr(em, "run_experiment", work)
        empty, out = tmp_path / "empty.jsonl", tmp_path / "out"
        empty.write_text("", encoding="utf-8")
        result = runner.invoke(main, [
            a.format(empty=empty, out=out, **fixture_paths)
            for a in self.EMPTY_INPUT[command]])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == f"error: empty corpus: {empty}\n"
        assert not out.exists()

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
            "export": ["export", "--input", str(path), "--src", "de", "--tgt", "en"],
        }[command] + ["--out-dir", str(out)]
        result = runner.invoke(main, args)
        self.assert_clean_failure(result, f"{path}:3: pair id 'a' repeats line 1")
        assert not out.exists()

    def test_jsonl_not_utf8(self, runner, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = b'{"id": "0", "src": "a", "tgt": "b", "origin": "natural"}\n'
        path.write_bytes(good + b'{"id": "1", "src": "\xff", "tgt": "b", '
                         b'"origin": "natural"}\n')
        result = runner.invoke(main, [
            "analyze", "--input", str(path), "--out-dir", str(tmp_path / "out"),
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

    @pytest.mark.parametrize("args, exit_code", [
        (["analyze", "--input", "{dir}", "--out-dir", "{new}"], 2),
        (["bpe-apply", "--model", "{dir}", "--input", "{text}", "--output", "{new}"], 2),
        (hallucinate_args("{new}", extra=["--config", "{dir}"]), 2),
        (["bpe-train", "--input", "{corpus}", "--out", "{dir}"], 2),
        (["bpe-apply", "--model", "{model}", "--input", "{text}", "--output", "{dir}"],
         2),
        (["analyze", "--input", "{corpus}", "--out-dir", "{text}"], 2),
        (["sample", "--input", "{corpus}", "--train-tokens", "1",
          "--valid-tokens", "1", "--out-dir", "{text}"], 2),
        (["export", "--input", "{corpus}", "--src", "de", "--tgt", "en",
          "--out-dir", "{text}"], 2),
        (["experiment", "--nat-train", "{corpus}", "--syn-train", "{corpus}",
          "--nat-valid", "{corpus}", "--test", "{corpus}", "--out-dir", "{text}"],
         2),
        (hallucinate_args("{text}"), ConfigError.exit_code),
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
        if exit_code == ConfigError.exit_code:
            assert "config error: cannot write" in result.output
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


class TestOutputDirectories:
    """Every writer creates the directories its output goes in; one the OS
    refuses ends in a configuration error: exit 3, no traceback, no temp file."""

    # each writer's arguments, with {target} the directory it writes in, and
    # a file it writes there
    WRITERS = {
        "bpe-train": (["bpe-train", "--input", "{nat_train}",
                       "--vocab-size", "80", "--out", "{target}/model.bpe"],
                      "model.bpe"),
        "bpe-apply": (["bpe-apply", "--model", "{model}", "--input", "{text}",
                       "--output", "{target}/out.txt"], "out.txt"),
        "sample": (["sample", "--input", "{nat_train}",
                    "--train-tokens", "100", "--valid-tokens", "40",
                    "--out-dir", "{target}"], "valid.jsonl"),
        "analyze": (["analyze", "--input", "{nat_train}",
                     "--out-dir", "{target}"], "zipf.csv"),
        "export": (["export", "--input", "{nat_train}", "--src", "de", "--tgt", "en",
                    "--out-dir", "{target}"], "reference_transformer.json"),
        "experiment": (["experiment", "--nat-train", "{nat_train}",
                        "--syn-train", "{syn_train}", "--nat-valid", "{nat_valid}",
                        "--test", "{test}", "--set", "em.iterations=1",
                        "--out-dir", "{target}"], "models/aug.lexicon"),
    }

    def invoke(self, runner, tmp_path, fixture_paths, writer, target):
        args, written = self.WRITERS[writer]
        paths = dict(fixture_paths, target=target, model=tmp_path / "model.in",
                     text=tmp_path / "text.in")
        paths["model"].write_text("bpe-v1 10\ne s\n", encoding="utf-8")
        paths["text"].write_text("esel\n", encoding="utf-8")
        return runner.invoke(main, [a.format(**paths) for a in args]), written

    @pytest.mark.parametrize("writer", list(WRITERS))
    def test_missing_directories_are_created(self, runner, tmp_path, fixture_paths,
                                             writer):
        target = tmp_path / "new" / "deeper"
        result, written = self.invoke(runner, tmp_path, fixture_paths, writer,
                                      target)
        assert result.exit_code == 0, result.output
        assert (target / written).is_file()

    @pytest.mark.parametrize("writer", list(WRITERS))
    def test_file_where_a_directory_goes(self, runner, tmp_path, fixture_paths,
                                         writer, monkeypatch):
        # bpe-train and experiment refuse the output before they do the work
        def work(*args, **kwargs):
            pytest.fail("the command worked before it refused its output")
        monkeypatch.setattr(bpe, "train_bpe", work)
        monkeypatch.setattr(em, "run_experiment", work)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file\n", encoding="utf-8")
        result, written = self.invoke(runner, tmp_path, fixture_paths, writer,
                                      blocker / "deeper")
        assert result.exit_code == ConfigError.exit_code, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        assert f"config error: cannot write {blocker / 'deeper'}" in result.output
        assert blocker.read_text(encoding="utf-8") == "a file\n"
        assert list(tmp_path.rglob("*.tmp")) == []

    # every file that hallucinate (in runs/r1) and each writer of more than
    # one file (in out) write
    OUTPUTS = [("hallucinate", f"runs/r1/{name}") for name in (
        "checkpoints/seeds.json", "checkpoints/sentences.json",
        "checkpoints/translations.json", "corpora/train.jsonl",
        "corpora/valid.jsonl", "reports/report.json")] + [
        ("experiment", f"out/{name}") for name in (
            "ttr.csv", "zipf.csv", "results.md", "results.json",
            "models/nat.lexicon", "models/synth.lexicon", "models/aug.lexicon")] + [
        ("sample", "out/train.jsonl"), ("sample", "out/valid.jsonl"),
        ("analyze", "out/ttr.csv"), ("analyze", "out/zipf.csv"),
        ("export", "out/nat_train.de"), ("export", "out/nat_train.en"),
        ("export", "out/reference_transformer.json")]

    @pytest.mark.parametrize("command, output", OUTPUTS)
    def test_directory_in_an_outputs_place(self, runner, tmp_path, fixture_paths,
                                           requests_sent, monkeypatch, command,
                                           output):
        """A directory where a command writes a file ends the command before
        its first request, fit or write."""
        def work(*args, **kwargs):
            pytest.fail("the command worked before it refused its output")
        monkeypatch.setattr(em, "run_experiment", work)
        path = tmp_path / output
        path.mkdir(parents=True)
        if command == "hallucinate":
            result = runner.invoke(main, hallucinate_args(tmp_path / "runs"))
        else:
            result, _ = self.invoke(runner, tmp_path, fixture_paths, command,
                                    tmp_path / "out")
        assert result.exit_code == ConfigError.exit_code, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        assert f"config error: cannot write {path}: Is a directory\n" in result.output
        assert requests_sent == []
        root = tmp_path / output.split("/")[0]
        assert all(p == path or p in path.parents for p in root.rglob("*"))

    def test_experiment_models_directory_is_a_file(self, runner, tmp_path,
                                                   fixture_paths, monkeypatch):
        def work(*args, **kwargs):
            pytest.fail("the command worked before it refused its output")
        monkeypatch.setattr(em, "run_experiment", work)
        out = tmp_path / "out"
        out.mkdir()
        (out / "models").write_text("a file\n", encoding="utf-8")
        result, _ = self.invoke(runner, tmp_path, fixture_paths, "experiment", out)
        assert result.exit_code == ConfigError.exit_code, result.output
        assert "Traceback" not in result.output
        lexicon = out / "models" / "nat.lexicon"
        assert f"config error: cannot write {lexicon}: File exists\n" in result.output
        assert snapshot(out) == {"models": b"a file\n"}

    @pytest.mark.parametrize("command", ["hallucinate", "experiment", "bpe-train",
                                         "sample", "analyze", "export"])
    def test_checked_paths_are_the_written_files(self, runner, tmp_path,
                                                 fixture_paths, monkeypatch, command):
        """A command that checks its outputs before its work checks each file
        it writes, and only those: an output added without a check fails here."""
        checked = []

        def record(*paths):
            checked.extend(map(Path, paths))
            check_writable(*paths)
        monkeypatch.setattr(cli, "check_writable", record)
        monkeypatch.setattr(hallucinate, "check_writable", record)
        if command == "hallucinate":
            root = tmp_path / "runs"
            result = runner.invoke(main, hallucinate_args(root))
        else:
            root = tmp_path / "out"
            result, _ = self.invoke(runner, tmp_path, fixture_paths, command, root)
        assert result.exit_code == 0, result.output
        assert sorted(checked) == sorted(p for p in root.rglob("*") if p.is_file())


class TestIgnoredLanguageCodes:
    """sample, bpe-train, experiment and analyze accept --src and --tgt, do
    not list them, and ignore them: only export names files by language code."""

    COMMANDS = {
        "sample": ["sample", "--input", "{nat_train}", "--train-tokens", "100",
                   "--valid-tokens", "40", "--test-tokens", "40",
                   "--out-dir", "{out}"],
        "bpe-train": ["bpe-train", "--input", "{nat_train}", "--input", "{syn_train}",
                      "--vocab-size", "80", "--out", "{out}/model.bpe"],
        "experiment": ["experiment", "--nat-train", "{nat_train}",
                       "--syn-train", "{syn_train}", "--nat-valid", "{nat_valid}",
                       "--syn-valid", "{syn_valid}", "--test", "{test}",
                       "--set", "em.iterations=2", "--out-dir", "{out}"],
        "analyze": ["analyze", "--input", "{nat_train}", "--input", "{syn_train}",
                    "--out-dir", "{out}"],
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_outputs_do_not_depend_on_them(self, runner, tmp_path, fixture_paths,
                                           command):
        outputs = []
        for langs in ([], ["--src", "de", "--tgt", "en"],
                      ["--src", "xx", "--tgt", "yy"]):
            out = tmp_path / f"out{len(outputs)}"
            args = [a.format(out=out, **fixture_paths) for a in self.COMMANDS[command]]
            result = runner.invoke(main, args + langs)
            assert result.exit_code == 0, (langs, result.output)
            outputs.append(snapshot(out))
        assert outputs[0]
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_help_does_not_list_them(self, runner, command):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0, result.output
        assert "--src" not in result.output
        assert "--tgt" not in result.output


class TestErrorHandler:
    """main ends every command's CorpusForgeError in "<label>: <message>" and
    its class's exit code, in standalone mode and out of it."""

    ERRORS = [
        (CorpusForgeError("boom"), 1, "error"),
        (ConfigError("boom"), 3, "config error"),
        (RateLimited("boom", retry_after=1.0), 4, "transport error"),
        (InsufficientData("boom"), 5, "insufficient data"),
        (AuthError("boom"), 1, "error"),
    ]
    IDS = [type(error).__name__ for error, _, _ in ERRORS]

    @pytest.fixture
    def raise_in_command(self):
        """Register a command on main that raises the given error."""
        def register(error):
            @main.command("raise-error")
            def raise_error():
                raise error
        yield register
        main.commands.pop("raise-error", None)

    @pytest.mark.parametrize("error, code, label", ERRORS, ids=IDS)
    def test_cli_runner(self, runner, raise_in_command, error, code, label):
        raise_in_command(error)
        result = runner.invoke(main, ["raise-error"])
        assert result.exit_code == code == type(error).exit_code
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        assert result.stderr == f"{label}: boom\n"

    @pytest.mark.parametrize("error, code, label", ERRORS, ids=IDS)
    def test_not_standalone(self, raise_in_command, capsys, error, code, label):
        # a caller that runs main without standalone mode sees a failed
        # command only as SystemExit
        raise_in_command(error)
        with pytest.raises(SystemExit) as info:
            main.main(["raise-error"], prog_name="corpus-forge",
                      standalone_mode=False)
        assert info.value.code == code
        assert capsys.readouterr().err == f"{label}: boom\n"

    def test_readme_exit_codes_are_the_class_codes(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
            encoding="utf-8")
        paragraph = readme[readme.index("Exit codes:"):].split("\n\n")[0]
        documented = {name: int(code)
                      for code, name in re.findall(r"`(\d)` ([a-z ]+)", paragraph)}
        assert documented["configuration"] == ConfigError.exit_code == 3
        assert documented["transport"] == TransportError.exit_code == 4
        assert documented["insufficient data"] == InsufficientData.exit_code == 5
        assert documented["internal error"] == CorpusForgeError.exit_code == 1
