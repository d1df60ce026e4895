from dataclasses import is_dataclass
from pathlib import Path

import pytest
import yaml

from corpus_forge.config import RunConfig, apply_overrides, load_config
from corpus_forge.errors import ConfigError

README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(tmp_path, payload):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg.backend == "mock"
        assert cfg.plan.n_nouns == 600
        assert cfg.plan.n_verbs == 600
        assert cfg.plan.sentences_per_seed == 100
        assert cfg.splits.train_token_threshold == 900_000
        assert cfg.splits.valid_token_threshold == 100_000
        assert cfg.em.iterations == 10

    def test_file_values(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "backend": "mock",
                "mock_seed": 9,
                "rng_seed": 4,
                "plan": {"n_nouns": 5, "n_verbs": 6, "sentences_per_seed": 7},
                "splits": {"train_token_threshold": 50,
                           "valid_token_threshold": 25},
                "em": {"iterations": 3},
            },
        )
        cfg = load_config(path)
        assert cfg.mock_seed == 9
        assert cfg.plan.n_nouns == 5
        assert cfg.splits.rng_seed == 4
        assert cfg.em.iterations == 3

    def test_overrides(self, tmp_path):
        path = write_config(tmp_path, {"plan": {"n_nouns": 5}})
        cfg = load_config(path, overrides=["plan.n_nouns=9", "mock_seed=2"])
        assert cfg.plan.n_nouns == 9
        assert cfg.mock_seed == 2

    def test_unknown_sections_are_errors(self, tmp_path):
        # bpe-train takes its vocabulary size as --vocab-size, not from a
        # bpe section; htpp is a misspelled http that would leave the
        # endpoint at its default
        for section in ({"bpe": {"vocab_size": 100}}, {"extra": {"x": 1}},
                        {"htpp": {"endpoint_url": "http://127.0.0.1:9/v1"}}):
            path = write_config(tmp_path, {"backend": "http", **section})
            key, = section
            with pytest.raises(ConfigError, match=f"^invalid configuration: "
                                                  f"unknown setting {key}$"):
                load_config(path)

    def test_bad_backend(self, tmp_path):
        path = write_config(tmp_path, {"backend": "telepathy"})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.yaml")

    def test_bad_override_syntax(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["no-equals-sign"])

    # em, paths and templates, and em.iterations, are checked in tests/test_cli.py
    @pytest.mark.parametrize("section", ["http", "plan", "splits"])
    def test_section_must_be_a_mapping(self, section):
        with pytest.raises(ConfigError, match=f"{section} must be a mapping"):
            load_config(overrides=[f"{section}=5"])

    def test_null_section_takes_defaults(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("http:\nplan:\ntemplates:\nem:\n", encoding="utf-8")
        assert load_config(path) == load_config()

    @pytest.mark.parametrize("text", ["", "# no settings\n"],
                             ids=["empty", "comment-only"])
    def test_empty_file_takes_defaults(self, tmp_path, text):
        path = tmp_path / "run.yaml"
        path.write_text(text, encoding="utf-8")
        assert load_config(path) == load_config()

    @pytest.mark.parametrize("text", ["[1]\n", "[]\n", "false\n", "0\n", '""\n'],
                             ids=["list", "empty-list", "false", "zero", "empty-string"])
    def test_file_must_hold_a_mapping(self, tmp_path, text):
        path = tmp_path / "run.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="^config file must contain a mapping$"):
            load_config(path)

    def test_override_into_a_null_section(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("http:\n", encoding="utf-8")
        assert load_config(path, ["http.max_retries=5"]).http.max_retries == 5
        cfg = load_config(overrides=["http=", "http.max_retries=5"])
        assert cfg.http.max_retries == 5
        with pytest.raises(ConfigError, match="cannot override through scalar"):
            load_config(overrides=["http=5", "http.max_retries=5"])

    def test_templates_section_sets_all_four_system_templates(self):
        with pytest.raises(ConfigError, match="translation_system"):
            load_config(overrides=["templates.seed_nouns_system=Give {n}",
                                   "templates.seed_verbs_system=Give {n}",
                                   "templates.sentences_system=Give {n}"])

    def test_invalid_plan_value(self, tmp_path):
        path = write_config(tmp_path, {"plan": {"n_nouns": 0}})
        with pytest.raises(ConfigError):
            load_config(path)


class TestApplyOverrides:
    def test_nested_creation(self):
        raw = apply_overrides({}, ["a.b.c=1"])
        assert raw == {"a": {"b": {"c": 1}}}

    def test_yaml_typed_values(self):
        raw = apply_overrides({}, ["x=1.5", "y=true", "z=text"])
        assert raw == {"x": 1.5, "y": True, "z": "text"}


def test_readme_config_block_is_every_setting_at_its_default():
    readme = README.read_text(encoding="utf-8")
    section = readme.split("### Configuration\n", 1)[1]
    raw = yaml.safe_load(section.split("```yaml\n", 1)[1].split("```", 1)[0])
    cfg = load_config()
    assert RunConfig.from_mapping(raw) == cfg
    for name, value in vars(cfg).items():
        if is_dataclass(value):
            # the split seed is rng_seed, and hallucinate draws no test split
            fixed = {"rng_seed", "test_token_threshold"} if name == "splits" else set()
            assert raw[name].keys() == vars(value).keys() - fixed, name
        else:
            assert name in raw
