"""Run configuration: one YAML file plus dotted --set overrides.

A setting's type is the annotation of its dataclass field, its lower
bound, if it has one, is in BOUNDS, and its upper bound in CEILINGS;
_settings checks all three for every setting.
Secrets never live in the config file; the API key is read from the
environment variable named by http.api_key_source. yaml is imported only
when there is a file or an override to parse.
"""

import threading
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import SplitSpec, _refused
from .errors import ConfigError
from .gateway import BackendConfig, check_value
from .hallucinate import GenerationPlan
from .prompts import DEFAULT_TEMPLATES, PromptTemplateSet

BOUNDS = {
    "http.max_in_flight": (">=", 1),
    "http.max_retries": (">=", 0),
    "http.backoff_base": (">=", 0),
    "http.timeout": (">", 0),
    "plan.n_nouns": (">=", 1),
    "plan.n_verbs": (">=", 1),
    "plan.sentences_per_seed": (">=", 1),
    "plan.generation_temperature": (">=", 0),
    "plan.translation_temperature": (">=", 0),
    "splits.train_token_threshold": (">=", 1),
    "splits.valid_token_threshold": (">=", 1),
    "em.iterations": (">=", 1),
    # each system template is a message of its own, and a message has content
    "templates.seed_nouns_system": (">", ""),
    "templates.seed_verbs_system": (">", ""),
    "templates.sentences_system": (">", ""),
    "templates.translation_system": (">", ""),
}
# a socket timeout or a sleep longer than TIMEOUT_MAX is an OverflowError
CEILINGS = {
    "http.backoff_base": threading.TIMEOUT_MAX,
    "http.timeout": threading.TIMEOUT_MAX,
}


@dataclass
class EmSettings:
    iterations: int = 10


@dataclass
class PathSettings:
    run_root: str = "runs"


@dataclass
class RunConfig:
    backend: str = "mock"
    mock_seed: int = 0
    rng_seed: int = 0
    http: BackendConfig = field(default_factory=BackendConfig)
    plan: GenerationPlan = field(default_factory=GenerationPlan)
    templates: PromptTemplateSet = field(default_factory=PromptTemplateSet.defaults)
    splits: SplitSpec = field(default_factory=SplitSpec)
    em: EmSettings = field(default_factory=EmSettings)
    paths: PathSettings = field(default_factory=PathSettings)

    @classmethod
    def from_mapping(cls, raw: dict) -> "RunConfig":
        # every other top-level key, unknown ones included, is checked here
        top = {k: v for k, v in raw.items()
               if k not in ("http", "plan", "templates", "splits", "em", "paths")}
        try:
            cfg = _settings(cls, "", top)
            if cfg.backend not in ("mock", "http"):
                raise ValueError(f"backend must be mock or http, got {cfg.backend!r}")
            cfg.http = _settings(BackendConfig, "http", raw.get("http"))
            cfg.plan = _settings(GenerationPlan, "plan", raw.get("plan"))
            # a templates section that sets anything sets all four system templates
            templates = raw.get("templates")
            cfg.templates = _settings(PromptTemplateSet, "templates", DEFAULT_TEMPLATES
                                      if templates in (None, {}) else templates)
            # the split seed is the run's rng_seed; hallucinate draws no test split
            cfg.splits = _settings(SplitSpec, "splits", raw.get("splits"),
                                   rng_seed=cfg.rng_seed, test_token_threshold=None)
            cfg.em = _settings(EmSettings, "em", raw.get("em"))
            cfg.paths = _settings(PathSettings, "paths", raw.get("paths"))
            return cfg
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid configuration: {exc}") from exc


def _settings(cls, name, section, **fixed):
    """cls(**section, **fixed), once each key of section is a checked setting.

    An absent (None) section is empty. A key must name a field of cls that
    fixed does not set, and its value must have the field's type, meet its
    bound in BOUNDS and not exceed its ceiling in CEILINGS.
    """
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise ValueError(f"{name} must be a mapping, got {section!r}")
    types = typing.get_type_hints(cls)
    for key, value in section.items():
        dotted = f"{name}.{key}" if name else key
        if key not in types or key in fixed:
            raise ValueError(f"unknown setting {dotted}")
        kind = types[key]
        if typing.get_origin(kind) is typing.Union:  # Optional[X]: None or an X
            if value is None:
                continue
            kind = typing.get_args(kind)[0]
        check_value(dotted, value, kind, BOUNDS.get(dotted))
        if dotted in CEILINGS and value > CEILINGS[dotted]:
            raise ValueError(f"{dotted} must be <= {CEILINGS[dotted]}")
    return cls(**section, **fixed)


def _parse_yaml(text, what):
    """text parsed as YAML; ConfigError "<what> is not valid YAML: ..." for
    text the parser refuses: bad syntax, an integer past Python's digit
    limit (ValueError) or nesting deeper than it goes (RecursionError)."""
    import yaml

    try:
        return yaml.safe_load(text)
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise ConfigError(f"{what} is not valid YAML: {exc}") from exc


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply key=value overrides with dotted keys; values parse as YAML scalars.
    A section that is absent or null is empty."""
    for override in overrides:
        if "=" not in override:
            raise ConfigError(f"override must be key=value, got {override!r}")
        key, _, value = override.partition("=")
        target = raw
        parts = key.split(".")
        for part in parts[:-1]:
            if target.get(part) is None:
                target[part] = {}
            target = target[part]
            if not isinstance(target, dict):
                raise ConfigError(f"cannot override through scalar at {part!r}")
        target[parts[-1]] = _parse_yaml(value, f"override {key}")
    return raw


def load_config(path=None, overrides=()) -> RunConfig:
    raw = {}
    if path is not None:
        try:
            with _refused("read", path):
                try:
                    text = Path(path).read_text(encoding="utf-8")
                except FileNotFoundError as exc:
                    raise ConfigError(f"config file not found: {path}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not UTF-8: {path}: {exc.reason}") from exc
        raw = _parse_yaml(text, "config file")
        if raw is None:  # an empty or comment-only file
            raw = {}
        elif not isinstance(raw, dict):
            raise ConfigError("config file must contain a mapping")
    apply_overrides(raw, overrides)
    return RunConfig.from_mapping(raw)
