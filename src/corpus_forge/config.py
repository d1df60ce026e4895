"""Run configuration: one YAML file plus dotted --set overrides.

Secrets never live in the config file; the API key is read from the
environment variable named by http.api_key_source.
"""

from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .corpus import SplitSpec
from .errors import ConfigError
from .gateway import BackendConfig, _check_count
from .hallucinate import GenerationPlan
from .prompts import PromptTemplateSet

DEFAULT_RUN_ROOT = "runs"
SECTIONS = ("http", "plan", "templates", "splits", "em", "paths")


@dataclass
class RunConfig:
    backend: str = "mock"
    mock_seed: int = 0
    rng_seed: int = 0
    backend_config: BackendConfig = field(default_factory=BackendConfig)
    plan: GenerationPlan = field(default_factory=GenerationPlan)
    templates: PromptTemplateSet = field(default_factory=PromptTemplateSet.defaults)
    split_spec: SplitSpec = field(default_factory=SplitSpec)
    em_iterations: int = 10
    run_root: str = DEFAULT_RUN_ROOT

    @classmethod
    def from_mapping(cls, raw: dict) -> "RunConfig":
        try:
            backend = raw.get("backend", "mock")
            if backend not in ("mock", "http"):
                raise ConfigError(f"backend must be 'mock' or 'http', got {backend!r}")
            # an absent or empty (null) section takes its defaults
            section = {n: {} if raw.get(n) is None else raw[n] for n in SECTIONS}
            for name, value in section.items():
                if not isinstance(value, dict):
                    raise ConfigError(f"{name} must be a mapping, got {value!r}")
            rng_seed = raw.get("rng_seed", 0)
            mock_seed = raw.get("mock_seed", 0)
            _check_count("rng_seed", rng_seed)
            _check_count("mock_seed", mock_seed)
            split_section = dict(section["splits"])
            split_section.setdefault("rng_seed", rng_seed)
            em_iterations = section["em"].get("iterations", 10)
            _check_count("em.iterations", em_iterations, 1)
            return cls(
                backend=backend,
                mock_seed=mock_seed,
                rng_seed=rng_seed,
                backend_config=BackendConfig(**section["http"]),
                plan=GenerationPlan(**section["plan"]),
                templates=(
                    PromptTemplateSet.from_config(section["templates"])
                    if section["templates"]
                    else PromptTemplateSet.defaults()
                ),
                split_spec=SplitSpec(**split_section),
                em_iterations=em_iterations,
                run_root=str(section["paths"].get("run_root", DEFAULT_RUN_ROOT)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid configuration: {exc}") from exc


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply key=value overrides with dotted keys; values parse as YAML scalars."""
    for override in overrides:
        if "=" not in override:
            raise ConfigError(f"override must be key=value, got {override!r}")
        key, _, value = override.partition("=")
        target = raw
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"cannot override through scalar at {part!r}")
        target[parts[-1]] = yaml.safe_load(value)
    return raw


def load_config(path=None, overrides=()) -> RunConfig:
    raw = {}
    if path is not None:
        try:
            raw = yaml.safe_load(Path(path).read_text(encoding="utf-8")) or {}
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not UTF-8: {path}: {exc.reason}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file is not valid YAML: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a mapping")
    apply_overrides(raw, overrides)
    return RunConfig.from_mapping(raw)
