"""Prompt templates for the three generation stages.

Placeholder syntax: {n} (item count), {seed} (seed word), {src}/{tgt}
(language names), {sentence} (text to translate). Seed words and sentences
travel as user messages, so system templates normally use only {n}, {src}
and {tgt}.
"""

import functools
import re
from dataclasses import dataclass
from typing import Optional

STAGE_SEED_NOUNS = "seed_nouns"
STAGE_SEED_VERBS = "seed_verbs"
STAGE_SENTENCES = "sentences"
STAGE_TRANSLATION = "translation"

# ready-to-run defaults for a German -> English run; real runs normally
# supply their own templates in the run config
DEFAULT_TEMPLATES = {
    "seed_nouns_system": (
        "Generieren Sie {n} einzigartige zufällige Substantive, "
        "die jeweils durch ein Komma getrennt sind"
    ),
    "seed_verbs_system": (
        "Generieren Sie {n} einzigartige zufällige Verben, "
        "die jeweils durch ein Komma getrennt sind"
    ),
    "sentences_system": (
        "Generieren Sie an der Eingabeaufforderung {n} separate Sätze, "
        "die durch ein Semikolon getrennt sind"
    ),
    "sentences_fewshot": "Gärten und Terrassen;Tacos sind gut.;",
    "translation_system": "Translate from {src} to {tgt}",
}


@dataclass
class PromptTemplateSet:
    seed_nouns_system: str
    seed_verbs_system: str
    sentences_system: str
    translation_system: str
    sentences_fewshot: Optional[str] = None

    @classmethod
    def defaults(cls):
        return cls.from_config(DEFAULT_TEMPLATES)

    @classmethod
    def from_config(cls, section: dict):
        required = {
            "seed_nouns_system",
            "seed_verbs_system",
            "sentences_system",
            "translation_system",
        }
        missing = required - section.keys()
        if missing:
            raise ValueError(f"templates section missing {sorted(missing)}")
        for name in sorted(required):
            if not isinstance(section[name], str):
                raise ValueError(
                    f"templates.{name} must be a string, got {section[name]!r}"
                )
        fewshot = section.get("sentences_fewshot")
        if fewshot is not None and not isinstance(fewshot, str):
            raise ValueError(
                f"templates.sentences_fewshot must be a string, got {fewshot!r}"
            )
        return cls(
            seed_nouns_system=section["seed_nouns_system"],
            seed_verbs_system=section["seed_verbs_system"],
            sentences_system=section["sentences_system"],
            translation_system=section["translation_system"],
            sentences_fewshot=fewshot,
        )

    def system_for(self, stage: str) -> str:
        return {
            STAGE_SEED_NOUNS: self.seed_nouns_system,
            STAGE_SEED_VERBS: self.seed_verbs_system,
            STAGE_SENTENCES: self.sentences_system,
            STAGE_TRANSLATION: self.translation_system,
        }[stage]


def render(template: str, **values) -> str:
    out = template
    for key, value in values.items():
        out = out.replace("{" + key + "}", str(value))
    return out


@functools.lru_cache(maxsize=32)
def template_pattern(template: str) -> re.Pattern:
    """Regex matching any rendering of a template; {n} captures the count.

    Cached on the template text, so an edited PromptTemplateSet is matched
    by its current templates.
    """
    escaped = re.escape(template)
    escaped = escaped.replace(re.escape("{n}"), r"(?P<n>\d+)")
    for placeholder in ("{seed}", "{src}", "{tgt}", "{sentence}"):
        escaped = escaped.replace(re.escape(placeholder), r".+?")
    return re.compile(escaped, re.DOTALL)


def classify_system_text(templates: PromptTemplateSet, system_text: str):
    """Match a rendered system message back to (stage, requested n or None)."""
    stages = (
        STAGE_SEED_NOUNS,
        STAGE_SEED_VERBS,
        STAGE_SENTENCES,
        STAGE_TRANSLATION,
    )
    for stage in stages:
        match = template_pattern(templates.system_for(stage)).fullmatch(system_text)
        if match:
            n = match.groupdict().get("n")
            return stage, int(n) if n is not None else None
    return None, None
