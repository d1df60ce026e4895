"""Prompt templates for the three generation stages.

render fills three placeholders: {n} (item count) and {src}/{tgt}
(language names). Seed words and sentences travel as user messages, so no
placeholder stands for them; a {seed} or {sentence} in a template is sent
as written.
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
        return cls(**DEFAULT_TEMPLATES)

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


def template_pattern(template: str) -> re.Pattern:
    """Regex matching any rendering of a template; {n} captures the count."""
    escaped = re.escape(template)
    escaped = escaped.replace(re.escape("{n}"), r"(?P<n>\d+)")
    for placeholder in ("{src}", "{tgt}"):
        escaped = escaped.replace(re.escape(placeholder), r".+?")
    return re.compile(escaped, re.DOTALL)


def classify_system_text(templates: PromptTemplateSet, system_text: str):
    """Match a rendered system message back to (stage, requested n or None).

    Cached on the four system templates and the text, so a run classifies
    each of its few distinct system messages once, and an edited
    PromptTemplateSet is matched by its current templates.
    """
    return _classify(templates.seed_nouns_system, templates.seed_verbs_system,
                     templates.sentences_system, templates.translation_system,
                     system_text)


@functools.lru_cache(maxsize=256)
def _classify(seed_nouns, seed_verbs, sentences, translation, system_text):
    stages = (
        (STAGE_SEED_NOUNS, seed_nouns),
        (STAGE_SEED_VERBS, seed_verbs),
        (STAGE_SENTENCES, sentences),
        (STAGE_TRANSLATION, translation),
    )
    for stage, template in stages:
        match = template_pattern(template).fullmatch(system_text)
        if match:
            n = match.groupdict().get("n")
            return stage, int(n) if n is not None else None
    return None, None
