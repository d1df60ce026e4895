"""Reference request fan-out and stage classification: the original code.

Kept verbatim as the oracle for the differential tests in
test_gateway_oracle.py. complete_batch is the original Gateway method, one
ThreadPoolExecutor future per request through pool.map, as a function of
(backend, max_in_flight, requests_). template_pattern and
classify_system_text rebuild every stage pattern on every call, with no
cache. One edit since: template_pattern leaves {seed} and {sentence} as
written, since render fills neither.
"""

import re
from concurrent.futures import ThreadPoolExecutor

from corpus_forge.prompts import (
    STAGE_SEED_NOUNS,
    STAGE_SEED_VERBS,
    STAGE_SENTENCES,
    STAGE_TRANSLATION,
)


def complete_batch(backend, max_in_flight, requests_):
    """Run requests with at most max_in_flight outstanding.

    Returns [(index, result_or_exception), ...] in input order; per-item
    failures do not abort the batch.
    """
    requests_ = list(requests_)
    results = [None] * len(requests_)

    def run(i):
        try:
            return i, backend.complete(requests_[i])
        except Exception as exc:
            return i, exc

    if not requests_:
        return []
    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        for i, outcome in pool.map(run, range(len(requests_))):
            results[i] = (i, outcome)
    return results


def template_pattern(template: str) -> re.Pattern:
    """Regex matching any rendering of a template; {n} captures the count."""
    escaped = re.escape(template)
    escaped = escaped.replace(re.escape("{n}"), r"(?P<n>\d+)")
    for placeholder in ("{src}", "{tgt}"):
        escaped = escaped.replace(re.escape(placeholder), r".+?")
    return re.compile(escaped, re.DOTALL)


def classify_system_text(templates, system_text: str):
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
