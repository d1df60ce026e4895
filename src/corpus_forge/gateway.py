"""Chat-completions gateway: HTTP backend with retries, plus a hermetic mock.

Wire shape is the standard chat-completions JSON: POST with
{"model", "messages", "temperature", "max_tokens"}; the assistant text is
read from choices[0].message.content.

Only the HTTP backend needs requests (and with it urllib3 and ssl), so it
is imported where that backend is built and posts: a process that never
calls an HTTP endpoint never loads it.
"""

import logging
import math
import os
import random
import threading
import time
from dataclasses import dataclass

from . import mockdata, prompts
from .errors import (
    AuthError,
    ConfigError,
    ProtocolError,
    RateLimited,
    TransportError,
    UnclassifiableRequest,
)

log = logging.getLogger(__name__)

# A 429 that asks for a longer wait fails the request instead of parking a
# worker; the bound matches the default request timeout.
MAX_RETRY_AFTER_S = 60
MAX_OUTPUT_TOKENS = 2048  # the max_tokens of every request

ROLES = ("system", "user", "assistant")


@dataclass(frozen=True, slots=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"bad role: {self.role!r}")
        if not self.content:
            raise ValueError("message content must be non-empty")


@dataclass(frozen=True, slots=True)
class ChatRequest:
    messages: tuple
    model_name: str = "gpt-3.5-turbo"
    temperature: float = 1.0

    def __post_init__(self):
        if not self.messages:
            raise ValueError("request needs at least one message")

    def first_content(self, role: str):
        for message in self.messages:
            if message.role == role:
                return message.content
        return None


@dataclass
class BackendConfig:
    endpoint_url: str = "https://api.openai.com/v1/chat/completions"
    api_key_source: str = "LLM_API_KEY"
    max_in_flight: int = 4
    max_retries: int = 3
    backoff_base: float = 1.0  # seconds
    timeout: float = 60.0


_KINDS = {
    int: (int, "an integer"),
    float: ((int, float), "a finite number"),
    str: (str, "a string"),
}


def check_value(name, value, kind=int, bound=None):
    """ValueError unless value is of kind and meets bound, if one is given.

    kind is int (an int that is not a bool), float (a finite int or float
    that is not a bool) or str; bound is (">=", limit) or (">", limit), and
    (">", "") asks for a non-empty str.
    """
    types, noun = _KINDS[kind]
    if (isinstance(value, bool) or not isinstance(value, types)
            or kind is float and not math.isfinite(value)):
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    if bound is not None:
        op, limit = bound
        if not (value > limit if op == ">" else value >= limit):
            rule = "non-empty" if limit == "" else f"{op} {limit}"
            raise ValueError(f"{name} must be {rule}")


class HttpBackend:
    """Real chat-completions endpoint with exponential-backoff retries."""

    def __init__(self, config: BackendConfig, session=None):
        self.config = config
        api_key = os.environ.get(config.api_key_source)
        if not api_key:
            raise ConfigError(
                f"environment variable {config.api_key_source} is not set"
            )
        import requests

        self._session = session or requests.Session()
        self._headers = {
            "Authorization": f"Bearer {api_key}",
            "Content-Type": "application/json",
        }

    def complete(self, request: ChatRequest) -> str:
        body = {
            "model": request.model_name,
            "messages": [
                {"role": m.role, "content": m.content} for m in request.messages
            ],
            "temperature": request.temperature,
            "max_tokens": MAX_OUTPUT_TOKENS,
        }
        last_error = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                delay = self.config.backoff_base * (2 ** (attempt - 1))
                if isinstance(last_error, RateLimited) and last_error.retry_after:
                    if last_error.retry_after > MAX_RETRY_AFTER_S:
                        raise last_error
                    delay = max(delay, last_error.retry_after)
                log.debug("retrying after %.1fs (attempt %d)", delay, attempt + 1)
                time.sleep(delay)
            try:
                return self._post(body)
            except TransportError as exc:
                last_error = exc
        raise last_error

    def _post(self, body) -> str:
        import requests

        try:
            response = self._session.post(
                self.config.endpoint_url,
                json=body,
                headers=self._headers,
                timeout=self.config.timeout,
            )
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        if response.status_code in (401, 403):
            raise AuthError(f"authentication rejected ({response.status_code})")
        if response.status_code == 429:
            raise RateLimited(
                "rate limited",
                retry_after=_retry_after_seconds(response.headers.get("Retry-After")),
            )
        if response.status_code >= 500:
            raise TransportError(f"server error {response.status_code}")
        if response.status_code != 200:
            raise ProtocolError(
                f"unexpected status {response.status_code}: {response.text[:200]}"
            )
        try:
            content = response.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed response body: {exc}") from exc
        if not isinstance(content, str):
            raise ProtocolError(
                f"malformed response body: content is not a string: {content!r:.80}")
        return content


def _retry_after_seconds(value):
    """Seconds to wait from a Retry-After header: delay-seconds or an HTTP-date.

    A date in the past gives 0. A missing, unparseable, out-of-range or
    non-finite value gives None, as if the header were absent.
    """
    if not value:
        return None
    try:
        seconds = float(value)
    except ValueError:
        import datetime
        import email.utils

        try:
            when = email.utils.parsedate_to_datetime(value)
        except (ValueError, OverflowError):  # no date, or fields out of range
            return None
        if when.tzinfo is None:  # "-0000" dates carry no zone; HTTP-dates are GMT
            when = when.replace(tzinfo=datetime.timezone.utc)
        seconds = when.timestamp() - time.time()
    return max(seconds, 0.0) if math.isfinite(seconds) else None


class MockBackend:
    """Deterministic offline backend emulating the three generation stages.

    Classifies each request by matching its system message against the
    configured templates, then answers from bundled word lists, repetitive
    sentence templates, and a toy word-by-word lexicon. The match is cached
    by prompts.classify_system_text, so each distinct system message is
    classified once per template set. Identical (request, mock_seed) always
    yields identical bytes.
    """

    def __init__(self, templates: prompts.PromptTemplateSet = None, mock_seed: int = 0):
        self.templates = templates or prompts.PromptTemplateSet.defaults()
        self.mock_seed = mock_seed

    def _rng(self, request: ChatRequest) -> random.Random:
        import hashlib

        digest = hashlib.sha256()
        digest.update(str(self.mock_seed).encode())
        for message in request.messages:
            digest.update(message.role.encode())
            digest.update(b"\x00")
            digest.update(message.content.encode())
            digest.update(b"\x00")
        return random.Random(int.from_bytes(digest.digest()[:8], "big"))

    def complete(self, request: ChatRequest) -> str:
        system_text = request.first_content("system")
        if system_text is None:
            raise UnclassifiableRequest("request has no system message")
        stage, n = prompts.classify_system_text(self.templates, system_text)
        if stage is None:
            raise UnclassifiableRequest(
                f"system message matches no stage template: {system_text[:80]!r}"
            )
        user_text = request.first_content("user")
        if stage == prompts.STAGE_SEED_NOUNS:
            return self._seed_list(request, mockdata.NOUNS, n or 10)
        if stage == prompts.STAGE_SEED_VERBS:
            return self._seed_list(request, mockdata.VERBS, n or 10)
        if stage == prompts.STAGE_SENTENCES:
            if user_text is None:
                raise UnclassifiableRequest("sentence request has no user message")
            return self._sentences(user_text, n or len(mockdata.SENTENCE_TEMPLATES))
        if user_text is None:
            raise UnclassifiableRequest("translation request has no user message")
        return mockdata.translate_sentence(user_text)

    def _seed_list(self, request, pool, n) -> str:
        rng = self._rng(request)
        picked = rng.sample(pool, min(n, len(pool)))
        return ", ".join(picked)

    def _sentences(self, seed: str, n: int) -> str:
        rendered = [t.format(seed=seed) for t in mockdata.SENTENCE_TEMPLATES]
        # the templates in turn, n sentences in all
        full, rest = divmod(n, len(rendered))
        return ";".join(rendered * full + rendered[:rest]) + ";"


class Gateway:
    """Bounded-concurrency front door over a backend."""

    def __init__(self, backend, max_in_flight: int = 4):
        check_value("max_in_flight", max_in_flight, int, (">=", 1))
        self.backend = backend
        self.max_in_flight = max_in_flight

    def complete_batch(self, requests_):
        """Run requests with at most max_in_flight outstanding.

        Returns [(index, result_or_exception), ...] in input order; per-item
        failures do not abort the batch. min(max_in_flight, len(requests_))
        worker threads each take the next index from one shared iterator,
        so the per-request cost is one call, whatever the batch size. An
        exception that is not an Exception (SystemExit, say) stops its
        worker and is raised here once every worker is done.
        """
        requests_ = list(requests_)
        results = [None] * len(requests_)
        # next() on a range iterator is atomic under the GIL: each index is
        # taken by exactly one worker
        indices = iter(range(len(requests_)))
        complete = self.backend.complete
        escaped = []

        def work():
            try:
                for i in indices:
                    try:
                        results[i] = (i, complete(requests_[i]))
                    except Exception as exc:
                        results[i] = (i, exc)
            except BaseException as exc:
                escaped.append(exc)

        # daemon: an interrupted run exits without draining the batch
        workers = [
            threading.Thread(target=work, daemon=True)
            for _ in range(min(self.max_in_flight, len(requests_)))
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        if escaped:
            raise escaped[0]
        return results


def make_backend(backend_name: str, config: BackendConfig = None,
                 templates=None, mock_seed: int = 0):
    if backend_name == "mock":
        return MockBackend(templates=templates, mock_seed=mock_seed)
    if backend_name == "http":
        return HttpBackend(config or BackendConfig())
    raise ConfigError(f"unknown backend: {backend_name!r}")
