"""Chat-completions gateway: HTTP backend with retries, plus a hermetic mock.

Wire shape is the standard chat-completions JSON: POST with
{"model", "messages", "temperature", "max_tokens"}; the assistant text is
read from choices[0].message.content.

The HTTP backend speaks HTTP/1.1 through the standard library's
http.client (and with it ssl), imported when the backend builds its
session, which serves the one endpoint URL it is built for: a process that
never builds an HTTP backend never loads them.
"""

import logging
import math
import os
import random
import threading
import time
from dataclasses import dataclass
from json import dumps, loads
from types import SimpleNamespace

from . import __version__, mockdata, prompts
from .errors import (
    AuthError,
    ConfigError,
    ProtocolError,
    RateLimited,
    TransportError,
    UnclassifiableRequest,
)

log = logging.getLogger(__name__)

# The longest backoff wait: a 429 that asks for a longer one fails the
# request instead of parking a worker; the bound matches the default request
# timeout.
MAX_RETRY_AFTER_S = 60
MAX_OUTPUT_TOKENS = 2048  # the max_tokens of every request
USER_AGENT = f"corpus-forge/{__version__}"

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
        # a key http.client cannot send, read from a CRLF file say, ends the
        # run here, not in a traceback that would print the key
        if not _visible_ascii(api_key):
            raise ConfigError(f"environment variable {config.api_key_source} "
                              "must hold only printable ASCII and no space")
        # a bad endpoint URL or proxy ends a run here, before any request
        self._session = (HttpSession(config.endpoint_url, config.timeout)
                         if session is None else session)
        self._headers = {
            "Authorization": f"Bearer {api_key}",
            "Content-Type": "application/json",
        }

    def close(self):
        """Close the idle connections of an HttpSession; any other session
        (a test's fake, say) is closed by whoever made it."""
        if isinstance(self._session, HttpSession):
            self._session.close()

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
        # the nth retry waits backoff_base * 2 ** (n - 1) s, at most
        # MAX_RETRY_AFTER_S: doubled wait by wait from the capped one, it
        # never grows past a float, nor past what time.sleep takes
        backoff = self.config.backoff_base
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                delay = min(backoff, MAX_RETRY_AFTER_S)
                backoff = delay * 2
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
        response = self._session.post(
            self.config.endpoint_url,
            json=body,
            headers=self._headers,
            timeout=self.config.timeout,
        )
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
        # RecursionError: a body nested deeper than the JSON parser goes
        except (ValueError, RecursionError, KeyError, IndexError, TypeError) as exc:
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


class HttpSession:
    """The default session of an HttpBackend: JSON POSTs to the one URL it is
    built for, over keep-alive HTTP/1.1 connections of http.client.

    post() takes the arguments HttpBackend passes to requests.Session.post
    and answers what it reads of a requests.Response: status_code,
    headers.get, json() and text. Each post takes an idle connection, or
    opens one, and gives it back once the response is read whole, so a
    Gateway's workers hold at most max_in_flight sockets, which later
    batches and stages reuse. A connection the server closed while idle is
    replaced before it carries a request. Redirects are not followed and
    netrc is not read. A failure to connect, send or read closes the
    connection and raises TransportError.

    Posts go straight to the URL's server, or through the proxy that the
    environment names for it, as urllib reads it (http_proxy, https_proxy,
    all_proxy and no_proxy): HTTPS through a CONNECT tunnel, HTTP through an
    absolute-form request target. TLS is verified against the default trust
    store. A URL or proxy that is not http(s), or holds anything but
    printable ASCII other than the space, is a ConfigError.
    """

    def __init__(self, url, timeout):
        import http.client
        import ssl

        parts = _split_url(url, "http.endpoint_url", ("http", "https"))
        self._lock = threading.Lock()
        self._idle = []  # connections that no post holds
        self._target = parts.path or "/"
        if parts.query:
            self._target += "?" + parts.query
        self._headers = {}  # sent besides the caller's
        self._timeout = timeout
        self._tunnel = None
        https = parts.scheme == "https"
        self._kind = http.client.HTTPSConnection if https else http.client.HTTPConnection
        self._tls = {"context": ssl.create_default_context()} if https else {}
        self._address = (parts.hostname, parts.port)
        proxy = _environment_proxy(parts)
        if proxy is None:
            return
        proxy = _split_url(proxy if "://" in proxy else f"http://{proxy}",
                           "proxy URL", ("http",))
        auth = {}
        if proxy.username:
            import base64
            from urllib.parse import unquote

            user = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
            token = base64.b64encode(user.encode()).decode("ascii")
            auth = {"Proxy-Authorization": f"Basic {token}"}
        if https:
            self._tunnel = (parts.hostname, parts.port, auth)
        else:
            self._target, self._headers = url, auth
        self._address = (proxy.hostname, proxy.port or 80)

    def post(self, url, *, json, headers, timeout):
        """POST json; url and timeout are those the session was built with."""
        import http.client

        body = dumps(json, allow_nan=False).encode()  # as requests sends json=
        headers = {**headers, **self._headers, "User-Agent": USER_AGENT}
        conn, reused = self._take()
        try:
            try:
                conn.request("POST", self._target, body, headers)
                response = conn.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                # the server closed it after the idle check, without answering
                conn.close()
                conn = self._connect()
                conn.request("POST", self._target, body, headers)
                response = conn.getresponse()
            content = response.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise TransportError(f"POST {url}: {str(exc) or type(exc).__name__}") from exc
        if response.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        return SimpleNamespace(
            status_code=response.status, headers=response.headers,
            json=lambda: loads(content), text=content.decode("utf-8", "replace"))

    def _connect(self):
        """A new connection, which opens its socket at its first request."""
        conn = self._kind(*self._address, timeout=self._timeout, **self._tls)
        if self._tunnel:
            conn.set_tunnel(*self._tunnel)
        return conn

    def _take(self):
        """(connection, reused): an idle connection that the server has not
        closed, or a new one."""
        import select

        while True:
            with self._lock:
                if not self._idle:
                    return self._connect(), False
                conn = self._idle.pop()
            # an idle socket that reads as ready holds the server's end of
            # file (or bytes no request asked for): it cannot carry a request
            if not select.select([conn.sock], [], [], 0)[0]:
                return conn, True
            conn.close()

    def close(self):
        """Close every idle connection."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


def _visible_ascii(text):
    """Whether text holds only printable ASCII characters other than the
    space, as a URL and a bearer token are written."""
    return text.isascii() and text.isprintable() and " " not in text


def _split_url(url, name, schemes):
    """url split into its parts; ConfigError naming it unless it is written
    in printable ASCII without a space, as http.client sends a request line,
    and has a host and one of schemes."""
    from urllib.parse import urlsplit

    # checked before urlsplit, which would drop a tab or line break unsaid
    if not _visible_ascii(url):
        raise ConfigError(
            f"{name} must hold only printable ASCII and no space, got {url!r}")
    try:
        parts = urlsplit(url)
        parts.port  # raises ValueError for a port that is not a number
    except ValueError as exc:
        raise ConfigError(f"bad {name} {url!r}: {exc}") from None
    if parts.scheme not in schemes or not parts.hostname:
        raise ConfigError(f"{name} must be an {' or '.join(schemes)} URL, got {url!r}")
    return parts


def _environment_proxy(parts):
    """The proxy URL the environment names for a split URL, or None.

    urllib.request, which reads them, is imported only when some *_proxy
    variable is set.
    """
    if not any(name.lower().endswith("_proxy") for name in os.environ):
        return None
    import urllib.request

    if urllib.request.proxy_bypass(parts.netloc):
        return None
    proxies = urllib.request.getproxies()
    return proxies.get(parts.scheme) or proxies.get("all")


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

    def complete_batch(self, requests_, parse=None):
        """Run requests with at most max_in_flight outstanding.

        Returns [(index, result_or_exception), ...] in input order; per-item
        failures do not abort the batch. A result is parse(answer), or the
        answer itself when parse is None: the worker that received an answer
        parses it before it takes the next request, so the batch holds
        parsed answers and never more than max_in_flight raw ones.
        min(max_in_flight, len(requests_)) worker threads each take the next
        index from one shared iterator, so the per-request cost is one call,
        whatever the batch size. Only an Exception that the backend raises
        is a failed request: an exception that parse raises, or one that is
        not an Exception (SystemExit, say), stops its worker and is raised
        here once every worker is done.
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
                        outcome = complete(requests_[i])
                    except Exception as exc:
                        outcome = exc
                    else:
                        if parse is not None:
                            outcome = parse(outcome)  # drops the raw answer
                    results[i] = (i, outcome)
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
