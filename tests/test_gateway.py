import email.utils
import json
import socket
import threading
import time

import pytest

from corpus_forge import __version__
from corpus_forge import gateway as gateway_module
from corpus_forge.errors import (
    AuthError,
    ConfigError,
    ProtocolError,
    RateLimited,
    TransportError,
    UnclassifiableRequest,
)
from corpus_forge.gateway import (
    BackendConfig,
    ChatMessage,
    ChatRequest,
    Gateway,
    HttpBackend,
    MockBackend,
    make_backend,
)
from corpus_forge.prompts import PromptTemplateSet, render


def seed_request(n=10, kind="seed_nouns_system"):
    templates = PromptTemplateSet.defaults()
    system = render(getattr(templates, kind), n=n)
    return ChatRequest(messages=(ChatMessage("system", system),))


def sentence_request(seed, n=4):
    templates = PromptTemplateSet.defaults()
    return ChatRequest(
        messages=(
            ChatMessage("system", render(templates.sentences_system, n=n)),
            ChatMessage("user", seed),
            ChatMessage("assistant", templates.sentences_fewshot),
        )
    )


def translation_request(sentence):
    templates = PromptTemplateSet.defaults()
    return ChatRequest(
        messages=(
            ChatMessage("system", render(templates.translation_system,
                                         src="de", tgt="en")),
            ChatMessage("user", sentence),
        )
    )


class TestMessages:
    def test_bad_role_rejected(self):
        with pytest.raises(ValueError):
            ChatMessage("moderator", "hi")

    def test_empty_content_rejected(self):
        with pytest.raises(ValueError):
            ChatMessage("user", "")

    def test_empty_request_rejected(self):
        with pytest.raises(ValueError):
            ChatRequest(messages=())

    def test_consecutive_assistant_messages_allowed(self):
        ChatRequest(
            messages=(
                ChatMessage("assistant", "one"),
                ChatMessage("assistant", "two"),
            )
        )


class TestMockBackend:
    def test_seed_generation_no_duplicates(self):
        mock = MockBackend(mock_seed=1)
        items = [s.strip() for s in mock.complete(seed_request(10)).split(",")]
        assert len(items) == 10
        assert len(set(items)) == 10

    def test_nouns_and_verbs_draw_from_different_pools(self):
        mock = MockBackend(mock_seed=1)
        nouns = mock.complete(seed_request(5, "seed_nouns_system"))
        verbs = mock.complete(seed_request(5, "seed_verbs_system"))
        assert nouns != verbs

    def test_sentences_contain_seed(self):
        mock = MockBackend(mock_seed=0)
        response = mock.complete(sentence_request("Eule", n=3))
        sentences = [s for s in response.split(";") if s.strip()]
        assert len(sentences) == 3
        assert all("Eule" in s for s in sentences)

    def test_translation_uses_toy_lexicon(self):
        mock = MockBackend(mock_seed=0)
        assert mock.complete(translation_request("Eine Eule ruft")) == "An owl calls"

    def test_deterministic(self):
        request = seed_request(8)
        assert (
            MockBackend(mock_seed=3).complete(request)
            == MockBackend(mock_seed=3).complete(request)
        )

    def test_different_seed_different_output(self):
        request = seed_request(8)
        assert (
            MockBackend(mock_seed=1).complete(request)
            != MockBackend(mock_seed=2).complete(request)
        )

    def test_unclassifiable_request(self):
        mock = MockBackend(mock_seed=0)
        bad = ChatRequest(messages=(ChatMessage("system", "Do something else"),))
        with pytest.raises(UnclassifiableRequest):
            mock.complete(bad)

    def test_template_edited_after_first_complete(self):
        """Classification is cached on the templates' texts, so the mock
        follows an edit made after it has answered."""
        mock = MockBackend(mock_seed=0)
        request = translation_request("Eine Eule ruft")
        assert mock.complete(request) == "An owl calls"
        mock.templates.translation_system = "Übersetze von {src} nach {tgt}"
        with pytest.raises(UnclassifiableRequest):
            mock.complete(request)
        edited = ChatRequest(messages=(
            ChatMessage("system", "Übersetze von de nach en"),
            ChatMessage("user", "Eine Eule ruft"),
        ))
        assert mock.complete(edited) == "An owl calls"


class FlakyBackend:
    """Fails a fixed number of times before succeeding."""

    def __init__(self, failures, error=TransportError("transient")):
        self.remaining = failures
        self.error = error
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise self.error
        return "ok"


class TestGatewayBatch:
    def test_indices_complete_and_ordered(self):
        gateway = Gateway(MockBackend(mock_seed=0), max_in_flight=2)
        requests = [seed_request(n) for n in range(3, 8)]
        results = gateway.complete_batch(requests)
        assert [i for i, _ in results] == [0, 1, 2, 3, 4]
        assert all(isinstance(r, str) for _, r in results)

    def test_per_item_failure_does_not_abort(self):
        mock = MockBackend(mock_seed=0)

        class Mixed:
            def complete(self, request):
                if request.first_content("user") == "fail":
                    raise TransportError("permanent")
                return mock.complete(request)

        gateway = Gateway(Mixed(), max_in_flight=2)
        requests = [
            translation_request("Eine Eule"),
            translation_request("fail"),
            translation_request("Der Hund"),
        ]
        results = gateway.complete_batch(requests)
        assert isinstance(results[1][1], TransportError)
        assert isinstance(results[0][1], str)
        assert isinstance(results[2][1], str)

    def test_batch_deterministic_on_mock(self):
        requests = [sentence_request(w, 3) for w in ["Hund", "Katze", "Haus"]]
        a = Gateway(MockBackend(mock_seed=5), max_in_flight=3).complete_batch(requests)
        b = Gateway(MockBackend(mock_seed=5), max_in_flight=1).complete_batch(requests)
        assert a == b

    def test_bounded_concurrency(self):
        active = 0
        peak = 0
        lock = threading.Lock()

        class Probe:
            def complete(self, request):
                nonlocal active, peak
                with lock:
                    active += 1
                    peak = max(peak, active)
                threading.Event().wait(0.01)
                with lock:
                    active -= 1
                return "x"

        gateway = Gateway(Probe(), max_in_flight=2)
        gateway.complete_batch([seed_request(3)] * 10)
        assert peak <= 2


class FakeResponse:
    def __init__(self, status_code, payload=None, headers=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.headers = headers or {}
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        outcome = self.responses.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def ok_response(content="hello"):
    return FakeResponse(
        200, {"choices": [{"message": {"role": "assistant", "content": content}}]}
    )


@pytest.fixture
def api_key_env(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")


class TestHttpBackend:
    def make(self, responses, max_retries=3):
        config = BackendConfig(max_retries=max_retries, backoff_base=0.001)
        session = FakeSession(responses)
        return HttpBackend(config, session=session), session

    def test_missing_api_key_is_config_error(self, monkeypatch):
        monkeypatch.delenv("LLM_API_KEY", raising=False)
        with pytest.raises(ConfigError):
            HttpBackend(BackendConfig())

    def test_wire_shape(self, api_key_env):
        backend, session = self.make([ok_response("hi")])
        request = ChatRequest(
            messages=(ChatMessage("system", "s"), ChatMessage("user", "u")),
            model_name="m",
            temperature=0.5,
        )
        assert backend.complete(request) == "hi"
        body = session.requests[0]["json"]
        assert body == {
            "model": "m",
            "messages": [
                {"role": "system", "content": "s"},
                {"role": "user", "content": "u"},
            ],
            "temperature": 0.5,
            "max_tokens": 2048,
        }
        assert session.requests[0]["headers"]["Authorization"] == "Bearer sk-test"

    def test_two_transient_failures_then_success(self, api_key_env):
        backend, session = self.make(
            [FakeResponse(500), FakeResponse(500), ok_response()], max_retries=3
        )
        request = ChatRequest(messages=(ChatMessage("user", "u"),))
        assert backend.complete(request) == "hello"
        assert len(session.requests) == 3

    def test_retries_exhausted(self, api_key_env):
        backend, _ = self.make([FakeResponse(500)] * 3, max_retries=2)
        with pytest.raises(TransportError):
            backend.complete(ChatRequest(messages=(ChatMessage("user", "u"),)))

    def test_auth_error_not_retried(self, api_key_env):
        backend, session = self.make([FakeResponse(401), ok_response()])
        with pytest.raises(AuthError):
            backend.complete(ChatRequest(messages=(ChatMessage("user", "u"),)))
        assert len(session.requests) == 1

    def test_rate_limit_retried(self, api_key_env):
        backend, session = self.make(
            [FakeResponse(429, headers={"Retry-After": "0.001"}), ok_response()]
        )
        assert (
            backend.complete(ChatRequest(messages=(ChatMessage("user", "u"),)))
            == "hello"
        )
        assert len(session.requests) == 2

    @pytest.mark.parametrize("retry_after", [
        "Wed, 21 Oct 2015 07:28:00 GMT",  # an HTTP-date in the past
        "soon",
        "Mon, 99 Foo 2015 25:61:00 GMT",
    ])
    def test_rate_limit_date_or_junk_waits_only_the_backoff(
            self, api_key_env, monkeypatch, retry_after):
        delays = []
        monkeypatch.setattr(gateway_module.time, "sleep", delays.append)
        backend, session = self.make(
            [FakeResponse(429, headers={"Retry-After": retry_after}), ok_response()]
        )
        request = ChatRequest(messages=(ChatMessage("user", "u"),))
        assert backend.complete(request) == "hello"
        assert len(session.requests) == 2
        assert delays == [backend.config.backoff_base]

    def test_rate_limit_future_http_date_is_honoured(self, api_key_env, monkeypatch):
        delays = []
        monkeypatch.setattr(gateway_module.time, "sleep", delays.append)
        when = email.utils.formatdate(time.time() + 30, usegmt=True)
        backend, _ = self.make(
            [FakeResponse(429, headers={"Retry-After": when}), ok_response()]
        )
        backend.complete(ChatRequest(messages=(ChatMessage("user", "u"),)))
        assert len(delays) == 1 and 28 <= delays[0] <= 30

    @pytest.mark.parametrize("retry_after", [
        "86400",
        "Fri, 31 Dec 9999 23:59:59 GMT",
    ])
    def test_rate_limit_wait_above_cap_fails_at_once(
            self, api_key_env, monkeypatch, retry_after):
        delays = []
        monkeypatch.setattr(gateway_module.time, "sleep", delays.append)
        backend, session = self.make(
            [FakeResponse(429, headers={"Retry-After": retry_after}), ok_response()]
        )
        with pytest.raises(RateLimited) as caught:
            backend.complete(ChatRequest(messages=(ChatMessage("user", "u"),)))
        assert caught.value.retry_after > gateway_module.MAX_RETRY_AFTER_S
        assert len(session.requests) == 1
        assert delays == []

    def test_rate_limit_wait_at_cap_is_honoured(self, api_key_env, monkeypatch):
        delays = []
        monkeypatch.setattr(gateway_module.time, "sleep", delays.append)
        cap = str(gateway_module.MAX_RETRY_AFTER_S)
        backend, session = self.make(
            [FakeResponse(429, headers={"Retry-After": cap}), ok_response()]
        )
        backend.complete(ChatRequest(messages=(ChatMessage("user", "u"),)))
        assert len(session.requests) == 2
        assert delays == [gateway_module.MAX_RETRY_AFTER_S]

    def test_backoff_wait_is_capped(self, api_key_env, monkeypatch):
        """A backoff_base at the settings' ceiling waits the cap each time,
        not a time.sleep that refuses the wait, or a power past a float."""
        delays = []
        monkeypatch.setattr(gateway_module.time, "sleep", delays.append)

        class Down:
            def post(self, url, json=None, headers=None, timeout=None):
                raise TransportError("down")

        config = BackendConfig(max_retries=2, backoff_base=9223372036.0)
        backend = HttpBackend(config, session=Down())
        with pytest.raises(TransportError):
            backend.complete(ChatRequest(messages=(ChatMessage("user", "u"),)))
        assert delays == [60, 60]
        backend = HttpBackend(BackendConfig(max_retries=1100, backoff_base=0.5),
                              session=Down())
        delays.clear()
        with pytest.raises(TransportError):
            backend.complete(ChatRequest(messages=(ChatMessage("user", "u"),)))
        assert delays[:9] == [0.5, 1, 2, 4, 8, 16, 32, 60, 60]
        assert len(delays) == 1100 and set(delays[7:]) == {60}

    def test_malformed_body_is_protocol_error(self, api_key_env):
        backend, _ = self.make([FakeResponse(200, {"unexpected": True})])
        with pytest.raises(ProtocolError):
            backend.complete(ChatRequest(messages=(ChatMessage("user", "u"),)))

    def test_body_nested_too_deep_is_protocol_error(self, api_key_env):
        # json.loads refuses it with RecursionError, not a ValueError
        deep = FakeResponse(200)
        deep.json = lambda: json.loads("[" * 200_000)
        backend, session = self.make([deep, ok_response()])
        with pytest.raises(ProtocolError, match="malformed response body"):
            backend.complete(ChatRequest(messages=(ChatMessage("user", "u"),)))
        assert len(session.requests) == 1

    @pytest.mark.parametrize("content", [None, 5, ["a"]],
                             ids=["null", "number", "list"])
    def test_content_that_is_not_a_string_is_protocol_error(self, api_key_env,
                                                            content):
        backend, session = self.make([ok_response(content), ok_response()])
        with pytest.raises(ProtocolError, match="content is not a string"):
            backend.complete(ChatRequest(messages=(ChatMessage("user", "u"),)))
        assert len(session.requests) == 1

    def test_default_session_maps_a_refused_connection(self, api_key_env,
                                                       monkeypatch):
        # a proxy from the environment would take the request elsewhere
        monkeypatch.setenv("NO_PROXY", "*")
        monkeypatch.setenv("no_proxy", "*")
        with socket.socket() as probe:  # a loopback port nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        config = BackendConfig(endpoint_url=f"http://127.0.0.1:{port}/v1",
                               max_retries=1, backoff_base=0.001, timeout=5)
        backend = HttpBackend(config)
        with pytest.raises(TransportError):
            backend.complete(ChatRequest(messages=(ChatMessage("user", "u"),)))


@pytest.fixture
def http_backend(chat_server):
    """Builds HttpBackends with the default session, posting to chat_server
    unless told otherwise, and closes them when the test ends."""
    made = []

    def make(**settings):
        settings = {"endpoint_url": chat_server.url, "backoff_base": 0.001,
                    **settings}
        made.append(HttpBackend(BackendConfig(**settings)))
        return made[-1]

    yield make
    for backend in made:
        backend.close()


@pytest.fixture
def delays(monkeypatch):
    """The backoff sleeps of the test's requests, which take no time."""
    slept = []
    monkeypatch.setattr(gateway_module.time, "sleep", slept.append)
    return slept


class TestDefaultSession:
    """The standard-library session against a loopback HTTP server."""

    def test_a_netrc_entry_leaves_the_bearer_key(self, chat_server, http_backend,
                                                 tmp_path, monkeypatch):
        netrc = tmp_path / ".netrc"
        netrc.write_text("machine 127.0.0.1 login alice password secret\n",
                         encoding="utf-8")
        netrc.chmod(0o600)
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.delenv("NETRC", raising=False)
        assert http_backend().complete(seed_request(3))
        [(line, headers)] = chat_server.received
        assert line == "POST /v1 HTTP/1.1"
        assert headers["Authorization"] == "Bearer sk-test"
        assert headers["User-Agent"] == f"corpus-forge/{__version__}"

    def test_a_batch_holds_one_connection_per_slot(self, chat_server,
                                                   http_backend):
        gateway = Gateway(http_backend(), max_in_flight=2)
        expected = [MockBackend().complete(seed_request(n)) for n in range(3, 23)]
        for _ in range(2):  # the second batch reuses the first's connections
            results = gateway.complete_batch([seed_request(n) for n in range(3, 23)])
            assert [answer for _, answer in results] == expected
        assert len(chat_server.received) == 40
        assert len(chat_server.opened) <= 2

    @pytest.mark.parametrize("idle_check", [True, False],
                             ids=["closed-while-idle", "closed-after-the-check"])
    def test_a_connection_the_server_closed_is_replaced_without_a_retry(
            self, chat_server, http_backend, delays, monkeypatch, idle_check):
        chat_server.close_each = True
        if not idle_check:  # every idle connection looks open
            monkeypatch.setattr("select.select", lambda r, w, x, t: ([], [], []))
        backend = http_backend(max_retries=3)
        for n in range(3, 13):
            assert backend.complete(seed_request(n)) == MockBackend().complete(
                seed_request(n))
        assert len(chat_server.received) == len(chat_server.opened) == 10
        assert delays == []

    @pytest.mark.parametrize("status, headers, delay", [
        (429, {"Retry-After": "0.25"}, 0.25),
        (503, {}, 0.001),
    ], ids=["429", "503"])
    def test_a_retried_status(self, chat_server, http_backend, delays,
                              status, headers, delay):
        chat_server.replies.append((status, headers, {"error": "later"}))
        assert http_backend().complete(seed_request(3))
        assert len(chat_server.received) == 2
        assert len(chat_server.opened) == 1
        assert delays == [delay]

    def test_a_read_timeout_is_a_transport_error(self, chat_server, http_backend):
        chat_server.release.clear()  # the server never answers
        backend = http_backend(max_retries=0, timeout=0.2)
        with pytest.raises(TransportError, match="timed out"):
            backend.complete(seed_request(3))

    @pytest.mark.parametrize("url, proxy", [
        ("ftp://example.org/v1", None),
        ("example.org/v1", None),
        ("http://example.org:port/v1", None),
        ("http://example.org/v1", "socks5://127.0.0.1:1080"),
        ("http://example.org/v1", "127.0.0.1:port"),
    ])
    def test_a_url_that_is_not_http_is_a_config_error(
            self, chat_server, http_backend, monkeypatch, url, proxy):
        if proxy:
            monkeypatch.setenv("http_proxy", proxy)
        with pytest.raises(ConfigError, match="http.endpoint_url|proxy URL"):
            http_backend(endpoint_url=url)  # before any request
        assert chat_server.received == []

    def test_http_goes_through_the_proxy_unless_no_proxy_names_the_host(
            self, serve_chat, chat_server, http_backend, monkeypatch):
        proxy = serve_chat()
        proxy_url = proxy.url.replace("://", "://alice:s%40cret@").removesuffix("/v1")
        monkeypatch.setenv("http_proxy", proxy_url)
        # the proxy answers itself: chat.invalid is never looked up
        assert http_backend(endpoint_url="http://chat.invalid:8080/v1?x=1").complete(
            seed_request(3))
        [(line, headers)] = proxy.received
        assert line == "POST http://chat.invalid:8080/v1?x=1 HTTP/1.1"
        assert headers["Host"] == "chat.invalid:8080"
        assert headers["Proxy-Authorization"] == "Basic YWxpY2U6c0BjcmV0"
        monkeypatch.setenv("no_proxy", "localhost,127.0.0.1")
        assert http_backend().complete(seed_request(3))
        assert len(proxy.received) == 1
        [(line, headers)] = chat_server.received
        assert line == "POST /v1 HTTP/1.1"
        assert "Proxy-Authorization" not in headers

    def test_https_goes_through_a_connect_tunnel(self, serve_chat, http_backend,
                                                 monkeypatch):
        proxy = serve_chat()
        monkeypatch.setenv("https_proxy", proxy.url.removesuffix("/v1"))
        backend = http_backend(endpoint_url="https://chat.invalid/v1",
                               max_retries=0)
        with pytest.raises(TransportError, match="Tunnel connection failed: 502"):
            backend.complete(seed_request(3))
        [(line, headers)] = proxy.received
        assert line == "CONNECT chat.invalid:443 HTTP/1.0"


class TestMakeBackend:
    def test_mock(self):
        assert isinstance(make_backend("mock", mock_seed=1), MockBackend)

    def test_unknown(self):
        with pytest.raises(ConfigError):
            make_backend("carrier-pigeon")
