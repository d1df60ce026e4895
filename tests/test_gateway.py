import email.utils
import json
import socket
import threading
import time

import pytest

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

    def test_malformed_body_is_protocol_error(self, api_key_env):
        backend, _ = self.make([FakeResponse(200, {"unexpected": True})])
        with pytest.raises(ProtocolError):
            backend.complete(ChatRequest(messages=(ChatMessage("user", "u"),)))

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


class TestMakeBackend:
    def test_mock(self):
        assert isinstance(make_backend("mock", mock_seed=1), MockBackend)

    def test_unknown(self):
        with pytest.raises(ConfigError):
            make_backend("carrier-pigeon")
