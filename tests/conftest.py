import json
import os
import random
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import settings

from corpus_forge import em, prompts
from corpus_forge.corpus import ParallelCorpus, SentencePair
from corpus_forge.gateway import ChatMessage, ChatRequest, MockBackend

# a deeper search than the default, selected with --hypothesis-profile=ci
settings.register_profile("ci", max_examples=1000, deadline=None)

SRC = Path(__file__).resolve().parent.parent / "src"


def run_child(args, cwd):
    """A fresh interpreter run with args in cwd, with the package's source
    on its path: its CompletedProcess, stdout and stderr read as UTF-8."""
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, encoding="utf-8", timeout=120,
    )


def deeper(max_examples):
    """settings for at least max_examples, or the active profile's count when
    it asks for more, as --hypothesis-profile=ci does."""
    return settings(deadline=None,
                    max_examples=max(max_examples, settings.default.max_examples))


def make_corpus(sentences, prefix="p"):
    pairs = [
        SentencePair(id=f"{prefix}-{i}", source=s, target=t)
        for i, (s, t) in enumerate(sentences)
    ]
    return ParallelCorpus(pairs)


# Two disjoint toy vocabularies with one-to-one translations. The "natural"
# domain uses vocabulary A; the "synthetic" domain covers vocabulary B plus a
# sliver of A, so augmentation adds genuinely new translation knowledge.
VOCAB_A = {f"quell{i}": f"well{i}" for i in range(20)}
VOCAB_B = {f"neu{i}": f"fresh{i}" for i in range(10)}

# every function word appears in at least two patterns with different
# companions, so EM co-occurrence statistics can disambiguate them
SYN_PATTERNS = [
    ("{w} ist da", "{t} is there"),
    ("wir sehen {w} da", "we see {t} there"),
    ("{w} ist hier", "{t} is here"),
    ("wir sehen {w} hier", "we see {t} here"),
    ("wir finden {w} da", "we find {t} there"),
]


def _random_sentence(rng, vocab, length):
    words = rng.sample(sorted(vocab), length)
    return " ".join(words), " ".join(vocab[w] for w in words)


def make_experiment_fixture(seed=0):
    """Corpora with controlled vocabulary overlap for the Nat/Synth/Aug study.

    nat_train covers vocabulary A; syn_train is repetitive and covers B;
    the test set mixes A sentences with B sentences, so the augmented model
    has strictly more usable lexicon than the natural one.
    """
    rng = random.Random(seed)

    def natural_block(count, prefix):
        sentences = [
            _random_sentence(rng, VOCAB_A, rng.randint(4, 7)) for _ in range(count)
        ]
        return make_corpus(sentences, prefix=prefix)

    def synthetic_block(count, prefix):
        # word cycles fast, pattern cycles slowly: each word meets every pattern
        sentences = []
        for i in range(count):
            src_t, tgt_t = SYN_PATTERNS[(i // len(VOCAB_B)) % len(SYN_PATTERNS)]
            word = sorted(VOCAB_B)[i % len(VOCAB_B)]
            sentences.append((src_t.format(w=word), tgt_t.format(t=VOCAB_B[word])))
        return make_corpus(sentences, prefix=prefix)

    def mixed_test(count, prefix):
        sentences = []
        for i in range(count):
            if i % 3 == 2:
                src_t, tgt_t = SYN_PATTERNS[i % len(SYN_PATTERNS)]
                word = sorted(VOCAB_B)[(i * 7) % len(VOCAB_B)]
                sentences.append((src_t.format(w=word), tgt_t.format(t=VOCAB_B[word])))
            else:
                sentences.append(_random_sentence(rng, VOCAB_A, rng.randint(4, 7)))
        return make_corpus(sentences, prefix=prefix)

    return {
        "nat_train": natural_block(80, "nt"),
        "syn_train": synthetic_block(50, "st"),
        "nat_valid": natural_block(20, "nv"),
        "syn_valid": synthetic_block(20, "sv"),
        "test": mixed_test(24, "te"),
    }


@pytest.fixture
def experiment_fixture():
    return make_experiment_fixture()


@pytest.fixture
def unread_lexicons():
    """run_experiment's lexicons for a test that reads none: os.devnull."""
    with open(os.devnull, "w", encoding="utf-8") as sink:
        yield dict.fromkeys(em.LABELS, sink)


def _syllable_lexicons(rng, size):
    """Two lexicons of size one- to three-syllable words, one to one:
    (the source words in sorted order, {source word: target word})."""
    onsets = ["", "b", "d", "f", "g", "k", "l", "m", "n", "r", "s", "t", "w",
              "sch", "st", "tr", "pf"]
    vowels = ["a", "e", "i", "o", "u", "ä", "ö", "ü", "ei", "au", "ie"]
    codas = ["", "", "n", "r", "s", "t", "l", "ch", "ng", "ck"]

    def lexicon():
        words = set()
        while len(words) < size:
            words.add("".join(rng.choice(onsets) + rng.choice(vowels)
                              + rng.choice(codas)
                              for _ in range(rng.randint(1, 3))))
        return sorted(words)

    source, target = lexicon(), lexicon()
    rng.shuffle(target)
    return source, dict(zip(source, target))


def _zipfian_pairs(rng, source, translation, count):
    """count pairs of 3-12 words drawn with weight 1/rank from source."""
    weights = [1 / rank for rank in range(1, len(source) + 1)]
    pairs = []
    for _ in range(count):
        words = rng.choices(source, weights, k=rng.randint(3, 12))
        pairs.append((" ".join(words), " ".join(translation[w] for w in words)))
    return pairs


def syllable_corpus(seed=0, n_lines=2000):
    """Zipfian lines over a lexicon of one- to three-syllable words, with a
    second lexicon, one to one with the first, on the target side."""
    rng = random.Random(seed)
    source, translation = _syllable_lexicons(rng, 1500)
    return make_corpus(_zipfian_pairs(rng, source, translation, n_lines))


# six fixed frames around one seed word: synthetic text repeats far more
# than natural text
STUDY_TEMPLATES = [
    ("der {w} ist gut", "the {t} is good"),
    ("ich sehe den {w} heute", "i see the {t} today"),
    ("das {w} ist hier", "the {t} is here"),
    ("wir mögen das {w} sehr", "we like the {t} very much"),
    ("ein {w} kommt morgen", "a {t} comes tomorrow"),
    ("mein {w} ist alt", "my {t} is old"),
]


def study_corpora():
    """experiment's five inputs at a size no property reaches.

    Natural train, valid and test hold 3,000, 500 and 500 Zipfian pairs over
    a 1,500-word syllable lexicon. Synthetic train fills every template with
    each of 500 seed words (3,000 pairs); synthetic valid holds 500 pairs
    whose seed words come from those 500 and 100 others.
    """
    rng = random.Random(0)
    source, translation = _syllable_lexicons(rng, 1500)
    seeds = rng.sample(source, 600)

    def natural(count, prefix):
        return make_corpus(_zipfian_pairs(rng, source, translation, count),
                           prefix=prefix)

    def synthetic(pairs, prefix):
        return make_corpus([(src.format(w=w), tgt.format(t=translation[w]))
                            for w, (src, tgt) in pairs], prefix=prefix)

    return {
        "nat_train": natural(3000, "nt"),
        "nat_valid": natural(500, "nv"),
        "test": natural(500, "te"),
        "syn_train": synthetic([(w, template) for w in seeds[:500]
                                for template in STUDY_TEMPLATES], "st"),
        "syn_valid": synthetic([(rng.choice(seeds), rng.choice(STUDY_TEMPLATES))
                                for _ in range(500)], "sv"),
    }


def in_worker(train_em, fail, worker=True):
    """train_em that, in any forked worker, puts a lexicon header on disk and
    calls fail(); the caller trains as usual. With worker False, the caller
    fails and a worker trains."""
    caller = os.getpid()

    def train(corpus, iterations, out):
        if (os.getpid() != caller) == worker:
            out.write(f"lexicon-v1 iterations={iterations}\n")
            out.flush()
            fail()
        return train_em(corpus, iterations, out)

    return train


class MockSession:
    """Stands in for the session of an HttpBackend: answers each post
    as a chat-completions endpoint would, with the mock backend's text, or
    with bad_content in its place where is_bad(stage, request) holds."""

    def __init__(self, bad_content, is_bad):
        self.templates = prompts.PromptTemplateSet.defaults()
        self.backend = MockBackend(self.templates)
        self.bad_content = bad_content
        self.is_bad = is_bad

    def post(self, url, json=None, headers=None, timeout=None):
        request = ChatRequest(tuple(ChatMessage(m["role"], m["content"])
                                    for m in json["messages"]))
        stage, _ = prompts.classify_system_text(
            self.templates, request.first_content("system"))
        content = (self.bad_content if self.is_bad(stage, request)
                   else self.backend.complete(request))
        body = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        return SimpleNamespace(status_code=200, json=lambda: body)


class ChatHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, unless the server closes

    def setup(self):
        super().setup()
        # headers and body go out in two writes, which Nagle would hold
        # for the client's delayed ACK
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.server.opened.append(self.client_address)

    def log_message(self, format, *args):
        pass

    def do_POST(self):
        server = self.server
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        server.received.append((self.requestline, self.headers))
        server.release.wait(10)
        try:
            status, headers, payload = server.replies.pop(0)
        except IndexError:
            status, headers = 200, {}
            payload = server.answers.post(self.path, json=body).json()
        self._send(status, headers, payload)
        # no "Connection: close" says so: the client finds out on its own
        self.close_connection = self.close_connection or server.close_each

    def do_CONNECT(self):
        self.server.received.append((self.requestline, self.headers))
        self._send(502, {}, {"error": "no tunnels here"})
        self.close_connection = True

    def _send(self, status, headers, payload):
        data = json.dumps(payload).encode()
        try:
            self.send_response(status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except OSError:  # the client stopped waiting
            self.close_connection = True


class ChatServer(ThreadingHTTPServer):
    """A chat-completions endpoint on a loopback port: it answers each POST
    as MockSession does, or with the next of replies, (status, headers,
    payload), while there are any, and records every request that reaches
    it and every connection that it accepts."""

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), ChatHandler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1"
        self.answers = MockSession(None, lambda stage, request: False)
        self.replies = []
        self.received = []  # (request line, headers), in arrival order
        self.opened = []  # the client address of each connection accepted
        self.close_each = False  # close each connection after its response
        self.release = threading.Event()  # a POST waits for it to answer
        self.release.set()


@pytest.fixture
def loopback_env(monkeypatch):
    """LLM_API_KEY set, and no proxy variable left in the environment, which
    would take loopback requests elsewhere."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    monkeypatch.setenv("LLM_API_KEY", "sk-test")


@pytest.fixture
def serve_chat(loopback_env):
    """Starts ChatServers, in the environment of loopback_env."""
    servers = []

    def serve():
        server = ChatServer()
        thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                                  daemon=True)
        thread.start()
        servers.append((server, thread))
        return server

    yield serve
    for server, thread in servers:
        server.release.set()
        server.shutdown()
        server.server_close()
        thread.join(10)
        assert not thread.is_alive()


@pytest.fixture
def chat_server(serve_chat):
    return serve_chat()
