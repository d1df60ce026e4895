"""Loopback chat-completions stub for the generate-http workload.

Run: python3 stub.py --src <checkout>/src --seed <n> --delay-ms <ms>
It prints "port <n>" once it listens on 127.0.0.1, then serves until killed.

Answers come from corpus_forge's MockBackend, sent a fixed delay after the
request arrived. Only translation requests fail: a lost sentence request
would drop its seed's six translations, and the number of requests a job
makes would then change with the seed. The faults:

- permanent: every attempt gets 503;
- 429-date: the first attempt gets 429 with an HTTP-date Retry-After,
  which RFC 9110 allows;
- 429 / 429-zero: the first attempt gets 429 with no Retry-After, or with
  "Retry-After: 0";
- 503: the first attempt gets 503.

Faults a retry may not absorb (permanent, 429-date) are chosen per request
body from the seed, so every job fails the same requests. The others are
dealt to the remaining new bodies in arrival order from a seeded cycle of
100 slots, so every job retries the same number of requests, whatever the
seed; which body gets them does not change any output.

Every connection is HTTP/1.1 keep-alive with Nagle disabled, and every
response goes out in one write: headers and body in separate segments
would meet the client's delayed ACK and cap the stub near 40 requests/s.

POST /__reset clears the per-body attempt table; GET /__stats returns
attempt and outcome counts since the last reset.
"""

import argparse
import hashlib
import json
import random
import socket
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# shares of translation bodies with a fault chosen per body
BODY_FAULTS = (("permanent", 0.01), ("429-date", 0.02))
# slots out of every 100 new translation bodies, dealt in arrival order
CYCLE_FAULTS = (("429", 3), ("429-zero", 2), ("503", 5))
RETRY_DATE = "Wed, 21 Oct 2015 07:28:00 GMT"


def body_fault(seed, key):
    digest = hashlib.sha256(f"{seed}\x00{key}".encode()).digest()
    u = int.from_bytes(digest[:8], "big") / 2.0 ** 64
    for fault, share in BODY_FAULTS:
        if u < share:
            return fault
        u -= share
    return None


def fault_cycle(seed):
    slots = [fault for fault, count in CYCLE_FAULTS for _ in range(count)]
    slots += [None] * (100 - len(slots))
    random.Random(f"faults-{seed}").shuffle(slots)
    return slots


class Stub:
    """Attempt table and answer logic, shared by the connection threads."""

    def __init__(self, seed, delay, backend, chat_request, is_translation):
        self.seed = seed
        self.cycle = fault_cycle(seed)
        self.is_translation = is_translation
        self.delay = delay
        self.backend = backend
        self.chat_request = chat_request
        self.lock = threading.Lock()
        self.reset()

    def reset(self):
        with self.lock:
            self.bodies = {}  # key -> [attempts, last status, fault]
            self.statuses = Counter()
            self.translations = 0

    def stats(self):
        with self.lock:
            failed = Counter(fault or "none" for _, status, fault in
                             self.bodies.values() if status != 200)
            return {
                "attempts": sum(entry[0] for entry in self.bodies.values()),
                "requests": len(self.bodies),
                "succeeded": sum(1 for _, status, _ in self.bodies.values()
                                 if status == 200),
                "failed": sum(failed.values()),
                "failed_by_fault": dict(failed),
                "statuses": {str(k): v for k, v in self.statuses.items()},
            }

    def answer(self, body):
        """(status, extra headers, payload) for one chat-completions body."""
        key = json.dumps([body.get("model"), body.get("messages")],
                         sort_keys=True, ensure_ascii=False)
        request = self.chat_request(body)
        translation = self.is_translation(request)
        fault = body_fault(self.seed, key) if translation else None
        with self.lock:
            entry = self.bodies.get(key)
            if entry is None:
                if translation and fault is None:
                    fault = self.cycle[self.translations % len(self.cycle)]
                    self.translations += 1
                entry = self.bodies[key] = [0, None, fault]
            entry[0] += 1
            first = entry[0] == 1
        headers = {}
        if fault == "permanent" or (first and fault == "503"):
            status, payload = 503, {"error": "service unavailable"}
        elif first and fault in ("429", "429-zero", "429-date"):
            status, payload = 429, {"error": "rate limited"}
            if fault == "429-zero":
                headers["Retry-After"] = "0"
            elif fault == "429-date":
                headers["Retry-After"] = RETRY_DATE
        else:
            content = self.backend.complete(request)
            status = 200
            payload = {
                "object": "chat.completion",
                "choices": [{"index": 0, "finish_reason": "stop",
                             "message": {"role": "assistant", "content": content}}],
            }
        with self.lock:
            entry[1] = status
            self.statuses[status] += 1
        return status, headers, payload


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    stub = None  # set by main

    def setup(self):
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def log_message(self, format, *args):
        pass

    def _send(self, status, payload, headers=None):
        body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        lines = [f"HTTP/1.1 {status} {self.responses.get(status, ('',))[0]}",
                 "Content-Type: application/json",
                 f"Content-Length: {len(body)}",
                 "Connection: keep-alive"]
        lines += [f"{name}: {value}" for name, value in (headers or {}).items()]
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self.wfile.write(head + body)

    def do_GET(self):
        if self.path == "/__stats":
            self._send(200, self.stub.stats())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):
        arrived = time.perf_counter()
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/__reset":
            self.stub.reset()
            self._send(200, {"reset": True})
            return
        status, headers, payload = self.stub.answer(json.loads(raw))
        wait = self.stub.delay - (time.perf_counter() - arrived)
        if wait > 0:
            time.sleep(wait)
        self._send(status, payload, headers)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--delay-ms", type=float, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from corpus_forge import prompts
    from corpus_forge.gateway import ChatMessage, ChatRequest, MockBackend

    def chat_request(body):
        return ChatRequest(
            messages=tuple(ChatMessage(m["role"], m["content"])
                           for m in body["messages"]),
            model_name=body.get("model", ""),
            temperature=body.get("temperature", 1.0),
        )

    backend = MockBackend(mock_seed=args.seed)

    def is_translation(request):
        stage, _ = prompts.classify_system_text(backend.templates,
                                                request.first_content("system"))
        return stage == prompts.STAGE_TRANSLATION

    Handler.stub = Stub(args.seed, args.delay_ms / 1e3, backend, chat_request,
                        is_translation)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    print(f"port {server.server_address[1]}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
