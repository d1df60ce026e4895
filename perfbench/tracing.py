"""Spans around calls into corpus_forge, recorded from outside the package.

A traced job patches the public functions of each corpus_forge module with
a wrapper that records a span (id, name, start, end, parent, run id) and,
for a few functions, counts the work the call did. Two proxies cover the
gateway: one stands in for the backend handed to Gateway, the other is a
requests.Session handed to HttpBackend. Spans stay in memory until the
job ends; summarize() turns them into the per-layer metrics.
"""

import functools
import itertools
import json
import math
import threading
import time
import unicodedata
from collections import defaultdict
from contextlib import contextmanager

import requests

LAYERS = ("corpus", "gateway", "prompts", "hallucinate", "bpe", "em", "metrics",
          "cli")


def _words(text):
    return unicodedata.normalize("NFC", text).split()


class Tracer:
    """In-memory span and count recorder shared by every thread of one job."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # (span_id, name, start, end, parent_id)
        self.notes = []  # (key, value); list.append is atomic across threads
        self._ids = itertools.count(1)
        self._root_thread = threading.get_ident()
        self._root_stack = []
        self._local = threading.local()

    def _stack(self):
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def note(self, key, value=1):
        self.notes.append((key, value))

    def wrap(self, name, fn, after=None):
        """fn with a span around each call; after(tracer, args, result) counts work.

        A span opened in a pool thread with nothing open on that thread takes
        the innermost span of the thread that created the tracer as parent:
        gateway worker calls are children of the complete_batch that started
        them.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._root_stack[-1] if self._root_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent))
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "run": self.run_id,
                }) + "\n")


class BackendProxy:
    """Stands in for the backend handed to Gateway; times and counts each call."""

    def __init__(self, backend, tracer):
        self._tracer = tracer
        self._complete = tracer.wrap("gateway.call", backend.complete)

    def complete(self, request):
        cpu = time.thread_time()
        try:
            return self._complete(request)
        except Exception:
            self._tracer.note("gateway.failed")
            raise
        finally:
            self._tracer.note("gateway.call_cpu_s", time.thread_time() - cpu)


class CountingSession(requests.Session):
    """requests.Session that times every POST and counts response statuses."""

    def __init__(self, tracer):
        super().__init__()
        self._tracer = tracer
        self._post = tracer.wrap("gateway.http.post", super().post)

    def post(self, url, data=None, json=None, **kwargs):
        response = self._post(url, data=data, json=json, **kwargs)
        self._tracer.note("gateway.http.status", response.status_code)
        return response


# -- what each wrapped function counts ------------------------------------

def _count_corpus(key_index):
    def after(tracer, args, result):
        corpus = result if key_index is None else args[key_index]
        tracer.note("corpus.pairs", len(corpus.pairs))
        tracer.note("corpus.source_tokens",
                    sum(len(_words(p.source)) for p in corpus.pairs))
    return after


def _count_bpe_train(tracer, args, result):
    words = set()
    for corpus in args[0]:
        for pair in corpus.pairs:
            words.update(_words(pair.source))
            words.update(_words(pair.target))
    tracer.note("bpe.word_types", len(words))
    tracer.note("bpe.merges", len(result.merges))


def _count_bpe_encode(tracer, args, result):
    tracer.note("bpe.words", len(_words(args[1])))
    tracer.note("bpe.subwords", len(result))


def _count_em_train(tracer, args, result):
    tokens = sum(len(p.source.split()) for p in args[0].pairs)
    tracer.note("em.tok_iter", tokens * args[1])


def _count_em_translate(tracer, args, result):
    tracer.note("em.translate_tokens", sum(len(line.split()) for line in args[1]))


def _count_em_save(tracer, args, result):
    tracer.note("em.lexicon_entries", sum(len(d) for d in args[0].t.values()))


def _count_profile(tracer, args, result):
    tracer.note("metrics.profile_tokens", result.token_count)


def _count_pipeline(tracer, args, result):
    report = result[1]
    tracer.note("hallucinate.sentences_parsed", report.sentences_parsed)
    tracer.note("hallucinate.sentences_kept", report.sentences_deduplicated)


def _count_batch(tracer, args, result):
    tracer.note("gateway.max_in_flight", args[0].max_in_flight)


@contextmanager
def installed(tracer, package):
    """Patch package's public layer functions with tracer spans; undo on exit.

    A function imported by name into another corpus_forge module (cli imports
    run_pipeline, hallucinate imports make_splits) is patched there too.
    """
    modules = [package.corpus, package.gateway, package.prompts,
               package.hallucinate, package.bpe, package.em, package.metrics,
               package.cli]
    undo = []

    def patch(owner, attr, name, after=None):
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, after)
        targets = [owner]
        if not isinstance(owner, type):
            targets += [m for m in modules
                        if m is not owner and getattr(m, attr, None) is original]
        for target in targets:
            undo.append((target, attr, original))
            setattr(target, attr, wrapped)

    corpus, gateway, prompts = package.corpus, package.gateway, package.prompts
    hallucinate, bpe, em, metrics = (package.hallucinate, package.bpe,
                                     package.em, package.metrics)
    patch(corpus, "read_jsonl", "corpus.read", _count_corpus(None))
    patch(corpus, "write_jsonl", "corpus.write", _count_corpus(0))
    patch(corpus, "make_splits", "corpus.split")
    patch(gateway.Gateway, "complete_batch", "gateway.batch", _count_batch)
    patch(gateway.MockBackend, "complete", "gateway.mock.complete")
    patch(prompts, "render", "prompts.render")
    patch(prompts, "classify_system_text", "prompts.classify")
    patch(hallucinate, "run_pipeline", "hallucinate.pipeline", _count_pipeline)
    patch(hallucinate, "generate_sentences", "hallucinate.sentences")
    patch(hallucinate, "translate_sentences", "hallucinate.translations")
    patch(hallucinate, "parse_delimited", "hallucinate.parse")
    patch(bpe, "train_bpe", "bpe.train", _count_bpe_train)
    patch(bpe, "encode", "bpe.encode", _count_bpe_encode)
    patch(bpe, "save_model", "bpe.save")
    patch(bpe, "load_model", "bpe.load")
    patch(em, "train_em", "em.train", _count_em_train)
    patch(em, "translate", "em.translate", _count_em_translate)
    patch(em, "save_model", "em.save", _count_em_save)
    patch(em, "run_experiment", "em.experiment")
    patch(metrics, "corpus_bleu", "metrics.bleu")
    patch(metrics, "cross_evaluate", "metrics.cross_evaluate")
    patch(metrics, "frequency_profile", "metrics.profile", _count_profile)

    original_make_backend = package.cli.make_backend

    def make_backend(name, config=None, templates=None, mock_seed=0):
        if name == "http":
            backend = gateway.HttpBackend(config or gateway.BackendConfig(),
                                          session=CountingSession(tracer))
        else:
            backend = original_make_backend(name, config, templates, mock_seed)
        return BackendProxy(backend, tracer)

    undo.append((package.cli, "make_backend", original_make_backend))
    package.cli.make_backend = make_backend
    try:
        yield
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)


# -- from spans to per-layer metrics ---------------------------------------

def percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of intervals."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans):
    """span_id -> duration minus the part covered by its child spans."""
    children = defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - _covered(start, end, children.get(span_id, ()))
        for span_id, _, start, end, _ in spans
    }


def summarize(tracer):
    """Per-layer metrics of one traced job (trace.overhead_s excepted)."""
    spans = tracer.spans
    own = self_times(spans)
    total = defaultdict(float)
    durations = defaultdict(list)
    self_by_name = defaultdict(float)
    self_by_layer = defaultdict(float)
    for span_id, name, start, end, _ in spans:
        total[name] += end - start
        durations[name].append(end - start)
        self_by_name[name] += own[span_id]
        self_by_layer[name.split(".", 1)[0]] += own[span_id]
    notes = defaultdict(float)
    statuses = []
    for key, value in tracer.notes:
        if key == "gateway.http.status":
            statuses.append(value)
        else:
            notes[key] += value

    def ratio(num, den):
        return num / den if den else 0.0

    requests_ = len(durations["gateway.call"])
    failed = notes["gateway.failed"]
    attempts = len(durations["gateway.http.post"])
    batches = durations["gateway.batch"]
    capacity = ratio(notes["gateway.max_in_flight"], len(batches)) * sum(batches)
    out = {
        "bpe.train_s": total["bpe.train"],
        "bpe.merges_per_s": ratio(notes["bpe.merges"], total["bpe.train"]),
        "bpe.word_types": notes["bpe.word_types"],
        "bpe.merges": notes["bpe.merges"],
        "bpe.encode_s": total["bpe.encode"],
        "bpe.encode_words_per_s": ratio(notes["bpe.words"], total["bpe.encode"]),
        "bpe.subwords_per_word": ratio(notes["bpe.subwords"], notes["bpe.words"]),
        "bpe.save_s": total["bpe.save"],
        "bpe.load_s": total["bpe.load"],
        "em.train_s": total["em.train"],
        "em.train_tok_iter_per_s": ratio(notes["em.tok_iter"], total["em.train"]),
        "em.translate_s": total["em.translate"],
        "em.translate_tok_per_s": ratio(notes["em.translate_tokens"],
                                        total["em.translate"]),
        "em.lexicon_entries": notes["em.lexicon_entries"],
        "em.save_s": total["em.save"],
        "metrics.bleu_s": total["metrics.bleu"],
        "metrics.cross_eval_self_s": self_by_name["metrics.cross_evaluate"],
        "metrics.profile_s": total["metrics.profile"],
        "metrics.profile_tok_per_s": ratio(notes["metrics.profile_tokens"],
                                           total["metrics.profile"]),
        "cli.analyze_s": total["cli.analyze"],
        "corpus.read_s": total["corpus.read"],
        "corpus.write_s": total["corpus.write"],
        "corpus.split_s": total["corpus.split"],
        "corpus.pairs": notes["corpus.pairs"],
        "corpus.source_tokens": notes["corpus.source_tokens"],
        "gateway.batch_s": sum(batches),
        "gateway.requests": requests_,
        "gateway.failed": failed,
        "gateway.call_busy_s": total["gateway.call"],
        "gateway.call_p50_ms": 1e3 * percentile(durations["gateway.call"], 0.50),
        "gateway.call_p99_ms": 1e3 * percentile(durations["gateway.call"], 0.99),
        "gateway.worker_idle_frac": (
            1.0 - ratio(notes["gateway.call_cpu_s"], capacity) if capacity else 0.0
        ),
        "gateway.mock.complete_s": total["gateway.mock.complete"],
        "gateway.http.attempts": attempts,
        "gateway.http.retries": attempts - requests_ if attempts else 0,
        "gateway.http.status_429": sum(1 for s in statuses if s == 429),
        "gateway.http.status_5xx": sum(1 for s in statuses if s >= 500),
        "gateway.http.post_p50_ms": 1e3 * percentile(durations["gateway.http.post"],
                                                     0.50),
        "gateway.http.post_p99_ms": 1e3 * percentile(durations["gateway.http.post"],
                                                     0.99),
        "gateway.http.useful_ratio": ratio(requests_ - failed, attempts),
        "hallucinate.pipeline_s": total["hallucinate.pipeline"],
        "hallucinate.sentences_s": total["hallucinate.sentences"],
        "hallucinate.translations_s": total["hallucinate.translations"],
        "hallucinate.sentences_parsed": notes["hallucinate.sentences_parsed"],
        "hallucinate.dedup_keep_ratio": ratio(notes["hallucinate.sentences_kept"],
                                              notes["hallucinate.sentences_parsed"]),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer]
    return out
