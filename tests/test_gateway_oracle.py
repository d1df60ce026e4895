"""Differential tests: request fan-out and stage classification against the
original code kept in reference_gateway.py."""

import sys
import threading
import time
import weakref

import pytest
from hypothesis import given, strategies as st

import reference_gateway
from conftest import deeper
from corpus_forge import prompts
from corpus_forge.errors import TransportError
from corpus_forge.gateway import Gateway, MockBackend
from corpus_forge.hallucinate import GenerationPlan, generate_sentences
from corpus_forge.prompts import PromptTemplateSet


class ScriptedBackend:
    """complete(request) acts out the request: ("ok", text) returns text,
    (exception class, message) raises it. Each call yields the GIL once so
    the workers interleave."""

    def complete(self, request):
        kind, value = request
        time.sleep(0)
        if kind == "ok":
            return value
        raise kind(value)


def comparable(results):
    """Exceptions compare by class and message, not identity."""
    return [
        (i, (type(outcome), outcome.args) if isinstance(outcome, Exception)
         else outcome)
        for i, outcome in results
    ]


scripted_request = st.one_of(
    st.tuples(st.just("ok"), st.text(max_size=6)),
    st.tuples(st.sampled_from([TransportError, ValueError]), st.text(max_size=6)),
)


@deeper(150)
@given(requests_=st.lists(scripted_request, max_size=40),
       max_in_flight=st.integers(1, 8))
def test_batch_results_match_reference(requests_, max_in_flight):
    backend = ScriptedBackend()
    got = Gateway(backend, max_in_flight).complete_batch(requests_)
    expected = reference_gateway.complete_batch(backend, max_in_flight, requests_)
    assert comparable(got) == comparable(expected)


def reversed_with_length(text):
    return text[::-1], len(text)


@deeper(150)
@given(requests_=st.lists(scripted_request, max_size=40),
       max_in_flight=st.integers(1, 8))
def test_parsed_batch_matches_reference(requests_, max_in_flight):
    """Each answer through parse, each failure as the backend raised it."""
    backend = ScriptedBackend()
    got = Gateway(backend, max_in_flight).complete_batch(requests_,
                                                         reversed_with_length)
    expected = [
        (i, outcome if isinstance(outcome, Exception)
         else reversed_with_length(outcome))
        for i, outcome in reference_gateway.complete_batch(backend, max_in_flight,
                                                           requests_)
    ]
    assert comparable(got) == comparable(expected)


@pytest.mark.parametrize("max_in_flight", [1, 2, 8])
def test_a_parse_that_raises_is_raised_not_counted(max_in_flight):
    """A parser's bug is no failed request: the batch raises it."""
    bug = ValueError("parser bug")
    parsed = []

    def parse(text):
        parsed.append(text)
        if text == "bad":
            raise bug
        return text

    requests_ = [("ok", "a"), (TransportError, "down"), ("ok", "bad"),
                 ("ok", "b")] * 3
    with pytest.raises(ValueError) as caught:
        Gateway(ScriptedBackend(), max_in_flight).complete_batch(requests_, parse)
    assert caught.value is bug
    assert set(parsed) <= {"a", "b", "bad"}  # never a backend's exception


class BlockingBackend:
    """Holds every call until `target` calls are in flight at once (or a
    timeout passes), then for 2 ms more, so that a fan-out with more workers
    than its bound piles them up; records the peak number in flight."""

    def __init__(self, target):
        self.target = target
        self.active = 0
        self.peak = 0
        self._lock = threading.Lock()
        self._full = threading.Event()

    def complete(self, request):
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
            if self.active >= self.target:
                self._full.set()
        self._full.wait(timeout=2)
        time.sleep(0.002)
        with self._lock:
            self.active -= 1
        return request


@deeper(40)
@given(n=st.integers(1, 40), max_in_flight=st.integers(1, 8))
def test_peak_concurrency_is_the_in_flight_bound(n, max_in_flight):
    backend = BlockingBackend(target=min(max_in_flight, n))
    results = Gateway(backend, max_in_flight).complete_batch(list(range(n)))
    assert results == [(i, i) for i in range(n)]
    assert backend.peak == min(max_in_flight, n)


def test_stress_every_index_taken_once():
    """More workers than cores and a short switch interval: a shared index
    handed out twice or skipped shows as a wrong call list."""
    n, rounds = 2000, 20
    called = []

    class Recording:
        def complete(self, request):
            called.append(request)
            return request

    def batches():
        gateway = Gateway(Recording(), 8)
        for _ in range(rounds):
            outcomes.append(gateway.complete_batch(range(n)))

    outcomes = []
    runner = threading.Thread(target=batches)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert sorted(called) == sorted(list(range(n)) * rounds)
    assert outcomes == [[(i, i) for i in range(n)]] * rounds


class Answer(str):
    """A raw answer, which a weakref.finalize can watch die."""


class WatchedMock:
    """The mock backend, answering with Answers; counts those alive and
    their peak."""

    def __init__(self):
        self.backend = MockBackend()
        self.alive = 0
        self.peak = 0
        self._lock = threading.Lock()

    def complete(self, request):
        answer = Answer(self.backend.complete(request))
        with self._lock:
            self.alive += 1
            self.peak = max(self.peak, self.alive)
        weakref.finalize(answer, self._died)
        return answer

    def _died(self):
        with self._lock:
            self.alive -= 1


@deeper(30)
@given(n_seeds=st.integers(1, 30), max_in_flight=st.integers(1, 8))
def test_sentence_stage_holds_no_more_raw_answers_than_in_flight(n_seeds,
                                                                  max_in_flight):
    """Each worker parses its answer before it takes the next request."""
    backend = WatchedMock()
    records = generate_sentences([f"Wort{i}" for i in range(n_seeds)],
                                 GenerationPlan(sentences_per_seed=12),
                                 PromptTemplateSet.defaults(),
                                 Gateway(backend, max_in_flight))
    assert records
    assert backend.peak <= min(max_in_flight, n_seeds)
    assert backend.alive == 0


def test_base_exception_propagates_like_reference():
    class Exiting:
        def complete(self, request):
            if request == 3:
                raise SystemExit(7)
            return request

    for run in (
        lambda: Gateway(Exiting(), 2).complete_batch(range(6)),
        lambda: reference_gateway.complete_batch(Exiting(), 2, range(6)),
    ):
        with pytest.raises(SystemExit):
            run()


@pytest.mark.parametrize("max_in_flight", [0, -1, 2.5, True, "4"])
def test_gateway_rejects_a_bad_bound(max_in_flight):
    with pytest.raises(ValueError):
        Gateway(ScriptedBackend(), max_in_flight)


# -- stage classification ---------------------------------------------------

STAGES = (
    prompts.STAGE_SEED_NOUNS,
    prompts.STAGE_SEED_VERBS,
    prompts.STAGE_SENTENCES,
    prompts.STAGE_TRANSLATION,
)

placeholder_value = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8
)


def rendered(template, n, src, tgt):
    return prompts.render(template, n=n, src=src, tgt=tgt)


near_miss = st.sampled_from([
    lambda text: text + ".",
    lambda text: "x" + text,
    lambda text: text[:-1],
    lambda text: text.upper(),
    lambda text: text.replace(" ", "  ", 1),
])


def outcome(classify, templates, text):
    """classify's result, or the class of what it raised: a template that
    holds {n} twice does not compile, in either implementation."""
    try:
        return classify(templates, text)
    except Exception as exc:
        return type(exc)


def assert_same_classification(templates, text):
    assert (outcome(prompts.classify_system_text, templates, text)
            == outcome(reference_gateway.classify_system_text, templates, text))


@deeper(200)
@given(stage=st.sampled_from(STAGES), n=st.integers(0, 10**6),
       src=placeholder_value, tgt=placeholder_value, mutate=near_miss)
def test_default_templates_classify_like_reference(stage, n, src, tgt, mutate):
    templates = PromptTemplateSet.defaults()
    text = rendered(templates.system_for(stage), n, src, tgt)
    assert_same_classification(templates, text)
    assert_same_classification(templates, mutate(text))
    assert_same_classification(templates, templates.system_for(stage))


def test_default_renderings_find_their_stage():
    templates = PromptTemplateSet.defaults()
    for stage in STAGES:
        text = rendered(templates.system_for(stage), 12, "de", "en")
        expected_n = 12 if "{n}" in templates.system_for(stage) else None
        assert prompts.classify_system_text(templates, text) == (stage, expected_n)


def test_unfilled_placeholder_matches_only_itself():
    """render fills no {seed}, so a template's {seed} is sent as written and
    matches only itself, not the sentence request that shares its prefix."""
    templates = PromptTemplateSet.defaults()
    templates.seed_nouns_system = "Gib mir {seed}"
    templates.sentences_system = "Gib mir {n} Sätze"
    text = rendered(templates.sentences_system, 5, "de", "en")
    assert prompts.classify_system_text(templates, text) == (
        prompts.STAGE_SENTENCES, 5)
    assert prompts.classify_system_text(templates, "Gib mir {seed}") == (
        prompts.STAGE_SEED_NOUNS, None)
    assert_same_classification(templates, text)


template_text = st.lists(
    st.one_of(st.sampled_from(["{n}", "{src}", "{tgt}", "{seed}"]),
              st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)),
    min_size=1, max_size=5,
).map("".join).filter(lambda t: t.strip())


@deeper(150)
@given(edited=st.sampled_from(STAGES), new_text=template_text,
       n=st.integers(0, 999), src=placeholder_value, tgt=placeholder_value,
       mutate=near_miss)
def test_template_set_edited_after_first_use(edited, new_text, n, src, tgt, mutate):
    templates = PromptTemplateSet.defaults()
    old_text = rendered(templates.system_for(edited), n, src, tgt)
    assert_same_classification(templates, old_text)  # patterns now cached
    setattr(templates, f"{edited}_system", new_text)
    for text in (old_text, rendered(new_text, n, src, tgt)):
        assert_same_classification(templates, text)
        assert_same_classification(templates, mutate(text))
