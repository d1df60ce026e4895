import hashlib
import json
import threading
from collections import Counter
from pathlib import Path

import pytest

from conftest import MockSession
from corpus_forge import prompts
from corpus_forge.corpus import SplitSpec
from corpus_forge.errors import CorpusFormatError, InsufficientData, TransportError
from corpus_forge.gateway import BackendConfig, Gateway, HttpBackend, MockBackend
from corpus_forge.hallucinate import (
    GenerationPlan,
    PipelineReport,
    generate_seed_words,
    generate_sentences,
    parse_delimited,
    run_pipeline,
    translate_sentences,
)
from corpus_forge.prompts import PromptTemplateSet


@pytest.fixture
def templates():
    return PromptTemplateSet.defaults()


def mock_gateway(templates, mock_seed=0, max_in_flight=2):
    return Gateway(MockBackend(templates, mock_seed=mock_seed),
                   max_in_flight=max_in_flight)


def small_plan(**kwargs):
    defaults = dict(n_nouns=5, n_verbs=5, sentences_per_seed=4)
    defaults.update(kwargs)
    return GenerationPlan(**defaults)


class ScriptedGateway:
    """Returns canned responses per call, for parser-focused tests, each
    one that is not an exception through parse, as Gateway does."""

    def __init__(self, responses):
        self.responses = list(responses)

    def complete_batch(self, requests, parse):
        outcomes = [self.responses.pop(0) for _ in requests]
        return [(i, o if isinstance(o, Exception) else parse(o))
                for i, o in enumerate(outcomes)]


class TestParsing:
    def test_trim_and_drop_empties(self):
        assert parse_delimited("Hund, Katze,Maus, ", ",") == ["Hund", "Katze", "Maus"]

    def test_trailing_delimiter_dropped(self):
        items = parse_delimited("Der Hund bellt.;Die Katze schläft.;", ";")
        assert items == ["Der Hund bellt.", "Die Katze schläft."]

    def test_newline_fallback(self):
        items = parse_delimited("erster Satz\nzweiter Satz\ndritter Satz", ";")
        assert items == ["erster Satz", "zweiter Satz", "dritter Satz"]

    def test_numbered_prefixes_stripped(self):
        items = parse_delimited("1. Hund\n2) Katze\n3: Maus", ",")
        assert items == ["Hund", "Katze", "Maus"]

    def test_no_delimiter_left_in_items(self):
        items = parse_delimited("a;b;c", ";")
        assert all(";" not in item for item in items)


class TestGenerateSeedWords:
    def test_mock_seed_counts(self, templates):
        plan = small_plan()
        seeds = generate_seed_words(plan, templates, mock_gateway(templates))
        assert 0 < len(seeds) <= 10
        assert all(s.strip() for s in seeds)

    def test_cross_response_dedup(self, templates):
        gateway = ScriptedGateway(["laufen, Hund", "laufen, singen"])
        seeds = generate_seed_words(small_plan(), templates, gateway)
        assert seeds == ["laufen", "Hund", "singen"]

    def test_case_insensitive_dedup(self, templates):
        gateway = ScriptedGateway(["Eule, eule", "fliegen"])
        seeds = generate_seed_words(small_plan(), templates, gateway)
        assert seeds == ["Eule", "fliegen"]

    def test_failed_request_aborts(self, templates):
        gateway = ScriptedGateway(["Hund, Katze", TransportError("down")])
        with pytest.raises(TransportError, match="down"):
            generate_seed_words(small_plan(), templates, gateway)


class TestGenerateSentences:
    def test_mock_sentences_single_line(self, templates):
        plan = small_plan()
        seeds = ["Hund", "Katze", "Eule"]
        records = generate_sentences(seeds, plan, templates, mock_gateway(templates))
        assert 0 < len(records) <= 12
        for record in records:
            assert list(record) == ["seed", "sentence"]
            assert record["seed"] in seeds
            assert "\n" not in record["sentence"]

    def test_global_dedup_attributes_to_first_seed(self, templates):
        gateway = ScriptedGateway(["Das ist gut.;Anders.", "Das ist gut.;Neu."])
        records = generate_sentences(["s1", "s2"], small_plan(), templates, gateway)
        sentences = [r["sentence"] for r in records]
        assert sentences.count("Das ist gut.") == 1
        assert records[0] == {"seed": "s1", "sentence": "Das ist gut."}

    def test_partial_failure_skipped(self, templates):
        gateway = ScriptedGateway(
            [TransportError("down"), "Ein Satz.;Noch ein Satz."]
        )
        report = PipelineReport()
        records = generate_sentences(["s1", "s2"], small_plan(), templates, gateway,
                                     report)
        assert records == [{"seed": "s2", "sentence": "Ein Satz."},
                           {"seed": "s2", "sentence": "Noch ein Satz."}]
        assert report.sentences_parsed == 2  # run_pipeline counts failures


class TestTranslateSentences:
    def test_mock_lexicon(self, templates):
        records = translate_sentences(
            [{"seed": "Eule", "sentence": "Eine Eule ruft"}], small_plan(), templates,
            mock_gateway(templates),
        )
        assert records == [{"id": "syn-000000", "src": "Eine Eule ruft",
                             "tgt": "An owl calls", "seed_word": "Eule"}]

    def test_failures_dropped(self, templates):
        responses = ["ok one"] * 4 + [TransportError("down")] + ["ok two"] * 5
        gateway = ScriptedGateway(responses)
        sentences = [{"seed": "s", "sentence": f"Satz nummer {i}"} for i in range(10)]
        records = translate_sentences(sentences, small_plan(), templates, gateway)
        assert [r["id"] for r in records] == [
            f"syn-{i:06d}" for i in range(10) if i != 4]

    def test_provenance(self, tmp_path):
        run_dir, splits, _ = run_once(tmp_path, "a")
        checkpoints = run_dir / "checkpoints"
        seeds = json.loads((checkpoints / "seeds.json").read_text(encoding="utf-8"))
        translations = {
            r["id"]: r for r in json.loads(
                (checkpoints / "translations.json").read_text(encoding="utf-8"))
        }
        assert all(r["seed_word"] in seeds for r in translations.values())
        for split in splits.values():
            for pair in split.pairs:
                assert pair.origin == "synthetic"
                assert pair.seed_word == translations[pair.id]["seed_word"]


class CountingBackend:
    """Forwards to a backend and counts its requests by pipeline stage."""

    def __init__(self, backend, templates):
        self.backend = backend
        self.templates = templates
        self.calls = Counter()
        self._lock = threading.Lock()

    def complete(self, request):
        system = request.first_content("system")
        stage, _ = prompts.classify_system_text(self.templates, system)
        with self._lock:
            self.calls[stage] += 1
        return self.backend.complete(request)


def run_once(tmp_path, name, mock_seed=0, rng_seed=0, thresholds=(60, 20)):
    templates = PromptTemplateSet.defaults()
    plan = small_plan()
    gateway = mock_gateway(templates, mock_seed=mock_seed)
    spec = SplitSpec(
        train_token_threshold=thresholds[0],
        valid_token_threshold=thresholds[1],
        rng_seed=rng_seed,
    )
    run_dir = tmp_path / name
    splits, report = run_pipeline(plan, templates, gateway, spec, run_dir,
                                  mock_seed=mock_seed)
    return run_dir, splits, report


def dir_snapshot(run_dir):
    return {
        str(p.relative_to(run_dir)): p.read_bytes()
        for p in sorted(Path(run_dir).rglob("*"))
        if p.is_file()
    }


class TestRunPipeline:
    def test_splits_and_funnel(self, tmp_path):
        _, splits, report = run_once(tmp_path, "a")
        assert set(splits) == {"train", "valid"}
        assert report.pairs_sampled <= report.sentences_translated
        assert report.sentences_translated <= report.sentences_deduplicated
        assert report.sentences_deduplicated <= report.sentences_parsed

    def test_end_to_end_determinism(self, tmp_path):
        dir_a, _, _ = run_once(tmp_path, "a", mock_seed=3, rng_seed=5)
        dir_b, _, _ = run_once(tmp_path, "b", mock_seed=3, rng_seed=5)
        assert dir_snapshot(dir_a) == dir_snapshot(dir_b)

    def test_insufficient_data_still_reports(self, tmp_path):
        with pytest.raises(InsufficientData):
            run_once(tmp_path, "a", thresholds=(100_000, 100))
        report = json.loads(
            (tmp_path / "a" / "reports" / "report.json").read_text(encoding="utf-8")
        )
        assert report["insufficient_data"] is True

    def test_resume_skips_completed_stages(self, tmp_path):
        run_dir, _, _ = run_once(tmp_path, "a")

        class Exploding:
            def complete_batch(self, requests, parse):
                raise AssertionError("resumed run must not call the backend")

        templates = PromptTemplateSet.defaults()
        spec = SplitSpec(train_token_threshold=60, valid_token_threshold=20,
                         rng_seed=0)
        before = dir_snapshot(run_dir)
        splits, _ = run_pipeline(small_plan(), templates, Exploding(), spec,
                                 run_dir, mock_seed=0)
        assert set(splits) == {"train", "valid"}
        assert dir_snapshot(run_dir) == before

    @pytest.mark.parametrize("missing, stages", [
        (["sentences.json", "translations.json"],
         {prompts.STAGE_SENTENCES, prompts.STAGE_TRANSLATION}),
        (["translations.json"], {prompts.STAGE_TRANSLATION}),
    ])
    def test_resume_runs_only_missing_stages(self, tmp_path, missing, stages):
        run_dir, _, _ = run_once(tmp_path, "a")
        uninterrupted = dir_snapshot(run_dir)
        checkpoints = run_dir / "checkpoints"
        records = {
            name: json.loads((checkpoints / name).read_text(encoding="utf-8"))
            for name in ("seeds.json", "sentences.json")
        }
        for name in missing:
            (checkpoints / name).unlink()

        templates = PromptTemplateSet.defaults()
        backend = CountingBackend(MockBackend(templates, mock_seed=0), templates)
        spec = SplitSpec(train_token_threshold=60, valid_token_threshold=20,
                         rng_seed=0)
        run_pipeline(small_plan(), templates, Gateway(backend, max_in_flight=2),
                     spec, run_dir, mock_seed=0)

        expected = {
            prompts.STAGE_SENTENCES: len(records["seeds.json"]),
            prompts.STAGE_TRANSLATION: len(records["sentences.json"]),
        }
        assert backend.calls == {stage: expected[stage] for stage in stages}
        assert dir_snapshot(run_dir) == uninterrupted

    def test_resumed_run_writes_the_report_it_resumes(self, tmp_path):
        templates = PromptTemplateSet.defaults()

        class FailingTranslations:
            """The mock backend, failing each translation of an odd-length sentence."""

            def __init__(self):
                self.backend = MockBackend(templates, mock_seed=0)

            def complete(self, request):
                stage, _ = prompts.classify_system_text(
                    templates, request.first_content("system"))
                if (stage == prompts.STAGE_TRANSLATION
                        and len(request.first_content("user")) % 2):
                    raise TransportError("simulated translation failure")
                return self.backend.complete(request)

        class Exploding:
            def complete(self, request):
                raise AssertionError("resumed run must not call the backend")

        spec = SplitSpec(train_token_threshold=20, valid_token_threshold=10,
                         rng_seed=0)
        run_dir = tmp_path / "a"
        _, report = run_pipeline(small_plan(), templates,
                                 Gateway(FailingTranslations(), max_in_flight=2),
                                 spec, run_dir, mock_seed=0)
        assert report.translation_failures > 0
        report_path = run_dir / "reports" / "report.json"
        first = report_path.read_bytes()
        run_pipeline(small_plan(), templates, Gateway(Exploding()), spec, run_dir,
                     mock_seed=0)
        assert report_path.read_bytes() == first

    def test_resumed_run_counts_the_failed_sentence_requests(self, tmp_path):
        """sentence_failures counts the seeds that sentences.json holds no
        record of, so a run resumed from it reports the failures of the run
        that wrote it."""
        templates = PromptTemplateSet.defaults()

        class FailingSentences:
            """The mock backend, failing each sentence request of an odd-length seed."""

            def __init__(self):
                self.backend = MockBackend(templates, mock_seed=0)

            def complete(self, request):
                stage, _ = prompts.classify_system_text(
                    templates, request.first_content("system"))
                if (stage == prompts.STAGE_SENTENCES
                        and len(request.first_content("user")) % 2):
                    raise TransportError("simulated sentence failure")
                return self.backend.complete(request)

        plan = small_plan(n_nouns=10, n_verbs=10, sentences_per_seed=6)
        spec = SplitSpec(train_token_threshold=20, valid_token_threshold=10,
                         rng_seed=0)
        run_dir = tmp_path / "a"
        _, report = run_pipeline(plan, templates, Gateway(FailingSentences()),
                                 spec, run_dir, mock_seed=0)
        seeds = json.loads(
            (run_dir / "checkpoints" / "seeds.json").read_text(encoding="utf-8"))
        assert report.sentence_failures == sum(len(s) % 2 for s in seeds) == 5
        report_path = run_dir / "reports" / "report.json"
        first = report_path.read_bytes()
        (run_dir / "checkpoints" / "translations.json").unlink()
        run_pipeline(plan, templates, Gateway(FailingSentences()), spec, run_dir,
                     mock_seed=0)
        assert report_path.read_bytes() == first

    @pytest.mark.parametrize("content", [None, 5, ["a"]],
                             ids=["null", "number", "list"])
    def test_translation_content_not_a_string_is_a_failure(self, tmp_path,
                                                          monkeypatch, content):
        monkeypatch.setenv("LLM_API_KEY", "sk-test")
        session = MockSession(content, lambda stage, request: (
            stage == prompts.STAGE_TRANSLATION
            and len(request.first_content("user")) % 2))
        backend = HttpBackend(BackendConfig(max_retries=0), session=session)
        templates = PromptTemplateSet.defaults()
        spec = SplitSpec(train_token_threshold=20, valid_token_threshold=10,
                         rng_seed=0)
        _, report = run_pipeline(small_plan(), templates, Gateway(backend), spec,
                                 tmp_path / "a", mock_seed=None)
        checkpoints = tmp_path / "a" / "checkpoints"
        load = lambda name: json.loads((checkpoints / name).read_text(encoding="utf-8"))
        odd = [r for r in load("sentences.json") if len(r["sentence"]) % 2]
        assert odd and report.translation_failures == len(odd)
        assert all(len(r["src"]) % 2 == 0 for r in load("translations.json"))

    def test_report_keys(self, tmp_path):
        run_dir, _, _ = run_once(tmp_path, "a")
        payload = json.loads(
            (run_dir / "reports" / "report.json").read_text(encoding="utf-8")
        )
        assert list(payload) == [
            "seeds_requested", "seeds_parsed", "sentences_parsed",
            "sentences_deduplicated", "sentences_translated", "pairs_sampled",
            "sentence_failures", "translation_failures", "rng_seed", "mock_seed",
            "insufficient_data",
        ]
        assert payload["rng_seed"] == 0

    def test_malformed_checkpoint_raises(self, tmp_path):
        run_dir, _, _ = run_once(tmp_path, "a")
        path = run_dir / "checkpoints" / "seeds.json"
        path.write_text('{"a": 1}', encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="seeds.json: malformed"):
            run_once(tmp_path, "a")

    @pytest.mark.parametrize("sentence", ["Eine Eule\nruft", "Eine Eule\rruft", "  "])
    def test_bad_sentence_checkpoint_fails_before_translating(self, tmp_path,
                                                               sentence):
        run_dir, _, _ = run_once(tmp_path, "a")
        checkpoints = run_dir / "checkpoints"
        path = checkpoints / "sentences.json"
        records = json.loads(path.read_text(encoding="utf-8"))
        records[1]["sentence"] = sentence
        path.write_text(json.dumps(records), encoding="utf-8")
        (checkpoints / "translations.json").unlink()

        templates = PromptTemplateSet.defaults()
        backend = CountingBackend(MockBackend(templates, mock_seed=0), templates)
        spec = SplitSpec(train_token_threshold=60, valid_token_threshold=20,
                         rng_seed=0)
        with pytest.raises(CorpusFormatError,
                           match=r"sentences\.json: malformed checkpoint: sentence in"):
            run_pipeline(small_plan(), templates, Gateway(backend), spec, run_dir,
                         mock_seed=0)
        assert not backend.calls
        assert not (checkpoints / "translations.json").exists()


# sha256 of each file of a 40-seed mock run, as the code wrote them before
# response parsing, sentence dedup, the mock's sentences and the checkpoint
# writer were made to work once per distinct sentence
GOLDEN = {
    "checkpoints/seeds.json":
        "276f544d94407bb05d6a5556432108648cabcd9bf66a8f5932adee2e46f50f68",
    "checkpoints/sentences.json":
        "5c1d06784288833508cd9962cc3a3108a15b17853676f956669231861c623095",
    "checkpoints/translations.json":
        "53ef0927d28c9ee9dc8ad43948381f5369fd3c7d27f48dd98d1f56f4105c9b59",
    "corpora/train.jsonl":
        "7f661b50a81762d4fdde56d2adf0fff1f084b93a2c2702f0ef0807e9192b486c",
    "corpora/valid.jsonl":
        "1887f1adcf7aed63ff94b0b52c600d5247c80754ea65ed968a0eb9ddd3e8054a",
    "reports/report.json":
        "fcd826f34b42d06512779ca47a08731470a522fda661114b7ac5a25fa6088398",
}


def test_golden_digests(tmp_path):
    """A mock run whose sentence responses repeat each sentence twice writes
    the same bytes as ever."""
    templates = PromptTemplateSet.defaults()
    plan = GenerationPlan(n_nouns=20, n_verbs=20, sentences_per_seed=12)
    spec = SplitSpec(train_token_threshold=600, valid_token_threshold=200,
                     rng_seed=3)
    run_dir = tmp_path / "run"
    _, report = run_pipeline(plan, templates, mock_gateway(templates, mock_seed=7),
                             spec, run_dir, mock_seed=7)
    assert (report.seeds_parsed, report.sentences_parsed,
            report.sentences_deduplicated) == (40, 480, 240)
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in dir_snapshot(run_dir).items()}
    assert digests == GOLDEN


class RecordingSession(MockSession):
    """A MockSession that keeps the bytes of each body posted to it, as
    requests serialises a json= body."""

    def __init__(self):
        super().__init__(None, lambda stage, request: False)
        self.bodies = []

    def post(self, url, **kwargs):
        self.bodies.append(json.dumps(kwargs["json"], allow_nan=False).encode())
        return super().post(url, **kwargs)


# sha256 of the sorted, newline-joined bodies that HttpBackend posts in
# test_wire_bodies_unchanged, as the code posted them before each stage
# built its shared messages once
WIRE_DIGEST = "762099984fff350477182736f3fde5371cae107a8f052b5c8dd1a8ee8a11842c"


class TestSharedStageMessages:
    """Each stage builds its system message, and the sentence stage its
    few-shot message, once; only the user message is built per request."""

    def test_wire_bodies_unchanged(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "sk-test")
        session = RecordingSession()
        backend = HttpBackend(BackendConfig(max_retries=0), session=session)
        spec = SplitSpec(train_token_threshold=20, valid_token_threshold=10,
                         rng_seed=0)
        _, report = run_pipeline(small_plan(), PromptTemplateSet.defaults(),
                                 Gateway(backend), spec, tmp_path / "a")
        assert len(session.bodies) == (2 + report.seeds_parsed
                                       + report.sentences_deduplicated)
        digest = hashlib.sha256(b"\n".join(sorted(session.bodies))).hexdigest()
        assert digest == WIRE_DIGEST

    def test_requests_of_a_stage_share_their_messages(self, tmp_path, templates):
        sent = []

        class Recording(MockBackend):
            def complete(self, request):
                sent.append(request)
                return super().complete(request)

        spec = SplitSpec(train_token_threshold=60, valid_token_threshold=20)
        run_pipeline(small_plan(), templates, Gateway(Recording(templates)), spec,
                     tmp_path / "a")
        by_stage = {}
        for request in sent:
            stage, _ = prompts.classify_system_text(
                templates, request.first_content("system"))
            by_stage.setdefault(stage, []).append(request)
        sentences = by_stage[prompts.STAGE_SENTENCES]
        translations = by_stage[prompts.STAGE_TRANSLATION]
        assert len(sentences) > 1 and len(translations) > 1
        for requests, shared in ((sentences, (0, 2)), (translations, (0,))):
            for position in shared:
                assert len({id(r.messages[position]) for r in requests}) == 1
            assert len({id(r.messages[1]) for r in requests}) == len(requests)
        assert [m.role for m in sentences[0].messages] == [
            "system", "user", "assistant"]
