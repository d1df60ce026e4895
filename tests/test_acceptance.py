"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import io
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import reference_em
from conftest import make_corpus, make_experiment_fixture
from corpus_forge import bpe, em
from corpus_forge.corpus import SplitSpec, open_atomic, read_jsonl
from corpus_forge.gateway import Gateway, MockBackend
from corpus_forge.hallucinate import (
    GenerationPlan,
    generate_seed_words,
    generate_sentences,
    run_pipeline,
    translate_sentences,
)
from corpus_forge.metrics import (
    corpus_bleu,
    frequency_profile,
    render_matrix_markdown,
    render_score_row_markdown,
)
from corpus_forge.prompts import PromptTemplateSet

GOLDEN = Path(__file__).parent / "golden"
NATURAL_SAMPLE = Path(__file__).parent / "data" / "natural_sample.jsonl"


@contextmanager
def criterion(number, description, limit_seconds):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number} ({description}): FAIL")
        raise
    elapsed = time.monotonic() - started
    assert elapsed < limit_seconds, (
        f"criterion {number} took {elapsed:.1f}s, limit {limit_seconds}s"
    )
    print(f"[ACCEPTANCE] criterion {number} ({description}): "
          f"PASS ({elapsed:.2f}s)")


def test_criterion_1_bleu_oracles():
    with criterion(1, "BLEU oracle suite", 5):
        rng = random.Random(100)
        vocab = [f"w{i}" for i in range(20)]

        # exact self-score on assorted corpora
        for _ in range(10):
            corpus = [
                [rng.choice(vocab) for _ in range(rng.randint(1, 10))]
                for _ in range(rng.randint(1, 8))
            ]
            assert corpus_bleu(corpus, corpus).bleu == 100.0

        # classic clipping case
        hyp = [["the"] * 7]
        ref = [["the", "cat", "is", "on", "the", "mat"]]
        assert abs(corpus_bleu(hyp, ref).precisions[0] - 2 / 7) < 1e-12

        # brevity penalty with hyp_len 7, ref_len 14
        bp = corpus_bleu(
            [["a"] * 7], [["b"] * 14]
        ).brevity_penalty
        assert abs(bp - math.exp(-1.0)) < 1e-12

        # permutation invariance on 100 random corpora, the hypotheses noisy
        # copies of the references so that most of them score above 0
        scored = 0
        for trial in range(100):
            rng_t = random.Random(trial)
            size = rng_t.randint(2, 12)
            refs = [
                [rng_t.choice(vocab) for _ in range(rng_t.randint(4, 9))]
                for _ in range(size)
            ]
            hyps = [
                [w if rng_t.random() < 0.8 else rng_t.choice(vocab) for w in ref]
                [:rng_t.randint(len(ref) - 1, len(ref))]
                for ref in refs
            ]
            order = list(range(size))
            rng_t.shuffle(order)
            base = corpus_bleu(hyps, refs)
            perm = corpus_bleu([hyps[i] for i in order], [refs[i] for i in order])
            assert perm == base
            scored += base.bleu > 0
        assert scored >= 90


def test_criterion_2_bpe_suite(tmp_path):
    with criterion(2, "BPE suite", 10):
        lines = ["low"] * 5 + ["lower"] * 2 + ["newest"] * 6 + ["widest"] * 3
        corpus = make_corpus([(line, line) for line in lines])
        model = bpe.train_bpe([corpus], 60)
        assert model.merges[0] == ("e", "s")

        rng = random.Random(7)
        alphabet = "lowenstidr"
        for _ in range(1000):
            words = [
                "".join(rng.choices(alphabet, k=rng.randint(1, 12)))
                for _ in range(rng.randint(1, 8))
            ]
            line = " ".join(words)
            assert bpe.decode(bpe.encode(model, line)) == line

        second = bpe.train_bpe([corpus], 60)
        path_a, path_b = tmp_path / "a.bpe", tmp_path / "b.bpe"
        with open_atomic(path_a, path_b) as (fh_a, fh_b):
            bpe.save_model(model, fh_a)
            bpe.save_model(second, fh_b)
        assert path_a.read_bytes() == path_b.read_bytes()


def test_criterion_3_em_suite():
    with criterion(3, "EM suite", 5):
        corpus = make_corpus(
            [("das Haus", "the house"), ("das Buch", "the book"),
             ("ein Buch", "a book")]
        )
        best = em.train_em(corpus, 10, io.StringIO())
        assert best["Buch"] == "book"
        lls = [reference_em.log_likelihood(corpus, dict(em.fit_rows(corpus, k)))
               for k in range(1, 11)]
        for earlier, later in zip(lls, lls[1:]):
            assert later >= earlier - 1e-9
        for _, dist in em.fit_rows(corpus, 10):
            assert abs(sum(dist.values()) - 1.0) <= 1e-9


def test_criterion_4_augmentation_improves_translation(unread_lexicons):
    with criterion(4, "Aug >= Nat > Synth on test", 30):
        fx = make_experiment_fixture()
        rows = em.run_experiment(
            fx["nat_train"], fx["syn_train"], fx["nat_valid"], fx["test"],
            10, syn_valid=fx["syn_valid"], lexicons=unread_lexicons,
        )
        assert rows["Aug"]["Test"] >= rows["Nat"]["Test"]
        assert rows["Nat"]["Test"] > rows["Synth"]["Test"]


def mock_synthetic_lines(mock_seed=0):
    """Source and target lines of a small corpus from the mock backend."""
    templates = PromptTemplateSet.defaults()
    plan = GenerationPlan(n_nouns=5, n_verbs=5, sentences_per_seed=4)
    gateway = Gateway(MockBackend(templates, mock_seed=mock_seed),
                      max_in_flight=2)
    seeds = generate_seed_words(plan, templates, gateway)
    tagged = generate_sentences(seeds, plan, templates, gateway)
    records = translate_sentences(tagged, plan, templates, gateway)
    return {"source_lines": [r["src"] for r in records],
            "target_lines": [r["tgt"] for r in records]}


def test_criterion_5_overfitting_and_diversity(unread_lexicons):
    with criterion(5, "Synth overfits; synthetic TTR lower", 30):
        fx = make_experiment_fixture()
        rows = em.run_experiment(
            fx["nat_train"], fx["syn_train"], fx["nat_valid"], fx["test"],
            10, syn_valid=fx["syn_valid"], lexicons=unread_lexicons,
        )
        assert rows["Synth"]["Synth-val"] > rows["Synth"]["Test"]

        synthetic = mock_synthetic_lines()
        natural = read_jsonl(NATURAL_SAMPLE)
        for side in ("source_lines", "target_lines"):
            syn_ttr = frequency_profile(synthetic[side]).ttr
            nat_ttr = frequency_profile(getattr(natural, side)()).ttr
            assert syn_ttr < nat_ttr, f"{side}: {syn_ttr} !< {nat_ttr}"


def test_criterion_6_hermetic_pipeline_determinism(tmp_path):
    with criterion(6, "hermetic pipeline byte-identical", 10):
        templates = PromptTemplateSet.defaults()
        plan = GenerationPlan(n_nouns=5, n_verbs=5, sentences_per_seed=4)
        spec = SplitSpec(train_token_threshold=60, valid_token_threshold=20,
                         rng_seed=1)

        snapshots = []
        reports = []
        for name in ("first", "second"):
            gateway = Gateway(MockBackend(templates, mock_seed=2),
                              max_in_flight=3)
            run_dir = tmp_path / name
            _, report = run_pipeline(plan, templates, gateway, spec, run_dir,
                                     mock_seed=2)
            snapshots.append({
                str(p.relative_to(run_dir)): p.read_bytes()
                for p in sorted(run_dir.rglob("*")) if p.is_file()
            })
            reports.append(report)
        assert snapshots[0] == snapshots[1]

        report = reports[0]
        assert report.pairs_sampled <= report.sentences_translated
        assert report.sentences_translated <= report.sentences_deduplicated
        assert report.sentences_deduplicated <= report.sentences_parsed


def test_criterion_7_report_fidelity():
    with criterion(7, "published-score report fidelity", 5):
        table3 = (
            render_score_row_markdown(["Synth-de", "Nat-de", "Aug-de"],
                                      [3.5, 16.4, 18.9])
            + "\n"
            + render_score_row_markdown(["Synth-gl", "Nat-gl", "Aug-gl"],
                                        [9.5, 24.4, 28.3])
        )
        assert table3.encode() == (GOLDEN / "table3.md").read_bytes()

        # the paper scores Aug on Test alone
        rows = {
            "Synth-de": {"Synth-val": 72.2, "Nat-val": 3.7, "Test": 3.5},
            "Synth-gl": {"Synth-val": 58.2, "Nat-val": 9.5, "Test": 9.5},
            "Nat-de": {"Synth-val": 19.0, "Nat-val": 17.0, "Test": 16.4},
            "Nat-gl": {"Synth-val": 20.3, "Nat-val": 24.4, "Test": 24.4},
            "Aug-de": {"Test": 18.9},
            "Aug-gl": {"Test": 28.3},
        }
        table4 = render_matrix_markdown(rows, ["Synth-val", "Nat-val", "Test"])
        assert table4.encode() == (GOLDEN / "table4.md").read_bytes()
