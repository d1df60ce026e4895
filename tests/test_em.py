import random
import tempfile
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_em
from conftest import make_corpus
from corpus_forge import em
from corpus_forge.corpus import tokenize
from corpus_forge.errors import ConfigError, EmptyCorpus
from corpus_forge.metrics import corpus_bleu


def toy_corpus():
    return make_corpus(
        [("das Haus", "the house"), ("das Buch", "the book"), ("ein Buch", "a book")]
    )


class TestTrainEm:
    def test_uniform_initialization(self):
        corpus = toy_corpus()
        model = em.train_em(corpus, 1)
        # after one E-step every count came from the uniform initialization;
        # verify the uniform value directly on a fresh model's vocab size
        assert model.target_vocab == {"the", "house", "book", "a"}
        uniform = 1.0 / (len(model.target_vocab) + 1)
        assert 0 < uniform < 1

    def test_buch_learns_book(self):
        model = em.train_em(toy_corpus(), 10)
        assert em.best_target(model, "Buch") == "book"

    def test_log_likelihood_non_decreasing(self):
        rng = random.Random(4)
        vocab = {f"s{i}": f"t{i}" for i in range(12)}
        sentences = []
        for _ in range(30):
            words = rng.sample(sorted(vocab), rng.randint(3, 6))
            sentences.append((" ".join(words), " ".join(vocab[w] for w in words)))
        model = em.train_em(make_corpus(sentences), 10)
        lls = model.log_likelihoods
        assert len(lls) == 10
        for earlier, later in zip(lls, lls[1:]):
            assert later >= earlier - 1e-9

    def test_distributions_normalized(self):
        model = em.train_em(toy_corpus(), 10)
        for f, dist in model.t.items():
            assert abs(sum(dist.values()) - 1.0) <= 1e-9
            assert all(p >= 0 for p in dist.values())

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            em.train_em(make_corpus([]), 5)

    def test_bad_iterations_rejected(self):
        with pytest.raises(ValueError):
            em.train_em(toy_corpus(), 0)


class TestTranslate:
    def test_copy_language_reaches_100_bleu(self):
        rng = random.Random(9)
        vocab = [f"w{i}" for i in range(15)]
        lines = [
            " ".join(rng.sample(vocab, rng.randint(3, 6))) for _ in range(50)
        ]
        corpus = make_corpus([(line, line) for line in lines])
        model = em.train_em(corpus, 10)
        out = model.translate(lines)
        assert out == lines
        report = corpus_bleu([tokenize(line) for line in out],
                             [tokenize(line) for line in lines])
        assert report.bleu == 100.0

    def test_oov_copied_through(self):
        model = em.train_em(toy_corpus(), 5)
        assert model.translate(["xyz qqq"]) == ["xyz qqq"]

    def test_deterministic(self):
        model = em.train_em(toy_corpus(), 5)
        lines = ["das Buch", "ein Haus"]
        assert model.translate(lines) == model.translate(lines)

    def test_nfd_spelling_translates_like_nfc(self):
        nfc = "Café"
        nfd = unicodedata.normalize("NFD", nfc)
        assert nfd != nfc
        corpus = make_corpus([(f"{nfc} gut", "coffee good"), (nfc, "coffee"),
                              ("gut", "good")])
        model = em.train_em(corpus, 10)
        assert model.translate([nfd, f"{nfd} gut"]) == ["coffee", "coffee good"]

    def test_argmax_cache_left_out_of_comparisons(self):
        decoded, fresh = em.train_em(toy_corpus(), 5), em.train_em(toy_corpus(), 5)
        decoded.translate(["das Buch ein Haus"])
        assert decoded._best and not fresh._best
        assert decoded == fresh

    def test_length_bounded(self):
        model = em.train_em(toy_corpus(), 5)
        for line in ["das Buch ein Haus", "das das das"]:
            assert len(model.translate([line])[0].split()) <= len(line.split())


class TestSerialization:
    def test_save_model_bytes(self, tmp_path):
        # rows sort by source word, then by target word, in code-point order
        model = em.LexiconModel(
            t={
                "ä": {"é": 0.5},
                "b": {"y": 0.0, em.NULL_TOKEN: 1.0},
                "a": {"z": 1 / 3, "x": 2 / 3, "Z": 1e-20},
            },
            source_vocab={"a", "b", "ä"},
            target_vocab={"x", "y", "z", "Z", "é"},
            iterations_run=7,
        )
        path = tmp_path / "model.lexicon"
        em.save_model(model, path)
        assert path.read_bytes() == (
            "lexicon-v1 iterations=7\n"
            "a\tZ\t1e-20\n"
            "a\tx\t0.666666666667\n"
            "a\tz\t0.333333333333\n"
            "b\t<null>\t1\n"
            "b\ty\t0\n"
            "ä\té\t0.5\n"
        ).encode("utf-8")


# Few word types, so words repeat within sentences; one-word sentences give
# exact ties between a word's only target and the null target.
SOURCE_WORDS = st.sampled_from(["a", "b", "c", "d"])
TARGET_WORDS = st.sampled_from(["w", "x", "y", "z"])


def sentences(words):
    return st.lists(words, min_size=1, max_size=5).map(" ".join)


def lexicon_bytes(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.lexicon"
        em.save_model(model, path)
        return path.read_bytes()


class TestMatchesReference:
    """train_em, best_target and translate against the original dict-based EM."""

    @settings(deadline=None)
    @given(
        st.lists(st.tuples(sentences(SOURCE_WORDS), sentences(TARGET_WORDS)),
                 min_size=1, max_size=8),
        st.integers(min_value=1, max_value=5),
    )
    def test_bit_identical(self, pairs, iterations):
        corpus = make_corpus(pairs)
        model = em.train_em(corpus, iterations)
        expected = reference_em.train_em(corpus, iterations)
        assert model.t.keys() == expected.t.keys()
        for f, dist in expected.t.items():
            assert list(model.t[f].items()) == list(dist.items())
        assert model.log_likelihoods == expected.log_likelihoods
        assert model.final_log_likelihood == expected.final_log_likelihood
        assert model.source_vocab == expected.source_vocab
        assert model.target_vocab == expected.target_vocab
        lines = corpus.source_lines() + ["a e b", "e"]
        assert em.translate(model, lines) == reference_em.translate(expected, lines)
        for f in expected.t:
            assert em.best_target(model, f) == reference_em.best_target(expected, f)
        assert lexicon_bytes(model) == lexicon_bytes(expected)


class TestRunExperiment:
    def test_directional_findings(self, experiment_fixture):
        fx = experiment_fixture
        models, matrix = em.run_experiment(
            fx["nat_train"], fx["syn_train"], fx["nat_valid"], fx["test"],
            10, syn_valid=fx["syn_valid"],
        )
        assert matrix.get("Aug", "Test") >= matrix.get("Nat", "Test")
        assert matrix.get("Nat", "Test") > matrix.get("Synth", "Test")
        assert matrix.get("Synth", "Synth-val") > matrix.get("Synth", "Test")

    def test_nine_cells(self, experiment_fixture):
        fx = experiment_fixture
        _, matrix = em.run_experiment(
            fx["nat_train"], fx["syn_train"], fx["nat_valid"], fx["test"],
            3, syn_valid=fx["syn_valid"],
        )
        assert len(matrix.cells) + len(matrix.failures) == 9
        assert not matrix.failures

    def test_duplicated_training_data_changes_nothing(self, experiment_fixture):
        # duplicating the corpus rescales expected counts uniformly, so the
        # learned argmax lexicon is identical
        fx = experiment_fixture
        nat = fx["nat_train"]
        doubled_pairs = list(nat.pairs) + [
            type(p)(id=p.id + "-dup", source=p.source, target=p.target)
            for p in nat.pairs
        ]
        doubled = type(nat)(doubled_pairs, nat.source_lang, nat.target_lang)
        single = em.train_em(nat, 5)
        twice = em.train_em(doubled, 5)
        lines = fx["test"].source_lines()
        assert single.translate(lines) == twice.translate(lines)

    def test_eval_overlap_rejected(self, experiment_fixture):
        fx = experiment_fixture
        with pytest.raises(ConfigError, match="share pair ids"):
            em.run_experiment(
                fx["nat_train"], fx["syn_train"], fx["nat_train"], fx["test"], 2
            )
