import io
import math
import os
import pickle
import random
import tempfile
import threading
import tracemalloc
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_em
from conftest import in_worker, make_corpus, syllable_corpus
from corpus_forge import em
from corpus_forge.corpus import open_atomic, tokenize
from corpus_forge.errors import ConfigError, CorpusForgeError, EmptyCorpus
from corpus_forge.metrics import corpus_bleu, cross_evaluate


def toy_corpus():
    return make_corpus(
        [("das Haus", "the house"), ("das Buch", "the book"), ("ein Buch", "a book")]
    )


def train(corpus, iterations):
    """train_em, its lexicon text kept in memory and unread."""
    return em.train_em(corpus, iterations, io.StringIO())


def fitted_rows(corpus, iterations):
    """fit_rows's rows, {f: {e: probability}} in the order it fits them, and
    its log-likelihoods."""
    rows = {}
    log_likelihoods = em.fit_rows(corpus, iterations, rows.__setitem__)
    return rows, log_likelihoods


class TestTrainEm:
    def test_uniform_initialization(self):
        model = train(toy_corpus(), 1)
        # the first E-step sees t(e|f) = 1/5 for every candidate (4 target
        # types plus null), so each of the 6 source tokens adds log(1/5)
        assert model.log_likelihoods[0] == pytest.approx(6 * math.log(1 / 5))

    def test_buch_learns_book(self):
        model = train(toy_corpus(), 10)
        assert model.best["Buch"] == "book"

    def test_log_likelihood_non_decreasing(self):
        rng = random.Random(4)
        vocab = {f"s{i}": f"t{i}" for i in range(12)}
        sentences = []
        for _ in range(30):
            words = rng.sample(sorted(vocab), rng.randint(3, 6))
            sentences.append((" ".join(words), " ".join(vocab[w] for w in words)))
        model = train(make_corpus(sentences), 10)
        lls = model.log_likelihoods
        assert len(lls) == 10
        for earlier, later in zip(lls, lls[1:]):
            assert later >= earlier - 1e-9

    def test_peak_memory_does_not_grow_with_iterations(self):
        # tracemalloc slows the E-step about 25 times: a few thousand tokens
        corpus = syllable_corpus(seed=5, n_lines=700)
        n_tokens = sum(len(tokenize(p.source)) for p in corpus.pairs)
        peaks = []
        for iterations in (1, 10):
            tracemalloc.start()
            try:
                em.fit_rows(corpus, iterations, lambda f, dist: None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one stored 8-byte term per token and iteration would add 9 of these
        assert peaks[1] - peaks[0] < 8 * n_tokens

    def test_distributions_normalized(self):
        rows, _ = fitted_rows(toy_corpus(), 10)
        for dist in rows.values():
            assert abs(sum(dist.values()) - 1.0) <= 1e-9
            assert all(p >= 0 for p in dist.values())

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            train(make_corpus([]), 5)

    def test_bad_iterations_rejected(self):
        with pytest.raises(ValueError):
            train(toy_corpus(), 0)


class TestTranslate:
    def test_copy_language_reaches_100_bleu(self):
        rng = random.Random(9)
        vocab = [f"w{i}" for i in range(15)]
        lines = [
            " ".join(rng.sample(vocab, rng.randint(3, 6))) for _ in range(50)
        ]
        corpus = make_corpus([(line, line) for line in lines])
        model = train(corpus, 10)
        out = em.translate(model, lines)
        assert out == lines
        report = corpus_bleu([tokenize(line) for line in out],
                             [tokenize(line) for line in lines])
        assert report.bleu == 100.0

    def test_oov_copied_through(self):
        model = train(toy_corpus(), 5)
        assert em.translate(model, ["xyz qqq"]) == ["xyz qqq"]

    def test_deterministic(self):
        model = train(toy_corpus(), 5)
        lines = ["das Buch", "ein Haus"]
        assert em.translate(model, lines) == em.translate(model, lines)

    def test_nfd_spelling_translates_like_nfc(self):
        nfc = "Café"
        nfd = unicodedata.normalize("NFD", nfc)
        assert nfd != nfc
        corpus = make_corpus([(f"{nfc} gut", "coffee good"), (nfc, "coffee"),
                              ("gut", "good")])
        model = train(corpus, 10)
        assert em.translate(model, [nfd, f"{nfd} gut"]) == ["coffee", "coffee good"]

    def test_length_bounded(self):
        model = train(toy_corpus(), 5)
        for line in ["das Buch ein Haus", "das das das"]:
            assert len(em.translate(model, [line])[0].split()) <= len(line.split())


class TestSerialization:
    def test_save_model_bytes(self, tmp_path):
        # every row is {y: 0.5, <null>: 0.5}; rows sort by source word, then
        # by target word, in code-point order
        path = tmp_path / "model.lexicon"
        em.save_model(make_corpus([("b ä a", "y")]), 7, path)
        assert path.read_bytes() == (
            "lexicon-v1 iterations=7\n"
            "a\t<null>\t0.5\n"
            "a\ty\t0.5\n"
            "b\t<null>\t0.5\n"
            "b\ty\t0.5\n"
            "ä\t<null>\t0.5\n"
            "ä\ty\t0.5\n"
        ).encode("utf-8")


class TestRenderRow:
    @pytest.mark.parametrize("f, dist, lines", [
        # targets sort in code-point order; probabilities print as .12g
        ("a", {"z": 1 / 3, "x": 2 / 3, "Z": 1e-20},
         "a\tZ\t1e-20\na\tx\t0.666666666667\na\tz\t0.333333333333\n"),
        ("b", {"y": 0.0, em.NULL_TOKEN: 1.0}, "b\t<null>\t1\nb\ty\t0\n"),
        ("ä", {"é": 0.5}, "ä\té\t0.5\n"),
    ])
    def test_lines(self, f, dist, lines):
        assert em.render_row(f, dist)[0] == lines

    @pytest.mark.parametrize("dist, best", [
        ({em.NULL_TOKEN: 0.5, "w": 0.5}, "w"),  # null tied with a word
        ({"y": 0.4, em.NULL_TOKEN: 0.4, "x": 0.2}, "y"),
        ({"é": 0.5, "z": 0.5}, "z"),  # two words tied: the smaller wins
        ({"y": 0.3, "x": 0.3, em.NULL_TOKEN: 0.3, "w": 0.1}, "x"),
        ({"w": 0.25, em.NULL_TOKEN: 0.5, "a": 0.25}, em.NULL_TOKEN),  # null on top
        ({em.NULL_TOKEN: 1.0}, em.NULL_TOKEN),
        ({"x": 0.0, em.NULL_TOKEN: 1.0}, em.NULL_TOKEN),
    ])
    def test_argmax(self, dist, best):
        assert em.render_row("f", dist)[1] == best
        oracle = reference_em.LexiconModel(t={"f": dist}, log_likelihoods=[])
        assert reference_em.best_target(oracle, "f") == best


# Few word types, so words repeat within sentences; one-word sentences give
# exact ties between a word's only target and the null target.
SOURCE_WORDS = st.sampled_from(["a", "b", "c", "d"])
TARGET_WORDS = st.sampled_from(["w", "x", "y", "z"])


def sentences(words):
    return st.lists(words, min_size=1, max_size=5).map(" ".join)


def reference_lexicon(model, iterations):
    """The oracle's t as lexicon-v1 text, sorted by f, then e."""
    return f"lexicon-v1 iterations={iterations}\n" + "".join(
        f"{f}\t{e}\t{model.t[f][e]:.12g}\n"
        for f in sorted(model.t) for e in sorted(model.t[f]))


def assert_matches_reference(corpus, iterations, lines):
    """fit_rows's rows, and train_em's model, against the oracle's."""
    rows, log_likelihoods = fitted_rows(corpus, iterations)
    expected = reference_em.train_em(corpus, iterations)
    # rows come in sorted order; the oracle's follow a set's
    assert list(rows) == sorted(expected.t)
    for f, dist in expected.t.items():
        assert list(rows[f].items()) == list(dist.items())
    assert log_likelihoods == expected.log_likelihoods
    written = io.StringIO()
    model = em.train_em(corpus, iterations, written)
    assert model.log_likelihoods == expected.log_likelihoods
    assert list(model.best) == list(rows)
    for f in rows:
        assert model.best[f] == reference_em.best_target(expected, f)
    assert em.translate(model, lines) == reference_em.translate(expected, lines)
    assert written.getvalue() == reference_lexicon(expected, iterations)


def saved_model(corpus, iterations):
    """save_model's model, and the bytes it writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.lexicon"
        model = em.save_model(corpus, iterations, path)
        return model, path.read_bytes()


class TestMatchesReference:
    """fit_rows, train_em's argmaxes and lexicon, and translate against the
    original dict-based EM."""

    @settings(deadline=None)
    @given(
        st.lists(st.tuples(sentences(SOURCE_WORDS), sentences(TARGET_WORDS)),
                 min_size=1, max_size=8),
        st.integers(min_value=1, max_value=5),
    )
    def test_bit_identical(self, pairs, iterations):
        corpus = make_corpus(pairs)
        assert_matches_reference(corpus, iterations,
                                 corpus.source_lines() + ["a e b", "e"])

    def test_at_a_size_the_properties_never_reach(self):
        """2,000 Zipfian lines over 1,500-word lexicons, 10 iterations: rows
        met by hundreds of tokens, where the hypothesis corpora stop at 8 pairs."""
        corpus = syllable_corpus()
        words = sorted({f for line in corpus.source_lines() for f in tokenize(line)})
        # each source word once: the oracle decodes a token in time linear
        # in its row, and the frequent words' rows are long
        assert_matches_reference(corpus, 10, words)


class TestRunExperiment:
    def test_directional_findings(self, experiment_fixture, unread_lexicons):
        fx = experiment_fixture
        models, matrix = em.run_experiment(
            fx["nat_train"], fx["syn_train"], fx["nat_valid"], fx["test"],
            10, syn_valid=fx["syn_valid"], lexicons=unread_lexicons,
        )
        assert matrix.get("Aug", "Test") >= matrix.get("Nat", "Test")
        assert matrix.get("Nat", "Test") > matrix.get("Synth", "Test")
        assert matrix.get("Synth", "Synth-val") > matrix.get("Synth", "Test")

    def test_nine_cells(self, experiment_fixture, unread_lexicons):
        fx = experiment_fixture
        _, matrix = em.run_experiment(
            fx["nat_train"], fx["syn_train"], fx["nat_valid"], fx["test"],
            3, syn_valid=fx["syn_valid"], lexicons=unread_lexicons,
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
        doubled = type(nat)(doubled_pairs)
        single = train(nat, 5)
        twice = train(doubled, 5)
        lines = fx["test"].source_lines()
        assert em.translate(single, lines) == em.translate(twice, lines)

    def test_eval_overlap_rejected(self, experiment_fixture, unread_lexicons):
        fx = experiment_fixture
        with pytest.raises(ConfigError, match="share pair ids"):
            em.run_experiment(
                fx["nat_train"], fx["syn_train"], fx["nat_train"], fx["test"], 2,
                lexicons=unread_lexicons,
            )

    @pytest.mark.parametrize("n_shared, listed", [
        (3, "['p-0', 'p-1', 'p-2']"),
        (5, "['p-0', 'p-1', 'p-2', 'p-3', 'p-4']"),
        (6, "['p-0', 'p-1', 'p-2', 'p-3', 'p-4']..."),
    ])
    def test_shared_ids_listed_up_to_five(self, n_shared, listed, unread_lexicons):
        pair = ("das Haus", "the house")
        with pytest.raises(ConfigError) as info:
            em.run_experiment(
                make_corpus([pair] * 6), make_corpus([pair], prefix="s"),
                make_corpus([pair], prefix="v"), make_corpus([pair] * n_shared), 2,
                lexicons=unread_lexicons,
            )
        assert str(info.value) == f"input corpora share pair ids: {listed}"


def serial_experiment(nat_train, syn_train, nat_valid, test, iterations,
                      syn_valid=None):
    """run_experiment as one process composes it: train and save, translate,
    score. Returns the models, the matrix and each model's lexicon bytes."""
    aug = type(nat_train)(list(nat_train.pairs) + list(syn_train.pairs))
    saved = {label: saved_model(corpus, iterations)
             for label, corpus in (("Nat", nat_train), ("Synth", syn_train),
                                   ("Aug", aug))}
    models = {label: model for label, (model, _) in saved.items()}
    eval_sets = {}
    if syn_valid is not None:
        eval_sets["Synth-val"] = (syn_valid.source_lines(), syn_valid.target_lines())
    eval_sets["Nat-val"] = (nat_valid.source_lines(), nat_valid.target_lines())
    eval_sets["Test"] = (test.source_lines(), test.target_lines())
    matrix = cross_evaluate(
        {label: lambda lines, m=model: em.translate(m, lines)
         for label, model in models.items()},
        eval_sets,
    )
    return models, matrix, {label: data for label, (_, data) in saved.items()}


def experiment_with_files(corpora, iterations):
    """run_experiment writing each lexicon to a file, as experiment does:
    its models, its matrix and each file's bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {label: Path(tmp) / f"{label}.lexicon" for label in em.LABELS}
        with open_atomic(*paths.values()) as files:
            fits, matrix = em.run_experiment(
                corpora["nat_train"], corpora["syn_train"], corpora["nat_valid"],
                corpora["test"], iterations, syn_valid=corpora.get("syn_valid"),
                lexicons=dict(zip(paths, files)),
            )
        return fits, matrix, {label: p.read_bytes() for label, p in paths.items()}


def assert_matches_serial(corpora, iterations):
    threads = threading.enumerate()
    fits, matrix, written = experiment_with_files(corpora, iterations)
    # no pool thread outlives the call, so a later fork sees one thread
    assert threading.enumerate() == threads
    models, expected, lexicons = serial_experiment(
        corpora["nat_train"], corpora["syn_train"], corpora["nat_valid"],
        corpora["test"], iterations, syn_valid=corpora.get("syn_valid"),
    )
    assert (matrix.rows, matrix.columns) == (expected.rows, expected.columns)
    assert matrix.cells == expected.cells
    assert matrix.failures == expected.failures
    assert list(fits) == list(models)
    for label, model in models.items():
        assert written[label] == lexicons[label]
        assert fits[label].log_likelihoods == model.log_likelihoods


class TestParallelExperiment:
    """run_experiment's forked fits against the serial composition."""

    def test_fixture_matches_serial(self, experiment_fixture):
        assert_matches_serial(experiment_fixture, 5)

    def test_without_synthetic_validation(self, experiment_fixture):
        corpora = dict(experiment_fixture)
        del corpora["syn_valid"]
        assert_matches_serial(corpora, 3)

    @settings(deadline=None, max_examples=15)
    @given(st.lists(
        st.lists(st.tuples(sentences(SOURCE_WORDS), sentences(TARGET_WORDS)),
                 min_size=1, max_size=5),
        min_size=5, max_size=5,
    ), st.integers(min_value=1, max_value=4))
    def test_tiny_corpora_match_serial(self, blocks, iterations):
        names = ["nat_train", "syn_train", "nat_valid", "test", "syn_valid"]
        corpora = {name: make_corpus(pairs, prefix=name)
                   for name, pairs in zip(names, blocks)}
        assert_matches_serial(corpora, iterations)

    @pytest.mark.parametrize("label", ["Synth", "Aug"])  # caller, worker
    def test_failed_decoding_fails_only_its_cells(self, experiment_fixture,
                                                  monkeypatch, unread_lexicons,
                                                  label):
        translate = em.translate

        def failing(model, lines):
            # Nat knows only quell*, Synth only neu*, Aug both
            vocab = ("quell0" in model.best, "neu0" in model.best)
            if vocab == {"Synth": (False, True), "Aug": (True, True)}[label]:
                raise ValueError(f"no decoding for {label}")
            return translate(model, lines)

        monkeypatch.setattr(em, "_use_worker", lambda: True)
        monkeypatch.setattr(em, "translate", failing)  # the worker inherits it
        fx = experiment_fixture
        _, matrix = em.run_experiment(
            fx["nat_train"], fx["syn_train"], fx["nat_valid"], fx["test"], 3,
            syn_valid=fx["syn_valid"], lexicons=unread_lexicons,
        )
        assert matrix.failures == {
            (label, col): f"ValueError: no decoding for {label}"
            for col in ("Synth-val", "Nat-val", "Test")
        }
        assert len(matrix.cells) == 6

    @pytest.mark.parametrize("worker", [True, False])
    def test_fitted_models_carry_no_lexicon_text(self, experiment_fixture,
                                                 monkeypatch, worker):
        # with a worker, Aug's model is the one that came through the pipe
        monkeypatch.setattr(em, "_use_worker", lambda: worker)
        fits, _, written = experiment_with_files(experiment_fixture, 5)
        assert list(fits) == list(em.LABELS)
        for label, model in fits.items():
            assert len(pickle.dumps(model)) < len(written[label]) / 3, label

    def test_one_process_matches_serial(self, experiment_fixture, monkeypatch):
        monkeypatch.setattr(em, "_use_worker", lambda: False)  # one CPU, or no fork
        assert_matches_serial(experiment_fixture, 3)

    def test_dead_worker_is_a_clean_error(self, experiment_fixture, monkeypatch,
                                          unread_lexicons):
        monkeypatch.setattr(em, "_use_worker", lambda: True)
        monkeypatch.setattr(em, "train_em", in_worker(em.train_em, lambda: os._exit(3)))
        fx = experiment_fixture
        threads = threading.enumerate()
        with pytest.raises(CorpusForgeError,
                           match="worker process died while fitting Aug"):
            em.run_experiment(
                fx["nat_train"], fx["syn_train"], fx["nat_valid"], fx["test"], 3,
                lexicons=unread_lexicons,
            )
        assert threading.enumerate() == threads

    def test_worker_exception_reaches_the_caller(self, experiment_fixture,
                                                 monkeypatch, unread_lexicons):
        def fail():
            raise EmptyCorpus("Aug failed in the worker")

        monkeypatch.setattr(em, "_use_worker", lambda: True)
        monkeypatch.setattr(em, "train_em", in_worker(em.train_em, fail))
        fx = experiment_fixture
        with pytest.raises(EmptyCorpus, match="Aug failed in the worker"):
            em.run_experiment(
                fx["nat_train"], fx["syn_train"], fx["nat_valid"], fx["test"], 3,
                lexicons=unread_lexicons,
            )
