"""Word-lexicon baseline translator trained by expectation-maximization.

The model holds t(e|f): for each source word f, a probability distribution
over target words e (plus a reserved null target meaning "emit nothing").
Training is classic lexical EM: expected-count collection with per-sentence
normalization, then renormalization of t. Decoding is positional argmax.
"""

import math
import os
from array import array
from dataclasses import dataclass, field

from .corpus import ParallelCorpus, open_atomic, tokenize
from .errors import ConfigError, CorpusForgeError, EmptyCorpus
from .metrics import EvalMatrix, cross_evaluate

NULL_TOKEN = "<null>"


@dataclass
class LexiconModel:
    t: dict  # source word -> {target word: probability}
    source_vocab: set
    target_vocab: set
    null_token: str = NULL_TOKEN
    iterations_run: int = 0
    final_log_likelihood: float = float("-inf")
    log_likelihoods: list = field(default_factory=list)  # one per iteration
    # source word -> best_target's answer, filled as words are decoded
    _best: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def translate(self, source_lines):
        return translate(self, source_lines)


def _cells(bitext):
    """Give every co-occurring (source word, candidate target) pair a cell id.

    Returns (rows, spans, segments). rows maps each source word to
    {candidate: cell id}; both levels are in first-seen order. Each row's ids
    are consecutive, and spans holds its (first, end) ids. segments holds,
    for every source token in corpus order, the cell ids of its sentence's
    candidates: the target words, then the null target.
    """
    rows = {}
    for src, tgt in bitext:
        candidates = tgt + [NULL_TOKEN]
        for f in src:
            row = rows.get(f)
            if row is None:
                row = rows[f] = {}
            for e in candidates:
                row.setdefault(e, len(row))
    spans = []
    first = 0
    for row in rows.values():
        for e in row:
            row[e] += first
        spans.append((first, first + len(row)))
        first += len(row)
    segments = []
    for src, tgt in bitext:
        candidates = tgt + [NULL_TOKEN]
        for f in src:
            row = rows[f]
            segments.append([row[e] for e in candidates])
    return rows, spans, segments


def train_em(corpus, iterations: int) -> LexiconModel:
    """Train t(e|f) on a parallel corpus for a fixed number of EM iterations.

    t and the expected counts are flat tables indexed by cell id. z and each
    row total come from builtin sum() over values in candidate order and in
    first-seen order; counts and the log-likelihood grow by += in corpus
    order. Keep each as it is: Python 3.12 made float sum() compensated, so
    trading a sum() for a += loop or math.fsum, or the reverse, moves low
    bits of t and can flip the exact ties that best_target breaks.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("cannot train on an empty corpus")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    bitext = [(tokenize(p.source), tokenize(p.target)) for p in corpus.pairs]
    target_vocab = {e for _, tgt in bitext for e in tgt}
    rows, spans, segments = _cells(bitext)
    del bitext  # the token lists are not needed past this point
    n_cells = spans[-1][1]

    uniform = 1.0 / (len(target_vocab) + 1)  # +1 for the null target
    t = [uniform] * n_cells

    sizes = [len(cells) for cells in segments]
    log = math.log
    log_likelihoods = []
    for _ in range(iterations):
        counts = array("d", [0.0]) * n_cells
        log_likelihood = 0.0
        for cells, size in zip(segments, sizes):
            z = sum(map(t.__getitem__, cells))
            log_likelihood += log(z / size)
            for c in cells:
                counts[c] += t[c] / z
        for first, end in spans:
            row_counts = counts[first:end]
            total = sum(row_counts)
            t[first:end] = [n / total for n in row_counts]
        log_likelihoods.append(log_likelihood)

    for row in rows.values():  # cell ids become probabilities in place
        for e, c in row.items():
            row[e] = t[c]
    return LexiconModel(
        t=rows,
        source_vocab=set(rows),
        target_vocab=target_vocab,
        iterations_run=iterations,
        final_log_likelihood=log_likelihoods[-1],
        log_likelihoods=log_likelihoods,
    )


def best_target(model: LexiconModel, f: str):
    """Argmax of t(.|f); ties break lexicographically among real words.

    The null target is a candidate in every sentence, so it frequently ends
    up exactly tied with a word's true translation; it only wins the argmax
    when strictly more probable. Returns None when f is unseen. The answer
    is computed once per source word and kept on the model.
    """
    cache = model._best
    if f not in cache:
        dist = model.t.get(f)
        cache[f] = (
            min(dist, key=lambda e: (-dist[e], e == model.null_token, e))
            if dist else None
        )
    return cache[f]


def translate(model: LexiconModel, source_lines):
    """Map each token to its argmax target; drop null emissions, copy OOV through."""
    out = []
    for line in source_lines:
        words = []
        for f in tokenize(line):
            e = best_target(model, f)
            if e is None:
                words.append(f)  # out-of-vocabulary: copy through
            elif e != model.null_token:
                words.append(e)
        out.append(" ".join(words))
    return out


@dataclass
class Fit:
    """What run_experiment's caller keeps of one fitted model."""

    lexicon: str  # the lexicon-v1 text that save_model writes
    log_likelihoods: list  # one per iteration


def _fit(label, corpus, iterations, eval_sets):
    """Train one model, score it on every eval set and render its lexicon.

    Returns (Fit, the model's one-row EvalMatrix).
    """
    model = train_em(corpus, iterations)
    row = cross_evaluate({label: model.translate}, eval_sets)
    return Fit(lexicon_text(model), model.log_likelihoods), row


def _fit_in_worker(sender, job):
    """Forked worker body: fit Aug and send (Fit, row), or the exception."""
    try:
        outcome = _fit("Aug", *job)
    except Exception as exc:  # the caller raises it
        outcome = exc
    sender.send(outcome)


def _use_worker() -> bool:
    """True when a forked worker can fit Aug on a CPU of its own; False with
    one CPU, or on a platform that cannot fork."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cpus = os.cpu_count() or 1
    return cpus > 1


def run_experiment(
    nat_train,
    syn_train,
    nat_valid,
    test,
    iterations: int,
    syn_valid=None,
):
    """Fit Nat / Synth / Aug lexicon models and cross-evaluate them.

    Aug trains on the concatenation of both training corpora. Each model is
    trained, scored on every provided eval set and rendered as lexicon-v1
    text. A forked worker fits Aug while the caller fits Nat and then Synth:
    the E-step's cost is additive over sentences, so the two sides take
    about as long. With one CPU, or no fork, the caller fits all three.
    Returns ({label: Fit}, EvalMatrix) once every fit has returned. Raises
    ConfigError when a pair id is in two of the input corpora, and
    CorpusForgeError when the worker dies.
    """
    seen, shared = set(), set()
    for corpus in filter(None, (nat_train, syn_train, nat_valid, test, syn_valid)):
        ids = {p.id for p in corpus.pairs}
        shared |= seen & ids
        seen |= ids
    if shared:
        raise ConfigError(f"input corpora share pair ids: {sorted(shared)[:5]}...")

    aug_pairs = list(nat_train.pairs) + list(syn_train.pairs)
    aug = ParallelCorpus(aug_pairs, nat_train.source_lang, nat_train.target_lang)
    eval_sets = {}
    if syn_valid is not None:
        eval_sets["Synth-val"] = (syn_valid.source_lines(), syn_valid.target_lines())
    eval_sets["Nat-val"] = (nat_valid.source_lines(), nat_valid.target_lines())
    eval_sets["Test"] = (test.source_lines(), test.target_lines())
    jobs = {label: (corpus, iterations, eval_sets)
            for label, corpus in (("Nat", nat_train), ("Synth", syn_train),
                                  ("Aug", aug))}

    if not _use_worker():
        results = {label: _fit(label, *job) for label, job in jobs.items()}
    else:
        import multiprocessing

        fork = multiprocessing.get_context("fork")
        receiver, sender = fork.Pipe(duplex=False)
        # the worker inherits the corpora instead of receiving them pickled
        worker = fork.Process(target=_fit_in_worker, args=(sender, jobs["Aug"]))
        worker.start()
        sender.close()  # the worker holds the only sender: EOF means it died
        try:
            results = {label: _fit(label, *jobs[label]) for label in ("Nat", "Synth")}
            try:
                outcome = receiver.recv()
            except EOFError:
                raise CorpusForgeError(
                    "a worker process died while fitting Aug"
                ) from None
        except BaseException:
            worker.kill()
            raise
        finally:
            receiver.close()
            worker.join()
        if isinstance(outcome, Exception):
            raise outcome
        results["Aug"] = outcome

    rows = [row for _, row in results.values()]
    matrix = EvalMatrix(
        rows=list(jobs),
        columns=list(eval_sets),
        cells={key: v for row in rows for key, v in row.cells.items()},
        failures={key: v for row in rows for key, v in row.failures.items()},
    )
    return {label: fit for label, (fit, _) in results.items()}, matrix


def lexicon_text(model: LexiconModel) -> str:
    """lexicon-v1: a one-line header, then sorted f<TAB>e<TAB>prob lines."""
    rows = [f"lexicon-v1 iterations={model.iterations_run}\n"]
    for f in sorted(model.t):
        dist = model.t[f]
        rows.append("".join([f"{f}\t{e}\t{dist[e]:.12g}\n" for e in sorted(dist)]))
    return "".join(rows)


def save_model(model: LexiconModel, path) -> None:
    """Write model's lexicon_text to path, atomically."""
    text = lexicon_text(model)
    with open_atomic(path) as fh:
        fh.write(text)
