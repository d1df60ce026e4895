"""Word-lexicon baseline translator trained by expectation-maximization.

The model holds t(e|f): for each source word f, a probability distribution
over target words e (plus a reserved null target meaning "emit nothing").
Training is classic lexical EM: each source token spreads one expected count
over its sentence's candidates, then each row t(.|f) is renormalized. No row
reads another, so the trainer fits one source word's row at a time through
every iteration, and adds each iteration's log-likelihood row by row.
Each finished row's lexicon-v1 lines go straight to the stream the caller
gives, and a fitted model keeps of each row only its argmax; decoding is
positional argmax.
"""

import math
import os
from dataclasses import dataclass

from .corpus import ParallelCorpus, open_atomic, tokenize
from .errors import ConfigError, CorpusForgeError, EmptyCorpus
from .metrics import EvalMatrix, cross_evaluate

NULL_TOKEN = "<null>"
LABELS = ("Nat", "Synth", "Aug")  # run_experiment's models, in fitting order


@dataclass
class LexiconModel:
    best: dict  # source word -> the argmax target of its row (render_row)
    log_likelihoods: list  # one per iteration


def fit_rows(corpus, iterations: int, keep) -> list:
    """Fit t(e|f) on a parallel corpus for a fixed number of EM iterations.

    Each row t(.|f) is its own EM problem: a token of f reads and writes
    only row f, and the M-step normalizes each row alone. So the rows are
    fitted one after another in sorted source-word order, each through every
    iteration, from the tokens of f in corpus order; keep(f, dist) receives
    each finished row, a {target word: probability} dict in first-seen
    order. Every float sum is a left-to-right += in a stated order: z in
    candidate order, each row total in first-seen order, counts and each
    row's log-likelihood in corpus order, and each iteration's
    log-likelihood over the rows in sorted source-word order. Returns the
    log-likelihoods, one per iteration.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("cannot train on an empty corpus")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    tokens = {}  # source word -> its tokens' candidate lists, in corpus order
    targets = set()
    for p in corpus.pairs:
        tgt = tokenize(p.target)
        targets.update(tgt)
        candidates = tgt + [NULL_TOKEN]  # shared by the sentence's tokens
        for f in tokenize(p.source):
            tokens.setdefault(f, []).append(candidates)
    uniform = 1.0 / (len(targets) + 1)  # + the null target

    log = math.log
    log_likelihoods = [0.0] * iterations
    for f in sorted(tokens):
        ids = {}  # candidate -> its index in the row, in first-seen order
        segments = [[ids.setdefault(e, len(ids)) for e in candidates]
                    for candidates in tokens.pop(f)]
        row = [uniform] * len(ids)
        for i in range(iterations):
            counts = [0.0] * len(ids)
            log_likelihood = 0.0
            for cells in segments:
                z = 0.0
                for c in cells:
                    z += row[c]
                log_likelihood += log(z / len(cells))
                for c in cells:
                    counts[c] += row[c] / z
            log_likelihoods[i] += log_likelihood
            total = 0.0
            for n in counts:
                total += n
            row = [n / total for n in counts]
        keep(f, dict(zip(ids, row)))
    return log_likelihoods


def render_row(f: str, dist: dict):
    """Row f's lexicon-v1 lines, sorted by target word, and its argmax.

    The argmax breaks ties lexicographically among real words. The null
    target is a candidate in every sentence, so it frequently ends up
    exactly tied with a word's true translation; it only wins when strictly
    more probable.
    """
    targets = sorted(dist)
    top = max(dist.values())
    best = next((e for e in targets if dist[e] == top and e != NULL_TOKEN),
                NULL_TOKEN)
    return "".join([f"{f}\t{e}\t{dist[e]:.12g}\n" for e in targets]), best


def train_em(corpus, iterations: int, out) -> LexiconModel:
    """Fit t(e|f) with fit_rows, writing its lexicon-v1 text to the text
    stream out as the rows are fitted: a one-line header, then
    f<TAB>e<TAB>prob lines sorted by f, then e. The model keeps of each row
    its argmax alone."""
    out.write(f"lexicon-v1 iterations={iterations}\n")
    best = {}

    def keep(f, dist):
        text, best[f] = render_row(f, dist)
        out.write(text)

    return LexiconModel(best, fit_rows(corpus, iterations, keep))


def translate(model: LexiconModel, source_lines):
    """Map each token to its argmax target; drop null emissions, copy OOV through."""
    out = []
    for line in source_lines:
        words = []
        for f in tokenize(line):
            e = model.best.get(f)
            if e is None:
                words.append(f)  # out-of-vocabulary: copy through
            elif e != NULL_TOKEN:
                words.append(e)
        out.append(" ".join(words))
    return out


def _fit(label, corpus, iterations, eval_sets, out):
    """Train one model, writing its lexicon to out, and score it on every
    eval set: returns (LexiconModel, the model's one-row EvalMatrix)."""
    model = train_em(corpus, iterations, out)
    row = cross_evaluate({label: lambda lines: translate(model, lines)}, eval_sets)
    return model, row


def _fit_in_worker(sender, job):
    """Forked worker body: fit Aug into its lexicon file, close the worker's
    handle on it, and send (LexiconModel, row), or the exception. The worker
    ends in os._exit, which flushes no Python buffer, so the close is what
    puts the last rows on disk."""
    try:
        with job[-1]:  # the lexicon file
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
    *,
    lexicons,
):
    """Fit Nat / Synth / Aug lexicon models and cross-evaluate them.

    Aug trains on the concatenation of both training corpora. Each model is
    trained and scored on every provided eval set, and writes its lexicon to
    lexicons[label], a text file opened for writing and not yet written to.
    A forked worker fits Aug, writing to its own handle on Aug's file, while
    the caller fits Nat and then Synth: the E-step's cost is additive over
    sentences, so the two sides take about as long. With one CPU, or no
    fork, the caller fits all three. Returns ({label: LexiconModel},
    EvalMatrix) once every fit has returned. Raises ConfigError when a pair
    id is in two of the input corpora, and CorpusForgeError when the worker
    dies.
    """
    seen, shared = set(), set()
    for corpus in filter(None, (nat_train, syn_train, nat_valid, test, syn_valid)):
        ids = {p.id for p in corpus.pairs}
        shared |= seen & ids
        seen |= ids
    if shared:
        more = "..." if len(shared) > 5 else ""
        raise ConfigError(f"input corpora share pair ids: {sorted(shared)[:5]}{more}")

    aug_pairs = list(nat_train.pairs) + list(syn_train.pairs)
    aug = ParallelCorpus(aug_pairs)
    eval_sets = {}
    if syn_valid is not None:
        eval_sets["Synth-val"] = (syn_valid.source_lines(), syn_valid.target_lines())
    eval_sets["Nat-val"] = (nat_valid.source_lines(), nat_valid.target_lines())
    eval_sets["Test"] = (test.source_lines(), test.target_lines())
    jobs = {label: (corpus, iterations, eval_sets, lexicons[label])
            for label, corpus in zip(LABELS, (nat_train, syn_train, aug))}

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
    return {label: model for label, (model, _) in results.items()}, matrix


def save_model(corpus, iterations: int, path) -> LexiconModel:
    """train_em on corpus, writing its lexicon-v1 text to path, atomically.

    No command calls it: the benchmark's tracer patches it by name, so it
    stays until the tracer stops doing so."""
    with open_atomic(path) as fh:
        return train_em(corpus, iterations, fh)
