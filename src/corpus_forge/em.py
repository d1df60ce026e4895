"""Word-lexicon baseline translator trained by expectation-maximization.

The model holds t(e|f): for each source word f, a probability distribution
over target words e (plus a reserved null target meaning "emit nothing").
Training is classic lexical EM: each source token spreads one expected count
over its sentence's candidates, then each row t(.|f) is renormalized. No row
reads another, so the trainer fits one source word's row at a time through
every iteration. Each finished row's lexicon-v1 lines go straight to the
stream the caller gives, and a fitted model is its argmax table, each
source word's most probable target; decoding is positional argmax. The
iteration count is fixed, so no stopping rule reads a log-likelihood, and
none is computed; the tests check through the oracle that EM never lowers
it.
"""

import os

from .corpus import ParallelCorpus, open_atomic, tokenize
from .errors import CorpusForgeError, EmptyCorpus
from .metrics import cross_evaluate

NULL_TOKEN = "<null>"
LABELS = ("Nat", "Synth", "Aug")  # run_experiment's models, in fitting order


def fit_rows(corpus, iterations: int):
    """Fit t(e|f) on a parallel corpus for a fixed number of EM iterations.

    Each row t(.|f) is its own EM problem: a token of f reads and writes
    only row f, and the M-step normalizes each row alone. So the rows are
    fitted one after another in sorted source-word order, each through every
    iteration, from the tokens of f in corpus order; each finished row is
    yielded as (f, dist), dist a {target word: probability} dict in
    first-seen order. Every float sum is a left-to-right += in a stated
    order: z in candidate order, each row total in first-seen order, and
    counts in corpus order. An empty corpus, or iterations < 1, raises at
    the first next(), before any row.
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

    for f in sorted(tokens):
        ids = {}  # candidate -> its index in the row, in first-seen order
        segments = [[ids.setdefault(e, len(ids)) for e in candidates]
                    for candidates in tokens.pop(f)]
        row = [uniform] * len(ids)
        for _ in range(iterations):
            counts = [0.0] * len(ids)
            for cells in segments:
                z = 0.0
                for c in cells:
                    z += row[c]
                for c in cells:
                    counts[c] += row[c] / z
            total = 0.0
            for n in counts:
                total += n
            row = [n / total for n in counts]
        yield f, dict(zip(ids, row))


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


def train_em(corpus, iterations: int, out) -> dict:
    """Fit t(e|f) with fit_rows, writing its lexicon-v1 text to the text
    stream out as the rows are fitted: a one-line header, then
    f<TAB>e<TAB>prob lines sorted by f, then e. Returns the argmax table,
    {source word: its row's argmax target}, in sorted source-word order."""
    out.write(f"lexicon-v1 iterations={iterations}\n")
    best = {}
    for f, dist in fit_rows(corpus, iterations):
        text, best[f] = render_row(f, dist)
        out.write(text)
    return best


def translate(best: dict, source_lines):
    """Each line's output tokens: each token mapped to its argmax target in
    best, train_em's table, with null emissions dropped and OOV tokens
    copied through. A line whose every token emits null gives no tokens."""
    out = []
    for line in source_lines:
        words = []
        for f in tokenize(line):
            e = best.get(f)
            if e is None:
                words.append(f)  # out-of-vocabulary: copy through
            elif e != NULL_TOKEN:
                words.append(e)
        out.append(words)
    return out


def _fit(corpus, iterations, eval_sets, out):
    """Train one model, writing its lexicon to out, and score it on every
    eval set: returns its row of scores, {eval set: BLEU}. The argmax table
    is dropped on return."""
    best = train_em(corpus, iterations, out)
    return cross_evaluate(lambda lines: translate(best, lines), eval_sets)


def _fit_in_worker(sender, job):
    """Forked worker body: fit Aug into its lexicon file, close the worker's
    handle on it, and send Aug's row of scores, or the exception. The
    worker ends in os._exit, which flushes no Python buffer, so the close is
    what puts the last rows on disk."""
    try:
        with job[-1]:  # the lexicon file
            outcome = _fit(*job)
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
    fork, the caller fits all three. Each argmax table lives only while its
    model is scored, and the worker sends back only its row of scores.
    Returns {model: {eval set: BLEU}} in LABELS order once every fit returns.
    An exception in any fit ends the call: raised in the caller, it kills the
    worker; raised in the worker, the caller raises it. Raises
    CorpusForgeError when the worker dies. It checks no pair id: experiment
    reads the corpora with one read_jsonl id map, which refuses an id in two
    of them.
    """
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
        return {label: _fit(*job) for label, job in jobs.items()}
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    receiver, sender = fork.Pipe(duplex=False)
    # the worker inherits the corpora instead of receiving them pickled
    worker = fork.Process(target=_fit_in_worker, args=(sender, jobs["Aug"]))
    worker.start()
    sender.close()  # the worker holds the only sender: EOF means it died
    try:
        rows = {label: _fit(*jobs[label]) for label in ("Nat", "Synth")}
        try:
            outcome = receiver.recv()
        except EOFError:
            raise CorpusForgeError("a worker process died while fitting Aug") from None
    except BaseException:
        worker.kill()
        raise
    finally:
        receiver.close()
        worker.join()
    if isinstance(outcome, Exception):
        raise outcome
    return {**rows, "Aug": outcome}


def save_model(corpus, iterations: int, path) -> dict:
    """train_em on corpus, writing its lexicon-v1 text to path, atomically;
    returns train_em's argmax table.

    No command calls it: the benchmark's tracer patches it by name, so it
    stays until the tracer stops doing so."""
    with open_atomic(path) as fh:
        return train_em(corpus, iterations, fh)
