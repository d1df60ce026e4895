"""The benchmark workloads: their inputs, CLI steps, output checks and counts.

Each workload writes its inputs with prepare(), names the corpus-forge
subcommands one job runs (paths relative to a fresh job directory), and
checks a finished job directory with check(). A check returns a list of
problems, empty when the outputs are correct, and the job's counts of
backend requests, failed requests and backend calls.
"""

import hashlib
import json
import os
import unicodedata
from pathlib import Path

import inputs

SRC, TGT = "de", "en"

# seed words per job; the mock answers six distinct sentences per seed
GENERATE_SEEDS = {"full": 1000, "toy": 12}
HTTP_SEEDS = {"full": 50, "toy": 12}
# tokens per seed the split thresholds assume: six sentences of >= 4 tokens
MIN_TOKENS_PER_SEED = 24
# HttpBackend settings: backoff small enough that retry sleeps do not dominate
HTTP_RETRIES = 3
HTTP_BACKOFF_S = 0.002
STUB_DELAY_MS = 5.0
# failures the seed code is known to have on generate-http: a permanent 503,
# and an HTTP-date Retry-After that HttpBackend cannot parse
KNOWN_HTTP_FAILURES = {"permanent", "429-date"}

SUBWORD = {
    "full": {"nat_train": 120, "syn_train": 24, "nat_eval": 30, "syn_eval": 5,
             "vocab": 250},
    "toy": {"nat_train": 20, "syn_train": 4, "nat_eval": 4, "syn_eval": 1,
            "vocab": 80},
}
STUDY = {
    "full": {"nat_pairs": 800, "syn_seeds": 160, "iterations": 10,
             "nat": (4000, 800, 800), "syn": (2500, 500)},
    "toy": {"nat_pairs": 60, "syn_seeds": 12, "iterations": 2,
            "nat": (300, 60, 60), "syn": (200, 40)},
}


def nproc():
    return len(os.sched_getaffinity(0))


def tokens(text):
    """The package's token: a whitespace unit after NFC and trimming."""
    return len(normalize(text).split())


def normalize(text):
    return unicodedata.normalize("NFC", text).strip()


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def digests(job_dir):
    """sha256 of every file a job wrote, by path relative to the job directory."""
    job_dir = Path(job_dir)
    return {
        path.relative_to(job_dir).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(job_dir.rglob("*")) if path.is_file()
    }


def check_splits(splits, thresholds):
    """Splits are disjoint by id; each is the first prefix reaching its threshold."""
    problems = []
    seen = {}
    for (name, rows), threshold in zip(splits.items(), thresholds):
        for row in rows:
            if row["id"] in seen:
                problems.append(f"pair {row['id']} is in both {seen[row['id']]} "
                                f"and {name}")
            seen[row["id"]] = name
        total = sum(tokens(row["src"]) for row in rows)
        if total < threshold:
            problems.append(f"{name} has {total} source tokens, below {threshold}")
        elif rows and total - tokens(rows[-1]["src"]) >= threshold:
            problems.append(f"{name} overshoots: threshold {threshold} is reached "
                            "before its last pair")
    return problems


def _config(path, mapping):
    # JSON is valid YAML, and it quotes paths and URLs safely
    Path(path).write_text(json.dumps(mapping, indent=2) + "\n", encoding="utf-8")


class Generate:
    """hallucinate on the mock backend, from pre-written seed words."""

    name = "generate"
    backend = "mock"
    seeds_by_size = GENERATE_SEEDS
    uses_stub = False

    def http_section(self, stub_url):
        return {"max_in_flight": nproc()}

    def busy_callers(self):
        """Callers that keep the processor busy: all of them on the mock."""
        return nproc()

    def prepare(self, seed, size, inputs_dir, stub_url=None):
        n = self.seeds_by_size[size]
        seeds_path = inputs_dir / "seeds.json"
        seeds_path.write_text(
            json.dumps(inputs.seed_words(seed, n), ensure_ascii=False, indent=2) + "\n",
            encoding="utf-8")
        thresholds = (n * MIN_TOKENS_PER_SEED // 2, n * MIN_TOKENS_PER_SEED // 6)
        config = inputs_dir / "run.yaml"
        _config(config, {
            "backend": self.backend,
            "mock_seed": seed,
            "rng_seed": seed,
            "http": self.http_section(stub_url),
            "plan": {"n_nouns": n // 2, "n_verbs": n - n // 2,
                     "sentences_per_seed": 100},
            "splits": {"train_token_threshold": thresholds[0],
                       "valid_token_threshold": thresholds[1]},
            "paths": {"run_root": "."},
        })
        return {
            "steps": [["hallucinate", "--config", str(config),
                       "--backend", self.backend, "--run-id", "run"]],
            "copy": [[str(seeds_path), "run/checkpoints/seeds.json"]],
            "thresholds": thresholds,
            "callers": self.busy_callers(),
        }

    def check(self, params, job_dir, stub_stats=None):
        """Funnel and request balance of one hallucinate run.

        Returns (problems, counts) with counts of backend requests, failed
        requests and backend calls (attempts, retries included).
        """
        run = Path(job_dir) / "run"

        def load(rel):
            return json.loads((run / rel).read_text(encoding="utf-8"))

        report = load("reports/report.json")
        seeds = load("checkpoints/seeds.json")
        sentences = load("checkpoints/sentences.json")
        translations = load("checkpoints/translations.json")
        splits = {name: read_rows(run / "corpora" / f"{name}.jsonl")
                  for name in ("train", "valid")}
        problems = []

        seeds_answered = len({r["seed"] for r in sentences})
        requests = len(seeds) + len(sentences)
        succeeded = seeds_answered + len(translations)
        failed = report["sentence_failures"] + report["translation_failures"]
        if requests != succeeded + failed:
            problems.append(f"requests {requests} != succeeded {succeeded} "
                            f"+ failed {failed}")
        funnel = {
            "seeds_parsed": len(seeds),
            "sentence_failures": len(seeds) - seeds_answered,
            "sentences_deduplicated": len(sentences),
            "sentences_translated": len(translations),
            "translation_failures": len(sentences) - len(translations),
            "pairs_sampled": sum(len(rows) for rows in splits.values()),
        }
        for key, expected in funnel.items():
            if report.get(key) != expected:
                problems.append(f"report.json {key}={report.get(key)}, "
                                f"written files give {expected}")
        if report["sentences_parsed"] < report["sentences_deduplicated"]:
            problems.append("report.json keeps more sentences than it parsed")

        by_id = {t["id"]: (t["src"], t["tgt"], t["seed_word"]) for t in translations}
        for rows in splits.values():
            for row in rows:
                if by_id.get(row["id"]) != (row["src"], row["tgt"], row["seed_word"]):
                    problems.append(f"corpus pair {row['id']} does not match "
                                    "translations.json")
                    break
        problems += check_splits(splits, params["thresholds"])

        counts = {"requests": requests, "failed": failed, "backend_calls": requests}
        if stub_stats is None:
            if failed:
                problems.append(f"{failed} requests failed on the mock backend")
        else:
            counts["backend_calls"] = stub_stats["attempts"]
            for key, ours in (("requests", requests), ("succeeded", succeeded),
                              ("failed", failed)):
                if stub_stats[key] != ours:
                    problems.append(f"stub saw {stub_stats[key]} {key}, "
                                    f"the run directory gives {ours}")
            unknown = set(stub_stats["failed_by_fault"]) - KNOWN_HTTP_FAILURES
            if unknown:
                problems.append(f"requests failed that should have succeeded: "
                                f"{stub_stats['failed_by_fault']}")
        return problems, counts


class GenerateHttp(Generate):
    """The same pipeline through HttpBackend against the loopback stub."""

    name = "generate-http"
    backend = "http"
    seeds_by_size = HTTP_SEEDS
    uses_stub = True

    def busy_callers(self):
        """The callers mostly wait on the stub: about one processor's work."""
        return 1

    def http_section(self, stub_url):
        return {
            "endpoint_url": stub_url,
            "api_key_source": "PERFBENCH_API_KEY",
            "max_in_flight": nproc(),
            "max_retries": HTTP_RETRIES,
            "backoff_base": HTTP_BACKOFF_S,
            "timeout": 30.0,
        }


class Subword:
    """Joint bpe-train on Aug train, then bpe-apply to valid and test files."""

    name = "subword"
    uses_stub = False

    def prepare(self, seed, size, inputs_dir, stub_url=None):
        sizes = SUBWORD[size]
        words = inputs.lexicon(seed)
        inputs.write_jsonl(
            inputs.natural_rows(words, seed, sizes["nat_train"], "nat-train"),
            inputs_dir / "nat-train.jsonl")
        inputs.write_jsonl(
            inputs.synthetic_rows(words, seed, sizes["syn_train"], "syn-train"),
            inputs_dir / "syn-train.jsonl")
        evals = {
            f"{origin}-{part}": make(words, seed, sizes[f"{origin}_eval"],
                                     f"{origin}-{part}")
            for origin, make in (("nat", inputs.natural_rows),
                                 ("syn", inputs.synthetic_rows))
            for part in ("valid", "test")
        }
        steps = [["bpe-train", "--input", str(inputs_dir / "nat-train.jsonl"),
                  "--input", str(inputs_dir / "syn-train.jsonl"),
                  "--src", SRC, "--tgt", TGT, "--vocab-size", str(sizes["vocab"]),
                  "--out", "model.bpe"]]
        texts = []
        for stem, rows in evals.items():
            for lang, field in ((SRC, "src"), (TGT, "tgt")):
                text = inputs_dir / f"{stem}.{lang}"
                inputs.write_lines([row[field] for row in rows], text)
                texts.append([str(text), f"{stem}.bpe.{lang}"])
                steps.append(["bpe-apply", "--model", "model.bpe",
                              "--input", str(text), "--output", f"{stem}.bpe.{lang}"])
        return {"steps": steps, "copy": [], "texts": texts, "vocab": sizes["vocab"],
                "callers": 1}

    def check(self, params, job_dir, stub_stats=None):
        """BPE model header and the round trip decode(encode(x)) == normalize(x)."""
        job_dir = Path(job_dir)
        problems = []
        with open(job_dir / "model.bpe", encoding="utf-8") as fh:
            header = fh.readline().split()
            merges = [line.rstrip("\n").split(" ") for line in fh if line.strip()]
        if header != ["bpe-v1", str(params["vocab"])]:
            problems.append(f"model.bpe header is {header}")
        if not merges or any(len(m) != 2 for m in merges):
            problems.append("model.bpe has no merges or a malformed merge line")
        for source, encoded in params["texts"]:
            original = Path(source).read_text(encoding="utf-8").splitlines()
            output = (job_dir / encoded).read_text(encoding="utf-8").splitlines()
            if len(original) != len(output):
                problems.append(f"{encoded} has {len(output)} lines, "
                                f"its input {len(original)}")
                continue
            for lineno, (x, y) in enumerate(zip(original, output), 1):
                if y.replace("@@ ", "") != normalize(x):
                    problems.append(f"{encoded}:{lineno} does not decode to its input")
                    break
        return problems, {"requests": 0, "failed": 0, "backend_calls": 0}


class Study:
    """sample, experiment (EM for Nat/Synth/Aug, BLEU matrix), analyze."""

    name = "study"
    uses_stub = False
    MODELS = ("Nat", "Synth", "Aug")
    EVAL_SETS = ("Synth-val", "Nat-val", "Test")

    def prepare(self, seed, size, inputs_dir, stub_url=None):
        sizes = STUDY[size]
        nat, syn = inputs_dir / "nat.jsonl", inputs_dir / "syn.jsonl"
        words = inputs.lexicon(seed)
        inputs.write_jsonl(
            inputs.natural_rows(words, seed, sizes["nat_pairs"], "nat"), nat)
        inputs.write_jsonl(
            inputs.synthetic_rows(words, seed, sizes["syn_seeds"], "syn"), syn)
        config = inputs_dir / "run.yaml"
        _config(config, {"em": {"iterations": sizes["iterations"]}})
        lang = ["--src", SRC, "--tgt", TGT]
        n_train, n_valid, n_test = sizes["nat"]
        s_train, s_valid = sizes["syn"]
        steps = [
            ["sample", "--input", str(nat), *lang, "--train-tokens", str(n_train),
             "--valid-tokens", str(n_valid), "--test-tokens", str(n_test),
             "--rng-seed", str(seed), "--out-dir", "nat"],
            ["sample", "--input", str(syn), *lang, "--train-tokens", str(s_train),
             "--valid-tokens", str(s_valid), "--rng-seed", str(seed),
             "--out-dir", "syn"],
            ["experiment", "--config", str(config),
             "--nat-train", "nat/train.jsonl", "--syn-train", "syn/train.jsonl",
             "--nat-valid", "nat/valid.jsonl", "--syn-valid", "syn/valid.jsonl",
             "--test", "nat/test.jsonl", *lang, "--out-dir", "results"],
            ["analyze", "--input", str(nat), "--input", str(syn), *lang,
             "--out-dir", "analysis"],
        ]
        return {"steps": steps, "copy": [], "iterations": sizes["iterations"],
                "nat": sizes["nat"], "syn": sizes["syn"], "callers": 1}

    def check(self, params, job_dir, stub_stats=None):
        """Disjoint splits at their thresholds; a full BLEU matrix in [0, 100]."""
        job_dir = Path(job_dir)
        splits = {f"{origin}/{name}": read_rows(job_dir / origin / f"{name}.jsonl")
                  for origin, names in (("nat", ("train", "valid", "test")),
                                        ("syn", ("train", "valid")))
                  for name in names}
        problems = check_splits(splits, list(params["nat"]) + list(params["syn"]))
        results = json.loads(
            (job_dir / "results" / "results.json").read_text(encoding="utf-8"))
        if results.get("em_iterations") != params["iterations"]:
            problems.append(
                f"results.json em_iterations={results.get('em_iterations')}")
        matrix = results["matrix"]
        cells = {(c["model"], c["eval_set"]): c["bleu"] for c in matrix["cells"]}
        for model in self.MODELS:
            for eval_set in self.EVAL_SETS:
                bleu = cells.get((model, eval_set))
                if not isinstance(bleu, (int, float)) or not 0.0 <= bleu <= 100.0:
                    problems.append(f"BLEU cell {model}/{eval_set} is {bleu!r}")
        if matrix.get("failures"):
            problems.append(f"BLEU matrix failures: {matrix['failures']}")
        for model in self.MODELS:
            path = job_dir / "results" / "models" / f"{model.lower()}.lexicon"
            header = path.read_text(encoding="utf-8").split("\n", 1)[0]
            if header != f"lexicon-v1 iterations={params['iterations']}":
                problems.append(f"{path.name} header is {header!r}")
        for csv_dir, corpora in (("results", 5), ("analysis", 2)):
            ttr = (job_dir / csv_dir / "ttr.csv").read_text(encoding="utf-8")
            if len(ttr.splitlines()) != 1 + 2 * corpora:
                problems.append(f"{csv_dir}/ttr.csv has {len(ttr.splitlines())} lines")
        counts = {"requests": 0, "failed": 0, "backend_calls": 0,
                  "test_bleu_aug": cells.get(("Aug", "Test"))}
        return problems, counts


WORKLOADS = {w.name: w for w in (Generate(), GenerateHttp(), Subword(), Study())}
