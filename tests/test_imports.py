"""A command loads only the libraries it runs.

Each check runs in a fresh interpreter and compares its sys.modules with
what that interpreter held before corpus_forge was imported, so modules an
installation preloads at start-up (through .pth files) do not count.
"""

import json

from conftest import make_experiment_fixture, run_child
from corpus_forge import bpe
from corpus_forge.corpus import open_atomic, write_jsonl
from corpus_forge.gateway import ChatMessage, ChatRequest, MockBackend
from corpus_forge.prompts import PromptTemplateSet, render

# loaded only by the commands that need them: the HTTP stack by --backend
# http, yaml by --config and --set, OpenSSL hashing by the mock backend's
# seed lists, multiprocessing by experiment
BUDGET = ("requests", "urllib3", "http.client", "ssl", "yaml", "_hashlib",
          "email.utils", "multiprocessing")
# the HTTP stack: requests and urllib3, which no command loads, and
# http.client and ssl, which only --backend http loads
HTTP_STACK = {"requests", "urllib3", "http.client", "ssl"}

CHILD = """
import json, sys
before = set(sys.modules)
from corpus_forge import cli
for argv in json.loads(sys.argv[1]):
    cli.main.main(args=argv, prog_name="corpus-forge", standalone_mode=False)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def last_line(code, args, cwd):
    """The last line that code, run by a fresh interpreter with args, prints."""
    result = run_child(["-c", code, *args], cwd)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


def modules_added(commands, cwd):
    """Names of the modules importing corpus_forge.cli and running commands adds."""
    return set(json.loads(last_line(CHILD, [json.dumps(commands)], cwd)))


def test_importing_the_cli_loads_none_of_the_budget(tmp_path):
    added = modules_added([], tmp_path)
    assert "corpus_forge.cli" in added
    assert sorted(added.intersection(BUDGET)) == []


def test_offline_commands_load_neither_requests_nor_yaml(tmp_path):
    fixture = make_experiment_fixture()
    corpus_path, model_path = tmp_path / "nat.jsonl", tmp_path / "model.bpe"
    with open_atomic(corpus_path, model_path) as (corpus_fh, model_fh):
        write_jsonl(fixture["nat_train"], corpus_fh)
        bpe.save_model(bpe.train_bpe([fixture["nat_train"]], 80), model_fh)
    (tmp_path / "in.txt").write_text("quell1 quell2\n", encoding="utf-8")
    added = modules_added([
        ["sample", "--input", str(corpus_path), "--src", "de", "--tgt", "en",
         "--train-tokens", "100", "--valid-tokens", "40", "--rng-seed", "1",
         "--out-dir", "splits"],
        ["bpe-apply", "--model", str(model_path), "--input", "in.txt",
         "--output", "out.txt"],
    ], tmp_path)
    assert (tmp_path / "splits" / "train.jsonl").exists()
    assert (tmp_path / "out.txt").exists()
    assert sorted(added & (HTTP_STACK | {"yaml"})) == []


def test_a_configured_mock_run_loads_yaml_but_not_requests(tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(
        "plan:\n  n_nouns: 5\n  n_verbs: 5\n  sentences_per_seed: 4\n"
        "splits:\n  train_token_threshold: 60\n  valid_token_threshold: 20\n",
        encoding="utf-8",
    )
    added = modules_added([
        ["hallucinate", "--backend", "mock", "--config", str(config),
         "--run-id", "r1"],
    ], tmp_path)
    assert (tmp_path / "runs" / "r1" / "corpora" / "train.jsonl").exists()
    assert "yaml" in added
    assert sorted(added & HTTP_STACK) == []


def test_an_http_run_loads_neither_requests_nor_urllib3(tmp_path, chat_server):
    added = modules_added([
        ["hallucinate", "--backend", "http", "--run-id", "r1",
         "--set", f"http.endpoint_url={chat_server.url}",
         "--set", "plan.n_nouns=5", "--set", "plan.n_verbs=5",
         "--set", "plan.sentences_per_seed=4",
         "--set", "splits.train_token_threshold=60",
         "--set", "splits.valid_token_threshold=20"],
    ], tmp_path)
    assert (tmp_path / "runs" / "r1" / "corpora" / "train.jsonl").exists()
    assert len(chat_server.received) == 52
    assert "http.client" in added
    assert sorted(added & {"requests", "urllib3"}) == []


def test_a_request_completes_without_requests_installed(tmp_path, chat_server):
    code = """
import sys
sys.modules["requests"] = None  # so that importing it raises ImportError
from corpus_forge.gateway import BackendConfig, ChatMessage, ChatRequest, HttpBackend
backend = HttpBackend(BackendConfig(endpoint_url=sys.argv[1]))
print(backend.complete(ChatRequest((ChatMessage("system", sys.argv[2]),))))
backend.close()
"""
    system = render(PromptTemplateSet.defaults().seed_nouns_system, n=3)
    answer = last_line(code, [chat_server.url, system], tmp_path)
    assert answer == MockBackend().complete(
        ChatRequest((ChatMessage("system", system),)))
