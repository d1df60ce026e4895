"""A command loads only the libraries it runs.

Each check runs in a fresh interpreter and compares its sys.modules with
what that interpreter held before corpus_forge was imported, so modules an
installation preloads at start-up (through .pth files) do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import make_experiment_fixture
from corpus_forge import bpe
from corpus_forge.corpus import write_jsonl

ROOT = Path(__file__).resolve().parent.parent

# loaded only by the commands that need them: the HTTP stack by --backend
# http, yaml by --config and --set, OpenSSL hashing by the mock backend's
# seed lists, multiprocessing by experiment
BUDGET = ("requests", "urllib3", "ssl", "yaml", "_hashlib", "email.utils",
          "multiprocessing")

CHILD = """
import json, sys
before = set(sys.modules)
from corpus_forge import cli
for argv in json.loads(sys.argv[1]):
    cli.main.main(args=argv, prog_name="corpus-forge", standalone_mode=False)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def modules_added(commands, cwd):
    """Names of the modules importing corpus_forge.cli and running commands adds."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)],
        cwd=cwd, env=env, capture_output=True, encoding="utf-8", timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_none_of_the_budget(tmp_path):
    added = modules_added([], tmp_path)
    assert "corpus_forge.cli" in added
    assert sorted(added.intersection(BUDGET)) == []


def test_offline_commands_load_neither_requests_nor_yaml(tmp_path):
    fixture = make_experiment_fixture()
    corpus_path = tmp_path / "nat.jsonl"
    write_jsonl(fixture["nat_train"], corpus_path)
    model_path = tmp_path / "model.bpe"
    bpe.save_model(bpe.train_bpe([fixture["nat_train"]], 80), model_path)
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
    assert sorted(added & {"requests", "yaml"}) == []


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
    assert "requests" not in added
