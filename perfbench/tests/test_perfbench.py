"""Tests of the benchmark itself, at toy size.

Run from the root of the checkout: python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+)$")


def _run(capsys, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                     "--trace", str(trace), "--size", "toy"])
    lines = capsys.readouterr().out.splitlines()
    return code, lines


@pytest.fixture(scope="module")
def runs():
    """(workload, trace, repeat) -> (exit code, stdout lines, measure result)."""
    return {}


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _cached(runs, capsys, workload, trace, repeat=0):
    key = (workload, trace, repeat)
    if key not in runs:
        runs[key] = _run(capsys, workload, trace)
    return runs[key]


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(runs, capsys, workload, trace):
    code, lines = _cached(runs, capsys, workload, trace)
    assert code == 0
    printed = {m.group(1): m.group(3) for m in map(METRIC_LINE.match, lines) if m}
    expected = run.PER_LAYER if trace else run.END_TO_END + run.REPORTED[workload]
    assert printed == dict(expected)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    gated = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(gated)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_digests_traced_or_not(runs, capsys, workload):
    digests = []
    for trace, repeat in ((0, 0), (0, 1), (1, 0)):
        _, lines = _cached(runs, capsys, workload, trace, repeat)
        digests.append([line for line in lines if line.startswith("digest ")])
    assert digests[0]
    assert digests[0] == digests[1] == digests[2]


def test_layers_reached_by_each_workload_are_nonzero(runs, capsys):
    def layers(workload):
        _, lines = _cached(runs, capsys, workload, 1)
        return {m.group(1): float(m.group(2))
                for m in map(METRIC_LINE.match, lines) if m}

    generate, http = layers("generate"), layers("generate-http")
    subword, study = layers("subword"), layers("study")
    assert generate["gateway.mock.complete_s"] > 0
    assert generate["gateway.http.attempts"] == 0
    assert http["gateway.http.attempts"] > http["gateway.requests"] > 0
    assert http["gateway.http.status_429"] > 0 and http["gateway.http.status_5xx"] > 0
    assert subword["bpe.merges"] > 0 and subword["bpe.encode_s"] > 0
    assert study["em.train_s"] > 0 and study["metrics.bleu_s"] > 0
    assert study["cli.analyze_s"] > 0 and study["bpe.train_s"] == 0


def _measured(workload, tmp_path):
    out = run.measure(workload, 5, 0.1, 0, "toy")
    assert out["correct"], out["problems"]
    job = tmp_path / "job"
    shutil.copytree(out["job_dir"], job)
    check = workloads.WORKLOADS[workload].check
    assert check(out["params"], job, out["stub"])[0] == []
    return out, job, check


def test_corrupted_bpe_output_fails_round_trip(tmp_path):
    out, job, check = _measured("subword", tmp_path)
    encoded = job / "nat-test.bpe.de"
    lines = encoded.read_text(encoding="utf-8").splitlines()
    lines[0] = lines[0].replace("@@ ", "", 1) + "x"
    encoded.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert any("does not decode" in p for p in check(out["params"], job)[0])


def test_out_of_range_bleu_cell_fails(tmp_path):
    out, job, check = _measured("study", tmp_path)
    path = job / "results" / "results.json"
    results = json.loads(path.read_text())
    results["matrix"]["cells"][0]["bleu"] = 101.0
    path.write_text(json.dumps(results))
    assert any("BLEU cell" in p for p in check(out["params"], job)[0])


def test_unbalanced_request_count_fails(tmp_path):
    out, job, check = _measured("generate", tmp_path)
    path = job / "run" / "reports" / "report.json"
    report = json.loads(path.read_text())
    report["translation_failures"] += 1
    path.write_text(json.dumps(report))
    problems = check(out["params"], job)[0]
    assert any(p.startswith("requests ") for p in problems)


def test_stub_count_mismatch_and_unknown_failures_fail(tmp_path):
    out, job, check = _measured("generate-http", tmp_path)
    stub = dict(out["stub"], succeeded=out["stub"]["succeeded"] - 1,
                failed_by_fault={"503": 1})
    problems = check(out["params"], job, stub)[0]
    assert any("stub saw" in p for p in problems)
    assert any("should have succeeded" in p for p in problems)


def test_self_time_subtracts_union_of_children():
    spans = [
        (1, "a.x", 0.0, 10.0, None),
        (2, "b.y", 1.0, 4.0, 1),  # two pool threads: overlapping children
        (3, "b.y", 2.0, 6.0, 1),
        (4, "c.z", 2.5, 3.0, 3),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 5.0, 2: 3.0, 3: 3.5, 4: 0.5}


def test_fails_without_result_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "generate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
