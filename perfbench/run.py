"""corpus-forge benchmark: one workload, one seed, one measurement run.

Run from the root of a corpus-forge checkout:

    python3 perfbench/run.py --workload generate --seed 1 --seconds 15 --trace 0

Workloads: generate, generate-http, subword, study (see README.md). The run
generates the workload's inputs from --seed and starts a job process (and,
for generate-http, the loopback stub) SETUPS times; each job process
repeats the workload's job for its share of --seconds. It checks the outputs of every
job, prints each metric as "metric <name> <value> <unit>" and the sha256
of every artifact as "digest <path> <sha256>", and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced jobs and
reports the per-layer metrics. The exit code is 0 when the outputs are
correct, 1 when a check failed, 2 when the run could not be made.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUPS = 4
STARTUP_TIMEOUT_S = 30
# a run ends within --seconds plus this, or fails without a result
OVERRUN_S = 100

# end-to-end metrics in the result line: each is non-zero on every workload
END_TO_END = [("setup_s", "s"), ("job_rel", "ratio"), ("peak_rss_mb", "MB")]
# printed as metric lines only: zero on some workloads, or (job_s) too
# dependent on how busy a shared machine is to bound a regression with
REPORTED = {
    "generate": [("job_s", "s"), ("req_per_s", "1/s"), ("backend_calls", "count"),
                 ("error_rate", "ratio")],
    "generate-http": [("job_s", "s"), ("req_per_s", "1/s"),
                      ("backend_calls", "count"), ("error_rate", "ratio")],
    "subword": [("job_s", "s"), ("backend_calls", "count"), ("error_rate", "ratio")],
    "study": [("job_s", "s"), ("backend_calls", "count"), ("error_rate", "ratio"),
              ("test_bleu_aug", "BLEU")],
}
PER_LAYER = [
    ("bpe.train_s", "s"), ("bpe.merges_per_s", "1/s"), ("bpe.word_types", "count"),
    ("bpe.merges", "count"), ("bpe.encode_s", "s"),
    ("bpe.encode_words_per_s", "1/s"), ("bpe.subwords_per_word", "ratio"),
    ("bpe.save_s", "s"), ("bpe.load_s", "s"), ("bpe.self_s", "s"),
    ("em.train_s", "s"), ("em.train_tok_iter_per_s", "1/s"),
    ("em.translate_s", "s"), ("em.translate_tok_per_s", "1/s"),
    ("em.lexicon_entries", "count"), ("em.save_s", "s"), ("em.self_s", "s"),
    ("metrics.bleu_s", "s"), ("metrics.cross_eval_self_s", "s"),
    ("metrics.profile_s", "s"), ("metrics.profile_tok_per_s", "1/s"),
    ("metrics.self_s", "s"),
    ("cli.analyze_s", "s"), ("cli.self_s", "s"),
    ("corpus.read_s", "s"), ("corpus.write_s", "s"), ("corpus.split_s", "s"),
    ("corpus.pairs", "count"), ("corpus.source_tokens", "count"),
    ("corpus.self_s", "s"),
    ("gateway.batch_s", "s"), ("gateway.requests", "count"),
    ("gateway.failed", "count"), ("gateway.call_busy_s", "s"),
    ("gateway.call_p50_ms", "ms"), ("gateway.call_p99_ms", "ms"),
    ("gateway.worker_idle_frac", "ratio"), ("gateway.mock.complete_s", "s"),
    ("gateway.self_s", "s"),
    ("gateway.http.attempts", "count"), ("gateway.http.retries", "count"),
    ("gateway.http.status_429", "count"), ("gateway.http.status_5xx", "count"),
    ("gateway.http.post_p50_ms", "ms"), ("gateway.http.post_p99_ms", "ms"),
    ("gateway.http.useful_ratio", "ratio"),
    ("prompts.self_s", "s"),
    ("hallucinate.pipeline_s", "s"), ("hallucinate.sentences_s", "s"),
    ("hallucinate.translations_s", "s"), ("hallucinate.self_s", "s"),
    ("hallucinate.sentences_parsed", "count"),
    ("hallucinate.dedup_keep_ratio", "ratio"),
    ("trace.overhead_s", "s"),
]


class RunError(Exception):
    """The run could not be made: no result is printed."""


def _read_line(proc, prefix):
    """The first stdout line of proc, which must start with prefix."""
    ready, _, _ = select.select([proc.stdout], [], [], STARTUP_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    if not line.startswith(prefix):
        raise RunError(f"{proc.args[1]} did not start (said {line!r})")
    return line[len(prefix):].strip()


def _stop(proc):
    if proc.poll() is None:
        if proc.stdin:
            proc.stdin.close()  # a waiting worker exits on end of input
        else:
            proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream:
            stream.close()


def _setup(workload, seed, size, work, trace, seconds, log, index):
    """Write inputs, start the stub and job process number index; return them ready."""
    procs = []
    inputs_dir = work / "inputs"
    shutil.rmtree(inputs_dir, ignore_errors=True)
    inputs_dir.mkdir()
    stub_url = None
    if workload.uses_stub:
        stub = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--src", str(Path("src").resolve()),
             "--seed", str(seed), "--delay-ms", str(workloads.STUB_DELAY_MS)],
            stdout=subprocess.PIPE, stderr=log, text=True)
        procs.append(stub)
        stub_url = f"http://127.0.0.1:{_read_line(stub, 'port ')}"
    try:
        params = workload.prepare(
            seed, size, inputs_dir, stub_url and stub_url + "/v1/chat/completions")
        spec = {
            "src": str(Path("src").resolve()), "work": str(work),
            "prefix": f"job-{index}-", "steps": params["steps"],
            "copy": params["copy"], "stub": stub_url, "trace": trace,
            "seconds": seconds, "reference_threads": params["callers"],
            "log": str(work / "cli.log"), "result": str(work / f"result-{index}.json"),
        }
        spec_path = work / f"spec-{index}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = dict(os.environ, PERFBENCH_API_KEY="loopback-stub")
        worker = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log, text=True,
            env=env)
        procs.append(worker)
        _read_line(worker, "ready")
    except BaseException:
        for proc in procs:
            _stop(proc)
        raise
    return params, procs, Path(spec["result"])


def measure(workload_name, seed, seconds, trace, size="full"):
    """Set up, run and check one workload; returns the result to print.

    Set-up happens SETUPS times, and each set-up's job process runs jobs for
    its share of the seconds, so neither set-up time nor job times rest on
    one process. The result holds "correct", "attempted", "failed",
    "metrics" (name -> (value, unit)), "digests" (artifact path -> sha256),
    and the first job's directory, workload parameters and stub counts,
    which are kept.
    """
    if not Path("src/corpus_forge/__init__.py").is_file():
        raise RunError("src/corpus_forge not found: run from the root of a "
                       "corpus-forge checkout")
    workload = workloads.WORKLOADS[workload_name]
    work = Path(".perfbench_work", workload_name).resolve()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_times = []
    results = []
    deadline = time.monotonic() + seconds + OVERRUN_S
    with open(work / "processes.log", "w", encoding="utf-8") as log:
        for index in range(SETUPS):
            started = time.perf_counter()
            params, procs, result_path = _setup(workload, seed, size, work, trace,
                                                seconds / SETUPS, log, index)
            setup_times.append(time.perf_counter() - started)
            try:
                worker = procs[-1]
                try:
                    worker.stdin.write("go\n")
                    worker.stdin.flush()
                    code = worker.wait(timeout=max(0.0, deadline - time.monotonic()))
                except BrokenPipeError:
                    code = worker.wait()
                except subprocess.TimeoutExpired:
                    raise RunError(f"jobs did not finish within {seconds + OVERRUN_S}s")
                if code != 0:
                    raise RunError(f"job process exited with code {code}; "
                                   f"see {log.name}")
            finally:
                for proc in procs:
                    _stop(proc)
            results.append(json.loads(result_path.read_text(encoding="utf-8")))
            if any(job["error"] for job in results[-1]["jobs"]):
                break
    return _evaluate(workload, params, results, statistics.median(setup_times), trace)


def _evaluate(workload, params, results, setup_s, trace):
    jobs = [job for result in results for job in result["jobs"]]
    problems = [f"job {i}: {job['error']}"
                for i, job in enumerate(jobs) if job["error"]]
    out = {"attempted": sum(job["commands"] for job in jobs),
           "failed": sum(1 for job in jobs if job["error"]),
           "metrics": {}, "digests": {}, "params": params,
           "job_dir": jobs[0]["dir"], "stub": jobs[0].get("stub")}
    if not problems:
        first = Path(jobs[0]["dir"])
        checked, counts = workload.check(params, first, jobs[0].get("stub"))
        problems += checked
        out["digests"] = workloads.digests(first)
        for i, job in enumerate(jobs[1:], 1):
            if workloads.digests(job["dir"]) != out["digests"]:
                problems.append(f"job {i} wrote different artifacts than job 0")
            if job.get("stub") != jobs[0].get("stub"):
                problems.append(f"job {i} made different backend calls than job 0")
            shutil.rmtree(job["dir"])
        plain = [job["job_s"] for job in jobs if not job["traced"]]
        job_s = statistics.median(plain)
        if trace:
            traced = [job for job in jobs if job["traced"]]
            for name, unit in PER_LAYER[:-1]:
                value = statistics.median(job["layers"][name] for job in traced)
                out["metrics"][name] = (value, unit)
            overhead = statistics.median(job["job_s"] for job in traced) - job_s
            out["metrics"]["trace.overhead_s"] = (overhead, "s")
        else:
            commands = out["attempted"]
            values = {
                "setup_s": setup_s, "job_s": job_s,
                "job_rel": statistics.median(job["job_s"] / job["reference_s"]
                                             for job in jobs if not job["traced"]),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
                "req_per_s": counts["requests"] / job_s,
                "backend_calls": counts["backend_calls"],
                "error_rate": (counts["failed"] / counts["requests"]
                               if counts["requests"] else out["failed"] / commands),
                "test_bleu_aug": counts.get("test_bleu_aug"),
            }
            for name, unit in END_TO_END + REPORTED[workload.name]:
                out["metrics"][name] = (values[name], unit)
    out["correct"] = not problems
    out["problems"] = problems
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy shrinks every input, for the benchmark's tests")
    args = parser.parse_args(argv)
    try:
        out = measure(args.workload, args.seed, args.seconds, args.trace, args.size)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in out["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in out["metrics"].items():
        print(f"metric {name} {value} {unit}")
    for path, digest in out["digests"].items():
        print(f"digest {path} {digest}")
    gated = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": out["metrics"][name][0], "unit": unit}
                    for name, unit in gated if name in out["metrics"]},
    }))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
