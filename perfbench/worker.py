"""Job process: imports corpus_forge from the checkout and runs timed jobs.

Run: python3 worker.py <spec.json>
It imports the package, prints "ready", and waits for one line on stdin:
"go" starts the job loop, anything else exits. A job runs the workload's
corpus-forge subcommands in this process, in a fresh job directory, and
job_s is the time from its inputs on disk to its last artifact written.
Jobs repeat until the spec's seconds are spent. In trace mode jobs
alternate between untraced and traced, so the difference of their medians
is the tracing overhead. Results go to the spec's result file as JSON.

The machine this runs on may be shared, and its speed then drifts by tens
of percent within a minute. Fixed pure-Python reference work runs before
the first job and after every job, on as many threads as the job has
callers; each job's time divided by the mean of the two reference times
around it moves far less with that drift than the job's time does.
"""

import gc
import json
import os
import resource
import shutil
import sys
import threading
import time
import traceback
import urllib.request
from pathlib import Path

REFERENCE_ROUNDS = 1300


def _reference_work():
    total = 0
    for i in range(REFERENCE_ROUNDS):
        table = {}
        for j in range(250):
            key = f"k{j}"
            table[key] = i * j
            total += len(key)
        total += sum(table.values()) % 7
    return total


def reference_time(threads):
    """Seconds for `threads` threads to each do fixed interpreter work.

    With as many threads as the job has callers, the reference also pays
    the interpreter-lock hand-offs between processors that the job pays.
    """
    start = time.perf_counter()
    if threads == 1:
        _reference_work()
    else:
        pool = [threading.Thread(target=_reference_work) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
    return time.perf_counter() - start


def _stub_call(url, method):
    request = urllib.request.Request(url, data=b"{}" if method == "POST" else None,
                                     method=method)
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import corpus_forge
    from corpus_forge import cli

    if src not in Path(corpus_forge.__file__).resolve().parents:
        print(f"corpus_forge imported from {corpus_forge.__file__}, not {src}",
              file=sys.stderr)
        return 2
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    # subcommands echo to stdout: keep that out of the pipe to the runner
    sys.stdout = open(spec["log"], "a", encoding="utf-8")

    tracing = None
    if spec["trace"]:
        import tracing
    work = Path(spec["work"])
    home = os.getcwd()
    jobs = []
    last_tracer = None
    started = time.perf_counter()
    reference = reference_time(spec["reference_threads"])
    while True:
        traced = bool(spec["trace"]) and len(jobs) % 2 == 1
        job, tracer = _run_job(cli, corpus_forge, tracing if traced else None,
                               spec, work / f"{spec['prefix']}{len(jobs)}", home)
        jobs.append(job)
        last_tracer = tracer or last_tracer
        if job["error"]:
            break
        after = reference_time(spec["reference_threads"])
        job["reference_s"] = (reference + after) / 2
        reference = after
        # at least one job of each kind the mode runs, then until time is up
        done = {j["traced"] for j in jobs} == {False, bool(spec["trace"])}
        if done and time.perf_counter() - started >= spec["seconds"]:
            break
    result = {"jobs": jobs,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    if last_tracer:
        last_tracer.write(work / "spans.jsonl")
    return 0


def _run_job(cli, package, tracing, spec, job_dir, home):
    job_dir.mkdir(parents=True)
    for source, dest in spec["copy"]:
        (job_dir / dest).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(source, job_dir / dest)
    if spec["stub"]:
        _stub_call(spec["stub"] + "/__reset", "POST")
    tracer = tracing.Tracer(job_dir.name) if tracing else None
    invoke = lambda argv: cli.main.main(args=argv, prog_name="corpus-forge",
                                        standalone_mode=False)
    job = {"dir": str(job_dir), "traced": tracer is not None, "commands": 0,
           "error": None}
    gc.collect()
    os.chdir(job_dir)
    try:
        if tracer:
            with tracing.installed(tracer, package):
                start = time.perf_counter()
                for argv in spec["steps"]:
                    job["commands"] += 1
                    tracer.wrap(f"cli.{argv[0]}", invoke)(argv)
                job["job_s"] = time.perf_counter() - start
        else:
            start = time.perf_counter()
            for argv in spec["steps"]:
                job["commands"] += 1
                invoke(argv)
            job["job_s"] = time.perf_counter() - start
    except SystemExit as exc:
        job["error"] = f"{argv[0]} exited with code {exc.code}"
    except Exception:
        job["error"] = f"{argv[0]} raised:\n{traceback.format_exc()}"
    finally:
        os.chdir(home)
    if spec["stub"]:
        job["stub"] = _stub_call(spec["stub"] + "/__stats", "GET")
    if tracer and not job["error"]:
        job["layers"] = tracing.summarize(tracer)
    return job, tracer


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
