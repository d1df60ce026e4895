"""What only a process shows: corpus-forge run as a program, through the
standalone main() of `python -m corpus_forge.cli`, in a fresh working
directory.

Each test here checks an exit status, the bytes of a stream or a real
socket; every other check of a command runs in process, through CliRunner,
in test_cli.py. A later process-level check goes here too.
"""

import socket
from pathlib import Path

import pytest

from conftest import run_child

CORPUS = Path(__file__).resolve().parent / "data" / "natural_sample.jsonl"


def corpus_forge(args, cwd):
    return run_child(["-m", "corpus_forge.cli", *args], cwd)


# a failed command for each exit status that main gives one, and the start
# of what it writes to stderr
EXITS = {
    # the default mock run yields 2,080 source tokens of the 900,000 asked
    "insufficient-data": (["hallucinate", "--backend", "mock"], 5,
                          "insufficient data: "),
    "config": (["hallucinate", "--set", "em.iterations=0"], 3, "config error: "),
    "error": (["analyze", "--input", "empty.jsonl", "--out-dir", "out"], 1,
              "error: empty corpus: empty.jsonl\n"),
}


@pytest.mark.parametrize("args, status, stderr", EXITS.values(), ids=list(EXITS))
def test_exit_status(tmp_path, args, status, stderr):
    (tmp_path / "empty.jsonl").write_bytes(b"")
    result = corpus_forge(args, tmp_path)
    assert result.returncode == status, result.stderr
    assert result.stderr.startswith(stderr), result.stderr
    assert not (tmp_path / "out").exists()


def test_export_without_a_target_code_is_a_usage_error(tmp_path):
    result = corpus_forge(["export", "--input", str(CORPUS), "--src", "de",
                           "--out-dir", "export"], tmp_path)
    assert result.returncode == 2, result.stderr
    assert "Error: Missing option '--tgt'" in result.stderr
    assert result.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_a_nul_in_a_path_reaches_no_stream_raw(tmp_path):
    """A NUL in a path of the run ends it before any request, printed
    escaped on both streams."""
    result = corpus_forge(["hallucinate", "--set", 'paths.run_root="r\\0x"'],
                          tmp_path)
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith("config error: 'r\\x00x/"), result.stderr
    assert result.stdout.startswith("run directory: 'r\\x00x/")
    assert "\0" not in result.stdout + result.stderr
    assert list(tmp_path.iterdir()) == []


def test_a_refused_connection_is_a_transport_error(tmp_path, loopback_env):
    """A refused connection to the HTTP backend ends the run in a transport
    error, with no checkpoint written."""
    # bound but not listening: a connection to it is refused
    with socket.socket() as unheard:
        unheard.bind(("127.0.0.1", 0))
        port = unheard.getsockname()[1]
        result = corpus_forge([
            "hallucinate", "--backend", "http", "--run-id", "refused",
            "--set", f"http.endpoint_url=http://127.0.0.1:{port}/v1",
            "--set", "http.max_retries=0"], tmp_path)
    assert result.returncode == 4, result.stderr
    assert result.stderr.startswith("transport error: "), result.stderr
    assert not (tmp_path / "runs" / "refused" / "checkpoints").exists()
