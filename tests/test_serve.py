"""``repro serve``: the stdin line loop and the ``--port`` frame server.

Both front ends feed one executor over a single-directory index and must
answer exactly what ``repro query`` answers for the same XPath, in
submission order.  The stdin loop runs in-process (``sys.stdin``
monkeypatched); the TCP server runs as a real subprocess, is driven over
the length-prefixed frame protocol and stopped with SIGINT.
"""

from __future__ import annotations

import ast
import io
import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.shard.protocol import recv_frame, send_frame

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

CORPUS = """
<site>
  <item><location>US</location><name>widget</name></item>
  <item><location>EU</location><name>gadget</name></item>
  <item><location>US</location><name>gizmo</name><price>5</price></item>
</site>
"""

XPATHS = [
    "//item[location='US']",
    "/site/item/name",
    "//item[price]",
    "//item[location='EU']",
]


@pytest.fixture
def db(tmp_path, capsys):
    xml = tmp_path / "corpus.xml"
    xml.write_text(CORPUS)
    dbdir = tmp_path / "db"
    assert main(["index", str(dbdir), str(xml), "--split", "item"]) == 0
    capsys.readouterr()
    return dbdir


def _query_answer(dbdir: Path, xpath: str, capsys, verify: bool = False) -> list[int]:
    """The doc ids ``repro query`` prints for ``xpath``."""
    argv = ["query", str(dbdir), xpath] + (["--verify"] if verify else [])
    assert main(argv) == 0
    line = capsys.readouterr().out.strip().splitlines()[0]
    shown = line.split(": ", 1)[1]
    return sorted(ast.literal_eval(shown)) if shown != "set()" else []


class TestServeStdin:
    def _serve(self, dbdir, lines, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("".join(lines)))
        assert main(["serve", str(dbdir)]) == 0
        captured = capsys.readouterr()
        return captured.out.splitlines(), captured.err

    def test_answers_match_query_in_order(self, db, monkeypatch, capsys):
        expected = [_query_answer(db, xpath, capsys) for xpath in XPATHS]
        out, err = self._serve(
            db, [f"{xpath}\n" for xpath in XPATHS], monkeypatch, capsys
        )
        assert len(out) == len(XPATHS)
        for position, (line, xpath, ids) in enumerate(zip(out, XPATHS, expected)):
            assert line == f"{position}\t{xpath}\t{len(ids)} match(es): {ids}"
        assert f"served {len(XPATHS)} query/queries" in err

    def test_blank_and_comment_lines_are_skipped(self, db, monkeypatch, capsys):
        lines = ["\n", "# a comment\n", "   \n", "//item[price]\n", "#//item\n"]
        out, err = self._serve(db, lines, monkeypatch, capsys)
        assert len(out) == 1
        assert out[0].startswith("0\t//item[price]\t")
        assert "served 1 query/queries" in err

    def test_malformed_xpath_reports_and_continues(self, db, monkeypatch, capsys):
        expected = _query_answer(db, "//item[price]", capsys)
        out, _err = self._serve(
            db, ["//item[\n", "//item[price]\n"], monkeypatch, capsys
        )
        assert len(out) == 2
        assert out[0].startswith("0\t//item[\terror: ")
        assert out[1] == f"1\t//item[price]\t{len(expected)} match(es): {expected}"


def _read_port(proc: subprocess.Popen, timeout_s: float = 30.0) -> int:
    deadline = time.monotonic() + timeout_s
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        assert proc.poll() is None, f"serve exited early: {proc.returncode}"
        ready, _, _ = select.select([proc.stdout], [], [], 0.25)
        if not ready:
            continue
        line = proc.stdout.readline()
        if line.startswith("PORT "):
            return int(line.split()[1])
    raise AssertionError("serve never announced a port")


@pytest.fixture
def tcp_server(db):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1]) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(db), "--port", "0"],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        yield proc, _read_port(proc)
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for stream in (proc.stdout, proc.stderr):
            stream.close()


class TestServeTcp:
    def test_frames_answer_in_position_order(self, db, tcp_server, capsys):
        proc, port = tcp_server
        raw = {xpath: _query_answer(db, xpath, capsys) for xpath in XPATHS}
        verified = _query_answer(db, XPATHS[0], capsys, verify=True)
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            # a malformed frame is answered at once, before any query is
            # queued, so its reply cannot race the ordered ones
            send_frame(sock, {"not": "a query"})
            bad = recv_frame(sock)
            assert bad["ok"] is False
            assert bad["error_type"] == "FrameError"
            assert bad["position"] == 0
            # pipeline every request before reading a single reply
            for xpath in XPATHS:
                send_frame(sock, xpath)
            send_frame(sock, {"xpath": XPATHS[0], "verify": True})
            replies = [recv_frame(sock) for _ in range(len(XPATHS) + 1)]
        assert [reply["position"] for reply in replies] == list(range(len(XPATHS) + 1))
        for reply, xpath in zip(replies, XPATHS):
            assert reply["ok"] is True
            assert reply["xpath"] == xpath
            assert reply["result"] == raw[xpath]
        assert replies[-1]["ok"] is True
        assert replies[-1]["result"] == verified
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=15) == 0
        # the count covers connections already torn down, so only its
        # presence is stable here, not the number
        assert "query/queries" in proc.stderr.read()

    def test_malformed_xpath_frame_is_an_error_reply(self, tcp_server):
        _proc, port = tcp_server
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            send_frame(sock, "//item[")
            send_frame(sock, "//item[price]")
            first, second = recv_frame(sock), recv_frame(sock)
        assert (first["position"], first["ok"]) == (0, False)
        assert first["error"]
        assert (second["position"], second["ok"]) == (1, True)
