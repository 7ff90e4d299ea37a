"""A ``repro serve`` daemon subprocess and a raw line client for it.

The client sends pre-encoded request lines and times until the reply
line has arrived, so client-side JSON work is not charged to the daemon.
"""

from __future__ import annotations

import json
import os
import queue
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

__all__ = ["Daemon", "LineClient", "proc_status_kb"]

_START_TIMEOUT = 60.0


def proc_status_kb(pid: int, field: str) -> int:
    """A ``kB`` field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(f"{field} not in /proc/{pid}/status")


class LineClient:
    """One TCP connection speaking the line-delimited serve protocol."""

    def __init__(self, address: tuple[str, int], timeout: float = 120.0):
        self._socket = socket.create_connection(address, timeout=timeout)
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._socket.makefile("rb")

    def roundtrip(self, line: bytes) -> tuple[bytes, float]:
        """Send one request line; return the reply line and seconds waited."""
        started = time.perf_counter()
        self._socket.sendall(line)
        reply = self._reader.readline()
        elapsed = time.perf_counter() - started
        if not reply:
            raise ConnectionError("daemon closed the connection")
        return reply, elapsed

    def call(self, op: str) -> dict[str, Any]:
        reply, _ = self.roundtrip(
            json.dumps({"op": op, "id": op}).encode() + b"\n"
        )
        return json.loads(reply)

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._socket.close()


class Daemon:
    """``python -m repro serve`` on an ephemeral localhost port."""

    def __init__(self, src: Path, workers: int = 1):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--workers",
                str(workers),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL,
            env=env,
        )
        self.address: tuple[str, int] | None = None
        self._lines: queue.Queue[bytes] = queue.Queue()
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()

    def _read_stdout(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(b"")

    def wait_ready(self) -> "Daemon":
        """Block until the daemon prints its address and answers a ping."""
        deadline = time.monotonic() + _START_TIMEOUT
        while self.address is None:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("serve daemon did not start") from None
            if not line:
                raise RuntimeError("serve daemon exited during start-up")
            text = line.decode("utf-8", "replace").strip()
            if text.startswith("serving on "):
                host, _, port = text.removeprefix("serving on ").rpartition(":")
                self.address = (host, int(port))
        client = LineClient(self.address)
        try:
            if not client.call("ping").get("pong"):
                raise RuntimeError("serve daemon did not answer ping")
        finally:
            client.close()
        return self

    def client(self) -> LineClient:
        assert self.address is not None
        return LineClient(self.address)

    def status_kb(self, field: str) -> int:
        return proc_status_kb(self.process.pid, field)

    def stop(self) -> None:
        """Ask for a clean shutdown; kill if it does not exit promptly."""
        if self.process.poll() is None:
            if self.address is None:
                self.process.terminate()
            else:
                try:
                    client = LineClient(self.address, timeout=10.0)
                    try:
                        client.call("shutdown")
                    finally:
                        client.close()
                except OSError:
                    self.process.terminate()
        try:
            self.process.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=15.0)
        self._reader.join(timeout=5.0)
        if self.process.stdout is not None:
            self.process.stdout.close()
