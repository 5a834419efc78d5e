"""One daemon subprocess and the single client connection that drives it."""

from __future__ import annotations

import os
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
from typing import List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: Pinned for every daemon, so set and dict iteration orders - and with
#: them every exact counter - repeat across runs.
PYTHONHASHSEED = "0"
#: Far above the slowest request of any workload (a few seconds); a
#: request that takes this long counts as failed and ends the run.
REQUEST_TIMEOUT_S = 150.0
READY_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 30.0

_LISTENING = re.compile(r"listening on ([^\s:]+):(\d+)")


class DaemonError(RuntimeError):
    """The daemon could not be started, or the connection broke."""


class Daemon:
    """``python -m repro serve`` with a fresh state directory.

    ``spans_path`` starts it through the tracing launcher instead; the
    launcher writes its spans there on shutdown.
    """

    def __init__(self, root: str, state_dir: str, max_sessions: int,
                 spans_path: Optional[str] = None):
        self.state_dir = state_dir
        shutil.rmtree(state_dir, ignore_errors=True)
        serve = ["serve", "--port", "0", "--state-dir", state_dir,
                 "--max-sessions", str(max_sessions)]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            command = [sys.executable, os.path.join(HERE, "launcher.py"),
                       spans_path, *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONHASHSEED"] = PYTHONHASHSEED
        self.log: List[str] = []
        self._ready = threading.Event()
        self._address: Optional[Tuple[str, int]] = None
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        self.sock = None
        self.reader = None

    def _read_stderr(self) -> None:
        for raw in self.process.stderr:
            line = raw.decode("utf-8", "replace").rstrip()
            self.log.append(line)
            match = _LISTENING.search(line)
            if match and self._address is None:
                self._address = (match.group(1), int(match.group(2)))
                self._ready.set()
        self._ready.set()

    def connect(self) -> None:
        """Wait for the ``listening`` line, then open the client connection."""
        if not self._ready.wait(READY_TIMEOUT_S) or self._address is None:
            raise DaemonError("daemon did not start:\n" + "\n".join(self.log[-20:]))
        self.sock = socket.create_connection(self._address, timeout=REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def request(self, line: bytes) -> Tuple[float, float, bytes]:
        """Send one request line; ``(sent_at, received_at, response)``."""
        sent = time.perf_counter()
        self.sock.sendall(line + b"\n")
        response = self.reader.readline()
        received = time.perf_counter()
        if not response.endswith(b"\n"):
            raise DaemonError("connection closed mid-request:\n"
                              + "\n".join(self.log[-20:]))
        return sent, received, response

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the daemon so far."""
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The daemon's ``VmHWM`` in MiB."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise DaemonError("no VmHWM in /proc status")

    def shutdown(self) -> None:
        """Ask the daemon to stop and wait until it has exited."""
        try:
            if self.sock is not None:
                self.request(b'{"op":"shutdown"}')
            self.process.wait(EXIT_TIMEOUT_S)
        finally:
            self.close()

    def close(self) -> None:
        """Release the connection; kill the daemon if it is still running."""
        if self.reader is not None:
            self.reader.close()
        if self.sock is not None:
            self.sock.close()
        self.reader = self.sock = None
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self._drain.join(EXIT_TIMEOUT_S)
        self.process.stderr.close()
        shutil.rmtree(self.state_dir, ignore_errors=True)
