"""Drive a real ``repro serve`` daemon over one TCP connection.

The load generator is a closed loop: each request line waits for the
previous reply.  Between requests it times a fixed pure-Python loop
(:func:`calibration_loop`) on the daemon's CPU, which measures how fast
that CPU ran the interpreter around that request.  On a shared VM each
virtual CPU's speed swings by more than half within a second, and the
two CPUs swing independently, so the daemon is pinned to one CPU and the
load generator runs on the other except while it calibrates.

Each request is also bracketed by reads of the VM's steal counter.  A
request during which the hypervisor ran someone else on our virtual
CPUs is marked *stolen*: its time says more about the neighbours than
about the program, and such bursts, not the program, set the tail
latency on a shared host.
"""

from __future__ import annotations

import os
import selectors
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Iterations of the calibration loop (~0.1 ms on a 2020s x86 core).
CALIBRATION_ITERATIONS = 1500


def calibration_loop() -> float:
    """Seconds taken by a fixed amount of pure-Python work."""
    started = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - started


def cpu_split() -> "tuple[set, set]":
    """``(daemon CPUs, load-generator CPUs)``: the last allowed CPU for
    the daemon, the rest for the load generator (one shared CPU when
    only one is allowed)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[-1]}, set(cpus[:-1])


def calibrate_on(cpus: set) -> float:
    """:func:`calibration_loop` run on ``cpus``; the caller's CPU set is
    restored afterwards."""
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        return calibration_loop()
    finally:
        os.sched_setaffinity(0, own)


def steal_ticks() -> int:
    """Clock ticks this VM's CPUs have lost to the hypervisor so far."""
    with open("/proc/stat", "rb") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def repro_env(cache_dir: Path) -> dict:
    """Environment for a ``python -m repro`` child on this checkout."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def build_store(cache_dir: Path, k: int, lists: int) -> None:
    """Build the database store from scratch."""
    subprocess.run(
        [sys.executable, "-m", "repro", "build-db", "--force",
         "-k", str(k), "--lists", str(lists)],
        cwd=ROOT, env=repro_env(cache_dir), check=True, timeout=120,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )


class Daemon:
    """One ``repro serve`` child and a client connection to it.

    ``setup_s`` is the time from spawning the process to the answer of
    its first request.
    """

    def __init__(
        self, cache_dir: Path, k: int, lists: int, log: Path, cpus: set
    ):
        self.cpus = cpus
        self._log = open(log, "ab")
        self._drainer: "threading.Thread | None" = None
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "-k", str(k), "--lists", str(lists), "--port", "0"],
            cwd=ROOT, env=repro_env(cache_dir),
            stdout=subprocess.PIPE, stderr=self._log,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        )
        self.sock = None
        try:
            host, port = self._await_listening(timeout=60.0)
            self.sock = socket.create_connection((host, port), timeout=120)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._rfile = self.sock.makefile("rb")
            # First request: a size query for the identity.  It caches a
            # size only, which never turns a later synth into a hit.
            self.request('{"id":0,"op":"size","word":"0xfedcba9876543210"}')
            self.setup_s = time.perf_counter() - started
        except BaseException:
            self.kill()
            raise

    def _await_listening(self, timeout: float) -> "tuple[str, int]":
        """Read the daemon's stdout until its ``listening on`` line."""
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + timeout
        buffered = b""
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise RuntimeError("daemon did not start listening")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("daemon exited before listening")
                buffered += chunk
                for line in buffered.decode("utf-8", "replace").splitlines():
                    if " listening on " in line:
                        address = line.split(" listening on ", 1)[1].split()[0]
                        host, port = address.rsplit(":", 1)
                        # Keep draining stdout so the child never blocks.
                        self._drainer = threading.Thread(
                            target=self._drain, daemon=True
                        )
                        self._drainer.start()
                        return host, int(port)
        finally:
            selector.close()

    def _drain(self) -> None:
        while self.proc.stdout.read(4096):
            pass

    @property
    def pid(self) -> int:
        return self.proc.pid

    def request(self, line: str) -> bytes:
        """Send one request line and return its response line."""
        self.sock.sendall(line.encode("utf-8") + b"\n")
        response = self._rfile.readline()
        if not response:
            raise RuntimeError("daemon closed the connection")
        return response

    def cpu_ticks(self) -> int:
        """Daemon utime + stime so far, in clock ticks."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (VmHWM) in MiB."""
        with open(f"/proc/{self.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        """Ask the daemon to shut down and wait for it to exit."""
        try:
            self.request('{"id":-1,"op":"shutdown"}')
        except (OSError, RuntimeError):
            pass
        if self.sock is not None:
            self._rfile.close()
            self.sock.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
        self._close_pipes()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self._close_pipes()

    def _close_pipes(self) -> None:
        if self._drainer is not None:
            self._drainer.join(timeout=10)
        self.proc.stdout.close()
        self._log.close()


def closed_loop(
    send, calibrate, lines, seconds: float, min_lines: int, block: int
):
    """Replay ``lines`` one at a time until ``seconds`` have passed and
    at least ``min_lines`` were answered, stopping only at a multiple of
    ``block`` lines (or when the stream runs out).  A run never extends
    past five times ``seconds`` to reach ``min_lines``.

    ``calibrate()`` runs after each line.  Returns ``(latencies, stolen,
    calibrations, responses)``, times in seconds; ``stolen[i]`` is True
    when steal overlapped line ``i``.
    """
    latencies: list = []
    stolen: list = []
    calibrations: list = []
    responses: list = []
    started = time.perf_counter()
    for index, line in enumerate(lines):
        if index % block == 0:
            elapsed = time.perf_counter() - started
            if elapsed >= seconds and (
                index >= min_lines or elapsed >= 5 * seconds
            ):
                break
        steal = steal_ticks()
        t0 = time.perf_counter()
        response = send(line)
        latencies.append(time.perf_counter() - t0)
        stolen.append(steal_ticks() != steal)
        responses.append(response)
        calibrations.append(calibrate())
    return latencies, stolen, calibrations, responses
