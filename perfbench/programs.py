"""Launching ``uucs`` commands as a user runs them, and timing them.

:func:`run_command` runs a command in a fresh ``python3`` process running
``launch.py``, which imports ``repro.cli`` and stamps the moment it is
ready.  Set-up time is launch to ready; command time is ready to exit.
:class:`ForkServer` runs commands in forks of one such process that is
already set up, so a run measures many more commands than it could if
every one paid the interpreter start and ``import repro.cli`` again.
Peak RSS comes from ``wait4``, which on Linux reports the largest of
the process and every descendant it reaped (shard workers included); a
forked command shares the launcher's pages until it touches them, so
its RSS reads lower than a fresh process's and is not a peak-RSS sample.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launch.py"

#: A command that runs longer than this is killed and counted as failed.
COMMAND_TIMEOUT_S = 120.0


@dataclass
class Context:
    """Where a benchmark run works and what it passes to the program."""

    root: Path
    work: Path
    seed: int
    seconds: float

    def __post_init__(self) -> None:
        self._names = itertools.count()
        env = {k: v for k, v in os.environ.items() if not k.startswith("UUCS_")}
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # Programs write nothing outside the checkout, temporary files included.
        env["TMPDIR"] = str(self.work)
        self.env = env

    def path(self, stem: str) -> Path:
        """A fresh file name in the work directory."""
        return self.work / f"{stem}-{next(self._names)}"


@dataclass
class Outcome:
    rc: int
    #: Launch to ready; 0 for a command forked from a :class:`ForkServer`.
    setup_s: float
    #: Ready to exit.
    command_s: float
    rss_mb: float
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not math.isnan(self.setup_s)


def _wait(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Reap ``proc`` (killing it after ``timeout``); exit code and RSS MB."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _read_stamp(path: Path) -> float:
    try:
        return float(path.read_text())
    except (OSError, ValueError):
        return float("nan")


def _read_text(path: Path) -> str:
    return path.read_text(errors="replace") if path.exists() else ""


def run_command(ctx: Context, args: list) -> Outcome:
    """Run ``uucs <args>`` to completion."""
    ready = ctx.path("ready")
    out, err = ctx.path("stdout"), ctx.path("stderr")
    env = dict(ctx.env, PERFBENCH_READY=str(ready))
    with open(out, "wb") as fo, open(err, "wb") as fe:
        launched = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER), *map(str, args)],
            cwd=ctx.work, env=env, stdout=fo, stderr=fe,
        )
        rc, rss = _wait(proc, COMMAND_TIMEOUT_S)
        ended = time.monotonic()
    stamp = _read_stamp(ready)
    outcome = Outcome(
        rc, stamp - launched, ended - stamp, rss,
        _read_text(out), _read_text(err),
    )
    for path in (ready, out, err):
        path.unlink(missing_ok=True)
    return outcome


class ForkServer:
    """One set-up ``uucs`` process that runs each command in a fork of
    itself (``launch.py --fork-server``).  ``setup_s`` is its own launch
    to ready; use it as a context manager so it is always stopped."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        ready = ctx.path("ready")
        self._err = ctx.path("stderr")
        self._fe = open(self._err, "wb")
        launched = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER), "--fork-server"],
            cwd=ctx.work, env=dict(ctx.env, PERFBENCH_READY=str(ready)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._fe,
        )
        # The server is ready to fork once it has stamped; the first
        # request waits for that, so read the stamp after a round trip.
        self._child = None
        self.setup_s = float("nan")
        probe = self.run(["--version"])
        if probe.rc == 0:
            self.setup_s = _read_stamp(ready) - launched
        ready.unlink(missing_ok=True)

    def _kill_child(self) -> None:
        if self._child is not None:
            try:
                os.kill(self._child, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def run(self, args: list, fresh: bool = False) -> Outcome:
        """Run ``uucs <args>`` in a fork (``setup_s`` is 0), or with
        ``fresh`` in a process of its own, as :func:`run_command` does."""
        if fresh:
            return run_command(self.ctx, args)
        out, err = self.ctx.path("stdout"), self.ctx.path("stderr")
        request = {"args": [str(a) for a in args], "stdout": str(out), "stderr": str(err)}
        timer = threading.Timer(COMMAND_TIMEOUT_S, self._kill_child)
        timer.start()
        try:
            self.proc.stdin.write((json.dumps(request) + "\n").encode())
            self.proc.stdin.flush()
            self._child = json.loads(self.proc.stdout.readline())["pid"]
            reply = json.loads(self.proc.stdout.readline())
        except (OSError, ValueError, KeyError):
            reply = {"rc": -1, "wall_s": float("nan"), "rss_mb": float("nan")}
        finally:
            timer.cancel()
            self._child = None
        outcome = Outcome(
            reply["rc"], 0.0, reply["wall_s"], reply["rss_mb"],
            _read_text(out), _read_text(err),
        )
        out.unlink(missing_ok=True)
        err.unlink(missing_ok=True)
        return outcome

    def close(self) -> None:
        """Stop the server and reap it."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(COMMAND_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._fe.close()
        self._err.unlink(missing_ok=True)

    def __enter__(self) -> "ForkServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Server:
    """``uucs serve`` in the background; ready once it prints its address."""

    def __init__(self, ctx: Context, args: list):
        self._err = ctx.path("stderr")
        self._fe = open(self._err, "wb")
        launched = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER), "serve", *map(str, args)],
            cwd=ctx.work, env=ctx.env, stdout=subprocess.PIPE, stderr=self._fe,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline().decode(errors="replace")
        except BaseException:
            self.proc.kill()
            self.stop()
            raise
        finally:
            timer.cancel()
        self.setup_s = time.monotonic() - launched
        self.address = None
        # "UUCS server on HOST:PORT (...)"
        if line.startswith("UUCS server on "):
            host, _, port = line.split()[3].rpartition(":")
            self.address = (host, int(port))

    def stop(self) -> tuple[int, float, str]:
        """Interrupt the server as Ctrl-C does; exit code, RSS MB, stderr."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        if self.proc.returncode is None:
            rc, rss = _wait(self.proc, COMMAND_TIMEOUT_S)
        else:
            rc, rss = self.proc.returncode, float("nan")
        self.proc.stdout.close()
        self._fe.close()
        stderr = self._err.read_text(errors="replace")
        self._err.unlink(missing_ok=True)
        return rc, rss, stderr
