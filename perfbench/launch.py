"""Run ``uucs`` commands the way ``python -m repro.cli`` runs them, and
stamp the moment the program is ready.

Usage: ``python3 perfbench/launch.py <uucs arguments...>`` with
``PERFBENCH_READY`` naming a file.  After ``import repro.cli`` finishes
the launcher writes ``time.monotonic()`` there (CLOCK_MONOTONIC, so the
parent compares it with its own launch stamp), then hands the arguments to ``repro.cli.main``.

With the single argument ``--fork-server`` the launcher stamps the file
the same way and then serves commands instead: it reads one JSON request
per line on standard input (``args``, ``stdout``, ``stderr``: the
arguments and the files to write the command's output to), forks a child
that runs ``repro.cli.main(args)`` exactly as a fresh launch would after
its set-up (and exits as it would, interpreter shutdown included), and
answers two JSON lines: first ``pid`` (the child, so the caller can
kill it after a timeout), then ``rc``, ``wall_s`` (fork to reaped) and
``rss_mb``.  An empty line or end of input stops it.

Shard workers are forked, so they run in the same process image.
"""

import json
import os
import sys
import time

import repro.cli


def _stamp() -> None:
    ready = time.monotonic()
    path = os.environ.get("PERFBENCH_READY")
    if path:
        with open(path, "w") as fh:
            fh.write(repr(ready))


def _serve():
    """Fork once per request; in the child, return the request."""
    for line in sys.stdin:
        if not line.strip():
            break
        request = json.loads(line)
        started = time.monotonic()
        pid = os.fork()
        if pid == 0:
            return request
        sys.stdout.write(json.dumps({"pid": pid}) + "\n")
        sys.stdout.flush()
        _, status, usage = os.wait4(pid, 0)
        ended = time.monotonic()
        reply = {
            "rc": os.waitstatus_to_exitcode(status),
            "wall_s": ended - started,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return None


def _redirect(request: dict) -> list:
    """In a forked child: give the command its own input and output."""
    devnull = os.open(os.devnull, os.O_RDONLY)
    os.dup2(devnull, 0)
    os.close(devnull)
    for fd, key in ((1, "stdout"), (2, "stderr")):
        out = os.open(request[key], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(out, fd)
        os.close(out)
    sys.argv[1:] = request["args"]
    return request["args"]


if __name__ == "__main__":
    _stamp()
    args = sys.argv[1:]
    if args == ["--fork-server"]:
        request = _serve()
        if request is None:
            sys.exit(0)
        # The child runs the command and exits exactly as a fresh launch does.
        args = _redirect(request)
    sys.exit(repro.cli.main(args))
