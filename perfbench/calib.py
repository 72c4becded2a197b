"""A fixed reference computation, timed between a workload's operations.

The shared host this benchmark runs on drifts in speed by 10-25 % over
minutes (other tenants contend for its cores and caches), and every
timing taken in the same minute moves with it, so the median operation
time of one run can differ from the next by more than any change worth
catching.  Timing this computation between the operations of the same
run and dividing the median operation time by its median time cancels
much of that drift.

The commands under test keep both cores of a 2-core machine busy (two
shards, or server and clients), and contention on either core slows
them, so the computation runs in :data:`WORKERS` processes at once, each
on its own core when the scheduler allows, and every process's time is
a sample.  It mixes what the commands spend their time on: JSON parsing
and serialization, unmarshalling code as imports do, allocating and
freeing many small objects, and numpy sorting, histograms and
quantiles.  It calls no code of the program and its inputs are fixed, so
a change to the program moves the ratio exactly as it moves the
operation time.
"""

from __future__ import annotations

import json
import marshal
import multiprocessing
import random
import time

import numpy as np

_RNG = random.Random(20040601)
#: One JSON document per line, shaped like a result store's runs.
_LINES = "\n".join(
    json.dumps({
        "run_id": f"{_RNG.getrandbits(64):016x}",
        "task": _RNG.choice(["word", "powerpoint", "ie", "quake"]),
        "levels": [round(_RNG.random(), 6) for _ in range(48)],
        "discomfort": _RNG.random() < 0.3,
    })
    for _ in range(4000)
)
_SOURCE = "\n".join(
    f"def f{i}(x, y={i}):\n    return [x * y + k for k in range(x)] if x > {i % 7} else {{'k': x, 'i': {i}}}\n"
    for i in range(400)
)
_CODE = marshal.dumps(compile(_SOURCE, "<calibration>", "exec"))
_ARRAY = np.random.default_rng(20040601).random(1_000_000)


def kernel() -> None:
    """The reference computation (about 0.15 s on a 2 GHz core)."""
    records = [json.loads(line) for line in _LINES.splitlines()]
    levels = np.array([record["levels"] for record in records])
    "\n".join(json.dumps(record, sort_keys=True) for record in records[::4])
    del records
    for _ in range(4):
        marshal.loads(_CODE)
    np.sort(_ARRAY)
    np.histogram(levels, bins=100)
    np.quantile(levels, [0.05, 0.5, 0.95], axis=0)


#: Processes that run the computation at once: one per core the
#: commands under test keep busy.
WORKERS = 2
#: Seconds to wait for a worker's sample before giving up on it.
TIMEOUT_S = 60.0


def _worker(conn) -> None:
    while conn.recv():
        started = time.perf_counter()
        kernel()
        conn.send(time.perf_counter() - started)


class Calibrator:
    """:data:`WORKERS` forked processes that time :func:`kernel` on
    request; use it as a context manager so they are always stopped."""

    def __init__(self):
        context = multiprocessing.get_context("fork")
        self._conns, self._procs = [], []
        for _ in range(WORKERS):
            ours, theirs = context.Pipe()
            proc = context.Process(target=_worker, args=(theirs,), daemon=True)
            proc.start()
            theirs.close()
            self._conns.append(ours)
            self._procs.append(proc)

    def sample(self, times: list) -> None:
        """Run the computation in every worker at once and append each
        worker's seconds to ``times``."""
        for conn in self._conns:
            conn.send(True)
        for conn in self._conns:
            if not conn.poll(TIMEOUT_S):
                raise RuntimeError("calibration worker did not answer")
            times.append(conn.recv())

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(False)
            except OSError:
                pass
        for proc in self._procs:
            proc.join(TIMEOUT_S)
            if proc.is_alive():
                proc.kill()
                proc.join()
        for conn in self._conns:
            conn.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
