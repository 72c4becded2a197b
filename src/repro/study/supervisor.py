"""Shard supervision: the policy and the one loop every shard pool runs.

A fleet study or harvest is minutes-to-hours of work split across
worker processes, and worker processes fail the way volunteer hosts do:
they die, they hang, they hand back garbage.  :class:`SupervisorPolicy`
is the knob set that decides how hard to fight for each shard before
giving it up, and :func:`supervise_shards` is the loop that applies it —
shared by sharded studies (:func:`repro.study.sharded.run_sharded_study`)
and sharded harvests (:func:`repro.scheduler.fleet.run_fleet`):

* **retry** — a failed shard attempt is relaunched after a
  capped-exponential, seeded-jitter backoff.  The delay math is
  delegated to :class:`repro.faults.retry.RetryPolicy` — the exact
  policy shape already proven on the sync path — with the jitter RNG
  derived per shard from the run's seed, so a chaotic run replays its
  whole retry schedule byte-for-byte under the same seed.
* **watchdog** — an optional per-attempt wall-clock deadline.  A worker
  that blows it is SIGKILLed and the attempt counts as a failure; this
  is the only way a *hung* worker (NFS wedge, swap death) ever returns
  its shard to the pool.
* **quarantine** — when a shard exhausts ``max_attempts``, a study
  either completes partially with that shard quarantined (the default:
  every healthy shard's results survive) or, with ``quarantine=False``,
  fails fast with :class:`~repro.errors.StudyError`.  What exhaustion
  means is the caller's ``on_exhausted`` callback: a harvest always
  fails, since a partial scoreboard would not be reproducible.

Each shard runs in its own ``Process`` talking back over a pipe, so a
worker that dies, hangs, or returns a damaged payload costs only that
shard an attempt.  (A pool cannot do this: one SIGKILLed pool worker
poisons every pending future with ``BrokenProcessPool``.)
``multiprocessing`` is imported only when the loop runs, so checkpoint
and CLI code can build policies without paying for it.
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import StudyError, ValidationError
from repro.faults.retry import RetryPolicy
from repro.faults.shardchaos import CORRUPT_MARKER, ShardFaultPlan
from repro.util.rng import derive_rng

if TYPE_CHECKING:
    from repro.study.sharded import Shard

__all__ = ["SupervisorPolicy", "check_max_workers", "supervise_shards"]


@dataclass(frozen=True)
class SupervisorPolicy:
    """How hard to fight for each shard before quarantining it."""

    #: Total attempts per shard (first launch included).
    max_attempts: int = 3
    #: First retry backoff, seconds; grows by ``multiplier`` per failure
    #: up to ``max_delay``.
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    #: Fraction of each backoff randomized away by the per-shard seeded
    #: RNG (0 = fixed schedule, 1 = full jitter).
    jitter: float = 0.5
    #: Per-attempt wall-clock deadline, seconds; ``None`` disables the
    #: watchdog (a hung worker then blocks the study forever — only safe
    #: when no hang fault is possible, e.g. unit tests).
    watchdog_s: float | None = None
    #: Exhausted shards are quarantined (study completes partially) when
    #: True; with False the study raises :class:`StudyError` instead.
    quarantine: bool = True

    def __post_init__(self) -> None:
        try:
            # Reuse RetryPolicy's validation + backoff math rather than
            # re-deriving it; deadline/budget are per-shard concerns the
            # supervisor tracks itself, so any valid stand-ins do.
            retry = RetryPolicy(
                max_attempts=self.max_attempts,
                base_delay=self.base_delay,
                max_delay=self.max_delay,
                multiplier=self.multiplier,
                jitter=self.jitter,
            )
        except ValidationError as exc:
            raise StudyError(f"invalid supervisor policy: {exc}") from exc
        object.__setattr__(self, "_retry", retry)
        if self.watchdog_s is not None and self.watchdog_s <= 0:
            raise StudyError(
                f"watchdog_s must be positive or None, got {self.watchdog_s}"
            )

    def backoff(self, failures: int, rng) -> float:
        """Seconds to wait before relaunching after the ``failures``-th
        failure (1-based); jitter draws come from ``rng``."""
        return self._retry.backoff(failures, rng)  # type: ignore[attr-defined]


def _resolve_context(mp_context: str | None):
    """Pick a start method: explicit request, else fork where available.

    Fork avoids re-importing the interpreter per worker (a shard's
    compute is often fractions of a second, so spawn startup would
    dominate); every worker is nevertheless spawn-safe, which the test
    suite exercises with an explicit ``mp_context="spawn"``.
    """
    import multiprocessing

    if mp_context is not None:
        return multiprocessing.get_context(mp_context)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _worker_main(conn, work, start: int, stop: int, faults) -> None:
    """Worker process entry: run ``work(start, stop)``, reply on ``conn``.

    ``faults`` is a picklable
    :class:`~repro.faults.shardchaos.ShardAttemptFaults` acting out this
    attempt's injected failures: hang (sleep before computing), kill
    (run one index at a time and SIGKILL self once the payloads hold
    ``kill_after_runs`` records), or corrupt (reply with a marker the
    caller's validation must reject).  Real failures follow the same
    wire shape — any exception becomes an ``("error", message)`` reply,
    and a death without a reply surfaces as EOF on the pipe.
    """
    try:
        if faults is not None and faults.hang_s is not None:
            time.sleep(faults.hang_s)
        if faults is not None and faults.kill_after_runs is not None:
            done = 0
            for index in range(start, stop):
                done += len(work(index, index + 1))
                if done >= faults.kill_after_runs:
                    break
            os.kill(os.getpid(), signal.SIGKILL)
        payload = work(start, stop)
        if faults is not None and faults.corrupt:
            payload = CORRUPT_MARKER
        conn.send(("ok", payload))
    except BaseException as exc:  # noqa: BLE001 — everything must be reported
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


class _Attempt:
    """Mutable bookkeeping for one shard's attempts."""

    __slots__ = (
        "shard", "rng", "attempts", "process", "conn", "started", "deadline",
    )

    def __init__(self, shard: "Shard", rng):
        self.shard = shard
        #: Per-shard backoff-jitter stream: one shard's retries never
        #: perturb another's schedule.
        self.rng = rng
        self.attempts = 0
        self.process = None
        self.conn = None
        self.started = 0.0
        self.deadline: float | None = None


def check_max_workers(max_workers: int | None) -> None:
    """Reject a worker cap below 1 (``None`` means one worker per shard).

    The study and fleet entry points call this before choosing between
    the in-process and the sharded path, so a bad cap fails the same way
    at any shard count.
    """
    if max_workers is not None and max_workers < 1:
        raise ValidationError(f"workers must be >= 1, got {max_workers}")


def supervise_shards(
    plan: Sequence["Shard"],
    work: Callable[["Shard"], Callable[[int, int], object]],
    validate: Callable[["Shard", object], bool],
    on_complete: Callable[["Shard", object, float], None],
    on_exhausted: Callable[["Shard", int, str, str], None],
    policy: SupervisorPolicy,
    seed: int,
    *,
    on_retry: Callable[["Shard", int, str, str, float], None] | None = None,
    max_workers: int | None = None,
    mp_context: str | None = None,
    chaos: ShardFaultPlan | None = None,
) -> None:
    """Run every shard of ``plan`` in its own supervised worker process.

    ``work(shard)`` builds the picklable callable the worker runs as
    ``call(start, stop)`` — a :func:`functools.partial` over a
    module-level function, so it survives any start method — and its
    return value is the shard's payload.  A payload that passes
    ``validate(shard, payload)`` is handed to
    ``on_complete(shard, payload, elapsed_s)`` in the parent.  A worker
    that dies, errors, exceeds ``policy.watchdog_s``, or returns a
    payload ``validate`` rejects costs that shard an attempt: it is
    relaunched after ``policy.backoff`` (jitter from
    ``derive_rng(seed, "shard-supervisor", shard.index)``), with
    ``on_retry(shard, attempts, reason, detail, backoff_s)`` told first,
    until ``policy.max_attempts`` is spent; then
    ``on_exhausted(shard, attempts, reason, detail)`` decides — raise to
    fail the run, return to drop the shard.  ``reason`` is one of
    ``killed``, ``watchdog``, ``corrupt`` or ``error``.

    ``max_workers`` caps concurrent workers (default: one per shard);
    ``mp_context`` forces a start method.  ``chaos`` injects its seeded
    per-(shard, attempt) worker faults and its driver SIGINT after the
    n-th completion.  On every exit — normal return, an exception from a
    callback, a real or injected ``KeyboardInterrupt`` — every running
    worker is killed and reaped, so an aborted run leaks no processes.
    """
    from multiprocessing.connection import wait

    check_max_workers(max_workers)
    ctx = _resolve_context(mp_context)
    workers = min(len(plan), max_workers or len(plan))
    pending = deque(
        _Attempt(shard, derive_rng(seed, "shard-supervisor", shard.index))
        for shard in plan
    )
    retry_due: list[tuple[float, _Attempt]] = []
    running: dict = {}
    completions = 0

    def launch(task: _Attempt) -> None:
        task.attempts += 1
        faults = (
            chaos.worker_faults(task.shard.index, task.attempts)
            if chaos is not None and chaos.active
            else None
        )
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(
                send_conn, work(task.shard), task.shard.start, task.shard.stop,
                faults,
            ),
            daemon=True,
            name=f"uucs-shard-{task.shard.index}",
        )
        proc.start()
        # Drop the parent's copy of the send end, or a dead worker
        # would never surface as EOF on the receive end.
        send_conn.close()
        task.process = proc
        task.conn = recv_conn
        task.started = time.perf_counter()
        task.deadline = (
            task.started + policy.watchdog_s
            if policy.watchdog_s is not None
            else None
        )
        running[recv_conn] = task

    def reap(task: _Attempt, kill: bool = False) -> int | None:
        """Tear one attempt down; return the worker's exit code."""
        running.pop(task.conn, None)
        try:
            task.conn.close()
        except OSError:
            pass
        proc = task.process
        if kill and proc.is_alive():
            proc.kill()
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
        return proc.exitcode

    def failed(task: _Attempt, reason: str, detail: str) -> None:
        if task.attempts >= policy.max_attempts:
            on_exhausted(task.shard, task.attempts, reason, detail)
            return
        delay = policy.backoff(task.attempts, task.rng)
        if on_retry is not None:
            on_retry(task.shard, task.attempts, reason, detail, delay)
        retry_due.append((time.perf_counter() + delay, task))

    try:
        while pending or retry_due or running:
            now = time.perf_counter()
            if retry_due:
                pending.extend(task for due, task in retry_due if due <= now)
                retry_due[:] = [item for item in retry_due if item[0] > now]
            while pending and len(running) < workers:
                launch(pending.popleft())
            if not running:
                if retry_due:
                    time.sleep(max(0.0, min(due for due, _ in retry_due) - now))
                continue
            waits = [
                t.deadline - now for t in running.values() if t.deadline is not None
            ]
            if retry_due:
                waits.append(min(due for due, _ in retry_due) - now)
            timeout = max(0.0, min(waits)) if waits else None
            for conn in wait(list(running), timeout=timeout):
                task = running[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    exitcode = reap(task)
                    failed(
                        task, "killed",
                        f"worker died without replying (exitcode {exitcode})",
                    )
                    continue
                reap(task)
                kind, payload = (
                    message if isinstance(message, tuple) and len(message) == 2
                    else ("error", f"malformed worker reply: {message!r}")
                )
                if kind == "ok" and validate(task.shard, payload):
                    elapsed = time.perf_counter() - task.started
                    on_complete(task.shard, payload, elapsed)
                    completions += 1
                    if chaos is not None and chaos.driver_sigint(completions):
                        raise KeyboardInterrupt(
                            f"injected driver SIGINT after shard completion "
                            f"{completions}"
                        )
                elif kind == "ok":
                    failed(task, "corrupt", "worker returned a damaged batch")
                else:
                    failed(task, "error", str(payload))
            now = time.perf_counter()
            for task in [
                t for t in running.values()
                if t.deadline is not None and now >= t.deadline
            ]:
                reap(task, kill=True)
                failed(
                    task, "watchdog", f"watchdog expired after {policy.watchdog_s}s"
                )
    finally:
        # Leak-proof teardown on *every* exit path: kill and reap
        # whatever is still running so an aborted run leaves no orphan
        # workers behind.
        for task in list(running.values()):
            reap(task, kill=True)
