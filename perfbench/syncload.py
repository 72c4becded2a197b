"""Closed-loop hot-sync load: two clients, each waiting for its ack.

Each sync uploads one task block (the 8 runs one simulated participant
made in one task, produced by the batch engine in set-up and placed in
the client's local result store) and asks for ``want=8`` testcases.
About one sync in ten loses its ack: the server commits the block but
the client never sees the reply, so the client resends the same
``sync_seq`` and runs, and the server must answer ``accepted=0,
duplicates=8``.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_replays

CLIENTS = 2
BLOCK_RUNS = 8
WANT = 8
REPLAY_SHARE = 0.1


def make_blocks(seed: int, count: int):
    """``count`` task blocks of real batch-engine runs (4 per simulated
    participant), each with its runs' canonical JSON."""
    from repro.study.controlled import ControlledStudyConfig, run_user_range

    users = -(-count // 4)
    config = ControlledStudyConfig(n_users=users, seed=seed, engine="batch")
    groups: dict[tuple[str, str], list] = {}
    for run in run_user_range(config, 0, users):
        groups.setdefault((run.context.user_id, run.context.task), []).append(run)
    blocks = [runs for runs in groups.values() if len(runs) == BLOCK_RUNS][:count]
    return [(runs, [run.to_json() for run in runs]) for runs in blocks]


class AckDropTransport:
    """Forwards each request; when ``drop_next`` is set the reply is lost."""

    def __init__(self, inner):
        self.inner = inner
        self.drop_next = False
        self.last: dict = {}

    def request(self, message):
        from repro.errors import TransportError

        response = self.inner.request(message)
        payload = response.payload
        self.last = {k: payload.get(k) for k in ("accepted", "duplicates", "sync_seq")}
        if self.drop_next:
            self.drop_next = False
            raise TransportError("ack lost")
        return response

    def close(self):
        self.inner.close()


@dataclass
class SyncLoad:
    latencies_s: list = field(default_factory=list)
    #: Canonical JSON of every run the server committed.
    committed: list = field(default_factory=list)
    replies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    problems: list = field(default_factory=list)

    def merge(self, other: "SyncLoad") -> None:
        self.latencies_s += other.latencies_s
        self.committed += other.committed
        self.replies += other.replies
        self.attempted += other.attempted
        self.failed += other.failed
        self.busy_s = max(self.busy_s, other.busy_s)
        self.problems += other.problems


def _client_loop(client, transport, blocks, rng, deadline, load: SyncLoad) -> None:
    from repro.errors import ReproError, TransportError

    started = time.perf_counter()
    for index, (runs, canonical) in enumerate(blocks):
        if index and time.monotonic() >= deadline:
            break
        client.results.extend(runs)
        lose_ack = rng.random() < REPLAY_SHARE
        transport.drop_next = lose_ack
        load.attempted += 1
        try:
            if lose_ack:
                try:
                    client.hot_sync()
                    raise RuntimeError("the reply was not dropped")
                except TransportError:
                    pass
                load.committed += canonical
            began = time.perf_counter()
            downloaded, uploaded = client.hot_sync()
            load.latencies_s.append(time.perf_counter() - began)
        except (ReproError, OSError, RuntimeError) as exc:
            load.failed += 1
            load.problems.append(f"sync raised {type(exc).__name__}: {exc}")
            continue
        problems = []
        if lose_ack:
            load.replies.append(dict(transport.last))
            problems += check_replays([transport.last], BLOCK_RUNS)
        elif uploaded == BLOCK_RUNS:
            load.committed += canonical
        if uploaded != BLOCK_RUNS or downloaded != WANT:
            problems.append(f"sync uploaded {uploaded}, downloaded {downloaded}")
        if problems:
            load.failed += 1
            load.problems += problems
    load.busy_s = time.perf_counter() - started


def drive(address, blocks, seed: int, workdir: Path, deadline: float, transport_factory=None) -> SyncLoad:
    """Run the clients against ``address``: client ``c`` uploads blocks
    ``c, c + CLIENTS, ...``, stopping early at ``deadline`` (monotonic)."""
    from repro.client.client import ClientConfig, UUCSClient
    from repro.server.server import TCPClientTransport

    factory = transport_factory or (lambda: TCPClientTransport(*address))
    loads, threads, transports = [], [], []
    try:
        for c in range(CLIENTS):
            transport = AckDropTransport(factory())
            transports.append(transport)
            client = UUCSClient(
                ClientConfig(root=workdir / f"client{c}", user_id=f"bench-{c}", sync_want=WANT),
                transport,
                seed=seed * 100 + c,
            )
            client.register({"host": f"bench-{c}"})
            load = SyncLoad()
            loads.append(load)
            threads.append(threading.Thread(
                target=_client_loop,
                args=(client, transport, blocks[c::CLIENTS], random.Random(seed * 100 + c), deadline, load),
                name=f"perfbench-client-{c}",
            ))
        for thread in threads:
            thread.start()
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
        for transport in transports:
            transport.close()
    total = SyncLoad()
    for load in loads:
        total.merge(load)
    return total
