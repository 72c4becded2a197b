"""Output checks.  Each returns a list of problems; empty means correct.

They compare the program's outputs with what the benchmark fed it or
with another run of the same seed, so a tampered output (a flipped
store byte, a dropped server line, a changed scoreboard) is reported.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from pathlib import Path

#: Every participant of the controlled study runs 8 testcases in each of
#: the 4 tasks.
RUNS_PER_USER = 32


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def odd_ones_out(values: list) -> list[int]:
    """Indices whose value differs from the most common one.

    Runs of one seed must agree (store digests, analyze reports,
    scoreboards); whichever disagree with the majority are wrong.
    """
    if not values:
        return []
    mode = Counter(values).most_common(1)[0][0]
    return [i for i, value in enumerate(values) if value != mode]


def check_study_store(path: Path, users: int) -> list[str]:
    """Runs = 32 x users, and ``uucs validate`` finds no error."""
    from repro.analysis.validate import validate_runs
    from repro.errors import ReproError
    from repro.stores import ResultStore

    store = ResultStore(Path(path).parent, Path(path).name)
    try:
        runs = list(store)
    except ReproError as exc:
        return [f"{path}: unreadable store: {exc}"]
    problems = []
    if len(runs) != RUNS_PER_USER * users:
        problems.append(
            f"{path}: {len(runs)} runs, expected {RUNS_PER_USER * users}"
        )
    errors = validate_runs(runs).errors
    if errors:
        problems.append(f"{path}: {len(errors)} validation errors, first: {errors[0]}")
    return problems


def check_server_store(path: Path, uploaded: list[str]) -> list[str]:
    """The server store holds exactly the multiset of uploaded runs."""
    stored = Counter(Path(path).read_text().splitlines()) if Path(path).exists() else Counter()
    expected = Counter(uploaded)
    problems = []
    missing = expected - stored
    extra = stored - expected
    if missing:
        problems.append(f"{path}: {sum(missing.values())} uploaded runs missing")
    if extra:
        problems.append(f"{path}: {sum(extra.values())} runs never uploaded (or stored twice)")
    return problems


def check_replays(replies: list[dict], block: int) -> list[str]:
    """Every resent sync is acked with nothing accepted and all duplicates."""
    return [
        f"replay {i}: accepted={r.get('accepted')} duplicates={r.get('duplicates')}, "
        f"expected 0 and {block}"
        for i, r in enumerate(replies)
        if r.get("accepted") != 0 or r.get("duplicates") != block
    ]
