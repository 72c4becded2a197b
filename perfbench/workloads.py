"""The three workloads, run as a user runs them (tracing off).

Each returns a :class:`Result`: the end-to-end metrics, the per-workload
figures printed for people, the operations attempted and failed, and
the problems the output checks found.
"""

from __future__ import annotations

import shutil
import statistics
import time
from dataclasses import dataclass, field

from checks import (
    RUNS_PER_USER,
    check_server_store,
    check_study_store,
    file_digest,
    odd_ones_out,
)
from programs import Context, ForkServer, Server
import calib
import syncload

#: The first operations of study_analyze and harvest run as fresh
#: processes (set-up samples and warm-up); the rest in forks of a
#: set-up launcher, so a run times many more commands.
FRESH_OPS = 1
#: study_analyze: participants per study (32 runs each).
STUDY_USERS = 16
STUDY_SHARDS = 2
#: harvest: a seeded fleet of this many clients over this many epochs.
HARVEST_CLIENTS = 1000
HARVEST_EPOCHS = 32
HARVEST_SHARDS = 2
#: hot_sync: the testcase library each server incarnation serves, and
#: the syncs each client makes against one incarnation.  Fixed work per
#: incarnation keeps its peak RSS independent of how fast the machine is
#: (the server's memory grows with every sync it serves).
SYNC_LIBRARY = 1024
SYNCS_PER_ROUND = 60
#: hot_sync: calibration samples before each round (a round is several
#: seconds, so it takes more than one to match the other workloads).
CALIB_PER_ROUND = 3


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)
    figures: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def figure(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.figures.append((name, value, unit, note))


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else _median(values)


def _report(result: Result, setups: list, op_s: list, calib_s: list, rss: list) -> None:
    setups = [s for s in setups if s == s]  # a launch that failed has no set-up time
    result.metrics = {
        "setup_s": (_median(setups), "s"),
        "op_p50_rel": (_median(op_s) / _median(calib_s), "ratio"),
        "peak_rss_mb": (max(rss) if rss else float("nan"), "MB"),
    }
    result.figure("setup_s", _median(setups), "s", f"median of {len(setups)} launches")
    result.figure("op_p50_ms", _median(op_s) * 1000.0, "ms", f"median of {len(op_s)}")
    result.figure("calib_p50_ms", _median(calib_s) * 1000.0, "ms", f"median of {len(calib_s)}")
    result.figure("peak_rss_mb", result.metrics["peak_rss_mb"][0], "MB")


def _finish(result: Result) -> Result:
    rate = result.failed / result.attempted if result.attempted else 1.0
    result.figure("error_rate", rate, "ratio", f"{result.failed} of {result.attempted} operations")
    return result


def study_analyze(ctx: Context) -> Result:
    """``uucs study`` (batch engine, 2 shards, telemetry on), then
    ``uucs analyze`` with plots, repeated on the same seed."""
    result = Result()
    setups, study_s, analyze_s, calib_s, rss = [], [], [], [], []
    digests, reports, failed_ops = [], [], set()
    first_store = None
    with calib.Calibrator() as calibrator, ForkServer(ctx) as forks:
        setups.append(forks.setup_s)
        deadline = time.monotonic() + ctx.seconds
        while not digests or time.monotonic() < deadline:
            op = len(digests)
            fresh = op < FRESH_OPS
            calibrator.sample(calib_s)
            store = ctx.work / f"study{op}"
            study = forks.run([
                "study", "--users", STUDY_USERS, "--seed", ctx.seed, "--engine", "batch",
                "--shards", STUDY_SHARDS, "--telemetry", ctx.work / f"study{op}.events.jsonl",
                "--results", store,
            ], fresh)
            analyze = forks.run(["analyze", "--results", store], fresh) if study.ok else None
            results = store / "results.jsonl"
            digests.append(file_digest(results) if results.exists() else "")
            reports.append(analyze.stdout if analyze is not None and analyze.ok else "")
            if not study.ok or analyze is None or not analyze.ok:
                failed_ops.add(op)
                bad = analyze if study.ok and analyze is not None else study
                result.problems.append(f"op {op}: exit {bad.rc}: {bad.stderr.strip()[-300:]}")
                continue
            if fresh:
                setups += [study.setup_s, analyze.setup_s]
                rss += [study.rss_mb, analyze.rss_mb]
            study_s.append(study.command_s)
            analyze_s.append(analyze.command_s)
            if first_store is None:
                first_store = results
                result.figure("store_bytes_per_run", results.stat().st_size / (RUNS_PER_USER * STUDY_USERS), "B")
            else:
                shutil.rmtree(store)
            for log in ctx.work.glob(f"study{op}.events*"):
                log.unlink()
    result.attempted = len(digests)
    if first_store is not None:
        problems = check_study_store(first_store, STUDY_USERS)
        if problems:
            result.problems += problems
            failed_ops.update(range(len(digests)))
    completed = [op for op in range(len(digests)) if op not in failed_ops]
    for label, values in (("store digest", digests), ("analyze report", reports)):
        for k in odd_ones_out([values[op] for op in completed]):
            result.problems.append(f"op {completed[k]}: {label} differs from the other runs of this seed")
            failed_ops.add(completed[k])
    result.failed = len(failed_ops)
    ops = [s + a for s, a in zip(study_s, analyze_s)]
    _report(result, setups, ops, calib_s, rss)
    result.figure("study_s", _median(study_s), "s", f"median of {len(study_s)}")
    result.figure("analyze_s", _median(analyze_s), "s", f"median of {len(analyze_s)}")
    return _finish(result)


def _harvest_args(ctx: Context, shards: int, out) -> list:
    return [
        "harvest", "--policy", "cdf", "--clients", HARVEST_CLIENTS,
        "--epochs", HARVEST_EPOCHS, "--seed", ctx.seed, "--shards", shards,
        "--out", out, "--telemetry", ctx.work / "harvest.events.jsonl",
    ]


def harvest(ctx: Context) -> Result:
    """``uucs harvest --policy cdf --shards 2`` over a seeded fleet,
    repeated; then once with one shard to check the scoreboard."""
    result = Result()
    setups, harvest_s, calib_s, rss, boards = [], [], [], [], []
    failed = 0
    with calib.Calibrator() as calibrator, ForkServer(ctx) as forks:
        setups.append(forks.setup_s)
        deadline = time.monotonic() + ctx.seconds
        while not boards or time.monotonic() < deadline:
            fresh = len(boards) < FRESH_OPS
            calibrator.sample(calib_s)
            out = ctx.path("scoreboard")
            run = forks.run(_harvest_args(ctx, HARVEST_SHARDS, out), fresh)
            boards.append(out.read_text() if run.ok and out.exists() else "")
            out.unlink(missing_ok=True)
            (ctx.work / "harvest.events.jsonl").unlink(missing_ok=True)
            if not run.ok:
                failed += 1
                result.problems.append(f"harvest exit {run.rc}: {run.stderr.strip()[-300:]}")
                continue
            if fresh:
                setups.append(run.setup_s)
                rss.append(run.rss_mb)
            harvest_s.append(run.command_s)
        # The shard-count check is one more operation, outside the metrics
        # but for its set-up time.
        out = ctx.path("scoreboard")
        single = forks.run(_harvest_args(ctx, 1, out), fresh=True)
    if single.ok:
        setups.append(single.setup_s)
    boards.append(out.read_text() if single.ok and out.exists() else "")
    result.attempted = len(boards)
    if not single.ok:
        result.problems.append(f"one-shard harvest exit {single.rc}: {single.stderr.strip()[-300:]}")
    completed = [op for op, board in enumerate(boards) if board]
    for k in odd_ones_out([boards[op] for op in completed]):
        op = completed[k]
        result.problems.append(
            f"scoreboard {op} differs from the other runs of this seed"
            + (" (the one-shard run)" if op == len(boards) - 1 else "")
        )
        failed += 1
    result.failed = failed + (0 if single.ok else 1)
    _report(result, setups, harvest_s, calib_s, rss)
    result.figure("harvest_s", _median(harvest_s), "s", f"median of {len(harvest_s)}")
    return _finish(result)


def hot_sync(ctx: Context) -> Result:
    """``uucs serve`` with two closed-loop clients, in rounds until the
    time is up; each round is a fresh server (one set-up sample) that
    serves ``SYNCS_PER_ROUND`` syncs per client."""
    result = Result()
    blocks = syncload.make_blocks(ctx.seed, SYNCS_PER_ROUND)[: syncload.CLIENTS * SYNCS_PER_ROUND]
    setups, calib_s, rss = [], [], []
    load = syncload.SyncLoad()
    busy = 0.0
    with calib.Calibrator() as calibrator:
        deadline = time.monotonic() + ctx.seconds
        r = 0
        while r == 0 or time.monotonic() < deadline:
            for _ in range(CALIB_PER_ROUND):
                calibrator.sample(calib_s)
            root = ctx.work / f"server{r}"
            server = Server(ctx, [
                "--root", root, "--library", SYNC_LIBRARY, "--seed", ctx.seed, "--metrics-port", 0,
            ])
            round_load = syncload.SyncLoad()
            try:
                if server.address is not None:
                    setups.append(server.setup_s)
                    round_load = syncload.drive(
                        server.address, blocks, ctx.seed + r, ctx.work / f"clients{r}", deadline,
                    )
            finally:
                rc, peak, stderr = server.stop()
            # The server's exit and its store are one more operation per round.
            round_load.attempted += 1
            if server.address is None or rc != 0:
                round_load.failed += 1
                round_load.problems.append(f"server round {r} exit {rc}: {stderr.strip()[-300:]}")
            else:
                rss.append(peak)
                store_problems = check_server_store(root / "results" / "results.jsonl", round_load.committed)
                if store_problems:
                    round_load.failed += 1
                    round_load.problems += store_problems
            busy += round_load.busy_s
            load.merge(round_load)
            shutil.rmtree(root, ignore_errors=True)
            shutil.rmtree(ctx.work / f"clients{r}", ignore_errors=True)
            r += 1
    result.attempted, result.failed = load.attempted, load.failed
    result.problems += load.problems
    _report(result, setups, load.latencies_s, calib_s, rss)
    lat_ms = [x * 1000.0 for x in load.latencies_s]
    result.figure("sync_p50_ms", _median(lat_ms), "ms", f"{len(lat_ms)} syncs")
    result.figure("sync_p90_ms", _p90(lat_ms), "ms", f"{len(lat_ms)} syncs")
    result.figure("syncs_per_s", len(lat_ms) / busy if busy else float("nan"), "1/s",
                  f"{syncload.CLIENTS} clients, closed loop")
    result.figure("replayed_syncs", len(load.replies), "count", "each answered accepted=0, duplicates=8")
    result.figure("rounds", r, "count", "server incarnations")
    return _finish(result)


WORKLOADS = {"study_analyze": study_analyze, "harvest": harvest, "hot_sync": hot_sync}
