"""The traced run: per-layer metrics from spans around each layer's calls.

Every traced run traces all three workloads, whichever one was named,
so each traced result carries every per-layer metric.  For each
workload it first runs the commands untraced as a user runs them (the
reference outputs and times), then calls the same public functions in
this process with :class:`tracer.Tracer` wrappers installed.  Outputs
of the two must be identical; the tracing overhead is the traced wall
time minus the untraced one for the same work.

Metric names follow the ``src/repro`` module that owns the call.  Names
ending in ``_s`` are self times (the span minus its traced children),
except ``study.sharded_s``, ``scheduler.fleet_s`` and
``analysis.report_s``, which are whole calls whose parts are reported
separately.
"""

from __future__ import annotations

import contextlib
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import syncload
from checks import check_server_store, file_digest
from programs import Context, run_command
import workloads
from tracer import Tracer
from workloads import Result, _harvest_args

#: ``-X importtime`` launches whose medians give the import metrics.
IMPORT_PROBES = 3


def _layer(result: Result, name: str, value: float, unit: str = "s") -> None:
    result.metrics[name] = (value, unit)
    result.figure(name, value, unit)


def _importtime(ctx: Context) -> dict[str, float]:
    """Cumulative import seconds per module from one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        cwd=ctx.work, env=ctx.env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import repro.cli failed: {proc.stderr[-300:]}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", line)
        if match:
            cumulative[match.group(2)] = int(match.group(1)) / 1e6
    return cumulative


def trace_setup(ctx: Context, result: Result) -> None:
    probes = [_importtime(ctx) for _ in range(IMPORT_PROBES)]
    _layer(result, "cli.import_s", statistics.median(p["repro.cli"] for p in probes))
    _layer(result, "util.stats_import_s", statistics.median(p["repro.util.stats"] for p in probes))


def trace_study_analyze(ctx: Context, result: Result, out: Path) -> None:
    import repro.analysis.fullreport as fullreport
    import repro.study.controlled as controlled
    import repro.study.sharded as sharded
    from repro.core.run import TestcaseRun
    from repro.stores import ResultStore
    from repro.study.checkpoint import StudyCheckpoint
    from repro.study.supervisor import SupervisorPolicy
    from repro.telemetry import Telemetry, use_telemetry

    # Untraced references: the study with and without telemetry, then
    # analyze, each as a user runs it.
    base = ["study", "--users", workloads.STUDY_USERS, "--seed", ctx.seed, "--engine", "batch",
            "--shards", workloads.STUDY_SHARDS]
    log = ctx.work / "ref.events.jsonl"
    study = run_command(ctx, base + ["--telemetry", log, "--results", ctx.work / "ref"])
    quiet = run_command(ctx, base + ["--results", ctx.work / "ref-quiet"])
    analyze = run_command(ctx, ["analyze", "--results", ctx.work / "ref"])
    for label, outcome in (("study", study), ("study without telemetry", quiet), ("analyze", analyze)):
        result.attempted += 1
        if not outcome.ok:
            result.failed += 1
            result.problems.append(f"untraced {label} exit {outcome.rc}: {outcome.stderr.strip()[-300:]}")
    logs = sorted(ctx.work.glob("ref.events*.jsonl"))
    _layer(result, "telemetry.events", sum(p.read_bytes().count(b"\n") for p in logs), "count")
    _layer(result, "telemetry.log_bytes", sum(p.stat().st_size for p in logs), "B")
    _layer(result, "telemetry.study_overhead_s", study.command_s - quiet.command_s)

    config = controlled.ControlledStudyConfig(n_users=workloads.STUDY_USERS, seed=ctx.seed, engine="batch")

    def study_then_analyze(label: str, span):
        """The study as ``_cmd_study`` runs it (supervised shards,
        checkpoint, telemetry with per-shard worker logs), then what
        ``_cmd_analyze`` runs; times and the report."""
        store = ResultStore(ctx.work / label)
        hub = Telemetry.to_path(ctx.work / f"{label}.events.jsonl")
        began = time.perf_counter()
        try:
            with span("study.sharded"), use_telemetry(hub):
                sharded.run_sharded_study(
                    config, shards=workloads.STUDY_SHARDS, supervisor=SupervisorPolicy(),
                    checkpoint=StudyCheckpoint(store), worker_telemetry=ctx.work / f"{label}.events",
                )
        finally:
            hub.close()
        middle = time.perf_counter()
        runs = list(store)
        with span("analysis.report"):
            report = fullreport.full_report(runs, include_cdf_plots=True)
        return middle - began, time.perf_counter() - middle, store.path, report

    untraced = study_then_analyze("untraced", lambda name: contextlib.nullcontext())
    sections = {
        "breakdown_table": "analysis.breakdown",
        "aggregate_cdf": "analysis.cdf",
        "render_cdf": "analysis.cdf",
        "metric_tables": "analysis.metric_tables",
        "sensitivity_grid": "analysis.sensitivity",
        "skill_level_differences": "analysis.factors",
        "skill_table": "analysis.factors",
        "ramp_vs_step": "analysis.dynamics",
        "answer_questions": "analysis.questions",
    }
    tracer, simulate = Tracer(), Tracer()
    try:
        for owner in (controlled, sharded):
            tracer.patch(owner, "study_fixtures", "study.fixtures")
        tracer.patch(controlled, "sample_population", "users.population")
        tracer.patch(TestcaseRun, "to_json", "core.serialize")
        tracer.patch(ResultStore, "append_serialized", "stores.write")
        tracer.patch(ResultStore, "__iter__", "stores.read", iterator=True)
        tracer.patch(TestcaseRun, "from_json", "core.parse")
        for attr, name in sections.items():
            tracer.patch(fullreport, attr, name)
        traced = study_then_analyze("traced", tracer.span)
        tracer.restore()
        simulate.patch(controlled, "study_fixtures", "study.fixtures")
        simulate.patch(controlled, "sample_population", "users.population")
        for shard in sharded.shard_ranges(workloads.STUDY_USERS, workloads.STUDY_SHARDS):
            with simulate.span("study.simulate"):
                controlled.run_user_range(config, shard.start, shard.stop)
    finally:
        tracer.restore()
        simulate.restore()

    reference = ctx.work / "ref" / "results.jsonl"
    for label, (_, _, path, report) in (("untraced in-process", untraced), ("traced", traced)):
        result.attempted += 1
        if (study.ok and file_digest(path) != file_digest(reference)) or (
            analyze.ok and report + "\n" != analyze.stdout
        ):
            result.failed += 1
            result.problems.append(f"{label} study store or report differs from the uucs commands' output")

    own = tracer.self_times()
    total = tracer.totals()
    _layer(result, "users.population_s", own.get("users.population", 0.0))
    _layer(result, "study.fixtures_s", own.get("study.fixtures", 0.0))
    _layer(result, "study.simulate_s", simulate.self_times().get("study.simulate", 0.0))
    _layer(result, "study.sharded_s", total.get("study.sharded", 0.0))
    _layer(result, "core.serialize_s", own.get("core.serialize", 0.0))
    _layer(result, "stores.write_s", own.get("stores.write", 0.0))
    _layer(result, "stores.read_s", own.get("stores.read", 0.0))
    _layer(result, "core.parse_s", own.get("core.parse", 0.0))
    _layer(result, "analysis.report_s", total.get("analysis.report", 0.0))
    for name in sorted(set(sections.values())):
        _layer(result, f"{name}_s", own.get(name, 0.0))
    _layer(result, "trace.study_analyze.overhead_s", sum(traced[:2]) - sum(untraced[:2]))
    tracer.dump(out / "trace-study_analyze.jsonl")


def trace_harvest(ctx: Context, result: Result, out: Path) -> None:
    import repro.scheduler.fleet as fleet
    from repro.scheduler.policy import SCHEDULER_POLICIES
    from repro.study.sharded import shard_ranges
    from repro.telemetry import Telemetry, use_telemetry
    from repro.users import SimulatedUser

    board_path = ctx.work / "ref-scoreboard.json"
    ref = run_command(ctx, _harvest_args(ctx, workloads.HARVEST_SHARDS, board_path))
    result.attempted += 1
    if not ref.ok:
        result.failed += 1
        result.problems.append(f"untraced harvest exit {ref.rc}: {ref.stderr.strip()[-300:]}")
    config = fleet.FleetConfig(policy="cdf", clients=workloads.HARVEST_CLIENTS, epochs=workloads.HARVEST_EPOCHS, seed=ctx.seed)
    plan = shard_ranges(workloads.HARVEST_CLIENTS, workloads.HARVEST_SHARDS)

    # The untraced in-process simulation is the base of the overhead.
    began = time.perf_counter()
    for shard in plan:
        fleet.simulate_clients(config, shard.start, shard.stop)
    untraced = time.perf_counter() - began

    tracer = Tracer()
    hub = Telemetry.to_path(ctx.work / "traced-harvest.events.jsonl")
    try:
        with tracer.span("scheduler.fleet"), use_telemetry(hub):
            board = fleet.run_fleet(config, shards=workloads.HARVEST_SHARDS)
        policy = SCHEDULER_POLICIES["cdf"]
        tracer.patch(policy, "decide", "scheduler.decide")
        tracer.patch(policy, "on_discomfort", "scheduler.feedback")
        tracer.patch(policy, "on_comfortable", "scheduler.feedback")
        tracer.patch(fleet, "sample_profile", "users.profile")
        tracer.patch(SimulatedUser, "threshold_for", "users.threshold")
        began = time.perf_counter()
        for shard in plan:
            with tracer.span("scheduler.simulate"):
                fleet.simulate_clients(config, shard.start, shard.stop)
        traced = time.perf_counter() - began
    finally:
        tracer.restore()
        hub.close()
    result.attempted += 1
    if ref.ok and board.to_json() != board_path.read_text():
        result.failed += 1
        result.problems.append("traced scoreboard differs from the untraced one")

    own = tracer.self_times()
    _layer(result, "scheduler.simulate_s", own.get("scheduler.simulate", 0.0))
    _layer(result, "scheduler.fleet_s", tracer.totals().get("scheduler.fleet", 0.0))
    _layer(result, "scheduler.decide_s", own.get("scheduler.decide", 0.0))
    _layer(result, "scheduler.feedback_s", own.get("scheduler.feedback", 0.0))
    _layer(result, "users.profile_s", own.get("users.profile", 0.0))
    _layer(result, "users.threshold_s", own.get("users.threshold", 0.0))
    _layer(result, "scheduler.decisions", board.decisions, "count")
    admitted = sum(cell.admitted for cell in board.cells)
    _layer(result, "scheduler.admitted_ratio", admitted / board.decisions, "ratio")
    _layer(result, "trace.harvest.overhead_s", traced - untraced)
    tracer.dump(out / "trace-harvest.jsonl")


class _Server:
    """The objects ``_cmd_serve`` builds for ``uucs serve --library L
    --metrics-port 0``, hosted in this process."""

    def __init__(self, ctx: Context, root: Path):
        from repro.net import default_backend, serve_transport
        from repro.server.server import UUCSServer
        from repro.study.internet import generate_library
        from repro.telemetry import Telemetry
        from repro.telemetry.exporter import MetricsExporter

        self.telemetry = Telemetry()
        self.server = UUCSServer(root, seed=ctx.seed, telemetry=self.telemetry)
        self.server.add_testcases(generate_library(workloads.SYNC_LIBRARY, seed=ctx.seed))
        self.transport = serve_transport(self.server, backend=default_backend(), host="127.0.0.1", port=0)
        self.exporter = MetricsExporter(
            self.server.telemetry.metrics, "127.0.0.1", 0,
            rollups=self.server.rollups, stale_after=30.0, evict_after=300.0,
        )

    def close(self) -> None:
        self.transport.close()
        self.exporter.close()
        self.telemetry.close()


def _sync_pass(ctx: Context, result: Result, blocks, label: str, tracer: Tracer | None):
    root = ctx.work / f"server-{label}"
    server = _Server(ctx, root)
    factory = None
    if tracer is not None:
        from repro.server.server import TCPClientTransport

        def factory():
            transport = TCPClientTransport(*server.transport.address)
            transport.request = tracer.wrap(transport.request, "client.request")
            return transport
    try:
        began = time.perf_counter()
        load = syncload.drive(
            server.transport.address, blocks, ctx.seed, ctx.work / f"clients-{label}",
            deadline=float("inf"), transport_factory=factory,
        )
        wall = time.perf_counter() - began
    finally:
        server.close()
    store_problems = check_server_store(root / "results" / "results.jsonl", load.committed)
    result.attempted += load.attempted + 1
    result.failed += load.failed + (1 if store_problems else 0)
    result.problems += [f"{label} hot sync: {p}" for p in load.problems + store_problems]
    shutil.rmtree(root, ignore_errors=True)
    shutil.rmtree(ctx.work / f"clients-{label}", ignore_errors=True)
    return load, wall


def trace_hot_sync(ctx: Context, result: Result, out: Path) -> None:
    import repro.net.dispatcher as dispatcher
    import repro.server.server as server_module
    from repro.client.client import UUCSClient
    from repro.core.run import TestcaseRun
    from repro.net.dispatcher import RequestDispatcher
    from repro.stores import ResultStore

    # One round of the untraced workload, once untraced and once traced.
    blocks = syncload.make_blocks(ctx.seed, syncload.CLIENTS * workloads.SYNCS_PER_ROUND)
    _, untraced = _sync_pass(ctx, result, blocks, "untraced", None)

    tracer = Tracer()
    request_bytes = [0]

    def in_sync():
        return tracer.inside("client.hot_sync")

    def in_handle():
        return tracer.inside("server.handle")

    try:
        tracer.patch(UUCSClient, "hot_sync", "client.hot_sync")
        tracer.patch(ResultStore, "__iter__", "client.local_store", when=in_sync, iterator=True)
        tracer.patch(ResultStore, "drain", "client.local_store", when=in_sync)
        tracer.patch(TestcaseRun, "to_dict", "client.encode", when=in_sync)
        tracer.patch(server_module, "encode_message", "client.encode")
        tracer.patch(server_module, "decode_message", "client.decode")
        tracer.patch(RequestDispatcher, "dispatch_line", "server.dispatch")
        dispatch = RequestDispatcher.dispatch_line

        def counted(self, line):
            request_bytes[0] += len(line)
            return dispatch(self, line)

        RequestDispatcher.dispatch_line = counted
        tracer.patch(dispatcher, "decode_message", "server.decode")
        tracer.patch(dispatcher, "encode_message", "server.encode")
        tracer.patch(server_module.UUCSServer, "handle", "server.handle")
        tracer.patch(TestcaseRun, "from_dict", "server.from_dict", when=in_handle)
        tracer.patch(ResultStore, "extend", "server.store_append", when=in_handle)
        load, traced = _sync_pass(ctx, result, blocks, "traced", tracer)
    finally:
        tracer.restore()

    own = tracer.self_times()
    total = tracer.totals()
    _layer(result, "client.local_store_s", own.get("client.local_store", 0.0))
    _layer(result, "client.encode_s", own.get("client.encode", 0.0))
    for name in ("decode", "handle", "from_dict", "store_append", "encode"):
        _layer(result, f"server.{name}_s", own.get(f"server.{name}", 0.0))
    _layer(result, "net.wait_s", own.get("client.request", 0.0) - total.get("server.dispatch", 0.0))
    _layer(result, "server.request_bytes", request_bytes[0], "B")
    accepted = len(load.committed)
    duplicates = sum(reply["duplicates"] for reply in load.replies)
    _layer(result, "server.accepted_ratio", accepted / (accepted + duplicates), "ratio")
    _layer(result, "server.duplicates", duplicates, "count")
    _layer(result, "trace.hot_sync.overhead_s", traced - untraced)
    tracer.dump(out / "trace-hot_sync.jsonl")


def run(ctx: Context) -> Result:
    """Trace every workload, whichever one the command line named.

    The hot-sync pass starts server threads, so it runs after the passes
    that fork shard workers.
    """
    out = ctx.root / ".perfbench_trace"
    out.mkdir(exist_ok=True)
    result = Result()
    trace_setup(ctx, result)
    for step in (trace_study_analyze, trace_harvest, trace_hot_sync):
        step(ctx, result, out)
    return result
