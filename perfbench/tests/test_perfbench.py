"""Tests of the benchmark itself, at a tiny size.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import programs  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "STUDY_USERS", 2)
    monkeypatch.setattr(workloads, "HARVEST_CLIENTS", 40)
    monkeypatch.setattr(workloads, "HARVEST_EPOCHS", 4)
    monkeypatch.setattr(workloads, "SYNC_LIBRARY", 64)
    monkeypatch.setattr(workloads, "SYNCS_PER_ROUND", 4)
    monkeypatch.setattr(traced, "IMPORT_PROBES", 1)


def _run(capsys, workload: str, trace: int = 0):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _assert_metrics(result: dict, spec: list) -> None:
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))


@pytest.mark.parametrize("workload", ["study_analyze", "harvest", "hot_sync"])
def test_every_end_to_end_metric_is_emitted(tiny, capsys, workload):
    code, result = _run(capsys, workload)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_per_layer_metric_is_emitted(tiny, capsys):
    code, result = _run(capsys, "hot_sync", trace=1)
    assert code == 0 and result["correct"]
    _assert_metrics(result, SPEC["per_layer"])


def test_flipped_or_dropped_store_bytes_are_rejected(tmp_path):
    from repro.stores import ResultStore
    from repro.study.controlled import ControlledStudyConfig, run_user_range

    store = ResultStore(tmp_path / "good")
    store.extend(run_user_range(ControlledStudyConfig(n_users=1, seed=5, engine="batch"), 0, 1))
    good = store.path.read_bytes()
    assert checks.check_study_store(store.path, 1) == []

    flipped = bytearray(good)
    flipped[len(good) // 2] ^= 0x01
    (tmp_path / "flipped").mkdir()
    (tmp_path / "flipped" / "results.jsonl").write_bytes(bytes(flipped))
    digests = [checks.file_digest(p) for p in (store.path, store.path, tmp_path / "flipped" / "results.jsonl")]
    assert checks.odd_ones_out(digests) == [2]

    (tmp_path / "dropped").mkdir()
    dropped = tmp_path / "dropped" / "results.jsonl"
    dropped.write_bytes(b"".join(good.splitlines(keepends=True)[1:]))
    assert checks.check_study_store(dropped, 1)

    (tmp_path / "broken").mkdir()
    broken = tmp_path / "broken" / "results.jsonl"
    broken.write_bytes(good.replace(b'"run_id"', b'"run_id', 1))
    assert checks.check_study_store(broken, 1)


def test_server_store_check_rejects_dropped_or_extra_lines(tmp_path):
    uploaded = ['{"a": 1}', '{"b": 2}', '{"c": 3}']
    path = tmp_path / "results.jsonl"
    path.write_text("\n".join(reversed(uploaded)) + "\n")
    assert checks.check_server_store(path, uploaded) == []
    path.write_text("\n".join(uploaded[1:]) + "\n")
    assert checks.check_server_store(path, uploaded)
    path.write_text("\n".join(uploaded + uploaded[:1]) + "\n")
    assert checks.check_server_store(path, uploaded)


def test_replay_check_rejects_accepted_runs():
    assert checks.check_replays([{"accepted": 0, "duplicates": 8}], 8) == []
    assert checks.check_replays([{"accepted": 1, "duplicates": 7}], 8)
    assert checks.check_replays([{"accepted": 0, "duplicates": 0}], 8)


def test_dropped_server_line_fails_the_run(tiny, capsys, monkeypatch):
    real = workloads.check_server_store

    def drop_last_line(path, uploaded):
        lines = Path(path).read_text().splitlines(keepends=True)
        Path(path).write_text("".join(lines[:-1]))
        return real(path, uploaded)

    monkeypatch.setattr(workloads, "check_server_store", drop_last_line)
    code, result = _run(capsys, "hot_sync")
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    _assert_metrics(result, SPEC["end_to_end"])


def test_tampered_scoreboard_fails_the_run(tiny, capsys, monkeypatch):
    real = programs.ForkServer.run

    def tamper_one_shard_board(self, args, fresh=False):
        outcome = real(self, args, fresh)
        if "--shards" in args and args[args.index("--shards") + 1] == 1:
            out = Path(args[args.index("--out") + 1])
            out.write_text(out.read_text().replace('"decisions": ', '"decisions": 1', 1))
        return outcome

    monkeypatch.setattr(programs.ForkServer, "run", tamper_one_shard_board)
    code, result = _run(capsys, "harvest")
    assert code == 1 and not result["correct"] and result["failed"] == 1


def test_tampered_report_fails_the_run(tiny, capsys, monkeypatch):
    real = programs.ForkServer.run
    calls = []

    def tamper_second_report(self, args, fresh=False):
        outcome = real(self, args, fresh)
        if args[0] == "analyze":
            calls.append(fresh)
            if len(calls) == 2:
                outcome.stdout = outcome.stdout.replace("Figure", "Fig.", 1)
        return outcome

    monkeypatch.setattr(programs.ForkServer, "run", tamper_second_report)
    monkeypatch.setattr(workloads, "STUDY_USERS", 1)
    code = run.main(["--workload", "study_analyze", "--seed", "3", "--seconds", "8", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # The first analyze runs in a fresh process, the second in a fork.
    assert calls[:2] == [True, False]
    assert code == 1 and not result["correct"] and result["failed"] == 1


def test_forked_command_matches_a_fresh_one(tmp_path):
    ctx = programs.Context(root=ROOT, work=tmp_path, seed=3, seconds=0)
    args = ["harvest", "--policy", "cdf", "--clients", 20, "--epochs", 2, "--seed", 3, "--shards", 2]
    with programs.ForkServer(ctx) as forks:
        assert forks.setup_s > 0
        fresh = forks.run(args + ["--out", tmp_path / "fresh.json"], fresh=True)
        forked = forks.run(args + ["--out", tmp_path / "forked.json"])
        failing = forks.run(["harvest", "--policy", "no-such-policy"])
    assert fresh.ok and forked.ok and forked.setup_s == 0 and forked.command_s > 0
    assert (tmp_path / "fresh.json").read_bytes() == (tmp_path / "forked.json").read_bytes()
    assert failing.rc == 2 and "no-such-policy" in failing.stderr
    assert forks.proc.returncode == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "harvest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
