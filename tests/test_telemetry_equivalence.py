"""Telemetry must observe, never perturb.

The acceptance bar for the telemetry subsystem: with telemetry enabled,
a controlled-study run and a client/server round-trip produce a
parseable JSON-lines event log and a Prometheus-style exposition with
the advertised families — and with telemetry disabled (the default),
study outputs are *bit-identical* to seed behavior and no log files
appear.
"""

import pytest

from repro.client.client import ClientConfig, UUCSClient
from repro.net import AsyncioServerTransport
from repro.server.server import UUCSServer
from repro.study import ControlledStudyConfig, run_controlled_study
from repro.study.internet import generate_library
from repro.telemetry import Telemetry, get_telemetry, read_events, use_telemetry
from repro.users.behavior import SimulatedUser
from repro.users.population import sample_profile
from repro.users.tolerance import paper_calibrated_table
from repro.util.rng import derive_rng


def _study_records(n_users=3, seed=99, engine="analytic"):
    result = run_controlled_study(
        ControlledStudyConfig(n_users=n_users, seed=seed, engine=engine)
    )
    return [run.to_dict() for run in result.runs]


class TestBitIdenticalWithTelemetry:
    @pytest.mark.parametrize("engine", ["analytic", "loop"])
    def test_study_identical_on_off(self, tmp_path, engine):
        baseline = _study_records(engine=engine)
        with use_telemetry(Telemetry.to_path(tmp_path / "events.jsonl")):
            instrumented = _study_records(engine=engine)
        assert instrumented == baseline

    def test_disabled_default_creates_no_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert not get_telemetry().enabled
        _study_records(n_users=1)
        assert list(tmp_path.iterdir()) == [], "telemetry leaked files"


class TestStudyEventLog:
    def test_event_log_parseable_and_complete(self, tmp_path):
        path = tmp_path / "study.jsonl"
        with use_telemetry(Telemetry.to_path(path)) as tel:
            _study_records(n_users=2)
            exposition = tel.metrics.render()
        events = read_events(path)
        names = {event.name for event in events}
        assert "session.run" in names
        assert "study.user_session" in names
        assert "study.complete" in names
        spans = [e for e in events if e.name == "span"]
        assert any(e.fields["span"] == "study.controlled" for e in spans)
        # session outcome counters and at least one latency histogram
        assert "uucs_session_runs_total" in exposition
        assert 'engine="analytic"' in exposition
        assert "uucs_session_duration_seconds_bucket" in exposition
        assert "uucs_session_wall_seconds_sum" in exposition

    def test_session_counts_match_run_counts(self, tmp_path):
        with use_telemetry(Telemetry.to_path(tmp_path / "e.jsonl")) as tel:
            records = _study_records(n_users=2)
            counter = tel.metrics.get("uucs_session_runs_total")
            total = sum(
                counter.value(engine="analytic", outcome=outcome)
                for outcome in ("discomfort", "exhausted", "aborted")
            )
        assert total == len(records)


class TestServerRoundTrip:
    def _round_trip(self, root, telemetry):
        server = UUCSServer(root / "server", seed=5, telemetry=telemetry)
        server.add_testcases(generate_library(6, seed=5))
        rng = derive_rng(11, "telemetry-rt")
        with AsyncioServerTransport(server) as listener:
            with listener.connect() as transport:
                client = UUCSClient(
                    ClientConfig(root=root / "client", user_id="u1"),
                    transport,
                    seed=rng,
                    telemetry=telemetry,
                )
                client.register({"os": "test"})
                downloaded, _ = client.hot_sync()
                assert downloaded > 0
                profile = sample_profile("u1", rng)
                user = SimulatedUser(
                    profile, paper_calibrated_table(), seed=rng
                )
                runs = client.run_random(4000.0, user)
                client.hot_sync()
        return server, runs

    def test_exposition_and_event_log(self, tmp_path):
        path = tmp_path / "server.jsonl"
        telemetry = Telemetry.to_path(path)
        server, _ = self._round_trip(tmp_path, telemetry)
        exposition = telemetry.metrics.render()
        telemetry.close()

        # server request counters, by message type
        assert 'uucs_server_requests_total{type="register"} 1' in exposition
        assert 'uucs_server_requests_total{type="sync"} 2' in exposition
        # per-message-type latency histogram
        assert 'uucs_server_request_seconds_bucket{type="sync",le="+Inf"} 2' \
            in exposition
        assert "uucs_server_registrations_total 1" in exposition
        assert "uucs_server_testcases_shipped_total" in exposition
        # client-side counters share the same registry
        assert "uucs_client_syncs_total 2" in exposition
        # TCP byte accounting moved real payloads
        read = telemetry.metrics.get("uucs_server_bytes_read_total")
        written = telemetry.metrics.get("uucs_server_bytes_written_total")
        assert read.value() > 0 and written.value() > 0

        events = read_events(path)
        spans = {e.fields["span"] for e in events if e.name == "span"}
        assert "hot_sync" in spans
        assert "client.run_random" in spans
        assert any(e.name == "server.request" for e in events)

    def test_round_trip_identical_without_telemetry(self, tmp_path):
        _, silent = self._round_trip(tmp_path / "off", None)
        telemetry = Telemetry.in_memory()
        _, observed = self._round_trip(tmp_path / "on", telemetry)
        assert [r.to_dict() for r in silent] == [r.to_dict() for r in observed]


class TestThrottleTelemetry:
    def test_ceiling_gauge_and_budget_counters(self):
        from repro.core.resources import Resource
        from repro.throttle.controller import FeedbackController
        from repro.throttle.throttle import Throttle

        telemetry = Telemetry.in_memory()
        controller = FeedbackController(
            Throttle(Resource.CPU), max_level=1.0, backoff=0.5,
            telemetry=telemetry,
        )
        gauge = telemetry.metrics.get("uucs_throttle_ceiling")
        assert gauge.value() == 1.0
        controller.on_discomfort()
        assert gauge.value() == 0.5
        controller.on_comfortable(60.0)
        assert gauge.value() == pytest.approx(0.55)
        assert telemetry.metrics.get(
            "uucs_throttle_discomfort_total"
        ).value() == 1
        assert telemetry.metrics.get(
            "uucs_throttle_budget_spent_total"
        ).value() == pytest.approx(0.5)
        backoffs = [
            e for e in telemetry.events.sink if e.name == "throttle.backoff"
        ]
        assert len(backoffs) == 1
