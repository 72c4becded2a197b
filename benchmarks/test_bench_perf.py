"""Engine performance benchmarks (not tied to a paper figure).

These time the hot paths a large-scale deployment of the reproduction
would care about: session simulation throughput, store and protocol I/O,
database import, and the full controlled-study pipeline.
"""

import pytest

from repro.analysis.database import ResultDatabase
from repro.client.scheduler import PoissonArrivals
from repro.core.exercise import ramp
from repro.core.resources import Resource
from repro.core.run import RunContext
from repro.core.session import run_simulated_session
from repro.core.testcase import Testcase
from repro.machine import SimulatedMachine
from repro.apps import get_task
from repro.server.protocol import Message, decode_message, encode_message
from repro.stores import ResultStore, TestcaseStore
from repro.study import ControlledStudyConfig, run_controlled_study
from repro.users import make_user, sample_population


@pytest.fixture(scope="module")
def session_parts():
    machine = SimulatedMachine()
    task = get_task("powerpoint")
    model = machine.interactivity_model(task)
    user = make_user(sample_population(1, seed=2)[0], seed=3)
    testcase = Testcase.single(
        "bench", ramp(Resource.CPU, 2.0, 120.0, 4.0), {"task": "powerpoint"}
    )
    context = RunContext(user_id="bench-user", task="powerpoint")
    return testcase, user, context, model


def test_bench_session_simulation(benchmark, session_parts):
    """One 2-minute testcase run (480 samples at 4 Hz)."""
    testcase, user, context, model = session_parts
    result = benchmark(
        run_simulated_session, testcase, user, context, model
    )
    assert result.run.testcase_duration == 120.0


def test_bench_testcase_serialization(benchmark):
    testcase = Testcase.single("t", ramp(Resource.CPU, 5.0, 120.0, 4.0))
    text = testcase.to_text()
    restored = benchmark(Testcase.from_text, text)
    assert restored.testcase_id == "t"


def test_bench_testcase_store_roundtrip(benchmark, tmp_path_factory):
    store = TestcaseStore(tmp_path_factory.mktemp("tcs"))
    testcase = Testcase.single("t", ramp(Resource.CPU, 5.0, 120.0, 4.0))

    def roundtrip():
        store.add(testcase)
        return store.get("t")

    assert benchmark(roundtrip).testcase_id == "t"


def test_bench_result_store_append(benchmark, tmp_path_factory, study_runs):
    store = ResultStore(tmp_path_factory.mktemp("res"))
    run = study_runs[0]
    benchmark(store.append, run)


def test_bench_protocol_roundtrip(benchmark, study_runs):
    message = Message(
        "sync",
        {
            "client_id": "c",
            "have": [f"t{i}" for i in range(50)],
            "results": [r.to_dict() for r in study_runs[:8]],
            "want": 8,
        },
    )
    restored = benchmark(lambda: decode_message(encode_message(message)))
    assert restored.type == "sync"


def test_bench_database_import(benchmark, study_runs):
    def import_all():
        with ResultDatabase() as db:
            return db.import_runs(study_runs)

    assert benchmark(import_all) == len(study_runs)


def test_bench_poisson_schedule(benchmark):
    arrivals = PoissonArrivals(1800.0, seed=9)
    times = benchmark(arrivals.arrivals_until, 7 * 24 * 3600.0)
    assert len(times) > 100


def test_bench_batch_engine_study(benchmark):
    """The cell-batched study engine, the default (identical runs to the
    loop engine)."""
    config = ControlledStudyConfig(n_users=4, seed=5, engine="batch")
    result = benchmark.pedantic(
        run_controlled_study, args=(config,), rounds=5, iterations=1
    )
    assert len(result.runs) == 128


def test_bench_loop_engine_study(benchmark):
    """The generic poll-loop engine, for comparison."""
    config = ControlledStudyConfig(n_users=4, seed=5, engine="loop")
    result = benchmark.pedantic(
        run_controlled_study, args=(config,), rounds=3, iterations=1
    )
    assert len(result.runs) == 128
