"""Unit tests for the batch engine's building blocks."""

import numpy as np
import pytest

from repro.core.exercise import constant, ramp
from repro.core.resources import Resource
from repro.core.testcase import Testcase
from repro.study import batch as batch_mod
from repro.study.batch import _fire_steps, _fire_steps_monotone, _level_array


class TestLevelArray:
    def test_same_length_function(self):
        tc = Testcase.single("t", ramp(Resource.CPU, 2.0, 10.0, 1.0))
        arr = _level_array(tc, Resource.CPU, 10)
        assert np.array_equal(arr, tc.functions[Resource.CPU].values)

    def test_short_function_pads_like_levels_at(self):
        tc = Testcase(
            "t",
            {
                Resource.CPU: constant(Resource.CPU, 1.0, 5.0, 1.0),
                Resource.DISK: constant(Resource.DISK, 2.0, 10.0, 1.0),
            },
        )
        arr = _level_array(tc, Resource.CPU, 10)
        # Matches Testcase.levels_at at every step, including the boundary
        # step at exactly the short function's duration.
        for i in range(10):
            assert arr[i] == tc.levels_at(float(i))[Resource.CPU], i


def _fire(levels, threshold, delay, dt):
    """Both batch fire scans on one user; the monotone closed form only
    where its precondition (a non-decreasing series) holds.  -1 means
    the poll loop never fires."""
    levels = np.asarray(levels)
    th, de = np.array([threshold]), np.array([delay])
    generic = int(_fire_steps(levels, th, de, dt)[0])
    if np.all(np.diff(levels) >= 0):
        assert int(_fire_steps_monotone(levels, th, de, dt)[0]) == generic
    return generic


class TestThresholdFireStep:
    def test_immediate_fire_with_zero_delay_equivalent(self):
        levels = np.array([0.0, 1.0, 2.0, 3.0])
        # delay shorter than one sample: fires at the crossing sample.
        assert _fire(levels, 1.5, 0.0, 1.0) == 2

    def test_delay_postpones(self):
        levels = np.array([0.0, 2.0, 2.0, 2.0, 2.0])
        assert _fire(levels, 1.5, 2.0, 1.0) == 3

    def test_dip_resets_the_clock(self):
        levels = np.array([2.0, 2.0, 0.0, 2.0, 2.0, 2.0])
        # Crossing at 0 is reset by the dip at 2; the run from 3 matures
        # at index 5 (2 seconds after crossing at 3).
        assert _fire(levels, 1.5, 2.0, 1.0) == 5

    def test_never_fires_below_threshold(self):
        levels = np.array([0.1, 0.2, 0.3])
        assert _fire(levels, 1.0, 0.0, 1.0) == -1

    def test_never_fires_when_runs_too_short(self):
        levels = np.array([2.0, 0.0, 2.0, 0.0, 2.0, 0.0])
        assert _fire(levels, 1.5, 1.0, 1.0) == -1

    def test_exact_equality_counts_as_crossing(self):
        levels = np.array([0.0, 1.5])
        assert _fire(levels, 1.5, 0.0, 1.0) == 1

    def test_sub_second_rates(self):
        levels = np.full(20, 2.0)
        # rate 4 Hz (dt 0.25): 1.0 s delay elapses at index 4.
        assert _fire(levels, 1.0, 1.0, 0.25) == 4


class TestLevelArrayBoundaryBothEngines:
    """The "sample exactly at a short function's duration reads the
    final value" rule, pinned for _level_array and the batch cell plan
    built on it."""

    def _short_testcase(self):
        # CPU function ends at t=5 inside a 10-second testcase: step 5
        # samples t == duration exactly, steps 6+ are past the end.
        return Testcase(
            "t",
            {
                Resource.CPU: constant(Resource.CPU, 1.0, 5.0, 1.0),
                Resource.DISK: constant(Resource.DISK, 2.0, 10.0, 1.0),
            },
        )

    def test_boundary_step_reads_final_value_then_zero(self):
        arr = _level_array(self._short_testcase(), Resource.CPU, 10)
        assert arr[4] == 1.0   # last in-range sample
        assert arr[5] == 1.0   # t == duration: still the final value
        assert np.all(arr[6:] == 0.0)  # strictly past the end

    def test_batch_engine_shares_the_same_level_arrays(self):
        from repro.machine import SimulatedMachine
        from repro.apps import get_task
        from repro.users.behavior import BehaviorParams
        from repro.users.tolerance import paper_calibrated_table

        # The cell plan's level arrays must match Testcase.levels_at on
        # this boundary, step for step.
        tc = self._short_testcase()
        machine = SimulatedMachine()
        task = get_task("word")
        cell = batch_mod._CellPlan(
            "word", tc, machine, task,
            machine.interactivity_model(task),
            paper_calibrated_table(), BehaviorParams(),
        )
        for resource in tc.functions:
            expected = [
                tc.levels_at(float(i))[resource]
                for i in range(cell.n_steps)
            ]
            assert cell.level_arrays[resource].tolist() == expected

    def test_boundary_affects_fire_scans_identically(self):
        # A threshold held through the boundary sample: the scan must
        # fire at exactly step m, the last step at the final value.
        tc = self._short_testcase()
        arr = _level_array(tc, Resource.CPU, 10)
        assert _fire(arr, 1.0, 4.5, 1.0) == 5
