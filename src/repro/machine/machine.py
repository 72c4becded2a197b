"""The simulated host: contention in, interactivity and load out.

:class:`SimulatedMachine` combines the scheduler, memory, and disk models.
Its :meth:`~SimulatedMachine.interactivity_model` returns an object
satisfying the :class:`repro.core.session.InteractivityModel` protocol for
a given foreground task, and :meth:`~SimulatedMachine.sample_load` supplies
the load measurements the UUCS client records during a run (§2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.apps.base import TaskModel
from repro.core.resources import Resource
from repro.core.session import InteractivitySample
from repro.machine.memory import memory_pressure
from repro.machine.scheduler import cpu_slowdown
from repro.machine.specs import MachineSpec

__all__ = ["LoadSample", "SimulatedMachine", "TaskInteractivityModel"]


@dataclass(frozen=True)
class LoadSample:
    """One system-monitor sample (what the client logs during a run)."""

    #: Total CPU utilization, in [0, 1].
    cpu_utilization: float
    #: Fraction of physical memory in use, in [0, 1].
    memory_used: float
    #: Fraction of disk bandwidth in use, in [0, 1].
    disk_utilization: float


class TaskInteractivityModel:
    """Interactivity of one task on one machine under applied contention.

    Implements the :class:`repro.core.session.InteractivityModel` protocol.
    Slowdown composes as (CPU ⊕ disk) × memory: CPU and disk inflate
    disjoint parts of each interaction's latency, while paging stalls
    multiply everything.
    """

    def __init__(self, machine: "SimulatedMachine", task: TaskModel):
        self._machine = machine
        self._task = task

    @property
    def task(self) -> TaskModel:
        return self._task

    @property
    def machine(self) -> "SimulatedMachine":
        return self._machine

    def interactivity(
        self, levels: Mapping[Resource, float]
    ) -> InteractivitySample:
        spec = self._machine.spec
        task = self._task
        c_cpu = float(levels.get(Resource.CPU, 0.0))
        c_mem = float(levels.get(Resource.MEMORY, 0.0))
        c_disk = float(levels.get(Resource.DISK, 0.0))

        s_cpu = cpu_slowdown(task.cpu_demand, c_cpu, spec.cpu_speed)
        pressure = memory_pressure(
            spec, task.working_set, task.memory_dynamism, c_mem
        )
        # CPU applies to the non-I/O latency fraction, disk inflates the I/O
        # fraction by (1 + c); paging stalls multiply the whole interaction.
        blended = (1.0 - task.io_fraction) * s_cpu + task.io_fraction * (
            1.0 + c_disk
        )
        slowdown = max(1.0, blended) * pressure.slowdown

        # Jitter: scheduling-quantum interference grows with how close the
        # task's *effective* demand (scaled by host speed) is to its fair
        # share, plus paging stalls, on top of the machine's baseline
        # (nonzero even when quiescent — the paper's noise-floor
        # observation for Quake).
        effective_demand = min(1.0, task.cpu_demand / spec.cpu_speed)
        if effective_demand * (1.0 + c_cpu) > 1.0:
            share_pressure = min(
                1.0, effective_demand * (1.0 + c_cpu) - 1.0
            )
        else:
            share_pressure = 0.0
        jitter = min(
            1.0,
            spec.baseline_jitter
            + 0.5 * max(0.0, share_pressure)
            + pressure.jitter,
        )
        return InteractivitySample(slowdown=float(slowdown), jitter=float(jitter))

    def interactivity_batch(
        self, levels: Mapping[Resource, "object"], n: int
    ) -> tuple["object", "object"]:
        """Vectorized :meth:`interactivity` over ``n`` steps.

        ``levels`` maps resources to length-``n`` arrays (missing
        resources mean zero contention).  Returns ``(slowdown, jitter)``
        float64 arrays that are element-for-element identical to ``n``
        scalar calls — the batch study engine depends on that, and
        the equivalence property tests enforce it.
        """
        import numpy as np

        spec = self._machine.spec
        task = self._task
        zeros = np.zeros(n)
        c_cpu = np.asarray(levels.get(Resource.CPU, zeros), dtype=float)
        c_mem = np.asarray(levels.get(Resource.MEMORY, zeros), dtype=float)
        c_disk = np.asarray(levels.get(Resource.DISK, zeros), dtype=float)

        # cpu_slowdown, vectorized with identical operation order.
        eff = min(1.0, task.cpu_demand / spec.cpu_speed)
        s_cpu = np.maximum(1.0, eff * (1.0 + c_cpu))

        # memory_pressure, vectorized with identical operation order.
        ws = min(1.0, task.working_set * 512.0 / spec.memory_mb)
        total = ws + spec.os_resident_fraction + c_mem
        overflow = np.maximum(0.0, total - 1.0)
        evictable = ws + spec.os_resident_fraction
        app_eviction = np.minimum(1.0, (overflow * ws / evictable) / ws)
        fault_fraction = task.memory_dynamism * app_eviction
        mem_slowdown = np.where(
            overflow == 0.0,
            1.0,
            1.0 + 1.0 * spec.page_fault_penalty * fault_fraction,
        )
        mem_jitter = np.where(
            overflow == 0.0,
            0.0,
            np.minimum(
                1.0, 0.5 * fault_fraction * spec.page_fault_penalty / 10.0
            ),
        )

        blended = (1.0 - task.io_fraction) * s_cpu + task.io_fraction * (
            1.0 + c_disk
        )
        slowdown = np.maximum(1.0, blended) * mem_slowdown

        pressure_term = eff * (1.0 + c_cpu)
        share_pressure = np.where(
            pressure_term > 1.0, np.minimum(1.0, pressure_term - 1.0), 0.0
        )
        jitter = np.minimum(
            1.0,
            spec.baseline_jitter
            + 0.5 * np.maximum(0.0, share_pressure)
            + mem_jitter,
        )
        return slowdown, jitter


class SimulatedMachine:
    """A simulated host with the paper's contention semantics."""

    def __init__(self, spec: MachineSpec | None = None):
        self._spec = spec if spec is not None else MachineSpec.dell_gx270()

    @property
    def spec(self) -> MachineSpec:
        return self._spec

    def interactivity_model(self, task: TaskModel) -> TaskInteractivityModel:
        """Interactivity model for ``task`` running in the foreground."""
        return TaskInteractivityModel(self, task)

    def sample_load(
        self, task: TaskModel | None, levels: Mapping[Resource, float]
    ) -> LoadSample:
        """System-monitor reading while ``levels`` of contention apply."""
        c_cpu = float(levels.get(Resource.CPU, 0.0))
        c_mem = float(levels.get(Resource.MEMORY, 0.0))
        c_disk = float(levels.get(Resource.DISK, 0.0))
        fg_demand = min(1.0, task.cpu_demand / self._spec.cpu_speed) if task else 0.0
        # Busy-loop exerciser threads soak up idle cycles up to their
        # contention level, so utilization saturates at 1.
        cpu_util = min(1.0, fg_demand + c_cpu)
        mem_used = min(
            1.0,
            self._spec.os_resident_fraction
            + (task.working_set if task else 0.0) * 512.0 / self._spec.memory_mb
            + c_mem,
        )
        disk_util = min(1.0, (task.io_fraction if task else 0.0) + c_disk / (1.0 + c_disk))
        return LoadSample(
            cpu_utilization=float(min(1.0, cpu_util)),
            memory_used=float(mem_used),
            disk_utilization=float(disk_util),
        )

    def sample_load_batch(
        self, task: TaskModel | None, levels: Mapping[Resource, "object"], n: int
    ) -> tuple["object", "object", "object"]:
        """Vectorized :meth:`sample_load` over ``n`` steps.

        Returns ``(cpu, memory, disk)`` float64 arrays, element-identical
        to ``n`` scalar calls.
        """
        import numpy as np

        zeros = np.zeros(n)
        c_cpu = np.asarray(levels.get(Resource.CPU, zeros), dtype=float)
        c_mem = np.asarray(levels.get(Resource.MEMORY, zeros), dtype=float)
        c_disk = np.asarray(levels.get(Resource.DISK, zeros), dtype=float)
        fg_demand = (
            min(1.0, task.cpu_demand / self._spec.cpu_speed) if task else 0.0
        )
        cpu = np.minimum(1.0, fg_demand + c_cpu)
        mem = np.minimum(
            1.0,
            self._spec.os_resident_fraction
            + (task.working_set if task else 0.0) * 512.0 / self._spec.memory_mb
            + c_mem,
        )
        disk = np.minimum(
            1.0,
            (task.io_fraction if task else 0.0) + c_disk / (1.0 + c_disk),
        )
        return cpu, mem, disk

    def __repr__(self) -> str:
        return f"SimulatedMachine({self._spec.name})"
