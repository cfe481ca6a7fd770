"""The embedded-GPU cost model, evaluated over many configurations at once.

This module holds the only copy of the cost model.  It covers the
mechanisms the paper identifies as responsible for the observed
behaviour:

* **throughput** — a kernel's time is the larger of its arithmetic time
  and its memory time (roofline style), scaled by how well the kernel's
  workgroup shape uses the SIMD lanes (``vector_efficiency``) and the
  cache (``memory_locality``);
* **utilisation** — kernels with too few work items cannot fill the
  GPU's compute units (the tiny remainder kernels the ACL GEMM split
  produces run at a fraction of peak);
* **kernel launch and job dispatch overhead** — every kernel pays a
  launch cost and every GPU job requires CPU-GPU communication and
  initialisation; the paper's Section IV-B shows this "often outweighs
  the benefits of dispatching workloads to accelerators".

A :class:`KernelBatch` holds the kernels of many configurations as flat
NumPy arrays (struct of arrays).  The libraries build one directly over
a vector of channel counts (``plan_counts``), without a
:class:`~repro.gpusim.kernel.Kernel` object per kernel;
:meth:`KernelBatch.from_plans` flattens plans a caller already holds.
:func:`simulate_batch` evaluates the model over the whole batch in a
handful of vectorized operations; per-configuration aggregates (kernel
time, dispatch time, total time) are segment reductions over the flat
kernel arrays.  :class:`~repro.gpusim.simulator.GpuSimulator` is the
one-plan view: a batch of one, read back as Python objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .device import DeviceSpec
from .kernel import Kernel, KernelPlan, WorkgroupSize

#: Utilisation never drops below this floor: even a single workgroup
#: keeps one compute unit partially busy.
_MIN_UTILIZATION = 0.02

#: A per-configuration value: one scalar for every count, or an array.
ColumnValue = Union[int, float, np.ndarray]


@dataclass(frozen=True)
class KernelKind:
    """The labels a batch keeps per kernel instead of arrays."""

    name: str
    workgroup: WorkgroupSize
    dispatches_job: bool
    tag: str


@dataclass(frozen=True)
class KernelColumn:
    """One kernel position of a library's plan over a vector of counts.

    Every value is either a scalar (the same at every count) or an array
    with one entry per count.  ``kind`` indexes the library's kind table;
    ``present`` masks the counts whose plan dispatches this kernel
    (``None``: all of them).
    """

    kind: ColumnValue
    arithmetic_instructions: ColumnValue
    memory_instructions: ColumnValue
    work_items: ColumnValue
    vector_efficiency: ColumnValue = 1.0
    memory_locality: ColumnValue = 1.0
    present: Optional[np.ndarray] = None


@dataclass(frozen=True)
class KernelBatch:
    """The kernels of many planned configurations as flat arrays.

    Kernel ``i`` of configuration ``c`` lives at flat index
    ``offsets[c] + i``: configurations in order, each one's kernels in
    dispatch order.  Instruction counts and work items are int64,
    efficiencies float64; ``kinds`` indexes ``kind_table``.  The notes
    are a table of distinct strings, ``note_table``, and configuration
    ``c``'s :attr:`KernelPlan.notes` is ``note_table[note_index[c]]``.
    """

    offsets: np.ndarray
    arithmetic_instructions: np.ndarray
    memory_instructions: np.ndarray
    work_items: np.ndarray
    vector_efficiency: np.ndarray
    memory_locality: np.ndarray
    kinds: np.ndarray
    kind_table: Tuple[KernelKind, ...]
    #: GPU jobs dispatched per configuration.
    job_counts: np.ndarray
    note_table: Tuple[str, ...]
    note_index: np.ndarray

    def __len__(self) -> int:
        return len(self.note_index)

    @property
    def notes(self) -> Tuple[str, ...]:
        """Each configuration's :attr:`KernelPlan.notes` string."""

        return tuple(map(self.note_table.__getitem__, self.note_index.tolist()))

    @classmethod
    def assemble(
        cls,
        kind_table: Sequence[KernelKind],
        columns: Sequence[KernelColumn],
        note_keys: np.ndarray,
        note_of: Callable[[np.ndarray], Iterable[str]],
    ) -> "KernelBatch":
        """Flatten per-count kernel columns into configuration-major arrays.

        ``note_keys`` holds one integer per configuration, equal exactly
        where the notes are; ``note_of`` formats the notes of an
        ascending array of distinct keys, so each note is formatted once.
        """

        keys, note_index = np.unique(note_keys, return_inverse=True)
        count = len(note_index)
        present = np.ones((count, len(columns)), dtype=bool)
        for index, column in enumerate(columns):
            if column.present is not None:
                present[:, index] = column.present

        def table(field: str, dtype) -> np.ndarray:
            values = np.empty((count, len(columns)), dtype=dtype)
            for index, column in enumerate(columns):
                values[:, index] = getattr(column, field)
            return values

        kinds = table("kind", np.intp)
        dispatches = np.array([kind.dispatches_job for kind in kind_table], dtype=bool)
        return cls(
            offsets=np.concatenate(([0], np.cumsum(present.sum(axis=1)))),
            arithmetic_instructions=table("arithmetic_instructions", np.int64)[present],
            memory_instructions=table("memory_instructions", np.int64)[present],
            work_items=table("work_items", np.int64)[present],
            vector_efficiency=table("vector_efficiency", np.float64)[present],
            memory_locality=table("memory_locality", np.float64)[present],
            kinds=kinds[present],
            kind_table=tuple(kind_table),
            job_counts=(dispatches[kinds] & present).sum(axis=1),
            note_table=tuple(note_of(keys)),
            note_index=note_index,
        )

    @classmethod
    def from_plans(cls, plans: Iterable[KernelPlan]) -> "KernelBatch":
        """The batch of plans a caller already holds, one configuration each."""

        plans = tuple(plans)
        kernels = [kernel for plan in plans for kernel in plan]
        notes: Dict[str, int] = {}
        note_index = [notes.setdefault(plan.notes, len(notes)) for plan in plans]
        table: Dict[KernelKind, int] = {}
        kinds = [
            table.setdefault(
                KernelKind(k.name, k.workgroup, k.dispatches_job, k.tag), len(table)
            )
            for k in kernels
        ]
        return cls(
            offsets=np.cumsum([0] + [len(plan) for plan in plans]),
            arithmetic_instructions=np.array(
                [k.arithmetic_instructions for k in kernels], dtype=np.int64
            ),
            memory_instructions=np.array(
                [k.memory_instructions for k in kernels], dtype=np.int64
            ),
            work_items=np.array([k.work_items for k in kernels], dtype=np.int64),
            vector_efficiency=np.array(
                [k.vector_efficiency for k in kernels], dtype=np.float64
            ),
            memory_locality=np.array([k.memory_locality for k in kernels], dtype=np.float64),
            kinds=np.array(kinds, dtype=np.intp),
            kind_table=tuple(table),
            job_counts=np.array([plan.job_count for plan in plans], dtype=np.int64),
            note_table=tuple(notes),
            note_index=np.array(note_index, dtype=np.intp),
        )

    def plan(self, index: int, library: str, layer_name: str) -> KernelPlan:
        """Configuration ``index`` as a :class:`KernelPlan` of plain Python values."""

        rows = slice(self.offsets[index], self.offsets[index + 1])
        kernels = tuple(
            Kernel(
                name=kind.name,
                arithmetic_instructions=arith,
                memory_instructions=mem,
                work_items=work_items,
                workgroup=kind.workgroup,
                vector_efficiency=efficiency,
                memory_locality=locality,
                dispatches_job=kind.dispatches_job,
                tag=kind.tag,
            )
            for kind, arith, mem, work_items, efficiency, locality in zip(
                [self.kind_table[k] for k in self.kinds[rows].tolist()],
                self.arithmetic_instructions[rows].tolist(),
                self.memory_instructions[rows].tolist(),
                self.work_items[rows].tolist(),
                self.vector_efficiency[rows].tolist(),
                self.memory_locality[rows].tolist(),
            )
        )
        return KernelPlan(
            library=library, layer_name=layer_name, kernels=kernels,
            notes=self.note_table[self.note_index[index]],
        )


@dataclass(frozen=True)
class BatchSimulationResult:
    """Vectorized simulation of a :class:`KernelBatch` on one device.

    Per-kernel quantities are flat arrays aligned with the batch's
    kernels; per-configuration aggregates are arrays of length
    ``len(batch)``.
    """

    device: DeviceSpec
    batch: KernelBatch
    arithmetic_time_s: np.ndarray
    memory_time_s: np.ndarray
    utilization: np.ndarray

    def __len__(self) -> int:
        return len(self.batch)

    @property
    def offsets(self) -> np.ndarray:
        """Segment boundaries: configuration ``c`` owns kernels ``offsets[c]:offsets[c+1]``."""

        return self.batch.offsets

    @property
    def job_counts(self) -> np.ndarray:
        """GPU jobs dispatched per configuration (drives the dispatch-overhead term)."""

        return self.batch.job_counts

    # ------------------------------------------------------------------
    # Per-kernel quantities
    # ------------------------------------------------------------------
    @property
    def compute_time_s(self) -> np.ndarray:
        """Roofline time per kernel: the slower of the two pipes."""

        return np.maximum(self.arithmetic_time_s, self.memory_time_s)

    @property
    def kernel_counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    # ------------------------------------------------------------------
    # Per-configuration aggregates
    # ------------------------------------------------------------------
    def _segment_sum(self, values: np.ndarray) -> np.ndarray:
        if not len(self):
            return np.zeros(0)
        return np.add.reduceat(values, self.offsets[:-1])

    @property
    def kernel_time_s(self) -> np.ndarray:
        """Per-configuration time spent in kernels (compute + launch overhead)."""

        launch = self.device.kernel_launch_overhead_s
        return self._segment_sum(self.compute_time_s) + self.kernel_counts * launch

    @property
    def job_dispatch_time_s(self) -> np.ndarray:
        """Per-configuration time spent creating and dispatching GPU jobs."""

        return self.job_counts * self.device.job_dispatch_overhead_s

    @property
    def total_time_s(self) -> np.ndarray:
        return self.kernel_time_s + self.job_dispatch_time_s

    @property
    def total_time_ms(self) -> np.ndarray:
        return self.total_time_s * 1e3


def simulate_batch(batch: KernelBatch, device: DeviceSpec) -> BatchSimulationResult:
    """Simulate every configuration of a kernel batch in one vectorized pass.

    The cost model runs as a few NumPy array operations over all kernels
    of all configurations;
    :meth:`~repro.gpusim.simulator.GpuSimulator.simulate` is this call on
    a batch of one plan.
    """

    arith_instr = batch.arithmetic_instructions.astype(np.float64)
    mem_instr = batch.memory_instructions.astype(np.float64)
    work_items = batch.work_items.astype(np.float64)

    # Work items below the device's full-utilisation threshold leave
    # compute units idle; even a tiny kernel keeps at least one unit
    # busy, so the floor is one unit's share of the machine.
    floor = max(_MIN_UTILIZATION, 1.0 / device.compute_units)
    utilization = np.maximum(
        floor, np.minimum(1.0, work_items / device.full_utilization_work_items)
    )
    arith_throughput = (
        device.peak_arith_instructions_per_second * batch.vector_efficiency * utilization
    )
    memory_throughput = (
        device.peak_memory_instructions_per_second * batch.memory_locality * utilization
    )
    return BatchSimulationResult(
        device=device,
        batch=batch,
        arithmetic_time_s=arith_instr / arith_throughput,
        memory_time_s=mem_instr / memory_throughput,
        utilization=utilization,
    )
