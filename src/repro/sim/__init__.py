"""Deterministic discrete-event simulation substrate.

Provides the virtual-time kernel, generator-based processes, message
network, CPU contention models, and memory accounting on which the
Cassandra-like system model (:mod:`repro.cassandra`) and the scale-check
machinery (:mod:`repro.core`) are built.
"""

from .events import Event, EventQueue
from .kernel import (
    Acquire,
    Channel,
    Compute,
    Effect,
    Get,
    Join,
    KernelObserver,
    Lock,
    Process,
    SimError,
    Simulator,
    Timeout,
)
from .cpu import CpuModel, DedicatedCpu, PilCpu, ProcessorSharingCpu, SharedCpu
from .disk import (
    BlockRecord,
    DataEmulationPolicy,
    Disk,
    DiskFullError,
    ZeroByteEmulation,
)
from .memory import (
    GB,
    MB,
    Allocation,
    MachineMemory,
    NodeMemoryProfile,
    OutOfMemoryError,
    single_process_profile,
)
from .network import LatencyModel, Message, Network
from .rng import SplittableRng, derive_seed

__all__ = [
    "Acquire",
    "Allocation",
    "BlockRecord",
    "Channel",
    "Compute",
    "CpuModel",
    "DataEmulationPolicy",
    "DedicatedCpu",
    "Disk",
    "DiskFullError",
    "ZeroByteEmulation",
    "Effect",
    "Event",
    "EventQueue",
    "GB",
    "Get",
    "Join",
    "KernelObserver",
    "LatencyModel",
    "Lock",
    "MB",
    "MachineMemory",
    "Message",
    "Network",
    "NodeMemoryProfile",
    "OutOfMemoryError",
    "PilCpu",
    "Process",
    "ProcessorSharingCpu",
    "SharedCpu",
    "SimError",
    "Simulator",
    "SplittableRng",
    "Timeout",
    "derive_seed",
    "single_process_profile",
]
