"""Execution-driven GPU simulator (the hardware substitution substrate).

The paper ran on an NVIDIA C2050; this environment has no GPU.  Per the
substitution rule, the simulator preserves the quantities the paper's
argument rests on — flops, DRAM bytes, shared-memory transactions, kernel
launch counts, occupancy, PCIe transfers — and converts them to time with
a calibrated roofline + wave-scheduling model.  Numerics remain real:
kernels execute genuine NumPy arithmetic while their launches are costed.
"""

from .counters import Counters
from .device import (
    C2050,
    COREI7_4CORE,
    CPUSpec,
    DeviceSpec,
    GTX480,
    NEHALEM_8CORE,
    PCIE_GEN2,
    PCIeLink,
)
from .block_machine import BlockCounters, BlockMachine, SharedMemory
from .concurrent import (
    ConcurrentTimeline,
    ScheduledLaunch,
    list_schedule_graph,
    occupancy_weight,
)
from .schedule import EventSchedule, Task
from .launch import LaunchSpec, LaunchTiming, occupancy_blocks_per_sm, time_launch
from .timeline import Event, Timeline
from .trace import kernel_summary, render_profile

__all__ = [
    "Counters",
    "C2050",
    "COREI7_4CORE",
    "CPUSpec",
    "DeviceSpec",
    "GTX480",
    "NEHALEM_8CORE",
    "PCIE_GEN2",
    "PCIeLink",
    "LaunchSpec",
    "LaunchTiming",
    "occupancy_blocks_per_sm",
    "time_launch",
    "Event",
    "Timeline",
    "ConcurrentTimeline",
    "ScheduledLaunch",
    "list_schedule_graph",
    "occupancy_weight",
    "BlockCounters",
    "BlockMachine",
    "SharedMemory",
    "kernel_summary",
    "render_profile",
    "EventSchedule",
    "Task",
]
