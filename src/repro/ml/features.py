"""Monitored system-feature schema.

F2PM's thin monitoring client samples "a large set of system features, such
as memory usage, CPU time, and swap space usage" on each VM (Sec. III).  We
fix the schema below; the same names are produced by the PCAM feature monitor
(:mod:`repro.pcam.monitor`) and consumed by the ML dataset builder, so the
whole profiling -> training -> online-prediction path shares one vocabulary.

The order of :data:`FEATURE_NAMES` is the column order of every design
matrix in the toolchain.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

#: Column order of all F2PM design matrices.
FEATURE_NAMES: tuple[str, ...] = (
    "mem_used_mb",        # resident memory used by the application
    "mem_free_mb",        # free RAM on the VM
    "swap_used_mb",       # swap space in use
    "cpu_user_pct",       # user-mode CPU utilisation
    "cpu_system_pct",     # kernel-mode CPU utilisation
    "cpu_idle_pct",       # idle CPU
    "num_threads",        # live threads of the server process
    "num_processes",      # processes on the VM
    "disk_read_mbps",     # disk read throughput
    "disk_write_mbps",    # disk write throughput
    "net_in_mbps",        # inbound network throughput
    "net_out_mbps",       # outbound network throughput
    "request_rate",       # incoming requests/second at the replica
    "response_time_ms",   # mean response time over the sampling window
    "uptime_s",           # time since last (re)start / rejuvenation
)


@dataclass(slots=True)
class FeatureVector:
    """One monitoring sample from a VM, in engineering units.

    Field order deliberately mirrors :data:`FEATURE_NAMES`.
    """

    mem_used_mb: float = 0.0
    mem_free_mb: float = 0.0
    swap_used_mb: float = 0.0
    cpu_user_pct: float = 0.0
    cpu_system_pct: float = 0.0
    cpu_idle_pct: float = 100.0
    num_threads: float = 0.0
    num_processes: float = 0.0
    disk_read_mbps: float = 0.0
    disk_write_mbps: float = 0.0
    net_in_mbps: float = 0.0
    net_out_mbps: float = 0.0
    request_rate: float = 0.0
    response_time_ms: float = 0.0
    uptime_s: float = 0.0

    def to_array(self) -> np.ndarray:
        """Dense row vector in schema order."""
        return np.array(
            [getattr(self, name) for name in FEATURE_NAMES], dtype=float
        )


# Consistency guard: dataclass fields must match the schema exactly.
assert tuple(f.name for f in fields(FeatureVector)) == FEATURE_NAMES
