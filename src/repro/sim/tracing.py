"""Time-series tracing for experiments.

The paper's evaluation is entirely time-series based: Figures 3 and 4 plot
RMTTF, workload fraction ``f_i`` and client response time against time for
each policy.  :class:`TraceRecorder` collects named series during a run;
:class:`TraceSeries` wraps one series with the post-processing the analysis
needs (resampling, smoothing, convergence detection inputs).

Series are accumulated in plain lists during the run (appends dominate) and
converted to NumPy arrays lazily on first access, per the vectorisation
guidance: keep the hot recording path allocation-free, batch the numerics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.obs.manifest import RunManifest


@dataclass
class TraceSeries:
    """One named time series: parallel arrays of times and values."""

    name: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ValueError(
                f"series {self.name!r}: times {self.times.shape} and values "
                f"{self.values.shape} differ in shape"
            )
        if self.times.size > 1 and np.any(np.diff(self.times) < 0):
            raise ValueError(f"series {self.name!r}: times must be non-decreasing")

    def __len__(self) -> int:
        return int(self.times.size)

    # -------------------------------------------------------------- #
    # transforms
    # -------------------------------------------------------------- #

    def window(self, t_start: float, t_end: float) -> "TraceSeries":
        """Sub-series with ``t_start <= t <= t_end``."""
        mask = (self.times >= t_start) & (self.times <= t_end)
        return TraceSeries(self.name, self.times[mask], self.values[mask])

    def tail_fraction(self, fraction: float) -> "TraceSeries":
        """The last ``fraction`` of the series by *time span* (0 < f <= 1)."""
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if len(self) == 0:
            return self
        t0, t1 = float(self.times[0]), float(self.times[-1])
        return self.window(t1 - fraction * (t1 - t0), t1)

    # -------------------------------------------------------------- #
    # statistics
    # -------------------------------------------------------------- #

    def mean(self) -> float:
        """Arithmetic mean of the values (nan for empty series)."""
        return float(np.mean(self.values)) if len(self) else float("nan")

    def std(self) -> float:
        """Population standard deviation of the values."""
        return float(np.std(self.values)) if len(self) else float("nan")

    def max(self) -> float:
        return float(np.max(self.values)) if len(self) else float("nan")

    def min(self) -> float:
        return float(np.min(self.values)) if len(self) else float("nan")

    def oscillation_index(self) -> float:
        """Mean absolute step-to-step change, normalised by the value scale.

        Used to quantify the paper's qualitative statements about ``f_i``
        being "subject to oscillations" (Policy 1) versus "less-oscillating"
        (Policy 2).  Zero for a constant series; grows with jitter.
        """
        if len(self) < 2:
            return 0.0
        steps = np.abs(np.diff(self.values))
        scale = max(float(np.mean(np.abs(self.values))), 1e-12)
        return float(np.mean(steps) / scale)


class TraceRecorder:
    """Collects many named series during a simulation run.

    Recording is append-only and cheap; :meth:`series` freezes a snapshot
    into a :class:`TraceSeries`.
    """

    def __init__(self) -> None:
        self._times: dict[str, list[float]] = {}
        self._values: dict[str, list[float]] = {}

    def record(self, name: str, time: float, value: float) -> None:
        """Append ``(time, value)`` to the series called ``name``."""
        if name not in self._times:
            self._times[name] = []
            self._values[name] = []
        self._times[name].append(float(time))
        self._values[name].append(float(value))

    def record_many(self, time: float, values: dict[str, float]) -> None:
        """Record several series at the same instant."""
        for name, value in values.items():
            self.record(name, time, value)

    def names(self) -> list[str]:
        """Sorted names of all recorded series."""
        return sorted(self._times)

    def __contains__(self, name: str) -> bool:
        return name in self._times

    def series(self, name: str) -> TraceSeries:
        """Snapshot the series called ``name`` as arrays.

        Raises
        ------
        KeyError
            If nothing was recorded under ``name``.
        """
        if name not in self._times:
            known = ", ".join(self.names())
            raise KeyError(f"no trace series {name!r}; recorded: {known}")
        return TraceSeries(
            name,
            np.asarray(self._times[name], dtype=float),
            np.asarray(self._values[name], dtype=float),
        )

    def matching(self, prefix: str) -> dict[str, TraceSeries]:
        """All series whose name starts with ``prefix``, keyed by full name."""
        return {n: self.series(n) for n in self.names() if n.startswith(prefix)}

    def merge(self, other: "TraceRecorder") -> None:
        """Append all series of ``other`` into this recorder."""
        for name in other.names():
            s = other.series(name)
            for t, v in zip(s.times, s.values):
                self.record(name, float(t), float(v))

    # -------------------------------------------------------------- #
    # export (for external plotting of the figure series)
    # -------------------------------------------------------------- #

    def to_csv(
        self,
        path: str,
        names: list[str] | None = None,
        manifest: "RunManifest | None" = None,
    ) -> None:
        """Write series as long-format CSV: ``series,time,value`` rows.

        ``names`` restricts the export (default: everything).  Long format
        keeps ragged series (different sampling instants) lossless.  A
        ``manifest`` (seed, config digest, version) is embedded as a
        leading ``# manifest: {...}`` comment so the artifact states how
        to regenerate itself; read it back with
        :func:`read_csv_manifest`.
        """
        selected = names if names is not None else self.names()
        missing = [n for n in selected if n not in self]
        if missing:
            raise KeyError(f"no such series: {missing}")
        with open(path, "w", encoding="utf-8") as fh:
            if manifest is not None:
                fh.write(f"# manifest: {manifest.to_json()}\n")
            fh.write("series,time,value\n")
            for name in selected:
                s = self.series(name)
                for t, v in zip(s.times, s.values):
                    fh.write(f"{name},{float(t)!r},{float(v)!r}\n")

    @classmethod
    def from_csv(cls, path: str) -> "TraceRecorder":
        """Inverse of :meth:`to_csv` (leading ``#`` comments are skipped)."""
        rec = cls()
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            while header.startswith("#"):
                header = fh.readline().strip()
            if header != "series,time,value":
                raise ValueError(f"unexpected CSV header {header!r}")
            for line_no, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    name, t, v = line.rsplit(",", 2)
                    rec.record(name, float(t), float(v))
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{line_no}: malformed row {line!r}"
                    ) from exc
        return rec


def read_csv_manifest(path: str) -> dict | None:
    """The run manifest embedded in a trace CSV, or None if absent."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# manifest:"):
                return json.loads(line.split(":", 1)[1])
            if not line.startswith("#"):
                return None
    return None
