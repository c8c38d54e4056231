"""The optional sweep axes, declared once.

Every subsystem that came after the paper's scenario x policy x load x
replicate grid joined it as an optional axis whose **off value** means
"not in this run".  One rule -- the digest rule -- covers them all: an
off value contributes nothing.  No fragment in the cell name that feeds
``derive_seed``, no key in ``JobSpec.config()`` (hence in the job digest
that addresses the result store), no fragment in a label; and an axis
left at ``(off,)`` adds no key to ``SweepSpec.config()`` (hence to the
sweep manifest).  Widening a sweep by an axis therefore never moves the
seed, digest or stored result of a cell that has it off.

:data:`AXES` is the only place an axis is spelled: ``JobSpec``,
``SweepSpec``, ``cell_key`` / ``CellStats`` and the ``repro sweep`` parser
loop over it, and :func:`switched_on`, :meth:`Axis.check` and
:meth:`Axis.used` hold the only comparisons against an off value.  Table
order is a contract -- expansion order (after load, before replicate),
fragment order in names and labels, the trailing entries of ``cell_key``
-- so rows are appended, never reordered (DESIGN, "Adding a sweep axis").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

# stdlib + numpy leaves: neither imports back into ``repro.fleet``
from repro.slo.evaluator import parse_slo_spec
from repro.topology.domains import parse_domain_shape


def _check_domains(shape: str) -> None:
    if parse_domain_shape(shape) == (1, 1):
        raise ValueError(
            f"domain shape {shape!r} is the flat deployment; spell it 'flat'"
        )


@dataclass(frozen=True)
class Axis:
    """One optional grid axis over the policy cells."""

    #: ``SweepSpec`` field, spec-config key and (dashed) CLI flag
    spec_field: str
    #: ``JobSpec`` field, job-config key and ``--csv`` column
    job_field: str
    #: the "not in this run" value
    off: str
    #: prefix of an on value's cell-name and label fragments
    tag: str
    help: str
    #: raises ``ValueError`` on an ill-formed on value
    validate: Callable[[object], object] = lambda value: None

    @property
    def off_token(self) -> str:
        """The off value as typed in the flag's comma list, and the flag's
        default (an empty string cannot be typed, so it reads ``none``)."""
        return self.off or "none"

    def parse(self, token: str) -> str:
        return self.off if token == self.off_token else token

    def check(self, value: object) -> None:
        if value != self.off:
            self.validate(value)

    def used(self, values: Iterable) -> bool:
        """Whether a spec's value list departs from the default grid."""
        return tuple(values) != (self.off,)


AXES: tuple[Axis, ...] = (
    Axis(
        "domains", "domains", "flat", "domains",
        "comma list of failure-domain shapes ('flat' or 'NxM', one grid "
        "axis)",
        validate=_check_domains,
    ),
    Axis(
        "slo", "slo", "", "slo:",
        "comma list of SLO specs (one grid axis): 'none' = no SLO, else "
        "'p95:<s>' optionally extended with '+'-joined key:value pairs "
        "(exit, queue, budget, window, dwell, shed)",
        validate=parse_slo_spec,
    ),
)

#: One value per axis, every axis off: the historical grid.
ALL_OFF = tuple(axis.off for axis in AXES)
JOB_FIELDS = tuple(axis.job_field for axis in AXES)


def job_values(job) -> tuple:
    """A job's value on every axis, in table order."""
    return tuple(getattr(job, name) for name in JOB_FIELDS)


def switched_on(values: Iterable) -> list[tuple[Axis, object]]:
    """The ``(axis, value)`` pairs of ``values`` (one per axis, in table
    order) whose value is not the axis's off value."""
    return [(a, v) for a, v in zip(AXES, values) if v != a.off]


def name_suffix(values: Iterable) -> str:
    """What a cell's axis values add to its name (the seed-hash input)."""
    return "".join(f"/{a.tag}{v}" for a, v in switched_on(values))


def label_parts(values: Iterable) -> list[str]:
    """What a cell's axis values add to a job or cell label."""
    return [f"{a.tag}{v}" for a, v in switched_on(values)]
