"""The failure-domain tree: region -> availability zone -> rack.

Every rack in the deployment gets a globally unique integer id (its
*rack id*), assigned in region declaration order, then AZ order, then
rack order.  The integer coding is deliberate: the VM state
table stores each VM's rack as one ``int64`` column, so domain-scoped
fault selection and the anti-affinity rejuvenation cap stay array
operations at fleet scale.

Domains are addressed by *path strings*::

    region2                -- a whole region
    region2/az0            -- one availability zone
    region2/az0/rack1      -- a single rack

The default topology is *flat*: one AZ with one rack per region, which
gives every VM of a region rack id equal to the region's single rack.
Flat trees change nothing about scheduling or fault injection -- golden
traces are bit-identical to the pre-topology code.

This module is deliberately dependency-free (stdlib only) so the fleet
job specs can import it for descriptor validation without pulling in
numpy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol

_SHAPE_RE = re.compile(r"(\d+)x(\d+)")


def parse_domain_shape(descriptor: str) -> tuple[int, int]:
    """Parse a per-region domain descriptor into ``(n_azs, racks_per_az)``.

    Accepted forms:

    * ``"flat"`` (or ``""``) -- one AZ, one rack: the default topology;
    * ``"NxM"`` -- N availability zones with M racks each, e.g. ``"2x2"``.

    The descriptor is the value carried by the fleet sweep's ``domains``
    axis, so it must stay short, canonical, and order-free.
    """
    if descriptor in ("", "flat"):
        return (1, 1)
    m = _SHAPE_RE.fullmatch(descriptor)
    if m is None:
        raise ValueError(
            f"bad domain descriptor {descriptor!r}: expected 'flat' or 'NxM'"
        )
    n_azs, racks_per_az = int(m.group(1)), int(m.group(2))
    if n_azs < 1 or racks_per_az < 1:
        raise ValueError(
            f"bad domain descriptor {descriptor!r}: counts must be >= 1"
        )
    return (n_azs, racks_per_az)


@dataclass(frozen=True, slots=True)
class RackInfo:
    """One rack's position in the hierarchy."""

    rack_id: int
    region: str
    az: int
    rack: int

    @property
    def az_path(self) -> str:
        """Path of the rack's availability zone (``region/azN``)."""
        return f"{self.region}/az{self.az}"

    @property
    def path(self) -> str:
        """Full rack path (``region/azN/rackM``)."""
        return f"{self.region}/az{self.az}/rack{self.rack}"


class _SpecLike(Protocol):
    name: str


class FailureDomainTree:
    """Region -> AZ -> rack hierarchy with integer-coded racks.

    Parameters
    ----------
    shape:
        Ordered mapping ``region -> (n_azs, racks_per_az)``.  Region
        order fixes rack-id assignment, so it must be deterministic
        (dict insertion order is the contract, same as region declaration
        order in a scenario).
    """

    def __init__(self, shape: Mapping[str, tuple[int, int]]) -> None:
        if not shape:
            raise ValueError("need at least one region")
        self._shape: dict[str, tuple[int, int]] = {}
        self._racks: list[RackInfo] = []
        self._region_racks: dict[str, list[int]] = {}
        self._path_racks: dict[str, list[int]] = {}
        for region, (n_azs, racks_per_az) in shape.items():
            if n_azs < 1 or racks_per_az < 1:
                raise ValueError(
                    f"region {region!r}: n_azs and racks_per_az must be >= 1"
                )
            self._shape[region] = (int(n_azs), int(racks_per_az))
            ids: list[int] = []
            for az in range(n_azs):
                for rack in range(racks_per_az):
                    info = RackInfo(len(self._racks), region, az, rack)
                    self._racks.append(info)
                    ids.append(info.rack_id)
                    self._path_racks[info.path] = [info.rack_id]
                    self._path_racks.setdefault(info.az_path, []).append(
                        info.rack_id
                    )
            self._region_racks[region] = ids
            self._path_racks[region] = ids

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def flat(cls, regions: Iterable[str]) -> "FailureDomainTree":
        """The default degenerate tree: one AZ with one rack per region."""
        return cls({region: (1, 1) for region in regions})

    @classmethod
    def from_specs(cls, specs: Iterable[_SpecLike]) -> "FailureDomainTree":
        """Build from region specs carrying ``n_azs``/``racks_per_az``.

        Specs without those fields (older callers) get the flat shape.
        """
        return cls(
            {
                spec.name: (
                    getattr(spec, "n_azs", 1),
                    getattr(spec, "racks_per_az", 1),
                )
                for spec in specs
            }
        )

    @classmethod
    def uniform(
        cls, regions: Iterable[str], n_azs: int, racks_per_az: int
    ) -> "FailureDomainTree":
        """Same ``(n_azs, racks_per_az)`` shape for every region."""
        return cls({region: (n_azs, racks_per_az) for region in regions})

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #

    @property
    def regions(self) -> tuple[str, ...]:
        """Region names in declaration (rack-id assignment) order."""
        return tuple(self._shape)

    @property
    def n_racks(self) -> int:
        """Total rack count across all regions."""
        return len(self._racks)

    def is_flat(self) -> bool:
        """True when every region has exactly one AZ with one rack."""
        return all(shape == (1, 1) for shape in self._shape.values())

    def rack(self, rack_id: int) -> RackInfo:
        """The :class:`RackInfo` for a global rack id."""
        if not 0 <= rack_id < len(self._racks):
            raise KeyError(f"no rack with id {rack_id}")
        return self._racks[rack_id]

    def rack_path(self, rack_id: int) -> str:
        """Full domain path of a rack id (``region/azN/rackM``)."""
        return self.rack(rack_id).path

    def region_of(self, rack_id: int) -> str:
        """Region owning the given rack id."""
        return self.rack(rack_id).region

    def az_path_of(self, rack_id: int) -> str:
        """AZ path (``region/azN``) owning the given rack id."""
        return self.rack(rack_id).az_path

    def racks_in(self, domain: str) -> tuple[int, ...]:
        """Rack ids under a domain path (region, AZ path, or rack path)."""
        try:
            return tuple(self._path_racks[domain])
        except KeyError:
            raise KeyError(f"unknown failure domain {domain!r}") from None

    def region_of_domain(self, domain: str) -> str:
        """Region a domain path belongs to (identity for region paths)."""
        region = domain.split("/", 1)[0]
        if region not in self._shape:
            raise KeyError(f"unknown failure domain {domain!r}")
        return region

    def domains(self) -> tuple[str, ...]:
        """Every domain path: regions, then AZs, then racks, in id order."""
        out: list[str] = list(self._shape)
        seen: set[str] = set()
        for info in self._racks:
            if info.az_path not in seen:
                seen.add(info.az_path)
                out.append(info.az_path)
        out.extend(info.path for info in self._racks)
        return tuple(out)

    # ------------------------------------------------------------------ #
    # placement
    # ------------------------------------------------------------------ #

    def assign(self, region: str, vm_index: int) -> int:
        """Rack id for the ``vm_index``-th VM of a region.

        Deterministic round-robin across the region's racks: VM *i* lands
        on rack ``i % n_racks(region)``.  With the flat shape this is
        always the region's single rack, so default deployments are
        unchanged.
        """
        if vm_index < 0:
            raise ValueError("vm_index must be >= 0")
        try:
            ids = self._region_racks[region]
        except KeyError:
            raise KeyError(f"unknown region {region!r}") from None
        return ids[vm_index % len(ids)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shape = ", ".join(
            f"{r}={a}x{k}" for r, (a, k) in self._shape.items()
        )
        return f"FailureDomainTree({shape})"
