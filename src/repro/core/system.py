"""Heterogeneous system model: processors and interconnect.

The paper simulates a commercial-off-the-shelf system of CPUs, GPUs and
FPGAs joined by PCI Express links (paper §3.2, Figure 1).  Both the number
of processors of each type and the link bandwidth are configurable; the
evaluation uses one CPU, one GPU and one FPGA with a uniform 4 GB/s or
8 GB/s link between every processor pair.

Units
-----
* time       — milliseconds (matching the paper's lookup table),
* bandwidth  — GB/s (decimal: 1 GB/s = 1e9 bytes/s = 1e6 bytes/ms),
* data size  — element counts on kernels; bytes = elements × element_size.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping

from repro.core.topology import Route, Topology, validate_rate


class ProcessorType(str, Enum):
    """Category of a hardware platform.

    The paper generalizes execution times to the *category* of the platform
    (§3.2: a measured CPU time stands for "CPU", whatever the exact model),
    so the lookup table is keyed by :class:`ProcessorType`, not by device.
    """

    CPU = "cpu"
    GPU = "gpu"
    FPGA = "fpga"
    ASIC = "asic"
    OTHER = "other"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value.upper()


@dataclass(frozen=True, order=True)
class Processor:
    """A single device in the heterogeneous system.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"cpu0"``.
    ptype:
        Hardware category used to look up kernel execution times.
    """

    name: str
    ptype: ProcessorType

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class Link:
    """A point-to-point interconnect between two processors.

    ``rate_gbps`` is the sustained transfer bandwidth in GB/s.  The paper
    models PCIe 2.0 with 8 lanes (~4 GB/s) or 16 lanes (~8 GB/s) and uses
    the same rate between every processor pair.
    """

    src: str
    dst: str
    rate_gbps: float

    def __post_init__(self) -> None:
        validate_rate(self.rate_gbps, f"link rate {self.src}->{self.dst}")

    def transfer_time_ms(self, nbytes: float) -> float:
        """Time in milliseconds to move ``nbytes`` across this link."""
        return nbytes / (self.rate_gbps * 1e6)


class SystemConfig:
    """The full hardware platform: processors plus interconnect.

    Parameters
    ----------
    processors:
        Devices in the system.  Names must be unique.
    transfer_rate_gbps:
        Default bandwidth applied between every processor pair (the paper
        keeps all links at the same rate).
    link_overrides:
        Optional per-pair bandwidth overrides, keyed by ``(src, dst)`` name
        pairs.  Links are treated as symmetric: an override for
        ``("a", "b")`` also applies to ``("b", "a")`` unless that direction
        has its own entry.
    topology:
        Optional explicit interconnect graph
        (:class:`~repro.core.topology.Topology`).  When given, transfer
        times follow the topology's precomputed routes (bottleneck
        bandwidth + summed latency) instead of the flat per-pair table,
        and ``link_overrides`` must be empty (per-pair rates belong to
        the flat model; shape per-edge rates in the topology instead).
        A uniform zero-latency star reproduces the flat table
        bit-for-bit.

    All rates — the default, the per-pair overrides and the topology's
    edges — are validated by the same rule: positive, not NaN
    (``inf`` is allowed, meaning "never the bottleneck").
    """

    def __init__(
        self,
        processors: Iterable[Processor],
        transfer_rate_gbps: float = 4.0,
        link_overrides: Mapping[tuple[str, str], float] | None = None,
        topology: Topology | None = None,
    ) -> None:
        self._processors: tuple[Processor, ...] = tuple(processors)
        if not self._processors:
            raise ValueError("a system needs at least one processor")
        names = [p.name for p in self._processors]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate processor names: {names}")
        self._default_rate = validate_rate(transfer_rate_gbps, "transfer_rate_gbps")
        self._by_name = {p.name: p for p in self._processors}
        self._overrides: dict[tuple[str, str], float] = {}
        if topology is not None and link_overrides:
            raise ValueError(
                "link_overrides and topology are mutually exclusive: "
                "express per-link rates as topology edges"
            )
        for (a, b), rate in (link_overrides or {}).items():
            if a not in self._by_name or b not in self._by_name:
                raise KeyError(f"link override references unknown processor: {(a, b)}")
            self._overrides[(a, b)] = validate_rate(rate, f"link rate for {(a, b)}")
        self.topology = topology
        if topology is not None and set(topology.processor_nodes) != set(names):
            raise ValueError(
                "topology processor nodes must match the system's processors: "
                f"topology has {sorted(topology.processor_nodes)}, "
                f"system has {sorted(names)}"
            )
        # Immutable after construction, so category queries can be
        # precomputed — of_type() sits in policy hot paths (APT's
        # findBestProc runs once per ready kernel per invocation).
        self._of_type: dict[ProcessorType, tuple[Processor, ...]] = {}
        for p in self._processors:
            self._of_type.setdefault(p.ptype, ())
        for ptype in self._of_type:
            self._of_type[ptype] = tuple(
                p for p in self._processors if p.ptype == ptype
            )
        self._ptype_order = tuple(self._of_type)
        # transfer_time_ms is the hottest query in the simulator (policies
        # price every candidate assignment) — precompute the effective
        # bytes-per-ms divisor for every ordered pair so the query is one
        # dict hit and one division, with bit-identical arithmetic to
        # Link.transfer_time_ms.  Topology systems use the route's
        # bottleneck bandwidth as the divisor (same arithmetic, so a
        # uniform star equals the flat table bit-for-bit) plus a latency
        # table, populated only when some route actually has latency —
        # the flat hot path stays one dict hit and one division.
        self._rate_divisor: dict[tuple[str, str], float] = {}
        self._latency: dict[tuple[str, str], float] | None = None
        if topology is None:
            for a in self._processors:
                for b in self._processors:
                    if a.name == b.name:
                        continue
                    rate = self._overrides.get(
                        (a.name, b.name),
                        self._overrides.get((b.name, a.name), self._default_rate),
                    )
                    self._rate_divisor[(a.name, b.name)] = rate * 1e6
        else:
            latency: dict[tuple[str, str], float] = {}
            for route in topology.routes():
                pair = (route.src, route.dst)
                self._rate_divisor[pair] = route.bottleneck_gbps * 1e6
                latency[pair] = route.latency_ms
            if any(latency.values()):
                self._latency = latency

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def processors(self) -> tuple[Processor, ...]:
        return self._processors

    @property
    def default_rate_gbps(self) -> float:
        return self._default_rate

    @property
    def link_overrides(self) -> dict[tuple[str, str], float]:
        """Per-pair bandwidth overrides (a copy), keyed by name pairs."""
        return dict(self._overrides)

    def __len__(self) -> int:
        return len(self._processors)

    def __iter__(self) -> Iterator[Processor]:
        return iter(self._processors)

    def __contains__(self, proc: Processor | str) -> bool:
        name = proc.name if isinstance(proc, Processor) else proc
        return name in self._by_name

    def __getitem__(self, name: str) -> Processor:
        return self._by_name[name]

    def processor_types(self) -> tuple[ProcessorType, ...]:
        """Distinct processor types present, in first-appearance order."""
        return self._ptype_order

    def of_type(self, ptype: ProcessorType) -> tuple[Processor, ...]:
        """All processors of the given category."""
        return self._of_type.get(ptype, ())

    # ------------------------------------------------------------------
    # interconnect
    # ------------------------------------------------------------------
    def link(self, src: str, dst: str) -> Link:
        """The (effective) link between two distinct processors.

        For topology systems this is the route collapsed to a
        point-to-point link at its bottleneck rate — useful for
        summaries; the per-hop structure lives on :attr:`topology`.
        """
        if src not in self._by_name or dst not in self._by_name:
            raise KeyError(f"unknown processor in link query: {(src, dst)}")
        if self.topology is not None:
            return Link(src, dst, self.topology.route(src, dst).bottleneck_gbps)
        rate = self._overrides.get(
            (src, dst), self._overrides.get((dst, src), self._default_rate)
        )
        return Link(src, dst, rate)

    def route(self, src: str, dst: str) -> "Route | None":
        """The topology route between two processors; ``None`` on flat systems."""
        if self.topology is None:
            return None
        return self.topology.route(src, dst)

    def transfer_time_ms(self, src: str, dst: str, nbytes: float) -> float:
        """Milliseconds to move ``nbytes`` from ``src`` to ``dst``.

        Transfers within a single device are free — the data is already
        resident in that device's memory.  Topology systems charge the
        route's bottleneck time plus its latency (uncontended; the
        simulator layers contention on top when the topology asks for
        it).
        """
        if src == dst:
            return 0.0
        divisor = self._rate_divisor.get((src, dst))
        if divisor is None:
            raise KeyError(f"unknown processor in link query: {(src, dst)}")
        t = nbytes / divisor
        if self._latency is None:
            return t
        return t + self._latency[(src, dst)]

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable one-line-per-processor summary."""
        interconnect = (
            f"topology {self.topology.name!r}"
            if self.topology is not None
            else f"{self._default_rate} GB/s links"
        )
        lines = [f"SystemConfig ({len(self)} processors, {interconnect})"]
        for p in self._processors:
            lines.append(f"  {p.name:<10s} [{p.ptype}]")
        if self.topology is not None:
            lines.append(self.topology.describe())
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(p.name for p in self._processors)
        return f"SystemConfig([{names}], rate={self._default_rate} GB/s)"


def CPU_GPU_FPGA(
    transfer_rate_gbps: float = 4.0,
    n_cpu: int = 1,
    n_gpu: int = 1,
    n_fpga: int = 1,
) -> SystemConfig:
    """The paper's evaluation platform: CPUs + GPUs + FPGAs, uniform links.

    The paper uses ``n_cpu = n_gpu = n_fpga = 1`` (§3.2) but exposes the
    counts as knobs of its simulator; so do we.
    """
    if min(n_cpu, n_gpu, n_fpga) < 0 or n_cpu + n_gpu + n_fpga == 0:
        raise ValueError("processor counts must be non-negative and not all zero")
    procs: list[Processor] = []
    procs += [Processor(f"cpu{i}", ProcessorType.CPU) for i in range(n_cpu)]
    procs += [Processor(f"gpu{i}", ProcessorType.GPU) for i in range(n_gpu)]
    procs += [Processor(f"fpga{i}", ProcessorType.FPGA) for i in range(n_fpga)]
    return SystemConfig(procs, transfer_rate_gbps=transfer_rate_gbps)
