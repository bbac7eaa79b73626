"""Kernel execution-time lookup table.

The scheduler in the paper consults a lookup table of *measured* execution
times — "real execution times of a variety of kernels … for multiple data
sizes on the different processors" (§3.2, Table 3 / Table 14).  Each row
maps ``(kernel, data size)`` to a time per processor *category*.

This module generalizes the table into a first-class object:

* exact lookups where the paper has a measurement,
* log-log linear interpolation between measured sizes of the same kernel /
  processor series (so the library is usable on workloads the paper did
  not measure),
* clamped extrapolation by linear scaling beyond the measured range,
* helper queries the policies need (`best_processor`, `times_across`).
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.system import ProcessorType


@dataclass(frozen=True)
class LookupEntry:
    """One measured point: a kernel at a data size on a processor type."""

    kernel: str
    data_size: int
    ptype: ProcessorType
    time_ms: float

    def __post_init__(self) -> None:
        if self.data_size <= 0:
            raise ValueError(f"data_size must be positive, got {self.data_size}")
        if not self.time_ms > 0:  # NaN fails this too
            raise ValueError(f"time_ms must be positive, got {self.time_ms}")


class KernelNotFoundError(KeyError):
    """Raised when a kernel (or kernel/processor series) is not in the table."""


class LookupTable:
    """Execution times for kernels by data size and processor type.

    Queries at unmeasured data sizes are answered by log-log linear
    interpolation within the kernel/processor series, and by linear
    time/size scaling from the nearest endpoint outside the measured
    range.

    Parameters
    ----------
    entries:
        The measured points.  Duplicate ``(kernel, size, ptype)`` keys are
        rejected — a table with two different measurements for the same
        point is ambiguous.
    """

    def __init__(self, entries: Iterable[LookupEntry]) -> None:
        # series[(kernel, ptype)] = (sorted sizes, times aligned with sizes)
        staging: dict[tuple[str, ProcessorType], dict[int, float]] = {}
        for e in entries:
            key = (e.kernel, e.ptype)
            series = staging.setdefault(key, {})
            if e.data_size in series:
                raise ValueError(
                    f"duplicate lookup entry for kernel={e.kernel!r} "
                    f"size={e.data_size} ptype={e.ptype}"
                )
            series[e.data_size] = e.time_ms
        self._series: dict[tuple[str, ProcessorType], tuple[list[int], list[float]]] = {}
        # Exact-measurement index: (kernel, ptype, size) → time.  The
        # simulator hot path queries measured points millions of times on
        # large workloads; this skips the per-query bisect entirely.
        self._exact: dict[tuple[str, ProcessorType, int], float] = {}
        for key, points in staging.items():
            sizes = sorted(points)
            self._series[key] = (sizes, [points[s] for s in sizes])
            kernel, ptype = key
            for s in sizes:
                self._exact[(kernel, ptype, s)] = points[s]
        self._kernels = tuple(sorted({k for k, _ in self._series}))
        self._ptypes = tuple(sorted({p for _, p in self._series}, key=lambda p: p.value))

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Iterable[Mapping[str, object]]) -> "LookupTable":
        """Build from dict records with keys kernel/data_size/ptype/time_ms."""
        entries = [
            LookupEntry(
                kernel=str(r["kernel"]),
                data_size=int(r["data_size"]),  # type: ignore[arg-type]
                ptype=ProcessorType(str(r["ptype"]).lower()),
                time_ms=float(r["time_ms"]),  # type: ignore[arg-type]
            )
            for r in records
        ]
        return cls(entries)

    def to_records(self) -> list[dict[str, object]]:
        """Dump as plain dict records (inverse of :meth:`from_records`)."""
        out: list[dict[str, object]] = []
        for (kernel, ptype), (sizes, times) in sorted(
            self._series.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
        ):
            for size, t in zip(sizes, times):
                out.append(
                    {"kernel": kernel, "data_size": size, "ptype": ptype.value, "time_ms": t}
                )
        return out

    @classmethod
    def from_json(cls, path: str | Path) -> "LookupTable":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_records(json.load(fh))

    def to_json(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_records(), fh, indent=2)

    def merged_with(self, other: "LookupTable") -> "LookupTable":
        """A new table containing both tables' points (keys must not clash)."""
        return LookupTable(list(self.entries()) + list(other.entries()))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def kernels(self) -> tuple[str, ...]:
        return self._kernels

    @property
    def ptypes(self) -> tuple[ProcessorType, ...]:
        return self._ptypes

    def entries(self) -> Iterator[LookupEntry]:
        for (kernel, ptype), (sizes, times) in self._series.items():
            for size, t in zip(sizes, times):
                yield LookupEntry(kernel, size, ptype, t)

    def __len__(self) -> int:
        return sum(len(sizes) for sizes, _ in self._series.values())

    def sizes_for(self, kernel: str, ptype: ProcessorType | None = None) -> tuple[int, ...]:
        """Measured data sizes for a kernel (optionally on one ptype)."""
        if ptype is not None:
            series = self._series.get((kernel, ptype))
            if series is None:
                raise KernelNotFoundError(f"no series for {kernel!r} on {ptype}")
            return tuple(series[0])
        sizes: set[int] = set()
        found = False
        for (k, _), (s, _) in self._series.items():
            if k == kernel:
                found = True
                sizes.update(s)
        if not found:
            raise KernelNotFoundError(f"kernel {kernel!r} not in lookup table")
        return tuple(sorted(sizes))

    def has_kernel(self, kernel: str) -> bool:
        return kernel in self._kernels

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def time(self, kernel: str, data_size: int, ptype: ProcessorType) -> float:
        """Execution time in ms of ``kernel`` at ``data_size`` on ``ptype``.

        Exact measurements are returned as-is; other sizes are interpolated
        (see class docstring).
        """
        exact = self._exact.get((kernel, ptype, data_size))
        if exact is not None:
            return exact
        series = self._series.get((kernel, ptype))
        if series is None:
            raise KernelNotFoundError(
                f"no measurements for kernel={kernel!r} on ptype={ptype}"
            )
        sizes, times = series
        idx = bisect.bisect_left(sizes, data_size)
        if idx < len(sizes) and sizes[idx] == data_size:
            return times[idx]
        if data_size <= 0:
            raise ValueError(f"data_size must be positive, got {data_size}")
        if len(sizes) == 1:
            # Single point: linear time/size scaling from that point.
            return times[0] * data_size / sizes[0]
        if idx == 0:
            # Below range: scale from the smallest measurement.
            return times[0] * data_size / sizes[0]
        if idx == len(sizes):
            # Above range: scale from the largest measurement.
            return times[-1] * data_size / sizes[-1]
        lo, hi = idx - 1, idx
        # Log-log linear interpolation: execution-time-vs-size curves of
        # these kernels are close to power laws, so interpolate the exponent.
        x0, x1 = math.log(sizes[lo]), math.log(sizes[hi])
        y0, y1 = math.log(times[lo]), math.log(times[hi])
        frac = (math.log(data_size) - x0) / (x1 - x0)
        return math.exp(y0 + frac * (y1 - y0))

    def times_across(
        self,
        kernel: str,
        data_size: int,
        ptypes: Sequence[ProcessorType],
    ) -> dict[ProcessorType, float]:
        """Execution times on each of the given processor types."""
        return {p: self.time(kernel, data_size, p) for p in ptypes}

    def best_processor(
        self,
        kernel: str,
        data_size: int,
        ptypes: Sequence[ProcessorType],
    ) -> tuple[ProcessorType, float]:
        """The processor type with minimum execution time, and that time.

        Ties are broken by the order of ``ptypes`` (deterministic).
        """
        if not ptypes:
            raise ValueError("ptypes must be non-empty")
        best_p = ptypes[0]
        best_t = self.time(kernel, data_size, best_p)
        for p in ptypes[1:]:
            t = self.time(kernel, data_size, p)
            if t < best_t:
                best_p, best_t = p, t
        return best_p, best_t

    def heterogeneity(
        self, kernel: str, data_size: int, ptypes: Sequence[ProcessorType]
    ) -> float:
        """Ratio of worst to best execution time — degree of heterogeneity.

        The paper argues APT's benefit scales with how *far apart* kernel
        times are across platforms; this is the natural scalar for that.
        """
        times = [self.time(kernel, data_size, p) for p in ptypes]
        return max(times) / min(times)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LookupTable({len(self._kernels)} kernels, "
            f"{len(self._ptypes)} ptypes, {len(self)} points)"
        )


def scale_heterogeneity(table: LookupTable, beta: float) -> LookupTable:
    """A copy of ``table`` with its cross-platform spread rescaled.

    For each (kernel, data size) row with times :math:`t_p` and geometric
    mean :math:`g`, the new time on platform *p* is

    .. math:: t'_p = g \\cdot (t_p / g)^{\\beta}

    so ``beta = 1`` is the identity, ``beta = 0`` collapses every row to a
    homogeneous system with the same geometric-mean cost, and
    ``beta > 1`` exaggerates the heterogeneity.  The paper argues α must
    be tuned to the *degree of heterogeneity*; this transform is the knob
    that lets experiments vary that degree while holding total work
    roughly constant.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    # group by (kernel, size) across ptypes
    rows: dict[tuple[str, int], list[LookupEntry]] = {}
    for e in table.entries():
        rows.setdefault((e.kernel, e.data_size), []).append(e)
    out: list[LookupEntry] = []
    for entries in rows.values():
        g = math.exp(sum(math.log(e.time_ms) for e in entries) / len(entries))
        for e in entries:
            out.append(
                LookupEntry(e.kernel, e.data_size, e.ptype, g * (e.time_ms / g) ** beta)
            )
    return LookupTable(out)
