"""Processor views change only when their processor does.

The engine rebuilds a processor's :class:`~repro.policies.base.
ProcessorView` on start, completion, availability changes and
assignments that do not start at once — never because the clock moved.
An idle view keeps the instant its processor went idle;
:meth:`~repro.policies.base.SchedulingContext.free_at` clamps it to the
clock for the policies that ask.  These tests pin the rebuild count (as a call count, not a timing)
and what an idle view reports mid-run.
"""

from __future__ import annotations

import pytest

from repro.core.engine import EngineCore
from repro.core.simulator import Simulator
from repro.data.paper_tables import paper_lookup_table
from repro.experiments.workloads import scale_system, streaming_scale_source
from repro.policies.apt import APT
from repro.policies.base import Assignment, DynamicPolicy, SchedulingContext
from repro.policies.met import MET
from tests.test_simulator import dfg_of


def test_flat_apt_stream_rebuilds_each_view_twice_per_kernel(monkeypatch):
    """One rebuild per processor to start, then one each for a kernel's
    start and completion; an assignment that cannot start at once adds
    one.  Rebuilding the idle views on every clock move would make it ~8
    per kernel on this stream."""
    calls = 0
    refresh = EngineCore.refresh_view

    def counted(engine: EngineCore, name: str) -> None:
        nonlocal calls
        calls += 1
        refresh(engine, name)

    monkeypatch.setattr(EngineCore, "refresh_view", counted)
    system = scale_system()
    result = Simulator(system, paper_lookup_table()).run_stream(
        streaming_scale_source(1000, seed=0, mean_interarrival_ms=3000.0),
        APT(),
        retain_schedule=False,
    )
    n_kernels = result.stream.n_kernels
    assert n_kernels >= 1000
    assert calls <= 2 * n_kernels + len(system)


class _Snoop(DynamicPolicy):
    """MET that records, per call, each view's free_at and the clamp."""

    name = "snoop"

    def __init__(self) -> None:
        self.met = MET()
        self.seen: list[tuple[float, dict[str, tuple[bool, float, float]]]] = []

    def select(self, ctx: SchedulingContext) -> list[Assignment]:
        self.seen.append(
            (
                ctx.time,
                {
                    name: (view.idle, view.free_at, ctx.free_at(name))
                    for name, view in ctx.views.items()
                },
            )
        )
        return self.met.select(ctx)


def test_idle_view_keeps_the_instant_its_processor_went_idle(synth_sim):
    # cpu0 runs k0 over [0, 10]; gpu0 runs k1 then k2 over [0, 20]; k3
    # becomes ready at 20 while cpu0 has been idle since 10
    policy = _Snoop()
    synth_sim.run(
        dfg_of("fast_cpu", "fast_gpu", "fast_gpu", "fast_cpu", deps=[(1, 2), (2, 3)]),
        policy,
    )
    at_20 = [views for time, views in policy.seen if time == pytest.approx(20.0)]
    assert at_20
    for views in at_20:
        idle, free_at, earliest = views["cpu0"]
        assert idle
        assert free_at == pytest.approx(10.0)
        assert earliest == pytest.approx(20.0)
    for time, views in policy.seen:
        for idle, free_at, earliest in views.values():
            if idle:
                assert free_at <= time and earliest == time
            else:
                assert earliest == max(free_at, time)
