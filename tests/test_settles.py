"""The settle contract: a settling policy is asked once per state.

A dynamic policy that declares ``settles = True`` promises that one
``select`` call returns every assignment it would make in the current
state, so the engine does not ask it again after applying that answer.
These tests force the re-ask by setting ``settles = False`` on the
driver instance, and check every settling policy — HEFT, PEFT and CPOP
through their ``PlanDispatcher`` — on paper graphs, on a contended
topology with faults and preemption, and on a saturated stream:

* every answer given right after an applied answer is empty;
* the run with the re-ask forced equals the run with it skipped.

APT-RT does not settle, and a policy that declares nothing is re-asked.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pytest

import repro.experiments.ablations  # noqa: F401  (registers apt_longest_first)
from repro.core.dynamics import DynamicsSpec
from repro.core.engine import EngineCore
from repro.core.simulator import Simulator
from repro.core.system import CPU_GPU_FPGA, Processor, SystemConfig
from repro.core.topology import bus_topology
from repro.data.paper_tables import paper_lookup_table
from repro.experiments.workloads import paper_suite, scale_system, streaming_scale_source
from repro.graphs.generators import make_pipeline_dfg
from repro.policies.ag import AG
from repro.policies.apt import APT
from repro.policies.apt_rt import APT_RT
from repro.policies.base import Assignment, DynamicPolicy, Policy, StaticPolicy
from repro.policies.batch_mode import _BatchModePolicy
from repro.policies.met import MET
from repro.policies.olb import OLB
from repro.policies.plan import PlanDispatcher
from repro.policies.random_policy import RandomPolicy
from repro.policies.registry import available_policies, get_policy
from repro.policies.spn import SPN
from repro.policies.ss import SS
from tests.test_simulator import dfg_of

LOOKUP = paper_lookup_table()
Rounds = list[list[list[Assignment]]]


def _driver_class(name: str) -> type:
    policy = get_policy(name)
    return PlanDispatcher if isinstance(policy, StaticPolicy) else type(policy)


#: the registry as collected: before any test registers a policy of its own
REGISTERED = available_policies()
SETTLING = [name for name in REGISTERED if _driver_class(name).settles]


Run = Callable[[Callable[[], Policy]], object]


def spied_run(run: Run, name: str, settles: bool | None = None):
    """``run`` on fresh ``name`` policies, with every ``select`` answer
    recorded, one list per fixpoint (instant).  ``settles`` is set on
    each driver instance before the engine reads it: ``False`` forces
    the re-ask."""
    rounds: Rounds = []
    init, fixpoint = EngineCore.__init__, EngineCore._fixpoint

    def spied_init(engine, system, cost, policy, driver, *args, **kwargs):
        if settles is not None:
            driver.settles = settles
        select = driver.select

        def recorded(ctx):
            answer = list(select(ctx))
            rounds[-1].append(answer)
            return answer

        driver.select = recorded
        init(engine, system, cost, policy, driver, *args, **kwargs)

    def spied_fixpoint(engine):
        rounds.append([])
        fixpoint(engine)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(EngineCore, "__init__", spied_init)
        mp.setattr(EngineCore, "_fixpoint", spied_fixpoint)
        return run(lambda: get_policy(name)), rounds


def reasks(rounds: Rounds) -> list[list[Assignment]]:
    """The answers given right after an applied (non-empty) answer."""
    return [cur for answers in rounds for prev, cur in zip(answers, answers[1:]) if prev]


def _paper_case(dfg, rate: float) -> Run:
    system = CPU_GPU_FPGA(transfer_rate_gbps=rate)
    return lambda make: Simulator(system, LOOKUP).run(dfg, make())


def _contended_case() -> Run:
    flat = CPU_GPU_FPGA(transfer_rate_gbps=1.0)
    procs = [Processor(p.name, p.ptype) for p in flat]
    system = SystemConfig(
        procs,
        topology=bus_topology(
            [p.name for p in procs], bus_gbps=1.0, latency_ms=0.05, contention=True
        ),
    )
    dfg = make_pipeline_dfg(24, rng=np.random.default_rng(9), stage_width=3, name="pipe24")

    def run(make: Callable[[], Policy]) -> object:
        # faults scaled to the policy's own fault-free run: a kernel that
        # outlasts every fault-free window would restart for ever
        makespan = Simulator(system, LOOKUP).run(dfg, make()).makespan
        dynamics = [
            DynamicsSpec.of(
                "fault", mttf_ms=makespan / 3.0, mttr_ms=makespan / 30.0, seed=13
            ),
            DynamicsSpec.of("preempt", penalty_ms=1.0),
        ]
        return Simulator(system, LOOKUP, dynamics=dynamics).run(dfg, make())

    return run


def _saturated_case() -> Run:
    source = streaming_scale_source(150, seed=5, mean_interarrival_ms=300.0)
    return lambda make: Simulator(scale_system(), LOOKUP).run_stream(source, make())


CASES = {
    **{
        f"{dfg.name}@{rate:g}GBps": _paper_case(dfg, rate)
        for rate in (4.0, 8.0)
        for dfg_type in (1, 2)
        for dfg in paper_suite(dfg_type)[:3]
    },
    "contended-faults-preemption": _contended_case(),
    "saturated-stream": _saturated_case(),
}


def test_every_builtin_policy_but_apt_rt_settles():
    for cls in (APT, MET, SPN, SS, OLB, RandomPolicy, AG, _BatchModePolicy, PlanDispatcher):
        assert vars(cls)["settles"] is True, cls
    assert vars(APT_RT)["settles"] is False
    assert DynamicPolicy.settles is False
    assert set(REGISTERED) - set(SETTLING) == {"apt_rt"}
    assert "apt_longest_first" in SETTLING


@pytest.mark.parametrize("name", SETTLING)
def test_reask_after_an_applied_answer_is_empty_and_changes_nothing(name):
    for case, run in CASES.items():
        forced, forced_rounds = spied_run(run, name, settles=False)
        assert not any(reasks(forced_rounds)), case
        skipped, skipped_rounds = spied_run(run, name)
        assert all(len(answers) <= 1 for answers in skipped_rounds), case
        assert list(forced.schedule) == list(skipped.schedule), case
        assert forced.metrics == skipped.metrics, case
        assert forced.policy_stats == skipped.policy_stats, case
        assert forced.dynamics_stats == skipped.dynamics_stats, case


def test_forcing_the_reask_asks_again():
    run = CASES["saturated-stream"]
    _, forced = spied_run(run, "apt", settles=False)
    _, skipped = spied_run(run, "apt")
    assert reasks(forced) and not reasks(skipped)
    calls = lambda rounds: sum(map(len, rounds))  # noqa: E731
    assert calls(forced) - calls(skipped) == len(reasks(forced))


def test_apt_rt_must_not_settle():
    """Its re-ask places waiting kernels on alternatives: declaring
    ``settles`` would change the schedule."""
    run = _paper_case(paper_suite(1)[1], 4.0)
    declared, rounds = spied_run(run, "apt_rt")
    assert get_policy("apt_rt").settles is False
    placed = [a for answer in reasks(rounds) for a in answer]
    assert placed and all(a.alternative for a in placed)
    settled, _ = spied_run(run, "apt_rt", settles=True)
    assert list(settled.schedule) != list(declared.schedule)


class OneAtATime(DynamicPolicy):
    """Places one ready kernel per call, and declares nothing."""

    name = "one_at_a_time"

    def select(self, ctx):
        idle = ctx.idle_processors()
        if not idle or not ctx.ready:
            return []
        return [Assignment(ctx.ready[0], idle[0].name)]


def test_an_undeclared_policy_is_reasked(synth_sim):
    dfg = dfg_of("fast_cpu", "fast_gpu", "uniform")
    result = synth_sim.run(dfg, OneAtATime())
    assert [e.exec_start for e in result.schedule] == [0.0, 0.0, 0.0]
    # declaring the promise it does not keep leaves two kernels waiting
    wrong = OneAtATime()
    wrong.settles = True
    late = synth_sim.run(dfg, wrong)
    assert sorted(e.exec_start > 0.0 for e in late.schedule) == [False, True, True]
