"""Tests for arrival sources and rate profiles (repro.graphs.sources)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.workloads import open_system_profile
from repro.graphs.dfg import DFG, KernelSpec
from repro.graphs.sources import (
    ArrivalSource,
    BurstProfile,
    DiurnalProfile,
    GeneratorSource,
    PoissonProfile,
)
from repro.graphs.streams import ApplicationArrival, ApplicationStream


def tiny_app(name: str = "app") -> DFG:
    dfg = DFG(name)
    a = dfg.add_kernel(KernelSpec("fast_cpu", 1_000_000))
    b = dfg.add_kernel(KernelSpec("fast_gpu", 1_000_000))
    dfg.add_dependency(a, b)
    return dfg


def tiny_factory(i: int, rng: np.random.Generator) -> DFG:
    return tiny_app(f"app{i}")


class TestProfiles:
    def test_poisson_gap_is_exponential_draw(self):
        p = PoissonProfile(100.0)
        a = p.gap_ms(0, 0.0, np.random.default_rng(7))
        b = float(np.random.default_rng(7).exponential(100.0))
        assert a == b

    def test_poisson_validation(self):
        with pytest.raises(ValueError):
            PoissonProfile(0.0)

    def test_burst_pattern(self):
        p = BurstProfile(burst_size=3, within_burst_ms=10.0, between_bursts_ms=500.0)
        rng = np.random.default_rng(0)
        gaps = [p.gap_ms(i, 0.0, rng) for i in range(6)]
        assert gaps == [10.0, 10.0, 500.0, 10.0, 10.0, 500.0]

    def test_burst_validation(self):
        with pytest.raises(ValueError):
            BurstProfile(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            BurstProfile(2, -1.0, 1.0)

    def test_diurnal_rate_modulation(self):
        # at the sine peak the mean gap shrinks, at the trough it grows
        p = DiurnalProfile(base_mean_ms=100.0, amplitude=0.5, period_ms=1000.0)
        rng_hi = np.random.default_rng(1)
        rng_lo = np.random.default_rng(1)
        peak = p.gap_ms(0, 250.0, rng_hi)   # sin = +1 → rate 1.5x
        trough = p.gap_ms(0, 750.0, rng_lo)  # sin = -1 → rate 0.5x
        assert peak < trough

    def test_diurnal_validation(self):
        with pytest.raises(ValueError):
            DiurnalProfile(0.0, 0.5, 100.0)
        with pytest.raises(ValueError):
            DiurnalProfile(10.0, 1.0, 100.0)
        with pytest.raises(ValueError):
            DiurnalProfile(10.0, 0.5, 0.0)

    @pytest.mark.parametrize(
        "profile",
        [
            PoissonProfile(250.0),
            BurstProfile(4, 20.0, 800.0),
            DiurnalProfile(300.0, 0.7, 10_000.0),
        ],
    )
    def test_dict_round_trip(self, profile):
        # to_dict enters the open_system cache key: its flat parameters
        # rebuild the same profile through the workload's own builder
        params = profile.to_dict()
        kind = params.pop("kind")
        assert open_system_profile(kind, **params) == profile

    def test_unknown_profile_kind_rejected(self):
        with pytest.raises(ValueError):
            open_system_profile("bogus")


class TestStreamAsSource:
    def test_stream_is_its_own_source(self):
        stream = ApplicationStream(
            [ApplicationArrival(tiny_app(), 9.0), ApplicationArrival(tiny_app(), 0.0)],
            name="s",
        )
        assert isinstance(stream, ArrivalSource)
        assert stream.name == "s"
        assert len(stream) == 2
        assert [a.arrival_ms for a in stream.arrivals()] == [0.0, 9.0]
        assert stream.materialize() is stream

    def test_materialize_keeps_the_source_name(self):
        src = GeneratorSource(3, tiny_factory, PoissonProfile(10.0), seed=0, name="g")
        stream = src.materialize()
        assert stream.name == "g"
        assert [a.arrival_ms for a in stream] == [a.arrival_ms for a in src]


class TestGeneratorSource:
    def test_lazy_construction(self):
        built = []

        def factory(i, rng):
            built.append(i)
            return tiny_app(f"app{i}")

        src = GeneratorSource(5, factory, PoissonProfile(10.0), seed=1)
        it = src.arrivals()
        assert built == []
        next(it)
        assert built == [0]
        next(it)
        assert built == [0, 1]

    def test_follows_the_documented_rng_order(self):
        # the determinism contract: one default_rng(seed) feeds DFG i,
        # then the gap to arrival i + 1, in strict alternation
        def factory(i, rng):
            dfg = DFG(f"app{i}")
            for _ in range(int(rng.integers(1, 4))):
                dfg.add_kernel(KernelSpec("fast_cpu", int(rng.integers(1, 10**6))))
            return dfg

        rng = np.random.default_rng(5)
        expected, t = [], 0.0
        for i in range(12):
            dfg = factory(i, rng)
            expected.append((t, [dfg.spec(k).data_size for k in dfg]))
            t += float(rng.exponential(77.0))
        lazy = GeneratorSource(12, factory, PoissonProfile(77.0), seed=5)
        assert [
            (a.arrival_ms, [a.dfg.spec(k).data_size for k in a.dfg]) for a in lazy
        ] == expected

    def test_restartable(self):
        src = GeneratorSource(4, tiny_factory, PoissonProfile(50.0), seed=2)
        assert [a.arrival_ms for a in src] == [a.arrival_ms for a in src]

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorSource(0, tiny_factory, PoissonProfile(10.0), seed=0)

    def test_out_of_order_source_rejected(self):
        class Backwards(ArrivalSource):
            name = "backwards"

            def _generate(self):
                yield ApplicationArrival(tiny_app(), 10.0)
                yield ApplicationArrival(tiny_app(), 5.0)

        with pytest.raises(ValueError, match="out of order"):
            list(Backwards().arrivals())


class TestPoissonCrossProcessStability:
    def test_arrival_times_stable_across_processes(self):
        """A fixed-seed Poisson GeneratorSource is bit-for-bit identical in a fresh
        interpreter — the property the sweep cache's cross-process
        determinism rests on."""
        import json
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import json, sys\n"
            "import numpy as np\n"
            "from repro.graphs.sources import GeneratorSource, PoissonProfile\n"
            "from repro.graphs.dfg import DFG, KernelSpec\n"
            "def factory(i, rng):\n"
            "    dfg = DFG(f'app{i}')\n"
            "    n = int(rng.integers(1, 4))\n"
            "    for _ in range(n):\n"
            "        dfg.add_kernel(KernelSpec('fast_cpu', int(rng.integers(1, 10**6))))\n"
            "    return dfg\n"
            "s = GeneratorSource(20, factory, PoissonProfile(123.0), seed=42)\n"
            "print(json.dumps([[a.arrival_ms, len(a.dfg),\n"
            "    [a.dfg.spec(k).data_size for k in a.dfg]] for a in s]))\n"
        )
        src_dir = Path(__file__).parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src_dir), "PATH": "/usr/bin:/bin"},
            check=True,
        )
        child = json.loads(out.stdout)

        def factory(i, rng):
            dfg = DFG(f"app{i}")
            n = int(rng.integers(1, 4))
            for _ in range(n):
                dfg.add_kernel(KernelSpec("fast_cpu", int(rng.integers(1, 10**6))))
            return dfg

        here = GeneratorSource(20, factory, PoissonProfile(123.0), seed=42)
        ours = [
            [a.arrival_ms, len(a.dfg), [a.dfg.spec(k).data_size for k in a.dfg]]
            for a in here
        ]
        assert child == ours  # bitwise float equality via JSON repr
