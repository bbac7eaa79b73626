"""Ablation benches — the design-choice studies docs/architecture.md calls out.

Not paper experiments; these quantify (1) the transfer term in APT's
threshold test, (2) the ready-queue discipline, and (3) the future-work
remaining-time guard (APT-RT).
"""

from benchmarks.conftest import write_artifact
from repro.experiments import ablations
from repro.experiments.report import render_table


def test_bench_ablation_transfer_term(benchmark, engine, results_dir):
    t = None

    def regenerate():
        nonlocal t
        t = ablations.ablate_transfer_term(engine=engine, alphas=(1.5, 4.0, 16.0))
        return t

    benchmark(regenerate)
    assert len(t.rows) == 6
    write_artifact(results_dir, "ablation_transfer_term.txt", render_table(t))


def test_bench_ablation_queue_discipline(benchmark, engine, results_dir):
    t = None

    def regenerate():
        nonlocal t
        t = ablations.ablate_queue_discipline(engine=engine)
        return t

    benchmark(regenerate)
    assert {row[0] for row in t.rows} == {"Type-1", "Type-2"}
    write_artifact(results_dir, "ablation_queue_discipline.txt", render_table(t))


def test_bench_ablation_remaining_time(benchmark, engine, results_dir):
    t = None

    def regenerate():
        nonlocal t
        t = ablations.ablate_remaining_time(engine=engine, alphas=(4.0, 8.0, 16.0))
        return t

    benchmark(regenerate)
    # The guard must flatten the right side of the valley: at α=16 APT-RT
    # beats or matches plain APT on both graph types.
    for row in t.rows:
        if row[1] == 16.0:
            assert row[3] <= row[2] * 1.02
    write_artifact(results_dir, "ablation_remaining_time.txt", render_table(t))
