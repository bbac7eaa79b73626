"""Experiment harness: regenerate every table and figure of the paper.

Every experiment is a declared grid: a list of
:class:`~repro.experiments.scenarios.ScenarioSpec` items (platform ×
workload × policies × settings × dynamics), expanded into sweep jobs by
``ScenarioSpec.jobs`` and run through the cached, parallel sweep engine.

* :mod:`repro.experiments.workloads` — the seeded 10-graph evaluation
  suites for DFG Type-1 and Type-2 and the declarative workload kinds;
* :mod:`repro.experiments.scenarios` — ``ScenarioSpec`` and the
  registered scenario catalog;
* :mod:`repro.experiments.sweep` — the parallel sweep engine:
  serializable jobs, serial/multiprocessing executors, content-hash
  result cache;
* :mod:`repro.experiments.runner` — the paper's accounting over scenario
  grids on the flat CPU+GPU+FPGA platform;
* :mod:`repro.experiments.tables` — Tables 8–13, 15, 16;
* :mod:`repro.experiments.figures` — Figures 5–12;
* :mod:`repro.experiments.ablations` — our additional design-choice
  studies;
* :mod:`repro.experiments.report` — plain-text rendering.
"""

from repro.experiments.workloads import (
    DEFAULT_SEED,
    paper_type1_suite,
    paper_type2_suite,
    paper_suite,
)
from repro.experiments.runner import ExperimentRunner, RunRecord
from repro.experiments.sweep import (
    JobResult,
    PolicySpec,
    ResultCache,
    SimSettings,
    SweepEngine,
    SweepJob,
    make_job,
)
from repro.experiments.report import TableResult, FigureResult, render_table, render_figure
from repro.experiments import tables, figures, ablations, extensions

__all__ = [
    "DEFAULT_SEED",
    "paper_type1_suite",
    "paper_type2_suite",
    "paper_suite",
    "ExperimentRunner",
    "RunRecord",
    "JobResult",
    "PolicySpec",
    "ResultCache",
    "SimSettings",
    "SweepEngine",
    "SweepJob",
    "make_job",
    "TableResult",
    "FigureResult",
    "render_table",
    "render_figure",
    "tables",
    "figures",
    "ablations",
    "extensions",
]
