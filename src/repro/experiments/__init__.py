"""Experiment harness: regenerate every table and figure of the paper.

Every experiment is a declared grid: a list of
:class:`~repro.experiments.scenarios.ScenarioSpec` items (platform ×
workload × policies × settings × dynamics), expanded into sweep jobs by
``ScenarioSpec.jobs`` and run through the cached, parallel sweep engine.

* :mod:`repro.experiments.workloads` — the seeded 10-graph evaluation
  suites for DFG Type-1 and Type-2 and the declarative workload kinds;
* :mod:`repro.experiments.scenarios` — ``ScenarioSpec``, the registered
  scenario catalog and ``run_scenarios``, the one way a grid runs;
* :mod:`repro.experiments.sweep` — the parallel sweep engine:
  serializable jobs, content-hash result cache, inline or
  multiprocessing execution;
* :mod:`repro.experiments.runner` — the paper's flat CPU+GPU+FPGA
  platform and grid axes as scenario specs;
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
