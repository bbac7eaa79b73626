"""Command-line interface: ``apt-sched`` / ``python -m repro``.

Subcommands
-----------
* ``simulate``  — run one policy on a generated workload, print metrics
  and an ASCII Gantt chart;
* ``compare``   — all seven paper policies over an evaluation suite;
* ``sweep``     — APT α × transfer-rate sweep (Figures 7/9/11/12);
* ``table``     — regenerate a paper table by number (8–13, 15, 16);
* ``figure5``   — the published MET-vs-APT schedule example;
* ``extension`` — the beyond-the-paper studies (streaming load sweep,
  extended policy pool, energy comparison);
* ``scenario``  — the declarative scenario registry: ``list`` the
  catalog, ``show`` one spec (``--json`` for the serialized form), or
  ``run`` scenarios through the cached sweep engine, recording rendered
  result tables under ``results/``; ``run --dynamics`` overrides the
  runtime-dynamics stack (fault injection / preemption), e.g.
  ``--dynamics 'fault:mttf_ms=60000,mttr_ms=4000,seed=7'``;
* ``load-sweep`` — open-system throughput–latency curves: sweep the
  arrival rate λ from light load to saturation for each policy,
  recording the curves under ``results/load_sweep_*.txt``;
* ``serve``     — run the scenario service: the asyncio HTTP/JSON API
  over the shared result store with admission control and per-client
  fairness (``docs/service.md``);
* ``submit`` / ``poll`` — thin clients for a running service: submit a
  registered scenario or a ScenarioSpec JSON file, poll job progress,
  fetch paginated result rows;
* ``calibrate`` — measure the real kernels on this machine and write a
  fresh lookup table JSON;
* ``check``     — the determinism & structural static checks
  (rule catalog in ``docs/checks.md``; same engine as
  ``tools/run_checks.py``).

Every sweep-shaped subcommand (``compare``, ``sweep``, ``table``,
``figure``, ``extension``) accepts the engine flags:

* ``--workers N``   — simulate independent jobs on an N-process pool
  (``0`` = all cores); results are bit-identical to a serial run;
* ``--cache-dir D`` — persist per-job results in ``D`` keyed by content
  hash, so re-runs only simulate what changed;
* ``--no-cache``    — disable result caching entirely.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from repro.analysis.gantt import ascii_gantt
from repro.core.simulator import Simulator
from repro.core.system import CPU_GPU_FPGA
from repro.data.paper_tables import paper_lookup_table
from repro.experiments import extensions, figures, tables
from repro.experiments.report import render_figure, render_table
from repro.experiments.runner import mean, paper_spec
from repro.experiments.scenarios import run_scenarios
from repro.experiments.sweep import PolicySpec, SweepEngine
from repro.experiments.workloads import DEFAULT_SEED
from repro.graphs.generators import make_type1_dfg, make_type2_dfg
from repro.policies.registry import PAPER_POLICIES, available_policies

_TABLES = {
    "8": tables.table8,
    "9": tables.table9,
    "10": tables.table10,
    "11": tables.table11,
    "12": tables.table12,
    "13": tables.table13,
    "15": tables.table15,
    "16": tables.table16,
}
_FIGURES = {
    "6": figures.figure6,
    "7": figures.figure7,
    "8": figures.figure8_top4,
    "9": figures.figure9,
    "10": figures.figure10_apt_vs_met,
    "11": figures.figure11,
    "12": figures.figure12,
}


@functools.cache  # built once per process; in-process callers reuse it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apt-sched",
        description=(
            "APT heterogeneous-scheduling reproduction (conf_ipps_LopezK17)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # engine flags shared by every sweep-shaped subcommand
    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep engine (0 = all cores)",
    )
    engine.add_argument(
        "--cache-dir",
        default=None,
        help="directory of the persistent on-disk result cache",
    )
    engine.add_argument(
        "--no-cache",
        action="store_true",
        help="disable result caching (every job simulates)",
    )

    sim = sub.add_parser("simulate", help="run one policy on one generated DFG")
    sim.add_argument("--policy", default="apt", choices=available_policies())
    sim.add_argument("--alpha", type=float, default=4.0, help="APT threshold multiplier")
    sim.add_argument("--dfg-type", type=int, default=1, choices=(1, 2))
    sim.add_argument("--kernels", type=int, default=46, help="number of kernels")
    sim.add_argument("--rate", type=float, default=4.0, help="link rate in GB/s")
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sim.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")

    cmp_ = sub.add_parser(
        "compare", help="all paper policies over a suite", parents=[engine]
    )
    cmp_.add_argument("--dfg-type", type=int, default=1, choices=(1, 2))
    cmp_.add_argument("--alpha", type=float, default=1.5)
    cmp_.add_argument("--rate", type=float, default=4.0)
    cmp_.add_argument("--seed", type=int, default=DEFAULT_SEED)

    sweep = sub.add_parser("sweep", help="APT alpha × rate sweep", parents=[engine])
    sweep.add_argument("--dfg-type", type=int, default=1, choices=(1, 2))
    sweep.add_argument("--metric", default="makespan", choices=("makespan", "lambda"))
    sweep.add_argument("--seed", type=int, default=DEFAULT_SEED)

    tab = sub.add_parser("table", help="regenerate a paper table", parents=[engine])
    tab.add_argument("number", choices=sorted(_TABLES, key=int))
    tab.add_argument("--seed", type=int, default=DEFAULT_SEED)

    fig = sub.add_parser(
        "figure", help="regenerate a paper figure (6-12)", parents=[engine]
    )
    fig.add_argument("number", choices=sorted(_FIGURES, key=int))
    fig.add_argument("--seed", type=int, default=DEFAULT_SEED)

    sub.add_parser("figure5", help="the published MET vs APT schedule example")

    ext = sub.add_parser(
        "extension", help="extension studies beyond the paper", parents=[engine]
    )
    ext.add_argument("study", choices=("stream", "policies", "energy"))
    ext.add_argument("--seed", type=int, default=DEFAULT_SEED)

    scen = sub.add_parser(
        "scenario",
        help="declarative scenario registry (list / show / run)",
        parents=[engine],
    )
    scen.add_argument("action", choices=("list", "show", "run"))
    scen.add_argument(
        "names",
        nargs="*",
        help="scenario names (show: exactly one; run: default = all)",
    )
    scen.add_argument(
        "--json", action="store_true", help="show: print the serialized spec"
    )
    scen.add_argument(
        "--results-dir",
        default="results",
        help="run: directory for rendered scenario tables",
    )
    scen.add_argument(
        "--dynamics",
        default=None,
        metavar="SPEC",
        help=(
            "run: override the scenarios' runtime-dynamics stack, e.g. "
            "'fault:mttf_ms=60000,mttr_ms=4000,seed=7;preempt:penalty_ms=2' "
            "('none' clears it)"
        ),
    )

    load = sub.add_parser(
        "load-sweep",
        help="open-system λ sweep: throughput–latency curves per policy",
        parents=[engine],
    )
    load.add_argument(
        "--policies",
        default="apt,met",
        help="comma-separated dynamic policies (default: apt,met)",
    )
    load.add_argument(
        "--rates-per-s",
        default="0.1,0.25,0.5,1.0",
        help="comma-separated arrival rates λ in applications/second",
    )
    load.add_argument("--apps", type=int, default=32, help="applications per stream")
    load.add_argument(
        "--profile", choices=("poisson", "burst", "diurnal"), default="poisson"
    )
    load.add_argument("--alpha", type=float, default=4.0, help="APT threshold multiplier")
    load.add_argument("--seed", type=int, default=DEFAULT_SEED)
    load.add_argument(
        "--results-dir",
        default="results",
        help="directory for the rendered load_sweep_<profile>.txt record",
    )

    srv = sub.add_parser(
        "serve",
        help="run the scenario service (HTTP/JSON API; docs/service.md)",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8711, help="0 = ephemeral")
    srv.add_argument(
        "--executor",
        choices=("inline", "process"),
        default="inline",
        help="payload executor: worker threads or a multiprocessing pool",
    )
    srv.add_argument(
        "--slots", type=int, default=2, help="concurrent payload slots (fair-shared)"
    )
    srv.add_argument(
        "--store-dir",
        default=None,
        help="directory of the shared on-disk result store (content-hash keyed)",
    )
    srv.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="max live jobs before submissions get 429",
    )

    smt = sub.add_parser("submit", help="submit a scenario to a running service")
    smt.add_argument("--url", default="http://127.0.0.1:8711")
    smt_what = smt.add_mutually_exclusive_group(required=True)
    smt_what.add_argument("--scenario", help="a registered scenario name")
    smt_what.add_argument(
        "--spec-file", help="path of a ScenarioSpec JSON ('-' reads stdin)"
    )
    smt.add_argument("--client", default=None, help="client identity for fairness")
    smt.add_argument(
        "--setting",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="simulation-settings override, repeatable (e.g. noise_seed=7)",
    )
    smt.add_argument("--wait", action="store_true", help="poll until terminal")

    pol = sub.add_parser("poll", help="poll a job on a running service")
    pol.add_argument("job_id")
    pol.add_argument("--url", default="http://127.0.0.1:8711")
    pol.add_argument("--wait", action="store_true", help="poll until terminal")
    pol.add_argument(
        "--rows", action="store_true", help="fetch and summarize the result rows"
    )

    cal = sub.add_parser("calibrate", help="measure kernels, write lookup JSON")
    cal.add_argument("output", help="path of the lookup-table JSON to write")
    cal.add_argument(
        "--max-side",
        type=int,
        default=500,
        help="largest matrix side to measure (keeps runs quick)",
    )
    cal.add_argument("--repeats", type=int, default=3)

    from repro.checks import runner as checks_runner

    chk = sub.add_parser(
        "check",
        help="determinism & structural static checks (docs/checks.md)",
    )
    checks_runner.add_arguments(chk)
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    make = make_type1_dfg if args.dfg_type == 1 else make_type2_dfg
    dfg = make(args.kernels, rng=rng)
    policy = PolicySpec.at_alpha(args.policy, args.alpha).build()
    system = CPU_GPU_FPGA(transfer_rate_gbps=args.rate)
    result = Simulator(system, paper_lookup_table()).run(dfg, policy)
    m = result.metrics
    print(f"workload : {dfg.name} ({len(dfg)} kernels, {dfg.n_edges} edges)")
    print(f"policy   : {result.policy_name}")
    print(f"makespan : {m.makespan:,.3f} ms")
    print(
        f"lambda   : total={m.lambda_stats.total:,.3f} ms  "
        f"avg={m.lambda_stats.average:,.3f} ms  "
        f"stddev={m.lambda_stats.stddev:,.3f} ms  (N={m.lambda_stats.count})"
    )
    for name, usage in m.usage.items():
        print(
            f"  {name:<6s} compute={usage.compute_time:>12,.1f}  "
            f"transfer={usage.transfer_time:>10,.1f}  "
            f"idle={usage.idle_time:>12,.1f}  "
            f"util={usage.utilization(m.makespan) * 100:5.1f}%"
        )
    if m.n_alternative_assignments:
        print(f"alternative assignments: {m.n_alternative_assignments}")
    if args.gantt:
        print()
        print(ascii_gantt(result.schedule, system))
    return 0


def _engine_from_args(args: argparse.Namespace) -> SweepEngine:
    """A :class:`SweepEngine` honouring the shared engine flags."""
    return SweepEngine(
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )


def _cmd_compare(args: argparse.Namespace) -> int:
    policies = [PolicySpec.at_alpha(name, args.alpha) for name in PAPER_POLICIES]
    spec = paper_spec(args.dfg_type, policies, args.seed, args.rate)
    [outcome] = run_scenarios([spec], _engine_from_args(args))
    by_policy = outcome.by_policy()
    print(
        f"DFG Type-{args.dfg_type}, {args.rate} GB/s, APT alpha={args.alpha} "
        f"(mean over {len(by_policy[0])} graphs)"
    )
    for name, records in zip(PAPER_POLICIES, by_policy):
        makespans = [r.makespan for r in records]
        lams = [r.total_lambda for r in records]
        print(
            f"  {name.upper():<5s} makespan={mean(makespans):>12,.1f} ms   "
            f"lambda={mean(lams):>12,.1f} ms"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    fig_fn = {
        (1, "makespan"): figures.figure7,
        (2, "makespan"): figures.figure9,
        (1, "lambda"): figures.figure11,
        (2, "lambda"): figures.figure12,
    }[(args.dfg_type, args.metric)]
    print(render_figure(fig_fn(engine=_engine_from_args(args), seed=args.seed)))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    table_fn = _TABLES[args.number]
    print(render_table(table_fn(engine=_engine_from_args(args), seed=args.seed)))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    fig_fn = _FIGURES[args.number]
    print(render_figure(fig_fn(engine=_engine_from_args(args), seed=args.seed)))
    return 0


def _cmd_figure5(_args: argparse.Namespace) -> int:
    ex = figures.figure5_schedule_example()
    print("MET schedule (paper end time: 318.093 ms)")
    print(ex.met_trace)
    print(f"End time: {ex.met_end_time:.3f}")
    print()
    print("APT schedule, alpha=8 (paper end time: 212.093 ms)")
    print(ex.apt_trace)
    print(f"End Time: {ex.apt_end_time:.3f}")
    return 0


def _cmd_extension(args: argparse.Namespace) -> int:
    fn = {
        "stream": extensions.streaming_load_sweep,
        "policies": extensions.extended_policy_comparison,
        "energy": extensions.energy_comparison,
    }[args.study]
    print(render_table(fn(engine=_engine_from_args(args), seed=args.seed)))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    import dataclasses
    import json as _json
    from pathlib import Path

    from repro.core.dynamics import parse_dynamics_arg
    from repro.experiments.scenarios import available_scenarios, get_scenario

    if args.action == "list":
        for name in available_scenarios():
            spec = get_scenario(name)
            print(f"{name:<22s} {spec.description}")
        return 0

    if args.action == "show":
        if len(args.names) != 1:
            print("scenario show takes exactly one scenario name", file=sys.stderr)
            return 2
        spec = get_scenario(args.names[0])
        if args.json:
            print(_json.dumps(spec.to_dict(), indent=2))
        else:
            print(spec.describe())
        return 0

    # run
    names = list(args.names) or list(available_scenarios())
    dynamics_override = None
    if args.dynamics is not None:
        try:
            dynamics_override = (
                () if args.dynamics.strip().lower() == "none"
                else parse_dynamics_arg(args.dynamics)
            )
        except ValueError as exc:
            print(f"bad --dynamics spec: {exc}", file=sys.stderr)
            return 2
    specs = [get_scenario(name) for name in names]
    if dynamics_override is not None:
        specs = [dataclasses.replace(spec, dynamics=dynamics_override) for spec in specs]
    out_dir = Path(args.results_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, outcome in zip(names, run_scenarios(specs, _engine_from_args(args))):
        text = render_table(outcome.table())
        print(text)
        print()
        # an overridden dynamics stack is not the canonical scenario:
        # record it beside, never over, the committed artifact
        suffix = "_override" if dynamics_override is not None else ""
        path = out_dir / f"scenario_{name}{suffix}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"  -> {path}")
    return 0


def _cmd_load_sweep(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.load_sweep import load_sweep

    try:
        policies = tuple(p.strip() for p in args.policies.split(",") if p.strip())
        rates = tuple(float(r) for r in args.rates_per_s.split(",") if r.strip())
    except ValueError:
        print("could not parse --policies / --rates-per-s", file=sys.stderr)
        return 2
    sweep = load_sweep(
        policies=policies,
        rates_per_s=rates,
        n_applications=args.apps,
        seed=args.seed,
        profile=args.profile,
        apt_alpha=args.alpha,
        engine=_engine_from_args(args),
    )
    text = render_table(sweep.table())
    print(text)
    out_dir = Path(args.results_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"load_sweep_{args.profile}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"  -> {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.jobs import JobManager, make_executor
    from repro.service.server import ServiceServer
    from repro.service.store import SharedResultStore

    async def _serve() -> None:
        manager = JobManager(
            store=SharedResultStore(args.store_dir),
            executor=make_executor(args.executor, args.slots),
            queue_limit=args.queue_limit,
        )
        server = ServiceServer(manager, host=args.host, port=args.port)
        await server.start()
        print(f"serving on {server.address}", flush=True)
        try:
            await asyncio.Event().wait()  # until interrupted
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _parse_settings_overrides(pairs: list[str]) -> dict[str, object]:
    import json as _json

    settings: dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"expected KEY=VALUE, got {pair!r}")
        try:
            settings[key] = _json.loads(raw)
        except _json.JSONDecodeError:
            settings[key] = raw
    return settings


def _print_job(job: dict) -> None:
    line = (
        f"{job['id']}  {job['scenario']:<22s} state={job['state']:<10s}"
        f" done={job['done']}/{job['total']}"
        f" simulated={job['simulated']} store_hits={job['store_hits']}"
    )
    print(line)
    if job.get("error"):
        print(job["error"], file=sys.stderr)


def _cmd_submit(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service.client import ServiceClient

    try:
        settings = _parse_settings_overrides(args.setting)
    except ValueError as exc:
        print(f"bad --setting: {exc}", file=sys.stderr)
        return 2
    spec = None
    if args.spec_file is not None:
        raw = (
            sys.stdin.read()
            if args.spec_file == "-"
            else open(args.spec_file, "r", encoding="utf-8").read()
        )
        spec = _json.loads(raw)
    client = ServiceClient(args.url)
    status, body = client.submit(
        scenario=args.scenario, spec=spec, client=args.client, settings=settings
    )
    if status != 202:
        print(f"submit rejected ({status}): {body.get('error', body)}", file=sys.stderr)
        return 1
    job = body["job"]
    _print_job(job)
    if args.wait:
        job = client.wait(job["id"])
        _print_job(job)
        return 0 if job["state"] == "done" else 1
    return 0


def _cmd_poll(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    if args.wait:
        job = client.wait(args.job_id)
    else:
        status, body = client.status(args.job_id)
        if status != 200:
            print(f"poll failed ({status}): {body.get('error', body)}", file=sys.stderr)
            return 1
        job = body["job"]
    _print_job(job)
    if args.rows:
        rows = client.fetch_rows(args.job_id)
        for row in rows:
            print(
                f"  {row['dfg_name']:<28s} {row['policy_name']:<8s}"
                f" makespan={row['makespan']:>12,.3f} ms"
                f" lambda={row['total_lambda']:>12,.3f} ms"
            )
    return 0 if job["state"] in ("done", "queued", "running") else 1


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.checks import runner as checks_runner

    return checks_runner.run(args)


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.kernels.calibration import Calibrator

    side = args.max_side
    sizes = {
        "matmul": [(side // 2) ** 2, side**2],
        "matinv": [(side // 2) ** 2, side**2],
        "cholesky": [(side // 2) ** 2, side**2],
        "nw": [(side // 2) ** 2, side**2],
        "bfs": [side * 20, side * 40],
        "srad": [(side // 2) ** 2, side**2],
        "gem": [side * 50, side * 100],
    }
    cal = Calibrator(repeats=args.repeats)
    table = cal.calibrate(sizes)
    table.to_json(args.output)
    print(f"wrote {len(table)} lookup points to {args.output}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "table": _cmd_table,
    "figure": _cmd_figure,
    "figure5": _cmd_figure5,
    "extension": _cmd_extension,
    "scenario": _cmd_scenario,
    "load-sweep": _cmd_load_sweep,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "poll": _cmd_poll,
    "calibrate": _cmd_calibrate,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
