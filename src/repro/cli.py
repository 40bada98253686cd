"""Command-line interface: ``themis-sim`` (or ``python -m repro.cli``).

Subcommands
-----------
``run``
    Run any scenario from a JSON spec file (``--spec``), with optional
    dotted-path overrides (``--set trace.seed=3``), schema validation only
    (``--check``), or JSON report output (``--json``).
``sweep``
    Run a grid of scenario variants from a base spec plus ``--axis``
    flags (``--axis topology=2D-SW_SW,3D-SW_SW_SW_homo``; coupled fields
    via ``--axis scheduler+policy=baseline:FIFO,themis:SCF``).
``topologies``
    List the Table 2 topology presets and their BW distributions.
``collective`` / ``train`` / ``cluster`` / ``provisioning``
    Thin builders over the same scenario specs: each flag set maps onto a
    :mod:`repro.api` spec (printed with ``--show-spec``) and runs through
    the same ``api.run`` dispatcher as ``run --spec``.
``fig``
    Regenerate a paper figure (4, 5, 8, 9, 10, 11, 12) or the headline
    numbers.
``registry``
    List registered component keys by kind (``--kind backend`` shows the
    network-fidelity backends with their descriptions).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

from . import api
from .analysis.tables import format_table, ms, pct
from .errors import ReproError, SpecError
from .topology import get_topology, preset_names
from .units import fmt_size, parse_size
from .workloads import get_workload


#: Defaults of the ``cluster`` subcommand's trace-shaping flags — shared by
#: ``build_parser`` and the ``--fairness``/``--placement`` ignored-flag note
#: so the two can never disagree.
_CLUSTER_TRACE_DEFAULTS = {
    "jobs": 4,
    "interarrival_ms": 2.0,
    "seed": 1,
    "iterations": 1,
    "workloads": "",
}


def _parse_set_flags(pairs: list[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ReproError(
                f"--set expects dotted.key=value, got {pair!r}"
            )
        key, _, value = pair.partition("=")
        overrides[key.strip()] = value
    return overrides


def _parse_axis_flags(pairs: list[str]) -> dict[str, list]:
    """``--axis key=v1,v2`` / ``--axis a+b=x:y,z:w`` into sweep axes."""
    axes: dict[str, list] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ReproError(f"--axis expects key=v1,v2,..., got {pair!r}")
        key, _, raw = pair.partition("=")
        key = key.strip()
        fields = [part.strip() for part in key.split("+")]
        values: list = []
        for chunk in raw.split(","):
            if len(fields) > 1:
                parts = chunk.split(":")
                if len(parts) != len(fields):
                    raise ReproError(
                        f"--axis {key!r}: value {chunk!r} needs "
                        f"{len(fields)} ':'-separated parts"
                    )
                values.append(tuple(api.parse_cli_value(p) for p in parts))
            else:
                values.append(api.parse_cli_value(chunk))
        if not values:
            raise ReproError(f"--axis {key!r} has no values")
        axes[key] = values
    return axes


def _parse_fault_event(text: str, *, failure: bool) -> dict:
    """``--degrade DIM:FACTOR:START[:DURATION]`` / ``--link-failure
    DIM:START[:DURATION]`` into a :class:`~repro.api.FaultSpec` link event."""
    flag = "--link-failure" if failure else "--degrade"
    shape = "DIM:START[:DURATION]" if failure else "DIM:FACTOR:START[:DURATION]"
    parts = text.split(":")
    want = (2, 3) if failure else (3, 4)
    if len(parts) not in want:
        raise SpecError(f"{flag} expects {shape}, got {text!r}")
    try:
        dim = int(parts[0])
        numbers = [float(part) for part in parts[1:]]
    except ValueError:
        raise SpecError(
            f"{flag} expects numeric fields ({shape}), got {text!r}"
        ) from None
    if failure:
        event = {"dim_index": dim, "factor": 0.0, "start": numbers[0]}
        rest = numbers[1:]
    else:
        event = {"dim_index": dim, "factor": numbers[0], "start": numbers[1]}
        rest = numbers[2:]
    if rest:
        event["duration"] = rest[0]
    return event


def _fault_payload(args: argparse.Namespace) -> api.FaultSpec | None:
    """``--faults FILE`` read as a :class:`~repro.api.FaultSpec`, with the
    ``--degrade`` / ``--link-failure`` events appended to its ``links``
    (``None`` when no fault flag was given)."""
    payload: Any = {}
    if args.faults:
        try:
            payload = json.loads(Path(args.faults).read_text())
        except json.JSONDecodeError as error:
            raise SpecError(f"invalid fault JSON in {args.faults}: {error}") from error
    events: list[Any] = [
        *(_parse_fault_event(text, failure=False) for text in args.degrade),
        *(_parse_fault_event(text, failure=True) for text in args.link_failure),
    ]
    if payload == {} and not events:
        return None
    spec = api.FaultSpec.from_dict(payload)
    return dataclasses.replace(spec, links=(*spec.links, *events))


def _emit_report(report: api.RunReport, as_json: bool) -> None:
    if as_json:
        print(report.to_json())
    else:
        print(report.describe())


def _cmd_run(args: argparse.Namespace) -> int:
    spec = api.load_spec(args.spec)
    if args.set:
        spec = spec.with_overrides(_parse_set_flags(args.set))
    if args.show_spec:
        print(spec.to_json())
        if not args.check:
            print()
    if args.check:
        print(f"spec OK: {type(spec).__name__} from {args.spec}")
        return 0
    _emit_report(api.run(spec, audit=args.audit or None), args.json)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = api.load_spec(args.spec)
    if args.set:
        spec = spec.with_overrides(_parse_set_flags(args.set))
    axes = _parse_axis_flags(args.axis)
    if not axes:
        raise ReproError("sweep needs at least one --axis")
    result = api.sweep(spec, axes, processes=args.processes, audit=args.audit or None)
    if args.json:
        print(result.to_json())
    else:
        print(result.render())
    return 0


def _cmd_topologies(_args: argparse.Namespace) -> int:
    for name in preset_names():
        print(get_topology(name).describe())
        print()
    return 0


def _maybe_show_spec(args: argparse.Namespace, spec: api.ScenarioSpec) -> None:
    if getattr(args, "show_spec", False):
        print(spec.to_json())
        print()


def _cmd_collective(args: argparse.Namespace) -> int:
    size = parse_size(args.size)
    base = api.CollectiveScenario(
        topology=args.topology,
        collective=args.type,
        size=size,
        chunks=args.chunks,
    )
    _maybe_show_spec(args, base)
    grid = api.sweep(
        base,
        {
            "scheduler+policy": [
                ("baseline", "FIFO"), ("themis", "FIFO"), ("themis", "SCF")
            ]
        },
    )
    first = grid.points[0].report
    print(
        f"{first.payload['collective']} of {fmt_size(size)} on "
        f"{first.payload['topology']} ({args.chunks} chunks):"
    )
    rows = []
    baseline_time = None
    for point in grid:
        payload = point.report.payload
        if payload["scheduler_label"] == "Baseline":
            baseline_time = payload["comm_time"]
        speedup = (
            baseline_time / payload["comm_time"] if baseline_time else 1.0
        )
        rows.append(
            (
                payload["scheduler_label"],
                payload["comm_time"],
                point.report.avg_utilization or 0.0,
                speedup,
            )
        )
    print(
        format_table(
            ["scheduler", "comm time", "avg BW util", "speedup"],
            rows,
            [str, ms, pct, "{:.2f}x".format],
        )
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    base = api.TrainingScenario(
        workload=args.workload,
        topology=args.topology,
        iterations=args.iterations,
        overlap_dp=not args.sync_dp,
        dp_bucket_bytes=parse_size(args.bucket) if args.bucket else None,
        backend=args.backend or None,
    )
    _maybe_show_spec(args, base)
    workload = get_workload(args.workload)
    print(workload.describe(get_topology(args.topology)))
    print()
    if args.backend:
        # An explicit fidelity pins the backend axis: compare schedulers
        # at that fidelity (the Ideal row belongs to the default sweep).
        axes: dict = {"scheduler": ["baseline", "themis"]}
    else:
        axes = {
            "scheduler+ideal_network": [
                ("baseline", False), ("themis", False), ("themis", True)
            ]
        }
    grid = api.sweep(base, axes)
    for point in grid:
        print(point.report.detail.describe())
    return 0


def _cmd_cluster_open_loop(args: argparse.Namespace) -> int:
    """Open-loop cluster run: seeded arrivals + steady-state window."""
    if (args.rate is None) == (args.target_rho is None):
        print(
            "error: open-loop runs need exactly one of --rate or --target-rho",
            file=sys.stderr,
        )
        return 1
    if args.target_rho is not None and args.max_concurrent is None:
        print(
            "error: --target-rho needs --max-concurrent (offered load is "
            "defined against a fixed number of slots)",
            file=sys.stderr,
        )
        return 1
    open_loop: dict = {
        "rate": args.rate,
        "target_rho": args.target_rho,
        "seed": args.seed,
        "process": args.process,
    }
    if args.arrivals is not None:
        open_loop["max_jobs"] = args.arrivals
        open_loop["duration"] = args.trace_duration  # None = count-bounded
    elif args.trace_duration is not None:
        open_loop["duration"] = args.trace_duration
    spec = api.ClusterScenario(
        topology=args.topology,
        open_loop=open_loop,
        max_concurrent=args.max_concurrent,
        warmup_time=args.warmup,
        measure_time=args.measure,
        outcome_cap=args.outcome_cap,
        isolated_per_iteration=True,
        faults=_fault_payload(args),
        backend=args.backend or None,
    )
    _maybe_show_spec(args, spec)
    print(api.run(spec).detail.describe())
    return 0


def _skewed_comparison(
    args: argparse.Namespace,
    flag: str,
    variants: tuple[str, ...],
    baselines: tuple[str, ...],
    sweep: Callable[..., Any],
    run: Callable[..., Any],
) -> int:
    """The fixed skewed-trace comparison ``--<flag>`` runs: the chosen
    policy beside its ``baselines`` (every one of ``variants`` for
    ``all``); the trace-shaping flags are ignored, with a note."""
    ignored = [
        f"--{dest.replace('_', '-')}"
        for dest, default in _CLUSTER_TRACE_DEFAULTS.items()
        if getattr(args, dest) != default
    ]
    if ignored:
        print(
            f"note: --{flag} runs the fixed skewed trace; ignoring "
            f"{', '.join(ignored)}",
            file=sys.stderr,
        )
    choice = getattr(args, flag)
    if choice == "all":
        policies = variants
    elif choice in baselines:
        policies = (choice,)
    else:
        # Always include the baselines so the comparison is visible.
        policies = (*baselines, choice)
    if args.show_spec:
        base, _axes = sweep(topology_name=args.topology, policies=policies)
        print(base.to_json())
        print()
    print(run(topology_name=args.topology, policies=policies).render())
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    faults = _fault_payload(args)
    if args.backend and (args.fairness or args.placement):
        print(
            "error: the --fairness/--placement comparisons run on the "
            "analytical backend; drop --backend (or run a spec with "
            "'backend' via 'run --spec')",
            file=sys.stderr,
        )
        return 1
    if faults is not None and (args.fairness or args.placement):
        print(
            "error: --fairness/--placement run fixed healthy-network "
            "comparisons; for faults under scheduler comparisons see "
            "'themis-sim fig' or run a spec with 'faults' via 'run --spec' "
            "(experiments/degraded.py is the built-in degraded comparison)",
            file=sys.stderr,
        )
        return 1
    if (
        args.arrivals is not None
        or args.rate is not None
        or args.target_rho is not None
        or args.measure is not None
    ):
        return _cmd_cluster_open_loop(args)
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 1
    if args.interarrival_ms <= 0:
        print(
            f"error: --interarrival-ms must be > 0, got {args.interarrival_ms}",
            file=sys.stderr,
        )
        return 1
    if args.iterations < 1:
        print(
            f"error: --iterations must be >= 1, got {args.iterations}",
            file=sys.stderr,
        )
        return 1
    if args.fairness and args.placement:
        print(
            "error: --fairness and --placement each run their own fixed "
            "skewed-trace comparison; pick one",
            file=sys.stderr,
        )
        return 1
    if args.placement:
        from .experiments.placement import (
            PLACEMENT_VARIANTS,
            placement_sweep,
            run_placement_comparison,
        )

        return _skewed_comparison(
            args,
            "placement",
            PLACEMENT_VARIANTS,
            ("manual", "all-dims"),
            placement_sweep,
            run_placement_comparison,
        )
    if args.fairness:
        from .experiments.fairness import (
            FAIRNESS_VARIANTS,
            fairness_sweep,
            run_fairness_comparison,
        )

        return _skewed_comparison(
            args,
            "fairness",
            FAIRNESS_VARIANTS,
            ("fifo",),
            fairness_sweep,
            run_fairness_comparison,
        )
    workloads = tuple(
        name.strip() for name in args.workloads.split(",") if name.strip()
    )
    if faults is not None or args.backend:
        # Fault injection (or a pinned network fidelity) runs the Poisson
        # trace directly — one cluster run — instead of the
        # multi-scheduler contention experiment.
        trace: dict = {
            "interarrival": args.interarrival_ms * 1e-3,
            "seed": args.seed,
            "iterations": args.iterations,
            "jobs": args.jobs,
        }
        if workloads:
            trace["workloads"] = workloads
        spec = api.ClusterScenario(
            topology=args.topology,
            trace=trace,
            faults=faults,
            backend=args.backend or None,
        )
        _maybe_show_spec(args, spec)
        print(api.run(spec).detail.describe())
        return 0
    from .experiments.cluster_contention import (
        contention_sweep,
        run_cluster_contention,
    )
    if args.show_spec:
        base, _axes = contention_sweep(
            topology_name=args.topology,
            n_jobs=args.jobs,
            mean_interarrival=args.interarrival_ms * 1e-3,
            seed=args.seed,
            iterations=args.iterations,
            workload_names=workloads or None,
        )
        print(base.to_json())
        print()
    result = run_cluster_contention(
        topology_name=args.topology,
        n_jobs=args.jobs,
        mean_interarrival=args.interarrival_ms * 1e-3,
        seed=args.seed,
        iterations=args.iterations,
        workload_names=workloads or None,
    )
    print(result.render())
    return 0


def _cmd_provisioning(args: argparse.Namespace) -> int:
    spec = api.ProvisioningScenario(topology=args.topology)
    _maybe_show_spec(args, spec)
    print(api.run(spec).detail.describe())
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    from . import experiments

    runners = {
        "4": lambda: experiments.run_fig4(quick=args.quick),
        "5": experiments.run_fig5,
        "8": lambda: experiments.run_fig8(quick=args.quick),
        "9": experiments.run_fig9,
        "10": lambda: experiments.run_fig10(quick=args.quick),
        "11": lambda: experiments.run_fig11(quick=args.quick),
        "12": lambda: experiments.run_fig12(quick=args.quick),
        "headline": lambda: experiments.run_headline(quick=args.quick),
        "fidelity": lambda: experiments.run_fidelity(quick=args.quick),
        "fluid-scale": lambda: experiments.run_fluid_scale(quick=args.quick),
    }
    runner = runners.get(args.figure)
    if runner is None:
        known = ", ".join(runners)
        print(f"unknown figure {args.figure!r}; known: {known}", file=sys.stderr)
        return 2
    print(runner().render())
    return 0


def _cmd_registry(args: argparse.Namespace) -> int:
    kinds = api.registry_kinds()
    if args.kind:
        if args.kind not in kinds:
            known = ", ".join(kinds)
            print(f"unknown kind {args.kind!r}; known: {known}",
                  file=sys.stderr)
            return 2
        kinds = (args.kind,)
    if args.json:
        print(json.dumps({kind: list(api.registry_keys(kind))
                          for kind in kinds}, indent=2))
        return 0
    from .sim.backends import get_backend

    for kind in kinds:
        print(f"{kind}:")
        for key in api.registry_keys(kind):
            if kind == "backend":
                print(f"  {key:<12} {get_backend(key).description}")
            else:
                print(f"  {key}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="themis-sim",
        description="Themis (ISCA 2022) collective-scheduling reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="run a scenario from a JSON spec")
    run_cmd.add_argument("--spec", required=True, help="path to a spec JSON file")
    run_cmd.add_argument("--set", action="append", default=[],
                         metavar="KEY=VALUE",
                         help="dotted-path spec override (repeatable)")
    run_cmd.add_argument("--check", action="store_true",
                         help="validate the spec and exit without running")
    run_cmd.add_argument("--show-spec", action="store_true",
                         help="print the effective spec JSON before running")
    run_cmd.add_argument("--json", action="store_true",
                         help="emit the RunReport as JSON")
    run_cmd.add_argument("--audit", action="store_true",
                         help="enable the runtime invariant auditor "
                              "(equivalent to THEMIS_AUDIT=1)")

    sweep_cmd = sub.add_parser(
        "sweep", help="run a grid of scenario variants from a base spec"
    )
    sweep_cmd.add_argument("--spec", required=True,
                           help="path to the base spec JSON file")
    sweep_cmd.add_argument("--set", action="append", default=[],
                           metavar="KEY=VALUE",
                           help="dotted-path base-spec override (repeatable)")
    sweep_cmd.add_argument("--axis", action="append", default=[],
                           metavar="KEY=V1,V2",
                           help="sweep axis (repeatable); couple fields "
                                "with 'a+b=x:y,z:w'")
    sweep_cmd.add_argument("--processes", type=int, default=None,
                           help="run grid points on a process pool")
    sweep_cmd.add_argument("--json", action="store_true",
                           help="emit the SweepResult as JSON")
    sweep_cmd.add_argument("--audit", action="store_true",
                           help="enable the runtime invariant auditor on "
                                "every grid point (THEMIS_AUDIT=1)")

    sub.add_parser("topologies", help="list Table 2 topology presets")

    collective = sub.add_parser("collective", help="simulate one collective")
    collective.add_argument("--topology", default="3D-SW_SW_SW_homo")
    collective.add_argument("--size", default="1GB")
    collective.add_argument("--type", default="allreduce")
    collective.add_argument("--chunks", type=int, default=64)
    collective.add_argument("--show-spec", action="store_true",
                            help="print the scenario spec this run maps to")

    train = sub.add_parser("train", help="simulate training iterations")
    train.add_argument("--workload", default="resnet-152")
    train.add_argument("--topology", default="3D-SW_SW_SW_homo")
    train.add_argument("--iterations", type=int, default=1)
    train.add_argument("--bucket", default="100MB",
                       help="DP gradient bucket size ('' for per-layer)")
    train.add_argument("--sync-dp", action="store_true",
                       help="expose all DP comm at end of backprop (paper mode)")
    train.add_argument("--backend", default="",
                       help="network-fidelity backend (see 'registry --kind "
                            "backend'); pins the Themis-vs-Baseline sweep to "
                            "this backend instead of the default "
                            "analytical+Ideal comparison")
    train.add_argument("--show-spec", action="store_true",
                       help="print the scenario spec this run maps to")

    cluster = sub.add_parser(
        "cluster", help="simulate a multi-job cluster trace (shared network)"
    )
    cluster.add_argument("--topology", default="3D-SW_SW_SW_homo")
    cluster.add_argument("--jobs", type=int,
                         default=_CLUSTER_TRACE_DEFAULTS["jobs"],
                         help="number of jobs in the Poisson arrival trace")
    cluster.add_argument("--interarrival-ms", type=float,
                         default=_CLUSTER_TRACE_DEFAULTS["interarrival_ms"],
                         help="mean job inter-arrival time in milliseconds")
    cluster.add_argument("--seed", type=int,
                         default=_CLUSTER_TRACE_DEFAULTS["seed"],
                         help="arrival-trace RNG seed")
    cluster.add_argument("--iterations", type=int,
                         default=_CLUSTER_TRACE_DEFAULTS["iterations"],
                         help="training iterations per job")
    cluster.add_argument("--workloads",
                         default=_CLUSTER_TRACE_DEFAULTS["workloads"],
                         help="comma-separated workload rotation "
                              "(default: dlrm,resnet-152,gnmt)")
    from .cluster import fairness_names, placement_names

    # Choices come from the fairness/placement registries, so policies
    # added via ``register_fairness`` / ``register_placement`` /
    # ``api.register(...)`` before the parser is built are selectable too.
    cluster.add_argument("--fairness", default="",
                         choices=["", *fairness_names(), "all"],
                         help="run the skewed-trace fairness comparison under "
                              "this cluster fairness policy (plus the FIFO "
                              "baseline; 'all' sweeps every built-in policy) "
                              "instead of the Poisson contention experiment")
    cluster.add_argument("--placement", default="",
                         choices=["", *placement_names(), "all"],
                         help="run the skewed-trace placement comparison "
                              "under this placement policy (plus the manual "
                              "and all-dims baselines; 'all' sweeps every "
                              "built-in policy) instead of the Poisson "
                              "contention experiment")
    from .cluster import ARRIVAL_PROCESSES

    open_loop = cluster.add_argument_group(
        "open-loop arrivals",
        "any of these switches the command to a seeded open-loop arrival "
        "workload with a steady-state measurement window",
    )
    open_loop.add_argument("--arrivals", type=int, default=None,
                           metavar="N",
                           help="generate an open-loop trace of N arrivals")
    open_loop.add_argument("--rate", type=float, default=None,
                           help="arrival rate in jobs/second")
    open_loop.add_argument("--target-rho", type=float, default=None,
                           help="offered load; the arrival rate is "
                                "calibrated from the job mix's mean solo "
                                "service time (needs --max-concurrent)")
    open_loop.add_argument("--process", default="poisson",
                           choices=list(ARRIVAL_PROCESSES),
                           help="arrival process (default: poisson)")
    open_loop.add_argument("--trace-duration", type=float, default=None,
                           metavar="SECONDS",
                           help="bound the trace by simulated time instead "
                                "of (or in addition to) --arrivals")
    open_loop.add_argument("--warmup", type=float, default=0.0,
                           metavar="SECONDS",
                           help="discard jobs finishing in the first SECONDS "
                                "of simulated time (needs --measure)")
    open_loop.add_argument("--measure", type=float, default=None,
                           metavar="SECONDS",
                           help="measure for SECONDS past the warm-up, then "
                                "stop (steady-state window)")
    open_loop.add_argument("--max-concurrent", type=int, default=None,
                           metavar="K",
                           help="admission control: at most K jobs run at "
                                "once; later arrivals queue")
    open_loop.add_argument("--outcome-cap", type=int, default=1000,
                           metavar="N",
                           help="keep per-iteration detail for the first N "
                                "completions only (bounded memory; "
                                "default 1000)")
    fault_group = cluster.add_argument_group(
        "fault injection",
        "degrade or fail network dimensions on a schedule and optionally "
        "crash/retry jobs; any of these runs the arrival trace under the "
        "composed fault schedule (see docs/faults.md)",
    )
    fault_group.add_argument("--faults", default="",
                             metavar="FILE",
                             help="JSON file of FaultSpec fields (links, "
                                  "flap/straggler generators, crash_rate, "
                                  "retry/checkpoint knobs)")
    fault_group.add_argument("--degrade", action="append", default=[],
                             metavar="DIM:FACTOR:START[:DURATION]",
                             help="degrade dimension DIM to FACTOR of its "
                                  "bandwidth at START seconds, restoring "
                                  "after DURATION (forever if omitted); "
                                  "repeatable")
    fault_group.add_argument("--link-failure", action="append", default=[],
                             metavar="DIM:START[:DURATION]",
                             help="fail dimension DIM completely (capacity "
                                  "0, in-flight work parked) at START "
                                  "seconds, restoring after DURATION; "
                                  "repeatable")
    cluster.add_argument("--backend", default="",
                         help="network-fidelity backend for the arrival "
                              "trace (see 'registry --kind backend'); not "
                              "combinable with --fairness/--placement")
    cluster.add_argument("--show-spec", action="store_true",
                         help="print the scenario spec this run maps to")

    provisioning = sub.add_parser(
        "provisioning", help="Sec. 6.3 BW-distribution assessment"
    )
    provisioning.add_argument("--topology", default="3D-SW_SW_SW_homo")
    provisioning.add_argument("--show-spec", action="store_true",
                              help="print the scenario spec this run maps to")

    fig = sub.add_parser("fig", help="regenerate a paper figure")
    fig.add_argument("figure",
                     help="4, 5, 8, 9, 10, 11, 12, 'headline', "
                          "'fidelity' (cross-backend check), or "
                          "'fluid-scale' (fast-path capacity study)")
    fig.add_argument("--full", dest="quick", action="store_false",
                     help="run the full (slow) sweep instead of quick mode")

    registry = sub.add_parser(
        "registry", help="list registered component keys by kind"
    )
    registry.add_argument("--kind", default="",
                          help="show one kind only (topology, workload, "
                               "scheduler, fairness, placement, backend, ...)")
    registry.add_argument("--json", action="store_true",
                          help="emit {kind: [keys]} as JSON")
    return parser


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "topologies": _cmd_topologies,
    "collective": _cmd_collective,
    "train": _cmd_train,
    "cluster": _cmd_cluster,
    "provisioning": _cmd_provisioning,
    "fig": _cmd_fig,
    "registry": _cmd_registry,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
