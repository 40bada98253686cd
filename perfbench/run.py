"""The repository's benchmark: one seeded workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_headline --seed 0 --seconds 30 --trace 0

Every invocation builds the workload's inputs from ``--seed``, then sets
up and runs the workload back to back for ``--seconds`` (at least three
times), in this one process, one simulation at a time.  Host times are
corrected for the host's speed by ``hostspeed.SpeedMeter``.
It prints a human-readable report and, as the last line of standard
output, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The traced run
also writes its spans to ``.perfbench-traces/<workload>-seed<seed>.json``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, NamedTuple

import hostspeed
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Each invocation runs the workload at least this many times.
MIN_REPEATS = 3
#: Fresh interpreters timed per invocation for the import part of set-up.
IMPORT_PROBES = 3
#: Names of the traced run's two top-level spans.
SETUP, TIMED = "bench.setup", "bench.run"


class Repeat(NamedTuple):
    """One set-up plus timed call of the workload (speed-corrected seconds)."""

    setup_s: float
    wall_s: float
    #: ``wall_s`` before the speed correction.
    raw_wall_s: float
    outcome: Any


def import_seconds() -> float:
    """Median time for a fresh interpreter to import the benchmarked program.

    The interpreter times the import inside its own ``SpeedMeter``; the rest
    of its life is corrected by the host's speed sampled just before and
    just after it.
    """
    code = "\n".join(
        (
            f"import sys, time; sys.path.insert(0, {str(HERE)!r}); import hostspeed",
            "with hostspeed.SpeedMeter() as meter:",
            "    start = time.perf_counter(); import workloads",
            "    print(*meter.seconds(start, time.perf_counter()))",
        )
    )
    times = []
    for _ in range(IMPORT_PROBES):
        before = hostspeed.sample()
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            check=True,
            stdout=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        rest_s = time.perf_counter() - start
        raw_s, import_s = map(float, child.stdout.split()[-2:])
        probe_s = statistics.fmean((before, hostspeed.sample()))
        times.append(import_s + hostspeed.corrected(rest_s - raw_s, probe_s))
    return statistics.median(times)


def repeat_once(
    workload: Any, meter: hostspeed.SpeedMeter, tracer: tracing.Tracer | None = None
) -> Repeat:
    """Set up and run the workload once, inside ``meter``, then check its outputs.

    With a ``tracer`` the layer wrappers are installed around both parts,
    which are recorded as the ``SETUP`` and ``TIMED`` spans.
    """

    def phase(name: str) -> Any:
        return tracer.span(name) if tracer else contextlib.nullcontext()

    gc.collect()
    with tracing.installed(tracer) if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        with phase(SETUP):
            prepared = workload.setup()
        _, setup_s = meter.seconds(start, time.perf_counter())
        if tracer is None:
            gc.collect()
        start = time.perf_counter()
        with phase(TIMED):
            result = workload.run(prepared)
        raw_wall_s, wall_s = meter.seconds(start, time.perf_counter())
    return Repeat(setup_s, wall_s, raw_wall_s, workload.check(prepared, result))


def measure(
    workload: Any, seconds: float, meter: hostspeed.SpeedMeter
) -> list[Repeat]:
    """Untraced repeats for ``seconds`` (at least three).

    No repeat starts that would likely end after ``seconds``.
    """
    repeats: list[Repeat] = []
    deadline = time.perf_counter() + seconds
    longest = 0.0
    while len(repeats) < MIN_REPEATS or time.perf_counter() + longest < deadline:
        start = time.perf_counter()
        repeats.append(repeat_once(workload, meter))
        longest = max(longest, time.perf_counter() - start)
    return repeats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import workloads
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; known: "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload](args.seed)

    import_s = import_seconds()
    with hostspeed.SpeedMeter() as meter:
        repeats = measure(workload, args.seconds, meter)
        if args.trace:
            trace = tracing.Tracer(f"{workload.name}-seed{args.seed}")
            traced = repeat_once(workload, meter, trace)
    outcomes = [repeat.outcome for repeat in repeats]
    reference = workload.reference()
    sims = [workload.sim_metrics(o.observed, reference) for o in outcomes]
    problems = [problem for o in outcomes for problem in o.problems]
    if any(sim != sims[0] for sim in sims):
        outcomes[0].failed += 1
        problems.append("sim_* values differ between repeats")
    wall_s = statistics.median(repeat.wall_s for repeat in repeats)

    if args.trace:
        outcomes.append(traced.outcome)
        problems += traced.outcome.problems
        if workload.sim_metrics(traced.outcome.observed, reference) != sims[0]:
            traced.outcome.failed += 1
            problems.append("tracing changed the sim_* values")
        values = tracing.layer_metrics(trace, TIMED)
        values["engine.events_per_s"] = values["engine.events"] / wall_s
        values["trace.overhead_s"] = traced.wall_s - wall_s
        trace.write(ROOT / ".perfbench-traces" / f"{trace.run_id}.json")
        wanted = definition["per_layer"]
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": import_s + statistics.median(r.setup_s for r in repeats),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **sims[0],
        }
        wanted = definition["end_to_end"]
    failed = sum(o.failed for o in outcomes)

    print(f"workload {workload.name}  seed {args.seed}  repeats {len(repeats)}")
    print(
        f"  wall_s per repeat: {', '.join(f'{r.wall_s:.3f}' for r in repeats)}"
        f"  (interpreter + import {import_s:.3f} s)"
    )
    print(
        "  uncorrected host s: "
        f"{', '.join(f'{r.raw_wall_s:.3f}' for r in repeats)}"
    )
    for label, measured, paper in workload.paper_values(outcomes[0].observed):
        print(
            f"  {label:<22s} {measured:9.4f}   paper {paper:7.4f}   "
            f"rel. error {(measured - paper) / paper:+.1%}"
        )
    if workload.note:
        print(f"  ({workload.note})")
    for metric in wanted:
        print(f"  {metric['name']:<24s} {values[metric['name']]:.6g} {metric['unit']}")
    for problem in problems[:20]:
        print(f"  FAILED: {problem}")
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in wanted
    }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(o.attempted for o in outcomes),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
