#!/usr/bin/env python3
"""Compare a fresh scaling-benchmark JSON against the committed baseline.

``BENCH_scaling.json`` at the repo root is the tracked perf trajectory;
CI regenerates it on a reduced matrix and this script diffs the two,
printing a per-case delta table (markdown, also appended to
``$GITHUB_STEP_SUMMARY`` when set) and exiting non-zero on regression.

Two signals with very different noise profiles are reported:

* **deterministic engine counters** — events processed,
  peak-pending-event count, and cancelled events are machine-independent:
  identical inputs must reproduce them exactly, so any drift is a real
  behavioral change in the hot path and **gates the exit code** (default
  tolerance 2%, events-only; ``--counters-only`` gates all three at 0%,
  plus each row's simulated ``mean_jct`` at 1e-9 relative, so a cache
  that served wrong op costs without moving an event count still fails);
* **wall seconds** — the committed baseline was measured on a different
  machine than the CI runner, so absolute ratios are not comparable
  run-to-run: cases slower than ``--wall-tolerance`` are flagged in the
  table (``slow (info)``) but never fail the check.

Cases are keyed ``(jobs, policy)`` from the fairness matrix plus
``(jobs, "fluid")`` / ``(jobs, "fluid-exact")`` rows from the fluid
fast-path regime.  The reduced CI matrix is a subset of the tracked one,
so baseline-only cases are normal and skipped; **fresh-only** cases mean
the baseline row went missing or was renamed without regenerating
``BENCH_scaling.json``:

* default (warn-only perf-smoke) mode: fresh-only cases are listed but
  don't affect the exit code;
* ``--counters-only`` (the gating perf-gate lane): fresh-only cases fail
  the check — a silently skipped comparison is how a perf gate rots.

Malformed or unreadable JSON on either side always exits non-zero.

Usage::

    python benchmarks/check_regression.py \
        --baseline BENCH_scaling.json \
        --fresh perf-artifacts/BENCH_scaling.json \
        [--counters-only] [--wall-tolerance 1.6] [--events-tolerance 0.02]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

#: The machine-independent engine counters ``--counters-only`` gates.
GATED_COUNTERS = ("events", "peak_pending_events", "cancelled_events")
#: Relative tolerance of the ``--counters-only`` mean-JCT check (the same
#: as perfbench's seed-0 cross-check against this file).
MEAN_JCT_RTOL = 1e-9


def load_cases(path: Path) -> "dict[tuple[int, str], dict]":
    """``(jobs, policy) -> measurements`` from a bench JSON document.

    Covers the fairness matrix (optimized path) and the fluid fast-path
    regime rows.  Raises ``SystemExit`` with a readable message when the
    file is missing or not valid JSON — a perf gate must fail loudly, not
    crash with a traceback or silently compare nothing.
    """
    try:
        document = json.loads(path.read_text())
    except OSError as error:
        raise SystemExit(f"cannot read {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise SystemExit(f"malformed JSON in {path}: {error}") from error
    if not isinstance(document, dict):
        raise SystemExit(
            f"malformed document in {path}: expected an object, "
            f"got {type(document).__name__}"
        )
    cases = {}
    for entry in document.get("results", []):
        measurements = entry.get("optimized")
        if measurements is None:
            continue
        cases[(entry["jobs"], entry["policy"])] = measurements
    fluid = document.get("fluid_scaling")
    if fluid:
        for row in fluid.get("rows", []):
            cases[(row["jobs"], "fluid")] = row
        reference = fluid.get("exact_reference")
        if reference is not None:
            cases[(reference["jobs"], "fluid-exact")] = reference
    return cases


def delta_cell(fresh: float, base: float) -> str:
    if base <= 0:
        return "n/a"
    return f"{(fresh - base) / base:+.1%}".replace("%", " %")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, type=Path,
                        help="committed BENCH_scaling.json")
    parser.add_argument("--fresh", required=True, type=Path,
                        help="freshly generated BENCH_scaling.json")
    parser.add_argument("--counters-only", action="store_true",
                        help="gating mode: compare only the deterministic "
                             "engine counters (events, peak_pending_events, "
                             "cancelled_events) at zero tolerance and "
                             "mean_jct at 1e-9 relative, and fail when a "
                             "fresh case has no baseline row instead of "
                             "skipping it")
    parser.add_argument("--wall-tolerance", type=float, default=1.6,
                        help="fresh/baseline wall-time ratio above which a "
                             "case is flagged 'slow' in the table — "
                             "informational only, never fails the check "
                             "(default: 1.6)")
    parser.add_argument("--events-tolerance", type=float, default=0.02,
                        help="max allowed relative event-count drift in the "
                             "default mode (default: 0.02; --counters-only "
                             "uses exact equality instead)")
    args = parser.parse_args(argv)

    baseline = load_cases(args.baseline)
    fresh = load_cases(args.fresh)
    shared = sorted(set(baseline) & set(fresh))
    fresh_only = sorted(set(fresh) - set(baseline))
    baseline_only = sorted(set(baseline) - set(fresh))
    if not shared:
        print("no comparable cases between baseline and fresh results")
        if fresh_only:
            rendered = ", ".join(
                f"({jobs}, {policy})" for jobs, policy in fresh_only
            )
            print(
                f"MISSING BASELINE: fresh case(s) {rendered} have no "
                "baseline row — removed or renamed without regenerating "
                "BENCH_scaling.json?"
            )
        return 1

    mode = "perf gate (counters only)" if args.counters_only else "perf smoke"
    lines = [
        f"### {mode}: fresh vs committed `BENCH_scaling.json`",
        "",
        "| jobs | policy | wall (base) | wall (fresh) | wall delta "
        "| events (base) | events (fresh) | verdict |",
        "|---:|:---|---:|---:|---:|---:|---:|:---|",
    ]
    regressions = []
    for jobs, policy in shared:
        base = baseline[(jobs, policy)]
        new = fresh[(jobs, policy)]
        notes = []
        wall_base, wall_new = base["wall_seconds"], new["wall_seconds"]
        if wall_base > 0 and wall_new / wall_base > args.wall_tolerance:
            notes.append(f"slow (info): wall {wall_new / wall_base:.2f}x")
        gating = []
        if args.counters_only:
            for counter in GATED_COUNTERS:
                if counter not in base:
                    gating.append(f"baseline row lacks '{counter}'")
                elif base[counter] != new.get(counter):
                    gating.append(
                        f"{counter} changed: {base[counter]} -> "
                        f"{new.get(counter)}"
                    )
            if "mean_jct" not in base:
                gating.append("baseline row lacks 'mean_jct'")
            elif not math.isclose(
                new.get("mean_jct", math.nan), base["mean_jct"], rel_tol=MEAN_JCT_RTOL
            ):
                gating.append(
                    f"mean_jct changed: {base['mean_jct']!r} -> "
                    f"{new.get('mean_jct')!r}"
                )
        else:
            events_base, events_new = base["events"], new["events"]
            if events_base > 0:
                drift = abs(events_new - events_base) / events_base
                if drift > args.events_tolerance:
                    gating.append(
                        f"events drifted {drift:.1%} > "
                        f"{args.events_tolerance:.0%}"
                    )
        if gating:
            verdict = "REGRESSION: " + "; ".join(gating + notes)
            regressions.append((jobs, policy, verdict))
        else:
            verdict = "; ".join(notes) if notes else "ok"
        lines.append(
            f"| {jobs} | {policy} | {wall_base * 1e3:.1f} ms "
            f"| {wall_new * 1e3:.1f} ms | {delta_cell(wall_new, wall_base)} "
            f"| {base['events']} | {new['events']} | {verdict} |"
        )
    lines.append("")
    lines.append(
        f"{len(shared)} case(s) compared, {len(baseline_only)} baseline-only "
        f"(reduced matrix, skipped), {len(fresh_only)} fresh-only, "
        f"{len(regressions)} regression(s)."
    )
    missing_failures = []
    if fresh_only:
        rendered = ", ".join(f"({jobs}, {policy})" for jobs, policy in fresh_only)
        if args.counters_only:
            missing_failures.append(
                f"MISSING BASELINE: {len(fresh_only)} fresh case(s) have no "
                f"baseline row ({rendered}) — the baseline row was removed "
                "or renamed; regenerate BENCH_scaling.json"
            )
            lines.extend(["", *missing_failures])
        else:
            lines.append(
                f"fresh-only (no baseline row, not gating here): {rendered}"
            )
    table = "\n".join(lines)
    print(table)

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write(table + "\n")

    return 1 if regressions or missing_failures else 0


if __name__ == "__main__":
    sys.exit(main())
