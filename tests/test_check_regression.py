"""Perf-gate script tests: ``benchmarks/check_regression.py``.

The gating CI lane trusts this script to fail loudly, so its failure
modes are tested like product code: missing baseline rows, renamed case
keys, drift exactly at / just past the tolerance boundary, and malformed
JSON on either side.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
check_regression = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_regression", check_regression)
_spec.loader.exec_module(check_regression)


def _cell(
    jobs, policy, *, events=1000, peak=50, cancelled=10, wall=0.1, mean_jct=0.04
):
    return {
        "jobs": jobs,
        "policy": policy,
        "optimized": {
            "jobs": jobs,
            "policy": policy,
            "wall_seconds": wall,
            "events": events,
            "peak_pending_events": peak,
            "cancelled_events": cancelled,
            "mean_jct": mean_jct,
        },
    }


def _fluid_row(jobs, *, events=500, peak=20, cancelled=0, wall=0.05, mean_jct=1.2e-4):
    return {
        "jobs": jobs,
        "backend": "fluid",
        "wall_seconds": wall,
        "events": events,
        "peak_pending_events": peak,
        "cancelled_events": cancelled,
        "mean_jct": mean_jct,
    }


def _document(cells, fluid_rows=None, exact_reference=None):
    document = {"benchmark": "scaling", "results": cells}
    if fluid_rows is not None or exact_reference is not None:
        document["fluid_scaling"] = {
            "rows": fluid_rows or [],
            "exact_reference": exact_reference,
        }
    return document


def _write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path


def _run(tmp_path, baseline, fresh, *extra):
    base_path = _write(tmp_path, "baseline.json", baseline)
    fresh_path = _write(tmp_path, "fresh.json", fresh)
    return check_regression.main(
        ["--baseline", str(base_path), "--fresh", str(fresh_path), *extra]
    )


class TestCountersOnly:
    def test_identical_passes(self, tmp_path):
        doc = _document([_cell(8, "fifo")], [_fluid_row(512)])
        assert _run(tmp_path, doc, doc, "--counters-only") == 0

    def test_subset_fresh_passes(self, tmp_path):
        baseline = _document(
            [_cell(8, "fifo"), _cell(16, "fifo")],
            [_fluid_row(512), _fluid_row(1024)],
        )
        fresh = _document([_cell(8, "fifo")], [_fluid_row(512)])
        assert _run(tmp_path, baseline, fresh, "--counters-only") == 0

    def test_missing_baseline_row_fails(self, tmp_path, capsys):
        baseline = _document([_cell(8, "fifo")])
        fresh = _document([_cell(8, "fifo"), _cell(16, "fifo")])
        assert _run(tmp_path, baseline, fresh, "--counters-only") == 1
        assert "MISSING BASELINE" in capsys.readouterr().out

    def test_renamed_key_fails(self, tmp_path, capsys):
        baseline = _document([_cell(8, "fifo")])
        fresh = _document([_cell(8, "fifo-v2")])
        assert _run(tmp_path, baseline, fresh, "--counters-only") == 1
        out = capsys.readouterr().out
        assert "MISSING BASELINE" in out
        assert "fifo-v2" in out

    def test_missing_row_skipped_in_default_mode(self, tmp_path):
        baseline = _document([_cell(8, "fifo")])
        fresh = _document([_cell(8, "fifo"), _cell(16, "fifo")])
        assert _run(tmp_path, baseline, fresh) == 0

    @pytest.mark.parametrize(
        "counter", ["events", "peak_pending_events", "cancelled_events"]
    )
    def test_each_counter_gates_exactly(self, tmp_path, counter, capsys):
        baseline = _document([_cell(8, "fifo")])
        fresh_cells = [_cell(8, "fifo")]
        fresh_cells[0]["optimized"][counter] += 1
        fresh = _document(fresh_cells)
        assert _run(tmp_path, baseline, fresh, "--counters-only") == 1
        assert counter in capsys.readouterr().out

    def test_fluid_rows_gated(self, tmp_path, capsys):
        baseline = _document([_cell(8, "fifo")], [_fluid_row(512)])
        fresh = _document([_cell(8, "fifo")], [_fluid_row(512, events=501)])
        assert _run(tmp_path, baseline, fresh, "--counters-only") == 1
        assert "events changed" in capsys.readouterr().out

    def test_exact_reference_row_gated(self, tmp_path):
        baseline = _document(
            [_cell(8, "fifo")], [_fluid_row(512)],
            exact_reference=_fluid_row(512, events=9000),
        )
        fresh = _document(
            [_cell(8, "fifo")], [_fluid_row(512)],
            exact_reference=_fluid_row(512, events=9001),
        )
        assert _run(tmp_path, baseline, fresh, "--counters-only") == 1

    def test_mean_jct_within_tolerance_passes(self, tmp_path):
        baseline = _document([_cell(8, "fifo")], [_fluid_row(512)])
        fresh = _document(
            [_cell(8, "fifo", mean_jct=0.04 * (1 + 5e-10))],
            [_fluid_row(512, mean_jct=1.2e-4 * (1 - 5e-10))],
        )
        assert _run(tmp_path, baseline, fresh, "--counters-only") == 0

    def test_mean_jct_outside_tolerance_fails(self, tmp_path, capsys):
        baseline = _document([_cell(8, "fifo")], [_fluid_row(512)])
        fresh = _document(
            [_cell(8, "fifo")], [_fluid_row(512, mean_jct=1.2e-4 * (1 + 2e-9))]
        )
        assert _run(tmp_path, baseline, fresh, "--counters-only") == 1
        assert "mean_jct changed" in capsys.readouterr().out

    @pytest.mark.parametrize("side", ["baseline", "fresh"])
    def test_row_lacking_mean_jct_fails(self, tmp_path, side, capsys):
        lacking = _cell(8, "fifo")
        del lacking["optimized"]["mean_jct"]
        documents = {
            "baseline": _document([_cell(8, "fifo")]),
            "fresh": _document([_cell(8, "fifo")]),
        }
        documents[side] = _document([lacking])
        code = _run(
            tmp_path, documents["baseline"], documents["fresh"], "--counters-only"
        )
        assert code == 1
        assert "mean_jct" in capsys.readouterr().out

    def test_wall_drift_never_gates(self, tmp_path):
        baseline = _document([_cell(8, "fifo", wall=0.1)])
        fresh = _document([_cell(8, "fifo", wall=10.0)])
        assert _run(tmp_path, baseline, fresh, "--counters-only") == 0


class TestToleranceBoundary:
    def test_drift_at_tolerance_passes(self, tmp_path):
        baseline = _document([_cell(8, "fifo", events=1000)])
        fresh = _document([_cell(8, "fifo", events=1020)])  # exactly 2%
        assert _run(tmp_path, baseline, fresh) == 0

    def test_drift_past_tolerance_fails(self, tmp_path, capsys):
        baseline = _document([_cell(8, "fifo", events=1000)])
        fresh = _document([_cell(8, "fifo", events=1021)])
        assert _run(tmp_path, baseline, fresh) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_counters_only_rejects_within_tolerance_drift(self, tmp_path):
        baseline = _document([_cell(8, "fifo", events=1000)])
        fresh = _document([_cell(8, "fifo", events=1010)])  # 1% < 2%
        assert _run(tmp_path, baseline, fresh) == 0
        assert _run(tmp_path, baseline, fresh, "--counters-only") == 1


class TestMalformedInput:
    def test_malformed_baseline_json(self, tmp_path):
        base_path = tmp_path / "baseline.json"
        base_path.write_text("{not json")
        fresh_path = _write(tmp_path, "fresh.json", _document([_cell(8, "fifo")]))
        with pytest.raises(SystemExit, match="malformed JSON"):
            check_regression.main(
                ["--baseline", str(base_path), "--fresh", str(fresh_path)]
            )

    def test_malformed_fresh_json(self, tmp_path):
        base_path = _write(
            tmp_path, "baseline.json", _document([_cell(8, "fifo")])
        )
        fresh_path = tmp_path / "fresh.json"
        fresh_path.write_text("[1, 2")
        with pytest.raises(SystemExit, match="malformed JSON"):
            check_regression.main(
                ["--baseline", str(base_path), "--fresh", str(fresh_path)]
            )

    def test_wrong_toplevel_type(self, tmp_path):
        base_path = _write(tmp_path, "baseline.json", _document([_cell(8, "fifo")]))
        fresh_path = tmp_path / "fresh.json"
        fresh_path.write_text("[]")
        with pytest.raises(SystemExit, match="expected an object"):
            check_regression.main(
                ["--baseline", str(base_path), "--fresh", str(fresh_path)]
            )

    def test_missing_file(self, tmp_path):
        base_path = _write(tmp_path, "baseline.json", _document([_cell(8, "fifo")]))
        with pytest.raises(SystemExit, match="cannot read"):
            check_regression.main(
                [
                    "--baseline", str(base_path),
                    "--fresh", str(tmp_path / "nope.json"),
                ]
            )

    def test_no_comparable_cases(self, tmp_path):
        baseline = _document([_cell(8, "fifo")])
        fresh = _document([_cell(64, "ftf")])
        assert _run(tmp_path, baseline, fresh) == 1


class TestAgainstCommittedBaseline:
    def test_committed_baseline_parses_and_self_compares(self):
        committed = Path(__file__).resolve().parents[1] / "BENCH_scaling.json"
        cases = check_regression.load_cases(committed)
        assert cases, "committed baseline has no cases"
        fluid_cases = [key for key in cases if key[1] == "fluid"]
        assert fluid_cases, "committed baseline lacks fluid fast-path rows"
        exit_code = check_regression.main(
            [
                "--baseline", str(committed),
                "--fresh", str(committed),
                "--counters-only",
            ]
        )
        assert exit_code == 0
