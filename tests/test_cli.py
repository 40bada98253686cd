"""CLI smoke tests: every subcommand runs and prints sane output."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_collective_defaults(self):
        args = build_parser().parse_args(["collective"])
        assert args.topology == "3D-SW_SW_SW_homo"
        assert args.size == "1GB"
        assert args.chunks == 64


class TestCommands:
    def test_topologies(self, capsys):
        assert main(["topologies"]) == 0
        out = capsys.readouterr().out
        assert "2D-SW_SW" in out and "4D-Ring_FC_Ring_SW" in out

    def test_collective(self, capsys):
        code = main(
            ["collective", "--topology", "3D-SW_SW_SW_homo",
             "--size", "64MB", "--chunks", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Baseline" in out and "Themis+SCF" in out

    def test_collective_rs(self, capsys):
        assert main(
            ["collective", "--size", "32MB", "--type", "rs", "--chunks", "4"]
        ) == 0
        assert "ReduceScatter" in capsys.readouterr().out

    def test_collective_bad_topology(self, capsys):
        assert main(["collective", "--topology", "9D-magic"]) == 1
        assert "error" in capsys.readouterr().err

    def test_train(self, capsys):
        code = main(
            ["train", "--workload", "dlrm", "--topology", "2D-SW_SW",
             "--iterations", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DLRM" in out and "Ideal" in out

    def test_cluster(self, capsys):
        code = main(
            ["cluster", "--jobs", "2", "--workloads", "dlrm",
             "--interarrival-ms", "1.0", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Baseline" in out and "Themis" in out
        assert "slowdown" in out and "makespan" in out

    def test_cluster_bad_workload(self, capsys):
        assert main(["cluster", "--workloads", "not-a-model"]) == 1
        assert "error" in capsys.readouterr().err

    def test_cluster_fairness(self, capsys):
        """--fairness switches to the skewed-trace policy comparison."""
        code = main(["cluster", "--fairness", "fifo", "--topology", "2D-SW_SW"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fairness comparison" in out
        assert "max rho" in out and "Jain idx" in out
        assert "elephant" in out and "mouse" in out and "urgent" in out

    def test_cluster_fairness_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--fairness", "karma"])

    def test_cluster_placement(self, capsys):
        """--placement switches to the skewed-trace placement comparison."""
        code = main(["cluster", "--placement", "manual"])
        assert code == 0
        out = capsys.readouterr().out
        assert "placement comparison" in out
        assert "load imb" in out
        assert "talker0" in out and "thinker0" in out

    def test_cluster_placement_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--placement", "roundrobin"])

    def test_cluster_placement_and_fairness_conflict(self, capsys):
        code = main(
            ["cluster", "--placement", "manual", "--fairness", "fifo"]
        )
        assert code == 1
        assert "pick one" in capsys.readouterr().err

    def test_cluster_zero_jobs_names_the_flag(self, capsys):
        assert main(["cluster", "--jobs", "0"]) == 1
        assert "--jobs" in capsys.readouterr().err

    def test_cluster_bad_interarrival_names_the_flag(self, capsys):
        assert main(["cluster", "--interarrival-ms", "-2"]) == 1
        assert "--interarrival-ms" in capsys.readouterr().err

    def test_cluster_zero_iterations_names_the_flag(self, capsys):
        assert main(["cluster", "--iterations", "0"]) == 1
        assert "--iterations" in capsys.readouterr().err

    def test_cluster_open_loop_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.arrivals is None and args.rate is None
        assert args.target_rho is None and args.measure is None
        assert args.process == "poisson"
        assert args.outcome_cap == 1000

    def test_cluster_open_loop_rate(self, capsys):
        code = main(
            ["cluster", "--topology", "2D-SW_SW", "--rate", "800",
             "--arrivals", "25", "--max-concurrent", "2",
             "--warmup", "0.005", "--measure", "0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "steady state: window" in out
        assert "live jobs: peak" in out

    def test_cluster_open_loop_target_rho(self, capsys):
        code = main(
            ["cluster", "--topology", "2D-SW_SW", "--target-rho", "0.4",
             "--arrivals", "15", "--max-concurrent", "2",
             "--measure", "0.05"]
        )
        assert code == 0
        assert "steady state: window" in capsys.readouterr().out

    def test_cluster_target_rho_simulates_each_baseline_once(
        self, capsys, monkeypatch
    ):
        """The rate calibration and the rho denominators share one cache:
        this run draws 2 job shapes, so it makes 2 solo runs, not 4."""
        import repro.cluster.simulator as sim_mod

        calls = []
        original = sim_mod.isolated_jct
        monkeypatch.setattr(
            sim_mod, "isolated_jct",
            lambda *a, **k: calls.append(a[1].workload.name) or original(*a, **k),
        )
        code = main(
            ["cluster", "--topology", "2D-SW_SW", "--target-rho", "0.4",
             "--arrivals", "25", "--max-concurrent", "2",
             "--measure", "0.05"]
        )
        assert code == 0
        assert "steady state: window" in capsys.readouterr().out
        assert len(calls) == len(set(calls)) == 2

    def test_cluster_open_loop_needs_one_intensity(self, capsys):
        assert main(
            ["cluster", "--rate", "100", "--target-rho", "0.5",
             "--max-concurrent", "2"]
        ) == 1
        assert "exactly one of --rate or --target-rho" in capsys.readouterr().err
        assert main(["cluster", "--measure", "0.05"]) == 1
        assert "exactly one of" in capsys.readouterr().err

    def test_cluster_target_rho_needs_slots(self, capsys):
        assert main(["cluster", "--target-rho", "0.5"]) == 1
        assert "--max-concurrent" in capsys.readouterr().err

    def test_cluster_open_loop_show_spec(self, capsys):
        code = main(
            ["cluster", "--topology", "2D-SW_SW", "--rate", "500",
             "--arrivals", "5", "--show-spec"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert '"open_loop"' in out and '"rate": 500.0' in out

    def test_provisioning(self, capsys):
        assert main(["provisioning", "--topology", "3D-SW_SW_SW_hetero"]) == 0
        out = capsys.readouterr().out
        assert "max drivable utilization" in out

    def test_fig5(self, capsys):
        assert main(["fig", "5"]) == 0
        assert "paper: 8" in capsys.readouterr().out

    def test_fig_unknown(self, capsys):
        assert main(["fig", "99"]) == 2
        assert "unknown figure" in capsys.readouterr().err


class TestSpecCommands:
    """The declarative ``run`` / ``sweep`` subcommands."""

    @pytest.fixture
    def spec_path(self, tmp_path):
        from repro import api
        from repro.units import MB

        path = tmp_path / "spec.json"
        api.CollectiveScenario(size=16 * MB, chunks=4).save(path)
        return str(path)

    def test_run_spec(self, spec_path, capsys):
        assert main(["run", "--spec", spec_path]) == 0
        out = capsys.readouterr().out
        assert "[collective]" in out and "makespan" in out

    def test_run_spec_audited(self, spec_path, capsys):
        assert main(["run", "--spec", spec_path, "--audit"]) == 0
        out = capsys.readouterr().out
        assert "[collective]" in out and "makespan" in out

    def test_audit_flag_absent_defers_to_env(self, spec_path, monkeypatch):
        # Without --audit the CLI passes audit=None so THEMIS_AUDIT decides.
        monkeypatch.setenv("THEMIS_AUDIT", "1")
        assert main(["run", "--spec", spec_path]) == 0

    def test_run_spec_json_output(self, spec_path, capsys):
        import json

        assert main(["run", "--spec", spec_path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "collective"
        assert report["makespan"] > 0 and not report["truncated"]

    def test_run_check_only(self, spec_path, capsys):
        assert main(["run", "--spec", spec_path, "--check"]) == 0
        assert "spec OK: CollectiveScenario" in capsys.readouterr().out

    def test_run_with_set_overrides(self, spec_path, capsys):
        code = main(
            ["run", "--spec", spec_path, "--set", "scheduler=baseline",
             "--show-spec", "--check"]
        )
        assert code == 0
        assert '"scheduler": "baseline"' in capsys.readouterr().out

    def test_run_bad_set_value(self, spec_path, capsys):
        assert main(["run", "--spec", spec_path, "--set", "scheduler=nope"]) == 1
        assert "unknown scheduler" in capsys.readouterr().err

    def test_run_missing_file(self, capsys):
        assert main(["run", "--spec", "/does/not/exist.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_sweep_with_axes(self, spec_path, capsys):
        code = main(
            ["sweep", "--spec", spec_path,
             "--axis", "scheduler+policy=baseline:FIFO,themis:SCF"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep over scheduler, policy" in out
        assert "2 run(s)" in out

    def test_sweep_json(self, spec_path, capsys):
        import json

        code = main(
            ["sweep", "--spec", spec_path, "--axis", "chunks=2,4", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert [p["overrides"]["chunks"] for p in data["points"]] == [2, 4]

    def test_sweep_needs_axis(self, spec_path, capsys):
        assert main(["sweep", "--spec", spec_path]) == 1
        assert "--axis" in capsys.readouterr().err

    def test_run_check_unknown_registry_key_is_clean_error(
        self, tmp_path, capsys
    ):
        """A misspelled registry key fails with did-you-mean, no traceback."""
        path = tmp_path / "bad.json"
        path.write_text(
            '{"schema": 1, "mode": "cluster", '
            '"trace": {"workloads": ["dlrm"]}, "placement": "interleavd"}'
        )
        assert main(["run", "--spec", str(path), "--check"]) == 1
        err = capsys.readouterr().err
        assert "did you mean 'interleaved'" in err
        assert "Traceback" not in err

    def test_run_check_non_string_registry_key_is_clean_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"schema": 1, "mode": "cluster", '
            '"trace": {"workloads": ["dlrm"]}, "placement": 5}'
        )
        assert main(["run", "--spec", str(path), "--check"]) == 1
        err = capsys.readouterr().err
        assert "ClusterScenario.placement: expected str" in err
        assert "Traceback" not in err

    def test_run_check_malformed_nested_value_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for document, where in (
            ('{"schema": 1, "mode": "cluster", "jobs": [5]}', "jobs[0]: expected"),
            ('{"schema": 1, "mode": "collective", "size": [1]}', "size: expected"),
        ):
            path.write_text(document)
            assert main(["run", "--spec", str(path), "--check"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and where in err
            assert "Traceback" not in err

    def test_run_check_rejects_a_string_bool_override(self, capsys):
        """``--set ideal_network=False`` sets the string ``"False"``, which
        is no bool: the check fails instead of running the Ideal network."""
        spec = Path(__file__).resolve().parent.parent / "examples" / "specs"
        argv = ["run", "--spec", str(spec / "training_dlrm.json"), "--check"]
        assert main([*argv, "--set", "ideal_network=False"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "ideal_network" in err
        assert "Traceback" not in err
        assert main([*argv, "--set", "ideal_network=false"]) == 0

    def test_run_check_takes_a_workload_name_argument(self, tmp_path, capsys):
        """Flood's own ``name`` argument is a workload argument like any
        other, not the registry key."""
        path = tmp_path / "named.json"
        path.write_text(
            '{"mode": "training", "workload": "flood", '
            '"workload_args": {"name": "mine"}}'
        )
        assert main(["run", "--spec", str(path), "--check"]) == 0
        assert "spec OK: TrainingScenario" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "links", ['"ab"', '{"dim_index": 0, "start": 0.0, "factor": 0.5}']
    )
    def test_cluster_faults_file_is_read_as_a_fault_spec(
        self, tmp_path, capsys, links
    ):
        """``links`` that is no list fails naming the field, not as a
        string or object split into entries."""
        path = tmp_path / "faults.json"
        path.write_text(f'{{"links": {links}}}')
        assert main(["cluster", "--faults", str(path), "--degrade", "0:0.5:0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "FaultSpec.links: expected a list" in err
        assert "Traceback" not in err

    def test_every_shipped_spec_checks(self, capsys):
        import glob
        from pathlib import Path

        specs_dir = Path(__file__).resolve().parent.parent / "examples" / "specs"
        for path in sorted(glob.glob(str(specs_dir / "*.json"))):
            assert main(["run", "--spec", path, "--check"]) == 0, path
        assert "spec OK" in capsys.readouterr().out

    def test_legacy_commands_show_spec(self, capsys):
        """Legacy subcommands are thin builders over the same specs."""
        assert main(
            ["collective", "--size", "16MB", "--chunks", "4", "--show-spec"]
        ) == 0
        out = capsys.readouterr().out
        assert '"mode": "collective"' in out
        assert main(["provisioning", "--show-spec"]) == 0
        assert '"mode": "provisioning"' in capsys.readouterr().out


class TestStdlibRuntime:
    def test_entry_points_import_no_numpy_or_scipy(self):
        """The package runs on the standard library alone: a fresh
        interpreter importing it and its entry points loads neither."""
        code = (
            "import sys, repro, repro.api, repro.cli, repro.experiments, "
            "repro.analysis\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'scipy')))"
        )
        path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            check=True,
        )
        assert proc.stdout.strip() == "[]"
