"""replint rule pack: every rule fires on bad code, stays silent on good.

Each rule gets a minimal bad snippet (must produce exactly that rule's
code) and the corresponding good rewrite (must produce nothing).  The
suppression comments, scope model, CLI, and self-hosting invariant are
covered at the end.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.replint import (
    RULES,
    is_sim_path,
    lint_paths,
    lint_source,
    main,
)

SRC = Path(__file__).resolve().parent.parent / "src"
SIM = "src/repro/sim/fake.py"  # any sim-scoped path


def codes(source, path=SIM, **kwargs):
    return [f.code for f in lint_source(source, path, **kwargs).findings]


class TestRuleCatalog:
    def test_at_least_six_rules(self):
        assert len(RULES) >= 6

    def test_codes_are_well_formed(self):
        for code, rule in RULES.items():
            assert code == rule.code
            assert code.startswith("RPL") and len(code) == 6
            assert rule.name and rule.summary and rule.hint


class TestRPL001WallClock:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\nt = time.time()\n",
            "import time\nt = time.perf_counter()\n",
            "import time\nt = time.monotonic_ns()\n",
            "from datetime import datetime\nd = datetime.now()\n",
            "from datetime import date\nd = date.today()\n",
        ],
    )
    def test_fires_on_wall_clock(self, snippet):
        assert codes(snippet) == ["RPL001"]

    def test_silent_on_engine_clock(self):
        assert codes("now = engine.now\nt = engine.now + delay\n") == []

    def test_silent_on_time_sleep(self):
        # sleep does not *read* the clock into the timeline.
        assert codes("import time\ntime.sleep(0.1)\n") == []


class TestRPL002UnseededRandom:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import random\nx = random.random()\n",
            "import random\nx = random.expovariate(2.0)\n",
            "import random\nrandom.shuffle(items)\n",
            "import random\nrng = random.Random()\n",
        ],
    )
    def test_fires_on_global_rng(self, snippet):
        assert codes(snippet) == ["RPL002"]

    def test_silent_on_seeded_instance(self):
        good = "import random\nrng = random.Random(42)\nx = rng.expovariate(2.0)\n"
        assert codes(good) == []


class TestRPL003SetIteration:
    @pytest.mark.parametrize(
        "snippet",
        [
            "for x in {1, 2, 3}:\n    pass\n",
            "for x in set(items):\n    pass\n",
            "ys = [f(x) for x in {a, b}]\n",
            "ys = list(set(items))\n",
            "ys = tuple(set(items))\n",
            "for x in enumerate(set(items)):\n    pass\n",
        ],
    )
    def test_fires_on_set_iteration(self, snippet):
        assert codes(snippet) == ["RPL003"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "for x in sorted(set(items)):\n    pass\n",
            "for x in [1, 2, 3]:\n    pass\n",
            "seen = set()\nok = x in seen\n",
        ],
    )
    def test_silent_on_ordered_iteration(self, snippet):
        assert codes(snippet) == []


class TestRPL004IdKeys:
    @pytest.mark.parametrize(
        "snippet",
        [
            "table[id(op)] = op\n",
            "ok = id(op) in seen\n",
            "ops.sort(key=id)\n",
        ],
    )
    def test_fires_on_id_keys(self, snippet):
        assert codes(snippet) == ["RPL004"]

    def test_silent_on_stable_keys(self):
        assert codes("table[op.key] = op\nok = op.key in seen\n") == []


class TestRPL005TimeEquality:
    @pytest.mark.parametrize(
        "snippet",
        [
            "ok = start_time == end_time\n",
            "ok = a.end_time != b.end_time\n",
            "ok = now == 0.0\n",
            "ok = t == op.ready_time\n",
        ],
    )
    def test_fires_on_time_equality(self, snippet):
        assert codes(snippet) == ["RPL005"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "ok = start_time < end_time\n",
            "ok = times_close(a.end_time, b.end_time)\n",
            "ok = len(batch) == 3\n",
            "ok = name == 'dim0'\n",
        ],
    )
    def test_silent_on_sanctioned_comparisons(self, snippet):
        assert codes(snippet) == []


class TestRPL006FrozenMutation:
    def test_fires_outside_init(self):
        bad = (
            "def retune(spec, value):\n"
            "    object.__setattr__(spec, 'weight', value)\n"
        )
        assert codes(bad) == ["RPL006"]

    def test_fires_at_module_level(self):
        assert codes("object.__setattr__(spec, 'x', 1)\n") == ["RPL006"]

    @pytest.mark.parametrize("scope", ["__init__", "__post_init__", "__new__"])
    def test_silent_in_constructor_scopes(self, scope):
        good = (
            "class Spec:\n"
            f"    def {scope}(self):\n"
            "        object.__setattr__(self, 'x', 1)\n"
        )
        assert codes(good) == []

    def test_repo_wide_scope(self):
        # RPL006 applies outside sim paths too.
        bad = "object.__setattr__(spec, 'x', 1)\n"
        assert codes(bad, path="src/repro/analysis/tables.py") == ["RPL006"]


class TestRPL007MutableDefaults:
    @pytest.mark.parametrize(
        "snippet",
        [
            "def f(xs=[]):\n    pass\n",
            "def f(xs={}):\n    pass\n",
            "def f(xs=set()):\n    pass\n",
            "def f(xs=list()):\n    pass\n",
            "def f(*, xs=[]):\n    pass\n",
            "g = lambda xs=[]: xs\n",
        ],
    )
    def test_fires_on_mutable_defaults(self, snippet):
        assert codes(snippet) == ["RPL007"]

    def test_silent_on_none_default(self):
        assert codes("def f(xs=None):\n    xs = xs or []\n") == []

    def test_silent_on_frozen_default(self):
        assert codes("def f(xs=(), y=''):\n    pass\n") == []


class TestRPL008TinyEpsilon:
    @pytest.mark.parametrize(
        "snippet",
        [
            "ok = remaining > 1e-18\n",
            "ok = remaining <= 1e-18\n",
            "ok = 1e-15 < gap\n",
            "ok = delta >= -1e-13\n",
            "ok = 0.0 < x < 5e-13\n",
        ],
    )
    def test_fires_on_tiny_literal(self, snippet):
        assert codes(snippet) == ["RPL008"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "ok = remaining > 1e-12 * total\n",
            "ok = x > 1e-12\n",
            "ok = x > 0.0\n",
            "ok = x > 1e-9\n",
            "eps = 1e-18\n",
            "span = max(t1 - t0, 1e-30)\n",
        ],
    )
    def test_silent_on_relative_or_larger_tolerances(self, snippet):
        assert codes(snippet) == []

    def test_sim_scoped(self):
        assert codes("ok = x > 1e-18\n", path="src/repro/analysis/tables.py") == []


class TestRPL009BuiltinSum:
    @pytest.mark.parametrize(
        "snippet",
        [
            "total = sum(sizes)\n",
            "total = sum(op.bytes_sent for op in batch)\n",
            "count = sum(1 for c in collectives if c.done)\n",
            "total = base + sum([a, b, c], 0.0)\n",
        ],
    )
    def test_fires_on_builtin_sum(self, snippet):
        assert codes(snippet) == ["RPL009"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "total = ordered_sum(sizes)\n",
            "total = math.fsum(sizes)\n",
            "total = stats.sum(sizes)\n",
            "checksum = sum\n",
        ],
    )
    def test_silent_on_ordered_totals(self, snippet):
        assert codes(snippet) == []

    def test_sim_scoped(self):
        assert codes("t = sum(xs)\n", path="src/repro/analysis/tables.py") == []


class TestScope:
    def test_sim_paths(self):
        assert is_sim_path("src/repro/sim/engine.py")
        assert is_sim_path("src/repro/cluster/jobs.py")
        assert is_sim_path("src/repro/collectives/phases.py")
        assert is_sim_path("src/repro/workloads/profile.py")
        assert is_sim_path("src/repro/topology/topology.py")
        assert not is_sim_path("src/repro/analysis/tables.py")
        assert not is_sim_path("tests/test_replint.py")

    def test_sim_only_rules_silent_outside_sim_paths(self):
        bad = "import time\nt = time.time()\n"
        assert codes(bad, path="src/repro/api/runner.py") == []
        # ... but forced scope re-enables them.
        assert codes(bad, path="src/repro/api/runner.py", sim_scope=True) == [
            "RPL001"
        ]

    def test_select_restricts_rules(self):
        bad = "import time\nt = time.time()\nxs = list(set(items))\n"
        assert codes(bad, select=["RPL003"]) == ["RPL003"]


class TestSuppressions:
    def test_targeted_ignore(self):
        src = "import time\nt = time.time()  # replint: ignore[RPL001]\n"
        result = lint_source(src, SIM)
        assert result.findings == []
        assert [f.code for f in result.suppressed] == ["RPL001"]

    def test_bare_ignore_suppresses_all(self):
        src = "import time\nt = time.time()  # replint: ignore\n"
        assert lint_source(src, SIM).findings == []

    def test_wrong_code_does_not_suppress(self):
        src = "import time\nt = time.time()  # replint: ignore[RPL003]\n"
        assert codes(src) == ["RPL001"]

    def test_skip_file(self):
        src = "# replint: " + "skip-file\nimport time\nt = time.time()\n"
        result = lint_source(src, SIM)
        assert result.findings == []
        assert result.files_skipped == 1


class TestEngine:
    def test_syntax_error_reported_not_raised(self):
        result = lint_source("def broken(:\n", SIM)
        assert result.findings == []
        assert result.errors and result.exit_code == 1

    def test_lint_paths_on_directory(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        result = lint_paths([str(tmp_path)])
        assert [f.code for f in result.findings] == ["RPL001"]
        assert result.exit_code == 1

    def test_missing_path_is_an_error(self, tmp_path):
        result = lint_paths([str(tmp_path / "nowhere")])
        assert result.exit_code == 1


class TestCli:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "ok.py"
        good.write_text("x = 1\n")
        assert main([str(tmp_path)]) == 0

    def test_findings_exit_one_and_render(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RPL001" in out and "hint:" in out

    def test_json_output(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        assert main(["--json", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert '"RPL002"' in out

    def test_unknown_select_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--select", "RPL999", str(tmp_path)])


class TestSelfHosting:
    def test_repo_src_is_clean(self):
        """The repo's own source lints clean (the CI self-hosting gate)."""
        result = lint_paths([str(SRC)])
        rendered = "\n".join(f.render() for f in result.findings)
        assert result.findings == [], rendered
        assert not result.errors

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.devtools.replint", str(SRC)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
