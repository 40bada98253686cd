"""Declarative Scenario API: registry, spec round trips, runner, sweeps."""

from __future__ import annotations

import copy
import dataclasses
import glob
import inspect
import json
import math
import random
import re
import types
import typing
from pathlib import Path

import pytest

from repro import api
from repro.api.registry import _registry
from repro.cluster import WeightedSharing
from repro.collectives import (
    CollectiveRequest,
    CollectiveType,
    RingAlgorithm,
    register_algorithm,
)
from repro.core import SchedulerFactory, Splitter
from repro.core.ideal import IdealEstimator
from repro.errors import (
    CollectiveError,
    ConfigError,
    ReproError,
    SpecError,
    WorkloadError,
)
from repro.sim import NetworkSimulator
from repro.sim.backends import get_backend, register_backend
from repro.sim.backends.fluid import FluidOptions
from repro.sim.backends.packet import PacketOptions
from repro.sim.faults import LinkFault
from repro.sim.stats import bw_utilization
from repro.topology import Topology, dimension, get_topology, topology_to_dict
from repro.training.iteration import TrainingConfig, simulate_training
from repro.units import MB
from repro.workloads import (
    flood,
    get_workload,
    workload_from_dict,
    workload_to_dict,
)


if typing.TYPE_CHECKING:
    from repro.cluster.simulator import ClusterSimulator


def tiny_topology() -> Topology:
    return Topology(
        [
            dimension("sw", 4, 400.0, latency_ns=100),
            dimension("sw", 4, 200.0, latency_ns=500),
        ],
        name="tiny-4x4",
    )


TINY = topology_to_dict(tiny_topology())
DOCS = Path(__file__).resolve().parent.parent / "docs"


# --- unified registry -------------------------------------------------------
class TestRegistry:
    def test_kinds(self):
        assert set(api.registry_kinds()) == {
            "topology", "workload", "collective", "scheduler", "policy",
            "fairness", "placement", "algorithm", "backend",
        }

    def test_keys_delegate_to_domain_registries(self):
        assert "3D-SW_SW_SW_homo" in api.registry_keys("topology")
        assert "dlrm" in api.registry_keys("workload")
        assert "flood" in api.registry_keys("workload")
        assert set(api.registry_keys("scheduler")) == {"baseline", "themis"}
        assert "scf" in api.registry_keys("policy")
        assert "ftf" in api.registry_keys("fairness")
        assert "Ring" in api.registry_keys("algorithm")

    def test_resolve(self):
        assert api.resolve("topology", "2D-SW_SW").name == "2D-SW_SW"
        assert api.resolve("workload", "dlrm").name == "DLRM"
        assert api.resolve("scheduler", "themis").name == "Themis"
        assert api.resolve("policy", "SCF").name == "SCF"

    def test_resolve_unknown_has_did_you_mean(self):
        with pytest.raises(SpecError, match="did you mean 'dlrm'"):
            api.resolve("workload", "dlmr")

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown registry kind"):
            api.registry_keys("wrkload")

    def test_validate_key_case_rules(self):
        # case-insensitive kinds fold; case-sensitive ones do not
        assert api.validate_key("policy", "scf") == "scf"
        with pytest.raises(SpecError, match="unknown topology key"):
            api.validate_key("topology", "3d-sw_sw_sw_homo")

    def test_register_plugs_into_domain_registry(self):
        api.register("workload", "test-api-tiny", lambda: flood(2, 1.0, "tiny"))
        assert "test-api-tiny" in api.registry_keys("workload")
        assert get_workload("test-api-tiny").name == "tiny"  # domain accessor
        spec = api.TrainingScenario(workload="test-api-tiny", topology=TINY)
        assert spec.workload == "test-api-tiny"
        with pytest.raises(WorkloadError, match="already registered"):
            api.register("workload", "test-api-tiny", flood)

    @pytest.mark.parametrize("kind", api.registry_kinds())
    def test_non_string_key_is_a_spec_error(self, kind):
        for key in (5, None):
            with pytest.raises(SpecError, match="key must be a string"):
                api.resolve(kind, key)

    def test_case_sensitive_miss_hints_the_registered_spelling(self):
        with pytest.raises(SpecError, match="did you mean 'Ring'"):
            api.resolve("algorithm", "ring")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            register_backend("", get_backend("packet"))
        with pytest.raises(CollectiveError, match="non-empty"):
            register_algorithm("", RingAlgorithm)
        assert "" not in api.registry_keys("backend")
        assert "" not in api.registry_keys("algorithm")

    def test_build_derives_each_signature_once(self, monkeypatch):
        """A key's factory signature is derived on its first build only."""
        import inspect

        from repro.registry import Registry

        derived = []
        real = inspect.signature

        def counting(factory, **kwargs):
            derived.append(factory)
            return real(factory, **kwargs)

        monkeypatch.setattr(inspect, "signature", counting)
        registry = Registry("widget", {"ring": RingAlgorithm}, error=CollectiveError)
        assert isinstance(registry.build("ring"), RingAlgorithm)
        assert isinstance(registry.build("Ring"), RingAlgorithm)
        assert derived == [RingAlgorithm]
        with pytest.raises(CollectiveError, match="widget 'ring': .*'bogus'"):
            registry.build("ring", bogus=1)

    def test_name_is_a_factory_argument(self):
        """The key parameter is positional-only, so a factory may take a
        ``name`` argument of its own."""
        assert get_workload("flood", name="mine").name == "mine"
        assert api.resolve("workload", "flood", name="mine").name == "mine"

    def test_arguments_are_read_by_their_declared_types(self):
        with pytest.raises(WorkloadError, match=r"'flood'\.layers: expected int"):
            get_workload("flood", layers="x")
        # an int is a float, and a list a tuple, as in every document
        assert get_workload("flood", param_mb=2) == get_workload("flood", param_mb=2.0)
        assert api.resolve("workload", "dlrm", bottom_widths=[64, 32]) == get_workload(
            "dlrm", bottom_widths=(64, 32)
        )

    def test_unresolvable_annotation_passes_its_argument_unread(self):
        """A plugin may annotate with a type-checking-only import: its
        signature still derives, and its arguments are passed unread."""
        from repro.registry import Registry

        def plugin(cluster: ClusterSimulator | None = None):
            return cluster

        registry = Registry("widget", {"plugin": plugin}, error=WorkloadError)
        assert registry.build("plugin", cluster="any") == "any"

    def test_factory_error_is_not_a_key_miss(self):
        def broken():
            raise WorkloadError("unknown layer kind 'conv9d'")

        api.register("workload", "test-api-broken", broken)
        with pytest.raises(WorkloadError, match="unknown layer kind") as caught:
            api.resolve("workload", "test-api-broken")
        assert not isinstance(caught.value, SpecError)

    @pytest.mark.parametrize("kind", api.registry_kinds())
    def test_validate_key_and_resolve_accept_the_same_keys(self, kind):
        for key in api.registry_keys(kind):
            for probe in (key, key.upper(), f" {key} ", f"{key}-typo"):
                assert _validates(kind, probe) == _resolves(kind, probe), probe


def _validates(kind: str, key: str) -> bool:
    try:
        api.validate_key(kind, key)
    except SpecError:
        return False
    return True


def _resolves(kind: str, key: str) -> bool:
    """Whether ``resolve`` found the key; a factory's own error counts as
    found (plugins registered by other tests may raise on purpose)."""
    try:
        api.resolve(kind, key)
    except SpecError:
        return False
    except ReproError:
        return True
    return True


class TestRegistryDocs:
    """The kind table in docs/api.md ("The unified registry") stays true."""

    CLOSED_KINDS = (
        "scheduler", "policy", "fairness", "placement", "algorithm", "backend",
    )
    COLLECTIVE_ALIASES = {"ar", "rs", "ag", "a2a"}

    @staticmethod
    def table() -> dict[str, list[str]]:
        """Each row's kind and the backticked keys of its examples column."""
        text = (DOCS / "api.md").read_text(encoding="utf-8")
        section = text.split("## The unified registry", 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in section.splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if len(cells) == 3 and cells[0].startswith("`"):
                rows[cells[0].strip("`")] = re.findall(r"`([^`]+)`", cells[1])
        return rows

    def test_kind_column_is_every_kind(self):
        assert tuple(self.table()) == api.registry_kinds()

    def test_examples_are_keys(self):
        for kind, examples in self.table().items():
            for key in examples:
                if kind == "collective" and key in self.COLLECTIVE_ALIASES:
                    continue
                api.validate_key(kind, key)

    def test_closed_kinds_list_every_builtin_key(self, builtin_registry):
        table = self.table()
        for kind in self.CLOSED_KINDS:
            assert set(table[kind]) == set(builtin_registry[kind]), kind


# --- randomized round-trip property tests ------------------------------------
POLICIES = ("FIFO", "SCF", "LCF")
SCHEDULERS = ("baseline", "themis")


def random_collective(rng: random.Random) -> api.CollectiveScenario:
    return api.CollectiveScenario(
        topology=rng.choice(("2D-SW_SW", "3D-SW_SW_SW_homo", TINY)),
        collective=rng.choice(("allreduce", "reducescatter", "allgather")),
        size=rng.uniform(1, 256) * MB,
        chunks=rng.randint(1, 64),
        scheduler=rng.choice(SCHEDULERS),
        policy=rng.choice(POLICIES),
        max_events=rng.choice((None, rng.randint(1, 10_000))),
    )


def random_training(rng: random.Random) -> api.TrainingScenario:
    inline = rng.random() < 0.3
    workload = (
        workload_to_dict(flood(rng.randint(1, 4), rng.uniform(0.5, 8)))
        if inline
        else rng.choice(("dlrm", "resnet-152", "gnmt", "flood"))
    )
    return api.TrainingScenario(
        workload=workload,
        # only flood's factory takes these arguments
        workload_args=(
            {"layers": rng.randint(1, 3), "param_mb": rng.uniform(1, 4)}
            if workload == "flood" and rng.random() < 0.5
            else {}
        ),
        topology=rng.choice(("2D-SW_SW", TINY)),
        scheduler=rng.choice(SCHEDULERS),
        policy=rng.choice(POLICIES),
        ideal_network=rng.random() < 0.3,
        iterations=rng.randint(1, 3),
        overlap_dp=rng.random() < 0.5,
        dp_bucket_bytes=rng.choice((None, rng.uniform(1, 200) * MB)),
        chunks=rng.randint(1, 64),
    )


def random_job(rng: random.Random, index: int) -> api.ScenarioJob:
    workload = rng.choice(("dlrm", "flood"))
    return api.ScenarioJob(
        name=f"job{index}",
        workload=workload,
        # only flood's factory takes this argument
        workload_args=(
            {"layers": rng.randint(1, 3)}
            if workload == "flood" and rng.random() < 0.5
            else {}
        ),
        arrival_time=rng.uniform(0, 1e-3),
        scheduler=rng.choice(SCHEDULERS),
        iterations=rng.randint(1, 3),
        dim_indices=rng.choice((None, (0,), (0, 1))),
        priority=rng.randint(0, 3),
        weight=rng.uniform(0.5, 4.0),
    )


def random_open_loop(rng: random.Random) -> api.OpenLoopTrace:
    use_target_rho = rng.random() < 0.5
    mix = rng.choice(
        (
            None,
            api.JobMix(
                elephant_fraction=rng.uniform(0.0, 0.5),
                max_iterations=rng.randint(1, 10),
                size_alpha=rng.choice((None, rng.uniform(0.5, 3.0))),
            ),
            {"elephant_fraction": 0.2, "max_iterations": 4},
        )
    )
    return api.OpenLoopTrace(
        rate=None if use_target_rho else rng.uniform(10.0, 500.0),
        target_rho=rng.uniform(0.1, 0.9) if use_target_rho else None,
        calibration_slots=rng.randint(1, 4) if use_target_rho else None,
        duration=rng.uniform(0.01, 0.5),
        max_jobs=rng.choice((None, rng.randint(1, 50))),
        process=rng.choice(("poisson", "bursty", "diurnal")),
        seed=rng.randint(0, 99),
        schedulers=rng.choice((("themis",), ("baseline", "themis"))),
        start_time=rng.choice((0.0, rng.uniform(0.0, 0.1))),
        mix=mix,
        rate_amplitude=rng.uniform(0.0, 1.0),
        burst_ratio=rng.uniform(1.0, 8.0),
        name_prefix=rng.choice(("oj", "load")),
    )


def random_cluster(rng: random.Random) -> api.ClusterScenario:
    population_kind = rng.choice(("jobs", "trace", "open_loop"))
    use_trace = population_kind == "trace"
    fairness = rng.choice((None, "fifo", "weighted", "ftf", "preempt"))
    kwargs: dict = {}
    if fairness == "weighted" and rng.random() < 0.7:
        kwargs["fairness_weights"] = {"job0": rng.uniform(0.5, 4.0)}
        if rng.random() < 0.5:
            kwargs["fairness_weights_by_dim"] = {
                "job1": {0: rng.uniform(0.5, 4.0), 1: rng.uniform(0.5, 4.0)}
            }
    if population_kind == "open_loop":
        population = {"open_loop": random_open_loop(rng)}
        kwargs.pop("fairness_weights", None)
        kwargs.pop("fairness_weights_by_dim", None)
        kwargs["max_concurrent"] = rng.choice((None, rng.randint(1, 8)))
        if rng.random() < 0.7:
            kwargs["measure_time"] = rng.uniform(0.01, 0.5)
            kwargs["warmup_time"] = rng.choice((0.0, rng.uniform(0.0, 0.1)))
            kwargs["convergence_epochs"] = rng.randint(1, 12)
        kwargs["outcome_cap"] = rng.choice((None, 0, rng.randint(1, 100)))
        kwargs["isolated_per_iteration"] = rng.random() < 0.5
    elif use_trace:
        population: dict = {
            "trace": api.PoissonTrace(
                workloads=tuple(
                    rng.choice(("dlrm", "resnet-152", "flood"))
                    for _ in range(rng.randint(1, 3))
                ),
                interarrival=rng.uniform(1e-4, 5e-3),
                seed=rng.randint(0, 99),
                schedulers=rng.choice((("themis",), ("baseline", "themis"))),
                iterations=rng.randint(1, 2),
                jobs=rng.choice((None, rng.randint(1, 6))),
            )
        }
        kwargs.pop("fairness_weights", None)
        kwargs.pop("fairness_weights_by_dim", None)
    else:
        population = {
            "jobs": tuple(random_job(rng, i) for i in range(rng.randint(1, 3)))
        }
        if "fairness_weights_by_dim" in kwargs and len(population["jobs"]) < 2:
            del kwargs["fairness_weights_by_dim"]
    return api.ClusterScenario(
        topology=rng.choice(("3D-SW_SW_SW_homo", TINY)),
        fairness=fairness,
        policy=rng.choice(POLICIES),
        chunks=rng.randint(1, 32),
        overlap_dp=rng.random() < 0.5,
        dp_bucket_bytes=rng.choice((None, rng.uniform(1, 200) * MB)),
        isolated_baselines=rng.random() < 0.5,
        record_ops=rng.random() < 0.3,
        max_events=rng.choice((None, rng.randint(1, 10_000))),
        **population,
        **kwargs,
    )


def random_provisioning(rng: random.Random) -> api.ProvisioningScenario:
    return api.ProvisioningScenario(
        topology=rng.choice(tuple(api.registry_keys("topology")) + (TINY,)),
        tolerance=rng.uniform(0, 0.2),
        collective=rng.choice(("allreduce", "alltoall")),
    )


GENERATORS = {
    "collective": random_collective,
    "training": random_training,
    "cluster": random_cluster,
    "provisioning": random_provisioning,
}


class TestRoundTrip:
    @pytest.mark.parametrize("mode", sorted(GENERATORS))
    @pytest.mark.parametrize("seed", range(25))
    def test_dict_and_json_round_trip(self, mode, seed):
        """``spec == from_dict(to_dict(spec))``, through JSON included."""
        rng = random.Random(hash((mode, seed)) & 0xFFFFFFFF)
        spec = GENERATORS[mode](rng)
        data = spec.to_dict()
        assert data["mode"] == mode and data["schema"] == api.SCHEMA_VERSION
        assert type(spec).from_dict(data) == spec
        assert api.spec_from_dict(data) == spec
        rehydrated = api.spec_from_dict(json.loads(spec.to_json()))
        assert rehydrated == spec
        # and the round trip is stable (no normalization drift)
        assert rehydrated.to_dict() == data

    def test_workload_serialization_round_trip(self):
        for name in ("dlrm", "resnet-152", "gnmt", "transformer-1t", "flood"):
            workload = get_workload(name)
            clone = workload_from_dict(workload_to_dict(workload))
            assert clone == workload
            assert clone.name == workload.name


class TestSpecValidation:
    def test_unknown_key_did_you_mean(self):
        with pytest.raises(SpecError, match="did you mean 'topology'"):
            api.spec_from_dict({"mode": "collective", "topolgy": "2D-SW_SW"})

    def test_unknown_mode_did_you_mean(self):
        with pytest.raises(SpecError, match="did you mean 'cluster'"):
            api.spec_from_dict({"mode": "clstr"})

    def test_missing_mode(self):
        with pytest.raises(SpecError, match="needs a 'mode'"):
            api.spec_from_dict({"schema": 1})

    def test_newer_schema_rejected(self):
        data = api.CollectiveScenario().to_dict()
        data["schema"] = api.SCHEMA_VERSION + 1
        with pytest.raises(SpecError, match="newer than the supported"):
            api.spec_from_dict(data)

    def test_registry_keys_checked_at_construction(self):
        with pytest.raises(SpecError, match="unknown workload key"):
            api.TrainingScenario(workload="dlmr")
        with pytest.raises(SpecError, match="unknown topology key"):
            api.CollectiveScenario(topology="9D-magic")
        with pytest.raises(SpecError, match="unknown fairness key"):
            api.ClusterScenario(
                jobs=(api.ScenarioJob(name="a"),), fairness="karma"
            )

    def test_collective_aliases_accepted(self):
        assert api.CollectiveScenario(collective="rs").collective == "rs"
        with pytest.raises(SpecError, match="unknown collective key"):
            api.CollectiveScenario(collective="allredcue")

    def test_sizes_accept_strings(self):
        spec = api.CollectiveScenario(size="64MB")
        assert spec.size == pytest.approx(64 * MB)
        spec = api.TrainingScenario(dp_bucket_bytes="100MB")
        assert spec.dp_bucket_bytes == pytest.approx(100 * MB)

    def test_cluster_needs_exactly_one_population(self):
        with pytest.raises(SpecError, match="exactly one of"):
            api.ClusterScenario()
        with pytest.raises(SpecError, match="exactly one of"):
            api.ClusterScenario(
                jobs=(api.ScenarioJob(name="a"),), trace=api.PoissonTrace()
            )

    def test_cluster_duplicate_job_names(self):
        with pytest.raises(SpecError, match="duplicate job names"):
            api.ClusterScenario(
                jobs=(api.ScenarioJob(name="a"), api.ScenarioJob(name="a"))
            )

    def test_weights_require_weighted_policy(self):
        jobs = (api.ScenarioJob(name="a"),)
        with pytest.raises(SpecError, match="requires fairness='weighted'"):
            api.ClusterScenario(jobs=jobs, fairness_weights={"a": 2.0})
        with pytest.raises(SpecError, match="requires fairness='weighted'"):
            api.ClusterScenario(
                jobs=jobs, fairness="ftf",
                fairness_weights_by_dim={"a": {0: 2.0}},
            )

    def test_by_dim_keys_normalized_to_int(self):
        spec = api.ClusterScenario(
            jobs=(api.ScenarioJob(name="a"),),
            fairness="weighted",
            fairness_weights_by_dim={"a": {"1": 2.0}},
        )
        assert spec.fairness_weights_by_dim == {"a": {1: 2.0}}

    def test_inline_topology_validated(self):
        with pytest.raises(Exception):
            api.CollectiveScenario(topology={"name": "bad", "dims": []})

    def test_live_objects_are_inlined(self):
        spec = api.TrainingScenario(
            workload=flood(2, 1.0, "w"), topology=tiny_topology()
        )
        assert isinstance(spec.workload, dict)
        assert isinstance(spec.topology, dict)
        assert api.spec_from_dict(json.loads(spec.to_json())) == spec


class TestOverrides:
    def test_with_overrides_parses_and_revalidates(self):
        spec = api.CollectiveScenario()
        changed = spec.with_overrides({"chunks": "8", "scheduler": "baseline"})
        assert changed.chunks == 8 and changed.scheduler == "baseline"
        assert spec.chunks == 64  # original untouched
        with pytest.raises(SpecError, match="unknown scheduler"):
            spec.with_overrides({"scheduler": "themsi"})

    def test_dotted_paths_reach_nested_fields(self):
        spec = api.ClusterScenario(topology=TINY, trace=api.PoissonTrace())
        assert spec.with_overrides({"trace.seed": "7"}).trace.seed == 7
        jobs_spec = api.ClusterScenario(
            topology=TINY,
            jobs=(api.ScenarioJob(name="a"), api.ScenarioJob(name="b")),
        )
        bumped = jobs_spec.with_overrides({"jobs.1.weight": "3.5"})
        assert bumped.jobs[1].weight == 3.5 and bumped.jobs[0].weight == 1.0

    def test_unknown_path_did_you_mean(self):
        with pytest.raises(SpecError, match="unknown key"):
            api.ClusterScenario(
                topology=TINY, trace=api.PoissonTrace()
            ).with_overrides({"trace.sede": "1"})


# --- open-loop scenarios -----------------------------------------------------
class TestOpenLoopSpec:
    def open_loop_scenario(self, **kwargs) -> api.ClusterScenario:
        defaults = dict(
            topology=TINY,
            open_loop=api.OpenLoopTrace(rate=100.0, duration=0.05, seed=3),
            max_concurrent=2,
            warmup_time=0.01,
            measure_time=0.04,
        )
        defaults.update(kwargs)
        return api.ClusterScenario(**defaults)

    def test_exactly_one_of_rate_and_target_rho(self):
        with pytest.raises(SpecError, match="exactly one of"):
            api.OpenLoopTrace()
        with pytest.raises(SpecError, match="exactly one of"):
            api.OpenLoopTrace(rate=10.0, target_rho=0.5)

    def test_needs_a_stop_condition(self):
        with pytest.raises(SpecError, match="'duration' and/or 'max_jobs'"):
            api.OpenLoopTrace(rate=10.0, duration=None)

    def test_process_did_you_mean(self):
        with pytest.raises(SpecError, match="did you mean 'poisson'"):
            api.OpenLoopTrace(rate=10.0, process="poison")

    def test_mix_dict_normalized_with_did_you_mean(self):
        spec = api.OpenLoopTrace(rate=10.0, mix={"elephant_fraction": 0.3})
        assert isinstance(spec.mix, api.JobMix)
        assert spec.mix.elephant_fraction == 0.3
        with pytest.raises(SpecError, match="elephant_fraction"):
            api.OpenLoopTrace(rate=10.0, mix={"elephant_fractoin": 0.3})

    def test_target_rho_needs_slots(self):
        with pytest.raises(SpecError, match="max_concurrent"):
            api.ClusterScenario(
                topology=TINY,
                open_loop=api.OpenLoopTrace(target_rho=0.5),
            )
        # either the admission cap or explicit calibration slots satisfy it
        self.open_loop_scenario(
            open_loop=api.OpenLoopTrace(target_rho=0.5)
        )
        api.ClusterScenario(
            topology=TINY,
            open_loop=api.OpenLoopTrace(target_rho=0.5, calibration_slots=1),
        )

    def test_population_is_exactly_one_of_three(self):
        with pytest.raises(SpecError, match="exactly one of"):
            api.ClusterScenario(
                topology=TINY,
                trace=api.PoissonTrace(),
                open_loop=api.OpenLoopTrace(rate=10.0),
            )

    def test_window_validation(self):
        with pytest.raises(SpecError, match="warmup_time requires"):
            self.open_loop_scenario(measure_time=None)
        with pytest.raises(SpecError, match="measure_time"):
            self.open_loop_scenario(measure_time=-1.0)
        with pytest.raises(SpecError, match="outcome_cap"):
            self.open_loop_scenario(outcome_cap=-1)
        with pytest.raises(SpecError, match="convergence_epochs"):
            self.open_loop_scenario(convergence_epochs=0)
        with pytest.raises(SpecError, match="max_concurrent"):
            self.open_loop_scenario(max_concurrent=0)

    def test_dotted_overrides_reach_open_loop_fields(self):
        spec = self.open_loop_scenario()
        assert spec.with_overrides({"open_loop.seed": "7"}).open_loop.seed == 7
        bumped = spec.with_overrides(
            {"open_loop.mix.elephant_fraction": "0.4"}
        )
        assert bumped.open_loop.mix.elephant_fraction == 0.4
        with pytest.raises(SpecError, match="unknown key"):
            spec.with_overrides({"open_loop.sede": "1"})

    def test_open_loop_dict_coerced(self):
        spec = api.ClusterScenario(
            topology=TINY,
            open_loop={"rate": 50.0, "duration": 0.1, "seed": 2},
        )
        assert isinstance(spec.open_loop, api.OpenLoopTrace)
        assert spec.open_loop.rate == 50.0

    def test_to_jobs_needs_calibrated_rate(self):
        trace = api.OpenLoopTrace(target_rho=0.5, calibration_slots=1)
        with pytest.raises(SpecError, match="calibrated rate"):
            trace.to_jobs()
        jobs = trace.to_jobs(rate=100.0)
        assert jobs and all(j.arrival_time >= 0.0 for j in jobs)


# --- load-time rejection ----------------------------------------------------
NAN = float("nan")
LINK_ON_DIM_5 = {"links": [{"dim_index": 5, "start": 0.0, "factor": 0.5}]}
WEIGHTED_JOB = {"fairness": "weighted", "jobs": [{"name": "a"}]}


class TestLoadTimeValidation:
    """Inputs a run would reject are rejected when the spec is built."""

    def test_target_rho_above_one(self):
        with pytest.raises(SpecError, match=r"target_rho must be in \(0, 1\)"):
            api.OpenLoopTrace(target_rho=1.5, calibration_slots=1)

    def test_unknown_workload_args(self):
        with pytest.raises(SpecError, match="bogus"):
            api.ScenarioJob(name="a", workload="flood", workload_args={"bogus": 1})
        with pytest.raises(SpecError, match="bogus"):
            api.TrainingScenario(workload="flood", workload_args={"bogus": 1})

    def test_nan_job_fields_and_size(self):
        with pytest.raises(SpecError, match="arrival time"):
            api.ScenarioJob(name="a", arrival_time=NAN)
        with pytest.raises(SpecError, match="weight"):
            api.ScenarioJob(name="a", weight=NAN)
        with pytest.raises(SpecError, match="size"):
            api.CollectiveScenario(size=NAN)

    def test_dimensions_checked_against_the_topology(self):
        jobs = (api.ScenarioJob(name="a"),)
        with pytest.raises(SpecError, match="dimension 5"):
            api.ClusterScenario(topology="2D-SW_SW", jobs=jobs, faults=LINK_ON_DIM_5)
        with pytest.raises(SpecError, match="dimension 5"):
            api.TrainingScenario(topology="2D-SW_SW", faults=LINK_ON_DIM_5)
        with pytest.raises(SpecError, match="dimension 3"):
            api.ClusterScenario(
                topology="2D-SW_SW", jobs=jobs, faults={"flap_dims": [3]}
            )
        with pytest.raises(SpecError, match="index 7 out of range"):
            api.ClusterScenario(
                topology="2D-SW_SW",
                jobs=(api.ScenarioJob(name="a", dim_indices=(7,)),),
            )
        # the same slice fits a 3D platform
        api.ClusterScenario(
            topology="3D-SW_SW_SW_homo",
            jobs=(api.ScenarioJob(name="a", dim_indices=(2,)),),
        )

    def test_fault_knobs_checked_without_dimensions(self):
        with pytest.raises(SpecError, match="factor"):
            api.FaultSpec(flap_factor=2.0)
        with pytest.raises(SpecError, match="probability"):
            api.FaultSpec(straggler_probability=1.5)

    @pytest.mark.parametrize(
        ("document", "where"),
        [
            ({"mode": "cluster", "jobs": [5]}, "ClusterScenario.jobs[0]"),
            ({"mode": "cluster", "jobs": 5}, "ClusterScenario.jobs"),
            ({"mode": "cluster", "open_loop": 5}, "ClusterScenario.open_loop"),
            ({"mode": "cluster", "trace": [1, 2]}, "ClusterScenario.trace"),
            ({"mode": "cluster", "jobs": "ab"}, "ClusterScenario.jobs"),
            ({"mode": "cluster", "faults": "x"}, "ClusterScenario.faults"),
            ({"mode": "training", "faults": [3]}, "TrainingScenario.faults"),
            (
                {"mode": "cluster", **WEIGHTED_JOB, "fairness_weights": [1]},
                "ClusterScenario.fairness_weights",
            ),
            (
                {"mode": "cluster", **WEIGHTED_JOB, "fairness_weights": {"a": "x"}},
                "ClusterScenario.fairness_weights['a']",
            ),
            (
                {
                    "mode": "cluster",
                    **WEIGHTED_JOB,
                    "fairness_weights_by_dim": {"a": [1]},
                },
                "ClusterScenario.fairness_weights_by_dim['a']",
            ),
            (
                {"mode": "training", "workload_args": [1]},
                "TrainingScenario.workload_args",
            ),
            (
                {"mode": "training", "backend_options": 5},
                "TrainingScenario.backend_options",
            ),
            (
                {"mode": "cluster", "jobs": [{"name": "a", "workload_args": 5}]},
                "job 'a': workload_args",
            ),
            ({"mode": "cluster", "trace": {"workloads": 5}}, "PoissonTrace.workloads"),
            ({"mode": "collective", "size": [1]}, "size"),
            (
                {"mode": "cluster", "open_loop": {"rate": 1.0, "schedulers": 5}},
                "OpenLoopTrace.schedulers",
            ),
        ],
    )
    def test_malformed_nested_value(self, tmp_path, document, where):
        """A nested value of the wrong kind fails at load as a SpecError
        naming its place, not as a bare error from converting it."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 1, **document}))
        with pytest.raises(SpecError, match=re.escape(f"{where}: expected")):
            api.load_spec(path)

    @pytest.mark.parametrize(
        ("workload", "args", "where"),
        [
            ("flood", {"layers": "x"}, "workload_args.layers: expected int"),
            ("flood", {"param_mb": True}, "workload_args.param_mb: expected float"),
            ("dlrm", {"bottom_widths": "x"}, "bottom_widths: expected a list"),
            ("dlrm", {"top_widths": [1.5]}, "top_widths[0]: expected int"),
        ],
    )
    def test_workload_args_read_by_factory_types(self, workload, args, where):
        """``workload_args`` values are held to the factory's annotated
        parameter types, for a training spec and a cluster job alike."""
        for document in (
            {"mode": "training", "workload": workload, "workload_args": args},
            {
                "mode": "cluster",
                "jobs": [{"name": "a", "workload": workload, "workload_args": args}],
            },
        ):
            with pytest.raises(SpecError, match=re.escape(where)):
                api.spec_from_dict(document)
        # an int is a float, and a list a tuple, as in every other document
        spec = api.TrainingScenario(
            workload="dlrm", workload_args={"bottom_widths": [64, 32]}
        )
        assert api.resolve_workload(spec.workload, spec.workload_args) == get_workload(
            "dlrm", bottom_widths=(64, 32)
        )

    def test_training_faults_convert_like_cluster_faults(self):
        faults = {"flap_dims": [1]}
        training = api.TrainingScenario(topology="2D-SW_SW", faults=faults)
        cluster = api.ClusterScenario(
            topology="2D-SW_SW", jobs=(api.ScenarioJob(name="a"),), faults=faults
        )
        assert training.faults == cluster.faults == api.FaultSpec(flap_dims=(1,))

    def test_run_check_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.json"
        spec = api.TrainingScenario(workload="flood").to_dict()
        spec["workload_args"] = {"bogus": 1}
        path.write_text(json.dumps(spec))
        assert main(["run", "--spec", str(path), "--check"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bogus" in err
        assert "Traceback" not in err


#: Values a count field must reject although ``1 <= x < inf`` holds.
NOT_COUNTS = [8.5, 2.0, True]


class TestCountFields:
    """Counts (chunks, iterations, checkpoint interval) are whole ints:
    a fraction or a bool is rejected by the field's owner, not mid-run."""

    @pytest.mark.parametrize("value", NOT_COUNTS)
    def test_splitter_chunks(self, value):
        with pytest.raises(ConfigError, match="chunks per collective"):
            Splitter(value)

    @pytest.mark.parametrize("value", NOT_COUNTS)
    def test_training_iterations(self, value):
        with pytest.raises(WorkloadError, match="iterations"):
            TrainingConfig(iterations=value)

    @pytest.mark.parametrize("value", NOT_COUNTS)
    def test_training_chunks(self, value):
        with pytest.raises(ConfigError, match="chunks per collective"):
            TrainingConfig(chunks_per_collective=value)

    @pytest.mark.parametrize("value", NOT_COUNTS)
    def test_job_iterations(self, value):
        from repro.cluster import JobSpec

        with pytest.raises(ConfigError, match="iterations"):
            JobSpec(name="a", workload="dlrm", iterations=value)

    @pytest.mark.parametrize("value", NOT_COUNTS)
    def test_checkpoint_iterations(self, value):
        from repro.sim.faults import JobFaultPolicy

        with pytest.raises(ConfigError, match="checkpoint_iterations"):
            JobFaultPolicy(crash_rate=1.0, checkpoint_iterations=value)

    @pytest.mark.parametrize(
        "spec",
        [
            {"mode": "collective", "chunks": 8.5},
            {"mode": "training", "chunks": 8.5},
            {"mode": "training", "iterations": 2.5},
            {"mode": "training", "iterations": True},
            {"mode": "cluster", "jobs": [{"name": "a", "iterations": 1.5}]},
            {
                "mode": "cluster",
                "jobs": [{"name": "a"}],
                "faults": {"crash_rate": 1.0, "checkpoint_iterations": 1.5},
            },
        ],
    )
    def test_json_spec_fails_at_load(self, spec, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(SpecError, match="must be an integer >= 1"):
            api.load_spec(path)


#: One valid spec per mode and population, with every nested numeric
#: section present (mix, faults, fairness weights, backend options).
FUZZ_BASES = {
    "collective": lambda: api.CollectiveScenario(
        topology="2D-SW_SW", size=64 * MB, chunks=8, max_events=1000
    ),
    "training": lambda: api.TrainingScenario(
        workload="dlrm",
        topology="2D-SW_SW",
        iterations=2,
        dp_bucket_bytes=64 * MB,
        chunks=8,
        faults={
            "links": [
                {"dim_index": 0, "start": 1e-3, "factor": 0.5, "duration": 1e-3}
            ],
            "flap_dims": [1],
            "straggler_dims": [0],
        },
    ),
    "training-packet": lambda: api.TrainingScenario(
        workload="dlrm",
        topology="2D-SW_SW",
        backend="packet",
        backend_options={
            "mtu_bytes": 4096.0, "header_bytes": 64.0, "max_packets_per_op": 64,
        },
    ),
    "cluster-jobs": lambda: api.ClusterScenario(
        topology="2D-SW_SW",
        jobs=(
            api.ScenarioJob(
                name="a", workload="flood", iterations=2, dim_indices=(0, 1),
                weight=2.0,
            ),
            api.ScenarioJob(name="b", arrival_time=1e-4),
        ),
        fairness="weighted",
        fairness_weights={"a": 2.0},
        fairness_weights_by_dim={"b": {0: 3.0}},
        chunks=8,
        dp_bucket_bytes=64 * MB,
        max_events=1000,
        max_concurrent=2,
        warmup_time=0.01,
        measure_time=0.05,
        outcome_cap=10,
        convergence_epochs=4,
        faults={
            "links": [{"dim_index": 1, "start": 0.0, "factor": 0.5}],
            "flap_dims": [0],
            "straggler_dims": [1],
            "crash_rate": 5.0,
            "checkpoint_iterations": 1,
            "restart_overhead": 1e-4,
        },
    ),
    "cluster-trace": lambda: api.ClusterScenario(
        topology="2D-SW_SW",
        trace=api.PoissonTrace(
            workloads=("dlrm",), interarrival=1e-3, iterations=2, jobs=3
        ),
    ),
    "cluster-open-loop": lambda: api.ClusterScenario(
        topology="2D-SW_SW",
        open_loop=api.OpenLoopTrace(
            rate=100.0,
            duration=0.05,
            max_jobs=20,
            process="bursty",
            start_time=0.01,
            mix={"elephant_fraction": 0.2, "size_alpha": 1.5},
        ),
        backend="fluid",
        backend_options={"tolerance": 0.1},
    ),
    "cluster-target-rho": lambda: api.ClusterScenario(
        topology="2D-SW_SW",
        open_loop=api.OpenLoopTrace(target_rho=0.5, calibration_slots=2),
        max_concurrent=2,
    ),
    "provisioning": lambda: api.ProvisioningScenario(tolerance=0.05),
}
#: Knobs any value of which is valid (seeds, priorities), and the crash
#: knobs of a fault spec without ``crash_rate``: they describe no runtime
#: object then, and a training spec may not set a crash rate at all.
FUZZ_EXEMPT = {"seed", "priority", "schema"}
CRASH_KNOBS = {
    "max_retries", "backoff_base", "backoff_factor", "backoff_jitter",
    "checkpoint_iterations", "restart_overhead",
}


def numeric_paths(data, path=()):
    """Paths to every int/float leaf of a spec dict (bools excluded)."""
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in items:
        if key in FUZZ_EXEMPT or (key in CRASH_KNOBS and data["crash_rate"] is None):
            continue
        if isinstance(value, (dict, list)):
            yield from numeric_paths(value, path + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path + (key,)


class TestNonFiniteFuzz:
    @pytest.mark.parametrize("base", sorted(FUZZ_BASES))
    def test_every_numeric_field_rejects_nan_inf_and_negative(self, base):
        data = FUZZ_BASES[base]().to_dict()
        assert api.spec_from_dict(data).to_dict() == data  # the base is valid
        paths = list(numeric_paths(data))
        assert paths
        accepted = []
        for path in paths:
            for bad in (NAN, math.inf, -math.inf, -1):
                mutated = copy.deepcopy(data)
                target = mutated
                for key in path[:-1]:
                    target = target[key]
                target[path[-1]] = bad
                try:
                    api.spec_from_dict(mutated)
                except SpecError:
                    continue
                accepted.append((".".join(map(str, path)), bad))
        assert not accepted, f"{base}: accepted {accepted}"


#: One value of each JSON kind.
JSON_KINDS = {"string": "x", "number": 3, "bool": True, "list": [], "object": {}}


def json_kind(value):
    if isinstance(value, bool):
        return "bool"
    return "number" if isinstance(value, (int, float)) else "string"


def leaves(data, path=()):
    """``(path, value)`` of every non-null scalar leaf of a spec dict."""
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from leaves(value, path + (key,))
        elif value is not None:
            yield path + (key,), value


#: Fields declared ``X | None``, where null is a value like any other.
OPTIONAL_FIELDS = {
    name
    for cls in (
        api.CollectiveScenario,
        api.TrainingScenario,
        api.ClusterScenario,
        api.ProvisioningScenario,
        api.ScenarioJob,
        api.PoissonTrace,
        api.OpenLoopTrace,
        api.FaultSpec,
        api.JobMix,
        LinkFault,
        PacketOptions,
        FluidOptions,
    )
    for name, kind in typing.get_type_hints(cls).items()
    if type(None) in typing.get_args(kind)
}


class TestTypeConfusionFuzz:
    @pytest.mark.parametrize("base", sorted(FUZZ_BASES))
    def test_every_leaf_rejects_every_other_json_kind(self, base):
        """A leaf swapped for a value of another JSON kind (or null, where
        its field is not optional) fails at load as a SpecError."""
        data = FUZZ_BASES[base]().to_dict()
        accepted = []
        for path, original in leaves(data):
            bad_values = [
                value
                for kind, value in JSON_KINDS.items()
                if kind != json_kind(original)
            ]
            if path[-1] not in OPTIONAL_FIELDS:
                bad_values.append(None)
            for bad in bad_values:
                mutated = copy.deepcopy(data)
                target = mutated
                for key in path[:-1]:
                    target = target[key]
                target[path[-1]] = bad
                try:
                    api.spec_from_dict(mutated)
                except SpecError:
                    continue
                accepted.append((".".join(map(str, path)), bad))
        assert not accepted, f"{base}: accepted {accepted}"


#: One value of each JSON kind, by the name :func:`json_kinds_taken` uses.
JSON_SAMPLES = {
    "null": None,
    "bool": True,
    "int": 3,
    "float": 2.5,
    "string": "x",
    "list": [],
    "object": {},
}


def json_kinds_taken(kind):
    """The JSON kinds a declared type reads (the rule of :mod:`repro.typed`)."""
    origin, args = typing.get_origin(kind) or kind, typing.get_args(kind)
    if origin is typing.Annotated:
        return json_kinds_taken(args[0])
    if origin in (typing.Union, types.UnionType):
        return set().union(*map(json_kinds_taken, args))
    if kind is typing.Any:
        return set(JSON_SAMPLES)
    if origin in (tuple, list):
        return {"list"}
    if origin is dict or dataclasses.is_dataclass(kind):
        return {"object"}
    scalars = {type(None): "null", bool: "bool", int: "int", str: "string"}
    return {"int", "float"} if kind is float else {scalars[kind]}


class TestRegistryArgumentFuzz:
    @pytest.mark.parametrize(
        "kind", [kind for kind in api.registry_kinds() if kind != "backend"]
    )
    def test_every_argument_rejects_every_other_json_kind(self, kind):
        """A keyword argument of a JSON kind its parameter's declared type
        does not take fails as the kind's library error, naming the
        argument, never as a bare exception from inside the factory."""
        registry = _registry(kind)
        escaped = []
        for key in registry.names():
            factory = registry.lookup(key)
            parameters = inspect.signature(factory, eval_str=True).parameters
            for name, parameter in parameters.items():
                if parameter.annotation is parameter.empty:
                    continue
                taken = json_kinds_taken(parameter.annotation)
                for sample, value in JSON_SAMPLES.items():
                    if sample in taken:
                        continue
                    try:
                        api.resolve(kind, key, **{name: copy.deepcopy(value)})
                    except registry.error as error:
                        if f".{name}: expected" not in str(error):
                            escaped.append((key, name, value, str(error)))
                    except Exception as error:
                        escaped.append((key, name, value, repr(error)))
                    else:
                        escaped.append((key, name, value, "accepted"))
        assert not escaped, escaped


# --- the runner --------------------------------------------------------------
FAST = dict(chunks=4)


class TestRun:
    def test_collective_matches_legacy_path(self):
        spec = api.CollectiveScenario(size=32 * MB, chunks=8)
        report = api.run(spec)
        topology = get_topology(spec.topology)
        sim = NetworkSimulator(
            topology,
            SchedulerFactory("themis", splitter=Splitter(8)),
            policy="SCF",
        )
        sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, spec.size))
        legacy = sim.run()
        assert report.makespan == pytest.approx(legacy.makespan, rel=1e-12)
        assert report.avg_utilization == pytest.approx(
            bw_utilization(legacy).average, rel=1e-12
        )
        ideal = IdealEstimator().collective_time(
            CollectiveType.ALL_REDUCE, spec.size, topology
        )
        assert report.payload["ideal_time"] == pytest.approx(ideal, rel=1e-12)
        assert report.mode == "collective" and report.events > 0

    def test_training_matches_legacy_path(self):
        spec = api.TrainingScenario(
            workload="dlrm", topology="2D-SW_SW", scheduler="baseline",
            overlap_dp=False, dp_bucket_bytes=100 * MB, chunks=16,
        )
        report = api.run(spec)
        legacy = simulate_training(
            get_workload("dlrm"), get_topology("2D-SW_SW"),
            scheduler="baseline",
            config=TrainingConfig(
                overlap_dp=False, dp_bucket_bytes=100 * MB,
                chunks_per_collective=16,
            ),
        )
        assert report.makespan == pytest.approx(legacy.total_time, rel=1e-12)
        assert report.avg_utilization == pytest.approx(
            legacy.avg_bw_utilization, rel=1e-12
        )
        assert report.detail.describe() == legacy.describe()

    def test_cluster_runs_from_spec(self):
        spec = api.ClusterScenario(
            topology=TINY,
            jobs=(
                api.ScenarioJob(
                    name="a", workload="flood",
                    workload_args={"layers": 2, "param_mb": 2.0},
                ),
                api.ScenarioJob(
                    name="b", workload="flood",
                    workload_args={"layers": 1, "param_mb": 4.0},
                    arrival_time=1e-4,
                ),
            ),
            **FAST,
        )
        report = api.run(spec)
        assert report.mode == "cluster" and not report.truncated
        assert {row["name"] for row in report.payload["jobs"]} == {"a", "b"}
        assert report.payload["mean_rho"] >= 1.0
        assert report.detail.job("a").finished

    def test_cluster_truncated_propagates(self):
        spec = api.ClusterScenario(
            topology=TINY,
            jobs=(api.ScenarioJob(name="a", workload="flood"),),
            isolated_baselines=False,
            max_events=3,
            **FAST,
        )
        report = api.run(spec)
        assert report.truncated
        assert report.payload["unfinished_jobs"] == ["a"]
        assert report.payload["mean_jct"] is None
        # the flag survives serialization
        assert api.RunReport.from_dict(report.to_dict()).truncated

    def test_provisioning(self):
        report = api.run(api.ProvisioningScenario(topology="3D-SW_SW_SW_hetero"))
        assert report.mode == "provisioning"
        assert report.events == 0 and report.makespan == 0.0
        assert 0 < report.payload["max_utilization"] <= 1.0
        assert len(report.payload["assessments"]) == 3

    def test_run_accepts_dicts(self):
        report = api.run({"mode": "provisioning", "topology": "2D-SW_SW"})
        assert report.mode == "provisioning"

    def test_report_round_trip(self):
        report = api.run(api.CollectiveScenario(size=16 * MB, chunks=4))
        clone = api.RunReport.from_dict(json.loads(report.to_json()))
        assert clone.makespan == report.makespan
        assert clone.payload == report.payload
        assert clone.detail is None  # detail never crosses serialization

    def test_ideal_network_mode(self):
        report = api.run(
            api.TrainingScenario(
                workload="flood", workload_args={"layers": 2},
                topology=TINY, ideal_network=True, chunks=4,
            )
        )
        assert report.payload["scheduler_label"] == "Ideal"


# --- sweeps ------------------------------------------------------------------
class TestSweep:
    def test_grid_order_and_overrides(self):
        base = api.CollectiveScenario(topology=TINY, size=8 * MB, chunks=4)
        grid = api.sweep(
            base,
            {"scheduler": ["baseline", "themis"], "chunks": [2, 4]},
        )
        assert len(grid) == 4
        assert [p.overrides["scheduler"] for p in grid] == [
            "baseline", "baseline", "themis", "themis",
        ]
        assert [p.overrides["chunks"] for p in grid] == [2, 4, 2, 4]
        assert grid.find(scheduler="themis", chunks=2).report.makespan > 0

    def test_coupled_axis(self):
        base = api.CollectiveScenario(topology=TINY, size=8 * MB, chunks=4)
        grid = api.sweep(
            base,
            {"scheduler+policy": [("baseline", "FIFO"), ("themis", "SCF")]},
        )
        labels = [p.report.payload["scheduler_label"] for p in grid]
        assert labels == ["Baseline", "Themis+SCF"]

    def test_bad_coupled_values(self):
        base = api.CollectiveScenario(topology=TINY)
        with pytest.raises(SpecError, match="coupled axis"):
            api.sweep(base, {"scheduler+policy": ["baseline"]})

    def test_axis_values_validated_before_running(self):
        base = api.CollectiveScenario(topology=TINY)
        with pytest.raises(SpecError, match="unknown scheduler"):
            api.sweep(base, {"scheduler": ["baseline", "nope"]})

    def test_process_pool_matches_sequential(self):
        base = api.CollectiveScenario(topology=TINY, size=8 * MB, chunks=4)
        axes = {"scheduler": ["baseline", "themis"]}
        seq = api.sweep(base, axes)
        par = api.sweep(base, axes, processes=2)
        for a, b in zip(seq, par):
            da, db = a.report.to_dict(), b.report.to_dict()
            da.pop("wall_time"), db.pop("wall_time")
            assert da == db
        assert par.points[0].report.detail is None

    def test_truncated_points_flagged_not_fatal(self):
        base = api.ClusterScenario(
            topology=TINY,
            jobs=(api.ScenarioJob(name="a", workload="flood"),),
            isolated_baselines=False,
            **FAST,
        )
        grid = api.sweep(base, {"max_events": [3, None]})
        flags = [p.report.truncated for p in grid]
        assert flags == [True, False]
        assert len(grid.truncated_points) == 1
        assert "truncated by event budget" in grid.render()

    def test_sweep_result_serializes(self):
        base = api.ProvisioningScenario()
        grid = api.sweep(base, {"topology": ["2D-SW_SW", "3D-SW_SW_SW_homo"]})
        data = json.loads(grid.to_json())
        assert len(data["points"]) == 2
        assert data["points"][0]["overrides"]["topology"] == "2D-SW_SW"

    def test_sequential_sweep_shares_isolated_baselines(self, monkeypatch):
        """Policy sweeps must not re-simulate solo baselines per point."""
        import repro.cluster.simulator as sim_mod

        calls = []
        original = sim_mod.isolated_jct
        monkeypatch.setattr(
            sim_mod, "isolated_jct",
            lambda *a, **k: calls.append(1) or original(*a, **k),
        )
        base = api.ClusterScenario(
            topology=TINY,
            jobs=(
                api.ScenarioJob(name="a", workload="flood",
                                workload_args={"layers": 2}),
                api.ScenarioJob(name="b", workload="flood",
                                workload_args={"layers": 1, "param_mb": 8.0},
                                arrival_time=1e-4),
            ),
            **FAST,
        )
        grid = api.sweep(base, {"fairness": [None, "fifo", "weighted"]})
        assert len(grid) == 3
        # 2 jobs, 3 policies: each distinct job's solo run happens once.
        assert len(calls) == 2

    def test_same_seed_same_results(self):
        """Sweeps never perturb spec seeds: identical grids, identical runs."""
        base = api.ClusterScenario(
            topology=TINY,
            trace=api.PoissonTrace(
                workloads=("flood",), interarrival=1e-4, seed=9, jobs=2
            ),
            isolated_baselines=False,
            **FAST,
        )
        axes = {"policy": ["FIFO", "SCF"]}
        first = api.sweep(base, axes)
        second = api.sweep(base, axes)
        for a, b in zip(first, second):
            assert a.report.makespan == b.report.makespan


# --- per-dimension tenant weights (satellite) --------------------------------
class TestPerDimWeights:
    def test_network_flattens_per_dim_maps(self):
        sim = NetworkSimulator(tiny_topology())
        sim.set_tenant_weights({"a": {0: 4.0}, "b": 2.0})
        assert sim.channels[0].share_weights == {"a": 4.0, "b": 2.0}
        assert sim.channels[1].share_weights == {"a": 1.0, "b": 2.0}

    def test_network_rejects_bad_dim_index(self):
        sim = NetworkSimulator(tiny_topology())
        with pytest.raises(ConfigError, match="out of range"):
            sim.set_tenant_weights({"a": {2: 4.0}})

    def test_weighted_sharing_by_dim_prepare(self):
        from repro.cluster import ClusterConfig, ClusterSimulator, JobSpec

        policy = WeightedSharing(weights_by_dim={"a": {1: 8.0}})
        sim = ClusterSimulator(
            tiny_topology(),
            [
                JobSpec(name="a", workload=flood(1, 2.0, "wa")),
                JobSpec(name="b", workload=flood(1, 2.0, "wb")),
            ],
            ClusterConfig(
                fairness=policy, isolated_baselines=False,
            ),
        )
        policy.prepare(sim)
        assert sim.network.channels[1].share_weights["a"] == 8.0
        assert sim.network.channels[0].share_weights["a"] == 1.0
        assert sim.network.channels[0].share_weights["b"] == 1.0
        assert "per-dimension" in policy.describe()

    def test_weighted_sharing_unknown_job_rejected(self):
        """Misnamed tenants must fail loudly, never silently unweight."""
        from repro.cluster import ClusterConfig, ClusterSimulator, JobSpec

        for policy in (
            WeightedSharing(weights_by_dim={"ghost": {0: 2.0}}),
            WeightedSharing(weights={"ghost": 2.0}),
        ):
            sim = ClusterSimulator(
                tiny_topology(),
                [JobSpec(name="a", workload=flood(1, 2.0, "wa"))],
                ClusterConfig(fairness=policy, isolated_baselines=False),
            )
            with pytest.raises(ConfigError, match="unknown job.s. 'ghost'"):
                policy.prepare(sim)

    def test_scenario_field_reaches_channels(self):
        spec = api.ClusterScenario(
            topology=TINY,
            jobs=(
                api.ScenarioJob(name="a", workload="flood",
                                workload_args={"layers": 2}),
                api.ScenarioJob(name="b", workload="flood",
                                workload_args={"layers": 1, "param_mb": 8.0}),
            ),
            fairness="weighted",
            fairness_weights_by_dim={"b": {1: 4.0}},
            isolated_baselines=False,
            **FAST,
        )
        report = api.run(spec)
        assert not report.truncated
        assert report.payload["fairness"].startswith("Weighted shares")
        assert "per-dimension" in report.payload["fairness"]

    def test_per_dim_favoritism_changes_outcomes(self):
        """Boosting a tenant on the dimension it fights for must help it."""
        def jct_of_b(by_dim):
            spec = api.ClusterScenario(
                topology=TINY,
                jobs=(
                    api.ScenarioJob(name="a", workload="flood",
                                    workload_args={"layers": 8,
                                                   "param_mb": 4.0}),
                    api.ScenarioJob(name="b", workload="flood",
                                    workload_args={"layers": 1,
                                                   "param_mb": 16.0}),
                ),
                fairness="weighted",
                fairness_weights_by_dim=by_dim,
                isolated_baselines=False,
                **FAST,
            )
            return api.run(spec).detail.job("b").jct

        boosted = jct_of_b({"b": {0: 16.0, 1: 16.0}})
        starved = jct_of_b({"b": {0: 1.0, 1: 1.0}})
        assert boosted < starved


# --- shipped example specs ---------------------------------------------------
SPECS_DIR = Path(__file__).resolve().parent.parent / "examples" / "specs"


class TestShippedSpecs:
    def test_all_example_specs_parse_and_round_trip(self):
        paths = sorted(glob.glob(str(SPECS_DIR / "*.json")))
        assert len(paths) >= 4, "examples/specs/ must ship specs"
        modes = set()
        for path in paths:
            spec = api.load_spec(path)
            modes.add(spec.mode)
            assert api.spec_from_dict(json.loads(spec.to_json())) == spec
        assert modes == {"collective", "training", "cluster", "provisioning"}

    def test_provisioning_example_runs(self):
        report = api.run(api.load_spec(SPECS_DIR / "provisioning_hetero.json"))
        assert report.payload["assessments"]
