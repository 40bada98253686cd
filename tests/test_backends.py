"""Network-fidelity backend tests: registry, packet model, agreement.

Covered:

* the ``backend`` registry kind: lookup, case-insensitivity, did-you-mean
  rejection, spec-level validation of backends and their options;
* packetization invariants (hypothesis): byte conservation across MTU
  choices, MTU bounds, packet counts, the per-op packet cap;
* egress booking invariants (hypothesis): determinism of
  ``service_packets`` under identical inputs, strict per-hop arrival
  monotonicity (store-and-forward), FIFO ordering on a single lane;
* routing: earliest-free-lane striping, seedless ECMP hash stability;
* cross-backend agreement goldens: the packet backend's makespan tracks
  the analytical model within documented tolerances on uncontended
  collectives, and ``backend: "analytical"`` is bit-identical to leaving
  the field unset;
* capability gating: fairness policies that need weighted sharing are
  rejected on the packet backend, the ideal backend refuses clusters and
  faults; every backend's flags match what its network does;
* ``backend_options`` values are type-checked, not coerced;
* the custom-backend example in ``docs/backends.md`` runs as a plugin;
* packet faults: degradation slows the wire, outages park and resume;
* the ``themis-sim registry`` subcommand and ``--backend`` CLI flags;
* the fidelity experiment: Themis's win survives packet fidelity.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import api
from repro.cli import main
from repro.cluster import ClusterConfig, ClusterSimulator, JobSpec
from repro.collectives import CollectiveRequest, CollectiveType
from repro.core import SchedulerFactory, Splitter
from repro.errors import ConfigError, SpecError
from repro.sim import FaultSchedule, IdealNetwork, LinkFault, NetworkSimulator
from repro.sim.backends import (
    DEFAULT_BACKEND,
    ROUTING_MODES,
    PacketNetwork,
    PacketOptions,
    backend_names,
    get_backend,
    lane_for_packet,
    packetize,
    register_backend,
    resolve_backend_key,
    service_packets,
)
from repro.sim.backends.packet import capped_mtu
from repro.topology import Topology, dimension, get_topology
from repro.units import MB
from repro.workloads import Layer, Workload

SRC = Path(__file__).resolve().parents[1] / "src"
DOCS = Path(__file__).resolve().parents[1] / "docs"

# --- helpers ----------------------------------------------------------------


def run_backend(backend_key, topology, size=64 * MB, chunks=64,
                options=None, schedule=None, kind="themis"):
    """Run one All-Reduce through a backend's built network."""
    network = get_backend(backend_key).build(
        topology,
        scheduler=SchedulerFactory(kind, splitter=Splitter(chunks)),
        options=options,
    )
    if schedule is not None:
        network.apply_fault_schedule(schedule)
    network.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, size))
    return network.run()


def single_dim(kind, size=8, gbps=200.0, links=2, latency_ns=700):
    return Topology(
        [dimension(kind, size, gbps, links_per_npu=links,
                   latency_ns=latency_ns)],
        name=f"one-{kind}",
    )


# --- registry ---------------------------------------------------------------


class TestBackendRegistry:
    def test_builtin_names(self):
        assert tuple(backend_names()) == (
            "analytical", "fluid", "ideal", "packet",
        )

    def test_default_is_analytical(self):
        assert DEFAULT_BACKEND == "analytical"

    def test_lookup_case_insensitive(self):
        assert get_backend("Packet") is get_backend("packet")

    def test_unknown_names_known(self):
        with pytest.raises(ConfigError, match="analytical.*fluid.*ideal.*packet"):
            get_backend("quantum")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_backend("packet", get_backend("packet"))

    def test_registered_in_api_registry(self):
        assert "backend" in api.registry_kinds()
        assert api.registry_keys("backend") == (
            "analytical", "fluid", "ideal", "packet",
        )

    def test_api_validate_key_did_you_mean(self):
        with pytest.raises(SpecError, match="packet"):
            api.validate_key("backend", "packte")

    def test_resolve_key_defaults(self):
        assert resolve_backend_key(None) == "analytical"
        assert resolve_backend_key(None, ideal_network=True) == "ideal"
        assert resolve_backend_key("Packet") == "packet"
        assert resolve_backend_key("ideal", ideal_network=True) == "ideal"

    def test_resolve_key_explicit_backend_wins(self):
        # an explicit key wins over the default, but the ideal_network alias
        # combined with a different explicit key is a conflict, rejected by
        # the resolver itself (specs and TrainingSimulator share it)
        assert resolve_backend_key("packet") == "packet"
        assert resolve_backend_key("ideal", ideal_network=True) == "ideal"
        assert resolve_backend_key("Ideal", ideal_network=True) == "ideal"
        with pytest.raises(ConfigError, match="ideal_network is an alias"):
            resolve_backend_key("packet", ideal_network=True)

    def test_capability_flags(self):
        analytical = get_backend("analytical")
        ideal = get_backend("ideal")
        packet = get_backend("packet")
        assert analytical.supports_sharing and analytical.supports_cluster
        assert not ideal.accepts_scheduler and not ideal.supports_faults
        assert packet.supports_cluster and not packet.supports_sharing

    def test_builds_expected_network_types(self, small_2d):
        scheduler = SchedulerFactory("themis", splitter=Splitter(4))
        assert isinstance(
            get_backend("analytical").build(small_2d, scheduler=scheduler),
            NetworkSimulator,
        )
        assert isinstance(get_backend("ideal").build(small_2d), IdealNetwork)
        assert isinstance(
            get_backend("packet").build(small_2d, scheduler=scheduler),
            PacketNetwork,
        )

    def test_analytical_rejects_options(self, small_2d):
        with pytest.raises(ConfigError, match="accepts no options"):
            get_backend("analytical").build(
                small_2d,
                scheduler=SchedulerFactory("themis", splitter=Splitter(4)),
                options={"mtu_bytes": 1024},
            )


# --- packetization ----------------------------------------------------------


class TestPacketize:
    @given(
        nbytes=st.floats(min_value=1.0, max_value=1e9),
        mtu=st.floats(min_value=64.0, max_value=1e7),
    )
    @settings(max_examples=100, deadline=None)
    def test_byte_conservation(self, nbytes, mtu):
        payloads = packetize(nbytes, mtu)
        assert sum(payloads) == pytest.approx(nbytes, rel=1e-9)

    @given(
        nbytes=st.floats(min_value=1.0, max_value=1e9),
        mtu=st.floats(min_value=64.0, max_value=1e7),
    )
    @settings(max_examples=100, deadline=None)
    def test_mtu_bound_and_count(self, nbytes, mtu):
        payloads = packetize(nbytes, mtu)
        assert all(0 < p <= mtu for p in payloads)
        assert len(payloads) == math.ceil(nbytes / mtu)

    @pytest.mark.parametrize(
        ("nbytes", "count"),
        [
            # nbytes - 49 * mtu rounds to just above one MTU.
            (499999999.9999999, 50),
            # A sub-ulp remainder past 100 full packets: the quotient
            # rounds to 100.0, so it must not become a 101st packet.
            (999999999.9999999, 100),
        ],
    )
    def test_rounding_edges(self, nbytes, count):
        mtu = 9999999.999999998
        payloads = packetize(nbytes, mtu)
        assert len(payloads) == math.ceil(nbytes / mtu) == count
        assert all(0 < p <= mtu for p in payloads)
        assert sum(payloads) == pytest.approx(nbytes, rel=1e-12)

    def test_exact_multiple_has_no_runt(self):
        assert packetize(4096.0, 1024.0) == [1024.0] * 4

    def test_empty_for_nonpositive(self):
        assert packetize(0.0, 1024.0) == []
        assert packetize(-5.0, 1024.0) == []

    @given(
        nbytes=st.floats(min_value=64 * MB, max_value=16 * 1024 * MB),
        cap=st.integers(min_value=1, max_value=300),
    )
    # bytes / 100 rounds down: its packet count would be 101, the last
    # packet carrying 8.2e-8 bytes.
    @example(nbytes=945222160.4907061, cap=100)
    @settings(max_examples=200, deadline=None)
    def test_capped_op_stays_within_cap(self, nbytes, cap):
        mtu = capped_mtu(nbytes, 65536.0, cap)
        payloads = packetize(nbytes, mtu)
        assert len(payloads) <= cap
        assert all(0 < p <= mtu for p in payloads)
        assert sum(payloads) == pytest.approx(nbytes, rel=1e-9)

    def test_uncapped_op_keeps_its_mtu(self):
        assert capped_mtu(65536.0 * 256, 65536.0, 256) == 65536.0


class TestPacketOptions:
    def test_defaults(self):
        options = PacketOptions()
        assert options.mtu_bytes == 65536.0
        assert options.header_bytes == 64.0
        assert options.routing == "deterministic"
        assert options.routing in ROUTING_MODES

    def test_from_dict_unknown_key_did_you_mean(self):
        with pytest.raises(ConfigError, match="mtu_bytes"):
            get_backend("packet").validate_options({"mtu_byte": 1024})

    def test_rejects_bad_routing(self):
        with pytest.raises(ConfigError, match="deterministic"):
            PacketOptions(routing="random")

    def test_rejects_nonpositive_mtu(self):
        with pytest.raises(ConfigError):
            PacketOptions(mtu_bytes=0)

    def test_rejects_tiny_packet_cap(self):
        with pytest.raises(ConfigError):
            PacketOptions(max_packets_per_op=0)


class TestOptionTypes:
    """A ``backend_options`` value must have its option's type."""

    @pytest.mark.parametrize(
        ("backend", "options", "kind"),
        [
            ("fluid", {"hybrid": "false"}, "bool"),
            ("packet", {"mtu_bytes": True}, "float"),
            ("packet", {"max_packets_per_op": 2.7}, "int"),
            ("packet", {"routing": 1}, "str"),
        ],
    )
    def test_wrong_type_rejected(self, backend, options, kind):
        (name,) = options
        with pytest.raises(ConfigError, match=f"{backend} .*{name}: expected {kind}"):
            get_backend(backend).validate_options(options)
        with pytest.raises(SpecError, match=name):
            api.TrainingScenario(
                workload="dlrm",
                topology="2D-SW_SW",
                backend=backend,
                backend_options=options,
            )

    def test_int_is_a_float(self):
        options = get_backend("packet").validate_options({"mtu_bytes": 8192})
        assert options.mtu_bytes == 8192.0
        assert isinstance(options.mtu_bytes, float)

    def test_int_too_large_for_a_float(self):
        with pytest.raises(ConfigError, match="too large"):
            get_backend("packet").validate_options({"mtu_bytes": 10**400})


# --- egress booking ---------------------------------------------------------


def _book(payloads, lanes=2, hops=2, header=64.0, rate=1e9,
          prop=1e-6, routing="deterministic", start=0.0):
    free_at = [[0.0] * lanes for _ in range(hops)]
    return service_packets(
        list(payloads), header, rate, free_at, prop, routing, (1, 2, 3),
        start,
    ), free_at


class TestServicePackets:
    @given(
        payloads=st.lists(
            st.floats(min_value=1.0, max_value=65536.0), min_size=1,
            max_size=12,
        ),
        lanes=st.integers(min_value=1, max_value=4),
        hops=st.integers(min_value=1, max_value=3),
        routing=st.sampled_from(ROUTING_MODES),
    )
    @settings(max_examples=80, deadline=None)
    def test_deterministic_replay(self, payloads, lanes, hops, routing):
        first, _ = _book(payloads, lanes=lanes, hops=hops, routing=routing)
        second, _ = _book(payloads, lanes=lanes, hops=hops, routing=routing)
        assert first == second

    @given(
        payloads=st.lists(
            st.floats(min_value=1.0, max_value=65536.0), min_size=1,
            max_size=12,
        ),
        lanes=st.integers(min_value=1, max_value=4),
        routing=st.sampled_from(ROUTING_MODES),
    )
    @settings(max_examples=80, deadline=None)
    def test_per_hop_arrivals_strictly_increase(self, payloads, lanes,
                                                routing):
        arrivals, _ = _book(payloads, lanes=lanes, hops=3, routing=routing)
        for hop in range(1, len(arrivals)):
            for index in range(len(payloads)):
                assert arrivals[hop][index] > arrivals[hop - 1][index]

    def test_single_lane_is_fifo(self):
        arrivals, free_at = _book([100.0, 200.0, 300.0], lanes=1, hops=1,
                                  prop=0.0)
        assert arrivals[0] == sorted(arrivals[0])
        # one lane serializes everything: total wire time is the sum
        assert free_at[0][0] == pytest.approx((100 + 200 + 300 + 3 * 64) / 1e9)

    def test_striping_uses_all_lanes(self):
        _, free_at = _book([1000.0] * 4, lanes=4, hops=1)
        assert all(lane > 0 for lane in free_at[0])


class TestLaneRouting:
    def test_deterministic_picks_earliest_free(self):
        assert lane_for_packet("deterministic", [5.0, 1.0, 3.0], (0,), 0) == 1

    def test_deterministic_tie_breaks_lowest_index(self):
        assert lane_for_packet("deterministic", [2.0, 2.0, 2.0], (0,), 7) == 0

    def test_single_lane_short_circuits(self):
        assert lane_for_packet("ecmp", [9.0], (0,), 123) == 0

    @given(
        key=st.tuples(st.integers(0, 100), st.integers(0, 100)),
        index=st.integers(0, 1000),
        lanes=st.integers(2, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_ecmp_stable_and_in_range(self, key, index, lanes):
        free = [0.0] * lanes
        first = lane_for_packet("ecmp", free, key, index)
        assert 0 <= first < lanes
        assert lane_for_packet("ecmp", free, key, index) == first

    def test_ecmp_spreads_flows(self):
        free = [0.0] * 4
        chosen = {
            lane_for_packet("ecmp", free, (seq, 0), 0) for seq in range(64)
        }
        assert len(chosen) > 1  # collisions allowed, starvation not


# --- cross-backend agreement ------------------------------------------------


class TestCrossBackendAgreement:
    """Golden tolerances documented in docs/backends.md."""

    @pytest.mark.parametrize("kind", ["fc", "ring", "sw"])
    def test_single_dim_uncontended_within_5pct(self, kind):
        topo = single_dim(kind)
        analytical = run_backend("analytical", topo)
        packet = run_backend("packet", topo)
        assert packet.makespan == pytest.approx(analytical.makespan, rel=0.05)

    def test_paper_platform_within_30pct(self):
        topo = get_topology("3D-FC_Ring_SW")
        analytical = run_backend("analytical", topo)
        packet = run_backend("packet", topo)
        assert packet.makespan == pytest.approx(analytical.makespan, rel=0.30)
        # extra physics only slows the wire, never speeds it up
        assert packet.makespan >= analytical.makespan

    def test_header_overhead_slows_the_wire(self):
        topo = single_dim("ring")
        lean = run_backend("packet", topo, options={"header_bytes": 0.0})
        fat = run_backend("packet", topo, options={"header_bytes": 1024.0})
        assert fat.makespan > lean.makespan

    def test_op_record_counts_match(self):
        topo = single_dim("fc")
        analytical = run_backend("analytical", topo, chunks=8)
        packet = run_backend("packet", topo, chunks=8)
        assert len(packet.records) == len(analytical.records)

    def test_packet_run_is_deterministic(self):
        topo = get_topology("3D-FC_Ring_SW")
        first = run_backend("packet", topo, chunks=16)
        second = run_backend("packet", topo, chunks=16)
        assert first.makespan == second.makespan

    def test_ecmp_runs_and_is_deterministic(self):
        topo = single_dim("ring")
        options = {"routing": "ecmp"}
        first = run_backend("packet", topo, options=options)
        second = run_backend("packet", topo, options=options)
        assert first.makespan == second.makespan


# --- spec threading ---------------------------------------------------------


class TestSpecThreading:
    def _train(self, **kwargs):
        return api.TrainingScenario(
            workload="dlrm", topology="2D-SW_SW", iterations=1, **kwargs
        )

    def test_training_analytical_bit_identical_to_default(self):
        default = api.run(self._train())
        explicit = api.run(self._train(backend="analytical"))
        assert default.makespan == explicit.makespan
        assert default.payload["backend"] == "analytical"
        assert explicit.payload["backend"] == "analytical"

    def test_training_ideal_backend_matches_legacy_flag(self):
        legacy = api.run(self._train(ideal_network=True))
        backend = api.run(self._train(backend="ideal"))
        assert backend.makespan == legacy.makespan
        assert backend.payload["backend"] == "ideal"

    def test_training_packet_runs_and_labels(self):
        report = api.run(self._train(backend="packet"))
        assert report.payload["backend"] == "packet"
        assert report.makespan > 0

    def test_training_packet_options_thread_through(self):
        default = api.run(self._train(backend="packet"))
        fat_header = api.run(
            self._train(
                backend="packet", backend_options={"header_bytes": 4096}
            )
        )
        assert fat_header.makespan > default.makespan

    def test_dotted_override_vivifies_backend_options(self):
        spec = self._train(backend="packet").with_overrides(
            {"backend_options.mtu_bytes": "8192"}
        )
        assert spec.backend_options == {"mtu_bytes": 8192}

    def test_backend_sweepable(self):
        grid = api.sweep(
            self._train(), {"backend": ["analytical", "packet"]}
        )
        backends = {p.report.payload["backend"] for p in grid}
        assert backends == {"analytical", "packet"}

    def test_unknown_backend_rejected_with_suggestion(self):
        with pytest.raises(SpecError, match="packet"):
            self._train(backend="packte")

    def test_backend_alias_conflict_rejected(self):
        with pytest.raises(SpecError, match="ideal_network"):
            self._train(backend="packet", ideal_network=True)

    def test_ideal_backend_rejects_faults(self):
        with pytest.raises(SpecError, match="no links to degrade"):
            self._train(
                backend="ideal",
                faults={"links": [{"dim_index": 0, "start": 0.0,
                                   "factor": 0.5}]},
            )

    def test_bad_packet_option_rejected_at_spec_time(self):
        with pytest.raises(SpecError, match="mtu_bytes"):
            self._train(backend="packet", backend_options={"mtu": 1024})

    def _cluster(self, **kwargs):
        jobs = (
            api.ScenarioJob(name="job0", workload="dlrm", arrival_time=0.0,
                            iterations=1),
            api.ScenarioJob(name="job1", workload="dlrm", arrival_time=1e-4,
                            iterations=1),
        )
        return api.ClusterScenario(
            topology="2D-SW_SW", jobs=jobs, **kwargs
        )

    def test_cluster_analytical_bit_identical_to_default(self):
        default = api.run(self._cluster())
        explicit = api.run(self._cluster(backend="analytical"))
        assert default.payload["mean_jct"] == explicit.payload["mean_jct"]
        assert explicit.payload["backend"] == "analytical"

    def test_cluster_packet_runs_with_rho_at_same_fidelity(self):
        report = api.run(self._cluster(backend="packet"))
        assert report.payload["backend"] == "packet"
        assert report.payload["mean_rho"] is not None
        assert report.payload["mean_rho"] >= 0.99

    def test_cluster_ideal_rejected(self):
        with pytest.raises(SpecError, match="shared multi-job cluster"):
            self._cluster(backend="ideal")

    def test_cluster_packet_fifo_fairness_allowed(self):
        report = api.run(self._cluster(backend="packet", fairness="fifo"))
        assert report.payload["fairness"] == "FIFO"

    @pytest.mark.parametrize("policy", ["weighted", "ftf", "preempt"])
    def test_cluster_packet_rejects_sharing_policies(self, policy):
        with pytest.raises(SpecError, match="analytical"):
            self._cluster(backend="packet", fairness=policy)


class TestFairnessCapabilities:
    def test_requires_sharing_flags(self):
        from repro.cluster import get_fairness
        from repro.cluster.fairness import FairnessPolicy

        assert FairnessPolicy.requires_sharing is False
        assert get_fairness("fifo").requires_sharing is False
        assert get_fairness("weighted").requires_sharing is True
        assert get_fairness("ftf").requires_sharing is True
        assert get_fairness("preempt").requires_sharing is True

    def test_packet_network_refuses_sharing_hooks(self, small_2d):
        network = PacketNetwork(
            small_2d, SchedulerFactory("themis", splitter=Splitter(4))
        )
        with pytest.raises(ConfigError):
            network.set_tenant_weights({"a": 2.0})
        with pytest.raises(ConfigError):
            network.enable_preemption()
        assert network.preemption_count == 0


# --- packet faults ----------------------------------------------------------


class TestPacketFaults:
    def test_degradation_slows_the_wire(self, small_2d):
        from repro.sim import FaultSchedule

        healthy = run_backend("packet", small_2d, chunks=4)
        degraded = run_backend(
            "packet", small_2d, chunks=4,
            schedule=FaultSchedule((LinkFault(0, 0.0, 0.25),)),
        )
        assert degraded.makespan > healthy.makespan

    def test_outage_parks_and_resumes(self, small_2d):
        from repro.sim import FaultSchedule

        healthy = run_backend("packet", small_2d, chunks=4)
        outage = healthy.makespan
        result = run_backend(
            "packet", small_2d, chunks=4,
            schedule=FaultSchedule(
                (LinkFault(0, outage / 4, 0.0, duration=outage),)
            ),
        )
        assert result.makespan > healthy.makespan

    def test_fault_on_missing_dim_rejected(self, small_2d):
        network = PacketNetwork(
            small_2d, SchedulerFactory("themis", splitter=Splitter(4))
        )
        with pytest.raises(ConfigError, match="dimension"):
            network.apply_fault(LinkFault(5, 0.0, 0.5))


# --- CLI --------------------------------------------------------------------


class TestRegistryCommand:
    def test_lists_every_kind(self, capsys):
        assert main(["registry"]) == 0
        out = capsys.readouterr().out
        for kind in ("topology:", "scheduler:", "backend:"):
            assert kind in out
        assert "packet" in out

    def test_kind_filter_with_descriptions(self, capsys):
        assert main(["registry", "--kind", "backend"]) == 0
        out = capsys.readouterr().out
        assert "analytical" in out and "packet-level" in out
        assert "topology:" not in out

    def test_json_output(self, capsys, builtin_registry):
        assert main(["registry", "--kind", "backend", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "backend": ["analytical", "fluid", "ideal", "packet"],
        }
        # Every kind, keys in registration order: the built-in tables are
        # written sorted, or in paper order for topology and algorithm.
        assert builtin_registry == {
            "topology": [
                "current-2D", "2D-SW_SW", "3D-SW_SW_SW_homo",
                "3D-SW_SW_SW_hetero", "3D-FC_Ring_SW", "4D-Ring_SW_SW_SW",
                "4D-Ring_FC_Ring_SW",
            ],
            "workload": [
                "dlrm", "flood", "gnmt", "resnet-152", "resnet152",
                "transformer-1t", "transformer1t",
            ],
            "collective": ["allreduce", "reducescatter", "allgather", "alltoall"],
            "scheduler": ["baseline", "themis"],
            "policy": ["fifo", "lcf", "scf"],
            "fairness": ["fifo", "ftf", "preempt", "weighted"],
            "placement": ["all-dims", "interleaved", "load-balanced", "manual"],
            "algorithm": ["Ring", "Direct", "HalvingDoubling", "Tree", "SwitchOffload"],
            "backend": ["analytical", "fluid", "ideal", "packet"],
        }

    def test_unknown_kind_rejected(self, capsys):
        assert main(["registry", "--kind", "nope"]) == 2
        assert "unknown kind" in capsys.readouterr().err


class TestBackendFlags:
    def test_train_backend_packet(self, capsys):
        code = main(
            ["train", "--workload", "dlrm", "--topology", "2D-SW_SW",
             "--backend", "packet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Baseline" in out and "Themis" in out

    def test_train_backend_unknown_errors(self, capsys):
        assert main(["train", "--backend", "nope"]) == 1
        assert "unknown backend" in capsys.readouterr().err

    def test_cluster_backend_packet(self, capsys):
        code = main(["cluster", "--backend", "packet", "--jobs", "2",
                     "--workloads", "dlrm", "--topology", "2D-SW_SW"])
        assert code == 0
        assert "job" in capsys.readouterr().out

    def test_cluster_backend_conflicts_with_fairness(self, capsys):
        code = main(["cluster", "--backend", "packet",
                     "--fairness", "weighted"])
        assert code == 1
        assert "analytical backend" in capsys.readouterr().err


# --- capability contract ----------------------------------------------------


def _works(call) -> bool:
    """Whether ``call()`` ran; a missing method, a rejected argument or a
    ``ConfigError`` count as refused."""
    try:
        call()
    except (AttributeError, TypeError, ConfigError):
        return False
    return True


class TestCapabilityContract:
    """Every registered backend's flags match what its network does."""

    @pytest.mark.parametrize("key", backend_names())
    def test_flags_match_behaviour(self, key, small_2d):
        backend = get_backend(key)
        assert backend.key == key
        assert backend.description
        scheduler = SchedulerFactory("themis", splitter=Splitter(4))

        def build():
            network = backend.build(small_2d, scheduler=scheduler)
            assert isinstance(network, backend)
            return network

        def request():
            return CollectiveRequest(CollectiveType.ALL_REDUCE, 4 * MB)

        network = build()
        submitted = _works(lambda: network.submit(request(), scheduler=scheduler))
        assert submitted == backend.accepts_scheduler
        network.submit(request())
        network.run()
        assert _works(lambda: network.result()) == backend.provides_result

        network = build()
        faults = FaultSchedule((LinkFault(0, 0.0, 0.5),))
        faulted = _works(lambda: network.apply_fault_schedule(faults))
        assert faulted == backend.supports_faults

        network = build()
        weighted = _works(lambda: network.set_tenant_weights({"a": 2.0}))
        assert weighted == backend.supports_sharing
        preempted = _works(lambda: network.enable_preemption())
        assert preempted == backend.supports_sharing

        job = JobSpec(
            name="solo",
            workload=Workload(
                name="tiny",
                layers=[Layer("l0", fwd_flops=1e9, bwd_flops=2e9, param_bytes=4 * MB)],
                batch_per_npu=1,
            ),
        )

        def cluster():
            config = ClusterConfig(isolated_baselines=False, backend=key)
            ClusterSimulator(small_2d, [job], config).run()

        assert _works(cluster) == backend.supports_cluster


class TestCustomBackendDoc:
    """The "Registering a custom backend" example in docs/backends.md."""

    def test_example_plugin_runs(self, builtin_registry):
        text = (DOCS / "backends.md").read_text(encoding="utf-8")
        section = text.split("## Registering a custom backend", 1)[1]
        example = section.split("```python\n", 1)[1].split("```", 1)[0]
        builtin_keys = builtin_registry["backend"]
        # A fresh interpreter, so the plugin stays out of this process's
        # registry; it then runs one small scenario under the new key.
        check = f"""
from repro import api
from repro.sim.backends import NetworkBackend, backend_names, get_backend
(plugin,) = [k for k in backend_names() if k not in {builtin_keys!r}]
assert issubclass(get_backend(plugin), NetworkBackend)
assert get_backend(plugin).key == plugin
report = api.run(api.TrainingScenario(
    workload="dlrm", topology="2D-SW_SW", iterations=1, backend=plugin,
))
assert report.payload["backend"] == plugin and report.makespan > 0
print("plugin ran:", plugin)
"""
        path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", example + check],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert "plugin ran:" in proc.stdout


# --- fidelity experiment ----------------------------------------------------


class TestFidelityExperiment:
    def test_conclusion_survives_packet_fidelity(self):
        from repro.experiments import run_fidelity

        result = run_fidelity(workloads=("dlrm",))
        assert result.conclusion_holds()
        assert result.themis_gain("dlrm", "analytical") > 1.0
        assert result.themis_gain("dlrm", "packet") > 1.0
        # divergence stays within the documented training tolerance
        assert result.divergence("dlrm", "themis") < 1.25
        rendered = result.render()
        assert "packet" in rendered and "conclusion" in rendered

    def test_deterministic_rerun(self):
        from repro.experiments import run_fidelity

        first = run_fidelity(workloads=("dlrm",))
        second = run_fidelity(workloads=("dlrm",))
        assert first.iteration_time("dlrm", "packet") == pytest.approx(
            second.iteration_time("dlrm", "packet"), rel=0, abs=0
        )
