"""Topology and dimension model tests."""

from __future__ import annotations

import pytest

from repro import api
from repro.errors import SpecError, TopologyError
from repro.topology import (
    DimensionKind,
    DimensionSpec,
    Topology,
    dimension,
    get_topology,
    paper_topologies,
    preset_names,
    topology_from_dict,
    topology_to_dict,
)
from repro.units import gbps


class TestDimensionKind:
    def test_from_name_aliases(self):
        assert DimensionKind.from_name("ring") is DimensionKind.RING
        assert DimensionKind.from_name("FC") is DimensionKind.FULLY_CONNECTED
        assert (
            DimensionKind.from_name("FullyConnected")
            is DimensionKind.FULLY_CONNECTED
        )
        assert DimensionKind.from_name("direct") is DimensionKind.FULLY_CONNECTED
        assert DimensionKind.from_name("sw") is DimensionKind.SWITCH
        assert DimensionKind.from_name("Switch") is DimensionKind.SWITCH

    def test_from_name_rejects_unknown(self):
        with pytest.raises(TopologyError):
            DimensionKind.from_name("mesh")

    def test_short_names(self):
        assert DimensionKind.RING.short_name == "Ring"
        assert DimensionKind.FULLY_CONNECTED.short_name == "FC"
        assert DimensionKind.SWITCH.short_name == "SW"


class TestDimensionSpec:
    def test_aggregate_bandwidth(self):
        dim = dimension("sw", 16, 200.0, links_per_npu=6)
        assert dim.bandwidth == pytest.approx(gbps(1200.0))
        assert dim.bandwidth_gbps == pytest.approx(1200.0)

    def test_rejects_size_one(self):
        with pytest.raises(TopologyError):
            dimension("ring", 1, 100.0)

    def test_rejects_nonpositive_bw(self):
        with pytest.raises(TopologyError):
            DimensionSpec(DimensionKind.RING, 4, 0.0)

    def test_rejects_negative_latency(self):
        with pytest.raises(TopologyError):
            dimension("ring", 4, 100.0, latency_ns=-5)

    def test_rejects_zero_links(self):
        with pytest.raises(TopologyError):
            DimensionSpec(DimensionKind.RING, 4, 1.0, links_per_npu=0)

    def test_scaled_multiplies_bw(self):
        dim = dimension("ring", 4, 100.0)
        assert dim.scaled(2.0).bandwidth == pytest.approx(2 * dim.bandwidth)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(TopologyError):
            dimension("ring", 4, 100.0).scaled(0.0)

    def test_latency_converted_to_seconds(self):
        dim = dimension("sw", 8, 100.0, latency_ns=700)
        assert dim.step_latency == pytest.approx(700e-9)


class TestTopology:
    def test_shape_and_npus(self, asymmetric_3d):
        assert asymmetric_3d.shape == (4, 2, 8)
        assert asymmetric_3d.npus == 64
        assert asymmetric_3d.ndims == 3

    def test_iteration_and_indexing(self, asymmetric_3d):
        dims = list(asymmetric_3d)
        assert len(dims) == 3
        assert asymmetric_3d[0] is dims[0]

    def test_total_bandwidth(self, asymmetric_3d):
        expected = sum(d.bandwidth for d in asymmetric_3d.dims)
        assert asymmetric_3d.total_bandwidth == pytest.approx(expected)

    def test_bw_share_sums_to_one(self, asymmetric_3d):
        shares = [asymmetric_3d.bw_share(i) for i in range(3)]
        assert sum(shares) == pytest.approx(1.0)

    def test_empty_topology_rejected(self):
        with pytest.raises(TopologyError):
            Topology([])

    def test_default_name_from_kinds(self):
        topo = Topology([dimension("fc", 4, 100.0), dimension("sw", 8, 50.0)])
        assert topo.name == "2D-FC_SW"

    def test_subset_preserves_parent_indices(self, asymmetric_3d):
        sub = asymmetric_3d.subset([2])
        assert sub.ndims == 1
        assert sub.parent_index(0) == 2
        assert sub.parent_indices == (2,)

    def test_subset_multi_dim(self, asymmetric_3d):
        sub = asymmetric_3d.subset([0, 1])
        assert sub.shape == (4, 2)
        assert sub.parent_indices == (0, 1)

    def test_full_topology_parent_indices_identity(self, asymmetric_3d):
        assert asymmetric_3d.parent_indices == (0, 1, 2)

    def test_subset_rejects_bad_indices(self, asymmetric_3d):
        with pytest.raises(TopologyError):
            asymmetric_3d.subset([3])
        with pytest.raises(TopologyError):
            asymmetric_3d.subset([0, 0])
        with pytest.raises(TopologyError):
            asymmetric_3d.subset([])

    def test_with_bandwidths(self, asymmetric_3d):
        scaled = asymmetric_3d.with_bandwidths([2.0, 1.0, 0.5])
        assert scaled.dims[0].bandwidth == pytest.approx(
            2.0 * asymmetric_3d.dims[0].bandwidth
        )
        assert scaled.dims[2].bandwidth == pytest.approx(
            0.5 * asymmetric_3d.dims[2].bandwidth
        )

    def test_with_bandwidths_length_check(self, asymmetric_3d):
        with pytest.raises(TopologyError):
            asymmetric_3d.with_bandwidths([1.0])

    def test_describe_mentions_every_dim(self, asymmetric_3d):
        text = asymmetric_3d.describe()
        for i in range(1, 4):
            assert f"dim{i}" in text


class TestPresets:
    """Check the Table 2 presets against the paper's numbers."""

    def test_all_presets_have_1024_npus(self):
        for name in preset_names():
            assert get_topology(name).npus == 1024, name

    def test_unknown_preset_raises(self):
        with pytest.raises(TopologyError):
            get_topology("5D-imaginary")

    def test_paper_topologies_count_and_order(self):
        topos = paper_topologies()
        assert len(topos) == 6
        assert topos[0].name == "2D-SW_SW"
        assert topos[-1].name == "4D-Ring_FC_Ring_SW"

    @pytest.mark.parametrize(
        "name, shape, aggr_gbps",
        [
            ("2D-SW_SW", (16, 64), (1200, 800)),
            ("3D-SW_SW_SW_homo", (16, 8, 8), (800, 800, 800)),
            ("3D-SW_SW_SW_hetero", (16, 8, 8), (1600, 800, 400)),
            ("3D-FC_Ring_SW", (8, 16, 8), (1400, 800, 400)),
            ("4D-Ring_SW_SW_SW", (4, 4, 8, 8), (2000, 1600, 800, 400)),
            ("4D-Ring_FC_Ring_SW", (4, 8, 4, 8), (3000, 1400, 1200, 800)),
        ],
    )
    def test_table2_rows(self, name, shape, aggr_gbps):
        topo = get_topology(name)
        assert topo.shape == shape
        for dim, expected in zip(topo.dims, aggr_gbps):
            assert dim.bandwidth_gbps == pytest.approx(expected)

    def test_current_2d_bw_gap(self):
        topo = get_topology("current-2D")
        assert topo.dims[0].bandwidth_gbps == pytest.approx(1200)
        assert topo.dims[1].bandwidth_gbps == pytest.approx(100)

    def test_last_dim_always_single_nic(self):
        for name in preset_names():
            topo = get_topology(name)
            assert topo.dims[-1].links_per_npu == 1

    def test_latencies_match_table2(self):
        topo = get_topology("4D-Ring_SW_SW_SW")
        latencies_ns = [d.step_latency * 1e9 for d in topo.dims]
        assert latencies_ns == pytest.approx([20, 700, 700, 1700])


def _document(**dim):
    """A 2D inline topology document whose first dimension has ``dim``."""
    first = {"kind": "sw", "size": 4, "link_gbps": 100, **dim}
    return {"dims": [first, {"kind": "sw", "size": 4, "link_gbps": 100}]}


class TestDocumentTypes:
    """An inline topology's values must have their field's type: nothing
    is coerced, so a malformed value fails at load, naming its key."""

    def test_fractional_size_rejected(self):
        # Coercing with int() would simulate 8 NPUs while the spec says 8.7.
        with pytest.raises(TopologyError, match=r"dims\[0\]\.size: expected int"):
            topology_from_dict(_document(size=8.7))

    def test_string_size_is_a_spec_error(self):
        # Coercing with int() would escape run --check as a bare ValueError.
        with pytest.raises(TopologyError, match=r"dims\[0\]\.size: expected int"):
            topology_from_dict(_document(size="abc"))
        with pytest.raises(SpecError, match=r"topology: dims\[0\]\.size"):
            api.CollectiveScenario(topology=_document(size="abc"))

    def test_unknown_kind_names_its_field(self):
        with pytest.raises(
            TopologyError, match=r"^dims\[0\]\.kind: unknown dimension kind 'bogus'"
        ):
            topology_from_dict(_document(kind="bogus"))
        with pytest.raises(SpecError, match=r"^topology: dims\[0\]\.kind: unknown"):
            api.CollectiveScenario(topology=_document(kind="bogus"))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(TopologyError, match="nmae"):
            topology_from_dict({**_document(), "nmae": "pod"})

    def test_misspelled_paper_unit_key_gets_its_hint(self):
        document = _document()
        first = document["dims"][0]
        first["link_gbs"] = first.pop("link_gbps")
        with pytest.raises(TopologyError, match="did you mean 'link_gbps'"):
            topology_from_dict(document)

    def test_dims_must_be_a_list(self):
        # Iterating a string would read each letter as a dimension.
        with pytest.raises(TopologyError, match="dims: expected a list, got str"):
            topology_from_dict({"dims": "ab"})

    def test_alias_keys_and_exact_round_trip(self):
        aliased = topology_from_dict(_document(latency_ns=700))
        native = topology_from_dict(
            _document(link_bw=aliased.dims[0].link_bw, step_latency=700e-9)
        )
        assert aliased.dims[0].link_bw == native.dims[0].link_bw
        assert aliased.dims[0].step_latency == pytest.approx(700e-9)
        for name in preset_names():
            topology = get_topology(name)
            assert topology_from_dict(topology_to_dict(topology)) == topology
