"""Workload builders: architecture math, parallelism plans, comm attachments."""

from __future__ import annotations

import pytest

from repro import api
from repro.collectives import CollectiveType
from repro.errors import SpecError, WorkloadError
from repro.numeric import ordered_sum
from repro.topology import get_topology, paper_topologies
from repro.workloads import (
    CommScope,
    ComputeModel,
    Layer,
    Workload,
    comm_compute_profile,
    dlrm,
    get_workload,
    gnmt,
    resnet152,
    split_leading_dims,
    transformer_1t,
    workload_from_dict,
    workload_names,
    workload_to_dict,
)


class TestCommComputeProfile:
    @pytest.mark.parametrize("name", workload_names())
    def test_compute_seconds_add_layer_times_in_order(self, name):
        """The total adds the layer times left to right on every Python
        (the builtin ``sum`` compensates round-off since 3.12)."""
        workload = get_workload(name)
        model = ComputeModel()
        times = [
            model.time_for(layer.fwd_flops, layer.fwd_mem_bytes)
            + model.time_for(layer.bwd_flops, layer.bwd_mem_bytes)
            for layer in workload.layers
        ]
        profile = comm_compute_profile(workload)
        assert profile.compute_seconds == ordered_sum(times)


class TestComputeModel:
    def test_compute_bound(self):
        model = ComputeModel(peak_flops=100.0, memory_bw=10.0, efficiency=1.0)
        assert model.time_for(200.0, 1.0) == pytest.approx(2.0)

    def test_memory_bound(self):
        model = ComputeModel(peak_flops=100.0, memory_bw=10.0, efficiency=1.0)
        assert model.time_for(1.0, 100.0) == pytest.approx(10.0)

    def test_efficiency_scales(self):
        fast = ComputeModel(efficiency=1.0)
        slow = ComputeModel(efficiency=0.5)
        assert slow.time_for(1e12) == pytest.approx(2 * fast.time_for(1e12))

    def test_is_memory_bound(self):
        model = ComputeModel(peak_flops=100.0, memory_bw=10.0)
        assert model.is_memory_bound(flops=1.0, bytes_accessed=1.0)
        assert not model.is_memory_bound(flops=1000.0, bytes_accessed=1.0)

    def test_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ComputeModel(efficiency=0.0)
        with pytest.raises(ConfigError):
            ComputeModel(peak_flops=-1.0)
        with pytest.raises(ConfigError):
            ComputeModel().time_for(-1.0)


class TestLayer:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            Layer(name="", fwd_flops=1.0, bwd_flops=1.0)
        with pytest.raises(WorkloadError):
            Layer(name="x", fwd_flops=-1.0, bwd_flops=1.0)
        with pytest.raises(WorkloadError):
            Layer(name="x", fwd_flops=1.0, bwd_flops=1.0, param_bytes=-2.0)

    def test_params_property(self):
        layer = Layer(name="x", fwd_flops=0.0, bwd_flops=0.0, param_bytes=20.0)
        assert layer.params == pytest.approx(10.0)

    def test_async_comm_needs_label(self):
        from repro.workloads import CommAttachment

        with pytest.raises(WorkloadError):
            CommAttachment(CollectiveType.ALL_TO_ALL, 1.0, blocking=False)


class TestWorkloadBase:
    def test_duplicate_layer_names_rejected(self):
        layer = Layer(name="a", fwd_flops=1.0, bwd_flops=1.0)
        with pytest.raises(WorkloadError):
            Workload(name="w", layers=[layer, layer], batch_per_npu=1)

    def test_empty_layers_rejected(self):
        with pytest.raises(WorkloadError):
            Workload(name="w", layers=[], batch_per_npu=1)

    def test_unknown_dp_style_rejected(self):
        layer = Layer(name="a", fwd_flops=1.0, bwd_flops=1.0)
        with pytest.raises(WorkloadError):
            Workload(name="w", layers=[layer], batch_per_npu=1, dp_style="zero9")

    def test_get_workload_aliases(self):
        assert get_workload("ResNet-152").name == "ResNet-152"
        assert get_workload("transformer-1t", num_layers=4).name == "Transformer-1T"
        with pytest.raises(WorkloadError):
            get_workload("BERT")

    def test_get_workload_rejects_arguments_the_factory_lacks(self):
        with pytest.raises(WorkloadError, match="layers"):
            get_workload("dlrm", layers=2)
        assert get_workload("flood", layers=2).name


class TestResNet152:
    def test_canonical_parameter_count(self):
        """ResNet-152 has 60.19M parameters; our conv math must land close."""
        workload = resnet152()
        assert workload.total_params == pytest.approx(60.2e6, rel=0.02)

    def test_block_structure(self):
        workload = resnet152()
        # conv1 + (3 + 8 + 36 + 3) bottlenecks + fc = 52 layers.
        assert len(workload.layers) == 52

    def test_flops_scale(self):
        """~11.5 GMACs per 224x224 image -> ~23 GFLOPs x batch fwd."""
        workload = resnet152(batch_per_npu=1)
        assert workload.total_fwd_flops == pytest.approx(23e9, rel=0.15)

    def test_bwd_is_twice_fwd(self):
        workload = resnet152()
        assert workload.total_bwd_flops == pytest.approx(
            2 * workload.total_fwd_flops
        )

    def test_batch_scales_flops_not_params(self):
        small, large = resnet152(batch_per_npu=1), resnet152(batch_per_npu=64)
        assert large.total_fwd_flops == pytest.approx(64 * small.total_fwd_flops)
        assert large.total_param_bytes == pytest.approx(small.total_param_bytes)

    def test_pure_data_parallel(self):
        plan = resnet152().plan(get_topology("3D-SW_SW_SW_homo"))
        assert plan.mp is None
        assert plan.dp is not None and plan.dp.dim_indices is None

    def test_no_mp_comm_attachments(self):
        assert all(
            layer.fwd_comm is None and layer.bwd_comm is None
            for layer in resnet152().layers
        )


class TestGNMT:
    def test_parameter_scale(self):
        """8+8 LSTM layers + embeddings + classifier: 200-300M params."""
        workload = gnmt()
        assert 150e6 < workload.total_params < 320e6

    def test_layer_count(self):
        # 2 embeddings + 8 enc + 8 dec + attention + classifier = 20.
        assert len(gnmt().layers) == 20

    def test_embedding_is_memory_bound_layer(self):
        workload = gnmt()
        embedding = workload.layers[0]
        assert embedding.fwd_flops == 0.0
        assert embedding.fwd_mem_bytes > 0

    def test_paper_batch_default(self):
        assert gnmt().batch_per_npu == 128


class TestDLRM:
    def test_a2a_attachments(self):
        workload = dlrm()
        embedding = workload.layers[0]
        assert embedding.fwd_comm is not None
        assert embedding.fwd_comm.ctype is CollectiveType.ALL_TO_ALL
        assert not embedding.fwd_comm.blocking
        assert embedding.bwd_wait_label == "emb_bwd"

    def test_interaction_waits_for_embeddings(self):
        workload = dlrm()
        interaction = next(l for l in workload.layers if l.name == "interaction")
        assert interaction.fwd_wait_label == "emb_fwd"
        assert interaction.bwd_comm is not None
        assert interaction.bwd_comm.label == "emb_bwd"

    def test_a2a_size(self):
        workload = dlrm(batch_per_npu=512, num_tables=64, emb_dim=256)
        expected = 512 * 64 * 256 * 2.0
        assert workload.layers[0].fwd_comm.size == pytest.approx(expected)

    def test_embeddings_not_data_parallel(self):
        """Model-parallel tables contribute no DP gradient volume."""
        workload = dlrm()
        assert workload.layers[0].param_bytes == 0.0

    def test_mlp_params_are_data_parallel(self):
        workload = dlrm()
        assert workload.total_param_bytes > 0


class TestTransformer1T:
    def test_global_parameter_count(self):
        """12 L h^2 with L=128, h=25600 is ~1.007e12 global parameters."""
        workload = transformer_1t()
        global_params = workload.total_params * 128  # undo MP sharding
        assert global_params == pytest.approx(1.02e12, rel=0.03)

    def test_every_sublayer_has_blocking_mp_ar(self):
        workload = transformer_1t(num_layers=4)
        blocks = [l for l in workload.layers if l.name.startswith("layer")]
        assert len(blocks) == 8  # attn + mlp per layer
        for layer in blocks:
            assert layer.fwd_comm is not None and layer.fwd_comm.blocking
            assert layer.bwd_comm is not None and layer.bwd_comm.blocking
            assert layer.fwd_comm.ctype is CollectiveType.ALL_REDUCE

    def test_zero2_dp_style(self):
        assert transformer_1t(num_layers=2).dp_style == "zero2"

    def test_mp_group_is_128(self):
        assert transformer_1t(num_layers=2).mp_group_size == 128

    def test_plan_dp_on_last_dim_for_all_paper_topologies(self):
        """Paper: Transformer-1T's DP comm uses only the last dimension."""
        workload = transformer_1t(num_layers=2)
        for topology in paper_topologies():
            plan = workload.plan(topology)
            assert plan.mp_degree(topology) == 128
            assert plan.dp.dim_indices == (topology.ndims - 1,)
            assert plan.dp_degree(topology) == topology.npus // 128


class TestSplitLeadingDims:
    def test_exact_dim_boundary(self):
        topo = get_topology("3D-SW_SW_SW_homo")  # 16 x 8 x 8
        mp, dp = split_leading_dims(topo, 128)
        assert mp.dim_indices == (0, 1) and mp.peer_counts == (16, 8)
        assert dp.dim_indices == (2,) and dp.peer_counts == (8,)

    def test_split_inside_dim(self):
        topo = get_topology("2D-SW_SW")  # 16 x 64
        mp, dp = split_leading_dims(topo, 128)
        assert mp.peer_counts == (16, 8)
        assert dp.dim_indices == (1,) and dp.peer_counts == (8,)

    def test_degrees_multiply_to_npus(self):
        for topology in paper_topologies():
            mp, dp = split_leading_dims(topology, 128)
            assert mp.degree(topology) * dp.degree(topology) == topology.npus

    def test_group_equal_to_platform_rejected(self):
        topo = get_topology("3D-SW_SW_SW_homo")
        with pytest.raises(WorkloadError):
            split_leading_dims(topo, 1024)

    def test_indivisible_group_rejected(self):
        topo = get_topology("3D-SW_SW_SW_homo")
        with pytest.raises(WorkloadError):
            split_leading_dims(topo, 100)

    def test_scope_describe(self):
        topo = get_topology("3D-SW_SW_SW_homo")
        scope = CommScope((0, 1), (16, 8))
        text = scope.describe(topo)
        assert "dim1:16" in text and "128 NPUs" in text


def _document(**workload):
    """An inline workload document: one layer with a blocking All-to-All."""
    comm = {"ctype": "alltoall", "size": 1e6, "blocking": True}
    layer = {"name": "l0", "fwd_flops": 1e9, "bwd_flops": 2e9, "fwd_comm": comm}
    return {"name": "w", "layers": [layer], "batch_per_npu": 2, **workload}


class TestDocumentTypes:
    """An inline workload's values must have their field's type: nothing
    is coerced, so a malformed value fails at load, naming its key."""

    def test_string_blocking_rejected(self):
        # Coercing with bool() would read the string "false" as True.
        document = _document()
        document["layers"][0]["fwd_comm"]["blocking"] = "false"
        with pytest.raises(
            WorkloadError, match=r"layers\[0\]\.fwd_comm\.blocking: expected bool"
        ):
            workload_from_dict(document)
        with pytest.raises(SpecError, match="blocking"):
            api.TrainingScenario(workload=document, topology="2D-SW_SW")

    def test_fractional_batch_rejected(self):
        # Coercing with int() would truncate a per-NPU batch of 2.5 to 2.
        with pytest.raises(WorkloadError, match="batch_per_npu: expected int"):
            workload_from_dict(_document(batch_per_npu=2.5))

    def test_exact_round_trip(self):
        assert workload_from_dict(_document()).layers[0].fwd_comm.blocking
        for name in ("dlrm", "gnmt", "transformer-1t"):
            workload = get_workload(name)
            assert workload_from_dict(workload_to_dict(workload)) == workload

    @pytest.mark.parametrize("name", workload_names())
    def test_every_registered_workload_round_trips(self, name):
        workload = get_workload(name)
        assert workload_from_dict(workload_to_dict(workload)) == workload

    def test_misspelled_layer_key_gets_a_hint(self):
        document = _document()
        layer = document["layers"][0]
        layer["fwd_flop"] = layer.pop("fwd_flops")
        with pytest.raises(
            WorkloadError, match=r"'fwd_flop' \(did you mean 'fwd_flops'\?\)"
        ):
            workload_from_dict(document)

    def test_omitted_keys_take_the_field_defaults(self):
        document = _document()
        del document["batch_per_npu"]
        del document["layers"][0]["fwd_flops"], document["layers"][0]["bwd_flops"]
        workload = workload_from_dict(document)
        assert workload.batch_per_npu == 1
        assert workload.layers[0].fwd_flops == workload.layers[0].bwd_flops == 0.0

    def test_name_and_attachment_keys_are_required(self):
        document = _document()
        del document["name"]
        with pytest.raises(WorkloadError, match=r"missing key\(s\): name"):
            workload_from_dict(document)
        document = _document()
        document["layers"][0]["fwd_comm"] = {}
        with pytest.raises(
            WorkloadError, match=r"fwd_comm: missing key\(s\): ctype, size"
        ):
            workload_from_dict(document)

    def test_collective_is_read_by_name(self):
        document = _document()
        document["layers"][0]["fwd_comm"]["ctype"] = "a2a"
        comm = workload_from_dict(document).layers[0].fwd_comm
        assert comm.ctype is CollectiveType.ALL_TO_ALL
        document["layers"][0]["fwd_comm"]["ctype"] = 5
        with pytest.raises(WorkloadError, match=r"fwd_comm\.ctype: expected"):
            workload_from_dict(document)
