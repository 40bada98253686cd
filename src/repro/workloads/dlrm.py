"""DLRM workload builder (Naumov et al. [49], config per Rashidi et al. [54]).

DLRM is a hybrid-parallel recommendation model (paper Sec. 5.2):

* the dense MLPs (bottom + top) are **data-parallel** — their gradients
  All-Reduce across all NPUs;
* the embedding tables are **model-parallel** — sharded across NPUs — and
  exchange pooled embedding vectors through **All-to-All** collectives.

The All-to-All overlap structure follows Sec. 6.2 exactly: the forward
embedding exchange runs concurrently with the bottom-MLP forward pass and is
awaited just before the feature-interaction/top-MLP; the backward exchange
runs concurrently with the bottom-MLP backward pass and is awaited before
the local embedding update.

The exact configuration of [54] is proprietary and the paper does not
restate it, so the default is an industrial-scale stand-in (64 tables x 1M
rows x 256-dim embeddings, 4096-wide top MLP, the paper's per-NPU batch
512).  Only the per-NPU batch comes from the paper; the other sizes are
ours, and every dimension is keyword-tunable.
"""

from __future__ import annotations

from ..collectives.types import CollectiveType
from .base import Workload
from .layers import GRADIENT_BYTES, CommAttachment, Layer


def _mlp_layers(
    prefix: str,
    widths: list[int],
    batch: float,
    fwd_comm: dict[int, CommAttachment] | None = None,
    fwd_wait: dict[int, str] | None = None,
) -> list[Layer]:
    """Dense MLP: one Layer per linear, params = in x out (+ bias)."""
    fwd_comm = fwd_comm or {}
    fwd_wait = fwd_wait or {}
    layers = []
    for index, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        params = fan_in * fan_out + fan_out
        flops = 2.0 * batch * fan_in * fan_out
        layers.append(
            Layer(
                name=f"{prefix}{index + 1}",
                fwd_flops=flops,
                bwd_flops=2.0 * flops,
                param_bytes=params * GRADIENT_BYTES,
                fwd_mem_bytes=params * GRADIENT_BYTES
                + batch * (fan_in + fan_out) * GRADIENT_BYTES,
                bwd_mem_bytes=2.0
                * (
                    params * GRADIENT_BYTES
                    + batch * (fan_in + fan_out) * GRADIENT_BYTES
                ),
                fwd_comm=fwd_comm.get(index),
                fwd_wait_label=fwd_wait.get(index, ""),
            )
        )
    return layers


def dlrm(
    batch_per_npu: int = 512,
    num_tables: int = 64,
    emb_dim: int = 256,
    rows_per_table: int = 1_000_000,
    dense_features: int = 2048,
    bottom_widths: tuple[int, ...] = (2048, 1024, 512),
    top_widths: tuple[int, ...] = (4096, 4096, 4096, 1),
) -> Workload:
    """Build the DLRM workload (per-NPU batch 512 as in the paper)."""
    batch = float(batch_per_npu)

    # Pooled embedding vectors exchanged per NPU per direction.
    a2a_bytes = batch * num_tables * emb_dim * GRADIENT_BYTES
    # Per-NPU shard of the embedding tables (update traffic is memory-bound).
    table_bytes = num_tables * rows_per_table * emb_dim * GRADIENT_BYTES

    layers: list[Layer] = []

    # Embedding lookup: issues the forward All-to-All asynchronously; the
    # backward pass (reversed order) waits for the gradient All-to-All
    # before applying the local sparse update.
    layers.append(
        Layer(
            name="embedding",
            fwd_flops=0.0,
            bwd_flops=0.0,
            param_bytes=0.0,  # model-parallel: no data-parallel All-Reduce
            fwd_mem_bytes=2.0 * a2a_bytes,
            bwd_mem_bytes=4.0 * a2a_bytes,  # gradient read + sparse update
            fwd_comm=CommAttachment(
                CollectiveType.ALL_TO_ALL, a2a_bytes, blocking=False, label="emb_fwd"
            ),
            bwd_wait_label="emb_bwd",
        )
    )

    # Bottom MLP over the dense features (overlapped with the All-to-All).
    layers.extend(
        _mlp_layers("bottom_mlp", [dense_features, *bottom_widths, emb_dim], batch)
    )

    # Feature interaction: pairwise dots of (tables + 1) embedding-dim
    # vectors.  Its forward waits for the embedding exchange; its backward
    # issues the gradient All-to-All that flows back to the tables.
    features = num_tables + 1
    interaction_flops = 2.0 * batch * (features * (features - 1) / 2.0) * emb_dim
    interaction_out = int(features * (features - 1) / 2.0) + emb_dim
    layers.append(
        Layer(
            name="interaction",
            fwd_flops=interaction_flops,
            bwd_flops=2.0 * interaction_flops,
            param_bytes=0.0,
            fwd_mem_bytes=2.0 * a2a_bytes,
            bwd_mem_bytes=4.0 * a2a_bytes,
            fwd_wait_label="emb_fwd",
            bwd_comm=CommAttachment(
                CollectiveType.ALL_TO_ALL, a2a_bytes, blocking=False, label="emb_bwd"
            ),
        )
    )

    # Top MLP over the interaction features.
    layers.extend(_mlp_layers("top_mlp", [interaction_out, *top_widths], batch))

    workload = Workload(
        name="DLRM",
        layers=layers,
        batch_per_npu=batch_per_npu,
        mp_group_size=None,  # MLPs are data-parallel over all dims
        dp_style="allreduce",
        notes=(
            f"hybrid-parallel: DP MLPs + MP embeddings "
            f"({num_tables} tables x {rows_per_table} rows x {emb_dim}, "
            f"{table_bytes / 2 ** 30:.1f} GiB sharded); All-to-All "
            f"{a2a_bytes / 2 ** 20:.1f} MiB/NPU overlapped with bottom MLP"
        ),
    )
    return workload
