"""Tests for the attention / softmax / layernorm / projection operators."""

import numpy as np
import pytest

from repro.core.ragged_tensor import ragged_from_lengths
from repro.models.config import TransformerConfig
from repro.ops import elementwise
from repro.ops.attention import (
    attnv_launch,
    masked_sdpa_workload,
    qkt_launch,
    random_qkv,
    sdpa_dense_reference,
    sdpa_slices,
    split_hfuse_workload,
)
from repro.ops.layernorm import layernorm_flat, layernorm_slices
from repro.ops.projection import (
    linear_packed,
    linear_slices,
    pack_tokens,
    projection_launch,
    unpack_tokens,
)
from repro.ops.softmax import masked_softmax_dense, softmax_slices
from repro.substrates.costmodel import CostModel
from repro.substrates.device import arm_cpu_64core, v100_gpu

SMALL_CONFIG = TransformerConfig(hidden_size=16, num_heads=2, head_size=8,
                                 ff_size=32, num_layers=2, loop_pad=4, bulk_pad=8,
                                 attention_tile=8)
LENGTHS = [7, 3, 5]


class TestElementwise:
    def test_scale_add_relu(self):
        x = ragged_from_lengths(LENGTHS, inner_shape=(4,), seed=0)
        y = ragged_from_lengths(LENGTHS, inner_shape=(4,), seed=1)
        assert np.allclose(elementwise.scale(x, 3.0).valid_slice(0),
                           3.0 * x.valid_slice(0))
        assert np.allclose(elementwise.add(x, y).valid_slice(1),
                           x.valid_slice(1) + y.valid_slice(1))
        assert (elementwise.relu(x).valid_slice(2) >= 0).all()

    def test_bias_and_gelu(self):
        x = ragged_from_lengths(LENGTHS, inner_shape=(4,), seed=0)
        bias = np.arange(4, dtype=np.float32)
        assert np.allclose(elementwise.bias_add(x, bias).valid_slice(0),
                           x.valid_slice(0) + bias)
        g = elementwise.gelu(x)
        assert g.valid_slice(0).shape == x.valid_slice(0).shape


class TestSoftmax:
    def test_rows_sum_to_one(self):
        scores = [np.random.default_rng(i).standard_normal((2, n, n)).astype(np.float32)
                  for i, n in enumerate(LENGTHS)]
        probs = softmax_slices(scores)
        for p in probs:
            assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-5)

    def test_masked_dense_matches_ragged(self):
        max_len = max(LENGTHS)
        scores_dense = np.random.default_rng(0).standard_normal(
            (len(LENGTHS), 2, max_len, max_len)).astype(np.float32)
        dense = masked_softmax_dense(scores_dense, LENGTHS)
        ragged = softmax_slices([scores_dense[b, :, :n, :n]
                                 for b, n in enumerate(LENGTHS)])
        for b, n in enumerate(LENGTHS):
            assert np.allclose(dense[b, :, :n, :n], ragged[b], atol=1e-5)
            assert np.allclose(dense[b, :, n:, :], 0.0)


class TestLayerNorm:
    def test_flat_matches_per_slice(self):
        hidden = [np.random.default_rng(i).standard_normal((n, 8)).astype(np.float32)
                  for i, n in enumerate(LENGTHS)]
        gamma = np.ones(8, dtype=np.float32)
        beta = np.zeros(8, dtype=np.float32)
        flat = layernorm_flat(pack_tokens(hidden), gamma, beta)
        per = layernorm_slices(hidden, gamma, beta)
        assert np.allclose(flat, pack_tokens(per), atol=1e-5)

    def test_normalised_stats(self):
        hidden = [np.random.default_rng(0).standard_normal((5, 16)).astype(np.float32)]
        out = layernorm_slices(hidden, np.ones(16, np.float32), np.zeros(16, np.float32))[0]
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-4)

    def test_program_node_bit_identical_to_flat(self):
        from repro.core.program import Program
        from repro.core.session import Session
        from repro.ops.layernorm import layernorm_node

        rng = np.random.default_rng(3)
        tokens = rng.standard_normal((37, 64)).astype(np.float32)
        gamma = rng.standard_normal(64).astype(np.float32)
        beta = rng.standard_normal(64).astype(np.float32)
        program = Program("ln")
        x = program.add_input("x", shape=tokens.shape)
        program.mark_output(layernorm_node(program, x, gamma, beta, out="y"))
        out = Session(backend="vector").run(program, {"x": tokens})["y"]
        assert np.array_equal(out, layernorm_flat(tokens, gamma, beta))


class TestProjection:
    def test_pack_unpack_roundtrip(self):
        hidden = [np.random.default_rng(i).standard_normal((n, 4)).astype(np.float32)
                  for i, n in enumerate(LENGTHS)]
        packed = pack_tokens(hidden)
        assert packed.shape == (sum(LENGTHS), 4)
        back = unpack_tokens(packed, LENGTHS)
        for a, b in zip(hidden, back):
            assert np.array_equal(a, b)

    def test_packed_linear_matches_per_slice(self):
        hidden = [np.random.default_rng(i).standard_normal((n, 4)).astype(np.float32)
                  for i, n in enumerate(LENGTHS)]
        w = np.random.default_rng(9).standard_normal((4, 6)).astype(np.float32)
        b = np.random.default_rng(10).standard_normal(6).astype(np.float32)
        packed = linear_packed(pack_tokens(hidden), w, b)
        per = linear_slices(hidden, w, b)
        assert np.allclose(packed, pack_tokens(per), atol=1e-5)

    def test_projection_launch_flops(self):
        ragged = projection_launch(LENGTHS, 16, 32, name="p", bulk_pad=1)
        padded = projection_launch(LENGTHS, 16, 32, name="p", fully_padded=True)
        assert ragged.flops == pytest.approx(2 * sum(LENGTHS) * 16 * 32)
        assert padded.flops == pytest.approx(2 * len(LENGTHS) * max(LENGTHS) * 16 * 32)

    def test_bulk_padding_adds_little(self):
        ragged = projection_launch(LENGTHS, 16, 32, name="p", bulk_pad=8)
        exact = projection_launch(LENGTHS, 16, 32, name="p", bulk_pad=1)
        assert ragged.flops >= exact.flops
        assert ragged.flops < 1.5 * exact.flops


class TestSDPA:
    def test_ragged_matches_dense_reference(self):
        qkv = random_qkv(LENGTHS, SMALL_CONFIG, seed=0)
        ragged = sdpa_slices(qkv["q"], qkv["k"], qkv["v"],
                             head_size=SMALL_CONFIG.head_size)
        max_len = max(LENGTHS)
        def to_dense(slices):
            out = np.zeros((len(LENGTHS), SMALL_CONFIG.num_heads, max_len,
                            SMALL_CONFIG.head_size), dtype=np.float32)
            for b, s in enumerate(slices):
                out[b, :, :s.shape[1]] = s
            return out
        dense = sdpa_dense_reference(to_dense(qkv["q"]), to_dense(qkv["k"]),
                                     to_dense(qkv["v"]), LENGTHS,
                                     head_size=SMALL_CONFIG.head_size)
        for b, n in enumerate(LENGTHS):
            assert np.allclose(dense[b, :, :n], ragged[b], atol=1e-4)

    def test_masked_matches_dense_reference(self):
        qkv = random_qkv(LENGTHS, SMALL_CONFIG, seed=1)
        ragged = sdpa_slices(qkv["q"], qkv["k"], qkv["v"],
                             head_size=SMALL_CONFIG.head_size, masked=True)
        max_len = max(LENGTHS)
        def to_dense(slices):
            out = np.zeros((len(LENGTHS), SMALL_CONFIG.num_heads, max_len,
                            SMALL_CONFIG.head_size), dtype=np.float32)
            for b, s in enumerate(slices):
                out[b, :, :s.shape[1]] = s
            return out
        dense = sdpa_dense_reference(to_dense(qkv["q"]), to_dense(qkv["k"]),
                                     to_dense(qkv["v"]), LENGTHS,
                                     head_size=SMALL_CONFIG.head_size, masked=True)
        for b, n in enumerate(LENGTHS):
            assert np.allclose(dense[b, :, :n], ragged[b], atol=1e-4)

    def test_first_row_attends_only_to_itself_when_masked(self):
        qkv = random_qkv([4], SMALL_CONFIG, seed=2)
        out = sdpa_slices(qkv["q"], qkv["k"], qkv["v"],
                          head_size=SMALL_CONFIG.head_size, masked=True)[0]
        assert np.allclose(out[:, 0, :], qkv["v"][0][:, 0, :], atol=1e-4)


class TestAttentionWorkloads:
    def test_qkt_flops_quadratic(self):
        short = qkt_launch([16, 16], SMALL_CONFIG)
        long = qkt_launch([32, 32], SMALL_CONFIG)
        assert long.flops == pytest.approx(4 * short.flops, rel=0.01)

    def test_padding_increases_flops(self):
        exact = attnv_launch([10, 20], SMALL_CONFIG)
        padded = attnv_launch([10, 20], SMALL_CONFIG, pad_to=20)
        assert padded.flops > exact.flops

    def test_masked_halves_flops(self):
        full = qkt_launch([32], SMALL_CONFIG)
        masked = qkt_launch([32], SMALL_CONFIG, masked=True)
        assert masked.flops == pytest.approx(full.flops / 2)

    def test_split_conserves_work(self):
        lengths = [70, 33, 65]
        nosplit = split_hfuse_workload(lengths, "AttnV", "NoSplit", SMALL_CONFIG)
        split = split_hfuse_workload(lengths, "AttnV", "Split", SMALL_CONFIG)
        assert split.total_flops() <= nosplit.total_flops()
        hfused = split_hfuse_workload(lengths, "AttnV", "Split-HFused", SMALL_CONFIG)
        assert hfused.total_flops() == pytest.approx(split.total_flops())
        assert all(k.hfused_with for k in hfused.kernels)

    def test_hfusion_restores_gpu_parallelism(self):
        model = CostModel(v100_gpu())
        # Lengths above the tile size so both a main and a tail piece exist,
        # and a small batch so the split pieces cannot fill the GPU alone.
        lengths = np.full(8, 100)
        split = model.latency_ms(split_hfuse_workload(lengths, "AttnV", "Split"))
        hfused = model.latency_ms(split_hfuse_workload(lengths, "AttnV", "Split-HFused"))
        assert hfused < split

    def test_hfusion_neutral_on_cpu(self):
        model = CostModel(arm_cpu_64core())
        lengths = np.full(64, 43)
        split = model.latency_ms(split_hfuse_workload(lengths, "AttnV", "Split"))
        hfused = model.latency_ms(split_hfuse_workload(lengths, "AttnV", "Split-HFused"))
        assert hfused == pytest.approx(split, rel=0.05)

    def test_masked_sdpa_strategies_ordered(self):
        """Figure 18: CoRa-NoPad < CoRa-Pad < PyTorch."""
        model = CostModel(v100_gpu())
        lengths = np.random.default_rng(0).integers(80, 512, size=64)
        nopad = model.latency_ms(masked_sdpa_workload(lengths, "cora-nopad"))
        pad = model.latency_ms(masked_sdpa_workload(lengths, "cora-pad"))
        torch = model.latency_ms(masked_sdpa_workload(lengths, "pytorch"))
        assert nopad < pad < torch

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            split_hfuse_workload([8], "AttnV", "Bogus", SMALL_CONFIG)
        with pytest.raises(ValueError):
            masked_sdpa_workload([8], "bogus")
