"""Differential tests: the vector backend against the scalar reference.

Every construct the vector backend claims to handle is exercised on random
ragged batches under both backends and the results compared; constructs it
cannot handle must fall back to the scalar backend and still be correct.
"""

import numpy as np
import pytest

from repro.core.codegen_vector import VectorBackend, can_vectorize
from repro.core.dims import Dim
from repro.core.extents import ConstExtent, VarExtent
from repro.core.executor import Executor
from repro.core.ir import LoopVar, exp, maximum, relu, sqrt
from repro.core.lowering import lower_schedule
from repro.core.operator import (
    compute,
    input_tensor,
    max_reduce,
    reduce_axis,
    sum_reduce,
)
from repro.core.ragged_tensor import RaggedTensor
from repro.core.schedule import Schedule


LENGTHS = np.array([5, 2, 3, 7])


def ragged_layout(lengths, *inner):
    batch, seq = Dim("batch"), Dim("seq")
    dims = [batch, seq] + [Dim(f"c{i}") for i in range(len(inner))]
    extents = [ConstExtent(len(lengths)), VarExtent(batch, lengths)] + [
        ConstExtent(s) for s in inner
    ]
    from repro.core.storage import RaggedLayout

    return RaggedLayout(dims, extents)


def run_both(op, inputs, input_layouts=None, schedule_fn=None):
    """Compile and run under both backends; return (scalar, vector) outputs."""
    outs = {}
    for backend in ("scalar", "vector"):
        schedule = Schedule(op)
        if schedule_fn is not None:
            schedule_fn(schedule)
        executor = Executor(backend=backend)
        compiled = executor.compile(schedule, input_layouts=input_layouts)
        out, _ = executor.run(compiled, inputs)
        outs[backend] = (out, compiled)
    return outs


def assert_backends_match(outs, expect_vectorized=True):
    scalar_out, scalar_compiled = outs["scalar"]
    vector_out, vector_compiled = outs["vector"]
    assert scalar_compiled.backend_name == "scalar"
    if expect_vectorized:
        assert vector_compiled.backend_name == "vector"
    else:
        assert vector_compiled.backend_name == "scalar"
    assert np.allclose(scalar_out.data, vector_out.data, rtol=1e-4, atol=1e-5)


class TestVectorizedConstructs:
    def test_elementwise_ragged(self):
        batch, seq = Dim("batch"), Dim("seq")
        A = input_tensor("A", [batch, seq],
                         [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)])
        op = compute("B", [batch, seq],
                     [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)],
                     lambda o, i: 2.0 * A[o, i] + 1.0)
        data = RaggedTensor.random(ragged_layout(LENGTHS), seed=1)
        assert_backends_match(run_both(op, {"A": data}))

    def test_intrinsics_and_minmax(self):
        batch, seq = Dim("batch"), Dim("seq")
        A = input_tensor("A", [batch, seq],
                         [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)])
        op = compute("B", [batch, seq],
                     [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)],
                     lambda o, i: exp(A[o, i]) + relu(A[o, i] - 0.5)
                     + sqrt(maximum(A[o, i], 0.1)))
        data = RaggedTensor.random(ragged_layout(LENGTHS), seed=2)
        assert_backends_match(run_both(op, {"A": data}))

    def test_loop_var_as_value(self):
        batch, seq = Dim("batch"), Dim("seq")
        A = input_tensor("A", [batch, seq],
                         [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)])
        op = compute("B", [batch, seq],
                     [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)],
                     lambda o, i: A[o, i] * i + o)
        data = RaggedTensor.random(ragged_layout(LENGTHS), seed=3)
        assert_backends_match(run_both(op, {"A": data}))

    def test_ragged_matmul_einsum(self):
        batch, seq, j = Dim("batch"), Dim("seq"), Dim("j")
        A = input_tensor("A", [batch, seq, Dim("h")],
                         [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS),
                          ConstExtent(6)])
        W = input_tensor("W", [Dim("ki"), j], [ConstExtent(6), ConstExtent(5)])
        k = reduce_axis(6, "k")
        op = compute("C", [batch, seq, j],
                     [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS),
                      ConstExtent(5)],
                     lambda b, i, jj: sum_reduce(
                         A[b, i, LoopVar(k.dim)] * W[LoopVar(k.dim), jj], k))
        ta = RaggedTensor.random(ragged_layout(LENGTHS, 6), seed=4)
        w = np.random.default_rng(5).standard_normal((6, 5)).astype(np.float32)
        outs = run_both(op, {"A": ta, "W": w})
        assert "np.einsum" in outs["vector"][1].source
        assert_backends_match(outs)

    def test_variable_reduction_bound(self):
        row, col = Dim("row"), Dim("col")
        n = 8
        L = input_tensor("L", [row, Dim("rk")], [ConstExtent(n), ConstExtent(n)])
        B = input_tensor("Bm", [Dim("rk2"), col], [ConstExtent(n), ConstExtent(n)])
        k = reduce_axis(VarExtent(row, np.arange(1, n + 1)), "k")
        op = compute("T", [row, col], [ConstExtent(n), ConstExtent(n)],
                     lambda r, c: sum_reduce(
                         L[r, LoopVar(k.dim)] * B[LoopVar(k.dim), c], k))
        rng = np.random.default_rng(6)
        lower = np.tril(rng.standard_normal((n, n))).astype(np.float32)
        dense = rng.standard_normal((n, n)).astype(np.float32)
        outs = run_both(op, {"L": lower, "Bm": dense})
        assert_backends_match(outs)
        ref = lower @ dense
        assert np.allclose(outs["vector"][0].to_dense(), ref, atol=1e-4)

    def test_max_reduce_broadcast_path(self):
        batch, seq = Dim("batch"), Dim("seq")
        A = input_tensor("A", [batch, seq],
                         [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)])
        k = reduce_axis(VarExtent(batch, LENGTHS), "k")
        op = compute("M", [batch, seq],
                     [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)],
                     lambda b, i: A[b, i] - max_reduce(
                         A[b, LoopVar(k.dim)], k))
        data = RaggedTensor.random(ragged_layout(LENGTHS), seed=7)
        assert_backends_match(run_both(op, {"A": data}))

    def test_reduction_axis_unused_in_body(self):
        """A reduce axis the body never indexes multiplies by its trip count."""
        batch, seq = Dim("batch"), Dim("seq")
        A = input_tensor("A", [batch, seq],
                         [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)])
        k = reduce_axis(4, "k")
        op = compute("S", [batch, seq],
                     [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)],
                     lambda b, i: sum_reduce(A[b, i], k))
        data = RaggedTensor.random(ragged_layout(LENGTHS), seed=8)
        assert_backends_match(run_both(op, {"A": data}))

    def test_padded_loop_and_storage(self):
        batch, seq = Dim("batch"), Dim("seq")
        A = input_tensor("A", [batch, seq],
                         [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)])
        op = compute("B", [batch, seq],
                     [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)],
                     lambda o, i: 3.0 * A[o, i])

        def pad(schedule):
            schedule.pad_loop(seq_dim(schedule), 2)
            schedule.pad_dimension(seq_dim(schedule), 2)
            schedule.pad_input_dimension("A", seq_dim(schedule), 2)

        def seq_dim(schedule):
            return schedule.operator.dims[1]

        from repro.core.storage import RaggedLayout

        padded_layout = RaggedLayout(
            [batch, seq],
            [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)],
            storage_padding={seq: 2})
        data = RaggedTensor.random(padded_layout, seed=9)
        assert_backends_match(run_both(op, {"A": data}, schedule_fn=pad))


def _elementwise_op(lengths=LENGTHS, seed=1):
    batch, seq = Dim("batch"), Dim("seq")
    A = input_tensor("A", [batch, seq],
                     [ConstExtent(len(lengths)), VarExtent(batch, lengths)])
    op = compute("B", [batch, seq],
                 [ConstExtent(len(lengths)), VarExtent(batch, lengths)],
                 lambda o, i: 2.0 * A[o, i])
    data = RaggedTensor.random(ragged_layout(lengths), seed=seed)
    return op, data


class TestGuardedSplitVectorized:
    """Split vloops (guarded and padded) collapse back to the original
    iteration domain; the guard becomes a trailing slice."""

    @pytest.mark.parametrize("factor", [2, 3, 4, 8])
    def test_guarded_split_elementwise(self, factor):
        op, data = _elementwise_op()
        outs = run_both(op, {"A": data},
                        schedule_fn=lambda s: s.split(s.operator.dims[1],
                                                      factor))
        assert_backends_match(outs)
        assert "if " not in outs["vector"][1].source

    def test_guarded_split_with_reduction(self):
        batch, seq, j = Dim("batch"), Dim("seq"), Dim("j")
        A = input_tensor("A", [batch, seq, Dim("h")],
                         [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS),
                          ConstExtent(6)])
        W = input_tensor("W", [Dim("ki"), j], [ConstExtent(6), ConstExtent(5)])
        k = reduce_axis(6, "k")
        op = compute("C", [batch, seq, j],
                     [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS),
                      ConstExtent(5)],
                     lambda b, i, jj: sum_reduce(
                         A[b, i, LoopVar(k.dim)] * W[LoopVar(k.dim), jj], k))
        ta = RaggedTensor.random(ragged_layout(LENGTHS, 6), seed=4)
        w = np.random.default_rng(5).standard_normal((6, 5)).astype(np.float32)
        outs = run_both(op, {"A": ta, "W": w},
                        schedule_fn=lambda s: s.split(s.operator.dims[1], 4))
        assert "np.einsum" in outs["vector"][1].source
        assert_backends_match(outs)

    def test_padded_split_without_guard(self):
        """pad_loop to the split factor elides the guard; the collapsed
        bound is tiles * factor (the padded domain)."""
        op, data = _elementwise_op()

        def pad_and_split(schedule):
            seq = schedule.operator.dims[1]
            schedule.pad_loop(seq, 4)
            schedule.pad_dimension(seq, 4)
            schedule.pad_input_dimension("A", seq, 4)
            schedule.split(seq, 4)

        from repro.core.storage import RaggedLayout

        batch, seq = op.dims
        padded_layout = RaggedLayout(
            [batch, seq],
            [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)],
            storage_padding={seq: 4})
        data = RaggedTensor.random(padded_layout, seed=9)
        outs = run_both(op, {"A": data}, schedule_fn=pad_and_split)
        assert_backends_match(outs)


class TestFusedLoopsVectorized:
    """A fused governing vloop executes as one flat gather (no Python loop)."""

    def test_fused_loops_vectorize(self):
        op, data = _elementwise_op()
        outs = run_both(op, {"A": data},
                        schedule_fn=lambda s: s.fuse_loops(*s.operator.dims))
        assert_backends_match(outs)
        source = outs["vector"][1].source
        assert "_ffo" in source and "_ffi" in source
        assert source.count("for _") == 0

    def test_fused_loops_with_inner_const_dim(self):
        batch, seq, h = Dim("batch"), Dim("seq"), Dim("h")
        A = input_tensor("A", [batch, seq, h],
                         [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS),
                          ConstExtent(5)])
        op = compute("B", [batch, seq, h],
                     [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS),
                      ConstExtent(5)],
                     lambda b, i, c: relu(A[b, i, c]) + 1.0)
        data = RaggedTensor.random(ragged_layout(LENGTHS, 5), seed=6)
        outs = run_both(
            op, {"A": data},
            schedule_fn=lambda s: s.fuse_loops(*s.operator.dims[:2]))
        assert_backends_match(outs)

    def test_fused_dims_flat_store(self):
        op, data = _elementwise_op()

        def fuse_all(schedule):
            b, s = schedule.operator.dims
            schedule.fuse_loops(b, s)
            schedule.fuse_dimensions(b, s)

        outs = run_both(op, {"A": data}, schedule_fn=fuse_all)
        assert_backends_match(outs)

    def test_fused_with_loop_vars_as_values(self):
        op_dims = Dim("batch"), Dim("seq")
        batch, seq = op_dims
        A = input_tensor("A", [batch, seq],
                         [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)])
        op = compute("B", [batch, seq],
                     [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)],
                     lambda o, i: A[o, i] * i + o)
        data = RaggedTensor.random(ragged_layout(LENGTHS), seed=3)
        outs = run_both(op, {"A": data},
                        schedule_fn=lambda s: s.fuse_loops(batch, seq))
        assert_backends_match(outs)

    def test_dense_tensor_mixed_fused_and_plain_accesses(self):
        """A dense tensor read both with and without fused-dim indices needs
        the reshaped view *and* the flat gather (regression: the reshape was
        suppressed for the whole tensor, NameError at run time)."""
        batch, seq = Dim("batch"), Dim("seq")
        A = input_tensor("A", [batch, seq],
                         [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)])
        W = input_tensor("W", [Dim("wr"), Dim("wc")],
                         [ConstExtent(len(LENGTHS)), ConstExtent(2)])
        op = compute("B", [batch, seq],
                     [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)],
                     lambda o, i: A[o, i] * W[o, 0] + W[0, 1])
        data = RaggedTensor.random(ragged_layout(LENGTHS), seed=17)
        w = np.random.default_rng(18).standard_normal(
            (len(LENGTHS), 2)).astype(np.float32)
        outs = run_both(op, {"A": data, "W": w},
                        schedule_fn=lambda s: s.fuse_loops(batch, seq))
        assert_backends_match(outs)

    def test_variable_reduction_under_fusion_falls_back(self):
        batch, seq = Dim("batch"), Dim("seq")
        A = input_tensor("A", [batch, seq],
                         [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)])
        k = reduce_axis(VarExtent(batch, LENGTHS), "k")
        op = compute("S", [batch, seq],
                     [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)],
                     lambda b, i: sum_reduce(A[b, LoopVar(k.dim)], k))
        data = RaggedTensor.random(ragged_layout(LENGTHS), seed=8)
        outs = run_both(op, {"A": data},
                        schedule_fn=lambda s: s.fuse_loops(batch, seq))
        assert_backends_match(outs, expect_vectorized=False)

    @pytest.mark.parametrize("lens", [[2, 0], [5, 2, 3], [1, 3]])
    def test_fused_flop_estimate_matches_unfused(self, lens):
        """Fusion is a pure scheduling decision: estimate_flops must agree
        with the unfused nest even when the fused extent coincides with the
        batch size (regression: per-batch bound tables were consumed as
        per-fused-iteration bounds)."""
        from repro.core.executor import estimate_flops

        lens = np.asarray(lens)
        batch, seq = Dim("batch"), Dim("seq")
        A = input_tensor("A", [batch, seq],
                         [ConstExtent(len(lens)), VarExtent(batch, lens)])
        k = reduce_axis(VarExtent(batch, lens), "k")
        op = compute("S", [batch, seq],
                     [ConstExtent(len(lens)), VarExtent(batch, lens)],
                     lambda b, i: sum_reduce(A[b, LoopVar(k.dim)], k))
        plain = estimate_flops(lower_schedule(Schedule(op)))
        sch = Schedule(op)
        sch.fuse_loops(batch, seq)
        fused = estimate_flops(lower_schedule(sch))
        assert fused == plain


class TestThreadRemapVectorized:
    def test_thread_remap_vectorizes(self):
        """Remaps permute execution order only; bucketed stores are
        disjoint, so the vector backend runs the remapped loop directly."""
        op, data = _elementwise_op()
        outs = run_both(op, {"A": data},
                        schedule_fn=lambda s: s.thread_remap(
                            s.operator.dims[0], "sort_desc"))
        assert_backends_match(outs)
        assert "remap" in outs["vector"][1].source


class TestBucketing:
    def test_duplicate_lengths_share_buckets(self):
        lens = np.array([4, 2, 4, 2, 4])
        op, data = _elementwise_op(lens, seed=12)
        compiled = Executor(backend="vector").compile(Schedule(op))
        assert compiled.backend_name == "vector"
        buckets = compiled.generated.fn.__globals__["_BUCKETS"]
        assert len(buckets) == 2  # one per distinct length
        assert sorted(int(i) for b in buckets for i in b) == list(range(5))

    def test_uniform_lengths_single_bucket(self):
        lens = np.array([3, 3, 3, 3])
        op, data = _elementwise_op(lens, seed=13)
        executor = Executor(backend="vector")
        compiled = executor.compile(Schedule(op))
        buckets = compiled.generated.fn.__globals__["_BUCKETS"]
        assert len(buckets) == 1
        out, _ = executor.run(compiled, {"A": data})
        assert np.allclose(out.data, 2.0 * data.data, atol=1e-5)

    def test_bucketed_matmul_matches_scalar(self):
        lens = np.array([5, 3, 5, 3, 5, 3])
        batch, seq, j = Dim("batch"), Dim("seq"), Dim("j")
        A = input_tensor("A", [batch, seq, Dim("h")],
                         [ConstExtent(len(lens)), VarExtent(batch, lens),
                          ConstExtent(4)])
        W = input_tensor("W", [Dim("ki"), j], [ConstExtent(4), ConstExtent(3)])
        k = reduce_axis(4, "k")
        op = compute("C", [batch, seq, j],
                     [ConstExtent(len(lens)), VarExtent(batch, lens),
                      ConstExtent(3)],
                     lambda b, i, jj: sum_reduce(
                         A[b, i, LoopVar(k.dim)] * W[LoopVar(k.dim), jj], k))
        ta = RaggedTensor.random(ragged_layout(lens, 4), seed=14)
        w = np.random.default_rng(15).standard_normal((4, 3)).astype(np.float32)
        outs = run_both(op, {"A": ta, "W": w})
        assert_backends_match(outs)
        buckets = outs["vector"][1].generated.fn.__globals__["_BUCKETS"]
        assert len(buckets) == 2


class TestTriangularMaskAccess:
    def test_dense_mask_indexed_by_two_inner_loops(self):
        """The masked-SDPA mask-add pattern: a dense (max_len, max_len)
        tensor indexed by two table-bound inner loops vectorizes."""
        lens = LENGTHS
        max_len = int(lens.max())
        batch, qi, kj = Dim("batch"), Dim("qi"), Dim("kj")
        S = input_tensor("S", [batch, Dim("si"), Dim("sj")],
                         [ConstExtent(len(lens)), VarExtent(batch, lens),
                          VarExtent(batch, lens)])
        M = input_tensor("M", [Dim("mi"), Dim("mj")],
                         [ConstExtent(max_len), ConstExtent(max_len)])
        op = compute("SM", [batch, qi, kj],
                     [ConstExtent(len(lens)), VarExtent(batch, lens),
                      VarExtent(batch, lens)],
                     lambda b, i, jj: S[b, i, jj] + M[i, jj])
        from repro.core.storage import RaggedLayout

        s_layout = RaggedLayout(
            [batch, Dim("r"), Dim("c")],
            [ConstExtent(len(lens)), VarExtent(batch, lens),
             VarExtent(batch, lens)])
        s_data = RaggedTensor.random(s_layout, seed=21)
        mask = np.triu(np.full((max_len, max_len), -1.0, dtype=np.float32), 1)
        outs = run_both(op, {"S": s_data, "M": mask})
        assert_backends_match(outs)


class TestFallback:
    def _elementwise(self):
        return _elementwise_op()

    def test_remap_on_variable_inner_loop_falls_back(self):
        """A remap permutation can outrun a per-instance bound; the scalar
        backend keeps those semantics."""
        op, data = self._elementwise()
        schedule = Schedule(op)
        schedule.thread_remap(op.dims[1], "identity")
        lowered = lower_schedule(schedule)
        assert not can_vectorize(lowered)

    def test_loop_padding_without_storage_padding_falls_back(self):
        """pad_loop without pad_dimension makes the loop bound exceed the
        storage extent; the vector backend must fall back, not crash.

        (Lengths chosen so the scalar backend's out-of-slice offsets still
        land inside the flat buffer -- with other lengths even the scalar
        reference IndexErrors, which is a schedule-validation gap outside
        this PR's scope.)
        """
        lens = np.array([3, 1, 4])
        batch, seq = Dim("batch"), Dim("seq")
        A = input_tensor("A", [batch, seq],
                         [ConstExtent(len(lens)), VarExtent(batch, lens)])
        op = compute("B", [batch, seq],
                     [ConstExtent(len(lens)), VarExtent(batch, lens)],
                     lambda o, i: 2.0 * A[o, i])
        data = RaggedTensor.random(ragged_layout(lens), seed=1)

        def pad_loop_only(schedule):
            schedule.pad_loop(schedule.operator.dims[1], 2)

        outs = run_both(op, {"A": data}, schedule_fn=pad_loop_only)
        assert_backends_match(outs, expect_vectorized=False)

    def test_diagonal_access_falls_back(self):
        batch, i = Dim("batch"), Dim("i")
        A = input_tensor("A", [batch, Dim("r"), Dim("c")],
                         [ConstExtent(3), ConstExtent(4), ConstExtent(4)])
        op = compute("D", [batch, i], [ConstExtent(3), ConstExtent(4)],
                     lambda b, ii: A[b, ii, ii] + 0.0)
        data = np.random.default_rng(11).standard_normal(
            (3, 4, 4)).astype(np.float32)
        outs = run_both(op, {"A": data})
        assert_backends_match(outs, expect_vectorized=False)

    def test_fallback_counters_and_reasons(self):
        batch, i = Dim("batch"), Dim("i")
        A = input_tensor("A", [batch, Dim("r"), Dim("c")],
                         [ConstExtent(3), ConstExtent(4), ConstExtent(4)])
        diag = compute("D", [batch, i], [ConstExtent(3), ConstExtent(4)],
                       lambda b, ii: A[b, ii, ii] + 0.0)
        backend = VectorBackend()
        lowered = lower_schedule(Schedule(diag))
        assert not can_vectorize(lowered)
        generated = backend.generate(lowered)
        assert backend.fallback_count == 1
        assert generated.fallback_reason is not None
        assert "more than once" in generated.fallback_reason
        assert sum(backend.fallback_reasons.values()) == 1
        op, _ = _elementwise_op()
        plain = lower_schedule(Schedule(op))
        assert can_vectorize(plain)
        assert backend.generate(plain).fallback_reason is None
        assert backend.vectorized_count == 1

    def test_executor_codegen_stats(self):
        batch, i = Dim("batch"), Dim("i")
        A = input_tensor("A", [batch, Dim("r"), Dim("c")],
                         [ConstExtent(3), ConstExtent(4), ConstExtent(4)])
        diag = compute("D", [batch, i], [ConstExtent(3), ConstExtent(4)],
                       lambda b, ii: A[b, ii, ii] + 0.0)
        op, _ = _elementwise_op()
        executor = Executor(backend="vector")
        executor.compile(Schedule(op))
        executor.compile(Schedule(diag))
        stats = executor.codegen_stats()
        assert stats["vectorized"] == 1
        assert stats["fallbacks"] == 1
        assert stats["lower_count"] == 2
        assert any("more than once" in r for r in stats["fallback_reasons"])


class TestDenseOutput:
    @pytest.mark.parametrize("batch", [2, 16])
    def test_dense_output_vectorizes_regardless_of_batch(self, batch):
        """The dense-output store check must compare inner bounds against the
        inner axes, not the governing axis (regression: batch=2, seq=8
        wrongly fell back because 8 > 2)."""
        b, s = Dim("batch"), Dim("seq")
        A = input_tensor("A", [b, s], [ConstExtent(batch), ConstExtent(8)])
        op = compute("O", [b, s], [ConstExtent(batch), ConstExtent(8)],
                     lambda o, i: 2.0 * A[o, i])
        data = np.random.default_rng(0).standard_normal(
            (batch, 8)).astype(np.float32)
        executor = Executor(backend="vector")
        compiled = executor.compile(Schedule(op))
        assert compiled.backend_name == "vector"
        out, _ = executor.run(compiled, {"A": data})
        assert np.allclose(out.to_dense(), 2.0 * data, atol=1e-5)


class TestVectorSourceShape:
    def test_uses_gathers_not_scalar_loops(self):
        op, _ = _elementwise_op()
        compiled = Executor(backend="vector").compile(Schedule(op))
        assert compiled.backend_name == "vector"
        assert "_gather_slices" in compiled.source
        assert "_store_target" in compiled.source
        assert "_store_commit" in compiled.source
        # One Python loop (over instance buckets), everything else vectorized.
        assert compiled.source.count("for _") == 1

    def test_fused_source_has_no_python_loop(self):
        op, _ = _elementwise_op()
        sch = Schedule(op)
        sch.fuse_loops(*op.dims)
        compiled = Executor(backend="vector").compile(sch)
        assert compiled.backend_name == "vector"
        assert compiled.source.count("for _") == 0


class TestDestinationPassingStores:
    """Stores compute straight into their destination: the arena slab of
    a single-instance bucket, or a compact array scattered afterwards."""

    @staticmethod
    def _qkv(n, seed, heads=2, head_size=16):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal((heads, n, head_size)).astype(np.float32)
                for _ in range(3)]

    @pytest.mark.parametrize("masked", [False, True])
    def test_view_and_scatter_paths_byte_identical(self, masked):
        from repro.ops.attention import _qkt_schedule, sdpa_compiled

        x, y, z = self._qkv(9, 1), self._qkv(4, 2), self._qkv(9, 3)
        executor = Executor(backend="vector")
        # Alone, x is a single-instance bucket (view path); beside y and z
        # it shares the two-instance, non-adjacent bucket {0, 2} with z
        # (compact array + scatter path).
        alone = sdpa_compiled(*([t] for t in x), head_size=16,
                              executor=executor, masked=masked)[0]
        shared = sdpa_compiled(*zip(x, y, z), head_size=16,
                               executor=executor, masked=masked)[0]
        lens = np.array([9, 4, 9], dtype=np.int64)
        compiled = executor.compile(_qkt_schedule(lens.tobytes(), 2, 16, 0.25))
        assert compiled.backend_name == "vector"
        buckets = compiled.generated.fn.__globals__["_BUCKETS"]
        assert sorted(b.tolist() for b in buckets) == [[0, 2], [1]]
        assert executor.codegen_stats()["fallbacks"] == 0
        assert alone.tobytes() == shared.tobytes()

    @pytest.mark.parametrize("kernel", ["qkt", "attnv"])
    def test_single_instance_store_allocates_no_result(self, kernel):
        import tracemalloc

        from repro.ops.attention import (
            _attnv_schedule,
            _qkt_schedule,
            _qkv_layout,
        )
        from repro.ops.softmax import attention_scores_layout

        n, heads, head_size = 256, 8, 64
        lens = np.array([n], dtype=np.int64)
        if kernel == "qkt":
            schedule = _qkt_schedule(lens.tobytes(), heads, head_size, 0.125)
            layouts = {"Q": _qkv_layout(lens, heads, head_size),
                       "K": _qkv_layout(lens, heads, head_size)}
        else:
            schedule = _attnv_schedule(lens.tobytes(), heads, head_size)
            layouts = {"Attn": attention_scores_layout(lens, heads),
                       "V": _qkv_layout(lens, heads, head_size)}
        executor = Executor(backend="vector")
        compiled = executor.compile(schedule)
        assert compiled.backend_name == "vector"
        buffers = {name: RaggedTensor.random(layout, seed=i).data
                   for i, (name, layout) in enumerate(layouts.items())}
        out = RaggedTensor.zeros(compiled.output_layout).data
        buffers[compiled.lowered.output_plan.spec.name] = out
        aux = compiled.lowered.aux_arrays
        compiled.generated(buffers, aux)  # warm up
        tracemalloc.start()
        try:
            compiled.generated(buffers, aux)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes / 2
