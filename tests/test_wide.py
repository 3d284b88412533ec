"""Wide execution: program fusion and batch-dim sharding.

Covers the three layers of the wide-execution stack and their
differential guarantees:

* ``merge_programs`` -- namespacing, constant sharing by array identity,
  merge roots with fresh arena slabs, stagger vs arena size;
* ``plan_shards`` / ``shard_program`` / ``Session.run_sharded`` --
  contiguous token-balanced shards reassembled bit-identically;
* ``BatchScheduler(wide_batches=K)`` -- fused serving dispatch
  bit-identical to narrow dispatch, with per-batch fallback on failure.

Every comparison is ``np.array_equal`` -- no tolerances anywhere.  The
hypothesis differential at the bottom runs fused + sharded programs
against K independent runs over random ragged batches, masked and
unmasked, depths 1 and 2, with zero vector-backend fallbacks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SerialEngine, get_engine
from repro.core.planner import plan_program, plan_shards
from repro.core.program import ProgramError, merge_programs
from repro.core.session import Session, shard_program
from repro.models.config import TransformerConfig
from repro.models.transformer import (
    EncoderWeights,
    build_encoder_stack_program,
    encoder_stack_program,
    encoder_wide_program,
)
from repro.serving.faults import FaultInjector
from repro.serving.scheduler import BatchScheduler

# Small dims keep every matmul's inner dimension below the BLAS
# row-blocking threshold, so even *sliced* operands reduce in one block
# and sharded execution stays bit-exact (see test_program_runtime).
SMALL = TransformerConfig(hidden_size=16, num_heads=2, head_size=8, ff_size=32,
                          num_layers=2, loop_pad=4, bulk_pad=8,
                          attention_tile=8)


def _hidden(lengths, seed=0, config=SMALL):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((int(n), config.hidden_size))
            .astype(np.float32) for n in lengths]


def _packed(lengths, seed=0, config=SMALL):
    return np.concatenate(_hidden(lengths, seed=seed, config=config), axis=0)


@pytest.fixture(scope="module")
def weights():
    return EncoderWeights.random(SMALL, seed=3)


@pytest.fixture(scope="module")
def serial_session():
    session = Session(backend="vector", engine="serial")
    yield session
    session.close()


def _serial_reference(groups, weights, masked=False, n_layers=2,
                      session=None, seed=11):
    """Per-group encoder outputs through independent serial runs."""
    outs = []
    for i, lengths in enumerate(groups):
        program = encoder_stack_program(
            tuple(lengths), weights, SMALL, masked=masked,
            n_layers=n_layers, session=session)
        packed = _packed(lengths, seed=seed + i)
        outs.append(session.run(program, {"tokens": packed})["out_tokens"])
    return outs


# ---------------------------------------------------------------------------
# merge_programs
# ---------------------------------------------------------------------------


class TestMergePrograms:
    def test_namespacing_and_info(self, weights):
        groups = [(3, 5), (4,), (2, 2, 2)]
        parts = [build_encoder_stack_program(g, weights, SMALL, masked=False,
                                             n_layers=1) for g in groups]
        merged = merge_programs(parts)
        info = merged.merge_info
        assert info.num_parts == 3
        assert info.prefixes == ("R0.", "R1.", "R2.")
        for i in range(3):
            assert info.input_name(i, "tokens") == f"R{i}.tokens"
            assert info.output_name(i, "out_tokens") == f"R{i}.out_tokens"
            assert f"R{i}.tokens" in merged.values
            assert f"R{i}.out_tokens" in merged.outputs
        # parts stay disjoint: every node's inputs live in its own group
        assert len(merged.nodes) == sum(len(p.nodes) for p in parts)

    def test_constants_shared_by_array_identity(self, weights):
        parts = [build_encoder_stack_program((4,), weights, SMALL,
                                             n_layers=1) for _ in range(3)]
        merged = merge_programs(parts, share="constants")
        separate = merge_programs(parts, share=None)
        n_const = lambda p: sum(1 for v in p.values.values()
                                if v.array is not None)
        # all three parts reference the same weight arrays -> declared once
        assert n_const(merged) == n_const(parts[0])
        assert n_const(separate) == 3 * n_const(parts[0])
        assert merged.merge_info.shared_constants > 0

    def test_same_program_object_repeated(self, weights):
        part = build_encoder_stack_program((3, 4), weights, SMALL, n_layers=1)
        merged = merge_programs([part, part, part])
        assert merged.merge_info.num_parts == 3
        merged.validate()

    def test_merge_roots_give_planner_width(self, weights):
        k = 4
        parts = [build_encoder_stack_program((3,), weights, SMALL,
                                             n_layers=2) for _ in range(k)]
        merged = merge_programs(parts)
        plan = plan_program(merged)
        # every part's root is in merge_roots and gets a fresh slab
        assert len(merged.merge_roots) >= k
        for root in merged.merge_roots:
            slab = plan.slab_of[root]
            born = plan.liveness[root][0]
            assert all(plan.liveness[v][0] >= born
                       for v, s in plan.slab_of.items() if s == slab)

    def test_fused_arena_below_k_times_single(self, weights):
        k = 4
        parts = [build_encoder_stack_program((6, 5), weights, SMALL,
                                             n_layers=2) for _ in range(k)]
        single = plan_program(parts[0]).arena_bytes
        fused = plan_program(merge_programs(parts)).arena_bytes
        assert fused < k * single

    def test_stagger_trades_width_for_arena(self, weights):
        parts = [build_encoder_stack_program((4,), weights, SMALL,
                                             n_layers=1) for _ in range(4)]
        lockstep = plan_program(merge_programs(parts, stagger=1))
        concat = plan_program(
            merge_programs(parts, stagger=len(parts[0].nodes)))
        assert lockstep.arena_bytes >= concat.arena_bytes

    def test_validation_errors(self, weights):
        part = build_encoder_stack_program((3,), weights, SMALL, n_layers=1)
        with pytest.raises(ProgramError):
            merge_programs([])
        with pytest.raises(ProgramError):
            merge_programs([part], share="everything")
        with pytest.raises(ProgramError):
            merge_programs([part, part], stagger=0)

    def test_fused_bit_identical_to_serial_parts(self, weights,
                                                 serial_session):
        groups = [(3, 5), (4, 2), (6,)]
        refs = _serial_reference(groups, weights, masked=True,
                                 session=serial_session)
        wide = encoder_wide_program(groups, weights, SMALL, masked=True,
                                    n_layers=2, session=serial_session)
        info = wide.merge_info
        bound = {info.input_name(i, "tokens"): _packed(g, seed=11 + i)
                 for i, g in enumerate(groups)}
        outs = serial_session.run(wide, bound)
        for i, ref in enumerate(refs):
            assert np.array_equal(outs[info.output_name(i, "out_tokens")],
                                  ref)


# ---------------------------------------------------------------------------
# plan_shards
# ---------------------------------------------------------------------------


class TestPlanShards:
    def test_contiguous_and_complete(self):
        lengths = [5, 3, 7, 2, 4, 3, 6]
        shards = plan_shards(lengths, 3)
        assert shards[0].seq_start == 0
        assert shards[-1].seq_stop == len(lengths)
        assert shards[-1].token_stop == sum(lengths)
        for a, b in zip(shards, shards[1:]):
            assert a.seq_stop == b.seq_start
            assert a.token_stop == b.token_start
        for s in shards:
            assert s.lengths == tuple(lengths[s.seq_start:s.seq_stop])
            assert s.num_tokens == sum(s.lengths)

    def test_token_balanced(self):
        lengths = [10] * 8
        shards = plan_shards(lengths, 4)
        assert [s.num_tokens for s in shards] == [20, 20, 20, 20]

    def test_caps_at_num_sequences(self):
        shards = plan_shards([4, 4], 7)
        assert len(shards) == 2
        assert all(s.num_sequences == 1 for s in shards)

    def test_single_shard(self):
        (shard,) = plan_shards([3, 1, 2], 1)
        assert shard.lengths == (3, 1, 2)

    def test_errors(self):
        with pytest.raises(ProgramError):
            plan_shards([], 2)
        with pytest.raises(ProgramError):
            plan_shards([3], 0)


# ---------------------------------------------------------------------------
# shard_program / run_sharded
# ---------------------------------------------------------------------------


class TestSharding:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
    def test_unfused_bit_identical(self, weights, serial_session, n_shards):
        lengths = [5, 3, 7, 2, 4, 3, 6]
        program = encoder_stack_program(tuple(lengths), weights, SMALL,
                                        masked=True, n_layers=2,
                                        session=serial_session)
        ref = serial_session.run(
            program, {"tokens": _packed(lengths)})["out_tokens"]
        build = lambda ls: build_encoder_stack_program(
            ls, weights, SMALL, masked=True, n_layers=2)
        sharded = shard_program(build, lengths, n_shards)
        out = serial_session.run_sharded(
            sharded, {"tokens": _packed(lengths)})
        assert np.array_equal(out["out_tokens"], ref)

    def test_fused_shards_bit_identical(self, weights, serial_session):
        lengths = [5, 3, 7, 2, 4, 3, 6]
        program = encoder_stack_program(tuple(lengths), weights, SMALL,
                                        masked=True, n_layers=2,
                                        session=serial_session)
        ref = serial_session.run(
            program, {"tokens": _packed(lengths)})["out_tokens"]
        build = lambda ls: build_encoder_stack_program(
            ls, weights, SMALL, masked=True, n_layers=2)
        # weights shared across shards by array identity
        sharded = shard_program(build, lengths, 3, fused=True)
        assert sharded.fused.merge_info.num_parts == 3
        assert sharded.fused.merge_info.shared_constants > 0
        out = serial_session.run_sharded(sharded, {"tokens": _packed(lengths)})
        assert np.array_equal(out["out_tokens"], ref)

    def test_missing_input_rejected(self, weights, serial_session):
        build = lambda ls: build_encoder_stack_program(
            ls, weights, SMALL, n_layers=1)
        sharded = shard_program(build, [3, 4], 2)
        with pytest.raises(ProgramError):
            serial_session.run_sharded(sharded, {"nope": _packed([3, 4])})


# ---------------------------------------------------------------------------
# BatchScheduler wide dispatch
# ---------------------------------------------------------------------------


def _requests(n, seed=21, low=2, high=9):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((int(k), SMALL.hidden_size))
            .astype(np.float32)
            for k in rng.integers(low, high, size=n)]


class TestSchedulerWide:
    def _drain(self, session, reqs, **kwargs):
        scheduler = BatchScheduler(kwargs.pop("weights"), SMALL,
                                   session=session, masked=True, n_layers=2,
                                   max_batch_size=3, **kwargs)
        ids = scheduler.submit_many(reqs)
        results = scheduler.drain()
        scheduler.close()
        return [results[i] for i in ids], scheduler.stats()

    def test_wide_bit_identical_to_narrow(self, weights):
        reqs = _requests(12)
        ref_session = Session(backend="vector", engine="serial")
        narrow, _ = self._drain(ref_session, reqs, weights=weights)
        ref_session.close()
        wide_session = Session(backend="vector", engine="serial")
        wide, stats = self._drain(wide_session, reqs, weights=weights,
                                  wide_batches=4)
        wide_session.close()
        assert all(np.array_equal(a, b) for a, b in zip(narrow, wide))
        assert stats["wide_dispatches"] >= 1
        assert stats["wide_fallbacks"] == 0
        assert stats["max_width_achieved"] == 4
        assert stats["num_completed"] == len(reqs)

    def test_wide_overlap_drain_bit_identical(self, weights):
        reqs = _requests(8, seed=5)
        ref_session = Session(backend="vector", engine="serial")
        narrow, _ = self._drain(ref_session, reqs, weights=weights)
        ref_session.close()
        session = Session(backend="vector", engine="serial")
        wide, stats = self._drain(session, reqs, weights=weights,
                                  wide_batches=2, overlap_demux=True)
        session.close()
        assert all(np.array_equal(a, b) for a, b in zip(narrow, wide))
        assert stats["wide_dispatches"] >= 1
        assert stats["overlapped_batches"] == stats["num_batches"]

    def test_wide_failure_falls_back_per_batch(self, weights):
        reqs = _requests(6, seed=9)
        ref_session = Session(backend="vector", engine="serial")
        narrow, _ = self._drain(ref_session, reqs, weights=weights)
        ref_session.close()
        injector = FaultInjector()
        # fire exactly once, on the fused wide run
        injector.add("run", "raise", max_fires=1)
        session = Session(backend="vector", engine="serial",
                          fault_injector=injector)
        wide, stats = self._drain(session, reqs, weights=weights,
                                  wide_batches=2)
        session.close()
        # every request resolves exactly once, to the narrow answer
        assert all(np.array_equal(a, b) for a, b in zip(narrow, wide))
        assert stats["wide_fallbacks"] >= 1
        assert stats["num_completed"] == len(reqs)

    def test_wide_single_batch_stays_narrow(self, weights):
        reqs = _requests(3, seed=2)
        session = Session(backend="vector", engine="serial")
        out, stats = self._drain(session, reqs, weights=weights,
                                 wide_batches=4)
        session.close()
        # one batch only: nothing to fuse, narrow path, no fallback noise
        assert stats["wide_dispatches"] == 0
        assert stats["wide_fallbacks"] == 0
        assert all(isinstance(o, np.ndarray) for o in out)

    def test_wide_batches_validated(self, weights):
        with pytest.raises(ValueError):
            BatchScheduler(weights, SMALL, wide_batches=0)

    def test_replay_bit_identical_under_wide(self, weights):
        reqs = _requests(10, seed=13)
        session = Session(backend="vector", engine="serial")
        scheduler = BatchScheduler(weights, SMALL, session=session,
                                   masked=True, n_layers=2, max_batch_size=3,
                                   wide_batches=3, log_batches=True)
        ids = scheduler.submit_many(reqs)
        results = scheduler.drain()
        assert scheduler.replay_bit_identical(results)
        scheduler.close()
        session.close()


# ---------------------------------------------------------------------------
# The hypothesis differential (satellite test-coverage task)
# ---------------------------------------------------------------------------


lengths_strategy = st.lists(st.integers(min_value=1, max_value=9),
                            min_size=2, max_size=6)


class TestWideDifferential:
    @settings(max_examples=10, deadline=None)
    @given(lengths=lengths_strategy,
           masked=st.booleans(),
           depth=st.sampled_from([1, 2]),
           n_shards=st.integers(min_value=2, max_value=4),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_fusion_sharding_bit_identical(
            self, weights, serial_session, lengths, masked, depth, n_shards,
            seed):
        """Fused + sharded execution == K independent runs, bit for bit,
        with zero vector fallbacks."""
        rng = np.random.default_rng(seed)
        packed = np.concatenate(
            [rng.standard_normal((n, SMALL.hidden_size)).astype(np.float32)
             for n in lengths], axis=0)
        fallbacks_before = serial_session.stats()["codegen"]["fallbacks"]

        # reference: each sequence as its own independent serial run
        refs = []
        offset = 0
        for n in lengths:
            program = encoder_stack_program((n,), weights, SMALL,
                                            masked=masked, n_layers=depth,
                                            session=serial_session)
            refs.append(serial_session.run(
                program, {"tokens": packed[offset:offset + n]})["out_tokens"])
            offset += n
        ref = np.concatenate(refs, axis=0)

        # single-sequence shards, fused: the parts of the merged program
        # are exactly the per-request programs above, so equality is
        # structural, not numerical luck.
        build = lambda ls: build_encoder_stack_program(
            ls, weights, SMALL, masked=masked, n_layers=depth)
        sharded = shard_program(build, lengths, len(lengths), fused=True)
        out = serial_session.run_sharded(sharded, {"tokens": packed})
        assert np.array_equal(out["out_tokens"], ref)

        # coarser shards (sequences grouped), fused and unfused
        for fused in (False, True):
            coarse = shard_program(build, lengths, n_shards, fused=fused)
            out = serial_session.run_sharded(coarse, {"tokens": packed})
            assert np.array_equal(out["out_tokens"], ref)

        assert serial_session.stats()["codegen"]["fallbacks"] == \
            fallbacks_before


class TestGetEngine:
    def test_instances_pass_through(self):
        engine = SerialEngine()
        assert get_engine(engine) is engine
