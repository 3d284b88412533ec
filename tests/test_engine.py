"""The serial execution engine and in-place arena scheduling.

* engine unit tests (resolution, stats, error propagation);
* unit tests over the in-place allocator, including the regression that
  an element-wise node whose input has a later live reader is NOT
  planned in place;
* a hypothesis differential property: in-place plans stay bit-identical
  to double-buffered plans across random ragged batches, masked and
  unmasked, stack depths 1 / 2 / 4, with zero vector-backend fallbacks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SerialEngine, get_engine
from repro.core.executor import Executor
from repro.core.planner import plan_program
from repro.core.program import Program, ProgramError
from repro.core.session import Session
from repro.models.config import TransformerConfig
from repro.models.transformer import (
    EncoderWeights,
    build_encoder_program,
    run_encoder_stack_numeric,
)
from repro.ops.elementwise import add_node, relu_node
from repro.ops.projection import linear_node

SMALL = TransformerConfig(hidden_size=16, num_heads=2, head_size=8, ff_size=32,
                          num_layers=2, loop_pad=4, bulk_pad=8,
                          attention_tile=8)


def _hidden(lengths, seed=0, config=SMALL):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((int(n), config.hidden_size))
            .astype(np.float32) for n in lengths]


def _bit_identical(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Engine resolution and statistics
# ---------------------------------------------------------------------------


class TestEngineResolution:
    def test_names_resolve(self):
        assert isinstance(get_engine("serial"), SerialEngine)
        assert isinstance(get_engine("SERIAL"), SerialEngine)
        assert isinstance(get_engine(None), SerialEngine)

    def test_instance_passes_through(self):
        engine = SerialEngine()
        assert get_engine(engine) is engine

    def test_unknown_name_rejected(self):
        for name in ("warp-drive", "pipelined", "process"):
            with pytest.raises(ValueError):
                get_engine(name)
        with pytest.raises(TypeError):
            get_engine(42)

    def test_session_resolves_engine(self):
        assert Session(backend="vector").engine.name == "serial"
        session = Session(backend="vector", engine="serial")
        assert session.stats()["engine"]["engine"] == "serial"
        with pytest.raises(ValueError):
            Session(backend="vector", engine="pipelined")

    def test_stats_accumulate_and_reset(self):
        engine = SerialEngine()
        session = Session(backend="vector", engine=engine,
                          executor=Executor(backend="vector"))
        p = Program("p")
        x = p.add_input("x", shape=(4,))
        p.add_host("double", lambda out, a: np.multiply(a, 2.0, out=out),
                   [x], output_shapes={"y": (4,)})
        p.mark_output("y")
        session.run(p, {"x": np.ones(4, np.float32)})
        session.run(p, {"x": np.ones(4, np.float32)})
        assert engine.runs == 2
        assert engine.steps_dispatched == 2
        session.reset()
        assert engine.runs == 0 and engine.steps_dispatched == 0

    def test_host_error_propagates(self):
        p = Program("boom")
        x = p.add_input("x", shape=(4,))
        (a,) = p.add_host("ok", lambda out, v: np.copyto(out, v), [x],
                          output_shapes={"a": (4,)})

        def _explode(out, v):
            raise RuntimeError("kaboom")

        p.add_host("bad", _explode, [a], output_shapes={"b": (4,)})
        p.mark_output("b")
        session = Session(backend="vector",
                          executor=Executor(backend="vector"))
        with pytest.raises(RuntimeError, match="kaboom"):
            session.run(p, {"x": np.ones(4, np.float32)})


# ---------------------------------------------------------------------------
# Planner: in-place arena scheduling
# ---------------------------------------------------------------------------


class TestInplacePlanning:
    def test_default_plan_has_no_aliases(self):
        program = build_encoder_program([7, 3, 5],
                                        EncoderWeights.zeros(SMALL), SMALL)
        plan = plan_program(program)
        assert plan.inplace_of == {}
        assert not plan.inplace
        assert plan.summary()["inplace_values"] == 0

    def test_elementwise_aliases_dying_input(self):
        p = Program("ip")
        x = p.add_input("x", shape=(4, 8))
        a = linear_node(p, x, np.eye(8, dtype=np.float32), name="lin",
                        out="a")
        r = relu_node(p, a, name="relu", out="r")
        p.mark_output(r)
        plan = plan_program(p, inplace=True)
        assert plan.inplace_of == {"r": "a"}
        assert plan.slab_of["r"] == plan.slab_of["a"]
        assert plan.arena_bytes < plan_program(p).arena_bytes

    def test_live_sibling_reader_blocks_inplace(self):
        # Regression: an element-wise node whose input is consumed by
        # another, LATER reader must NOT be planned in place -- the write
        # would clobber bytes that reader has yet to consume.
        p = Program("blocked")
        x = p.add_input("x", shape=(4, 8))
        a = linear_node(p, x, np.eye(8, dtype=np.float32), name="lin",
                        out="a")
        r = relu_node(p, a, name="relu", out="r")
        mix = add_node(p, a, r, name="mix")  # reads `a` after relu does
        p.mark_output(mix)
        plan = plan_program(p, inplace=True)
        assert "r" not in plan.inplace_of
        assert plan.slab_of["r"] != plan.slab_of["a"]
        # `mix` itself is the last reader of both operands, so it aliases.
        assert plan.inplace_of == {"mix": "a"}

    def test_program_inputs_and_outputs_never_aliased(self):
        p = Program("guard")
        x = p.add_input("x", shape=(4, 8))
        r = relu_node(p, x, name="relu", out="r")  # input: not arena-backed
        (b,) = p.add_host("obs", lambda out, v: np.copyto(out, v), [r],
                          output_shapes={"b": (4, 8)})
        mix = add_node(p, r, b, name="mix")
        p.mark_output(r)  # r is a marked output: may not be overwritten
        p.mark_output(mix)
        plan = plan_program(p, inplace=True)
        assert "r" not in plan.inplace_of
        assert plan.inplace_of.get("mix") != "r"

    def test_elementwise_declaration_validated(self):
        p = Program("bad")
        x = p.add_input("x", shape=(4,))
        with pytest.raises(ProgramError):
            p.add_host("e", lambda out, v: None, [x],
                       output_shapes={"y": (4,)}, elementwise=("zzz",))
        with pytest.raises(ProgramError):
            p.add_host("f", lambda out, v: None, [x],
                       output_shapes={"y2": (8,)}, elementwise=(x,))
        with pytest.raises(ProgramError):
            p.add_host("g", lambda out, v: None, [x],
                       output_shapes={"y3": (4,)}, fills_output=False,
                       elementwise=(x,))

    def test_encoder_inplace_shrinks_arena(self):
        program = build_encoder_program([7, 3, 5],
                                        EncoderWeights.zeros(SMALL), SMALL)
        plain = plan_program(program)
        inplace = plan_program(program, inplace=True)
        assert inplace.inplace_values > 0
        assert inplace.arena_bytes < plain.arena_bytes
        assert inplace.inplace_shared_bytes > 0
        summary = inplace.summary()
        assert summary["inplace"] and summary["inplace_values"] > 0

    def test_inplace_arena_never_exceeds_double_buffered(self):
        # The planner packs both ways and keeps the aliasing only when
        # it does not lose, so the invariant holds for any shape.
        rng = np.random.default_rng(0)
        for _ in range(12):
            lengths = rng.integers(1, 24, size=int(rng.integers(1, 5)))
            program = build_encoder_program(
                [int(n) for n in lengths], EncoderWeights.zeros(SMALL),
                SMALL, masked=bool(rng.integers(2)))
            assert (plan_program(program, inplace=True).arena_bytes
                    <= plan_program(program).arena_bytes)

    def test_compiled_stats_report_node_kinds(self):
        program = build_encoder_program([5, 3], EncoderWeights.zeros(SMALL),
                                        SMALL, masked=False)
        session = Session(backend="vector",
                          executor=Executor(backend="vector"))
        stats = session.compile(program).stats()
        assert stats["node_kinds"]["kernel"] == len(program.kernel_nodes)
        assert stats["node_kinds"]["host"] == len(program.host_nodes)

    def test_memory_report_surfaces_inplace_numbers(self):
        from repro.analysis.memory import intermediate_memory_report

        report = intermediate_memory_report([7, 3, 5], SMALL, n_layers=2)
        assert report["arena_bytes_inplace"] <= report["arena_bytes"]
        assert report["inplace_values"] > 0
        assert 0.0 <= report["inplace_savings"] < 1.0
        assert report["peak_live_bytes"] <= report["arena_bytes"]

    def test_inplace_execution_matches_double_buffered(self):
        p = Program("numeric")
        x = p.add_input("x", shape=(4, 8))
        a = linear_node(p, x,
                        np.arange(64, dtype=np.float32).reshape(8, 8) / 8.0,
                        name="lin", out="a")
        r = relu_node(p, a, name="relu", out="r")
        mix = add_node(p, r, r, name="mix")
        p.mark_output(mix)
        rng = np.random.default_rng(3)
        inputs = {"x": rng.standard_normal((4, 8)).astype(np.float32)}
        ref = Session(backend="vector",
                      executor=Executor(backend="vector")).run(p, inputs)
        got = Session(backend="vector", inplace=True,
                      executor=Executor(backend="vector")).run(p, inputs)
        assert np.array_equal(ref["mix"], got["mix"])


# ---------------------------------------------------------------------------
# Differential property: in-place == double-buffered
# ---------------------------------------------------------------------------


_WEIGHTS = EncoderWeights.random(SMALL, seed=11)
_SERIAL = Session(backend="vector", executor=Executor(backend="vector"))
_INPLACE = Session(backend="vector", executor=Executor(backend="vector"),
                   inplace=True)


class TestEngineDifferential:
    @settings(max_examples=8, deadline=None)
    @given(lengths=st.lists(st.integers(min_value=1, max_value=12),
                            min_size=1, max_size=4),
           masked=st.booleans(),
           n_layers=st.sampled_from([1, 2, 4]))
    def test_inplace_bit_identical_to_double_buffered(self, lengths, masked,
                                                      n_layers):
        hidden = _hidden(lengths, seed=sum(lengths) + n_layers)
        ref = run_encoder_stack_numeric(hidden, _WEIGHTS, SMALL,
                                        masked=masked, n_layers=n_layers,
                                        session=_SERIAL)
        got = run_encoder_stack_numeric(hidden, _WEIGHTS, SMALL,
                                        masked=masked, n_layers=n_layers,
                                        session=_INPLACE)
        assert _bit_identical(ref.hidden, got.hidden)
        for session in (_SERIAL, _INPLACE):
            codegen = session.stats()["codegen"]
            assert codegen["fallbacks"] == 0, codegen["fallback_reasons"]

    def test_stack_depths_explicitly(self):
        # The non-random anchor of the property above: both masked
        # variants at every advertised depth.
        hidden = _hidden((7, 3, 5), seed=2)
        for masked in (False, True):
            for n_layers in (1, 2, 4):
                ref = run_encoder_stack_numeric(
                    hidden, _WEIGHTS, SMALL, masked=masked,
                    n_layers=n_layers, session=_SERIAL)
                got = run_encoder_stack_numeric(
                    hidden, _WEIGHTS, SMALL, masked=masked,
                    n_layers=n_layers, session=_INPLACE)
                assert _bit_identical(ref.hidden, got.hidden)
