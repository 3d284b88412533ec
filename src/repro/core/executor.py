"""The executor: compiling and running scheduled ragged operators.

The executor glues the pipeline of paper Figure 4 together:

1. lower the scheduled operator (:mod:`repro.core.lowering`);
2. generate the kernel through a codegen *backend* (the scalar reference
   emitter of :mod:`repro.core.codegen` or the vectorized NumPy emitter of
   :mod:`repro.core.codegen_vector`);
3. at run time, run the *prelude* (already materialised as the lowered
   kernel's auxiliary arrays -- bound tables, fusion maps, storage offsets,
   remap permutations) and hand the kernel flat buffers for every tensor;
4. report execution statistics: measured host wall time, the analytically
   counted FLOPs of the ragged loop nest, the FLOPs a fully padded
   execution would have needed, and (if a simulated device is attached)
   the modelled device latency.

Compilation is cached: a :class:`CompiledKernel` is keyed by the
(operator, schedule state, input-layout signature) triple, so repeated
``build_and_run`` calls with an unchanged schedule skip re-lowering and
re-``exec`` entirely.  ``Executor.lower_count`` / ``cache_hits`` /
``cache_misses`` expose the cache behaviour to benchmarks and tests.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.aotcache import AOTCache, Uncacheable, kernel_cache_key
from repro.core.cache import LRUDict
from repro.core.codegen import CodegenBackend, GeneratedKernel, get_backend
from repro.core.codegen_vector import (
    FusedMemberPlan,
    VectorizeError,
    generate_fused_kernel,
)
from repro.core.errors import ExecutionError
from repro.core.extents import ConstExtent, Extent, PaddedExtent, VarExtent
from repro.core.ir import count_flops, reductions_in
from repro.core.lowering import LoweredKernel, lower_schedule
from repro.core.ragged_tensor import RaggedTensor
from repro.core.schedule import Schedule
from repro.core.storage import RaggedLayout


@dataclass
class ExecutionReport:
    """Statistics of one kernel execution."""

    wall_time_s: float
    flops: int
    dense_flops: int
    device_latency_s: Optional[float] = None

    @property
    def padding_waste(self) -> float:
        """Ratio of fully padded to ragged FLOPs (>= 1)."""
        if self.flops == 0:
            return 1.0
        return self.dense_flops / self.flops


@dataclass
class CompiledKernel:
    """A lowered, generated, ready-to-run kernel.

    The FLOP estimates are pure functions of the lowered kernel, so they
    are computed once on first access and memoized -- ``run`` no longer
    re-walks the loop nest on every execution.
    """

    lowered: LoweredKernel
    generated: GeneratedKernel
    _flops: Optional[int] = field(default=None, repr=False)
    _dense_flops: Optional[int] = field(default=None, repr=False)

    @property
    def source(self) -> str:
        return self.generated.source

    @property
    def backend_name(self) -> str:
        """Which backend emitted the kernel (``"scalar"`` or ``"vector"``)."""
        return self.generated.backend

    @property
    def fallback_reason(self) -> Optional[str]:
        """Why a vector-backend request fell back to scalar (else ``None``)."""
        return self.generated.fallback_reason

    @property
    def output_layout(self) -> RaggedLayout:
        return self.lowered.output_plan.layout

    @property
    def flops(self) -> int:
        if self._flops is None:
            self._flops = estimate_flops(self.lowered)
        return self._flops

    @property
    def dense_flops(self) -> int:
        if self._dense_flops is None:
            self._dense_flops = estimate_dense_flops(self.lowered)
        return self._dense_flops


class _GroupedFusedKernel:
    """Bit-identical fallback execution of a fused kernel region.

    Runs each member's individually compiled kernel in order inside one
    dispatch.  Internal values flow through fresh zero-initialised
    temporaries (allocated per call: fused kernels are cached and may be
    shared across threads), reproducing the pre-zeroed arena-slab
    semantics of the unfused plan exactly; external outputs are
    zero-filled and written in their buffers as usual.
    """

    def __init__(self, plans, members: List["CompiledKernel"]):
        self._parts = []
        for plan, compiled in zip(plans, members):
            self._parts.append((
                compiled.generated,
                compiled.lowered.aux_arrays,
                dict(plan.bindings),
                compiled.lowered.output_plan.spec.name,
                plan.out_value,
                plan.internal,
                int(compiled.output_layout.total_size()),
            ))

    def __call__(self, buffers: Dict[str, np.ndarray],
                 aux: Dict[str, np.ndarray]) -> None:
        temps: Dict[str, np.ndarray] = {}
        for (generated, aux_arrays, bindings, out_tensor, out_value,
                internal, size) in self._parts:
            local: Dict[str, np.ndarray] = {}
            for tensor, value in bindings.items():
                buf = temps.get(value)
                local[tensor] = buffers[value] if buf is None else buf
            if internal:
                out = np.zeros(size, dtype=np.float32)
                temps[out_value] = out
            else:
                out = buffers[out_value]
                out.fill(0.0)
            local[out_tensor] = out
            generated(local, aux_arrays)


@dataclass
class CompiledFusedKernel:
    """A compiled fused region: one dispatch covering several kernels.

    ``generated`` is either the single emitted vector kernel
    (``fused=True``) or a :class:`_GroupedFusedKernel` wrapper running
    the members back-to-back (``fused=False``, with the
    :class:`~repro.core.codegen_vector.VectorizeError` reason).  Either
    way the callable takes ``(buffers, aux)`` with buffers keyed by
    *program value* names and zero-fills its own external outputs.
    """

    node: object
    members: List[CompiledKernel]
    generated: GeneratedKernel
    aux_arrays: Dict[str, np.ndarray]
    fused: bool
    fallback_reason: Optional[str] = None

    @property
    def backend_name(self) -> str:
        return self.generated.backend

    @property
    def flops(self) -> int:
        return sum(m.flops for m in self.members)

    @property
    def dense_flops(self) -> int:
        return sum(m.dense_flops for m in self.members)

    def output_layouts(self) -> Dict[str, Optional[RaggedLayout]]:
        """Program value name -> compiled output layout, per member."""
        return {m_node.outputs[0]: compiled.output_layout
                for m_node, compiled in zip(self.node.members, self.members)}


def _per_point_flops(lowered: LoweredKernel) -> int:
    """FLOPs per output point, excluding the reduction-loop trip counts."""
    body = lowered.body
    reds = reductions_in(body)
    if not reds:
        return max(count_flops(body), 1)
    # count_flops multiplies by max reduction extents; strip that factor and
    # re-apply per-governing-index trip counts in estimate_flops instead.
    total = 0
    for red in reds:
        total += count_flops(red.body) + 1
    return max(total, 1)


def _bound_table(lowered: LoweredKernel, table_name: str, outer: int) -> np.ndarray:
    """Fetch a bound table, validating it covers the outer loop extent."""
    table = lowered.aux_arrays[table_name]
    if table.size != outer:
        raise ExecutionError(
            f"bound table {table_name!r} has {table.size} entries but the "
            f"outer loop of kernel {lowered.name!r} has extent {outer}; the "
            "prelude arrays do not match the compiled schedule"
        )
    return table


def estimate_flops(lowered: LoweredKernel) -> int:
    """Total FLOPs of the lowered (ragged, padded-as-scheduled) loop nest."""
    # Evaluate per-governing-index trip counts of all loops.
    # All bound tables are indexed by the outermost governing dimension; for
    # a fused governing loop the prelude's ``ffo`` map recovers it.
    outer = lowered.loops[0] if lowered.loops else None
    if outer is None:
        return 0
    if outer.bound.is_const:
        m = outer.bound.value
    else:
        m = lowered.aux_arrays[outer.bound.table_name].size
    ffo = None
    gov_count = None
    if outer.fusion is not None:
        ffo = lowered.aux_arrays.get(f"{outer.fusion.map_name}_ffo")
        row = lowered.aux_arrays.get(f"{outer.fusion.map_name}_row")
        gov_count = None if row is None else int(row.size)

    def table_for(table_name: str, outer_size: int) -> np.ndarray:
        table = lowered.aux_arrays[table_name]
        # Bound tables are always registered per *original* governing index
        # (materialise_extent), never per fused iteration -- so under a
        # fused outer loop a table of the governing extent must be gathered
        # through ffo even when that extent coincides with the fused one.
        if ffo is not None and gov_count is not None and table.size == gov_count:
            return table[ffo]
        return _bound_table(lowered, table_name, outer_size)

    per_b = np.ones(max(m, 1), dtype=np.float64)
    for loop in lowered.loops[1:]:
        if loop.bound.is_const:
            per_b *= loop.bound.value
        else:
            per_b *= table_for(loop.bound.table_name, per_b.size)
    for bound in lowered.reduction_bounds.values():
        if bound.is_const:
            per_b *= bound.value
        else:
            per_b *= table_for(bound.table_name, per_b.size)
    point_flops = _per_point_flops(lowered)
    return int(float(per_b.sum()) * point_flops)


def estimate_dense_flops(lowered: LoweredKernel) -> int:
    """FLOPs a fully padded execution of the same operator would need."""
    if not lowered.loops:
        return 0
    total = 1.0
    outer = lowered.loops[0].bound
    total *= outer.value if outer.is_const else lowered.aux_arrays[outer.table_name].size
    for loop in lowered.loops[1:]:
        if loop.bound.is_const:
            total *= loop.bound.value
        else:
            total *= float(lowered.aux_arrays[loop.bound.table_name].max())
    for bound in lowered.reduction_bounds.values():
        if bound.is_const:
            total *= bound.value
        else:
            total *= float(lowered.aux_arrays[bound.table_name].max())
    return int(total * _per_point_flops(lowered))


# ---------------------------------------------------------------------------
# Compilation-cache signatures
# ---------------------------------------------------------------------------


def _extent_signature(ext: Extent) -> Tuple:
    if isinstance(ext, PaddedExtent):
        return ("pad", ext.multiple, _extent_signature(ext.base))
    if isinstance(ext, ConstExtent):
        return ("const", ext.value)
    if isinstance(ext, VarExtent):
        if ext.table is not None:
            return ("table", ext.dep.uid, ext.table.tobytes())
        return ("fn", ext.dep.uid, id(ext._fn))
    return ("extent", id(ext))


def _layout_signature(layout: RaggedLayout) -> Tuple:
    return (
        tuple(d.uid for d in layout.dims),
        tuple(_extent_signature(e) for e in layout.base_extents),
        tuple(sorted((d.uid, p) for d, p in layout.storage_padding.items())),
    )


def schedule_signature(
    schedule: Schedule,
    input_layouts: Optional[Dict[str, RaggedLayout]] = None,
) -> Tuple:
    """A hashable key capturing everything lowering depends on.

    Covers the operator identity and its (possibly table-backed) extents --
    the *input-layout signature*, since the raggedness pattern is embedded
    in the extents -- plus the full mutable schedule state, so mutating and
    re-compiling a schedule cannot produce a stale cache hit.
    """
    op = schedule.operator
    op_sig = (
        id(op),
        tuple(d.uid for d in op.dims),
        tuple(_extent_signature(e) for e in op.loop_extents),
        tuple(_extent_signature(e) for e in op.storage_extents),
    )
    sched_sig = (
        tuple(sorted((d.uid, p) for d, p in schedule.loop_padding.items())),
        tuple(sorted((d.uid, p) for d, p in schedule.storage_padding.items())),
        tuple(sorted(
            (name, tuple(sorted((d.uid, p) for d, p in pads.items())))
            for name, pads in schedule.input_storage_padding.items()
        )),
        tuple((s.original.uid, s.outer.uid, s.inner.uid, s.factor)
              for s in schedule.splits),
        tuple((f.outer.uid, f.inner.uid, f.fused.uid) for f in schedule.fusions),
        tuple((o.uid, i.uid) for o, i in schedule.dim_fusions),
        tuple(sorted((d.uid, a.value) for d, a in schedule.annotations.items())),
        tuple((r.dim.uid, r.policy if isinstance(r.policy, str) else id(r.policy))
              for r in schedule.remaps),
        tuple(d.uid for d in schedule.loop_order),
        schedule.hoist_loads,
    )
    layouts_sig = tuple(sorted(
        (name, _layout_signature(layout))
        for name, layout in (input_layouts or {}).items()
    ))
    return (op_sig, sched_sig, layouts_sig)


class Executor:
    """Compiles schedules and runs the generated kernels.

    Parameters
    ----------
    device:
        Optional :class:`~repro.substrates.device.Device`; when given, each
        execution report includes a modelled device latency for the kernel.
    backend:
        Codegen backend: ``"vector"`` (default -- NumPy-vectorized with
        automatic scalar fallback), ``"scalar"`` (the reference emitter),
        or a :class:`~repro.core.codegen.CodegenBackend` instance.
    cache:
        Whether to cache compiled kernels across :meth:`compile` /
        :meth:`build_and_run` calls (keyed by operator, schedule state and
        input-layout signature).
    cache_capacity:
        Maximum number of cached kernels; least-recently-used entries are
        evicted beyond that, bounding memory in long-running processes.

    Attributes
    ----------
    lower_count:
        Number of actual lower+generate passes performed (cache misses).
    cache_hits / cache_misses:
        Kernel-cache statistics.
    """

    def __init__(self, device: Optional[object] = None,
                 backend: Union[str, CodegenBackend, None] = "vector",
                 cache: bool = True, cache_capacity: int = 256,
                 disk_cache: Union[AOTCache, str, bool, None] = None):
        self.device = device
        self.backend = get_backend(backend)
        self.cache_enabled = cache
        self.cache_capacity = int(cache_capacity)
        if disk_cache is None or disk_cache is False:
            self.disk_cache: Optional[AOTCache] = None
        elif isinstance(disk_cache, AOTCache):
            self.disk_cache = disk_cache
        elif disk_cache is True:
            self.disk_cache = AOTCache()
        else:
            self.disk_cache = AOTCache(disk_cache)
        #: key -> (compiled kernel, pinned schedule, pinned layouts), LRU.
        #: The schedule/layout references keep the objects (and hence the
        #: ids in the key) alive for as long as the entry exists.
        self._kernel_cache: LRUDict[Tuple, Tuple[CompiledKernel, Schedule, object]] = LRUDict(self.cache_capacity)
        #: fused-region cache: canonical region key -> (compiled, node)
        self._fused_cache: LRUDict[Tuple, Tuple[CompiledFusedKernel, object]] = LRUDict(self.cache_capacity)
        #: guards the kernel cache and compile counters: sessions may
        #: compile concurrently (e.g. a serving scheduler overlapping
        #: batches while another thread warms new signatures), and the
        #: LRU's get/put reordering is not atomic on its own.
        self._lock = threading.RLock()
        self.lower_count = 0
        self.cache_hits = 0
        self.cache_misses = 0
        #: kernels rebuilt from / persisted to the AOT disk cache
        self.disk_hits = 0
        self.disk_stores = 0
        #: fused-region compilation counters
        self.fused_regions = 0
        self.fused_emitted = 0
        self.fused_fallbacks = 0
        self.fused_cache_hits = 0
        self.fused_fallback_reasons: Counter = Counter()

    # -- compilation ----------------------------------------------------------

    def compile(
        self,
        schedule: Schedule,
        input_layouts: Optional[Dict[str, RaggedLayout]] = None,
    ) -> CompiledKernel:
        """Lower and generate code for a scheduled operator (cached).

        Thread-safe: cache lookups, compile-counter updates and the
        lower+generate pass itself are serialised under the executor's
        lock, so sessions on different threads sharing one executor never
        race the LRU or compile the same kernel twice.
        """
        with self._lock:
            if not self.cache_enabled:
                return self._compile_or_load(schedule, input_layouts)
            key = (self.backend.name,
                   schedule_signature(schedule, input_layouts))
            entry = self._kernel_cache.get(key)
            if entry is not None:
                self.cache_hits += 1
                return entry[0]
            self.cache_misses += 1
            compiled = self._compile_or_load(schedule, input_layouts)
            self._kernel_cache.put(key, (compiled, schedule, input_layouts))
            return compiled

    def _compile_or_load(
        self,
        schedule: Schedule,
        input_layouts: Optional[Dict[str, RaggedLayout]] = None,
    ) -> CompiledKernel:
        """The disk tier between the in-memory LRU and a real compile.

        A disk hit rebuilds the kernel without touching ``lower_count``
        -- that counter means "lowering passes actually performed", and
        the zero-lowerings-on-warm-start guarantee is asserted on it.
        Uncacheable schedules (callable-backed extents / remap policies)
        skip the tier entirely.
        """
        if self.disk_cache is None:
            return self._compile_uncached(schedule, input_layouts)
        try:
            key = kernel_cache_key(schedule, input_layouts, self.backend.name)
        except Uncacheable:
            return self._compile_uncached(schedule, input_layouts)
        loaded = self.disk_cache.load(key)
        if loaded is not None:
            lowered, generated = loaded
            self.disk_hits += 1
            return CompiledKernel(lowered=lowered, generated=generated)
        compiled = self._compile_uncached(schedule, input_layouts)
        if self.disk_cache.store(key, compiled.lowered, compiled.generated):
            self.disk_stores += 1
        return compiled

    def _compile_uncached(
        self,
        schedule: Schedule,
        input_layouts: Optional[Dict[str, RaggedLayout]] = None,
    ) -> CompiledKernel:
        self.lower_count += 1
        lowered = lower_schedule(schedule, input_layouts=input_layouts)
        generated = self.backend.generate(lowered)
        return CompiledKernel(lowered=lowered, generated=generated)

    # -- fused regions ---------------------------------------------------------

    @staticmethod
    def _fused_value_keys(node) -> Dict[str, str]:
        """Canonical buffer keys for a fused region's program values.

        Region inputs become ``i0, i1, ...`` (positional in
        ``node.inputs``), external outputs ``o0, o1, ...`` and internal
        values ``x0, x1, ...``.  Both the emitted kernel's ``buffers``
        dict keys and the fused-cache key are built from these, so
        structurally equal regions under different value names (the same
        SDPA chain in every encoder layer) share one compiled kernel --
        callers just hand in buffers keyed the same canonical way.
        """
        keys: Dict[str, str] = {}
        for j, v in enumerate(node.inputs):
            keys[v] = f"i{j}"
        for j, v in enumerate(node.outputs):
            keys[v] = f"o{j}"
        for j, s in enumerate(node.internal_specs):
            keys[s.name] = f"x{j}"
        return keys

    def _fused_key(self, node) -> Tuple:
        """Cache key for a fused region (canonical value names)."""
        keys = self._fused_value_keys(node)
        parts = []
        for m in node.members:
            sig = schedule_signature(m.schedule, m.input_layouts)
            bindings = tuple((t, keys[v])
                             for t, v in sorted(m.bindings.items()))
            parts.append((sig, bindings, keys[m.outputs[0]]))
        return ("fused", self.backend.name, tuple(parts))

    def compile_fused(self, node) -> CompiledFusedKernel:
        """Compile a :class:`~repro.core.fusion.FusedKernelNode` (cached).

        Members compile through :meth:`compile` (hitting the LRU and the
        disk tier as usual); the region is then emitted as one vector
        kernel, or -- when any member resists vector emission or an
        alias read would leave its producer's store bounds -- wrapped in
        the bit-identical grouped dispatch.  Neither path performs any
        extra lowering, so fused compilation never increments
        ``lower_count`` beyond its members.
        """
        with self._lock:
            key = self._fused_key(node)
            if self.cache_enabled:
                entry = self._fused_cache.get(key)
                if entry is not None:
                    self.fused_cache_hits += 1
                    return entry[0]
            compiled = self._compile_fused_uncached(node)
            if self.cache_enabled:
                self._fused_cache.put(key, (compiled, node))
            return compiled

    def _compile_fused_uncached(self, node) -> CompiledFusedKernel:
        members = [self.compile(m.schedule, input_layouts=m.input_layouts)
                   for m in node.members]
        internal = {s.name for s in node.internal_specs}
        keys = self._fused_value_keys(node)
        self.fused_regions += 1
        plans = [
            FusedMemberPlan(
                kernel=compiled.lowered,
                bindings={t: keys[v] for t, v in m.bindings.items()},
                out_value=keys[m.outputs[0]],
                internal=m.outputs[0] in internal,
            )
            for m, compiled in zip(node.members, members)
        ]
        reason: Optional[str] = None
        try:
            if self.backend.name != "vector":
                raise VectorizeError(
                    f"backend {self.backend.name!r} has no fused emitter")
            for compiled in members:
                if compiled.backend_name != "vector":
                    raise VectorizeError(
                        f"member {compiled.lowered.name!r} fell back to "
                        f"scalar: {compiled.fallback_reason}")
            generated = generate_fused_kernel(node.name, plans)
            self.fused_emitted += 1
        except VectorizeError as err:
            reason = str(err)
            self.fused_fallbacks += 1
            self.fused_fallback_reasons[reason] += 1
            generated = GeneratedKernel(
                name=node.name,
                source=f"# grouped fused dispatch (fallback: {reason})",
                fn=_GroupedFusedKernel(plans, members),
                backend="grouped",
                fallback_reason=reason)
        aux: Dict[str, np.ndarray] = {}
        for i, compiled in enumerate(members):
            for k, v in compiled.lowered.aux_arrays.items():
                aux[f"m{i}/{k}"] = v
        return CompiledFusedKernel(
            node=node, members=members, generated=generated,
            aux_arrays=aux, fused=reason is None, fallback_reason=reason)

    def clear_cache(self) -> None:
        """Drop all cached kernels (counters are left untouched)."""
        with self._lock:
            self._kernel_cache.clear()
            self._fused_cache.clear()

    def reset_stats(self) -> None:
        """Zero the lowering / cache counters and the backend's codegen
        (vectorized vs fallback) counters; cached kernels are kept."""
        with self._lock:
            self.lower_count = 0
            self.cache_hits = 0
            self.cache_misses = 0
            self.disk_hits = 0
            self.disk_stores = 0
            self.fused_regions = 0
            self.fused_emitted = 0
            self.fused_fallbacks = 0
            self.fused_cache_hits = 0
            self.fused_fallback_reasons.clear()
            reset = getattr(self.backend, "reset_stats", None)
            if reset is not None:
                reset()

    def reset(self) -> None:
        """Return the executor to its freshly-constructed state: drop the
        kernel cache *and* zero every counter, so a replayed workload
        reproduces the original compile/statistics trajectory exactly."""
        self.clear_cache()
        self.reset_stats()

    # -- codegen observability --------------------------------------------------

    @property
    def vectorized_count(self) -> int:
        """Kernels the (vector) backend emitted on the fast path."""
        return int(getattr(self.backend, "vectorized_count", 0))

    @property
    def fallback_count(self) -> int:
        """Kernels the (vector) backend handed to the scalar fallback."""
        return int(getattr(self.backend, "fallback_count", 0))

    def codegen_stats(self) -> Dict[str, object]:
        """Vectorize successes vs scalar fallbacks, with reason strings.

        Extends the ``lower_count`` / ``cache_hits`` statistics: each actual
        lower+generate pass either vectorizes or falls back, and every
        fallback records the :class:`~repro.core.codegen_vector.VectorizeError`
        message that caused it.  Scalar-only backends report zero for both
        counters and an empty reason map.
        """
        return {
            "backend": self.backend.name,
            "lower_count": self.lower_count,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "vectorized": self.vectorized_count,
            "fallbacks": self.fallback_count,
            "fallback_reasons": dict(
                getattr(self.backend, "fallback_reasons", {})),
            "disk_hits": self.disk_hits,
            "disk_stores": self.disk_stores,
            "disk_cache": (self.disk_cache.stats()
                           if self.disk_cache is not None else None),
            "fused_regions": self.fused_regions,
            "fused_emitted": self.fused_emitted,
            "fused_fallbacks": self.fused_fallbacks,
            "fused_cache_hits": self.fused_cache_hits,
            "fused_fallback_reasons": dict(self.fused_fallback_reasons),
            "schedule_memos": self._schedule_memo_stats(),
        }

    @staticmethod
    def _schedule_memo_stats() -> Dict[str, Dict[str, int]]:
        """Hit/size/cap statistics of every registered bounded schedule
        memo (the ops-layer ``lru_cache`` builders keyed by length-table
        bytes).  The caps bound memory in long-running processes; the
        sizes/hits here let benchmarks confirm the memos -- and hence the
        executor's kernel cache keyed on schedule identity -- are working."""
        try:
            from repro.core.tunespace import schedule_memo_stats
            return schedule_memo_stats()
        except Exception:
            return {}

    # -- execution --------------------------------------------------------------

    def run(
        self,
        compiled: CompiledKernel,
        inputs: Dict[str, Union[RaggedTensor, np.ndarray]],
        output: Optional[RaggedTensor] = None,
    ) -> tuple:
        """Execute a compiled kernel.

        Parameters
        ----------
        compiled:
            The kernel returned by :meth:`compile`.
        inputs:
            Mapping from input-tensor name to a :class:`RaggedTensor` (whose
            layout must match the compiled plan's total size) or a flat /
            dense NumPy array.
        output:
            Optional pre-allocated output tensor; allocated if omitted.

        Returns
        -------
        (output, report):
            The output ragged tensor and an :class:`ExecutionReport`.
        """
        lowered = compiled.lowered
        buffers: Dict[str, np.ndarray] = {}
        for name, plan in lowered.input_plans.items():
            if name not in inputs:
                raise ExecutionError(f"missing input tensor {name!r}")
            value = inputs[name]
            if isinstance(value, RaggedTensor):
                flat = value.data
            else:
                flat = np.asarray(value, dtype=np.float32).reshape(-1)
            expected = plan.layout.total_size()
            if flat.size != expected:
                raise ExecutionError(
                    f"input {name!r} has {flat.size} elements but the "
                    f"compiled layout requires {expected}"
                )
            buffers[name] = flat
        if output is None:
            output = RaggedTensor.zeros(compiled.output_layout)
        buffers[lowered.output_plan.spec.name] = output.data

        t0 = time.perf_counter()
        compiled.generated(buffers, lowered.aux_arrays)
        wall = time.perf_counter() - t0

        flops = compiled.flops
        dense_flops = compiled.dense_flops
        device_latency = None
        if self.device is not None:
            bytes_moved = sum(b.nbytes for b in buffers.values())
            device_latency = self.device.kernel_time(flops=flops,
                                                     bytes_moved=bytes_moved)
        report = ExecutionReport(
            wall_time_s=wall,
            flops=flops,
            dense_flops=dense_flops,
            device_latency_s=device_latency,
        )
        return output, report

    # -- convenience -------------------------------------------------------------

    def build_and_run(
        self,
        schedule: Schedule,
        inputs: Dict[str, Union[RaggedTensor, np.ndarray]],
        input_layouts: Optional[Dict[str, RaggedLayout]] = None,
    ) -> tuple:
        """Compile and immediately execute a scheduled operator."""
        compiled = self.compile(schedule, input_layouts=input_layouts)
        return self.run(compiled, inputs)


#: Process-wide default executors, one per backend name.  The ops-layer
#: convenience wrappers (``vgemm_compiled`` etc.) route through these when
#: no explicit executor is passed, so their kernel caches persist across
#: calls instead of dying with a per-call Executor.
_SHARED_EXECUTORS: Dict[str, Executor] = {}


def shared_executor(backend: str = "vector") -> Executor:
    """The process-wide default :class:`Executor` for the given backend."""
    executor = _SHARED_EXECUTORS.get(backend)
    if executor is None:
        executor = Executor(backend=backend)
        _SHARED_EXECUTORS[backend] = executor
    return executor
