"""Vectorized NumPy code generation backend.

Where the scalar backend (:mod:`repro.core.codegen`) emits one Python
``for`` statement per loop and one flat-buffer load per access, this
backend collapses the lowered loop nest into NumPy operations.  It has two
emission modes:

* **bucketed governing loop** (the common case): governing-loop indices are
  grouped into *buckets* of identical raggedness signature (identical bound
  -table and storage-shape entries, see
  :func:`repro.core.prelude.bucket_by_signature`).  Each bucket executes as
  one stacked operation over ``(bucket, ...)`` input views (zero-copy for
  a single instance, gathered otherwise); inner and reduction loops become
  broadcast axes, a batched ``np.matmul`` or one ``np.einsum`` whose path
  is fixed at codegen time.  Stores are *destination-passing*: the body's
  top-level operation writes with ``out=`` into the arena slab itself for
  a single-instance bucket, else into one compact ``(bucket, *bounds)``
  array that is then scattered, and elementwise operations above it
  update that destination in place (all-float32 bodies only, so rounding
  never changes).  The Python loop is O(distinct signatures), not O(batch).
* **flat fused gather**: a fused governing vloop (``fuse_loops`` of the
  governing cloop with its vloop) executes as a single flat gather over the
  prelude's ``ffo`` / ``ffi`` fusion maps -- no Python loop at all.

Construct coverage (the matrix below is asserted by the differential tests
in ``tests/test_codegen_vector.py``):

============================  =========  =====================================
construct                     backend    how
============================  =========  =====================================
constant / table inner loops  vector     broadcast axes / slice bounds
sum / max / min reductions    vector     ``einsum`` or broadcast + reduce
guarded split vloops          vector     split pair collapsed back to the
                                         original domain; the guard becomes
                                         the trailing slice ``[:bound]``
unguarded (padded) splits     vector     collapsed, bound = tiles * factor
fused governing vloops        vector     flat gather through ``ffo``/``ffi``
thread remaps                 vector     order-only: stores are disjoint, so
                                         the permutation is a no-op for the
                                         result (noted in the source)
table-bound governing chains  vector     bucketed by bound signature
masked (triangular) SDPA      vector     mask-add operator + softmax chain
                                         (see ``repro.ops.softmax``)
loop pad > storage pad        scalar     slice would silently truncate
diagonal accesses A[b, i, i]  scalar     needs a gather per element
nested splits                 scalar     split of a split-derived loop
non-governing loop fusion     scalar     fusion maps assume the governing dim
variable bounds under fusion  scalar     per-f bounds break rectangularity
remap on variable inner loop  scalar     permutation outruns the bound
============================  =========  =====================================

Anything in the ``scalar`` rows raises :class:`VectorizeError` and
:class:`VectorBackend` transparently falls back to the scalar backend
(recording the reason), which is why the scalar emitter stays the reference
implementation for differential testing.

Bucketing note: buckets are computed at *compile* time from the lowered
kernel's auxiliary arrays (they are baked into the kernel, so the grouping
can never go stale) and injected into the kernel namespace as ``_BUCKETS``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.codegen import (
    CodegenBackend,
    GeneratedKernel,
    ScalarBackend,
    _Emitter,
)
from repro.core.dims import Dim
from repro.core.errors import LoweringError
from repro.core.ir import (
    BinOp,
    Call,
    Const,
    Expr,
    LoopVar,
    Reduce,
    TensorAccess,
    reductions_in,
)
from repro.core.lowering import BoundSpec, LoweredKernel, LoopSpec, TensorPlan
from repro.core.prelude import bucket_by_signature

_NP_INTRINSICS = {
    "exp": "np.exp",
    "sqrt": "np.sqrt",
    "tanh": "np.tanh",
    "log": "np.log",
}
_NP_BINOPS = {"+": "np.add", "-": "np.subtract", "*": "np.multiply",
              "/": "np.divide", "max": "np.maximum", "min": "np.minimum"}


class VectorizeError(LoweringError):
    """The lowered kernel contains a construct this backend cannot vectorize."""


# ---------------------------------------------------------------------------
# Runtime helpers (injected into the generated kernel's namespace)
# ---------------------------------------------------------------------------


def _slab_view(buf: np.ndarray, row_offsets: np.ndarray, shapes: np.ndarray,
               i: int) -> np.ndarray:
    """Governing index ``i``'s storage-padded slab of ``buf``, as a view."""
    shape = tuple(int(s) for s in shapes[i])
    start = int(row_offsets[i])
    return buf[start:start + math.prod(shape)].reshape(shape)


def _gather_slices(buf: np.ndarray, row_offsets: np.ndarray,
                   shapes: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Stack the ragged slices at governing indices ``idx``.

    All indexed slices must share one (storage-padded) shape -- guaranteed
    by signature bucketing.  A single-instance bucket returns a zero-copy
    view; larger buckets gather into a dense ``(len(idx), *shape)`` array.
    """
    if idx.size == 1:
        return _slab_view(buf, row_offsets, shapes, idx[0])[None]
    shape = tuple(int(s) for s in shapes[idx[0]])
    flat = buf[row_offsets[idx][:, None] + np.arange(math.prod(shape))[None, :]]
    return flat.reshape((idx.size,) + shape)


def _scatter_slices(buf: np.ndarray, row_offsets: np.ndarray,
                    shapes: np.ndarray, idx: np.ndarray,
                    bounds: Tuple[int, ...], values: np.ndarray) -> None:
    """Scatter ``values`` into the ``[:b1, :b2, ...]`` region of each slice.

    The inverse of :func:`_gather_slices` restricted to the loop-bounded
    region (the vectorized equivalent of a guard: elements past the bounds
    are never touched).
    """
    shape = tuple(int(s) for s in shapes[idx[0]])
    strides = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    off = row_offsets[idx].reshape((idx.size,) + (1,) * len(bounds))
    for axis, n in enumerate(bounds):
        view = [1] * (len(bounds) + 1)
        view[axis + 1] = int(n)
        off = off + np.arange(int(n)).reshape(view) * strides[axis]
    buf[off] = values


def _store_target(buf: np.ndarray, row_offsets: np.ndarray,
                  shapes: np.ndarray, idx: np.ndarray,
                  bounds: Tuple[int, ...]) -> np.ndarray:
    """The array a bucket's store is computed into: the ``[:b1, :b2, ...]``
    view of a single instance's arena slab, or one compact ``(len(idx),
    *bounds)`` array for :func:`_store_commit` to scatter."""
    if idx.size == 1:
        view = _slab_view(buf, row_offsets, shapes, idx[0])
        return view[tuple(slice(0, b) for b in bounds)][None]
    return np.empty((idx.size,) + bounds, dtype=np.float32)


def _store_commit(buf: np.ndarray, row_offsets: np.ndarray,
                  shapes: np.ndarray, idx: np.ndarray,
                  bounds: Tuple[int, ...], values: np.ndarray) -> None:
    """Scatter a :func:`_store_target` array unless it is the slab itself."""
    if idx.size > 1:
        _scatter_slices(buf, row_offsets, shapes, idx, bounds, values)


#: Runtime helpers every generated vector kernel's namespace carries.
RUNTIME_HELPERS = {"np": np, "_gather_slices": _gather_slices,
                   "_store_target": _store_target, "_store_commit": _store_commit}


def _flatten_product(expr: Expr):
    """Decompose ``expr`` into (constant factors, tensor accesses) if it is a
    pure product of those; return ``None`` otherwise."""
    if isinstance(expr, Const):
        return [float(expr.value)], []
    if isinstance(expr, TensorAccess):
        return [], [expr]
    if isinstance(expr, BinOp) and expr.op == "*":
        left = _flatten_product(expr.lhs)
        right = _flatten_product(expr.rhs)
        if left is None or right is None:
            return None
        return left[0] + right[0], left[1] + right[1]
    return None


@dataclass
class _VecBound:
    """An effective loop bound: a :class:`BoundSpec` times a constant scale.

    The scale collapses an unguarded split pair back into its original
    domain (``tiles * factor``); guarded pairs use the guard bound with
    scale 1 (the guard *is* the original domain).
    """

    base: BoundSpec
    scale: int = 1

    @property
    def is_const(self) -> bool:
        return self.base.is_const

    def const_value(self) -> int:
        return int(self.base.value) * self.scale

    def values(self, kernel: LoweredKernel) -> np.ndarray:
        if self.base.is_const:
            return np.asarray([self.const_value()], dtype=np.int64)
        table = np.asarray(kernel.aux_arrays[self.base.table_name],
                           dtype=np.int64)
        return table * self.scale


@dataclass
class _AliasSource:
    """A fused-region internal value held in a loop-local temporary.

    ``var`` names the temporary: shape ``(_nb, *padded_extents)`` per
    bucket, zero-filled with the loop-bounded region assigned in -- a
    bit-exact stand-in for the scatter/gather round-trip through an
    arena slab.  ``tables`` holds, per store axis, the producer's
    storage-padded extents over every governing index; consumers check
    both their own padding (must be equal) and their loop bounds (must
    fit) against them at compile time.
    """

    var: str
    tables: Tuple[np.ndarray, ...]


@dataclass
class _AliasOut:
    """Where a member kernel's store goes inside a fused region.

    ``var`` is the temporary receiving the (float32-cast) store values;
    with ``external=True`` the store *also* scatters into the real
    output buffer (the value has readers outside the region too).
    """

    var: str
    external: bool = False


class VectorCodeGenerator:
    """Emits the vectorized Python source for one lowered kernel.

    With a ``prefix`` the generator namespaces every emitted local
    (buffers, aux views, bounds, index arrays, reduction temporaries)
    so several member kernels can share one function body and one
    bucket loop -- the fused-region emission of
    :func:`generate_fused_kernel`.  ``value_of`` remaps tensor names to
    program value names for the ``buffers`` dict, ``aux_ns`` prefixes
    the ``aux`` dict keys, ``alias`` redirects reads of internalised
    values to their producer's temporary, and ``alias_out`` redirects
    (or tees) the store into a temporary.
    """

    def __init__(self, kernel: LoweredKernel, prefix: str = "",
                 value_of: Optional[Dict[str, str]] = None,
                 aux_ns: str = "",
                 alias: Optional[Dict[str, _AliasSource]] = None,
                 alias_out: Optional[_AliasOut] = None):
        self.kernel = kernel
        self._prefix = prefix
        self._values = value_of or {}
        self._aux_ns = aux_ns
        self._alias = alias or {}
        self._alias_out = alias_out
        #: synthetic leading axis: the bucket axis (loop mode) or the fused
        #: iteration axis (fused mode)
        self._stack_dim = Dim("stack")
        self._analyze()
        #: id(Reduce) -> code of its (out-context aligned) temporary
        self._reduce_code: Dict[int, str] = {}
        #: dims of the per-instance loop index arrays already emitted
        self._index_arrays: Dict[Dim, str] = {}
        self._gov_value_var: Optional[str] = None
        self._inner_value_var: Optional[str] = None
        self._buckets_cache: Optional[List[np.ndarray]] = None
        self._fused_lengths_cache: Optional[np.ndarray] = None

    # -- analysis ------------------------------------------------------------

    def _analyze(self) -> None:
        kernel = self.kernel
        if not kernel.loops:
            raise VectorizeError("kernel has no loops")
        gov = kernel.loops[0]
        if gov.guard is not None:
            raise VectorizeError("outer loop carries a guard")
        if not gov.bound.is_const:
            raise VectorizeError("outer loop bound must be constant")
        if gov.fusion is not None:
            self.mode = "fused"
            self._analyze_fused(gov)
        else:
            self.mode = "loop"
            self._analyze_loop(gov)
        reduces = reductions_in(kernel.body)
        for red in reduces:
            if red.combiner not in ("sum", "max", "min"):
                raise VectorizeError(f"unknown combiner {red.combiner!r}")
            if reductions_in(red.body):
                raise VectorizeError("nested reductions are not vectorized")
        self.reduces = reduces
        # Per-dim bound variable names (collision-safe).
        self._bound_var: Dict[Dim, str] = {
            self._stack_dim: "_nb" if self.mode == "loop" else "_F",
        }
        taken: Dict[str, Dim] = {}
        for dim in self.inner_dims + self.reduce_dims:
            base = f"_n_{self._safe(dim.name)}"
            name = base if taken.get(base, dim) is dim else f"{base}_{dim.uid}"
            taken[name] = dim
            self._bound_var[dim] = name

    def _analyze_loop(self, gov: LoopSpec) -> None:
        kernel = self.kernel
        if kernel.output_dims_fused:
            raise VectorizeError(
                "fused output dimensions without a fused governing loop")
        if gov.split is not None:
            raise VectorizeError("the governing loop itself is split")
        self.gov_dim = gov.dim
        self.gov_count = gov.bound.value
        if kernel.output_dims[0] is not self.gov_dim:
            raise VectorizeError("outer loop is not the output governing dim")
        # Collapse split pairs back into their original dims; everything else
        # maps 1:1.  ``eff`` keeps loop order (split pairs at first member).
        eff: Dict[Dim, Optional[_VecBound]] = {}
        pending: Dict[Dim, Dict[str, LoopSpec]] = {}
        for loop in kernel.loops[1:]:
            if loop.fusion is not None:
                raise VectorizeError(
                    f"inner loop {loop.dim.name} is fused")
            if loop.remap_name is not None and not loop.bound.is_const:
                raise VectorizeError(
                    f"thread remap on variable inner loop {loop.dim.name}")
            if loop.split is None:
                if loop.guard is not None:
                    raise VectorizeError(
                        f"guard on unsplit loop {loop.dim.name}")
                self._check_bound(loop.bound, loop.dim)
                eff[loop.dim] = _VecBound(loop.bound)
                continue
            link = loop.split
            if link.original not in kernel.output_dims:
                raise VectorizeError("nested loop splits are not vectorized")
            pending.setdefault(link.original, {})[link.role] = loop
            eff.setdefault(link.original, None)
        for orig, group in pending.items():
            if "outer" not in group or "inner" not in group:
                raise VectorizeError(
                    f"split of {orig.name} is only partially in the nest")
            outer, inner = group["outer"], group["inner"]
            if outer.guard is not None:
                raise VectorizeError("guard attached to the outer split loop")
            factor = outer.split.factor
            guard = inner.guard
            if guard is not None:
                if (guard.outer_var_dim is not outer.dim
                        or guard.inner_var_dim is not inner.dim
                        or guard.factor != factor):
                    raise VectorizeError("guard does not match its split pair")
                self._check_bound(guard.bound, orig)
                eff[orig] = _VecBound(guard.bound)
            else:
                if not inner.bound.is_const or inner.bound.value != factor:
                    raise VectorizeError(
                        "inner split bound is not the split factor")
                self._check_bound(outer.bound, orig)
                eff[orig] = _VecBound(outer.bound, scale=factor)
        self.inner_dims: Tuple[Dim, ...] = tuple(eff.keys())
        self._eff_bounds: Dict[Dim, _VecBound] = eff  # type: ignore[assignment]
        if set(kernel.output_dims[1:]) != set(self.inner_dims):
            raise VectorizeError(
                "loop dims do not map 1:1 onto output dims")
        self.reduce_dims: Tuple[Dim, ...] = tuple(kernel.reduction_bounds)
        self._red_bounds: Dict[Dim, _VecBound] = {}
        for dim, bound in kernel.reduction_bounds.items():
            self._check_bound(bound, dim)
            self._red_bounds[dim] = _VecBound(bound)

    def _analyze_fused(self, gov: LoopSpec) -> None:
        kernel = self.kernel
        fusion = gov.fusion
        self.fused_extent = gov.bound.value
        self.map_name = fusion.map_name
        self.gov_dim = fusion.outer_dim
        self.inner_fused_dim = fusion.inner_dim
        if (kernel.output_dims[0] is not fusion.outer_dim
                or len(kernel.output_dims) < 2
                or kernel.output_dims[1] is not fusion.inner_dim):
            raise VectorizeError(
                "fused loop does not cover the two leading output dims")
        eff: Dict[Dim, _VecBound] = {}
        for loop in kernel.loops[1:]:
            if loop.guard or loop.fusion or loop.split:
                raise VectorizeError(
                    f"loop {loop.dim.name} carries a guard/fusion/split "
                    "under a fused governing loop")
            if not loop.bound.is_const:
                raise VectorizeError(
                    "variable inner bound under a fused governing loop")
            eff[loop.dim] = _VecBound(loop.bound)
        self.inner_dims = tuple(eff.keys())
        self._eff_bounds = eff
        if set(kernel.output_dims[2:]) != set(self.inner_dims):
            raise VectorizeError("loop dims do not map 1:1 onto output dims")
        self.reduce_dims = tuple(kernel.reduction_bounds)
        self._red_bounds = {}
        for dim, bound in kernel.reduction_bounds.items():
            if not bound.is_const:
                raise VectorizeError(
                    "variable reduction bound under a fused governing loop")
            self._red_bounds[dim] = _VecBound(bound)
        if kernel.output_dims_fused:
            total = int(kernel.output_plan.layout.dense_shape()[0])
            if total != self.fused_extent:
                raise VectorizeError(
                    "fused loop extent differs from fused storage extent")

    def _check_bound(self, bound: BoundSpec, dim: Dim) -> None:
        if not bound.is_const and bound.governing is not self.gov_dim:
            raise VectorizeError(
                f"bound of {dim.name} is governed by {bound.governing.name}, "
                "not the outermost loop"
            )

    def _vb_of(self, dim: Dim) -> _VecBound:
        vb = self._eff_bounds.get(dim)
        if vb is None:
            vb = self._red_bounds.get(dim)
        if vb is None:
            raise VectorizeError(f"{dim.name} is not a vectorized loop")
        return vb

    # -- public API -----------------------------------------------------------

    def generate(self) -> GeneratedKernel:
        source = self.generate_source()
        namespace: Dict[str, object] = dict(RUNTIME_HELPERS)
        if self.mode == "loop":
            namespace["_BUCKETS"] = self._buckets()
        exec(compile(source, f"<cora-vec:{self.kernel.name}>", "exec"), namespace)
        fn = namespace[self._fn_name()]
        return GeneratedKernel(name=self.kernel.name, source=source, fn=fn,
                               backend="vector")

    def _buckets(self) -> List[np.ndarray]:
        if self._buckets_cache is None:
            arrays = [self.kernel.aux_arrays[n]
                      for n in self._signature_tables()]
            self._buckets_cache = bucket_by_signature(self.gov_count, arrays)
        return self._buckets_cache

    def _signature_tables(self) -> List[str]:
        names: List[str] = []
        for vb in list(self._eff_bounds.values()) + list(self._red_bounds.values()):
            if not vb.base.is_const:
                names.append(vb.base.table_name)
        for name in self._accessed_tensors():
            plan = self.kernel.input_plans[name]
            if plan.is_ragged:
                names.append(plan.shape_name)
        if self.kernel.output_plan.is_ragged:
            names.append(self.kernel.output_plan.shape_name)
        return list(dict.fromkeys(names))

    @staticmethod
    def _sanitize(name: str) -> str:
        return "".join(c if c.isalnum() or c == "_" else "_" for c in name)

    def _safe(self, name: str) -> str:
        clean = self._sanitize(name)
        return f"{self._prefix}_{clean}" if self._prefix else clean

    def _local(self, base: str) -> str:
        """Namespace a fixed-name local (``_ixb``, ``_val``, ``_red0``...)."""
        return f"{base}_{self._prefix}" if self._prefix else base

    def _aux_key(self, name: str) -> str:
        return f"{self._aux_ns}{name}"

    def _value_name(self, tensor_name: str) -> str:
        """The ``buffers`` dict key for a tensor (program value name when
        emitted as a fused-region member, the tensor name otherwise)."""
        return self._values.get(tensor_name, tensor_name)

    def _fn_name(self) -> str:
        return f"cora_vkernel_{self._sanitize(self.kernel.name)}"

    # -- source emission -------------------------------------------------------

    def generate_source(self) -> str:
        kernel = self.kernel
        em = _Emitter()
        em.emit(f"def {self._fn_name()}(buffers, aux):")
        em.push()
        em.emit(f'"""Vectorized (NumPy) CoRa kernel for operator '
                f'{kernel.name!r}."""')
        accessed = self._accessed_tensors()
        self.emit_prolog(em, accessed)
        if self.mode == "fused":
            self._emit_fused_prolog(em)
            self._emit_body(em)
        else:
            gov = kernel.loops[0]
            if gov.remap_name is not None:
                em.emit(f"# thread remap {gov.remap_name!r} is execution-order "
                        "only; bucketed stores are order-independent")
            em.emit(f"# {len(self._buckets()) if self._have_aux() else '?'} "
                    f"instance bucket(s) over {self.gov_count} governing "
                    "indices")
            em.emit("for _bs in _BUCKETS:")
            em.push()
            em.emit("_nb = _bs.size")
            em.emit("_b0 = int(_bs[0])")
            self.emit_bucket_body(em, accessed)
            em.pop()
        em.pop()
        return em.source()

    def emit_prolog(self, em: _Emitter, accessed: Sequence[str]) -> None:
        """Emit the per-call setup: buffer views, aux views, dense reshapes.

        Aliased tensors (fused-region internals) have no buffer -- their
        reads and stores go through loop-local temporaries instead.
        """
        kernel = self.kernel
        out_name = kernel.output_plan.spec.name
        out_has_buffer = (self._alias_out is None or self._alias_out.external)
        if out_has_buffer:
            em.emit(f"_buf_{self._safe(out_name)} = "
                    f"buffers[{self._value_name(out_name)!r}]")
        for name in kernel.input_plans:
            if name in accessed and name not in self._alias:
                em.emit(f"_buf_{self._safe(name)} = "
                        f"buffers[{self._value_name(name)!r}]")
        for name in sorted(self._aux_names_used()):
            em.emit(f"_aux_{self._safe(name)} = aux[{self._aux_key(name)!r}]")
        # Dense tensors are reshaped once, outside any instance loop.  In
        # fused mode the reshape is skipped only when *every* access to the
        # tensor goes through the flat-gather path instead.
        for name in accessed:
            plan = kernel.input_plans[name]
            if name in self._alias or plan.is_ragged:
                continue
            if self.mode != "fused" or self._dense_needs_nd(name):
                shape = ", ".join(str(s) for s in plan.layout.dense_shape())
                em.emit(f"_nd_{self._safe(name)} = "
                        f"_buf_{self._safe(name)}.reshape({shape})")
        if out_has_buffer and not kernel.output_plan.is_ragged:
            shape = ", ".join(str(s) for s in kernel.output_plan.layout.dense_shape())
            em.emit(f"_nd_{self._safe(out_name)} = "
                    f"_buf_{self._safe(out_name)}.reshape({shape})")

    def emit_bucket_body(self, em: _Emitter, accessed: Sequence[str]) -> None:
        """Emit one loop-mode bucket iteration (bounds, gathers, body).

        Assumes ``_bs`` / ``_nb`` / ``_b0`` are in scope -- shared across
        all members when composed into a fused-region kernel.
        """
        self._emit_bounds(em)
        self._emit_views(em, accessed)
        self._emit_body(em)

    def _have_aux(self) -> bool:
        try:
            for name in self._signature_tables():
                self.kernel.aux_arrays[name]
            return True
        except KeyError:
            return False

    def _dense_needs_nd(self, name: str) -> bool:
        """Whether any fused-mode access to dense tensor ``name`` takes the
        plain ``_nd_`` slicing path (no fused outer/inner index) -- such
        accesses need the reshaped view even when other accesses to the
        same tensor go through the flat gather."""
        for expr in self._walk(self.kernel.body):
            if isinstance(expr, TensorAccess) and expr.tensor.name == name:
                if not any(isinstance(idx, LoopVar)
                           and idx.dim in (self.gov_dim, self.inner_fused_dim)
                           for idx in expr.indices):
                    return True
        return False

    def _accessed_tensors(self) -> List[str]:
        seen: List[str] = []
        for expr in self._walk(self.kernel.body):
            if isinstance(expr, TensorAccess) and expr.tensor.name not in seen:
                if expr.tensor.name not in self.kernel.input_plans:
                    raise VectorizeError(
                        f"access to unknown tensor {expr.tensor.name!r}"
                    )
                seen.append(expr.tensor.name)
        return seen

    @staticmethod
    def _walk(expr: Expr):
        yield expr
        for child in expr.children():
            yield from VectorCodeGenerator._walk(child)

    @staticmethod
    def _walk_values(expr: Expr):
        """Like :meth:`_walk` but does not descend into access indices."""
        yield expr
        if isinstance(expr, TensorAccess):
            return
        for child in expr.children():
            yield from VectorCodeGenerator._walk_values(child)

    def _aux_names_used(self) -> List[str]:
        names: List[str] = []
        if self.mode == "fused":
            names.extend([f"{self.map_name}_ffo", f"{self.map_name}_ffi"])
        for vb in list(self._eff_bounds.values()) + list(self._red_bounds.values()):
            if not vb.base.is_const:
                names.append(vb.base.table_name)
        for name in self._accessed_tensors():
            if name in self._alias:
                continue  # reads come from a temporary, no gather aux
            plan = self.kernel.input_plans[name]
            if plan.is_ragged:
                if self.mode == "fused":
                    names.extend([plan.row_name, plan.stride_name])
                else:
                    names.extend([plan.row_name, plan.shape_name])
        out_plan = self.kernel.output_plan
        if out_plan.is_ragged:
            if self._alias_out is None or self._alias_out.external:
                if self.mode == "fused":
                    names.extend([out_plan.row_name, out_plan.stride_name])
                else:
                    names.extend([out_plan.row_name, out_plan.shape_name])
            elif len(self.kernel.output_dims) > 1:
                # Internal alias temporaries are padded to the storage
                # extents, read from the shape table at runtime.
                names.append(out_plan.shape_name)
        return list(dict.fromkeys(names))

    # -- bounds / views --------------------------------------------------------

    def _vb_code(self, vb: _VecBound) -> str:
        if vb.is_const:
            return str(vb.const_value())
        code = f"int(_aux_{self._safe(vb.base.table_name)}[_b0])"
        if vb.scale != 1:
            code = f"{code} * {vb.scale}"
        return code

    def _emit_bounds(self, em: _Emitter) -> None:
        for dim in self.inner_dims:
            em.emit(f"{self._bound_var[dim]} = "
                    f"{self._vb_code(self._eff_bounds[dim])}")
        for dim in self.reduce_dims:
            em.emit(f"{self._bound_var[dim]} = "
                    f"{self._vb_code(self._red_bounds[dim])}")

    def _emit_views(self, em: _Emitter, accessed: Sequence[str]) -> None:
        for name in accessed:
            if name in self._alias:
                continue  # fed from the producing member's temporary
            plan = self.kernel.input_plans[name]
            if plan.is_ragged:
                safe = self._safe(name)
                em.emit(f"_v_{safe} = _gather_slices(_buf_{safe}, "
                        f"_aux_{self._safe(plan.row_name)}, "
                        f"_aux_{self._safe(plan.shape_name)}, _bs)")

    def _emit_fused_prolog(self, em: _Emitter) -> None:
        em.emit(f"_F = {self.fused_extent}")
        em.emit(f"_ffo = _aux_{self._safe(self.map_name + '_ffo')}")
        em.emit(f"_ffi = _aux_{self._safe(self.map_name + '_ffi')}")
        self._emit_bounds(em)
        # Index arrays double as gather-offset components.
        for dim in self.inner_dims + self.reduce_dims:
            var = "_ix" + self._bound_var[dim][2:]
            em.emit(f"{var} = np.arange({self._bound_var[dim]})")
            self._index_arrays[dim] = var

    # -- body -----------------------------------------------------------------

    def _ctx_out(self) -> Tuple[Dim, ...]:
        return (self._stack_dim,) + self.inner_dims

    def _emit_body(self, em: _Emitter) -> None:
        ctx_out = self._ctx_out()
        self._reduce_code = {}
        if self.mode == "loop":
            self._index_arrays = {}
        self._gov_value_var = None
        self._inner_value_var = None
        # Loop variables used as *values* in the body become arange arrays
        # (governing-loop values become per-instance index arrays).  The walk
        # does not descend into accesses: loop variables inside tensor-access
        # indices become slices / gather offsets instead.
        for expr in self._walk_values(self.kernel.body):
            if not isinstance(expr, LoopVar):
                continue
            dim = expr.dim
            if dim is self.gov_dim and self._gov_value_var is None:
                self._gov_value_var = self._local("_ixb")
                src = "_bs" if self.mode == "loop" else "_ffo"
                em.emit(f"{self._gov_value_var} = {src}.astype(np.float64)")
            elif (self.mode == "fused" and dim is self.inner_fused_dim
                    and self._inner_value_var is None):
                self._inner_value_var = self._local("_ixf")
                em.emit(f"{self._inner_value_var} = _ffi.astype(np.float64)")
            elif (dim in self._bound_var and dim is not self._stack_dim
                    and dim not in self._index_arrays):
                var = "_ix" + self._bound_var[dim][2:]
                em.emit(f"{var} = np.arange({self._bound_var[dim]})")
                self._index_arrays[dim] = var
        body = self.kernel.body
        # Destination-passing needs float32 at every step, so that writing
        # an intermediate into the float32 store target rounds nothing: no
        # float64 index values and no constant-only calls or reductions
        # (NumPy returns those as float64).
        f32 = self.mode == "loop" and not any(
            isinstance(e, LoopVar) or (isinstance(e, (BinOp, Call, Reduce))
                                       and not self._value_dims(e))
            for e in self._walk_values(body))
        self._chain = self._dps_chain(body, ctx_out) if f32 else []
        for i, red in enumerate(self.reduces):
            if not (self._chain and red is self._chain[-1]):
                self._emit_reduce(em, red, self._local(f"_red{i}"), ctx_out)
        self._emit_store(em, body)

    @staticmethod
    def _emit_call(em: _Emitter, target: str, call: str, out: bool) -> None:
        """Emit ``call`` (lacking its ``)``) as ``target = call`` or with
        ``out=target``."""
        em.emit(f"{call}, out={target})" if out else f"{target} = {call})")

    def _emit_reduce(self, em: _Emitter, red: Reduce, temp: str,
                     ctx_out: Tuple[Dim, ...], out: bool = False) -> None:
        axes = tuple(a.dim for a in red.axes)
        for dim in axes:
            if dim not in self.kernel.reduction_bounds:
                raise VectorizeError(
                    f"reduction axis {dim.name} has no materialised bound"
                )
        if self._try_emit_einsum(em, red, temp, ctx_out, axes, out):
            return
        ctx_red = ctx_out + axes
        body_code = self._expr_code(red.body, ctx_red)
        shape = self._shape_code(ctx_red)
        axis_positions = tuple(range(len(ctx_out), len(ctx_red)))
        axis_code = (str(axis_positions[0]) if len(axis_positions) == 1
                     else repr(axis_positions))
        # Match the scalar backend's accumulator semantics (including empty
        # reductions): sum starts at ``init``, max at -inf, min at ``init``.
        call = f"np.broadcast_to({body_code}, {shape})"
        if red.combiner == "sum":
            call += f".sum(axis={axis_code}"
        elif red.combiner == "max":
            call += f".max(axis={axis_code}, initial=-np.inf"
        else:
            call += (f".min(axis={axis_code}, "
                     f"initial={self._float_code(red.init)}")
        self._emit_call(em, temp, call, out)
        if red.combiner == "sum" and float(red.init) != 0.0:
            self._emit_call(em, temp, f"np.add({temp}, "
                            f"{self._float_code(red.init)}", out)
        self._reduce_code[id(red)] = temp

    @staticmethod
    def _float_code(value: float) -> str:
        value = float(value)
        if np.isinf(value):
            return "-np.inf" if value < 0 else "np.inf"
        return repr(value)

    def _try_emit_einsum(self, em: _Emitter, red: Reduce, temp: str,
                         ctx_out: Tuple[Dim, ...], axes: Tuple[Dim, ...],
                         out: bool = False) -> bool:
        if red.combiner != "sum":
            return False
        flattened = _flatten_product(red.body)
        if flattened is None:
            return False
        consts, accesses = flattened
        if not accesses:
            return False
        infos = [self._access_info(a) for a in accesses]
        operand_dims = [dims for _, dims in infos]
        union: List[Dim] = []
        for dims in operand_dims:
            for d in dims:
                if d not in union:
                    union.append(d)
        if any(axis not in union for axis in axes):
            # A reduction axis the body never indexes multiplies the result
            # by its trip count; the broadcast path handles that correctly.
            return False
        letters: Dict[Dim, str] = {}
        for d in list(ctx_out) + list(axes):
            letters[d] = chr(ord("a") + len(letters))
        for d in union:
            if d not in letters:
                raise VectorizeError(
                    f"access dimension {d.name} is neither a loop nor a "
                    "reduction dimension"
                )
        subs = ["".join(letters[d] for d in dims) for dims in operand_dims]
        out_dims = [d for d in ctx_out if d in union and d not in axes]
        out_sub = "".join(letters[d] for d in out_dims)
        codes = [code for code, _ in infos]
        spec = ",".join(subs) + "->" + out_sub
        # The contraction is fixed here rather than planned per call: a
        # batched two-operand contraction over one axis is a matmul (what
        # ``einsum(optimize=True)`` dispatches it to), a one-operand sum
        # needs no path at all.
        k = letters[axes[0]] if len(axes) == 1 else None
        if len(codes) == 1:
            call = f"np.einsum({spec!r}, {codes[0]}"
        elif (len(codes) == 2 and k and len(out_sub) >= 2
                and subs[0][:-2] == subs[1][:-2] == out_sub[:-2]
                and subs[0][-2:] == out_sub[-2] + k
                and subs[1][-2:] in (k + out_sub[-1], out_sub[-1] + k)):
            rhs = codes[1] if subs[1][-2] == k \
                else f"{codes[1]}.swapaxes(-1, -2)"
            call = f"np.matmul({codes[0]}, {rhs}"
        else:
            call = f"np.einsum({spec!r}, {', '.join(codes)}, optimize=True"
        self._emit_call(em, temp, call, out)
        factor = float(np.prod(consts)) if consts else 1.0
        if factor != 1.0:
            self._emit_call(em, temp, f"np.multiply({temp}, {factor!r}", out)
        if float(red.init) != 0.0:
            self._emit_call(em, temp, f"np.add({temp}, {float(red.init)!r}",
                            out)
        self._reduce_code[id(red)] = self._aligned_code(temp, tuple(out_dims),
                                                        ctx_out)
        return True

    @staticmethod
    def _ufunc_of(expr: Expr) -> Tuple[Optional[str], Tuple[Expr, ...]]:
        """The NumPy ufunc ``expr`` applies and its operands, if any."""
        if isinstance(expr, BinOp) and expr.op in _NP_BINOPS:
            return _NP_BINOPS[expr.op], (expr.lhs, expr.rhs)
        if isinstance(expr, Call) and len(expr.args) == 1:
            if expr.fn == "relu":
                return "np.maximum", (Const(0.0), expr.args[0])
            if expr.fn in _NP_INTRINSICS:
                return _NP_INTRINSICS[expr.fn], expr.args
        return None, ()

    def _value_dims(self, expr: Expr) -> set:
        """The loop dims (and stack axis) the value of ``expr`` varies
        over; reductions count only their output dims."""
        if isinstance(expr, TensorAccess):
            return {self._stack_dim if i.dim is self.gov_dim else i.dim
                    for i in expr.indices if isinstance(i, LoopVar)}
        dims = set().union(*(self._value_dims(c) for c in expr.children()))
        if isinstance(expr, Reduce):
            dims -= {a.dim for a in expr.axes}
        return dims

    def _dps_chain(self, body: Expr, ctx: Tuple[Dim, ...]) -> List[Expr]:
        """``body``, then repeatedly the first operand that is itself a
        computation spanning every axis of ``ctx``: the innermost link is
        computed into the store target, each outer one updates it in place.
        A trailing reduction that cannot write there is dropped (it keeps
        its temporary)."""
        chain = [body]
        while (link := next((a for a in self._ufunc_of(chain[-1])[1]
                             if isinstance(a, (BinOp, Call, Reduce))
                             and self._value_dims(a) >= set(ctx)),
                            None)) is not None:
            chain.append(link)
        last = chain[-1]
        if isinstance(last, Reduce) and (
                sum(r is last for r in self.reduces) != 1
                or not self._value_dims(last) >= set(ctx)):
            chain.pop()
        return chain

    def _emit_into(self, em: _Emitter, chain: List[Expr], dst: str,
                   ctx: Tuple[Dim, ...]) -> None:
        """Emit ``chain`` (see :meth:`_dps_chain`) computed into ``dst``."""
        inner = None
        for expr in reversed(chain):
            ufunc, args = self._ufunc_of(expr)
            if isinstance(expr, Reduce):
                self._emit_reduce(em, expr, dst, ctx, out=True)
            elif ufunc is None:
                em.emit(f"{dst}[...] = {self._expr_code(expr, ctx)}")
            else:
                codes = [dst if a is inner else self._expr_code(a, ctx)
                         for a in args]
                em.emit(f"{ufunc}({', '.join(codes)}, out={dst})")
            inner = expr
        if not chain:
            em.emit(f"{dst}[...] = {self._expr_code(self.kernel.body, ctx)}")

    # -- expressions -----------------------------------------------------------

    def _expr_code(self, expr: Expr, ctx: Tuple[Dim, ...]) -> str:
        if isinstance(expr, Reduce):
            code = self._reduce_code.get(id(expr))
            if code is None:
                raise VectorizeError("reduction used before it was emitted")
            return code
        if isinstance(expr, Const):
            return repr(float(expr.value))
        if isinstance(expr, LoopVar):
            return self._loop_var_code(expr.dim, ctx)
        if isinstance(expr, BinOp):
            lhs = self._expr_code(expr.lhs, ctx)
            rhs = self._expr_code(expr.rhs, ctx)
            if expr.op in ("max", "min"):
                return f"{_NP_BINOPS[expr.op]}({lhs}, {rhs})"
            if expr.op not in ("+", "-", "*", "/"):
                raise VectorizeError(f"unknown operator {expr.op!r}")
            return f"({lhs} {expr.op} {rhs})"
        if isinstance(expr, Call):
            args = ", ".join(self._expr_code(a, ctx) for a in expr.args)
            if expr.fn == "relu":
                return f"np.maximum(0.0, {args})"
            fn = _NP_INTRINSICS.get(expr.fn)
            if fn is None:
                raise VectorizeError(f"unknown intrinsic {expr.fn!r}")
            return f"{fn}({args})"
        if isinstance(expr, TensorAccess):
            code, dims = self._access_info(expr)
            return self._aligned_code(code, dims, ctx)
        raise VectorizeError(f"cannot vectorize expression {expr!r}")

    def _loop_var_code(self, dim: Dim, ctx: Tuple[Dim, ...]) -> str:
        if dim is self.gov_dim:
            if self._gov_value_var is None:
                raise VectorizeError("governing index array was not emitted")
            return self._aligned_code(self._gov_value_var,
                                      (self._stack_dim,), ctx)
        if self.mode == "fused" and dim is self.inner_fused_dim:
            if self._inner_value_var is None:
                raise VectorizeError("fused index array was not emitted")
            return self._aligned_code(self._inner_value_var,
                                      (self._stack_dim,), ctx)
        if dim not in ctx:
            raise VectorizeError(
                f"loop variable {dim.name} is not available here"
            )
        var = self._index_arrays.get(dim)
        if var is None:
            raise VectorizeError(
                f"index array for {dim.name} was not pre-emitted"
            )
        return self._aligned_code(var, (dim,), ctx)

    # -- tensor accesses --------------------------------------------------------

    def _access_info(self, access: TensorAccess) -> Tuple[str, Tuple[Dim, ...]]:
        """Code + axis dims for an access.

        The returned dims follow the produced array's axis order; the stack
        sentinel marks the bucket / fused axis.
        """
        plan = self.kernel.input_plans.get(access.tensor.name)
        if plan is None:
            raise VectorizeError(
                f"access to unknown tensor {access.tensor.name!r}"
            )
        if self.mode == "fused":
            return self._access_info_fused(access, plan)
        return self._access_info_loop(access, plan)

    def _access_info_loop(self, access: TensorAccess,
                          plan: TensorPlan) -> Tuple[str, Tuple[Dim, ...]]:
        alias = self._alias.get(access.tensor.name)
        if alias is not None:
            return self._access_info_alias(access, alias)
        indices = access.indices
        if plan.is_ragged:
            first = indices[0]
            if not (isinstance(first, LoopVar) and first.dim is self.gov_dim):
                raise VectorizeError(
                    f"ragged access to {access.tensor.name!r} is not "
                    "governed by the outer loop"
                )
            inner_indices = indices[1:]
            dims: List[Dim] = [self._stack_dim]
            subs: List[str] = [":"]
            col_base = 0
        else:
            inner_indices = indices
            dims = []
            subs = []
            col_base = 0
        for col, idx in enumerate(inner_indices):
            self._check_index_fits(plan, col_base + col, idx)
            if isinstance(idx, Const):
                subs.append(str(int(idx.value)))
                continue
            if not isinstance(idx, LoopVar):
                raise VectorizeError(
                    f"unsupported index expression {idx!r} on "
                    f"{access.tensor.name!r}"
                )
            if idx.dim is self.gov_dim:
                d: Dim = self._stack_dim
                subs.append("_bs")
            else:
                var = self._bound_var.get(idx.dim)
                if var is None:
                    raise VectorizeError(
                        f"access to {access.tensor.name!r} indexes "
                        f"{idx.dim.name}, which is not a vectorized loop"
                    )
                d = idx.dim
                subs.append(f":{var}")
            if d in dims:
                # Diagonal accesses (A[b, i, i]) would need a per-element
                # gather; leave them to the scalar backend.
                raise VectorizeError(
                    f"access to {access.tensor.name!r} indexes "
                    f"{d.name} more than once"
                )
            dims.append(d)
        prefix = "_v_" if plan.is_ragged else "_nd_"
        name = f"{prefix}{self._safe(access.tensor.name)}"
        code = f"{name}[{', '.join(subs)}]" if subs else name
        return code, tuple(dims)

    def _access_info_alias(self, access: TensorAccess,
                           alias: _AliasSource) -> Tuple[str, Tuple[Dim, ...]]:
        """Read a fused-region internal value straight from its producer's
        padded loop-local temporary (axes: stack, then the producer's
        store axes at their storage-padded extents).

        The temporary reproduces buffer semantics bit-for-bit -- padded
        contiguous layout with zeros in the slack, exactly like a
        gathered arena slab -- so the consumer's own storage-padded
        extents must match the producer's, and its loop bounds must stay
        within them.  Any violation rejects the fused emission (the
        grouped fallback reproduces buffer semantics exactly).
        """
        name = access.tensor.name
        plan = self.kernel.input_plans.get(name)
        indices = access.indices
        first = indices[0] if indices else None
        if not (isinstance(first, LoopVar) and first.dim is self.gov_dim):
            raise VectorizeError(
                f"fused alias read of {name!r} is not governed by the "
                "outer loop"
            )
        inner = indices[1:]
        if len(inner) != len(alias.tables):
            raise VectorizeError(
                f"fused alias read of {name!r} has rank {len(inner)}, "
                f"producer stores rank {len(alias.tables)}"
            )
        self._alias_padding_matches(name, plan, alias)
        dims: List[Dim] = [self._stack_dim]
        subs: List[str] = [":"]
        for col, idx in enumerate(inner):
            if isinstance(idx, Const):
                needed = np.asarray([int(idx.value) + 1], dtype=np.int64)
                self._compare_fit(
                    needed, alias.tables[col], "fused consumer bound exceeds "
                    f"the producer storage extent of {name!r} axis {col}")
                subs.append(str(int(idx.value)))
                continue
            if not isinstance(idx, LoopVar) or idx.dim is self.gov_dim:
                raise VectorizeError(
                    f"unsupported index expression {idx!r} on fused alias "
                    f"read of {name!r}"
                )
            var = self._bound_var.get(idx.dim)
            if var is None:
                raise VectorizeError(
                    f"fused alias read of {name!r} indexes "
                    f"{idx.dim.name}, which is not a vectorized loop"
                )
            needed = self._vb_of(idx.dim).values(self.kernel)
            self._compare_fit(
                    needed, alias.tables[col], "fused consumer bound exceeds "
                    f"the producer storage extent of {name!r} axis {col}")
            if idx.dim in dims:
                raise VectorizeError(
                    f"fused alias read of {name!r} indexes "
                    f"{idx.dim.name} more than once"
                )
            dims.append(idx.dim)
            subs.append(f":{var}")
        code = f"{alias.var}[{', '.join(subs)}]"
        if plan is not None and not plan.is_ragged:
            # The unfused plan reads dense tensors through an
            # advanced-index copy; match its contiguity.
            code = f"np.ascontiguousarray({code})"
        return code, tuple(dims)

    def _alias_padding_matches(self, name: str, plan: Optional[TensorPlan],
                               alias: _AliasSource) -> None:
        """The consumer's storage-padded extents for ``name`` must equal
        the producer's: the unfused plan would gather an array padded to
        the *consumer's* shape table, and a padding mismatch would hand
        NumPy's layout-sensitive reductions a differently shaped operand.
        """
        if plan is None:
            raise VectorizeError(
                f"fused alias read of unknown tensor {name!r}")
        tables = self._padded_tables(plan, len(alias.tables),
                                     f"fused alias read of {name!r}")
        for col, (own, avail) in enumerate(zip(tables, alias.tables)):
            same = (np.array_equal(own, np.asarray(avail).ravel())
                    if plan.is_ragged else bool(np.all(avail == own[0])))
            if not same:
                raise VectorizeError(
                    f"fused consumer pads {name!r} axis {col} differently "
                    "from the producer's storage extents")

    def _padded_tables(self, plan: TensorPlan, rank: int,
                       what: str) -> Tuple[np.ndarray, ...]:
        """Per non-governing axis of ``plan``, its storage-padded extent
        over every governing index (one entry for a dense tensor)."""
        if not plan.is_ragged:
            dense = tuple(plan.layout.dense_shape()[1:])
            if len(dense) != rank:
                raise VectorizeError(f"{what}: dense shape {dense} does not "
                                     f"match {rank} store axes")
            return tuple(np.asarray([int(n)], dtype=np.int64) for n in dense)
        try:
            shapes = np.asarray(self.kernel.aux_arrays[plan.shape_name])
        except KeyError:
            raise VectorizeError(f"{what}: no storage shape table")
        if shapes.ndim != 2 or shapes.shape[1] != rank:
            raise VectorizeError(f"{what}: shape table rank {shapes.shape} "
                                 f"does not match {rank} store axes")
        return tuple(shapes[:, col] for col in range(rank))

    def store_bound_tables(self) -> Tuple[np.ndarray, ...]:
        """Per-store-axis *storage-padded* extents -- the shape of this
        kernel's alias temporary, and what a consuming member checks its
        reads against (loop mode only).

        These are the padded extents a gathered buffer view would have,
        not the tighter loop bounds: the temporary mirrors the buffer
        round-trip bit-for-bit (zeros in the slack, padded contiguous
        layout), because NumPy reductions are layout-sensitive at the
        ULP level.
        """
        if self.mode != "loop":
            raise VectorizeError(
                "fused-mode members cannot feed an alias temporary")
        out_plan = self.kernel.output_plan
        return self._padded_tables(out_plan, len(self.kernel.output_dims) - 1,
                                   f"output {out_plan.spec.name!r}")

    # -- fused-mode gathers ------------------------------------------------------

    def _fused_lengths(self) -> np.ndarray:
        """Per-governing-index fused (loop-padded) lengths, from the maps."""
        if self._fused_lengths_cache is None:
            ffo = np.asarray(self.kernel.aux_arrays[f"{self.map_name}_ffo"])
            row = np.asarray(self.kernel.aux_arrays[f"{self.map_name}_row"])
            total = int(ffo.size)
            self._fused_lengths_cache = np.diff(
                np.concatenate([row, [total]])).astype(np.int64)
        return self._fused_lengths_cache

    def _access_info_fused(self, access: TensorAccess,
                           plan: TensorPlan) -> Tuple[str, Tuple[Dim, ...]]:
        indices = access.indices
        uses_stack = any(
            isinstance(i, LoopVar) and i.dim in (self.gov_dim,
                                                 self.inner_fused_dim)
            for i in indices)
        if not plan.is_ragged and not uses_stack:
            # Fused-index-free dense access: plain slicing, no gather.
            return self._access_info_loop(access, plan)
        if plan.is_ragged:
            first = indices[0]
            if not (isinstance(first, LoopVar) and first.dim is self.gov_dim):
                raise VectorizeError(
                    f"ragged access to {access.tensor.name!r} is not "
                    "governed by the fused outer dim"
                )
        return self._fused_gather_code(access, plan)

    def _check_extent_fits(self, plan: TensorPlan, col: int,
                              needed: np.ndarray) -> None:
        """Reject ``needed`` extents beyond ``plan``'s storage on ``col``."""
        if plan.is_ragged:
            available = np.asarray(
                self.kernel.aux_arrays[plan.shape_name][:, col],
                dtype=np.int64)
        else:
            available = np.asarray([plan.layout.dense_shape()[col]],
                                   dtype=np.int64)
        self._compare_fit(
            needed, available, f"loop bound exceeds the storage extent of "
            f"{plan.spec.name!r} axis {col} (loop padding without matching "
            "storage padding)")

    def _fused_gather_code(self, access: TensorAccess,
                           plan: TensorPlan) -> Tuple[str, Tuple[Dim, ...]]:
        """Flat-gather code for one fused-mode access: the flat-buffer offset
        of every touched element is built as a broadcast sum of per-index
        terms, then gathered in one fancy-indexing operation."""
        safe = self._safe(access.tensor.name)
        indices = access.indices[1:] if plan.is_ragged else access.indices
        # Offset context: fused axis first, then loop-var dims in index order.
        octx: List[Dim] = [self._stack_dim]
        seen_special = 0
        for idx in indices:
            if not isinstance(idx, (Const, LoopVar)):
                raise VectorizeError(
                    f"unsupported index expression {idx!r} on "
                    f"{access.tensor.name!r}"
                )
            if isinstance(idx, LoopVar):
                if idx.dim in (self.gov_dim, self.inner_fused_dim):
                    seen_special += 1
                    if seen_special > 2 or (plan.is_ragged
                                            and idx.dim is self.gov_dim):
                        raise VectorizeError(
                            f"access to {access.tensor.name!r} re-indexes "
                            "the fused governing pair"
                        )
                elif idx.dim in octx:
                    raise VectorizeError(
                        f"access to {access.tensor.name!r} indexes "
                        f"{idx.dim.name} more than once"
                    )
                elif idx.dim in self._index_arrays:
                    octx.append(idx.dim)
                else:
                    raise VectorizeError(
                        f"access to {access.tensor.name!r} indexes "
                        f"{idx.dim.name}, which is not a vectorized loop"
                    )
        octx_t = tuple(octx)
        parts: List[str] = []
        if plan.is_ragged:
            parts.append(self._aligned_code(
                f"_aux_{self._safe(plan.row_name)}[_ffo]",
                (self._stack_dim,), octx_t))
        const_sum = 0
        for col, idx in enumerate(indices):
            if plan.is_ragged:
                stride_code = (f"_aux_{self._safe(plan.stride_name)}"
                               f"[_ffo, {col}]")
                stride_varies = True
            else:
                stride_code = str(plan.dense_strides[col])
                stride_varies = False
            if isinstance(idx, Const):
                self._check_index_fits(plan, col, idx)
                c = int(idx.value)
                if not c:
                    continue
                if stride_varies:
                    parts.append(self._aligned_code(
                        f"({c} * {stride_code})", (self._stack_dim,), octx_t))
                else:
                    const_sum += c * plan.dense_strides[col]
                continue
            if idx.dim is self.inner_fused_dim:
                self._check_extent_fits(plan, col, self._fused_lengths())
                code = "_ffi" if stride_code == "1" \
                    else f"(_ffi * {stride_code})"
                parts.append(self._aligned_code(code, (self._stack_dim,),
                                                octx_t))
            elif idx.dim is self.gov_dim:
                m = int(self._fused_lengths().size)
                self._check_extent_fits(
                    plan, col, np.asarray([m], dtype=np.int64))
                code = "_ffo" if stride_code == "1" \
                    else f"(_ffo * {stride_code})"
                parts.append(self._aligned_code(code, (self._stack_dim,),
                                                octx_t))
            else:
                self._check_index_fits(plan, col, idx)
                var = self._index_arrays[idx.dim]
                if stride_varies:
                    stride_aligned = self._aligned_code(
                        stride_code, (self._stack_dim,), octx_t)
                    var_aligned = self._aligned_code(var, (idx.dim,), octx_t)
                    parts.append(f"({stride_aligned} * {var_aligned})")
                else:
                    code = var if stride_code == "1" \
                        else f"({var} * {stride_code})"
                    parts.append(self._aligned_code(code, (idx.dim,), octx_t))
        if const_sum:
            parts.append(str(const_sum))
        offset = " + ".join(parts) if parts else "0"
        return f"_buf_{safe}[{offset}]", octx_t

    # -- index-fit validation -----------------------------------------------------

    def _check_index_fits(self, plan: TensorPlan, col: int, idx: Expr) -> None:
        """Reject (-> scalar fallback) accesses whose loop bound can exceed
        the instance's storage extent -- slicing / gathering would silently
        truncate where the scalar backend's flat-offset arithmetic does not.
        Happens when a loop is padded without matching storage padding."""
        if isinstance(idx, Const):
            needed = np.asarray([int(idx.value) + 1], dtype=np.int64)
        elif isinstance(idx, LoopVar) and idx.dim is not self.gov_dim:
            if self.mode == "fused" and idx.dim is self.inner_fused_dim:
                needed = self._fused_lengths()
            else:
                needed = self._vb_of(idx.dim).values(self.kernel)
        else:
            return
        self._check_extent_fits(plan, col, needed)

    @staticmethod
    def _compare_fit(needed: np.ndarray, available: np.ndarray,
                     message: str) -> None:
        if needed.size != available.size and 1 in (needed.size, available.size):
            exceeded = bool(np.any(needed > available))
        else:
            n = min(needed.size, available.size) or 1
            exceeded = bool(np.any(needed[:n] > available[:n]))
        if exceeded:
            raise VectorizeError(message)

    # -- alignment --------------------------------------------------------------

    def _aligned_code(self, raw: str, raw_dims: Tuple[Dim, ...],
                      ctx: Tuple[Dim, ...]) -> str:
        """Align an array whose axes are ``raw_dims`` to the ``ctx`` axis order
        (transposing and inserting broadcast axes as needed)."""
        if not raw_dims:
            return raw
        for d in raw_dims:
            if d not in ctx:
                raise VectorizeError(
                    f"dimension {d.name} is out of scope in this context"
                )
        order = [d for d in ctx if d in raw_dims]
        perm = [raw_dims.index(d) for d in order]
        code = raw
        if perm != sorted(perm):
            code = f"{code}.transpose({', '.join(map(str, perm))})"
        if len(order) == len(ctx):
            return code
        subs = ", ".join(":" if d in raw_dims else "None" for d in ctx)
        return f"{code}[{subs}]"

    def _shape_code(self, ctx: Tuple[Dim, ...]) -> str:
        parts = [self._bound_var[d] for d in ctx]
        return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"

    # -- store -------------------------------------------------------------------

    def _emit_store(self, em: _Emitter, body: Expr) -> None:
        ctx_out = self._ctx_out()
        if self.mode == "fused":
            self._emit_store_fused(em, self._expr_code(body, ctx_out))
            return
        kernel = self.kernel
        out_plan = kernel.output_plan
        safe = self._safe(out_plan.spec.name)
        store_dims = kernel.output_dims[1:]
        for col, dim in enumerate(store_dims):
            # Ragged shape columns exclude the governing axis; a dense
            # output's shape includes it at position 0.
            axis = col if out_plan.is_ragged else col + 1
            self._check_index_fits(out_plan, axis, LoopVar(dim))
        temp = self._alias_out.var if self._alias_out is not None else None
        external = temp is None or self._alias_out.external
        bounds = ", ".join(self._bound_var[d] for d in store_dims)
        region = ", ".join(f":{self._bound_var[d]}" for d in store_dims)
        slabs = (f"_buf_{safe}, _aux_{self._safe(out_plan.row_name)}, "
                 f"_aux_{self._safe(out_plan.shape_name)}, _bs, ({bounds},)")
        dst = self._local("_dst")
        if temp is not None:
            # The temporary replays the scatter/gather round-trip exactly:
            # zero-filled, padded to the storage extents, loop-bounded
            # region assigned in.  Tight-extent temps would feed NumPy's
            # layout-sensitive reductions differently (ULP divergence).
            if out_plan.is_ragged:
                em.emit(f"{temp} = np.zeros((_nb,) + tuple(int(_s) for _s "
                        f"in _aux_{self._safe(out_plan.shape_name)}[_b0]), "
                        f"dtype=np.float32)")
            else:
                pad = ", ".join(
                    str(int(s))
                    for s in out_plan.layout.dense_shape()[1:])
                em.emit(f"{temp} = np.zeros((_nb, {pad}), dtype=np.float32)")
        if not external:
            em.emit(f"{dst} = {temp}[:, {region}]")
        elif out_plan.is_ragged:
            em.emit(f"{dst} = _store_target({slabs})")
        else:
            em.emit(f"{dst} = np.empty((_nb, {bounds}), dtype=np.float32)")
        # ``dst`` is in store-axis order; the body computes in loop order.
        perm = [0] + [1 + self.inner_dims.index(d) for d in store_dims]
        target = dst
        if perm != sorted(perm):
            inverse = ", ".join(str(int(i)) for i in np.argsort(perm))
            target = f"{dst}.transpose({inverse})"
        self._emit_into(em, self._chain, target, ctx_out)
        if not external:
            return
        if out_plan.is_ragged:
            em.emit(f"_store_commit({slabs}, {dst})")
        else:
            em.emit(f"_nd_{safe}[_bs, {region}] = {dst}")
        if temp is not None:
            em.emit(f"{temp}[:, {region}] = {dst}")

    def _emit_store_fused(self, em: _Emitter, value_code: str) -> None:
        kernel = self.kernel
        out_plan = kernel.output_plan
        safe = self._safe(out_plan.spec.name)
        rest_dims = kernel.output_dims[2:]
        ctx_out = self._ctx_out()
        em.emit(f"_val = np.broadcast_to({value_code}, "
                f"{self._shape_code(ctx_out)})")
        perm = [0] + [1 + self.inner_dims.index(d) for d in rest_dims]
        val = "_val"
        if perm != sorted(perm):
            val = f"_val.transpose({', '.join(map(str, perm))})"
        if kernel.output_dims_fused:
            # Flat storage: axis 0 is the fused index itself (extent checked
            # against the loop's fused extent during analysis).
            for col, dim in enumerate(rest_dims):
                self._check_index_fits(out_plan, col + 1, LoopVar(dim))
            subs = ", ".join([":"] + [f":{self._bound_var[d]}"
                                      for d in rest_dims])
            em.emit(f"_nd_{safe}[{subs}] = {val}")
            return
        if out_plan.is_ragged:
            self._check_extent_fits(out_plan, 0, self._fused_lengths())
            octx = (self._stack_dim,) + tuple(rest_dims)
            parts = [self._aligned_code(
                f"_aux_{self._safe(out_plan.row_name)}[_ffo]",
                (self._stack_dim,), octx)]
            parts.append(self._aligned_code(
                f"(_ffi * _aux_{self._safe(out_plan.stride_name)}[_ffo, 0])",
                (self._stack_dim,), octx))
            for col, dim in enumerate(rest_dims):
                self._check_index_fits(out_plan, col + 1, LoopVar(dim))
                stride = self._aligned_code(
                    f"_aux_{self._safe(out_plan.stride_name)}"
                    f"[_ffo, {col + 1}]", (self._stack_dim,), octx)
                var = self._aligned_code(self._index_arrays[dim], (dim,), octx)
                parts.append(f"({stride} * {var})")
            em.emit(f"_buf_{safe}[{' + '.join(parts)}] = {val}")
            return
        # Dense, unfused storage: two adjacent advanced indices land the
        # fused axis at position 0, matching the value's axis order.
        m = int(self._fused_lengths().size)
        self._check_extent_fits(out_plan, 0, np.asarray([m], dtype=np.int64))
        self._check_extent_fits(out_plan, 1, self._fused_lengths())
        for col, dim in enumerate(rest_dims):
            self._check_index_fits(out_plan, col + 2, LoopVar(dim))
        subs = ", ".join(["_ffo", "_ffi"] + [f":{self._bound_var[d]}"
                                             for d in rest_dims])
        em.emit(f"_nd_{safe}[{subs}] = {val}")


class VectorBackend(CodegenBackend):
    """NumPy-vectorized backend with automatic scalar fallback.

    ``generate`` first attempts vectorized emission; a
    :class:`VectorizeError` (diagonal accesses, nested splits, loop padding
    without storage padding, exotic index expressions...) falls back to the
    scalar reference backend, whose result is marked ``backend="scalar"``
    and carries the reason in ``fallback_reason``.  ``vectorized_count`` /
    ``fallback_count`` / ``fallback_reasons`` expose the decisions to the
    executor, tests and benchmarks.
    """

    name = "vector"

    def __init__(self, fallback: Optional[CodegenBackend] = None):
        self.fallback = fallback or ScalarBackend()
        #: counts of vectorized vs fallen-back kernels, for introspection
        self.vectorized_count = 0
        self.fallback_count = 0
        #: VectorizeError reason string -> occurrence count
        self.fallback_reasons: Counter = Counter()

    def generate(self, kernel: LoweredKernel) -> GeneratedKernel:
        try:
            generated = VectorCodeGenerator(kernel).generate()
        except VectorizeError as err:
            self.fallback_count += 1
            self.fallback_reasons[str(err)] += 1
            generated = self.fallback.generate(kernel)
            generated.fallback_reason = str(err)
            return generated
        self.vectorized_count += 1
        return generated

    def reset_stats(self) -> None:
        """Zero the vectorized / fallback counters and reason map."""
        self.vectorized_count = 0
        self.fallback_count = 0
        self.fallback_reasons.clear()


def can_vectorize(kernel: LoweredKernel) -> bool:
    """Whether the vector backend can emit ``kernel`` without falling back."""
    try:
        VectorCodeGenerator(kernel).generate_source()
    except VectorizeError:
        return False
    return True


# ---------------------------------------------------------------------------
# Fused-region emission
# ---------------------------------------------------------------------------


@dataclass
class FusedMemberPlan:
    """One member of a fused region, as the executor hands it to
    :func:`generate_fused_kernel`.

    ``bindings`` maps the member's *input* tensor names to program value
    names; ``out_value`` is the program value its output feeds.  An
    ``internal`` output has no reader outside the region and lives in a
    loop-local temporary instead of a buffer.
    """

    kernel: LoweredKernel
    bindings: Dict[str, str]
    out_value: str
    internal: bool


def generate_fused_kernel(name: str,
                          members: Sequence[FusedMemberPlan],
                          ) -> GeneratedKernel:
    """Emit one vector kernel executing a whole fused region.

    Every member's body is namespaced (prefix ``m{i}``) and composed
    inside a *single* shared bucket loop, so the chain pays one Python
    dispatch and one signature-bucketing pass instead of one per member.
    Internal values flow producer -> consumer through loop-local
    temporaries (their gathers and scatters disappear along with their
    arena slabs); values with external readers are still scattered to
    their buffers and re-gathered by in-region consumers, preserving
    buffer semantics exactly.

    Legality (anything else raises :class:`VectorizeError` and the
    executor falls back to the bit-identical grouped dispatch): every
    member vectorizes in bucketed-loop mode over the *same* governing
    extent, and every alias read stays within its producer's store
    bounds (checked per governing index at compile time).
    """
    if not members:
        raise VectorizeError("fused region has no members")
    gens: List[VectorCodeGenerator] = []
    alias_reg: Dict[str, _AliasSource] = {}
    for i, m in enumerate(members):
        alias = {}
        for tensor, value in m.bindings.items():
            src = alias_reg.get(value)
            if src is not None:
                alias[tensor] = src
        out_tensor = m.kernel.output_plan.spec.name
        gen = VectorCodeGenerator(
            m.kernel,
            prefix=f"m{i}",
            value_of={**m.bindings, out_tensor: m.out_value},
            aux_ns=f"m{i}/",
            alias=alias,
            alias_out=_AliasOut(var=f"_t{i}") if m.internal else None,
        )
        if gen.mode != "loop":
            raise VectorizeError(
                f"member {m.kernel.name!r} uses a fused governing loop")
        gens.append(gen)
        if m.internal:
            alias_reg[m.out_value] = _AliasSource(
                var=f"_t{i}", tables=gen.store_bound_tables())
    gov_count = gens[0].gov_count
    for gen in gens[1:]:
        if gen.gov_count != gov_count:
            raise VectorizeError(
                "fused members disagree on the governing extent")
    # One shared bucket partition: the union of every member's signature
    # tables, so each member's per-bucket bound reads stay constant.
    arrays: List[np.ndarray] = []
    for gen in gens:
        arrays.extend(gen.kernel.aux_arrays[n]
                      for n in gen._signature_tables())
    buckets = bucket_by_signature(gov_count, arrays)
    for gen in gens:
        gen._buckets_cache = buckets

    em = _Emitter()
    fn_name = f"cora_vfused_{VectorCodeGenerator._sanitize(name)}"
    em.emit(f"def {fn_name}(buffers, aux):")
    em.push()
    em.emit(f'"""Fused vectorized CoRa kernel for region {name!r} '
            f'({len(members)} members)."""')
    accessed = [gen._accessed_tensors() for gen in gens]
    for gen, acc in zip(gens, accessed):
        gen.emit_prolog(em, acc)
    # One zero-fill per external output replaces the per-step prezero of
    # the unfused dispatch loop (internal values never need one: alias
    # reads are bound-checked against the producer's store region).
    for m, gen in zip(members, gens):
        if not m.internal:
            em.emit(f"_buf_{gen._safe(m.kernel.output_plan.spec.name)}"
                    ".fill(0.0)")
    em.emit(f"# {len(buckets)} shared instance bucket(s) over "
            f"{gov_count} governing indices")
    em.emit("for _bs in _BUCKETS:")
    em.push()
    em.emit("_nb = _bs.size")
    em.emit("_b0 = int(_bs[0])")
    for gen, acc in zip(gens, accessed):
        em.emit(f"# member {gen.kernel.name!r}")
        gen.emit_bucket_body(em, acc)
    em.pop()
    em.pop()
    source = em.source()
    namespace: Dict[str, object] = {**RUNTIME_HELPERS, "_BUCKETS": buckets}
    exec(compile(source, f"<cora-vfused:{name}>", "exec"), namespace)
    return GeneratedKernel(name=name, source=source,
                           fn=namespace[fn_name], backend="vector")
