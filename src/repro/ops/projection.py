"""Fused-vloop linear transformations (Proj1, Proj2, FF1, FF2).

All linear operators of the encoder layer act independently on every token's
hidden vector, so (Section 7.2) they can be implemented *without any
padding* by fusing the ``batch`` and ``sequence`` vloops into a single loop
over all valid tokens: the operator then reduces to a single
``(total_tokens, in) @ (in, out)`` gemm.  CoRa expresses this with
``fuse_loops`` + ``fuse_dimensions`` and only adds *bulk padding* -- a
synthetic padding "sequence" that makes the total token count a multiple of
64 -- so the gemm can be tiled without a tail.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.extents import ceil_to
from repro.core.prelude import bulk_pad_lengths
from repro.substrates.costmodel import KernelLaunch, gemm_flops


def pack_tokens(hidden: Sequence[np.ndarray]) -> np.ndarray:
    """Pack per-sequence ``(length, hidden)`` matrices into one flat matrix.

    This is the runtime effect of fusing the batch and sequence dimensions:
    the result has shape ``(sum of lengths, hidden)``.
    """
    return np.concatenate([np.asarray(h) for h in hidden], axis=0)


def unpack_tokens(flat: np.ndarray, lengths: Sequence[int]) -> List[np.ndarray]:
    """Split a packed token matrix back into per-sequence matrices."""
    out = []
    start = 0
    for n in lengths:
        out.append(flat[start:start + int(n)])
        start += int(n)
    return out


def linear_packed(tokens: np.ndarray, weight: np.ndarray,
                  bias: Optional[np.ndarray] = None) -> np.ndarray:
    """``tokens @ weight + bias`` on the packed (fused) token matrix."""
    out = tokens @ weight
    if bias is not None:
        out = out + bias
    return out


def linear_slices(hidden: Sequence[np.ndarray], weight: np.ndarray,
                  bias: Optional[np.ndarray] = None) -> List[np.ndarray]:
    """Per-sequence linear transformation (reference implementation)."""
    out = []
    for h in hidden:
        y = np.asarray(h) @ weight
        if bias is not None:
            y = y + bias
        out.append(y)
    return out


# -- program-graph node builder -----------------------------------------------


def linear_node(program: "Program", tokens: str, weight: np.ndarray,
                bias: Optional[np.ndarray] = None, name: str = "linear",
                out: Optional[str] = None) -> str:
    """Append a packed (fused-vloop) linear transformation to a program.

    ``tokens`` names a dense ``(total_tokens, in_features)`` value; the
    weight (and optional bias) become program constants.  The host step
    writes ``tokens @ weight + bias`` straight into the planned output
    buffer -- the runtime form of CoRa's fused projection operators.
    """
    weight = np.asarray(weight, dtype=np.float32)
    w = program.add_constant(f"{name}.w", weight)
    inputs = [tokens, w]
    if bias is not None:
        inputs.append(program.add_constant(
            f"{name}.b", np.asarray(bias, dtype=np.float32)))

    if bias is None:
        def _linear(out_mat, toks, w_mat):
            np.matmul(toks, w_mat, out=out_mat)
    else:
        def _linear(out_mat, toks, w_mat, b_vec):
            np.matmul(toks, w_mat, out=out_mat)
            out_mat += b_vec

    n_tokens = program.dense_shape_of(tokens)[0]
    in_features, out_features = (int(n) for n in weight.shape)
    flops = 2 * n_tokens * in_features * out_features
    if bias is not None:
        flops += n_tokens * out_features
    (value,) = program.add_host(
        name, _linear, inputs,
        output_shapes={out or name: (n_tokens, out_features)},
        fills_output=True, flops=flops)
    return value


def projection_launch(
    lengths: Sequence[int],
    in_features: int,
    out_features: int,
    name: str,
    impl_class: str = "compiler",
    bulk_pad: int = 64,
    fully_padded: bool = False,
    fused_epilogue_flops_per_token: float = 0.0,
) -> KernelLaunch:
    """Describe one linear-transformation kernel of the encoder layer.

    With ``fully_padded=True`` every sequence is padded to the batch maximum
    (the PyTorch / FT strategy); otherwise the token count is the sum of the
    lengths, bulk-padded to a multiple of ``bulk_pad`` (the CoRa / FT-Eff
    strategy).  ``fused_epilogue_flops_per_token`` accounts for bias /
    residual / activation work CoRa fuses into the same kernel.
    """
    s = np.asarray(lengths, dtype=np.int64)
    if fully_padded:
        tokens = float(s.size * s.max())
    else:
        padded, _ = bulk_pad_lengths(s, bulk_pad) if bulk_pad > 1 else (s, 0)
        tokens = float(padded.sum())
    flops = gemm_flops(tokens, out_features, in_features)
    flops += tokens * fused_epilogue_flops_per_token
    bytes_moved = (tokens * in_features + tokens * out_features
                   + in_features * out_features) * 4.0
    # Small token counts cannot amortise tile / panel setup in the gemm
    # micro-kernel: efficiency drops for tiny problems.  This is what limits
    # how far micro-batched execution (TF-UB / PT-UB) can shrink its
    # micro-batches (Table 9) and why CoRa's own schedules lose some ground
    # at very small batch sizes (Section 7.2).
    small_problem_overhead = 0.9 * max(0.0, 1.0 - tokens / 1536.0)
    return KernelLaunch(
        name=name,
        flops=flops,
        bytes_moved=bytes_moved,
        impl_class=impl_class,
        parallel_tasks=max(int(tokens // 64) * max(out_features // 64, 1), 1),
        indirect_access_overhead=small_problem_overhead,
    )
