"""What the benchmark compares CoRa's output and time against.

* :func:`reference_sequence` -- the correctness oracle.  Sequences are
  independent inside the encoder, so one sequence run alone through
  ``run_encoder_layer_dense_reference`` (no compiler involved) must match
  its rows of a batched CoRa run.
* :func:`dense_floor` / :func:`bucketed_floor` -- the two NumPy floors:
  the padded-dense layer (the FasterTransformer analogue) and a
  length-bucketed matmul layer that pads each sequence only to the next
  multiple of ``loop_pad``.
* :func:`group_flops` -- analytic useful FLOPs per paper operator group
  (Figure 13), from the lengths and the config alone.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence

import numpy as np

from repro.models.config import TransformerConfig
from repro.models.transformer import run_encoder_layer_dense_reference
from repro.substrates.costmodel import (
    elementwise_flops,
    gemm_flops,
    layernorm_flops,
    softmax_flops,
)

#: Largest absolute difference accepted between a CoRa output row and the
#: dense reference (outputs are layer-normalised, so values are O(1); the
#: float32 differences observed are around 1e-6 per layer).
TOLERANCE = 1e-3

#: Paper Figure 13 operator groups, keyed by program node name without the
#: ``L<i>.`` layer prefix.
GROUPS = ("proj1", "qkt", "softmax", "attnv", "proj2", "ff1", "ff2")
_NODE_GROUP = {
    "proj1": "proj1", "qkv.split": "proj1",
    "sdpa.qkt": "qkt",
    "sdpa.softmax.addmask": "softmax", "sdpa.softmax.max": "softmax",
    "sdpa.softmax.exp": "softmax", "sdpa.softmax.sum": "softmax",
    "sdpa.softmax.div": "softmax",
    "sdpa.attnv": "attnv",
    "attn.merge": "proj2", "proj2": "proj2", "resid1": "proj2",
    "ln1": "proj2",
    "ff1": "ff1", "ff1.relu": "ff1",
    "ff2": "ff2", "resid2": "ff2", "ln2": "ff2",
}

#: Sequences per chunk of the padded-dense floor: every chunk is padded to
#: the whole batch's maximum length, so the arithmetic is that of the
#: fully padded batch, with a fraction of its memory.
DENSE_CHUNK = 4


def node_group(node_name: str) -> str:
    """The operator group of an encoder program node (``"other"`` if none)."""
    return _NODE_GROUP.get(node_name.split(".", 1)[1], "other")


def offsets(lengths: Sequence[int]) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)


def group_flops(lengths: Sequence[int], config: TransformerConfig,
                masked: bool, n_layers: int) -> Dict[str, float]:
    """Useful FLOPs of each operator group for one batch of ``lengths``
    through ``n_layers`` layers (causal masking halves the quadratic
    terms, as in ``repro.analysis.flops``)."""
    s = np.asarray(lengths, dtype=np.float64)
    tokens = float(s.sum())
    h, f, heads, d = (config.hidden_size, config.ff_size, config.num_heads,
                      config.head_size)
    half = 0.5 if masked else 1.0
    per_layer = {
        "proj1": gemm_flops(tokens, 3 * h, h) + elementwise_flops(tokens * 3 * h),
        "qkt": half * float((heads * gemm_flops(s, s, d)).sum()),
        "softmax": half * float((heads * softmax_flops(s, s)).sum()),
        "attnv": half * float((heads * gemm_flops(s, d, s)).sum()),
        "proj2": (gemm_flops(tokens, h, h) + elementwise_flops(tokens * h, 2)
                  + layernorm_flops(tokens, h)),
        "ff1": gemm_flops(tokens, f, h) + elementwise_flops(tokens * f, 2),
        "ff2": (gemm_flops(tokens, h, f) + elementwise_flops(tokens * h, 2)
                + layernorm_flops(tokens, h)),
    }
    return {group: n_layers * value for group, value in per_layer.items()}


def reference_sequence(hidden: np.ndarray, weights: Sequence,
                       config: TransformerConfig, masked: bool) -> np.ndarray:
    """One ``(length, hidden)`` sequence through the stack, layer by layer,
    on the dense reference path."""
    out = hidden[None]
    for layer in weights:
        out = run_encoder_layer_dense_reference(out, [hidden.shape[0]], layer,
                                                config, masked=masked)
    return out[0]


def matches(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= TOLERANCE))


def dense_floor(tokens: np.ndarray, lengths: Sequence[int], weights: Sequence,
                config: TransformerConfig, masked: bool) -> np.ndarray:
    """The padded-dense stack on a packed batch; returns packed outputs."""
    lengths = [int(n) for n in lengths]
    off = offsets(lengths)
    max_len = max(lengths)
    out = np.empty_like(tokens)
    for c in range(0, len(lengths), DENSE_CHUNK):
        chunk = lengths[c:c + DENSE_CHUNK]
        dense = np.zeros((len(chunk), max_len, config.hidden_size), np.float32)
        for j, n in enumerate(chunk):
            dense[j, :n] = tokens[off[c + j]:off[c + j + 1]]
        for layer in weights:
            dense = run_encoder_layer_dense_reference(dense, chunk, layer,
                                                      config, masked=masked)
        for j, n in enumerate(chunk):
            out[off[c + j]:off[c + j + 1]] = dense[j, :n]
    return out


def _layernorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + 1e-5) * gamma + beta


def _bucketed_layer(tokens: np.ndarray, lengths: List[int], w,
                    config: TransformerConfig, masked: bool) -> np.ndarray:
    h, heads, d = config.hidden_size, config.num_heads, config.head_size
    pad = config.loop_pad
    off = offsets(lengths)
    qkv = tokens @ w.wqkv + w.bqkv
    attn = np.empty_like(tokens)
    buckets: Dict[int, List[int]] = defaultdict(list)
    for i, n in enumerate(lengths):
        buckets[-(-n // pad) * pad].append(i)
    scale = np.float32(1.0 / np.sqrt(d))
    for width, members in buckets.items():
        lens = np.asarray([lengths[i] for i in members])
        packed = np.zeros((len(members), width, 3, heads, d), np.float32)
        for j, i in enumerate(members):
            packed[j, :lengths[i]] = qkv[off[i]:off[i + 1]].reshape(-1, 3, heads, d)
        q, k, v = packed.transpose(2, 0, 3, 1, 4)  # each (m, heads, width, d)
        scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * scale
        keep = (np.arange(width)[None, :] < lens[:, None])[:, None, None, :]
        if masked:
            keep = keep & np.tril(np.ones((width, width), bool))[None, None]
        scores = np.where(keep, scores, -np.inf)
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        ctx = np.matmul(scores, v).transpose(0, 2, 1, 3).reshape(
            len(members), width, h)
        for j, i in enumerate(members):
            attn[off[i]:off[i + 1]] = ctx[j, :lengths[i]]
    norm1 = _layernorm(attn @ w.wo + w.bo + tokens, w.ln1_gamma, w.ln1_beta)
    ff1 = np.maximum(norm1 @ w.w1 + w.b1, 0.0)
    return _layernorm(ff1 @ w.w2 + w.b2 + norm1, w.ln2_gamma,
                      w.ln2_beta).astype(np.float32)


def bucketed_floor(tokens: np.ndarray, lengths: Sequence[int],
                   weights: Sequence, config: TransformerConfig,
                   masked: bool) -> np.ndarray:
    """The length-bucketed NumPy-matmul stack; returns packed outputs."""
    lengths = [int(n) for n in lengths]
    out = tokens
    for layer in weights:
        out = _bucketed_layer(out, lengths, layer, config, masked)
    return out
