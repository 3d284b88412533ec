"""Wide execution: does fusing K request groups into one program pay?

``merge_programs`` fuses K independent request groups into one wide
program (disjoint subgraphs sharing the weight constants).  One compiled
run then serves all K groups, so the per-run overheads -- input binding,
the dispatch loop's entry, output extraction -- are paid once instead of
K times.  This benchmark measures that on the serial engine: for K in
{1, 2, 4, 8} it times the *narrow* path (K separate stack-program runs,
one per group) against the *merged* path (one run of the fused K-group
program), interleaving the two per repeat so both see the same host
load, and records requests/sec, the merged-over-narrow speedup (with
the interquartile ranges), and the fused-arena footprint against K
separate arenas.  Full runs use paper shape: ``PAPER_BASE_CONFIG`` with
each group a CoLA batch of 8 (``sample_lengths``).

``--smoke`` asserts what does not depend on the host: every merged
output equals the per-group narrow output bit for bit, and
arena(fused K) < K x arena(single) for K > 1.

Writes ``benchmarks/results/bench_wide.{txt,json}`` and the trajectory
artifact ``BENCH_wide.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.core.session import Session
from repro.data.datasets import sample_lengths
from repro.models.config import PAPER_BASE_CONFIG, TransformerConfig
from repro.models.transformer import (
    EncoderWeights,
    encoder_stack_program,
    encoder_wide_program,
)

from harness import format_row, write_json_result, write_result

_WIDTHS = [4, 11, 11, 11, 11, 9, 8]
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _groups(k: int, per_group: int, config: TransformerConfig, seed: int,
            dataset=None, low: int = 2, high: int = 9):
    """K request groups: CoLA-sampled lengths when ``dataset`` is given,
    else uniform in ``[low, high)``; plus their packed random inputs."""
    rng = np.random.default_rng(seed)
    groups, inputs = [], []
    for i in range(k):
        if dataset is None:
            lengths = rng.integers(low, high, size=per_group)
        else:
            lengths = sample_lengths(dataset, per_group, seed=seed * 16 + i)
        lengths = tuple(int(n) for n in lengths)
        groups.append(lengths)
        inputs.append(np.concatenate(
            [rng.standard_normal((n, config.hidden_size)).astype(np.float32)
             for n in lengths], axis=0))
    return groups, inputs


def _elapsed_ms(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


def _quartiles(times):
    q1, q2, q3 = np.percentile(times, [25, 50, 75])
    return float(q1), float(q2), float(q3)


def run_benchmark(smoke: bool = False) -> dict:
    if smoke:
        config = TransformerConfig(hidden_size=16, num_heads=2, head_size=8,
                                   ff_size=32, num_layers=2, loop_pad=4,
                                   bulk_pad=8, attention_tile=8)
        ks, per_group, repeats, dataset = (1, 2, 4), 2, 5, None
    else:
        config = PAPER_BASE_CONFIG
        ks, per_group, repeats, dataset = (1, 2, 4, 8), 8, 21, "CoLA"
    n_layers = 2
    weights = EncoderWeights.random(config, seed=2)
    session = Session(backend="vector", engine="serial")

    rows = [format_row(["K", "narrow ms", "merged ms", "narrow r/s",
                        "merged r/s", "speedup", "bit-id"], _WIDTHS)]
    payload = {
        "host": {"cpus": os.cpu_count() or 1},
        "config": {"hidden_size": config.hidden_size, "n_layers": n_layers,
                   "per_group": per_group, "repeats": repeats,
                   "dataset": dataset,
                   "engine": "serial", "smoke": bool(smoke)},
        "k_sweep": {},
    }

    for k in ks:
        groups, inputs = _groups(k, per_group, config, seed=40 + k,
                                 dataset=dataset)
        narrow = [encoder_stack_program(lengths, weights, config, masked=True,
                                        n_layers=n_layers, session=session)
                  for lengths in groups]
        wide = encoder_wide_program(groups, weights, config, masked=True,
                                    n_layers=n_layers, session=session)
        info = wide.merge_info
        if info is not None:
            bound = {info.input_name(i, "tokens"): packed
                     for i, packed in enumerate(inputs)}
            out_names = [info.output_name(i, "out_tokens") for i in range(k)]
        else:  # K == 1: the wide program IS the stack program
            bound = {"tokens": inputs[0]}
            out_names = ["out_tokens"]

        # Warm both paths (compile), then check bit-identity.
        refs = [session.run(program, {"tokens": packed})["out_tokens"]
                for program, packed in zip(narrow, inputs)]
        outs = session.run(wide, bound)
        bit_identical = all(np.array_equal(outs[name], ref)
                            for name, ref in zip(out_names, refs))

        def run_narrow():
            for program, packed in zip(narrow, inputs):
                session.run(program, {"tokens": packed}, copy_outputs=False)

        def run_merged():
            session.run(wide, bound, copy_outputs=False)

        # Interleave per repeat, alternating which path goes first.
        times = {"narrow": [], "merged": []}
        for it in range(repeats):
            order = ("narrow", "merged") if it % 2 == 0 \
                else ("merged", "narrow")
            for name in order:
                fn = run_narrow if name == "narrow" else run_merged
                times[name].append(_elapsed_ms(fn))

        requests = k * per_group
        nq1, narrow_ms, nq3 = _quartiles(times["narrow"])
        mq1, merged_ms, mq3 = _quartiles(times["merged"])
        plan_single = session.compile(narrow[0]).plan
        plan_wide = session.compile(wide).plan
        entry = {
            "groups": [list(g) for g in groups],
            "bit_identical": bool(bit_identical),
            "narrow_p50_ms": narrow_ms,
            "narrow_iqr_ms": nq3 - nq1,
            "merged_p50_ms": merged_ms,
            "merged_iqr_ms": mq3 - mq1,
            "narrow_requests_per_s": requests / (narrow_ms / 1e3),
            "merged_requests_per_s": requests / (merged_ms / 1e3),
            "merged_speedup": narrow_ms / merged_ms,
            "steps_narrow": sum(len(session.compile(p).plan.order)
                                for p in narrow),
            "steps_merged": len(plan_wide.order),
            "arena_bytes_fused": plan_wide.arena_bytes,
            "arena_bytes_k_singles": k * plan_single.arena_bytes,
        }
        payload["k_sweep"][str(k)] = entry
        rows.append(format_row(
            [k, narrow_ms, merged_ms, entry["narrow_requests_per_s"],
             entry["merged_requests_per_s"], entry["merged_speedup"],
             "yes" if bit_identical else "NO"], _WIDTHS))

    write_result("bench_wide", rows)
    write_json_result("bench_wide", payload)
    if not smoke:
        # the committed trajectory artifact tracks the full sweep only;
        # CI smoke runs must not clobber it with reduced-problem numbers
        with open(os.path.join(_REPO_ROOT, "BENCH_wide.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    session.close()
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced problem + assert bit-identity and "
                             "the fused-arena bound")
    args = parser.parse_args(argv)
    payload = run_benchmark(smoke=args.smoke)
    if args.smoke:
        for k_str, entry in payload["k_sweep"].items():
            k = int(k_str)
            assert entry["bit_identical"], (
                f"K={k}: merged output != per-group narrow output")
            if k > 1:
                fused = entry["arena_bytes_fused"]
                singles = entry["arena_bytes_k_singles"]
                assert fused < singles, (
                    f"K={k}: fused arena {fused} not below K x single "
                    f"{singles}")
        print("smoke checks passed: merged outputs bit-identical to "
              "narrow runs, arena(fused K) < K x arena(single)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
