"""The benchmark's workloads and the metrics each run reports.

* ``race-b32-l1`` and ``cola-b32-l6`` are offline and warm: fixed batches
  of 32 ``sample_lengths`` sequences at ``PAPER_BASE_CONFIG``, every
  batch's program built and compiled during set-up, then run back to back
  through ``Session.run``.  RACE's long sequences make SDPA compute-bound;
  CoLA's short ones through six layers make it bound by per-call overhead
  instead, so a kernel change that cuts FLOPs and one that cuts NumPy
  calls show on different workloads.  Compile and serving do no work here.
* ``serve-cola-l2`` is closed-loop serving through ``BatchScheduler``:
  16 clients, each sending its next CoLA-length request when the previous
  one is answered.  The loop is closed so that batch composition does not
  depend on timing.  It exercises program builds, compiles on new
  raggedness signatures and the scheduler.

Everything runs in one process on one driving thread, on the default
serial engine.  Inputs are generated from the seed before timing starts.
"""

from __future__ import annotations

import resource
import dataclasses
import statistics
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import reference
from perfbench.reference import GROUPS, group_flops, matches, node_group, offsets
from perfbench.tracing import (ARGS, CAT, ID, NAME, PARENT, TimedEngine, Tracer,
                               child_ms, duration_ms, install)
from repro.core.executor import Executor
from repro.core.session import Session
from repro.data.datasets import sample_lengths
from repro.models import transformer
from repro.models.config import PAPER_BASE_CONFIG as CONFIG
from repro.models.transformer import EncoderWeights, encoder_layer_workload
from repro.serving import BatchScheduler, bucketed_length
from repro.substrates.costmodel import rank_workloads

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Seconds of closed-loop serving on a throwaway scheduler before timing:
#: on a shared 2-vCPU VM the first second of a process ran several times
#: slower, a cost a long-running server does not pay per request.
SERVE_WARM_UP_S = 1.0
#: Candidate tail percentiles, highest first; a tail is reported at the
#: highest one with at least ten samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


@dataclass(frozen=True)
class Offline:
    dataset: str
    n_layers: int
    #: distinct batches, each compiled during set-up and run in turn.  RACE
    #: keeps two: each compiled RACE program holds a ~340 MB arena.
    batches: int
    #: sequences per batch that the oracle checks
    checked: int
    batch_size: int = 32
    masked: bool = False


@dataclass(frozen=True)
class Serve:
    dataset: str = "CoLA"
    n_layers: int = 2
    clients: int = 16
    max_batch_size: int = 8
    bucket_tolerance: int = 8
    #: at least this many requests, so p99 has ten samples beyond it
    min_requests: int = 1000
    #: distinct generated requests; the clients cycle through them
    pool: int = 1200
    masked: bool = True


WORKLOADS = {
    "race-b32-l1": Offline("RACE", n_layers=1, batches=2, checked=2),
    "cola-b32-l6": Offline("CoLA", n_layers=6, batches=8, checked=4),
    "serve-cola-l2": Serve(),
}


@dataclass
class Report:
    """Metrics by name as ``(value, unit, note)``, plus the error census."""

    metrics: Dict[str, Tuple[float, str, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit, note)


# -- shared helpers ------------------------------------------------------------


def _weights(n_layers: int, seed: int) -> List[EncoderWeights]:
    return [EncoderWeights.random(CONFIG, seed=seed * 100 + i)
            for i in range(n_layers)]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _add_tail(report: Report, name: str, values_ms: Sequence[float]) -> None:
    n = len(values_ms)
    for pct in TAIL_PERCENTILES:
        beyond = int(n * (100.0 - pct) / 100.0)
        if beyond >= 10:
            report.add(name, float(np.percentile(values_ms, pct)), "ms",
                       f"p{pct:g} of {n} samples, {beyond} beyond it")
            return
    report.notes.append(f"{name} omitted: {n} samples support only the median")


def _time_ms(fn: Callable[[], np.ndarray], warm_up: bool,
             reps: int = 3, budget_s: float = 2.0) -> Tuple[float, np.ndarray]:
    """Median wall time of ``fn`` over up to ``reps`` calls (fewer once
    ``budget_s`` is spent), and its last output."""
    if warm_up:
        fn()
    times: List[float] = []
    while len(times) < reps and sum(times) < budget_s:
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3, out


def _avg_ranks(values: Sequence[float]) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation (average ranks for ties); 0 when either
    side has no spread."""
    rx, ry = _avg_ranks(x), _avg_ranks(y)
    if rx.std() == 0 or ry.std() == 0:
        return 0.0
    return float(np.corrcoef(rx, ry)[0, 1])


def _floors(report: Report, cora: Callable[[], np.ndarray], tokens: np.ndarray,
            lengths: Sequence[int], weights, masked: bool) -> None:
    """CoRa against the padded-dense and bucketed floors on one batch."""
    cora_ms, cora_out = _time_ms(cora, warm_up=True)
    bucketed_ms, bucketed_out = _time_ms(
        lambda: reference.bucketed_floor(tokens, lengths, weights, CONFIG,
                                         masked), warm_up=True)
    dense_ms, dense_out = _time_ms(
        lambda: reference.dense_floor(tokens, lengths, weights, CONFIG,
                                      masked), warm_up=False)
    for floor, out in (("bucketed", bucketed_out), ("dense", dense_out)):
        if not matches(out, cora_out):
            raise RuntimeError(f"the {floor} floor disagrees with CoRa's "
                               "output; the floor is wrong")
    n = f"{len(lengths)} sequences, {int(np.sum(lengths))} tokens"
    report.add("floor.cora_ms", cora_ms, "ms", f"CoRa on the floor batch ({n})")
    report.add("floor.dense_ms", dense_ms, "ms", "padded-dense NumPy layer")
    report.add("floor.bucketed_ms", bucketed_ms, "ms",
               f"length-bucketed NumPy matmul (buckets of {CONFIG.loop_pad})")
    report.add("floor.cora_vs_dense", cora_ms / dense_ms, "ratio",
               "floor.cora_ms / floor.dense_ms")
    report.add("floor.cora_vs_bucketed", cora_ms / bucketed_ms, "ratio",
               "floor.cora_ms / floor.bucketed_ms")


def _mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _layer_metrics(report: Report, tracer: Tracer, batch_lengths: Dict[int, tuple],
                   counters: Dict[str, float], engine: TimedEngine,
                   masked: bool, n_layers: int) -> None:
    """Per-layer metrics of a traced phase.

    ``batch_lengths`` maps the span id of each batch of the phase (the
    benchmark's own batch span offline, the ``serving.step`` span when
    serving) to ``(valid lengths, program lengths)``; ``counters`` holds
    the session and executor counters read when the phase ended.
    """
    spans = tracer.spans
    kids = child_ms(spans)

    builds = [duration_ms(s) for s in spans
              if s[CAT] == "models" and s[ARGS] and s[ARGS]["built"]]
    misses = [s for s in spans
              if s[CAT] == "session.compile" and s[ARGS] and s[ARGS]["miss"]]
    executor_ms = [kids[s[ID]]["executor.compile"] for s in misses]
    report.add("models.build_ms_per_miss", _mean(builds), "ms",
               f"{len(builds)} program builds")
    report.add("session.compile_ms_per_miss",
               _mean([duration_ms(s) - e for s, e in zip(misses, executor_ms)]),
               "ms", f"self time over {len(misses)} misses")
    report.add("executor.compile_ms_per_miss", _mean(executor_ms), "ms")
    for name, unit in (("session.compiles", "count"),
                       ("session.cache_hits", "count"),
                       ("executor.lowerings", "count"),
                       ("executor.cache_hit_frac", "ratio"),
                       ("executor.fallbacks", "count")):
        report.add(name, counters[name], unit)

    runs = [s for s in spans
            if s[CAT] == "session.run" and s[PARENT] in batch_lengths]
    run_ids = {s[ID] for s in runs}
    group_ms: Dict[str, float] = defaultdict(float)
    for s in spans:
        if s[CAT] == "node" and s[PARENT] in run_ids:
            group_ms[node_group(s[NAME])] += duration_ms(s)
    n = len(runs)
    run_total = sum(duration_ms(s) for s in runs)
    node_total = sum(group_ms.values())
    useful: Dict[str, float] = defaultdict(float)
    reported = 0.0
    for s in runs:
        for group, flops in group_flops(batch_lengths[s[PARENT]][0], CONFIG,
                                        masked, n_layers).items():
            useful[group] += flops
        reported += s[ARGS]["flops"]
    for group in GROUPS:
        report.add(f"ops.{group}_ms", group_ms[group] / n, "ms",
                   "node self time per batch")
        report.add(f"ops.{group}_gflops",
                   useful[group] / (group_ms[group] / 1e3) / 1e9, "GFLOP/s",
                   f"{useful[group] / n / 1e9:.4f} useful GFLOP per batch")
    if group_ms.get("other"):
        report.notes.append(f"{group_ms['other'] / n:.3f} ms/batch of nodes "
                            "outside the Figure 13 groups")
    report.add("session.run_overhead_ms", (run_total - node_total) / n, "ms",
               "CompiledProgram.run minus its node spans, per batch")
    report.add("session.flops_reported_frac", reported / sum(useful.values()),
               "ratio", "CompiledProgram.flops / analytic useful FLOPs")
    report.add("session.arena_mb",
               sum(c.arena_bytes for c in tracer.compiled) / 2 ** 20, "MB",
               "arenas of the compiled programs still alive")
    report.add("engine.dispatches_per_batch",
               engine.steps_dispatched / engine.runs, "count")

    keys = sorted({batch_lengths[s[PARENT]][1] for s in runs})
    order = rank_workloads([encoder_layer_workload(k, "cora", CONFIG,
                                                   on_gpu=False,
                                                   num_layers=n_layers)
                            for k in keys])
    position = {keys[i]: rank for rank, i in enumerate(order)}
    report.add("costmodel.rank_corr",
               spearman([position[batch_lengths[s[PARENT]][1]] for s in runs],
                        [duration_ms(s) for s in runs]), "ratio",
               f"Spearman over {n} batches of {len(keys)} signatures")

    # Reconciliation: node spans plus run overhead against the batch time
    # the benchmark's own loop measured, and the compile census against
    # batches executed.
    outer = [s for s in spans if s[ID] in batch_lengths and s[CAT] == "bench"]
    batch_ms = (sum(duration_ms(s) for s in outer) / len(outer)) if outer \
        else run_total / n
    report.add("recon.batch_ms", batch_ms, "ms", "traced batch time")
    report.add("recon.node_plus_overhead_ms", run_total / n, "ms")
    report.add("recon.err_frac", abs(batch_ms - run_total / n) / batch_ms,
               "ratio", "must stay within 0.05")
    compiles, hits = counters["session.compiles"], counters["session.cache_hits"]
    executed = counters["batches_executed"]
    report.notes.append(
        f"compile census: {compiles:g} compiles + {hits:g} cache hits "
        f"{'=' if compiles + hits == executed else '!='} {executed:g} "
        "batches executed")


def _counters(session: Session, batches_executed: int) -> Dict[str, float]:
    codegen = session.executor.codegen_stats()
    requests = codegen["cache_hits"] + codegen["cache_misses"]
    return {
        "session.compiles": session.program_compiles,
        "session.cache_hits": session.program_cache_hits,
        "executor.lowerings": codegen["lower_count"],
        "executor.cache_hit_frac": codegen["cache_hits"] / requests
        if requests else 0.0,
        "executor.fallbacks": codegen["fallbacks"] + codegen["fused_fallbacks"],
        "batches_executed": batches_executed,
    }


# -- offline workloads ---------------------------------------------------------


@dataclass
class _OfflineSetup:
    weights: List[EncoderWeights]
    session: Session
    programs: list
    compiled: list
    seconds: float


def _setup_offline(spec: Offline, lengths: List[np.ndarray],
                   seed: int) -> _OfflineSetup:
    start = time.perf_counter()
    weights = _weights(spec.n_layers, seed)
    session = Session(executor=Executor())
    programs, compiled = [], []
    for batch in lengths:
        program = transformer.encoder_stack_program(batch, weights, CONFIG,
                                                    masked=spec.masked,
                                                    session=session)
        programs.append(program)
        compiled.append(session.compile(program))
    return _OfflineSetup(weights, session, programs, compiled,
                         time.perf_counter() - start)


@dataclass
class _Phase:
    elapsed: float = 0.0
    tokens: int = 0
    sequences: int = 0
    failed: int = 0
    #: wall time of each batch (offline) or scheduler step (serving)
    batch_ms: List[float] = field(default_factory=list)
    #: (batch index, checked output rows) per successful batch
    rows: list = field(default_factory=list)
    #: batch span id -> (valid lengths, program lengths), traced phases only
    batch_lengths: Dict[int, tuple] = field(default_factory=dict)


def _offline_phase(setup: _OfflineSetup, inputs, lengths, checked,
                   seconds: float, engine=None,
                   tracer: Optional[Tracer] = None) -> _Phase:
    """Run the batches in turn, whole passes only, for at least ``seconds``."""
    phase = _Phase()
    bounds = [offsets(batch) for batch in lengths]
    n = len(setup.programs)
    i = 0
    start = time.perf_counter()
    deadline = start + seconds
    while i < n or i % n or time.perf_counter() < deadline:
        b = i % n
        span = tracer.open("bench", "batch", {"batch": b}) if tracer else None
        t0 = time.perf_counter()
        try:
            out = setup.session.run(setup.programs[b], {"tokens": inputs[b]},
                                    engine=engine)["out_tokens"]
        except Exception:
            traceback.print_exc()
            out = None
        t1 = time.perf_counter()
        if span is not None:
            tracer.close(span)
            key = tuple(int(x) for x in lengths[b])
            phase.batch_lengths[span[ID]] = (key, key)
        phase.batch_ms.append((t1 - t0) * 1e3)
        if out is None:
            phase.failed += 1
        else:
            phase.tokens += int(bounds[b][-1])
            phase.sequences += len(lengths[b])
            phase.rows.append((b, [out[bounds[b][j]:bounds[b][j + 1]].copy()
                                   for j in checked[b]]))
        i += 1
    phase.elapsed = time.perf_counter() - start
    return phase


def _check_offline(spec: Offline, phases: Sequence[_Phase], inputs, lengths,
                   checked, weights) -> int:
    """Batches whose checked rows differ from the dense reference."""
    refs: Dict[int, list] = {}
    bad = 0
    for phase in phases:
        for b, got in phase.rows:
            if b not in refs:
                bounds = offsets(lengths[b])
                refs[b] = [reference.reference_sequence(
                    inputs[b][bounds[j]:bounds[j + 1]], weights, CONFIG,
                    spec.masked) for j in checked[b]]
            if not all(matches(g, r) for g, r in zip(got, refs[b])):
                bad += 1
    return bad


def run_offline(spec: Offline, seed: int, seconds: float, trace: bool,
                trace_path: Path, metadata: dict) -> Report:
    lengths = [sample_lengths(spec.dataset, spec.batch_size, seed * 1000 + b)
               for b in range(spec.batches)]
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal((int(batch.sum()), CONFIG.hidden_size),
                                  dtype=np.float32) for batch in lengths]
    checked = [np.sort(rng.choice(spec.batch_size, spec.checked, replace=False))
               for _ in lengths]
    report = Report()

    def warm_up(setup: _OfflineSetup) -> None:
        for compiled, tokens in zip(setup.compiled, inputs):
            compiled.run({"tokens": tokens})

    if not trace:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            setup = None  # release the previous set-up before the next
            setup = _setup_offline(spec, lengths, seed)
            setup_times.append(setup.seconds)
        warm_up(setup)
        phase = _offline_phase(setup, inputs, lengths, checked, seconds)
        report.add("peak_rss_mb", _peak_rss_mb(), "MB")
        phases = [phase]
        report.add("tokens_per_s", phase.tokens / phase.elapsed, "tokens/s",
                   "valid tokens")
        report.add("req_per_s", phase.sequences / phase.elapsed, "req/s",
                   "a request is one sequence")
        batch_p50 = statistics.median(phase.batch_ms)
        report.add("batch_ms_p50", batch_p50, "ms",
                   f"Session.run of one batch, {len(phase.batch_ms)} batches")
        _add_tail(report, "batch_ms_tail", phase.batch_ms)
        report.add("req_ms_p50", batch_p50, "ms",
                   "a batch's sequences are submitted together when it starts "
                   "and delivered when it ends")
        report.add("setup_s", statistics.median(setup_times), "s",
                   f"median of {SETUP_REPEATS} set-ups")
    else:
        tracer = Tracer()
        uninstall = install(tracer)
        try:
            setup = _setup_offline(spec, lengths, seed)
            warm_up(setup)
            engine = TimedEngine(tracer)
            traced = _offline_phase(setup, inputs, lengths, checked, seconds,
                                    engine=engine, tracer=tracer)
            counters = _counters(setup.session,
                                 len(setup.compiled) + len(traced.batch_ms))
        finally:
            uninstall()
        untraced = _offline_phase(setup, inputs, lengths, checked, seconds)
        phases = [traced, untraced]
        _layer_metrics(report, tracer, traced.batch_lengths, counters, engine,
                       spec.masked, spec.n_layers)
        report.add("trace.overhead_frac",
                   1.0 - (traced.tokens / traced.elapsed)
                   / (untraced.tokens / untraced.elapsed), "ratio",
                   "1 - traced / untraced tokens_per_s")
        _floors(report, lambda: setup.session.run(
                    setup.programs[0], {"tokens": inputs[0]})["out_tokens"],
                inputs[0], lengths[0], setup.weights, spec.masked)
        tracer.write_chrome_trace(trace_path, metadata)
        report.notes.append(f"trace written to {trace_path.name}")

    mismatched = _check_offline(spec, phases, inputs, lengths, checked,
                                setup.weights)
    report.attempted = sum(len(p.batch_ms) for p in phases)
    report.failed = sum(p.failed for p in phases) + mismatched
    report.add("error_frac", report.failed / report.attempted, "ratio",
               "failed batches / batches run")
    return report


# -- closed-loop serving -------------------------------------------------------


@dataclass
class _ServeSetup:
    weights: List[EncoderWeights]
    scheduler: BatchScheduler
    seconds: float


def _setup_serve(spec: Serve, seed: int, engine="serial") -> _ServeSetup:
    start = time.perf_counter()
    weights = _weights(spec.n_layers, seed)
    session = Session(executor=Executor(), engine=engine)
    scheduler = BatchScheduler(weights, CONFIG, session=session,
                               masked=spec.masked,
                               max_batch_size=spec.max_batch_size,
                               bucket_tolerance=spec.bucket_tolerance)
    return _ServeSetup(weights, scheduler, time.perf_counter() - start)


@dataclass
class _ServePhase(_Phase):
    submitted: int = 0
    completed: int = 0
    req_ms: List[float] = field(default_factory=list)
    #: per step: whether the session compiled a program during it
    step_missed: List[bool] = field(default_factory=list)
    #: request id -> (pool index, output) for the sampled requests
    kept: Dict[int, tuple] = field(default_factory=dict)


def _serve_phase(spec: Serve, setup: _ServeSetup, hiddens, seconds: float,
                 pick: np.random.Generator,
                 tracer: Optional[Tracer] = None) -> _ServePhase:
    """Closed loop: every answered request makes its client send the next
    one, until ``seconds`` have passed and ``min_requests`` were sent."""
    scheduler = setup.scheduler
    session = scheduler.session
    phase = _ServePhase()
    submitted_at: Dict[int, float] = {}
    source: Dict[int, int] = {}
    seen: Counter = Counter()

    def submit() -> None:
        k = len(submitted_at) % len(hiddens)
        t = time.perf_counter()
        rid = scheduler.submit(hiddens[k])
        submitted_at[rid] = t
        source[rid] = k

    start = time.perf_counter()
    deadline = start + seconds
    for _ in range(spec.clients):
        submit()
    outstanding = spec.clients
    while outstanding:
        compiles = session.program_compiles
        t0 = time.perf_counter()
        results = scheduler.step()
        t1 = time.perf_counter()
        if not results:
            break  # nothing left to run: the outstanding requests were lost
        phase.batch_ms.append((t1 - t0) * 1e3)
        phase.step_missed.append(session.program_compiles != compiles)
        for rid in results:
            seen[rid] += 1
        # Unknown ids are counted as failures once the loop ends.
        ids = sorted(rid for rid in results if rid in submitted_at)
        valid = []
        for rid in ids:
            phase.req_ms.append((t1 - submitted_at[rid]) * 1e3)
            out = results[rid]
            if isinstance(out, np.ndarray):
                phase.completed += 1
                phase.tokens += out.shape[0]
                valid.append(out.shape[0])
            else:
                phase.failed += 1
        if tracer is not None:
            step = next(s for s in reversed(tracer.spans)
                        if s[CAT] == "serving.step")
            padded = tuple(sorted((bucketed_length(n, spec.bucket_tolerance)
                                   for n in valid), reverse=True))
            phase.batch_lengths[step[ID]] = (tuple(valid), padded)
            step[ARGS] = {"requests": ids}
            for rid in ids:
                tracer.record("request", f"request {rid}",
                              int(submitted_at[rid] * 1e9), int(t1 * 1e9),
                              0, {"step": step[ID]})
        if ids:
            chosen = ids[int(pick.integers(len(ids)))]
            if isinstance(results[chosen], np.ndarray):
                phase.kept[chosen] = (source[chosen], results[chosen])
        outstanding -= len(ids)
        if t1 < deadline or len(submitted_at) < spec.min_requests:
            for _ in ids:
                submit()
            outstanding += len(ids)
    phase.elapsed = time.perf_counter() - start
    phase.submitted = len(submitted_at)
    # Exactly once: every submitted id resolved once, and no unknown ids.
    phase.failed += sum(1 for rid in submitted_at if seen[rid] != 1)
    phase.failed += sum(1 for rid in seen if rid not in submitted_at)
    return phase


def _check_serve(spec: Serve, phases: Sequence[_ServePhase], hiddens,
                 weights) -> int:
    bad = 0
    for phase in phases:
        for k, out in phase.kept.values():
            want = reference.reference_sequence(hiddens[k], weights, CONFIG,
                                                spec.masked)
            if not matches(out, want):
                bad += 1
    return bad


def run_serve(spec: Serve, seed: int, seconds: float, trace: bool,
              trace_path: Path, metadata: dict) -> Report:
    lengths = sample_lengths(spec.dataset, spec.pool, seed)
    rng = np.random.default_rng(seed)
    hiddens = [rng.standard_normal((int(n), CONFIG.hidden_size),
                                   dtype=np.float32) for n in lengths]
    report = Report()
    _serve_phase(dataclasses.replace(spec, min_requests=0),
                 _setup_serve(spec, seed), hiddens, SERVE_WARM_UP_S,
                 np.random.default_rng(seed))

    if not trace:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            setup = None  # release the previous set-up before the next
            setup = _setup_serve(spec, seed)
            setup_times.append(setup.seconds)
        phase = _serve_phase(spec, setup, hiddens, seconds,
                             np.random.default_rng([seed, 0]))
        report.add("peak_rss_mb", _peak_rss_mb(), "MB")
        phases = [phase]
        steps = phase.batch_ms
        miss = [t for t, m in zip(steps, phase.step_missed) if m]
        hit = [t for t, m in zip(steps, phase.step_missed) if not m]
        report.add("tokens_per_s", phase.tokens / phase.elapsed, "tokens/s",
                   "valid tokens")
        report.add("req_per_s", phase.completed / phase.elapsed, "req/s",
                   f"{phase.completed} requests")
        report.add("req_ms_p50", statistics.median(phase.req_ms), "ms",
                   "submit to delivery")
        report.add("req_ms_p99", float(np.percentile(phase.req_ms, 99)), "ms",
                   f"{len(phase.req_ms)} requests")
        report.add("batch_ms_p50", statistics.median(steps), "ms",
                   f"BatchScheduler.step, {len(steps)} steps")
        if miss:
            report.add("miss_batch_ms_p50", statistics.median(miss), "ms",
                       f"{len(miss)} steps that compiled")
        if hit:
            report.add("hit_batch_ms_p50", statistics.median(hit), "ms",
                       f"{len(hit)} steps that hit the program cache")
        report.add("setup_s", statistics.median(setup_times), "s",
                   f"median of {SETUP_REPEATS} set-ups")
        weights = setup.weights
    else:
        tracer = Tracer()
        uninstall = install(tracer)
        try:
            engine = TimedEngine(tracer)
            setup = _setup_serve(spec, seed, engine=engine)
            traced = _serve_phase(spec, setup, hiddens, seconds,
                                  np.random.default_rng([seed, 0]),
                                  tracer=tracer)
            counters = _counters(setup.scheduler.session,
                                 len(traced.batch_ms))
            stats = setup.scheduler.stats()
        finally:
            uninstall()
        fresh = _setup_serve(spec, seed)
        untraced = _serve_phase(spec, fresh, hiddens, seconds,
                                np.random.default_rng([seed, 1]))
        phases = [traced, untraced]
        _layer_metrics(report, tracer, traced.batch_lengths, counters, engine,
                       spec.masked, spec.n_layers)
        _serving_metrics(report, tracer, traced, stats)
        report.add("trace.overhead_frac",
                   1.0 - (traced.tokens / traced.elapsed)
                   / (untraced.tokens / untraced.elapsed), "ratio",
                   "1 - traced / untraced tokens_per_s")
        first = [int(n) for n in lengths[:spec.max_batch_size]]
        tokens = np.concatenate(hiddens[:spec.max_batch_size])
        session = fresh.scheduler.session
        program = transformer.encoder_stack_program(
            first, fresh.weights, CONFIG, masked=spec.masked, session=session)
        _floors(report, lambda: session.run(program, {"tokens": tokens})[
                    "out_tokens"], tokens, first, fresh.weights, spec.masked)
        tracer.write_chrome_trace(trace_path, metadata)
        report.notes.append(f"trace written to {trace_path.name}")
        weights = fresh.weights  # equal to the traced set-up's: same seed

    mismatched = _check_serve(spec, phases, hiddens, weights)
    report.attempted = sum(p.submitted for p in phases)
    report.failed = sum(p.failed for p in phases) + mismatched
    report.add("error_frac", report.failed / report.attempted, "ratio",
               "requests not completed, lost or duplicated, or failing the "
               "reference check, over requests sent")
    return report


def _serving_metrics(report: Report, tracer: Tracer, phase: _ServePhase,
                     stats: dict) -> None:
    kids = child_ms(tracer.spans)
    steps = [s for s in tracer.spans if s[ID] in phase.batch_lengths]
    overhead = [duration_ms(s) - kids[s[ID]]["models"]
                - kids[s[ID]]["session.compile"] - kids[s[ID]]["session.run"]
                for s in steps]
    (queue,) = [h["queue"] for h in stats["latency_by_priority"].values()]
    report.add("serving.queue_wait_ms_p50", queue["p50_s"] * 1e3, "ms",
               "scheduler latency histogram (bucket upper edge)")
    report.add("serving.overhead_ms_per_step", _mean(overhead), "ms",
               "step minus its models, compile and run children")
    report.add("serving.batch_size_mean",
               stats["num_completed"] / stats["num_batches"], "count")
    report.add("serving.padding_overhead", stats["padding_overhead"], "ratio",
               "padded / valid tokens - 1")
    report.add("serving.signature_hit_frac",
               stats["signature_hits"] / stats["num_batches"], "ratio",
               f"{stats['num_batches']} batches")


def run(workload: str, seed: int, seconds: float, trace: bool,
        trace_path: Path, metadata: dict) -> Report:
    spec = WORKLOADS[workload]
    runner = run_serve if isinstance(spec, Serve) else run_offline
    return runner(spec, seed, seconds, trace, trace_path, metadata)
