"""Serving-scale front end for the ragged program runtime.

The paper's insight I1 -- raggedness is known before execution -- pays off
twice at serving time: a whole N-layer encoder stack compiles ahead of
time into one arena-planned program per raggedness signature, and a
request scheduler can *shape* the mini-batches it forms so those
signatures recur.  This package provides the request-side half:

* :mod:`repro.serving.queue` -- individual ragged requests with their
  terminal-state lifecycle (deadlines, retry budgets) and the arrival
  queue with bounded capacity and shed policies;
* :mod:`repro.serving.scheduler` -- the continuous-batching
  :class:`BatchScheduler`, which groups pending requests into batches,
  optionally pads sequence lengths to bucket boundaries (trading a little
  masked compute for compiled-program reuse, echoing the paper's partial
  padding), runs each batch through :meth:`repro.Session.run` with
  failure isolation (split-and-retry bisection), graceful degradation
  (op-by-op fallback) and deadline enforcement, and
  demultiplexes per-request results;
* :mod:`repro.serving.admission` -- SLO-aware admission control:
  priority classes + earliest-deadline-first batch formation with a
  starvation bound, the adaptive ``bucket_tolerance`` feedback
  controller, bounded latency histograms, and the
  :class:`SimulatedClock` for deterministic virtual-time replay;
* :mod:`repro.serving.faults` -- the deterministic
  :class:`FaultInjector` exercising every recovery path above, and the
  structured :class:`FailedResult` terminal answer.
"""

from repro.serving.faults import (
    FAULT_ACTIONS,
    FailedResult,
    Fault,
    FaultInjector,
    INJECTION_POINTS,
)
from repro.serving.queue import (
    Request,
    RequestQueue,
    RequestState,
    SHED_POLICIES,
    TERMINAL_STATES,
    bucketed_length,
)
from repro.serving.admission import (
    AdaptiveTolerance,
    AdmissionPolicy,
    FifoAdmission,
    LatencyHistogram,
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    PRIORITY_STANDARD,
    PriorityDeadlineAdmission,
    SimulatedClock,
    get_admission_policy,
)
from repro.serving.scheduler import BatchScheduler, ScheduledBatch

__all__ = [
    "Request",
    "RequestQueue",
    "RequestState",
    "TERMINAL_STATES",
    "SHED_POLICIES",
    "BatchScheduler",
    "ScheduledBatch",
    "Fault",
    "FaultInjector",
    "FailedResult",
    "INJECTION_POINTS",
    "FAULT_ACTIONS",
    "bucketed_length",
    "AdmissionPolicy",
    "FifoAdmission",
    "PriorityDeadlineAdmission",
    "AdaptiveTolerance",
    "LatencyHistogram",
    "SimulatedClock",
    "get_admission_policy",
    "PRIORITY_INTERACTIVE",
    "PRIORITY_STANDARD",
    "PRIORITY_BATCH",
]
