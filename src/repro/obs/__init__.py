"""repro.obs -- the observability subsystem.

A run reports what it did through its
:class:`~repro.cassandra.metrics.RunReport` (a sweep through its
:class:`~repro.sweep.executor.SweepSummary`, a step-(f) replay through the
periodic :class:`~repro.cassandra.sampler.ClusterSampler`).  This package
holds what explains those numbers:

* :mod:`repro.obs.tracer` -- structured virtual-time spans (queue waits,
  lock waits/holds, compute, network deliveries) built in the kernel's
  observer seam (``sim.observer``, None when untraced), exportable as
  JSON lines;
* :mod:`repro.obs.doctor` -- the scale-doctor: a ranked bottleneck report
  (event lateness per stage, lock convoying, CPU contention -- the paper's
  section 8 colocation limits, measured on every run) plus mode-divergence
  attribution for ``ScaleCheck.compare_modes``;
* :mod:`repro.obs.histogram` -- the weighted latency histogram behind a
  workload run's p50/p99/p999.
"""

from .doctor import (
    Bottleneck,
    DoctorReport,
    attribute_divergence,
    diagnose,
    stage_lateness,
)
from .histogram import QuantileHistogram
from .tracer import (
    CAT_COMPUTE,
    CAT_LOCK_HOLD,
    CAT_LOCK_WAIT,
    CAT_NET,
    CAT_QUEUE,
    Span,
    SpanTracer,
)

__all__ = [
    "Bottleneck",
    "CAT_COMPUTE",
    "CAT_LOCK_HOLD",
    "CAT_LOCK_WAIT",
    "CAT_NET",
    "CAT_QUEUE",
    "DoctorReport",
    "QuantileHistogram",
    "Span",
    "SpanTracer",
    "attribute_divergence",
    "diagnose",
    "stage_lateness",
]
