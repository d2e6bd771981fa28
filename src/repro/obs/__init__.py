"""repro.obs -- the unified observability subsystem.

Four pieces, layered bottom-up:

* :mod:`repro.obs.registry` -- counters/gauges/histograms with labelled
  names and diffable virtual-time snapshots;
* :mod:`repro.obs.tracer` -- structured virtual-time spans (queue waits,
  lock waits/holds, compute, network deliveries) built in the kernel's
  observer seam (``sim.observer``, None when untraced), exportable as
  JSON lines;
* :mod:`repro.obs.collect` -- mirrors the existing ad-hoc cluster stats
  into a registry per sampling window;
* :mod:`repro.obs.doctor` -- the scale-doctor: a ranked bottleneck report
  (event lateness per stage, lock convoying, CPU contention -- the paper's
  section 8 colocation limits, measured on every run) plus mode-divergence
  attribution for ``ScaleCheck.compare_modes``.
"""

from .collect import ClusterCollector, SweepCollector
from .doctor import (
    Bottleneck,
    DoctorReport,
    attribute_divergence,
    diagnose,
    stage_lateness,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    QuantileHistogram,
)
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
    "ClusterCollector",
    "Counter",
    "DoctorReport",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "QuantileHistogram",
    "Span",
    "SpanTracer",
    "SweepCollector",
    "attribute_divergence",
    "diagnose",
    "stage_lateness",
]
