"""The scalability-bug hunt: detect -> sweep -> confirm, end to end.

The paper's workflow is a loop humans run by hand: a static pass points at
suspicious scale-dependent code, targeted large-scale runs measure whether
the suspicion is real, and divergence/extrapolation baselines explain what
small-scale testing would have missed.  This package wires the loop into
one pipeline over the repo's own grown bug corpus:

1. **detect** (:mod:`repro.hunt.candidates` via :mod:`repro.analysis`) --
   the whole-program linter's *raw* findings become hunt candidates, each
   carrying its symbolic complexity term;
2. **sweep** (:mod:`repro.hunt.pipeline` via :mod:`repro.sweep`) -- every
   candidate with a runnable probe is swept across an N-ladder in real
   mode (plus a top-scale colocation run), reusing the content-addressed
   sweep cache so a re-hunt is warm;
3. **confirm** (:mod:`repro.hunt.confirm`) -- the fitted flap curve, the
   extrapolation baseline's miss, and colo-vs-real divergence attribution
   turn each candidate into a ``confirmed`` or ``refuted`` verdict.

The output is a ranked, machine-readable :class:`~repro.hunt.report.HuntReport`
(deterministic JSON: two hunts of the same tree are byte-identical).
"""

from .candidates import Candidate, find_candidates
from .confirm import Confirmation, confirm_candidate
from ..core.curves import CurveFit, fit_flap_curve
from .pipeline import HuntConfig, run_hunt, self_check
from .probes import PLANTED_BUG_CHECKS, Probe, probe_for
from .report import HUNT_REPORT_FORMAT, HuntReport

__all__ = [
    "Candidate",
    "Confirmation",
    "CurveFit",
    "HUNT_REPORT_FORMAT",
    "HuntConfig",
    "HuntReport",
    "PLANTED_BUG_CHECKS",
    "Probe",
    "confirm_candidate",
    "find_candidates",
    "fit_flap_curve",
    "probe_for",
    "run_hunt",
    "self_check",
]
