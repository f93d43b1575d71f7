"""Online adaptive remapping: profile, detect, decide, migrate — live.

The offline pipeline selects mappings once from a profiling run; this
package closes the loop at runtime.  A streaming estimator
(:class:`StreamingBFRV`) keeps decayed bit-flip statistics over the
external trace, a :class:`PhaseDetector` flags when they diverge from
the vector that justified the current mapping, a :class:`RemapPolicy`
prices the switch against live-migration cost with fixed constants
(margin 1.2 over an 8-window horizon, 4-window cooldown), and the
:class:`AdaptiveController` executes approved remaps through the
existing CMT/AMU/migration machinery.  :func:`run_adaptive_campaign`
is the seeded adaptive-vs-static experiment behind
``python -m repro adapt``.
"""

from repro.lazy import lazy_exports
from repro.online.stream import StreamingBFRV

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "AdaptiveCampaignResult": ("repro.online.campaign", "AdaptiveCampaignResult"),
        "run_adaptive_campaign": ("repro.online.campaign", "run_adaptive_campaign"),
        "AdaptiveController": ("repro.online.controller", "AdaptiveController"),
        "PhaseDetector": ("repro.online.phase", "PhaseDetector"),
        "PhaseEvent": ("repro.online.phase", "PhaseEvent"),
        "bfrv_distance": ("repro.online.phase", "bfrv_distance"),
        "RemapDecision": ("repro.online.policy", "RemapDecision"),
        "RemapPolicy": ("repro.online.policy", "RemapPolicy"),
    },
)

__all__ = [
    "AdaptiveCampaignResult",
    "AdaptiveController",
    "PhaseDetector",
    "PhaseEvent",
    "RemapDecision",
    "RemapPolicy",
    "StreamingBFRV",
    "bfrv_distance",
    "run_adaptive_campaign",
]
