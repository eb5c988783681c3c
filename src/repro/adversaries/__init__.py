"""Dynamic-network adversaries.

The paper distinguishes two worst-case adversaries (Section 1.3):

* the **strongly adaptive** adversary fixes the round graph knowing the full
  state of the algorithm, including the messages about to be sent and the
  algorithm's randomness for the round;
* the **oblivious** adversary must commit to the whole topology sequence
  before the execution starts.

Both must keep every round graph connected.  This package provides the
adversary protocol, oblivious adversaries driven by schedules or lazy
generators, adaptive adversaries that attack the unicast algorithms, the
Section-2 lower-bound adversary for the local broadcast model, and a
controlled-churn adversary used to sweep the number of topological changes
``TC(E)``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.adversaries.base import Adversary
    from repro.adversaries.oblivious import (
        ScheduleAdversary,
        StaticAdversary,
        RandomChurnObliviousAdversary,
        ControlledChurnAdversary,
    )
    from repro.adversaries.adaptive import (
        AdaptiveRewiringAdversary,
        RequestCuttingAdversary,
        StarRecenterAdversary,
    )
    from repro.adversaries.lower_bound import LowerBoundAdversary

__all__ = [
    "Adversary",
    "ScheduleAdversary",
    "StaticAdversary",
    "RandomChurnObliviousAdversary",
    "ControlledChurnAdversary",
    "AdaptiveRewiringAdversary",
    "RequestCuttingAdversary",
    "StarRecenterAdversary",
    "LowerBoundAdversary",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.adversaries.base": ("Adversary",),
        "repro.adversaries.oblivious": (
            "ScheduleAdversary",
            "StaticAdversary",
            "RandomChurnObliviousAdversary",
            "ControlledChurnAdversary",
        ),
        "repro.adversaries.adaptive": (
            "AdaptiveRewiringAdversary",
            "RequestCuttingAdversary",
            "StarRecenterAdversary",
        ),
        "repro.adversaries.lower_bound": ("LowerBoundAdversary",),
    },
)
