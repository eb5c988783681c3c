"""Analysis tools: closed-form bounds, potential tracking, scaling fits, reports.

This package turns raw :class:`~repro.core.result.ExecutionResult` objects
into the quantities the paper reports:

* :mod:`repro.analysis.bounds` — closed-form evaluations of every bound
  stated in the paper (Theorems 2.3, 3.1, 3.4, 3.5, 3.6, 3.8 and Table 1);
* :mod:`repro.analysis.potential` — the potential function ``Φ(t)`` of the
  Section-2 lower-bound argument;
* :mod:`repro.analysis.experiments` — power-law fitting of measured
  scaling series;
* :mod:`repro.analysis.reporting` — plain-text table renderers used by the
  benchmark harnesses and EXPERIMENTS.md.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.analysis.bounds import (
        log2n,
        flooding_amortized_upper_bound,
        local_broadcast_lower_bound,
        static_spanning_tree_amortized,
        single_source_competitive_bound,
        multi_source_competitive_bound,
        oblivious_total_message_bound,
        oblivious_amortized_bound,
        table1_amortized_bound,
        table1_rows,
        naive_unicast_amortized_upper_bound,
        single_source_round_bound,
    )
    from repro.analysis.potential import PotentialTracker, potential_of_knowledge
    from repro.analysis.experiments import fit_power_law, scaling_exponent
    from repro.analysis.reporting import (
        format_table,
        render_table1,
        render_paper_vs_measured,
    )

__all__ = [
    "log2n",
    "flooding_amortized_upper_bound",
    "local_broadcast_lower_bound",
    "static_spanning_tree_amortized",
    "single_source_competitive_bound",
    "multi_source_competitive_bound",
    "oblivious_total_message_bound",
    "oblivious_amortized_bound",
    "table1_amortized_bound",
    "table1_rows",
    "naive_unicast_amortized_upper_bound",
    "single_source_round_bound",
    "PotentialTracker",
    "potential_of_knowledge",
    "fit_power_law",
    "scaling_exponent",
    "format_table",
    "render_table1",
    "render_paper_vs_measured",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.analysis.bounds": (
            "log2n",
            "flooding_amortized_upper_bound",
            "local_broadcast_lower_bound",
            "static_spanning_tree_amortized",
            "single_source_competitive_bound",
            "multi_source_competitive_bound",
            "oblivious_total_message_bound",
            "oblivious_amortized_bound",
            "table1_amortized_bound",
            "table1_rows",
            "naive_unicast_amortized_upper_bound",
            "single_source_round_bound",
        ),
        "repro.analysis.potential": ("PotentialTracker", "potential_of_knowledge"),
        "repro.analysis.experiments": ("fit_power_law", "scaling_exponent"),
        "repro.analysis.reporting": (
            "format_table",
            "render_table1",
            "render_paper_vs_measured",
        ),
    },
)
