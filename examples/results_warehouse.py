#!/usr/bin/env python3
"""Results warehouse walkthrough: run → store → aggregate → compare → report.

This example closes the loop the Scenario API opens.  PR-style pipeline:

1. a parameter sweep is expanded into :class:`repro.ScenarioSpec` objects
   and executed with the parallel-capable :class:`repro.Experiment`;
2. the emitted records are merged into an on-disk :class:`repro.RunStore`
   (idempotent: merging the same sweep twice changes nothing);
3. the store is queried and aggregated with bootstrap confidence intervals;
4. the measured scaling is compared against the paper's closed-form bounds
   (log-log slope fit → within-bound verdict);
5. the full markdown report — including the paper-vs-measured Table 1 —
   is rendered.

The same pipeline from the shell::

    python -m repro sweep --grid '{"num_nodes": [8, 12, 16]}' \\
        -n 8 -k 16 --repetitions 3 --store warehouse
    python -m repro analyze warehouse --bounds
    python -m repro report warehouse --output report.md

Run with::

    python examples/results_warehouse.py
"""

import tempfile

from repro import Experiment, ScenarioSpec, sweep
from repro.results import (
    RunStore,
    aggregate,
    compare_to_bounds,
    render_report,
    rows_to_table,
)
from repro.results.report import COMPARISON_COLUMNS


def main(num_repetitions: int = 3) -> None:
    base = ScenarioSpec(
        problem="single-source",
        problem_params={"num_nodes": 8, "num_tokens": 16},
        algorithm="single-source",
        adversary="churn",
        adversary_params={"changes_per_round": 3, "edge_probability": 0.3},
        repetitions=num_repetitions,
        name="warehouse-demo",
    )
    specs = sweep(base, {"problem.num_nodes": [8, 12, 16]})

    with tempfile.TemporaryDirectory() as tmp:
        store = RunStore(f"{tmp}/warehouse")

        records = Experiment.from_specs(specs).run().records()
        added, skipped = store.add(records)
        print(f"first merge : {added} added, {skipped} skipped")

        # Idempotence: re-running the identical sweep adds nothing.
        added, skipped = store.add(Experiment.from_specs(specs).run().records())
        print(f"second merge: {added} added, {skipped} skipped")

        rows = aggregate(store.records(), group_by=("algorithm", "n"))
        for row in rows:
            print(
                f"n={row['n']}: amortized competitive "
                f"{row['amortized_adversary_competitive_mean']:.2f} "
                f"[{row['amortized_adversary_competitive_ci_low']:.2f}, "
                f"{row['amortized_adversary_competitive_ci_high']:.2f}] "
                f"over {row['runs']} runs"
            )

        print()
        print(rows_to_table(compare_to_bounds(store.records()), COMPARISON_COLUMNS, "text"))
        print()
        print(render_report(store.records(), group_by=("algorithm", "n")))


if __name__ == "__main__":
    main()
