#!/usr/bin/env python3
"""End-to-end benchmark of the repro experiment pipeline.

One *pass* is what a user waits for when running a paper experiment into
a results store, in four steps:

1. cold sweep — ``Experiment.store(dir).run()`` on an empty store: every
   cell executes in-process and persists as it completes;
2. index sync — build the sqlite warehouse index from the store's shards;
3. warm re-run — the same experiment again: the plan consults the index,
   every cell is a cache hit and nothing executes;
4. report — what ``repro analyze`` and ``repro report`` do on an indexed
   store: the indexed group-by table and the paper-vs-measured document.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

``repro`` is imported from the checkout's ``src/``; without it the
benchmark exits non-zero.  After one untimed warm-up pass it repeats
passes for ``--seconds`` (at least ``MIN_PASSES``) and reports the median
of the cold sweep, warm re-run and report over the passes;
``pipeline_s`` is the median of the four steps' sum.  Every pass builds
its workload from its own seed (``pass_seed``), so a run's medians
average over many inputs; the first timed pass repeats the warm-up's.
The short steps run several times per pass (``REPEATS``), and the garbage
collector runs before each step so that no step pays for another's
garbage.  ``setup_s`` is the median wall clock of ``SETUP_PROBES`` fresh
interpreters that import ``repro`` and plan the workload.  With
``--trace 1`` the calls into each layer are wrapped in spans (see
``layers.py``) and per-layer medians are reported instead; the spans of
the last pass are written to ``.perfbench_work/``.

**Times are reported at reference machine speed.**  On a shared machine
the interpreter's speed swings by tens of percent within a second.  While
a pass runs, a wall-clock timer (``SIGALRM``) samples a fixed
interpreter-bound calibration kernel every ``SAMPLE_INTERVAL_S``; each
step's time, less the time the samples took, is scaled by
``REFERENCE_KERNEL_S / kernel seconds`` (the median of the samples taken
during the step, one before it and one after each repeat): the time the step would
take on a machine that runs the kernel in exactly ``REFERENCE_KERNEL_S``.
Set-up probes are scaled the same way, by samples taken while the parent
waits for them.  The raw kernel time is
reported as the per-layer ``calibration_s``.  The line before the JSON
result prints the median kernel seconds and each step's raw median
seconds, so the scaling can be audited: raw ≈ value × kernel /
``REFERENCE_KERNEL_S``.

Every pass is checked: the cold sweep executes and stores every cell, the
index holds every record, the warm re-run executes nothing and returns
records identical to the cold ones, every execution completes, and the
indexed aggregate and report equal the shard-scan path's.  The first
timed pass must reproduce the warm-up pass exactly, and repetition 0 of
each warm-up scenario is re-run on the reference backend and must match
field for field.  The last line of stdout is one JSON object with
``correct``, ``attempted`` (cells executed by timed cold sweeps),
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

from layers import STAGES, LayerTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 5
SETUP_PROBES = 5
REFERENCE_KERNEL_S = 0.0003
SAMPLE_INTERVAL_S = 0.02
REPORT_TITLE = "Benchmark report"

#: Runs of each pipeline step per pass.  Each index sync starts from no
#: index and each report from a freshly synced one, whose aggregate cache
#: the report fills.
REPEATS = {"cold_sweep": 1, "index_sync": 5, "warm_rerun": 30, "report": 4}


def calibration_kernel() -> int:
    """A fixed interpreter-bound integer loop.

    Of the kernels tried (dict/json/sort work, method calls, small numpy
    matrix products, large-array streaming), this one's time tracked the
    pipeline's steps on all three workloads most closely as the machine's
    speed drifted: log-log slope 0.9-1.1.
    """
    total = 0
    for i in range(5000):
        total += i * i % 7
    return total


class SpeedSampler:
    """Runs the calibration kernel on a wall-clock timer while installed.

    ``samples`` holds each run's seconds and ``spent`` the total time the
    timer's handler took, which the steps subtract from their wall clock.
    Interrupted system calls restart, so the program under test never sees
    the signal.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    def sample(self, *_: Any) -> None:
        started = time.perf_counter()
        calibration_kernel()
        finished = time.perf_counter()
        self.samples.append(finished - started)
        self.spent += finished - started

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *_: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def import_repro() -> Any:
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    import repro.backends  # noqa: F401  (registers the execution backends)
    import repro.warehouse  # noqa: F401

    if SRC not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    return repro


def pass_seed(seed: int, index: int) -> int:
    """Workload seed of timed pass ``index`` (the warm-up pass uses index 0).

    Every pass draws fresh inputs, so a run's medians average over many
    graphs, placements and random walks rather than one seed's luck."""
    return seed * 1000 + index


def setup_probe(workload: str, seed: int) -> int:
    """Child-process body of one ``setup_s`` sample: import and plan."""
    repro = import_repro()
    store = WORK / f"setup-{os.getpid()}"
    try:
        WORKLOADS[workload](repro, pass_seed(seed, 0)).store(str(store)).plan()
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return 0


def measure_setup(workload: str, seed: int) -> float:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", workload, "--seed", str(seed),
    ]
    samples = []
    with SpeedSampler() as sampler:
        for _ in range(SETUP_PROBES):
            first = len(sampler.samples)
            sampler.sample()
            spent = sampler.spent
            started = time.perf_counter()
            subprocess.run(command, cwd=ROOT, check=True, timeout=120)
            seconds = time.perf_counter() - started - (sampler.spent - spent)
            sampler.sample()
            samples.append(seconds * REFERENCE_KERNEL_S / statistics.median(sampler.samples[first:]))
    return statistics.median(samples)


def run_pass(
    repro: Any, experiment: Any, store: Path, tracer: Optional[LayerTracer] = None
) -> Dict[str, Any]:
    """One cold sweep → index sync → warm re-run → report pass.

    The short steps run ``REPEATS`` times (each index sync on a fresh
    index) and report their median.  ``scales`` maps each step to its
    reference-speed factor, from the kernel samples taken during it.
    """
    from repro.results.aggregate import DEFAULT_GROUP_BY, DEFAULT_METRICS, aggregate_columns
    from repro.results.report import rows_to_table
    from repro.warehouse import INDEX_FILENAME, WarehouseIndex

    bound = experiment.store(str(store))
    if tracer is not None:
        bound = bound.observe(tracer.observe, timings=True)

    def sweep() -> tuple:
        run = bound.run()
        return run, run.records()

    def index_sync() -> tuple:
        with WarehouseIndex(store) as index:
            return index.sync(), index.count()

    def report() -> tuple:
        with WarehouseIndex(store) as index:
            index.sync()
            query = index.query()
            rows = query.aggregate(DEFAULT_GROUP_BY, DEFAULT_METRICS)
            table = rows_to_table(rows, aggregate_columns(DEFAULT_GROUP_BY, DEFAULT_METRICS), "md")
            document = repro.RunSet.from_records(query.records()).report("md", title=REPORT_TITLE)
        return table, document

    def drop_index() -> None:
        for suffix in ("", "-journal"):
            Path(f"{store / INDEX_FILENAME}{suffix}").unlink(missing_ok=True)

    def fresh_index() -> None:
        drop_index()
        with WarehouseIndex(store) as index:
            index.sync()

    seconds: Dict[str, float] = {}
    kernels: Dict[str, float] = {}

    def step(name: str, body: Callable[[], tuple], prepare: Callable[[], None] = lambda: None) -> tuple:
        if tracer is not None:
            tracer.phase = name
        times = []
        gc.collect()
        first = len(sampler.samples)
        sampler.sample()
        for _ in range(REPEATS[name]):
            prepare()
            spent = sampler.spent
            started = time.perf_counter()
            result = body()
            times.append(time.perf_counter() - started - (sampler.spent - spent))
            # One more sample per repeat: steps of a few milliseconds see few timer ticks.
            sampler.sample()
        seconds[name] = statistics.median(times)
        kernels[name] = statistics.median(sampler.samples[first:])
        return result

    with SpeedSampler() as sampler:
        cold, cold_records = step("cold_sweep", sweep)
        sync, indexed = step("index_sync", index_sync, prepare=drop_index)
        warm, warm_records = step("warm_rerun", sweep)
        table, document = step("report", report, prepare=fresh_index)
    if tracer is not None:
        tracer.phase = ""
    return {
        "seconds": seconds,
        "scales": {name: REFERENCE_KERNEL_S / kernel for name, kernel in kernels.items()},
        "kernel": statistics.median(sampler.samples),
        "cold": cold,
        "warm": warm,
        "cold_records": cold_records,
        "warm_records": warm_records,
        "sync": sync,
        "indexed": indexed,
        "table": table,
        "document": document,
    }


def check_pass(outcome: Dict[str, Any], cells: int, reference: Optional[Dict[str, Any]]) -> List[str]:
    """Problems with one pass; ``reference`` is the pass it must reproduce, if any."""
    problems = []
    cold, warm = outcome["cold"], outcome["warm"]
    if cold.executed_count != cells or cold.stored_count != cells:
        problems.append(f"cold sweep executed {cold.executed_count}, stored {cold.stored_count} of {cells}")
    if outcome["sync"].rows_added != cells or outcome["indexed"] != cells:
        problems.append(f"index sync added {outcome['sync'].rows_added}, holds {outcome['indexed']} of {cells}")
    if warm.executed_count != 0 or warm.cached_count != cells:
        problems.append(f"warm re-run executed {warm.executed_count}, cached {warm.cached_count}")
    if outcome["warm_records"] != outcome["cold_records"]:
        problems.append("warm re-run records differ from the cold sweep")
    if not all(record["completed"] for record in outcome["cold_records"]):
        problems.append("an execution did not complete")
    if reference is not None:
        for key in ("cold_records", "table", "document"):
            if outcome[key] != reference[key]:
                problems.append(f"{key} differ from the warm-up pass")
    return problems


def check_against_scan(repro: Any, outcome: Dict[str, Any]) -> List[str]:
    """The indexed outputs must equal the shard-scan path's."""
    from repro.results.aggregate import DEFAULT_GROUP_BY, DEFAULT_METRICS, aggregate, aggregate_columns
    from repro.results.report import rows_to_table

    records = outcome["cold_records"]
    rows = aggregate(records, DEFAULT_GROUP_BY, DEFAULT_METRICS)
    problems = []
    if rows_to_table(rows, aggregate_columns(DEFAULT_GROUP_BY, DEFAULT_METRICS), "md") != outcome["table"]:
        problems.append("indexed aggregate differs from the shard scan")
    if repro.RunSet.from_records(records).report("md", title=REPORT_TITLE) != outcome["document"]:
        problems.append("indexed report differs from the shard-scan report")
    return problems


def check_against_reference(experiment: Any, records: List[Dict[str, Any]]) -> List[str]:
    """Re-run repetition 0 of each scenario on the reference backend."""
    from repro.api import execute_cell

    def cell(record: Dict[str, Any]) -> str:
        return json.dumps({**record["spec"], "backend": None, "rep": record["repetition"]}, sort_keys=True)

    by_cell = {cell(record): record for record in records}
    problems = []
    for spec in experiment.specs():
        expected, _ = execute_cell(replace(spec, backend="reference"), 0)
        if {**expected, "spec": None} != {**by_cell[cell(expected)], "spec": None}:
            problems.append(f"{spec.label} {spec.problem_params} repetition 0 differs from the reference backend")
    return problems


def end_to_end(outcome: Dict[str, Any]) -> Dict[str, float]:
    """End-to-end figures of one untraced pass, at reference speed."""
    figures = {
        f"{name}_s": seconds * outcome["scales"][name]
        for name, seconds in outcome["seconds"].items()
    }
    figures["pipeline_s"] = sum(figures.values())
    # Building the index is mostly sqlite's fsync, whose latency follows the
    # host's disks, not the calibrated interpreter speed: too noisy to gate
    # on alone.  It counts in pipeline_s and per layer (index_sync_self_s).
    del figures["index_sync_s"]
    return figures


def per_layer(tracer: LayerTracer, outcome: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer figures of one traced pass; times at reference speed."""
    spans = tracer.self_seconds()
    scales = outcome["scales"]

    def layer(name: str, phase: Optional[str] = None) -> float:
        return sum(
            seconds * scales[span_phase] / REPEATS[span_phase]
            for (span_phase, span_name), seconds in spans.items()
            if span_name == name and phase in (None, span_phase)
        )

    records = outcome["cold_records"]
    figures = {
        "plan_cold_s": layer("plan", "cold_sweep"),
        "plan_warm_s": layer("plan", "warm_rerun"),
        "kernel_s": layer("kernel"),
        "record_build_s": layer("record_build"),
        "store_append_s": layer("store_append"),
        "index_sync_self_s": layer("index_sync", "index_sync"),
        "index_read_s": layer("index_read"),
        "index_aggregate_s": layer("index_aggregate"),
        "report_aggregates_s": layer("report_aggregates"),
        "report_bounds_s": layer("report_bounds"),
        "report_table1_s": layer("report_table1"),
        "store_appends": tracer.count("store_append", "cold_sweep"),
        "index_shards_read": outcome["sync"].shards_read,
        "rounds": sum(record["rounds"] for record in records),
        "messages": sum(record["total_messages"] for record in records),
        "calibration_s": outcome["kernel"],
    }
    for stage in STAGES:
        figures[f"stage_{stage}_s"] = scales["cold_sweep"] * tracer.stage_seconds.get(stage, 0.0)
    return figures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    repro = import_repro()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    # Keep sqlite's and python's scratch files inside the checkout too.
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(work)
    tracer = LayerTracer() if args.trace else None
    try:
        setup_s = None if args.trace else measure_setup(args.workload, args.seed)
        experiment = reference_experiment = WORKLOADS[args.workload](repro, pass_seed(args.seed, 0))
        cells = sum(spec.repetitions for spec in experiment.specs())
        if tracer is not None:
            tracer.install()

        warmup = run_pass(repro, experiment, work / "warmup", tracer)
        problems = check_pass(warmup, cells, None) + check_against_scan(repro, warmup)
        shutil.rmtree(work / "warmup")

        passes: List[Dict[str, float]] = []
        raw: List[Dict[str, float]] = []
        failed = 0
        deadline = time.perf_counter() + args.seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            index = len(passes)
            store = work / f"pass-{index}"
            if tracer is not None:
                tracer.reset()
            if index:
                experiment = WORKLOADS[args.workload](repro, pass_seed(args.seed, index))
            outcome = run_pass(repro, experiment, store, tracer)
            # Figures first: the scan check calls into traced layers too.
            passes.append(
                end_to_end(outcome) if tracer is None else per_layer(tracer, outcome)
            )
            raw.append({**outcome["seconds"], "calibration": outcome["kernel"]})
            pass_problems = check_pass(outcome, cells, None if index else warmup)
            if index:
                pass_problems += check_against_scan(repro, outcome)
            if pass_problems:
                failed += cells
                problems.extend(f"pass {index}: {problem}" for problem in pass_problems)
            shutil.rmtree(store)
        if tracer is not None:
            tracer.uninstall()
            tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")

        problems += check_against_reference(reference_experiment, warmup["cold_records"])
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    metrics = {
        name: {
            "value": statistics.median(figures[name] for figures in passes),
            "unit": "s" if name.endswith("_s") else "count",
        }
        for name in passes[0]
    }
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(passes)} passes of {cells} cells")
    medians = {name: statistics.median(figures[name] for figures in raw) for name in raw[0]}
    print("perfbench: raw median seconds " + ", ".join(f"{name} {value:.6f}" for name, value in medians.items()))
    print(json.dumps({
        "correct": not problems,
        "attempted": cells * len(passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
