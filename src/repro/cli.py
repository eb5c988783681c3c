"""Command-line interface.

``python -m repro`` exposes the most common workflows without writing any
code.  All commands are driven by the scenario registries
(:mod:`repro.scenarios`), so newly registered algorithms, adversaries and
problems show up automatically:

* ``run`` — execute one scenario (from flags or a spec JSON file) and print
  the paper's cost measures;
* ``sweep`` — expand a parameter grid into a batch of scenarios, run it
  (optionally across worker processes) and persist JSONL records;
* ``analyze`` — aggregate run records (from a JSONL file, a run-store
  directory or stdin) with confidence intervals, and optionally compare the
  measured scaling against the paper's bounds;
* ``report`` — render the full paper-vs-measured markdown report;
* ``verify-backend`` — differentially validate an execution backend against
  the reference engine on a seeded scenario grid covering every registered
  algorithm under oblivious and adaptive adversaries;
* ``bench`` — time the backends on the benchmark grid, write the perf
  trajectory, and optionally enforce a minimum fast-path speedup;
* ``list`` — enumerate the registered algorithms, adversaries, problems and
  execution backends with their tunable parameters (algorithms with a
  native bitset fast program are marked);
* ``trace`` — inspect JSONL trace files written by ``run``/``sweep``
  ``--trace``: ``trace summarize`` renders a per-backend, per-stage
  (Commit/Adversary/Delivery/Accounting) timing table;
* ``warehouse`` — maintain the sqlite index over a run store
  (``sync``/``rebuild``), count, aggregate or take percentiles of its
  records (``query``) and render the consolidated cross-experiment report
  (``report``); only these commands read the index, ``analyze`` and
  ``report`` read a store's shards;
* ``table1`` — regenerate Table 1 (analytic bounds) for a given n;
* ``bounds`` — evaluate every theorem bound at a given (n, k, s).

Global flags (before the subcommand): ``-v``/``-vv`` raise the log level
to INFO/DEBUG, ``-q`` silences everything below ERROR, and ``--log-level``
sets it explicitly — all wired to the ``repro`` stdlib logger
(:mod:`repro.obs.logs`), so library warnings surface uniformly.

Examples::

    python -m repro run --algorithm single-source --adversary churn -n 20 -k 40
    python -m repro run --algorithm flooding --adversary static-random \\
        -n 128 -k 128 --backend bitset
    python -m repro run --spec scenario.json --json
    python -m repro verify-backend
    python -m repro list
    python -m repro sweep --algorithm single-source --adversary churn \\
        -n 16 -k 32 --grid problem.num_nodes=16,32,64 --repetitions 3 \\
        --workers 2 --output results.jsonl --store results-store
    python -m repro sweep --grid '{"num_nodes": [8, 16, 32]}' --json \\
        | python -m repro analyze --bounds
    python -m repro analyze results-store/ --group-by algorithm,n --format csv
    python -m repro report results-store/ --output report.md
    python -m repro table1 -n 4096
    python -m repro bounds -n 1024 -k 2048 -s 8
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import repro
from repro.analysis.bounds import (
    flooding_amortized_upper_bound,
    local_broadcast_lower_bound,
    multi_source_competitive_bound,
    oblivious_amortized_bound,
    single_source_competitive_bound,
    static_spanning_tree_amortized,
)
from repro.analysis.reporting import format_table, render_table1
from repro.api import Experiment, RunSet, _normalize_dimension_key, load_runs
from repro.backends import BACKEND_REGISTRY, DEFAULT_BACKEND
from repro.scenarios import (
    ADVERSARY_REGISTRY,
    ALGORITHM_REGISTRY,
    PROBLEM_REGISTRY,
    ScenarioSpec,
    record_to_json_line,
    run_scenario,
    sweep,
)
from repro.scenarios.registry import Registry
from repro.utils.validation import ConfigurationError, ReproError

#: Deprecated aliases kept for backwards compatibility: the registries are
#: the source of truth; these views expose ``name -> zero-argument factory``.
ALGORITHMS: Dict[str, Callable[[], object]] = {
    name: ALGORITHM_REGISTRY.get(name).create for name in ALGORITHM_REGISTRY.names()
}
ADVERSARIES: Dict[str, Callable[[], object]] = {
    name: ADVERSARY_REGISTRY.get(name).create for name in ADVERSARY_REGISTRY.names()
}

_DEFAULT_TOKENS = 40

_REGISTRY_PLURALS = {
    "algorithm": "algorithms",
    "adversary": "adversaries",
    "problem": "problems",
    "backend": "backends",
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'The Communication Cost of Information Spreading "
        "in Dynamic Networks' (ICDCS 2019).",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {repro.__version__}",
        help="print the package version and exit",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="raise the log level: -v shows INFO, -vv shows DEBUG",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="silence library logging below ERROR",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="explicit log level (DEBUG, INFO, WARNING, ERROR); overrides -v/-q",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run", help="run one scenario and print the cost measures"
    )
    _add_scenario_arguments(run)
    run.add_argument(
        "--spec",
        metavar="FILE",
        default=None,
        help="load the scenario from a ScenarioSpec JSON file instead of flags",
    )
    run.add_argument(
        "--json", action="store_true", help="emit the result record(s) as JSON lines"
    )
    run.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a JSONL trace (progress events + per-stage timings); "
        "inspect it with 'repro trace summarize FILE'",
    )

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a parameter-grid sweep of scenarios, optionally in parallel"
    )
    _add_scenario_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help="sweep dimension, e.g. problem.num_nodes=16,32,64 or seed=0,1,2 "
        "(repeatable; the cross product of all dimensions is run)",
    )
    sweep_parser.add_argument(
        "--repetitions", type=int, default=1, help="independently seeded runs per scenario"
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes for the batch"
    )
    sweep_parser.add_argument(
        "--output", metavar="FILE", default=None, help="write records to a JSONL file"
    )
    sweep_parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="merge records into a run-store directory (idempotent: re-running "
        "the same sweep adds nothing)",
    )
    sweep_parser.add_argument(
        "--json", action="store_true", help="print records as JSON lines instead of a table"
    )
    sweep_parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a JSONL trace (progress events + per-stage timings); "
        "inspect it with 'repro trace summarize FILE'",
    )

    analyze = subparsers.add_parser(
        "analyze",
        help="aggregate run records and compare the measured scaling to the paper bounds",
    )
    analyze.add_argument(
        "source",
        nargs="?",
        default="-",
        metavar="RUNS.jsonl|STORE/",
        help="records source: a JSONL file, a run-store directory, or '-' for stdin "
        "(default; lets 'repro sweep --json | repro analyze' pipe)",
    )
    _add_analysis_arguments(analyze)
    analyze.add_argument(
        "--bounds",
        action="store_true",
        help="append the paper-bound comparison (fitted exponents + verdicts)",
    )
    analyze.add_argument(
        "--format",
        choices=("text", "md", "csv", "json"),
        default="md",
        help="output format (default md)",
    )

    report = subparsers.add_parser(
        "report", help="render the full paper-vs-measured markdown report"
    )
    report.add_argument(
        "source",
        nargs="?",
        default="-",
        metavar="RUNS.jsonl|STORE/",
        help="records source: a JSONL file, a run-store directory, or '-' for stdin",
    )
    _add_analysis_arguments(report)
    report.add_argument(
        "--output", metavar="FILE", default=None, help="write the report to a file"
    )
    report.add_argument(
        "--title", default="Results report", help="report heading"
    )

    verify = subparsers.add_parser(
        "verify-backend",
        help="differentially validate a backend against the reference engine",
    )
    verify.add_argument(
        "--backend",
        default="bitset",
        metavar="NAME",
        help="candidate backend to validate (default bitset; validated against "
        "the registry after --import modules are loaded, so third-party "
        "backends work)",
    )
    verify.add_argument(
        "--reference",
        default=DEFAULT_BACKEND,
        metavar="NAME",
        help="backend treated as ground truth (default reference)",
    )
    verify.add_argument(
        "--import",
        dest="import_modules",
        action="append",
        default=[],
        metavar="MODULE",
        help="import a module that registers third-party backends before "
        "validating (repeatable)",
    )
    verify.add_argument(
        "--spec",
        metavar="FILE",
        default=None,
        help="validate one ScenarioSpec JSON file instead of the built-in grid",
    )
    verify.add_argument(
        "--json", action="store_true", help="emit the differential report as JSON"
    )

    list_parser = subparsers.add_parser(
        "list", help="list registered algorithms, adversaries, problems and backends"
    )
    list_parser.add_argument(
        "--json", action="store_true", help="emit the registry contents as JSON"
    )

    bench = subparsers.add_parser(
        "bench",
        help="time the backends on the benchmark grid and write the trajectory",
    )
    bench.add_argument(
        "--quick", action="store_true", help="run the CI-sized grid only"
    )
    bench.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="timings per backend and grid point; the best is kept (default 1)",
    )
    bench.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write the trajectory JSON to a file",
    )
    bench.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="FACTOR",
        help="fail (exit 1) unless the bitset backend is at least FACTOR times "
        "faster than reference on the grid's largest flooding scenario — the "
        "CI guard against silently losing the fast path",
    )
    bench.add_argument(
        "--sweeps",
        action="store_true",
        help="run the multi-repetition sweep grid instead: all repetitions of "
        "each scenario serially (bitset) vs the vectorized batch backend "
        "(needs the repro[fast] extra)",
    )
    bench.add_argument(
        "--min-batch-speedup",
        type=float,
        default=None,
        metavar="FACTOR",
        help="with --sweeps: fail (exit 1) unless the batch backend is at "
        "least FACTOR times faster than serial bitset on the grid's largest "
        "flooding sweep — the CI guard on the vectorized kernel",
    )
    bench.add_argument(
        "--max-obs-overhead",
        type=float,
        default=None,
        metavar="PCT",
        help="fail (exit 1) if the instrumented round loop (driven with no-op "
        "spans) is more than PCT percent slower than the uninstrumented loop "
        "on the flooding n=128 bitset cell — the CI guard that disabled "
        "tracing stays free",
    )
    bench.add_argument(
        "--track-memory",
        action="store_true",
        help="also record each timed run's tracemalloc allocation peak "
        "(roughly doubles allocation cost; timings stay comparable because "
        "every backend pays it equally)",
    )

    trace_parser = subparsers.add_parser(
        "trace", help="inspect JSONL trace files written by run/sweep --trace"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="render a per-backend, per-stage timing table from a trace file",
    )
    summarize.add_argument("file", metavar="TRACE.jsonl", help="trace file to read")
    summarize.add_argument(
        "--format",
        choices=("text", "md", "csv", "json"),
        default="text",
        help="output format (default text)",
    )

    warehouse_parser = subparsers.add_parser(
        "warehouse",
        help="maintain and query the sqlite index over a run store "
        "(the JSONL shards stay the source of truth)",
    )
    warehouse_sub = warehouse_parser.add_subparsers(
        dest="warehouse_command", required=True
    )
    wh_sync = warehouse_sub.add_parser(
        "sync",
        help="create the index if missing and fold in new/changed shards "
        "(unchanged shards are skipped via mtime+size watermarks)",
    )
    wh_sync.add_argument("store", metavar="STORE/", help="run-store directory")
    wh_rebuild = warehouse_sub.add_parser(
        "rebuild",
        help="drop the index database and re-derive it from the JSONL shards "
        "(the recovery path for corruption or schema bumps)",
    )
    wh_rebuild.add_argument("store", metavar="STORE/", help="run-store directory")
    wh_query = warehouse_sub.add_parser(
        "query",
        help="sync, then aggregate (or count / take a percentile) from the "
        "index; aggregation output is byte-identical to 'repro analyze STORE'",
    )
    wh_query.add_argument("store", metavar="STORE/", help="run-store directory")
    _add_analysis_arguments(wh_query)
    wh_query.add_argument(
        "--format",
        choices=("text", "md", "csv", "json"),
        default="md",
        help="output format (default md)",
    )
    for component in ("algorithm", "adversary", "problem"):
        wh_query.add_argument(
            f"--{component}",
            default=None,
            metavar="NAME",
            help=f"only records with this {component}",
        )
    wh_query.add_argument(
        "--count",
        action="store_true",
        help="print the matching record count instead of aggregating",
    )
    wh_query.add_argument(
        "--percentile",
        default=None,
        metavar="METRIC:Q",
        help="print the Q-th percentile (0..100) of a metric over the "
        "matching records, e.g. rounds:95",
    )
    wh_report = warehouse_sub.add_parser(
        "report",
        help="sync, then render the consolidated cross-experiment report "
        "(per algorithm x adversary tables with paper-bound verdicts)",
    )
    wh_report.add_argument("store", metavar="STORE/", help="run-store directory")
    _add_analysis_arguments(wh_report)
    wh_report.add_argument(
        "--format",
        choices=("text", "md", "csv", "json"),
        default="md",
        help="output format (default md; non-md renders the overview table)",
    )
    wh_report.add_argument(
        "--output", metavar="FILE", default=None, help="write the report to a file"
    )
    wh_report.add_argument(
        "--title",
        default="Consolidated warehouse report",
        help="report heading",
    )

    table1 = subparsers.add_parser("table1", help="regenerate Table 1 for a given n")
    table1.add_argument("-n", "--nodes", type=int, default=4096)

    bounds = subparsers.add_parser("bounds", help="evaluate the theorem bounds at (n, k, s)")
    bounds.add_argument("-n", "--nodes", type=int, required=True)
    bounds.add_argument("-k", "--tokens", type=int, required=True)
    bounds.add_argument("-s", "--sources", type=int, default=1)
    return parser


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--algorithm", choices=ALGORITHM_REGISTRY.names(), default="single-source"
    )
    parser.add_argument(
        "--adversary", choices=ADVERSARY_REGISTRY.names(), default="churn"
    )
    parser.add_argument(
        "--problem",
        choices=PROBLEM_REGISTRY.names(),
        default=None,
        help="select the problem by registry name; -n/-k/-s map onto its matching "
        "parameters and --set problem.* overrides the rest (default: the problem "
        "is derived from -n/-k/-s/--random-placement)",
    )
    parser.add_argument("-n", "--nodes", type=int, default=20, help="number of nodes")
    parser.add_argument(
        "-k",
        "--tokens",
        type=int,
        default=None,
        help=f"number of tokens (default {_DEFAULT_TOKENS}; forced to n for n-gossip)",
    )
    parser.add_argument(
        "-s",
        "--sources",
        type=int,
        default=1,
        help="number of sources (use 0 for n-gossip, i.e. one token per node)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-rounds", type=int, default=None)
    parser.add_argument(
        "--backend",
        choices=BACKEND_REGISTRY.names(),
        default=DEFAULT_BACKEND,
        help="execution backend (validated backends give identical results; "
        "'bitset' runs every algorithm and adversary class, with native "
        "fast programs where algorithms provide them — see 'repro list')",
    )
    parser.add_argument(
        "--random-placement",
        action="store_true",
        help="place each token at each node independently with probability 1/4 "
        "(the Section-2 lower-bound distribution)",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a component parameter, e.g. --set adversary.changes_per_round=3 "
        "(sections: problem, algorithm, adversary; repeatable)",
    )


def _add_analysis_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--group-by",
        default=None,
        metavar="AXIS[,AXIS...]",
        help="group-by axes: record fields (n, k, s, seed, ...), component names "
        "(algorithm, adversary, problem) or dotted parameters "
        "(problem.num_nodes); default algorithm,adversary,n,k",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="METRIC[,METRIC...]",
        help="metrics to summarize (default total_messages, amortized_messages, "
        "rounds, topological_changes, amortized_adversary_competitive)",
    )
    parser.add_argument(
        "--x-axis",
        default="n",
        metavar="AXIS",
        help="sweep axis the scaling exponents are fitted against (default n)",
    )


def _parse_value(text: str) -> Any:
    """Parse a CLI value: Python literal if possible, bare string otherwise."""
    try:
        return ast.literal_eval(text)
    except (SyntaxError, ValueError):
        return text


def _parse_overrides(assignments: Sequence[str]) -> Dict[str, Dict[str, Any]]:
    sections: Dict[str, Dict[str, Any]] = {"problem": {}, "algorithm": {}, "adversary": {}}
    for assignment in assignments:
        key, separator, value = assignment.partition("=")
        section, _, param = key.partition(".")
        if not separator or section not in sections or not param:
            raise ConfigurationError(
                f"invalid --set {assignment!r}: expected SECTION.KEY=VALUE with "
                f"SECTION one of {sorted(sections)}"
            )
        sections[section][param] = _parse_value(value)
    return sections


def _parse_grid(dimensions: Sequence[str]) -> Dict[str, List[Any]]:
    grid: Dict[str, List[Any]] = {}
    for dimension in dimensions:
        if dimension.lstrip().startswith("{"):
            # JSON form: --grid '{"num_nodes": [8, 16, 32], "seed": [0, 1]}'.
            try:
                payload = json.loads(dimension)
            except json.JSONDecodeError as error:
                raise ConfigurationError(f"invalid --grid JSON: {error}") from error
            if not isinstance(payload, dict):
                raise ConfigurationError(
                    f"--grid JSON must be an object of key -> value list, got {payload!r}"
                )
            for key, values in payload.items():
                if not isinstance(values, list):
                    values = [values]
                grid[_normalize_dimension_key(key.strip())] = values
            continue
        key, separator, values_text = dimension.partition("=")
        if not separator or not key or not values_text:
            raise ConfigurationError(
                f"invalid --grid {dimension!r}: expected KEY=V1,V2,... or a JSON object"
            )
        grid[_normalize_dimension_key(key.strip())] = [
            _parse_value(value) for value in values_text.split(",")
        ]
    return grid


def _problem_from_dimensions(args: argparse.Namespace) -> Tuple[str, Dict[str, Any]]:
    """Map the historical -n/-k/-s/--random-placement flags to a problem spec."""
    tokens = args.tokens if args.tokens is not None else _DEFAULT_TOKENS
    if args.random_placement:
        return "random-placement", {
            "num_nodes": args.nodes,
            "num_tokens": tokens,
            "seed": args.seed,
        }
    if args.sources == 0:
        if args.tokens is not None and args.tokens != args.nodes:
            raise ConfigurationError(
                f"--sources 0 selects n-gossip, which forces k = n; "
                f"drop -k or pass -k {args.nodes} (got -k {args.tokens} with -n {args.nodes})"
            )
        return "n-gossip", {"num_nodes": args.nodes}
    if args.sources <= 1:
        return "single-source", {"num_nodes": args.nodes, "num_tokens": tokens}
    return "multi-source", {
        "num_nodes": args.nodes,
        "num_sources": args.sources,
        "num_tokens": tokens,
        "seed": args.seed,
    }


def _named_problem_params(args: argparse.Namespace) -> Dict[str, Any]:
    """Map the -n/-k/-s flags onto whichever parameters the problem accepts."""
    entry = PROBLEM_REGISTRY.get(args.problem)
    params: Dict[str, Any] = {}
    if entry.accepts("num_nodes"):
        params["num_nodes"] = args.nodes
    if entry.accepts("num_tokens"):
        params["num_tokens"] = args.tokens if args.tokens is not None else _DEFAULT_TOKENS
    if entry.accepts("num_sources"):
        params["num_sources"] = max(args.sources, 1)
    return params


def _spec_from_args(args: argparse.Namespace, *, repetitions: int = 1) -> ScenarioSpec:
    overrides = _parse_overrides(args.overrides)
    if args.problem is not None:
        problem_name = args.problem
        problem_params = _named_problem_params(args)
        problem_params.update(overrides["problem"])
    else:
        problem_name, problem_params = _problem_from_dimensions(args)
        problem_params.update(overrides["problem"])
    adversary_params = dict(overrides["adversary"])
    adversary_entry = ADVERSARY_REGISTRY.get(args.adversary)
    # Adversaries that must know the node count (e.g. static-random) pick it
    # up from the problem dimensions unless given explicitly.
    if "num_nodes" not in adversary_params and any(
        info.name == "num_nodes" and info.required for info in adversary_entry.parameters()
    ):
        adversary_params["num_nodes"] = problem_params.get("num_nodes", args.nodes)
    return ScenarioSpec(
        problem=problem_name,
        problem_params=problem_params,
        algorithm=args.algorithm,
        algorithm_params=overrides["algorithm"],
        adversary=args.adversary,
        adversary_params=adversary_params,
        seed=args.seed,
        repetitions=repetitions,
        max_rounds=args.max_rounds,
        backend=args.backend,
    )


def _print_result_table(spec: ScenarioSpec, result) -> None:
    rows = [
        ["scenario", spec.label],
        ["algorithm", result.algorithm_name],
        ["adversary", result.adversary_name],
        ["communication model", result.communication_model.value],
        ["nodes (n)", result.num_nodes],
        ["tokens (k)", result.num_tokens],
        ["sources (s)", result.problem.num_sources],
        ["completed", result.completed],
        ["rounds", result.rounds],
        ["total messages", result.total_messages],
        ["topological changes TC(E)", result.topological_changes],
        ["amortized messages / token", round(result.amortized_messages(), 3)],
        ["1-competitive cost", round(result.adversary_competitive_messages(), 3)],
        [
            "amortized 1-competitive / token",
            round(result.amortized_adversary_competitive_messages(), 3),
        ],
        ["token learnings", result.token_learnings()],
    ]
    print(format_table(["metric", "value"], rows))


#: (namespace attribute, parser default, flag spelling) for every scenario
#: flag that ``--spec`` supersedes; used to reject contradictory usage.
_SPEC_INCOMPATIBLE_FLAGS = [
    ("algorithm", "single-source", "--algorithm"),
    ("adversary", "churn", "--adversary"),
    ("problem", None, "--problem"),
    ("nodes", 20, "-n/--nodes"),
    ("tokens", None, "-k/--tokens"),
    ("sources", 1, "-s/--sources"),
    ("seed", 0, "--seed"),
    ("max_rounds", None, "--max-rounds"),
    ("random_placement", False, "--random-placement"),
    ("overrides", [], "--set"),
    ("backend", DEFAULT_BACKEND, "--backend"),
]


def _reject_scenario_flags_with_spec(args: argparse.Namespace) -> None:
    offending = [
        flag
        for attribute, default, flag in _SPEC_INCOMPATIBLE_FLAGS
        if getattr(args, attribute) != default
    ]
    if offending:
        raise ConfigurationError(
            "--spec defines the complete scenario; drop the conflicting "
            f"flag(s): {', '.join(offending)}"
        )


@contextmanager
def _trace_observer(path: Optional[str]):
    """A context yielding the observer tuple for ``--trace`` (empty without it)."""
    if path is None:
        yield ()
        return
    from repro.obs import TraceWriter

    with TraceWriter(path) as writer:
        yield (writer,)


def command_run(args: argparse.Namespace) -> int:
    """Thin adapter over :mod:`repro.api` for one scenario."""
    if args.spec is not None:
        _reject_scenario_flags_with_spec(args)
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = ScenarioSpec.from_json(handle.read())
    else:
        spec = _spec_from_args(args)

    if not args.json and args.spec is None:
        # The rich single-execution table needs the full ExecutionResult
        # (communication model, per-class names, ...), which records do not
        # carry — this is the one direct call into the api's cell executor.
        import time

        from repro.obs import (
            CellCompleted,
            CellStarted,
            RunFinished,
            TimingTracer,
            TraceWriter,
        )

        tracer = TimingTracer() if args.trace else None
        started = time.perf_counter()
        result = run_scenario(spec, tracer=tracer)
        seconds = time.perf_counter() - started
        if args.trace:
            # One synthetic cell, so single runs and sweeps share one trace
            # vocabulary and 'repro trace summarize' reads both.
            with TraceWriter(args.trace) as write:
                write(CellStarted(0, 1, spec.label, 0, spec.backend))
                write(
                    CellCompleted(
                        0,
                        1,
                        spec.label,
                        0,
                        backend=spec.backend,
                        seconds=seconds,
                        completed=result.completed,
                        rounds=result.rounds,
                        total_messages=result.total_messages,
                        stage_seconds=result.timings,
                    )
                )
                write(RunFinished(cells=1, executed=1, cached=0, seconds=seconds))
        _print_result_table(spec, result)
        return 0 if result.completed else 1

    experiment = Experiment.from_specs([spec])
    with _trace_observer(args.trace) as observers:
        if observers:
            experiment = experiment.observe(*observers, timings=True)
        runset = experiment.run()
        if args.json:
            for record in runset:
                print(record_to_json_line(record))
        else:
            print(_records_table(runset.records()))
    return 0 if runset.completed else 1


_RECORD_COLUMNS = [
    "scenario",
    "n",
    "k",
    "s",
    "repetition",
    "completed",
    "rounds",
    "total_messages",
    "amortized_messages",
    "topological_changes",
]


def _records_table(records: Sequence[Mapping[str, Any]]) -> str:
    rows = []
    for record in records:
        row = []
        for column in _RECORD_COLUMNS:
            value = record.get(column, "")
            if isinstance(value, float):
                value = round(value, 3)
            row.append(value)
        rows.append(row)
    return format_table(_RECORD_COLUMNS, rows)


def _resync_adversary_num_nodes(
    spec: ScenarioSpec, grid: Mapping[str, Sequence[Any]], overrides: Mapping[str, Mapping[str, Any]]
) -> ScenarioSpec:
    """Follow a swept problem.num_nodes into an auto-injected adversary num_nodes.

    ``_spec_from_args`` copies the node count into adversaries that require
    it *before* grid expansion; when the grid then sweeps the problem's node
    count, the stale copy would make every non-default grid point fail.  An
    explicitly set value (``--set adversary.num_nodes`` or a grid dimension)
    is the user's choice and is left alone.
    """
    if "adversary.num_nodes" in grid or "num_nodes" in overrides["adversary"]:
        return spec
    problem_nodes = spec.problem_params.get("num_nodes")
    if (
        problem_nodes is None
        or "num_nodes" not in spec.adversary_params
        or spec.adversary_params["num_nodes"] == problem_nodes
    ):
        return spec
    return spec.with_params(adversary={"num_nodes": problem_nodes})


def _sweep_specs(args: argparse.Namespace) -> List[ScenarioSpec]:
    """The expanded spec batch of a sweep invocation's flags."""
    base = _spec_from_args(args, repetitions=args.repetitions)
    grid = _parse_grid(args.grid)
    overrides = _parse_overrides(args.overrides)
    return [
        _resync_adversary_num_nodes(spec, grid, overrides) for spec in sweep(base, grid)
    ]


def command_sweep(args: argparse.Namespace) -> int:
    """Thin adapter over :mod:`repro.api` for a parameter-grid batch.

    With ``--store`` the run is **incremental**: the plan consults the
    store and only executes the scenario×repetition cells it does not
    already hold, while the output still covers the complete batch.
    """
    import time

    from repro.obs import ProgressPrinter

    specs = _sweep_specs(args)
    experiment = Experiment.from_specs(specs)
    if args.store is not None:
        experiment = experiment.store(args.store)
    started = time.perf_counter()
    records = []
    with _trace_observer(args.trace) as trace_observers:
        # Progress goes to stderr (live line on a TTY, one summary line
        # otherwise), so stdout stays pipeable JSON/tables.
        experiment = experiment.observe(
            ProgressPrinter(label="sweep"),
            *trace_observers,
            timings=args.trace is not None,
        )
        runset = experiment.run(workers=args.workers)
        sink = open(args.output, "w", encoding="utf-8") if args.output else None
        try:
            # Stream: records arrive as cells complete, so the JSONL file (and
            # --json stdout) hold partial output if the batch is interrupted.
            for record in runset:
                records.append(record)
                if sink is not None:
                    sink.write(record_to_json_line(record) + "\n")
                    sink.flush()
                if args.json:
                    print(record_to_json_line(record))
        finally:
            if sink is not None:
                sink.close()
    elapsed = time.perf_counter() - started
    if not args.json:
        print(_records_table(records))
        print(f"\n{len(records)} record(s) from {len(specs)} scenario(s)", end="")
        print(f" -> {args.output}" if args.output else "")
        if args.store is not None:
            print(
                f"store {args.store}: {runset.stored_count} added, "
                f"{runset.cached_count} already present "
                f"({runset.executed_count} executed)"
            )
        print(
            f"total runtime: {elapsed:.2f}s "
            f"({runset.executed_count} executed, {runset.cached_count} cached)"
        )
        if args.trace is not None:
            print(f"trace -> {args.trace}")
    return 0 if all(record["completed"] for record in records) else 1


def _split_option(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    parts = [part.strip() for part in value.split(",") if part.strip()]
    if not parts:
        raise ConfigurationError(f"expected a comma-separated list, got {value!r}")
    return parts


def _load_runset(source: str) -> RunSet:
    """A :class:`repro.api.RunSet` over a file, store directory or stdin."""
    from repro.results import iter_records

    if source == "-":
        records = list(iter_records(sys.stdin, source="<stdin>"))
        if not records:
            raise ConfigurationError(
                "no records on stdin; pipe 'repro sweep --json' into this command "
                "or pass a JSONL file / run-store directory"
            )
        return RunSet.from_records(records)
    runset = load_runs(source)
    if not len(runset):
        raise ConfigurationError(f"{source} holds no records")
    return runset


def command_analyze(args: argparse.Namespace) -> int:
    """Thin adapter: ``RunSet.aggregate(...).table()`` plus the verdicts."""
    runset = _load_runset(args.source)
    aggregated = runset.aggregate(
        by=_split_option(args.group_by), metrics=_split_option(args.metrics)
    )
    print(aggregated.table(args.format))
    if args.bounds:
        print()
        print(aggregated.compare(x_axis=args.x_axis).table(args.format))
    return 0


def command_report(args: argparse.Namespace) -> int:
    """Thin adapter: the full ``RunSet.report(...)`` document."""
    runset = _load_runset(args.source)
    document = runset.report(
        by=_split_option(args.group_by),
        metrics=_split_option(args.metrics),
        x_axis=args.x_axis,
        title=args.title,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
        print(f"wrote {args.output}")
    else:
        print(document)
    return 0


def command_warehouse(args: argparse.Namespace) -> int:
    """Maintain and query the sqlite index (see :mod:`repro.warehouse`)."""
    from repro import warehouse
    from repro.results.aggregate import DEFAULT_GROUP_BY, DEFAULT_METRICS

    if args.warehouse_command == "rebuild":
        index, stats = warehouse.rebuild_index(args.store)
        print(
            f"rebuilt {index.path}: {index.count()} row(s) from "
            f"{stats.shards_read} shard(s) in {stats.seconds:.2f}s"
        )
        return 0
    # sync / query / report all start by creating-or-opening and syncing.
    index = warehouse.WarehouseIndex(args.store)
    stats = index.sync()
    if args.warehouse_command == "sync":
        print(stats.summary(args.store))
        return 0
    # Diagnostics on stderr: query/report stdout must stay byte-identical
    # to the index-less analyze path (asserted in CI).
    print(stats.summary(args.store), file=sys.stderr)
    query = index.query()
    if args.warehouse_command == "query":
        filters = {
            "algorithm": args.algorithm,
            "adversary": args.adversary,
            "problem": args.problem,
        }
        if args.count:
            print(query.count(**filters))
            return 0
        if args.percentile is not None:
            metric, sep, quantile = args.percentile.partition(":")
            if not sep or not metric:
                raise ConfigurationError(
                    f"--percentile wants METRIC:Q (e.g. rounds:95), "
                    f"got {args.percentile!r}"
                )
            try:
                q = float(quantile)
            except ValueError as error:
                raise ConfigurationError(
                    f"--percentile quantile must be a number, got {quantile!r}"
                ) from error
            print(query.percentile(metric, q, **filters))
            return 0
        records = query.records(**filters)
        if not records:
            filtered = any(value is not None for value in filters.values())
            raise ConfigurationError(
                f"{args.store} holds no {'matching ' if filtered else ''}records"
            )
        aggregated = RunSet.from_records(records).aggregate(
            by=_split_option(args.group_by), metrics=_split_option(args.metrics)
        )
        print(aggregated.table(args.format))
        return 0
    # warehouse report
    records = query.records()
    document = warehouse.render_consolidated_report(
        records,
        fmt=args.format,
        group_by=_split_option(args.group_by) or DEFAULT_GROUP_BY,
        metrics=_split_option(args.metrics) or DEFAULT_METRICS,
        x_axis=args.x_axis,
        title=args.title,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
        print(f"wrote {args.output}")
    else:
        print(document)
    return 0


def command_verify_backend(args: argparse.Namespace) -> int:
    import importlib

    from repro.backends.differential import default_differential_specs, validate_backends

    for module_name in args.import_modules:
        try:
            importlib.import_module(module_name)
        except ImportError as error:
            raise ConfigurationError(
                f"cannot import backend module {module_name!r}: {error}"
            ) from error
    if args.spec is not None:
        with open(args.spec, "r", encoding="utf-8") as handle:
            specs = [ScenarioSpec.from_json(handle.read())]
    else:
        specs = default_differential_specs()
    report = validate_backends(
        specs, reference=args.reference, candidate=args.backend
    )
    if args.json:
        print(json.dumps(report.describe(), indent=2, sort_keys=True))
        return 0 if report.passed else 1
    rows = []
    for outcome in report.outcomes:
        status = "ok" if outcome.equal else ", ".join(
            difference.field for difference in outcome.differences
        )
        rows.append(
            [outcome.spec.label, outcome.repetition, outcome.seed, status]
        )
    print(format_table(["scenario", "repetition", "seed", "status"], rows))
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"\n{verdict}: {len(report.outcomes)} execution(s), "
        f"{len(report.failures)} mismatch(es) "
        f"({args.backend} vs {args.reference})"
    )
    return 0 if report.passed else 1


def command_list(args: argparse.Namespace) -> int:
    from repro.backends.bitset import fast_path_names
    from repro.batch.backend import batch_program_names

    registries: List[Registry] = [
        ALGORITHM_REGISTRY,
        ADVERSARY_REGISTRY,
        PROBLEM_REGISTRY,
        BACKEND_REGISTRY,
    ]
    # Capability discovery, not a hardcoded allowlist: the algorithms are
    # probed for native bit-level round programs and vectorized batch
    # programs.
    fast_paths = fast_path_names()
    batch_programs = batch_program_names()
    if args.json:
        payload = {
            _REGISTRY_PLURALS[registry.kind]: [entry.describe() for entry in registry.entries()]
            for registry in registries
        }
        payload["bitset_fast_paths"] = fast_paths
        payload["batch_programs"] = batch_programs
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for registry in registries:
        print(f"{_REGISTRY_PLURALS[registry.kind]}:")
        for entry in registry.entries():
            parameters = ", ".join(
                f"{info.name}" + ("" if info.required else f"={info.default!r}")
                for info in entry.parameters()
            )
            suffix = f"  ({parameters})" if parameters else ""
            description = f" — {entry.description}" if entry.description else ""
            marker = ""
            if registry is ALGORITHM_REGISTRY:
                if entry.name in fast_paths:
                    marker += " [bitset fast path]"
                if entry.name in batch_programs:
                    marker += " [batch program]"
            print(f"  {entry.name}{description}{suffix}{marker}")
        print()
    return 0


def command_bench(args: argparse.Namespace) -> int:
    from repro.benchmark import (
        batch_speedup_gate,
        bench_store,
        obs_overhead_entry,
        obs_overhead_gate,
        run_benchmark,
        run_sweep_benchmark,
        speedup_gate,
    )

    if args.repeat < 1:
        raise ConfigurationError(f"--repeat must be at least 1, got {args.repeat}")
    if args.min_batch_speedup is not None and not args.sweeps:
        raise ConfigurationError("--min-batch-speedup requires --sweeps")
    if args.sweeps and args.min_speedup is not None:
        raise ConfigurationError(
            "--min-speedup gates the single-run grid; with --sweeps use "
            "--min-batch-speedup"
        )
    if args.max_obs_overhead is not None and args.max_obs_overhead <= 0:
        raise ConfigurationError(
            f"--max-obs-overhead must be positive, got {args.max_obs_overhead}"
        )
    if args.sweeps:
        payload = run_sweep_benchmark(
            quick=args.quick,
            repeat=args.repeat,
            progress=print,
            track_memory=args.track_memory,
        )
    else:
        payload = run_benchmark(
            quick=args.quick,
            repeat=args.repeat,
            store=bench_store(),
            progress=print,
            track_memory=args.track_memory,
        )
    if args.track_memory:
        peak = payload["metrics"]["gauges"].get("memory.peak_bytes")
        if peak is not None:
            print(f"peak memory: {peak / (1024 * 1024):.1f} MiB")
    if args.max_obs_overhead is not None:
        overhead = obs_overhead_entry(repeat=args.repeat)
        payload["obs_overhead"] = overhead
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    if not all(entry["equal"] for entry in payload["entries"]):
        print("backend results diverged; see the differences fields", file=sys.stderr)
        return 1
    if not payload.get("parallel_groups", {"equal": True})["equal"]:
        print(
            "parallel group execution diverged from the serial-group baseline",
            file=sys.stderr,
        )
        return 1
    if args.sweeps and args.min_batch_speedup is not None:
        passed, message = batch_speedup_gate(
            payload["entries"], args.min_batch_speedup
        )
        print(message)
        if not passed:
            return 1
    if args.min_speedup is not None:
        passed, message = speedup_gate(payload["entries"], args.min_speedup)
        print(message)
        if not passed:
            return 1
    if args.max_obs_overhead is not None:
        passed, message = obs_overhead_gate(
            payload["obs_overhead"], args.max_obs_overhead
        )
        print(message)
        if not passed:
            return 1
    return 0


def command_trace(args: argparse.Namespace) -> int:
    """Inspect JSONL trace files (currently: ``summarize``)."""
    from repro.obs import read_trace, render_trace_summary, summarize_trace

    if args.trace_command != "summarize":  # pragma: no cover - argparse enforces
        raise ConfigurationError(f"unknown trace command {args.trace_command!r}")
    try:
        summary = summarize_trace(read_trace(args.file))
    except ValueError as error:
        raise ConfigurationError(str(error)) from error
    if not summary["backends"]:
        raise ConfigurationError(
            f"{args.file} holds no completed-cell events; was the run traced "
            f"with --trace and did any cell execute?"
        )
    print(render_trace_summary(summary, args.format))
    return 0


def command_table1(args: argparse.Namespace) -> int:
    print(render_table1(args.nodes))
    return 0


def command_bounds(args: argparse.Namespace) -> int:
    n, k, s = args.nodes, args.tokens, args.sources
    rows = [
        ["flooding amortized upper bound O(n^2)", flooding_amortized_upper_bound(n)],
        ["local broadcast lower bound Ω(n^2/log^2 n)", local_broadcast_lower_bound(n)],
        ["static spanning tree amortized O(n^2/k + n)", static_spanning_tree_amortized(n, k)],
        ["single-source competitive O(n^2 + nk)", single_source_competitive_bound(n, k)],
        ["multi-source competitive O(n^2 s + nk)", multi_source_competitive_bound(n, k, s)],
        ["oblivious amortized O(n^2.5 log^1.25 n / k^0.75)", oblivious_amortized_bound(n, k)],
    ]
    print(format_table(["bound", "value"], rows))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": command_run,
        "sweep": command_sweep,
        "analyze": command_analyze,
        "report": command_report,
        "warehouse": command_warehouse,
        "verify-backend": command_verify_backend,
        "list": command_list,
        "bench": command_bench,
        "trace": command_trace,
        "table1": command_table1,
        "bounds": command_bounds,
    }
    try:
        from repro.obs.logs import configure_logging

        try:
            configure_logging(args.log_level, args.verbose, args.quiet)
        except ValueError as error:
            raise ConfigurationError(str(error)) from error
        return handlers[args.command](args)
    except (ReproError, OSError) as error:
        # The unified hierarchy: every library failure is a ReproError
        # subclass (ConfigurationError, RecordValidationError, ...), so
        # user errors exit 2 with a one-line message, never a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
