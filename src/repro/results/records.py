"""Typed run records with schema-versioned JSONL serialization.

A :class:`RunRecord` is the persistent form of one scenario repetition — the
same flat dictionary :func:`repro.scenarios.runner.record_from_result` emits,
promoted to a typed object with an identity, a scenario key and tolerant
streaming parsing.  Records are the currency of the results warehouse: the
:class:`~repro.results.store.RunStore` shards them by scenario, the
aggregators group them, and the bound comparison joins them against
:mod:`repro.analysis.bounds`.

The JSONL layout is versioned via the ``schema_version`` field (see
:data:`SCHEMA_VERSION`).  Records written before the field existed are read
as version 1; records from a *newer* schema are rejected so stale readers
fail loudly instead of silently misinterpreting fields.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, IO, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from repro.scenarios.spec import ScenarioSpec
from repro.utils.validation import ReproError

#: The JSONL schema version this module reads and writes, stamped into every
#: record the runner emits; bump it on incompatible layout changes so stale
#: readers reject records they cannot read.  v2: the embedded spec gained
#: the ``backend`` field.
SCHEMA_VERSION = 2


class RecordValidationError(ReproError, ValueError):
    """Raised when a persisted record cannot be parsed or fails validation.

    The message always names the source (file path or stream label) and the
    1-based line number of the offending record.  Subclasses
    :class:`ValueError` as well as :class:`~repro.utils.validation.ReproError`
    so both ``except ReproError`` (the unified hierarchy) and legacy
    ``except ValueError`` callers catch it.
    """

    def __init__(self, message: str, *, source: str = "", line_number: Optional[int] = None):
        location = ""
        if source or line_number is not None:
            where = source or "<records>"
            if line_number is not None:
                where = f"{where}:{line_number}"
            location = f"{where}: "
        super().__init__(f"{location}{message}")
        self.source = source
        self.line_number = line_number


#: field name -> (required, acceptable types); bool is excluded from the int
#: fields explicitly because ``isinstance(True, int)`` holds in Python.
_INT_FIELDS = ("repetition", "seed", "n", "k", "s", "rounds", "total_messages",
               "topological_changes", "token_learnings")
_FLOAT_FIELDS = ("amortized_messages", "adversary_competitive",
                 "amortized_adversary_competitive")


def _require_int(payload: Mapping[str, Any], name: str) -> int:
    value = payload.get(name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RecordValidationError(f"field {name!r} must be an int, got {value!r}")
    return value


def _require_float(payload: Mapping[str, Any], name: str) -> float:
    value = payload.get(name)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RecordValidationError(f"field {name!r} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class RunRecord:
    """One scenario repetition's headline numbers plus the spec that produced it."""

    scenario: str
    spec: Dict[str, Any]
    repetition: int
    seed: int
    n: int
    k: int
    s: int
    completed: bool
    rounds: int
    total_messages: int
    amortized_messages: float
    topological_changes: int
    adversary_competitive: float
    amortized_adversary_competitive: float
    token_learnings: int
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        # Validate the embedded spec eagerly: a record whose spec does not
        # round-trip cannot be sharded or re-run, so it must not enter a store.
        spec = ScenarioSpec.from_dict(self.spec)
        object.__setattr__(self, "spec", spec.to_dict())
        # Cached here because stores and aggregators key/sort on it per record;
        # not a dataclass field, so equality and serialization are unaffected.
        object.__setattr__(self, "_scenario_key", spec.scenario_key())

    # -- identity ----------------------------------------------------------

    def scenario_key(self) -> str:
        """Canonical JSON of the producing spec's scientific content."""
        return self._scenario_key

    def identity(self) -> Tuple[str, int]:
        """The dedup key: same scenario content + repetition = same record."""
        return (self.scenario_key(), self.repetition)

    # -- axis access -------------------------------------------------------

    @property
    def algorithm(self) -> str:
        """The registry name of the algorithm that produced this record."""
        return str(self.spec["algorithm"])

    @property
    def adversary(self) -> str:
        """The registry name of the adversary."""
        return str(self.spec["adversary"])

    @property
    def problem(self) -> str:
        """The registry name of the problem."""
        return str(self.spec["problem"])

    def axis_value(self, axis: str) -> Any:
        """Resolve a group-by axis against this record.

        Axes are record fields (``"n"``, ``"seed"``, ``"completed"``, ...),
        component names (``"algorithm"``, ``"adversary"``, ``"problem"``,
        ``"scenario"``) or dotted component parameters
        (``"problem.num_nodes"``, ``"adversary.changes_per_round"``).
        """
        section, _, param = axis.partition(".")
        if param:
            params_field = f"{section}_params"
            if params_field not in self.spec:
                raise RecordValidationError(
                    f"unknown axis {axis!r}: section must be one of "
                    f"'problem', 'algorithm', 'adversary'"
                )
            return self.spec[params_field].get(param)
        if axis in ("algorithm", "adversary", "problem"):
            return self.spec[axis]
        if axis in _RECORD_AXES:
            return getattr(self, axis)
        raise RecordValidationError(
            f"unknown axis {axis!r}; use a record field {sorted(_RECORD_AXES)}, "
            f"a component name ('algorithm', 'adversary', 'problem') or a dotted "
            f"parameter path like 'problem.num_nodes'"
        )

    def metric_value(self, metric: str) -> float:
        """The numeric value of a measured metric, for aggregation."""
        if metric not in _METRIC_FIELDS:
            raise RecordValidationError(
                f"unknown metric {metric!r}; known metrics: {sorted(_METRIC_FIELDS)}"
            )
        return float(getattr(self, metric))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The flat JSON-ready dictionary (the runner's record layout)."""
        return {
            "schema_version": self.schema_version,
            "scenario": self.scenario,
            "spec": dict(self.spec),
            "repetition": self.repetition,
            "seed": self.seed,
            "n": self.n,
            "k": self.k,
            "s": self.s,
            "completed": self.completed,
            "rounds": self.rounds,
            "total_messages": self.total_messages,
            "amortized_messages": self.amortized_messages,
            "topological_changes": self.topological_changes,
            "adversary_competitive": self.adversary_competitive,
            "amortized_adversary_competitive": self.amortized_adversary_competitive,
            "token_learnings": self.token_learnings,
        }

    def to_json_line(self) -> str:
        """The canonical one-line JSON encoding (stable key order)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunRecord":
        """Build a record from a parsed JSON object, validating every field."""
        if not isinstance(payload, Mapping):
            raise RecordValidationError(
                f"record must be a JSON object, got {type(payload).__name__}"
            )
        version = payload.get("schema_version", SCHEMA_VERSION)
        if isinstance(version, bool) or not isinstance(version, int):
            raise RecordValidationError(f"schema_version must be an int, got {version!r}")
        if version > SCHEMA_VERSION:
            raise RecordValidationError(
                f"record has schema_version {version}, but this build reads "
                f"at most {SCHEMA_VERSION}; upgrade the library to read it"
            )
        spec = payload.get("spec")
        if not isinstance(spec, Mapping):
            raise RecordValidationError(f"field 'spec' must be a JSON object, got {spec!r}")
        completed = payload.get("completed")
        if not isinstance(completed, bool):
            raise RecordValidationError(
                f"field 'completed' must be a boolean, got {completed!r}"
            )
        scenario = payload.get("scenario")
        if not isinstance(scenario, str):
            raise RecordValidationError(f"field 'scenario' must be a string, got {scenario!r}")
        values: Dict[str, Any] = {
            "schema_version": version,
            "scenario": scenario,
            "spec": dict(spec),
            "completed": completed,
        }
        for name in _INT_FIELDS:
            values[name] = _require_int(payload, name)
        for name in _FLOAT_FIELDS:
            values[name] = _require_float(payload, name)
        return cls(**values)

    @classmethod
    def from_json_line(cls, line: str) -> "RunRecord":
        """Parse one JSONL line."""
        return cls.from_dict(json.loads(line))


#: Record fields usable as group-by axes.
_RECORD_AXES = frozenset(
    ("scenario", "repetition", "seed", "n", "k", "s", "completed", "rounds")
)

#: Record fields usable as aggregation metrics.
_METRIC_FIELDS = frozenset(
    ("rounds", "total_messages", "amortized_messages", "topological_changes",
     "adversary_competitive", "amortized_adversary_competitive",
     "token_learnings")
)


def coerce_record(record: Union[RunRecord, Mapping[str, Any]]) -> RunRecord:
    """Accept either a :class:`RunRecord` or the runner's plain dict."""
    if isinstance(record, RunRecord):
        return record
    try:
        return RunRecord.from_dict(record)
    except (ValueError, ReproError) as error:
        raise RecordValidationError(f"invalid run record: {error}") from error


def iter_records(
    lines: Iterable[str],
    *,
    source: str = "<records>",
    on_error: str = "raise",
) -> Iterator[RunRecord]:
    """Stream records from JSONL lines without materializing the file.

    Blank lines are skipped.  Malformed lines raise a
    :class:`RecordValidationError` naming ``source`` and the 1-based line
    number; pass ``on_error="skip"`` to drop them instead (tolerant reads of
    partially written shards, e.g. after an interrupted sweep).
    """
    if on_error not in ("raise", "skip"):
        raise RecordValidationError(
            f"on_error must be 'raise' or 'skip', got {on_error!r}"
        )
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            yield RunRecord.from_json_line(line)
        except (json.JSONDecodeError, ValueError, ReproError) as error:
            if on_error == "skip":
                continue
            raise RecordValidationError(
                str(error), source=source, line_number=line_number
            ) from error


def load_records(
    path: Union[str, "os.PathLike[str]"],
    *,
    on_error: str = "raise",
) -> List[RunRecord]:
    """Read every record of a JSONL file (see :func:`iter_records`)."""
    with open(path, "r", encoding="utf-8") as handle:
        return list(iter_records(handle, source=str(path), on_error=on_error))


def dump_records(
    records: Iterable[Union[RunRecord, Mapping[str, Any]]],
    sink: Union[str, "os.PathLike[str]", IO[str]],
) -> int:
    """Write records as canonical JSONL; returns the number written."""
    if hasattr(sink, "write"):
        return _dump_to_handle(records, sink)  # type: ignore[arg-type]
    with open(sink, "w", encoding="utf-8") as handle:
        return _dump_to_handle(records, handle)


def _dump_to_handle(
    records: Iterable[Union[RunRecord, Mapping[str, Any]]], handle: IO[str]
) -> int:
    count = 0
    for record in records:
        handle.write(coerce_record(record).to_json_line() + "\n")
        count += 1
    return count
