"""Shared utilities: RNG handling, validation, identifiers and lightweight logging.

These helpers are intentionally small and dependency-free.  Every other
subpackage of :mod:`repro` builds on them, so they must stay simple and
deterministic.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.utils.rng import ensure_rng, spawn_rng, random_subset
    from repro.utils.validation import (
        ReproError,
        ConfigurationError,
        SimulationError,
        require_positive_int,
        require_non_negative_int,
        require_probability,
        require_in_range,
        require_type,
    )
    from repro.utils.ids import NodeId, normalize_edge, validate_nodes

__all__ = [
    "ensure_rng",
    "spawn_rng",
    "random_subset",
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "require_positive_int",
    "require_non_negative_int",
    "require_probability",
    "require_in_range",
    "require_type",
    "NodeId",
    "normalize_edge",
    "validate_nodes",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.utils.rng": ("ensure_rng", "spawn_rng", "random_subset"),
        "repro.utils.validation": (
            "ReproError",
            "ConfigurationError",
            "SimulationError",
            "require_positive_int",
            "require_non_negative_int",
            "require_probability",
            "require_in_range",
            "require_type",
        ),
        "repro.utils.ids": ("NodeId", "normalize_edge", "validate_nodes"),
    },
)
