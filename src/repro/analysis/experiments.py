"""Scaling fits for measured series.

:func:`fit_power_law` fits ``y ≈ c · x^α`` on a measured series so the
*shape* of a bound (the exponent α) can be compared against the paper.
Experiments themselves run through :class:`repro.api.Experiment`, and
:func:`repro.results.aggregate` summarizes their records.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.state import require_numpy
from repro.utils.validation import ConfigurationError


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Fit ``y ≈ c · x^α`` by least squares in log-log space; returns ``(α, c)``.

    Needs numpy (the ``repro[fast]`` extra); without it this raises
    :class:`~repro.utils.validation.ConfigurationError`.
    """
    if len(xs) != len(ys):
        raise ConfigurationError("xs and ys must have the same length")
    if len(xs) < 2:
        raise ConfigurationError("at least two points are needed for a power-law fit")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ConfigurationError("power-law fitting requires strictly positive data")
    np = require_numpy("power-law fitting")
    log_x = np.log(np.asarray(xs, dtype=float))
    log_y = np.log(np.asarray(ys, dtype=float))
    exponent, intercept = np.polyfit(log_x, log_y, 1)
    return float(exponent), float(np.exp(intercept))


def scaling_exponent(xs: Sequence[float], ys: Sequence[float]) -> float:
    """The fitted power-law exponent α of ``y`` against ``x``."""
    exponent, _ = fit_power_law(xs, ys)
    return exponent
