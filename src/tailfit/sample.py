"""Duration samples: sorted positive inter-event times."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DurationSample:
    """A sorted array of strictly positive durations; unsorted input is
    sorted. ``step`` is the lattice ``binning.quantize`` floored the
    values to, or None for values not quantized."""

    values: np.ndarray
    step: float | None = None

    def __post_init__(self):
        if self.step is not None and not (self.step > 0 and np.isfinite(self.step)):
            raise ValueError(f"quantization step must be finite and positive, got {self.step!r}")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("sample must be a non-empty 1-d array")
        if not np.all(np.isfinite(values)):
            raise ValueError("sample contains non-finite durations")
        if np.min(values) <= 0:
            raise ValueError("durations must be strictly positive")
        if not _is_sorted(values):
            values = np.sort(values)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def x_min(self) -> float:
        return float(self.values[0])

    @property
    def x_max(self) -> float:
        return float(self.values[-1])


def _is_sorted(values: np.ndarray) -> bool:
    return bool(np.all(values[:-1] <= values[1:]))
