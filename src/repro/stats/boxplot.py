"""Boxplot statistics (Figures 6, 7, 9, 10 are all boxplots).

Computes exactly what matplotlib draws: median, quartiles, whiskers at
1.5×IQR clamped to the most extreme in-range data point, and outliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["BoxplotStats"]


@dataclass(frozen=True)
class BoxplotStats:
    """Five-number summary plus outlier census."""

    n: int
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    n_outliers_low: int
    n_outliers_high: int
    mean: float
    minimum: float
    maximum: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "BoxplotStats":
        data = np.asarray(list(samples), dtype=float)
        if data.size == 0:
            raise ValueError("no samples")
        q1, median, q3 = np.percentile(data, [25, 50, 75])
        iqr = q3 - q1
        low_fence = q1 - 1.5 * iqr
        high_fence = q3 + 1.5 * iqr
        in_low = data[data >= low_fence]
        in_high = data[data <= high_fence]
        whisker_low = float(in_low.min()) if in_low.size else float(data.min())
        whisker_high = float(in_high.max()) if in_high.size else float(data.max())
        return cls(
            n=int(data.size),
            median=float(median),
            q1=float(q1),
            q3=float(q3),
            whisker_low=whisker_low,
            whisker_high=whisker_high,
            n_outliers_low=int((data < low_fence).sum()),
            n_outliers_high=int((data > high_fence).sum()),
            mean=float(data.mean()),
            minimum=float(data.min()),
            maximum=float(data.max()),
        )

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1

    def render(self, label: str, unit: str = "ms") -> str:
        return (f"{label:<28} n={self.n:<6} median={self.median:8.1f}{unit} "
                f"IQR=[{self.q1:8.1f}, {self.q3:8.1f}] "
                f"whiskers=[{self.whisker_low:8.1f}, {self.whisker_high:9.1f}] "
                f"outliers={self.n_outliers_low + self.n_outliers_high}")
