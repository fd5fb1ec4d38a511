"""Weighted CDFs: the tool the paper wants every analysis to use.

"Let today be the first step towards banishing unweighted CDFs to the
dustbins of SIGCOMM history and towards a brighter future full of CDFs
(and research!) that reflect the traffic patterns of the Internet." (§1)

:class:`WeightedCDF` is a small, well-tested empirical-distribution helper
that accepts per-sample weights (user counts, traffic volumes, query
rates). :func:`weighting_contrast` packages the paper's core rhetorical
move — show a metric's distribution unweighted *and* traffic-weighted side
by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ValidationError


class WeightedCDF:
    """Empirical CDF with non-negative sample weights."""

    def __init__(self, values: Sequence[float],
                 weights: Optional[Sequence[float]] = None) -> None:
        vals = np.asarray(list(values), dtype=float)
        if vals.size == 0:
            raise ValidationError("empty sample")
        if weights is None:
            wts = np.ones_like(vals)
        else:
            wts = np.asarray(list(weights), dtype=float)
            if wts.shape != vals.shape:
                raise ValidationError("weights shape mismatch")
            if (wts < 0).any():
                raise ValidationError("negative weights")
        total = wts.sum()
        if total <= 0:
            raise ValidationError("weights sum to zero")
        order = np.argsort(vals, kind="stable")
        self._values = vals[order]
        cumulative = np.minimum(np.cumsum(wts[order]) / total, 1.0)
        cumulative[-1] = 1.0  # guard against float round-off
        self._cum = cumulative
        self._weights = wts[order]

    def cdf(self, x: float) -> float:
        """P(value <= x)."""
        idx = np.searchsorted(self._values, x, side="right")
        if idx == 0:
            return 0.0
        return float(self._cum[idx - 1])

    def quantile(self, q: float) -> float:
        """Smallest value v with cdf(v) >= q."""
        if not 0.0 <= q <= 1.0:
            raise ValidationError("quantile must be in [0, 1]")
        if q == 0.0:
            return float(self._values[0])
        idx = np.searchsorted(self._cum, q, side="left")
        idx = min(idx, len(self._values) - 1)
        return float(self._values[idx])

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    def mean(self) -> float:
        return float((self._values * self._weights).sum()
                     / self._weights.sum())

    def points(self) -> List[Tuple[float, float]]:
        """(value, cumulative fraction) step points for plotting."""
        return [(float(v), float(c))
                for v, c in zip(self._values, self._cum)]

    def __len__(self) -> int:
        return len(self._values)


@dataclass(frozen=True)
class WeightingContrast:
    """Side-by-side unweighted vs traffic-weighted view of one metric."""

    metric_name: str
    unweighted: WeightedCDF
    weighted: WeightedCDF
    weight_name: str

    def divergence_at(self, x: float) -> float:
        """How much weighting moves the CDF at a threshold — the size of
        the mistake an unweighted analysis would make."""
        return self.weighted.cdf(x) - self.unweighted.cdf(x)

    def median_shift(self) -> float:
        return self.weighted.median - self.unweighted.median


def weighting_contrast(metric_name: str, values: Sequence[float],
                       weights: Sequence[float],
                       weight_name: str = "traffic") -> WeightingContrast:
    """Build the unweighted-vs-weighted comparison for one metric."""
    return WeightingContrast(
        metric_name=metric_name,
        unweighted=WeightedCDF(values),
        weighted=WeightedCDF(values, weights),
        weight_name=weight_name)
