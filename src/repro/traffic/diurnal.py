"""Temporal traffic: time-of-day views of the demand matrix.

Table 1 lists *hourly* as the desired temporal precision for activity
estimation, while the paper's techniques deliver daily snapshots. This
module provides the ground-truth temporal structure — demand modulated by
each prefix's local diurnal curve — that time-sliced measurement
campaigns (:class:`repro.measure.cache_probing.TimedCacheProbing`) try to
recover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigError
from ..net.prefixes import PrefixTable
from ..population.activity import SECONDS_PER_DAY, DiurnalCurve
from .matrix import TrafficMatrix


@dataclass
class TemporalTraffic:
    """Diurnal modulation of the (daily-mean) traffic matrix."""

    matrix: TrafficMatrix
    curve: DiurnalCurve
    utc_offsets: np.ndarray     # per prefix, hours

    @classmethod
    def build(cls, matrix: TrafficMatrix,
              curve: Optional[DiurnalCurve] = None) -> "TemporalTraffic":
        curve = curve or DiurnalCurve()
        table = matrix.prefix_table
        offsets = np.array([c.utc_offset for c in table.cities])
        return cls(matrix=matrix, curve=curve,
                   utc_offsets=offsets[table.city_index_array])

    def activity_multiplier_at(self, t_seconds: float) -> np.ndarray:
        """Per-prefix diurnal multiplier at an absolute (UTC) time."""
        local_hours = ((t_seconds / 3600.0) + self.utc_offsets) % 24.0
        # Vectorised evaluation of the two-harmonic curve.
        theta = 2.0 * np.pi * local_hours / 24.0
        c = self.curve
        return (1.0 + c.cos1 * np.cos(theta) + c.sin1 * np.sin(theta)
                + c.cos2 * np.cos(2 * theta) + c.sin2 * np.sin(2 * theta))

    def query_rate_at(self, sids: Sequence[int],
                      t_seconds: float) -> np.ndarray:
        """Instantaneous queries/second per prefix for the given services
        at time t (daily mean x diurnal multiplier)."""
        base = self.matrix.queries_per_day[list(sids)].sum(axis=0)
        return (base / SECONDS_PER_DAY) * self.activity_multiplier_at(
            t_seconds)

    def peak_utc_hour_for_prefix(self, pid: int) -> float:
        """UTC hour at which the prefix's local activity peaks."""
        if not 0 <= pid < len(self.utc_offsets):
            raise ConfigError(f"unknown prefix {pid}")
        return (self.curve.peak_hour() - self.utc_offsets[pid]) % 24.0

    def global_rate_series(self, sids: Sequence[int],
                           step_hours: float = 1.0) -> np.ndarray:
        """24h profile of total query rate (one value per step)."""
        times = np.arange(0.0, SECONDS_PER_DAY, step_hours * 3600.0)
        return np.array([
            float(self.query_rate_at(sids, t).sum()) for t in times])
