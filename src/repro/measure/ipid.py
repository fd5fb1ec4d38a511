"""IP ID velocity measurement (§3.1.3).

"By pinging a router interface, one can monitor the growth of its counter
over time ... We have observed that the IP ID values of most routers
display diurnal patterns, suggesting that the rate at which the routers
source packets may be proportional to the rate at which they forward
traffic ... We propose measuring IP ID velocity over time (e.g., at peak
time) to estimate the rate at which routers forward user traffic."

The monitor pings interfaces at a fixed interval, unwraps the 16-bit
counter, and computes a velocity time series. Analysis separates
usable counters from randomised-ID interfaces (velocity variance blows
up), extracts a mean velocity (the relative-activity estimate) and a
diurnal amplitude via a 24-hour cosine fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import MeasurementError
from ..faults import FaultContext, FaultKind
from ..net.routers import IPID_MODULUS, RouterInterface
from ..obs.recorder import Recorder, resolve_recorder

IPID_CAMPAIGN = "ipid-monitoring"
SECONDS_PER_DAY = 86_400.0


@dataclass
class IpIdSeries:
    """Raw samples from one interface (None = lost probe)."""

    address: str
    times: np.ndarray
    values: List[Optional[int]]

    def velocity_series(self) -> "Tuple[np.ndarray, np.ndarray]":
        """(midpoint times, velocities in IDs/second), unwrapped mod 2^16.

        Pairs spanning a lost probe are skipped. Velocities are only
        meaningful if the counter advances less than one full wrap per
        sampling interval — routers faster than that alias, as in reality.
        """
        mid_times: List[float] = []
        velocities: List[float] = []
        prev_t: Optional[float] = None
        prev_v: Optional[int] = None
        for t, v in zip(self.times, self.values):
            if v is None:
                prev_t, prev_v = None, None
                continue
            if prev_v is not None:
                delta = (v - prev_v) % IPID_MODULUS
                dt = t - prev_t
                if dt > 0:
                    mid_times.append((t + prev_t) / 2.0)
                    velocities.append(delta / dt)
            prev_t, prev_v = t, v
        return np.asarray(mid_times), np.asarray(velocities)


@dataclass
class IpIdAnalysis:
    """Derived signal for one interface."""

    address: str
    mean_velocity: float          # IDs/second ~ relative forwarded volume
    diurnal_amplitude: float      # fitted 24h cosine amplitude / mean
    fit_residual: float           # RMS residual / mean (counter sanity)
    usable: bool                  # False for randomised-ID interfaces

    @property
    def looks_diurnal(self) -> bool:
        """Whether the velocity shows a credible daily cycle."""
        return self.usable and self.diurnal_amplitude > 0.15


def analyze_series(series: IpIdSeries,
                   unusable_residual: float = 0.35) -> IpIdAnalysis:
    """Fit mean + 24h cosine to the velocity series."""
    times, velocity = series.velocity_series()
    if len(velocity) < 6:
        raise MeasurementError(
            f"{series.address}: too few samples to analyse")
    mean = float(velocity.mean())
    if mean <= 0:
        return IpIdAnalysis(address=series.address, mean_velocity=0.0,
                            diurnal_amplitude=0.0, fit_residual=0.0,
                            usable=False)
    # Least-squares fit: v(t) = a + b*cos(wt) + c*sin(wt).
    omega = 2.0 * math.pi / SECONDS_PER_DAY
    design = np.column_stack([
        np.ones_like(times), np.cos(omega * times), np.sin(omega * times)])
    coef, *_ = np.linalg.lstsq(design, velocity, rcond=None)
    amplitude = float(math.hypot(coef[1], coef[2]) / mean)
    residual = float(np.sqrt(np.mean(
        (velocity - design @ coef) ** 2)) / mean)
    return IpIdAnalysis(
        address=series.address, mean_velocity=mean,
        diurnal_amplitude=amplitude, fit_residual=residual,
        usable=residual < unusable_residual)


class IpIdMonitor:
    """Ping campaign over a set of router interfaces.

    With an active :class:`FaultContext`, injected ``probe_loss`` is
    layered on top of the baseline ping-loss probability: pings that
    exhaust their retries leave holes in the ID series, exactly like
    ordinary loss does.
    """

    def __init__(self, interval_s: int, duration_hours: int,
                 rng: np.random.Generator,
                 loss_probability: float = 0.02,
                 faults: Optional[FaultContext] = None,
                 recorder: Optional[Recorder] = None) -> None:
        if interval_s < 1 or duration_hours < 1:
            raise MeasurementError("invalid campaign timing")
        if not 0.0 <= loss_probability < 1.0:
            raise MeasurementError("invalid loss probability")
        self._interval = interval_s
        self._duration = duration_hours * 3600
        self._rng = rng
        self._loss = loss_probability
        self._faults = faults or FaultContext.null()
        self._recorder = resolve_recorder(recorder)

    def monitor(self, router: RouterInterface,
                start_time: float = 0.0) -> IpIdSeries:
        times = np.arange(start_time, start_time + self._duration,
                          self._interval, dtype=float)
        scope = self._faults.campaign(IPID_CAMPAIGN)
        if scope.active(FaultKind.PROBE_LOSS):
            delivered = scope.survive_mask(FaultKind.PROBE_LOSS,
                                           len(times))
        else:
            delivered = None
        values: List[Optional[int]] = []
        for i, t in enumerate(times):
            if delivered is not None and not delivered[i]:
                values.append(None)
            elif self._rng.random() < self._loss:
                values.append(None)
            else:
                values.append(router.ipid_at(float(t), rng=self._rng))
        rec = self._recorder
        rec.count(f"measure.{IPID_CAMPAIGN}.pings_sent", len(times))
        rec.count(f"measure.{IPID_CAMPAIGN}.pings_lost",
                  sum(1 for v in values if v is None))
        return IpIdSeries(address=router.address, times=times,
                          values=values)

    def campaign(self, routers: Sequence[RouterInterface],
                 start_time: float = 0.0) -> List[IpIdAnalysis]:
        """Monitor many interfaces and analyse each."""
        with self._recorder.span(f"measure.{IPID_CAMPAIGN}"):
            analyses: List[IpIdAnalysis] = []
            for router in routers:
                series = self.monitor(router, start_time=start_time)
                analyses.append(analyze_series(series))
            self._recorder.count(
                f"measure.{IPID_CAMPAIGN}.interfaces_monitored",
                len(routers))
            return analyses
