"""Declarative per-request-class SLOs with multi-window burn-rate alerts.

An :class:`SloSpec` names a request class (a set of request kinds, or
every kind) and two objectives:

* **latency** — at least ``latency_quantile`` of completed requests
  finish within ``latency_target_s``.  The allowed slow fraction — the
  *error budget* — is ``1 − latency_quantile``.  When
  ``latency_target_s`` is ``None`` the threshold is *conformally
  calibrated*: the first ``calibration_window`` completed latencies form
  a frozen calibration set and the threshold is the upper split-conformal
  bound at ``coverage`` (the PR 7 rank arithmetic, reused via
  ``repro.service.admission.conformal_interval``), so under
  exchangeability at most ``(1 − coverage)/2`` of in-distribution
  requests are flagged — alert precision is distribution-free.
* **availability** — the classic serving definition,
  ``1 − (miss + shed + refusal) rate``; its budget is
  ``1 − availability_target``.

Alerting follows SRE multi-window burn-rate practice: for each objective
the **burn rate** is ``windowed error rate / error budget`` (burn 1.0
means the budget is being consumed exactly at the sustainable pace).  An
alert fires only when *both* a fast window (quick detection, quick
reset) and a slow window (evidence the burn is sustained, not a blip)
exceed their thresholds.  Alarm state is edge-counted with a bounded
event log, the same discipline as :class:`repro.obs.drift.CoverageMonitor`,
so a flapping objective shows up as a high ``alarms`` count rather than
one sticky flag.

Timestamps are injected (the service passes its own monotonic clock
reading), never read here — the engine is a pure consumer and stays
usable in tests with synthetic clocks.  State is mutated only from the
service's dispatcher thread, like every other service counter.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs.tracing import percentile

__all__ = [
    "SloSpec",
    "SloEngine",
    "DEFAULT_SLOS",
    "ERROR_KINDS",
    "DEFAULT_FAST_WINDOW_S",
    "DEFAULT_SLOW_WINDOW_S",
    "DEFAULT_FAST_BURN",
    "DEFAULT_SLOW_BURN",
]

#: Error classifications that consume the availability budget.
ERROR_KINDS = ("miss", "shed", "refused")

DEFAULT_FAST_WINDOW_S = 5.0
DEFAULT_SLOW_WINDOW_S = 30.0
#: Fast-window burn threshold: the budget is being consumed 4x too fast.
DEFAULT_FAST_BURN = 4.0
#: Slow-window burn threshold: sustained 2x over-consumption.
DEFAULT_SLOW_BURN = 2.0
DEFAULT_MIN_SAMPLES = 16
DEFAULT_CALIBRATION_WINDOW = 64
_MAX_EVENTS = 16
_LATENCY_WINDOW = 1024


@dataclass(frozen=True)
class SloSpec:
    """One per-request-class service-level objective.

    ``kinds`` is the request-class selector: a tuple of request kinds
    (``"membership"``, ``"add_view"``, …) or the empty tuple to match
    every request.  ``latency_target_s=None`` selects the
    conformal-calibrated threshold at ``coverage``.
    """

    name: str
    kinds: Tuple[str, ...] = ()
    latency_target_s: Optional[float] = 0.25
    latency_quantile: float = 0.95
    availability_target: float = 0.99
    coverage: float = 0.95

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SloSpec needs a name")
        if self.latency_target_s is not None and self.latency_target_s <= 0.0:
            raise ValueError("latency_target_s must be positive (or None)")
        if not 0.0 < self.latency_quantile < 1.0:
            raise ValueError("latency_quantile must be in (0, 1)")
        if not 0.0 < self.availability_target < 1.0:
            raise ValueError("availability_target must be in (0, 1)")
        if not 0.0 < self.coverage < 1.0:
            raise ValueError("coverage must be in (0, 1)")

    def matches(self, kind: str) -> bool:
        """Whether a request of ``kind`` belongs to this class."""

        return not self.kinds or kind in self.kinds

    @property
    def latency_budget(self) -> float:
        """Allowed slow-request fraction."""

        return 1.0 - self.latency_quantile

    @property
    def availability_budget(self) -> float:
        """Allowed miss+shed+refusal fraction."""

        return 1.0 - self.availability_target


#: The stock objective: every request, p95 ≤ 250 ms, 99% availability.
DEFAULT_SLOS: Tuple[SloSpec, ...] = (SloSpec(name="requests"),)


def _conformal_upper(samples: List[float], coverage: float) -> float:
    """Upper split-conformal bound over plain latency samples.

    Reuses the admission calibrator's rank arithmetic (lazy import — the
    ``obs`` package stays standalone at module scope, the same idiom as
    ``verify_trace``).  Returns ``inf`` while the sample count cannot
    support the requested coverage.
    """

    from repro.service.admission import conformal_interval

    return conformal_interval([(value, False) for value in samples], coverage)[1]


class _Window:
    """Time-bounded outcome window with O(1) error-rate reads."""

    __slots__ = ("span_s", "items", "lat_bad", "avail_bad")

    def __init__(self, span_s: float) -> None:
        self.span_s = span_s
        self.items: Deque[Tuple[float, bool, bool]] = deque()
        self.lat_bad = 0
        self.avail_bad = 0

    def push(self, now: float, lat_bad: bool, avail_bad: bool) -> None:
        self.items.append((now, lat_bad, avail_bad))
        self.lat_bad += lat_bad
        self.avail_bad += avail_bad
        self.evict(now)

    def evict(self, now: float) -> None:
        """Drop outcomes older than the window span."""

        cutoff = now - self.span_s
        items = self.items
        while items and items[0][0] < cutoff:
            _, lat_bad, avail_bad = items.popleft()
            self.lat_bad -= lat_bad
            self.avail_bad -= avail_bad

    def rate(self, objective: str) -> Optional[float]:
        """Windowed error rate for ``"latency"`` or ``"availability"``."""

        n = len(self.items)
        if n == 0:
            return None
        bad = self.lat_bad if objective == "latency" else self.avail_bad
        return bad / n


class _Tracker:
    """Online state for one :class:`SloSpec`."""

    def __init__(self, spec: SloSpec, engine: "SloEngine") -> None:
        self.spec = spec
        self.engine = engine
        self.fast = _Window(engine.fast_window_s)
        self.slow = _Window(engine.slow_window_s)
        self.latencies: Deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self.calibration: List[float] = []
        self.calibrated_threshold: Optional[float] = None
        self.observed = 0
        self.violations = 0
        self.errors: Dict[str, int] = {kind: 0 for kind in ERROR_KINDS}
        self.alarming: Dict[str, bool] = {"latency": False, "availability": False}
        self.alarms: Dict[str, int] = {"latency": 0, "availability": 0}

    def threshold(self) -> Optional[float]:
        """Effective latency threshold, ``None`` while uncalibrated."""

        if self.spec.latency_target_s is not None:
            return self.spec.latency_target_s
        return self.calibrated_threshold

    def observe(self, now: float, latency_s: float, error: str) -> bool:
        """Fold one outcome in; returns whether latency violated the SLO."""

        spec = self.spec
        self.observed += 1
        avail_bad = error in self.errors
        if avail_bad:
            self.errors[error] += 1
        completed = error in ("", "miss")
        lat_bad = False
        if completed:
            self.latencies.append(latency_s)
            if spec.latency_target_s is None and self.calibrated_threshold is None:
                self.calibration.append(latency_s)
                if len(self.calibration) >= self.engine.calibration_window:
                    bound = _conformal_upper(self.calibration, spec.coverage)
                    if math.isfinite(bound):
                        self.calibrated_threshold = bound
            threshold = self.threshold()
            lat_bad = threshold is not None and latency_s > threshold
            if lat_bad:
                self.violations += 1
        self.fast.push(now, lat_bad, avail_bad)
        self.slow.push(now, lat_bad, avail_bad)
        self._evaluate(now)
        return lat_bad

    def _evaluate(self, now: float) -> None:
        """Re-derive both objectives' alarm states; edge-count transitions."""

        engine = self.engine
        for objective, budget in (
            ("latency", self.spec.latency_budget),
            ("availability", self.spec.availability_budget),
        ):
            burn_fast = self._burn(self.fast, objective, budget)
            burn_slow = self._burn(self.slow, objective, budget)
            warm = (
                len(self.fast.items) >= engine.min_samples
                and len(self.slow.items) >= engine.min_samples
            )
            alarming = (
                warm
                and burn_fast is not None
                and burn_slow is not None
                and burn_fast >= engine.fast_burn
                and burn_slow >= engine.slow_burn
            )
            if alarming and not self.alarming[objective]:
                self.alarms[objective] += 1
                engine.record_event(
                    {
                        "slo": self.spec.name,
                        "objective": objective,
                        "t_s": round(now, 6),
                        "burn_fast": round(burn_fast, 4),
                        "burn_slow": round(burn_slow, 4),
                        "fast_burn_threshold": engine.fast_burn,
                        "slow_burn_threshold": engine.slow_burn,
                        "budget": round(budget, 6),
                    }
                )
            self.alarming[objective] = alarming

    def _burn(self, window: _Window, objective: str, budget: float) -> Optional[float]:
        rate = window.rate(objective)
        if rate is None:
            return None
        return rate / budget

    def report(self, now: Optional[float]) -> Dict[str, object]:
        """JSON-ready snapshot of this class's objectives."""

        if now is not None:
            self.fast.evict(now)
            self.slow.evict(now)
        spec = self.spec
        threshold = self.threshold()
        latencies = list(self.latencies)
        return {
            "name": spec.name,
            "kinds": list(spec.kinds),
            "observed": self.observed,
            "errors": dict(self.errors),
            "latency": {
                "target_s": threshold,
                "configured_target_s": spec.latency_target_s,
                "quantile": spec.latency_quantile,
                "calibrated": spec.latency_target_s is None,
                "calibration_samples": len(self.calibration),
                "budget": spec.latency_budget,
                "violations": self.violations,
                "p50_s": percentile(latencies, 0.5) if latencies else None,
                "p95_s": percentile(latencies, 0.95) if latencies else None,
                "fast": self._window_report(self.fast, "latency", spec.latency_budget),
                "slow": self._window_report(self.slow, "latency", spec.latency_budget),
                "alarming": self.alarming["latency"],
                "alarms": self.alarms["latency"],
            },
            "availability": {
                "target": spec.availability_target,
                "budget": spec.availability_budget,
                "fast": self._window_report(
                    self.fast, "availability", spec.availability_budget
                ),
                "slow": self._window_report(
                    self.slow, "availability", spec.availability_budget
                ),
                "alarming": self.alarming["availability"],
                "alarms": self.alarms["availability"],
            },
        }

    def _window_report(
        self, window: _Window, objective: str, budget: float
    ) -> Dict[str, object]:
        rate = window.rate(objective)
        return {
            "window_s": window.span_s,
            "samples": len(window.items),
            "error_rate": None if rate is None else round(rate, 6),
            "burn": None if rate is None else round(rate / budget, 4),
        }


class SloEngine:
    """Evaluates a set of :class:`SloSpec` online from request outcomes.

    The service calls :meth:`observe` once per finished request (with its
    own clock reading); a request may belong to several classes and
    feeds every matching tracker.  :meth:`report` is the snapshot the
    metrics/dashboard layers render.
    """

    def __init__(
        self,
        specs: Tuple[SloSpec, ...] = DEFAULT_SLOS,
        fast_window_s: float = DEFAULT_FAST_WINDOW_S,
        slow_window_s: float = DEFAULT_SLOW_WINDOW_S,
        fast_burn: float = DEFAULT_FAST_BURN,
        slow_burn: float = DEFAULT_SLOW_BURN,
        min_samples: int = DEFAULT_MIN_SAMPLES,
        calibration_window: int = DEFAULT_CALIBRATION_WINDOW,
    ) -> None:
        specs = tuple(specs)
        if not specs:
            raise ValueError("SloEngine needs at least one SloSpec")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError("SloSpec names must be unique")
        if not 0.0 < fast_window_s <= slow_window_s:
            raise ValueError("need 0 < fast_window_s <= slow_window_s")
        if fast_burn <= 0.0 or slow_burn <= 0.0:
            raise ValueError("burn thresholds must be positive")
        if min_samples <= 0 or calibration_window <= 0:
            raise ValueError("min_samples and calibration_window must be positive")
        self.fast_window_s = fast_window_s
        self.slow_window_s = slow_window_s
        self.fast_burn = fast_burn
        self.slow_burn = slow_burn
        self.min_samples = min_samples
        self.calibration_window = calibration_window
        self._trackers = [_Tracker(spec, self) for spec in specs]
        self._events: List[Dict[str, object]] = []
        self._last_now: Optional[float] = None

    def observe(self, now: float, kind: str, latency_s: float, error: str = "") -> bool:
        """Fold one finished request into every matching class.

        ``error`` is ``""`` for a clean completion or one of
        :data:`ERROR_KINDS`.  Returns whether *any* matching class saw a
        latency violation — the signal the tail sampler treats as
        interesting.
        """

        if error and error not in ERROR_KINDS:
            raise ValueError(f"unknown error kind {error!r}")
        self._last_now = now
        violated = False
        for tracker in self._trackers:
            if tracker.spec.matches(kind):
                violated = tracker.observe(now, latency_s, error) or violated
        return violated

    def record_event(self, event: Dict[str, object]) -> None:
        """Append one alert transition to the bounded event log."""

        if len(self._events) < _MAX_EVENTS:
            self._events.append(event)

    @property
    def alerts(self) -> int:
        """Total alert transitions across all classes and objectives."""

        return sum(
            tracker.alarms["latency"] + tracker.alarms["availability"]
            for tracker in self._trackers
        )

    @property
    def alarming(self) -> bool:
        """Whether any objective is currently in the alarming state."""

        return any(
            tracker.alarming["latency"] or tracker.alarming["availability"]
            for tracker in self._trackers
        )

    def report(self, now: Optional[float] = None) -> Dict[str, object]:
        """JSON-ready snapshot across every class.

        ``now`` (the caller's monotonic clock) re-evicts the windows so a
        quiet period empties them; defaults to the last observed stamp.
        """

        if now is None:
            now = self._last_now
        return {
            "fast_window_s": self.fast_window_s,
            "slow_window_s": self.slow_window_s,
            "fast_burn_threshold": self.fast_burn,
            "slow_burn_threshold": self.slow_burn,
            "min_samples": self.min_samples,
            "alerts": self.alerts,
            "alarming": self.alarming,
            "slos": [tracker.report(now) for tracker in self._trackers],
            "events": list(self._events),
        }
