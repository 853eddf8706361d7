"""Conformal admission control: predict service time, refuse before waiting.

PR 4's EDF scheduler sheds work only *after* its deadline has expired in
the queue — a doomed request still burns a queue slot and its submitter's
wall-clock before the refusal lands.  This module goes predictive: it
learns per-request-class **service-time distributions** online from the
requests the service actually completes (and, tagged, from the ones it
refuses — see below), wraps them in a **split-conformal calibrator**
(Shafer & Vovk, "A tutorial on conformal prediction"), and lets the
service refuse at *admission* — before any queueing — every request whose
deadline falls below the calibrated lower bound of its predicted
end-to-end time.

Why conformal rather than a guessed percentile
----------------------------------------------
Split conformal prediction gives distribution-free finite-sample
guarantees from nothing but exchangeability: with calibration samples
``y_1..y_n`` and the order statistics ``y_(1) <= ... <= y_(n)``, the
two-sided interval at coverage ``P``

* ``lo = y_(k_lo)`` with ``k_lo = floor((n+1) * (1-P)/2)`` (``0`` — i.e.
  pass-through — while ``k_lo < 1``), and
* ``hi = y_(k_hi)`` with ``k_hi = ceil((n+1) * (1+P)/2)`` (unbounded
  while ``k_hi > n``)

contains a fresh exchangeable sample with probability at least ``P``, and
the one-sided bound the refusal decision actually uses is stronger: a new
request's latency falls below ``lo`` with probability at most
``(1-P)/2``.  Refusing ``deadline < lo`` therefore wrongly refuses — i.e.
refuses a request that *would* have finished inside its deadline — at
most a ``(1-P)/2`` fraction of the time, so the **refusal precision is at
least ``P`` by construction**, with no distributional assumption on
latencies at all.  That is the difference between a calibrated admission
controller and a guessed p99.

Request classes
---------------
Latencies are only exchangeable *within* a class of requests that the
service treats alike, so samples are windowed per class key::

    (kind, deadline tier, catalog-size bucket)

``kind`` is the request kind (membership, dominance, …) — the dominant
cost factor; the *deadline tier* is what the
:class:`~repro.service.deadline.DeadlinePolicy` would make of the
request's **full** deadline (base / reduced / refuse), because the tier
decides the search budgets and therefore the service time; the catalog
size enters through ``bit_length`` buckets (a 6-view and a 7-view catalog
share a class, a 6-view and a 60-view one do not).

Censored samples (the survivorship fix)
---------------------------------------
A model trained only on requests that *survived* to completion
systematically underestimates service time — exactly the requests the
controller exists to refuse are missing from its training set.  So the
service also feeds the calibrator the **shed and refused** requests'
elapsed time at refusal, tagged ``censored``: the request was abandoned
at ``t`` seconds, so its true completion time is *at least* ``t`` — a
lower bound, not an observation.  The calibrator uses censored samples
conservatively on both sides: at face value in the **lower**-bound order
statistics (the true value is larger, so the computed ``lo`` can only be
an underestimate — refusals stay precise) and as ``+inf`` in the
**upper**-bound order statistics (the true value is larger, so ``hi``
only widens).  Both substitutions preserve the coverage guarantee.

The deterministic floor
-----------------------
One slice of refusals needs no calibration at all: the serve path refuses
outright any request whose *remaining* deadline is below the policy's
``floor_s``, and remaining time never exceeds the full deadline — so a
request submitted with ``deadline_s < floor_s`` is **certain** to be
refused at dispatch no matter how empty the queue is.  In conformal mode
the controller refuses these immediately at admission (interval
``[floor_s, inf)``, coverage 1.0 — a deterministic fact, not a
statistical estimate), sparing the queue slot and the wait.  The
*learned* gate stays pass-through until its class is calibrated, so a
cold-started service admits exactly what today's service admits.

Calibrated confidence on ``partial`` answers
--------------------------------------------
The same calibration windows turn a ``partial``/unknown answer (a
truncated search that proved nothing) into a quantified one: the
conformal p-value of "a full-budget request of this kind finishes within
this deadline" is ``p_meet = (1 + #{y_i <= d}) / (n + 1)`` over the
**base-tier** class of the same kind, and the attached ``confidence`` is
``1 - p_meet`` — the calibrated confidence that the deadline was
genuinely unmeetable at full budgets, letting clients distinguish "retry
with a looser deadline" from "genuinely unknown".  (Censored samples
whose recorded lower bound already exceeds ``d`` count as exceeding;
censored samples below ``d`` count as meeting it — again the conservative
direction, so the reported confidence never overstates unmeetability.)
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Deque, Dict, Optional, Sequence, Tuple as PyTuple

from repro.obs.drift import CoverageMonitor
from repro.service.deadline import DeadlinePolicy, TIER_BASE
from repro.service.requests import ServiceRequest

__all__ = [
    "ADMISSION_MODES",
    "AdmissionController",
    "AdmissionDecision",
    "ConformalInterval",
    "conformal_interval",
    "conformal_p_meet",
]

#: The admission modes of ``CatalogService(admission=…)`` and
#: ``repro traffic --admission``: ``"off"`` (today's behaviour, bit for
#: bit) or ``"conformal"`` (the calibrated gate of this module).
ADMISSION_MODES = ("off", "conformal")

#: Calibration samples retained per request class.  A bounded recent
#: window keeps memory constant and the model tracking the *current*
#: latency regime (the same reasoning as the service's latency window).
DEFAULT_WINDOW = 256

#: Samples a class needs before the controller issues intervals at all.
#: Below this the class is uncalibrated and the gate passes through —
#: though the conformal ranks enforce their own, usually stricter,
#: warm-up: ``lo`` stays 0 until ``n >= 2/(1-P) - 1`` (19 samples at the
#: default 90% coverage).
DEFAULT_MIN_SAMPLES = 8


def conformal_interval(
    samples: Sequence[PyTuple[float, bool]], coverage: float
) -> PyTuple[float, float]:
    """The split-conformal ``(lo, hi)`` over ``(value, censored)`` samples.

    ``lo`` is 0.0 while the lower rank is out of range (cold start — the
    admission gate passes everything through) and ``hi`` is ``math.inf``
    while the upper rank is.  Censored samples enter the lower-bound
    statistics at face value and the upper-bound statistics as ``+inf``
    (see the module docstring for why both directions are conservative).
    """

    if not 0.0 < coverage < 1.0:
        raise ValueError(f"coverage must be in (0, 1), got {coverage}")
    n = len(samples)
    if n == 0:
        return 0.0, math.inf
    alpha = 1.0 - coverage
    k_lo = math.floor((n + 1) * alpha / 2.0)
    k_hi = math.ceil((n + 1) * (1.0 - alpha / 2.0))
    if k_lo < 1:
        lo = 0.0
    else:
        ordered_lo = sorted(value for value, _censored in samples)
        lo = ordered_lo[k_lo - 1]
    if k_hi > n:
        hi = math.inf
    else:
        ordered_hi = sorted(
            math.inf if censored else value for value, censored in samples
        )
        hi = ordered_hi[k_hi - 1]
    return lo, hi


def conformal_p_meet(
    samples: Sequence[PyTuple[float, bool]], deadline_s: float
) -> float:
    """The conformal p-value of "a fresh sample lands at or below ``deadline_s``".

    ``(1 + #{y_i <= d}) / (n + 1)`` — the standard smoothed conformal
    p-value.  A censored sample whose recorded lower bound exceeds ``d``
    certainly exceeds ``d``; one at or below ``d`` *might* still have met
    it, so it counts as meeting — the conservative direction for the
    ``1 - p_meet`` unmeetability confidence built on top.
    """

    met = sum(1 for value, _censored in samples if value <= deadline_s)
    return (1.0 + met) / (len(samples) + 1.0)


class ConformalInterval:
    """One calibrated ``[lo_s, hi_s]`` service-time interval.

    ``hi_s`` is ``math.inf`` while the upper rank is out of range;
    ``samples`` is the calibration-set size the interval was computed
    from (0 for the deterministic floor interval, whose ``coverage`` is
    1.0 — a certainty, not an estimate).
    """

    __slots__ = ("lo_s", "hi_s", "coverage", "samples")

    def __init__(
        self, lo_s: float, hi_s: float, coverage: float, samples: int
    ) -> None:
        self.lo_s = lo_s
        self.hi_s = hi_s
        self.coverage = coverage
        self.samples = samples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hi = "inf" if math.isinf(self.hi_s) else f"{self.hi_s:.6f}"
        return (
            f"ConformalInterval(lo={self.lo_s:.6f}, hi={hi}, "
            f"coverage={self.coverage}, samples={self.samples})"
        )


class AdmissionDecision:
    """One admission verdict: admit, or refuse as calibrated-unmeetable.

    ``deterministic`` marks the floor-rule refusals (certain, not
    statistical); ``interval`` carries the predicted service-time
    interval backing the decision — on refusals it is what the client
    sees, on admissions it is stamped onto the eventual response so the
    empirical coverage of the calibrator stays measurable.
    """

    __slots__ = ("admit", "reason", "interval", "deterministic")

    def __init__(
        self,
        admit: bool,
        reason: str = "",
        interval: Optional[ConformalInterval] = None,
        deterministic: bool = False,
    ) -> None:
        self.admit = admit
        self.reason = reason
        self.interval = interval
        self.deterministic = deterministic


class _ClassWindow:
    """The bounded calibration window of one request class."""

    __slots__ = ("values", "observed", "censored")

    def __init__(self, window: int) -> None:
        self.values: Deque[PyTuple[float, bool]] = deque(maxlen=window)
        self.observed = 0
        self.censored = 0


class AdmissionController:
    """The online per-request-class service-time model behind the gate.

    Thread-safety: :meth:`observe` and the read methods may be called
    from the event-loop thread while :meth:`stats` is read elsewhere, so
    the class table is guarded by one small lock; every operation under
    it is O(window log window) at worst (one sort per interval).

    Parameters
    ----------
    policy:
        The service's :class:`DeadlinePolicy` — supplies the deadline
        tiers that key the request classes and the deterministic
        ``floor_s`` rule.
    coverage:
        The conformal coverage level ``P`` of issued intervals (default
        0.9).  Refusal precision is at least ``P`` by construction.
    window / min_samples:
        Per-class calibration-window bound and the calibration threshold
        below which the learned gate passes through.

    The live coverage-drift monitor (:attr:`drift`, a
    :class:`repro.obs.drift.CoverageMonitor` with the ``DEFAULT_DRIFT_*``
    settings) alarms when the rolling-window two-sided empirical coverage
    of stamped intervals falls below ``coverage - DEFAULT_DRIFT_SLACK``.
    """

    def __init__(
        self,
        policy: DeadlinePolicy,
        coverage: float = 0.9,
        window: int = DEFAULT_WINDOW,
        min_samples: int = DEFAULT_MIN_SAMPLES,
    ) -> None:
        if not 0.0 < coverage < 1.0:
            raise ValueError(f"coverage must be in (0, 1), got {coverage}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        self._policy = policy
        self._coverage = float(coverage)
        self._window = int(window)
        self._min_samples = int(min_samples)
        self._classes: Dict[PyTuple, _ClassWindow] = {}
        self._lock = threading.Lock()
        self.drift = CoverageMonitor(self._coverage)

    # -------------------------------------------------------------- classing
    @property
    def coverage(self) -> float:
        """The configured conformal coverage level ``P``."""

        return self._coverage

    def class_key(
        self, kind: str, deadline_s: Optional[float], n_views: int
    ) -> PyTuple:
        """``(kind, deadline tier, catalog-size bucket)`` for one request."""

        return (kind, self._policy.tier_for(deadline_s), int(n_views).bit_length())

    # ------------------------------------------------------------- the model
    def observe(
        self,
        kind: str,
        deadline_s: Optional[float],
        n_views: int,
        total_s: float,
        censored: bool = False,
    ) -> None:
        """Record one end-to-end sample (queue wait + service time).

        ``censored=True`` marks a shed/refused request: ``total_s`` is the
        elapsed time at refusal, a *lower bound* on the unobserved true
        completion time (the survivorship fix — see the module docstring
        for how censored samples enter each bound conservatively).
        """

        key = self.class_key(kind, deadline_s, n_views)
        with self._lock:
            window = self._classes.get(key)
            if window is None:
                window = self._classes[key] = _ClassWindow(self._window)
            window.values.append((max(0.0, float(total_s)), bool(censored)))
            window.observed += 1
            if censored:
                window.censored += 1

    def record_finished(
        self,
        request: ServiceRequest,
        n_views: int,
        total_s: float,
        status: str,
        computed: bool,
        interval: Optional["ConformalInterval"] = None,
    ) -> None:
        """The sample rule: what one finished request teaches the model.

        The service calls this for every request that held a queue slot,
        in both admission modes (a later conformal service starts warm, and
        metrics always show the calibration state):

        * an answered read (``ok``/``partial``) is an exact sample, plus
          one drift-monitor outcome when it was stamped with an interval
          at admission — the same population ``verify_replay`` scores
          offline;
        * a read refused before any work started (shed, or expired or
          below the floor at dispatch: ``computed=False``) is a censored
          sample — the survivorship fix.  Censored outcomes never reach
          the drift monitor: the offline coverage definitions skip them
          too, and a lower bound would bias two-sided coverage downward;
        * anything else — an edit, or a read refused after its work began —
          gives nothing.
        """

        if request.is_edit:
            return
        if status != "refused":
            self.observe(request.kind, request.deadline_s, n_views, total_s)
            if interval is not None:
                self.drift.observe(interval.lo_s, interval.hi_s, total_s)
        elif not computed:
            self.observe(
                request.kind, request.deadline_s, n_views, total_s, censored=True
            )

    def interval_for(
        self, kind: str, deadline_s: Optional[float], n_views: int
    ) -> Optional[ConformalInterval]:
        """The calibrated interval of the request's class, or ``None`` cold."""

        key = self.class_key(kind, deadline_s, n_views)
        with self._lock:
            window = self._classes.get(key)
            if window is None or len(window.values) < self._min_samples:
                return None
            samples = tuple(window.values)
        lo, hi = conformal_interval(samples, self._coverage)
        return ConformalInterval(lo, hi, self._coverage, len(samples))

    # -------------------------------------------------------------- decisions
    def decide(
        self, kind: str, deadline_s: Optional[float], n_views: int
    ) -> AdmissionDecision:
        """Admit or refuse one read request at submission time.

        Unbounded requests always admit.  A deadline below the policy
        floor refuses deterministically (the serve path would certainly
        refuse it at dispatch — the refusal just lands before the wait
        instead of after).  Otherwise the learned gate refuses exactly
        when the deadline falls below the calibrated lower bound of the
        class's predicted end-to-end time, and passes through while the
        class is uncalibrated — a cold start admits what today's service
        admits.
        """

        if deadline_s is None:
            return AdmissionDecision(admit=True)
        floor = self._policy.floor_s
        if deadline_s < floor:
            return AdmissionDecision(
                admit=False,
                reason=(
                    f"deadline of {deadline_s:.4f}s lies below the service "
                    f"floor of {floor:.4f}s: dispatch would certainly refuse "
                    "it; refused at admission instead of after the wait"
                ),
                interval=ConformalInterval(floor, math.inf, 1.0, 0),
                deterministic=True,
            )
        interval = self.interval_for(kind, deadline_s, n_views)
        if interval is not None and deadline_s < interval.lo_s:
            return AdmissionDecision(
                admit=False,
                reason=(
                    f"deadline of {deadline_s:.4f}s falls below the "
                    f"calibrated service-time lower bound of "
                    f"{interval.lo_s:.4f}s (coverage {interval.coverage:.2f} "
                    f"over {interval.samples} samples): predicted unmeetable"
                ),
                interval=interval,
            )
        return AdmissionDecision(admit=True, interval=interval)

    def confidence_unmeetable(
        self, kind: str, deadline_s: Optional[float], n_views: int
    ) -> Optional[float]:
        """The calibrated confidence that ``deadline_s`` was unmeetable.

        ``1 - p_meet`` over the **base-tier** class of the same kind —
        the class full-budget requests of this kind land in, which is the
        population the "would a looser deadline have helped?" question is
        about.  ``None`` while that class is uncalibrated (or for
        unbounded requests, where the question is vacuous).
        """

        if deadline_s is None:
            return None
        key = (kind, TIER_BASE, int(n_views).bit_length())
        with self._lock:
            window = self._classes.get(key)
            if window is None or len(window.values) < self._min_samples:
                return None
            samples = tuple(window.values)
        return 1.0 - conformal_p_meet(samples, deadline_s)

    # ---------------------------------------------------------------- stats
    def stats(self) -> Dict[str, int]:
        """Aggregate calibration accounting for :meth:`CatalogService.metrics`.

        ``classes`` — distinct request classes seen; ``calibrated`` —
        those past ``min_samples``; ``samples``/``censored`` — lifetime
        observation counts (the windows themselves are bounded).
        """

        with self._lock:
            return {
                "classes": len(self._classes),
                "calibrated": sum(
                    1
                    for window in self._classes.values()
                    if len(window.values) >= self._min_samples
                ),
                "samples": sum(w.observed for w in self._classes.values()),
                "censored": sum(w.censored for w in self._classes.values()),
            }

    def drift_stats(self) -> Dict[str, object]:
        """The live coverage-drift monitor snapshot (see ``obs.drift``)."""

        return self.drift.stats()
