"""Mapping per-request deadlines onto construction-search budgets.

The decision procedures have no preemption points — a membership question
either runs its cover-guided subset search or it does not — so the service
cannot honour a deadline by interrupting a search mid-flight.  What it *can*
do is choose the :class:`~repro.views.closure.SearchLimits` budgets before
starting, because the search cost is monotone in ``max_candidates`` and
``max_subsets``.  :class:`DeadlinePolicy` makes that mapping explicit:

* deadlines at or above ``full_deadline_s`` get the service's **base**
  budgets — the exact tier, whose answers are bit-identical to a direct
  :class:`repro.engine.CatalogAnalyzer` run;
* deadlines between ``floor_s`` and ``full_deadline_s`` get **reduced**
  budgets, scaled linearly with the remaining time.  A construction found
  under reduced budgets is a sound positive witness; a *failed* reduced
  search proves nothing (the truncation point is budget-dependent), so the
  service reports it as an explicit ``partial``/unknown — never as a
  negative verdict;
* deadlines below ``floor_s`` (and deadlines that already expired while the
  request sat in the queue) are **refused** outright.

Soundness over latency: the tiers only ever shrink budgets, so the reduced
tier can refuse or under-answer but cannot contradict the base tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple as PyTuple

from repro.views.closure import SearchLimits

__all__ = [
    "DeadlinePolicy",
    "OVERLOAD_POLICY",
    "TIER_BASE",
    "TIER_REDUCED",
    "TIER_REFUSE",
]

TIER_BASE = "base"
TIER_REDUCED = "reduced"
TIER_REFUSE = "refuse"


@dataclass(frozen=True)
class DeadlinePolicy:
    """Knobs of the deadline-to-budget mapping.

    ``full_deadline_s`` — remaining time at which the base budgets apply.
    ``floor_s``         — remaining time below which the service refuses
                          rather than run a search too truncated to mean
                          anything.
    ``min_candidates``/``min_subsets`` — floors of the reduced tier, so a
    barely-adequate deadline still buys a search that can find the easy
    witnesses.
    """

    full_deadline_s: float = 0.5
    floor_s: float = 0.002
    min_candidates: int = 4
    min_subsets: int = 8

    def __post_init__(self) -> None:
        if self.floor_s < 0 or self.full_deadline_s <= 0:
            raise ValueError("deadline policy thresholds must be positive")
        if self.floor_s >= self.full_deadline_s:
            raise ValueError("floor_s must lie below full_deadline_s")

    def limits_for(
        self, remaining_s: Optional[float], base: SearchLimits
    ) -> PyTuple[str, Optional[SearchLimits]]:
        """``(tier, limits)`` for a request with ``remaining_s`` on the clock.

        ``remaining_s=None`` (no deadline) is the base tier.  The reduced
        tier scales ``max_candidates`` and ``max_subsets`` by the fraction
        of ``full_deadline_s`` still available; ``max_rows`` is left alone —
        it is the Lemma 2.4.8 soundness bound, not a cost knob.
        """

        if remaining_s is None or remaining_s >= self.full_deadline_s:
            return TIER_BASE, base
        if remaining_s < self.floor_s:
            return TIER_REFUSE, None
        fraction = remaining_s / self.full_deadline_s
        # Clamp to the base budgets: the tier floors must never *raise* a
        # deliberately starved base limit, or a reduced-tier search could
        # find witnesses the exact tier would not — contradicting the
        # bit-identity contract instead of soundly under-answering.
        reduced = SearchLimits(
            max_rows=base.max_rows,
            max_candidates=min(
                base.max_candidates,
                max(self.min_candidates, int(base.max_candidates * fraction)),
            ),
            max_subsets=min(
                base.max_subsets,
                max(self.min_subsets, int(base.max_subsets * fraction)),
            ),
        )
        if reduced == base:
            return TIER_BASE, base
        return TIER_REDUCED, reduced

    def tier_for(self, deadline_s: Optional[float]) -> str:
        """Classify a **full** deadline into the tier its budget would buy.

        The pure classification half of :meth:`limits_for`, applied to a
        request's submitted deadline rather than the remaining one —
        what the admission layer keys its request classes on (the tier
        decides the search budgets, and the budgets decide the service
        time).  ``None`` (unbounded) classifies as the base tier.
        """

        if deadline_s is None or deadline_s >= self.full_deadline_s:
            return TIER_BASE
        if deadline_s < self.floor_s:
            return TIER_REFUSE
        return TIER_REDUCED


#: The policy of the overload lanes (CLI ``traffic --overload`` and the
#: smoke harness's ``service_overload_*`` lanes — one definition, so the CLI
#: reproduces the lanes' numbers): tight-but-meetable deadlines
#: (>= 10 ms remaining) still get the base budgets, making the scheduler
#: choice — not the budget tiering — the only variable between lanes, and
#: every served answer exact and replay-verifiable; the 5 ms floor refuses
#: work the service cannot finish in time instead of computing an answer
#: that lands after its deadline.
OVERLOAD_POLICY = DeadlinePolicy(full_deadline_s=0.01, floor_s=0.005)
