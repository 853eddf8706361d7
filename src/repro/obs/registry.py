"""A small metrics registry: counters, gauges, fixed-bucket histograms.

Prometheus-shaped without the dependency: metric families carry a name,
help text, a kind, and optional label names; every family renders to the
Prometheus text exposition format (``render_prometheus``) and to a
JSON-able dict (``to_dict``).  :func:`validate_exposition` is the golden
check used by tests and the CLI — well-formed ``# HELP``/``# TYPE``
lines, legal metric names, no duplicate series, cumulative histogram
buckets.

Two feeding styles coexist:

* **live-fed** — histograms observe each sample at record time (the
  service feeds latency/queue-wait in its one completion path and
  push latency at edit commit);
* **collect-at-export** — counters and gauges are refreshed from the
  owning component's live counters when the registry is rendered
  (``Counter.set_total`` / ``Gauge.set``), keeping the request hot path
  free of per-metric bookkeeping.
"""

from __future__ import annotations

import json
import re
import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "validate_exposition",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Fixed latency buckets (seconds) shared by the service histograms.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

LabelValues = Tuple[str, ...]


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_suffix(labelnames: Sequence[str], labelvalues: LabelValues) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape(value)}"' for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


class _Family:
    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _resolve(self, labels: Mapping[str, str]) -> LabelValues:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)


class Counter(_Family):
    """Monotonically increasing total.  ``set_total`` supports the
    collect-at-export pattern: refresh from an authoritative live counter
    (the new total must never regress)."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: Dict[LabelValues, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        key = self._resolve(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def set_total(self, total: float, **labels: str) -> None:
        key = self._resolve(labels)
        with self._lock:
            self._values[key] = max(float(total), self._values.get(key, 0.0))

    def value(self, **labels: str) -> float:
        return self._values.get(self._resolve(labels), 0.0)

    def series(self) -> Dict[LabelValues, float]:
        with self._lock:
            return dict(self._values)


class Gauge(_Family):
    """A value that can go up and down; always ``set`` to the latest."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: Dict[LabelValues, float] = {}

    def set(self, value: float, **labels: str) -> None:
        key = self._resolve(labels)
        with self._lock:
            self._values[key] = float(value)

    def value(self, **labels: str) -> float:
        return self._values.get(self._resolve(labels), 0.0)

    def series(self) -> Dict[LabelValues, float]:
        with self._lock:
            return dict(self._values)


class Histogram(_Family):
    """Fixed-bucket histogram (cumulative ``le`` buckets + sum + count)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help_text, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("duplicate histogram bucket bounds")
        self.bounds = bounds
        self._series: Dict[LabelValues, List[Any]] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = self._resolve(labels)
        with self._lock:
            state = self._series.get(key)
            if state is None:
                state = [[0] * len(self.bounds), 0.0, 0]
                self._series[key] = state
            index = bisect_left(self.bounds, value)
            if index < len(self.bounds):
                state[0][index] += 1
            state[1] += value
            state[2] += 1

    def snapshot(self) -> Dict[LabelValues, Dict[str, Any]]:
        """Per-series cumulative bucket counts, sum, and count."""

        out: Dict[LabelValues, Dict[str, Any]] = {}
        with self._lock:
            for key, (per_bucket, total, n) in self._series.items():
                cumulative = []
                running = 0
                for bucket_count in per_bucket:
                    running += bucket_count
                    cumulative.append(running)
                out[key] = {
                    "buckets": dict(zip(self.bounds, cumulative)),
                    "sum": total,
                    "count": n,
                }
        return out


class MetricsRegistry:
    """Named metric families with idempotent registration.

    ``counter``/``gauge``/``histogram`` return the existing family when
    re-registered with the same name and shape, and raise on a
    kind/label/bucket mismatch — two components can safely share one
    registry without clobbering each other.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _register(self, family: _Family) -> _Family:
        with self._lock:
            existing = self._families.get(family.name)
            if existing is None:
                self._families[family.name] = family
                return family
            if existing.kind != family.kind or existing.labelnames != family.labelnames:
                raise ValueError(
                    f"metric {family.name!r} already registered with a "
                    f"different shape"
                )
            if isinstance(existing, Histogram) and isinstance(family, Histogram):
                if existing.bounds != family.bounds:
                    raise ValueError(
                        f"histogram {family.name!r} already registered with "
                        f"different buckets"
                    )
            return existing

    def counter(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        family = self._register(Counter(name, help_text, labelnames))
        assert isinstance(family, Counter)
        return family

    def gauge(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> Gauge:
        family = self._register(Gauge(name, help_text, labelnames))
        assert isinstance(family, Gauge)
        return family

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        family = self._register(Histogram(name, help_text, buckets, labelnames))
        assert isinstance(family, Histogram)
        return family

    def families(self) -> List[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # ------------------------------------------------------------- export
    def render_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4)."""

        lines: List[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {_escape(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            if isinstance(family, Histogram):
                for key, snap in sorted(family.snapshot().items()):
                    for bound, cumulative in snap["buckets"].items():
                        labelnames = family.labelnames + ("le",)
                        labelvalues = key + (_format_value(bound),)
                        lines.append(
                            f"{family.name}_bucket"
                            f"{_label_suffix(labelnames, labelvalues)}"
                            f" {cumulative}"
                        )
                    labelnames = family.labelnames + ("le",)
                    labelvalues = key + ("+Inf",)
                    lines.append(
                        f"{family.name}_bucket"
                        f"{_label_suffix(labelnames, labelvalues)} {snap['count']}"
                    )
                    suffix = _label_suffix(family.labelnames, key)
                    lines.append(
                        f"{family.name}_sum{suffix} {_format_value(snap['sum'])}"
                    )
                    lines.append(f"{family.name}_count{suffix} {snap['count']}")
            else:
                series = family.series()  # type: ignore[attr-defined]
                if not series and not family.labelnames:
                    series = {(): 0.0}
                for key, value in sorted(series.items()):
                    suffix = _label_suffix(family.labelnames, key)
                    lines.append(f"{family.name}{suffix} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able export mirroring the exposition content."""

        out: Dict[str, Any] = {}
        for family in self.families():
            entry: Dict[str, Any] = {
                "type": family.kind,
                "help": family.help,
                "labels": list(family.labelnames),
                "series": [],
            }
            if isinstance(family, Histogram):
                for key, snap in sorted(family.snapshot().items()):
                    entry["series"].append(
                        {
                            "labels": dict(zip(family.labelnames, key)),
                            "buckets": {
                                _format_value(bound): cumulative
                                for bound, cumulative in snap["buckets"].items()
                            },
                            "sum": snap["sum"],
                            "count": snap["count"],
                        }
                    )
            else:
                for key, value in sorted(family.series().items()):  # type: ignore[attr-defined]
                    entry["series"].append(
                        {"labels": dict(zip(family.labelnames, key)), "value": value}
                    )
            out[family.name] = entry
        return out

    def render_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def validate_exposition(text: str) -> List[str]:
    """Problems in a Prometheus text exposition; empty list means valid.

    Checks: HELP/TYPE lines well-formed and TYPE precedes its samples,
    metric and label names legal, sample values parse, no duplicate
    series (same name + label set), histogram bucket counts cumulative.
    """

    problems: List[str] = []
    typed: Dict[str, str] = {}
    seen_series: set = set()
    bucket_runs: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], List[Tuple[float, float]]] = {}
    if text and not text.endswith("\n"):
        problems.append("exposition must end with a newline")
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not _NAME_RE.match(parts[2]):
                problems.append(f"line {lineno}: malformed HELP line")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not _NAME_RE.match(parts[2]) or parts[3] not in (
                "counter",
                "gauge",
                "histogram",
                "summary",
                "untyped",
            ):
                problems.append(f"line {lineno}: malformed TYPE line")
            else:
                typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            problems.append(f"line {lineno}: malformed sample {line!r}")
            continue
        name = match.group("name")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            stripped = name[: -len(suffix)] if name.endswith(suffix) else None
            if stripped and typed.get(stripped) == "histogram":
                base = stripped
                break
        if base not in typed:
            problems.append(f"line {lineno}: sample {name!r} has no TYPE line")
        labels_text = match.group("labels") or ""
        labels: List[Tuple[str, str]] = []
        if labels_text:
            inner = labels_text[1:-1]
            parsed = _LABEL_PAIR_RE.findall(inner)
            reassembled = ",".join(f'{k}="{v}"' for k, v in parsed)
            if reassembled != inner:
                problems.append(f"line {lineno}: malformed labels {labels_text!r}")
            labels = sorted(parsed)
        try:
            value = float(match.group("value").replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            problems.append(f"line {lineno}: bad sample value {match.group('value')!r}")
            continue
        series_key = (name, tuple(labels))
        if series_key in seen_series:
            problems.append(f"line {lineno}: duplicate series {name}{labels_text}")
        seen_series.add(series_key)
        if name.endswith("_bucket") and typed.get(base) == "histogram":
            le = dict(labels).get("le")
            if le is None:
                problems.append(f"line {lineno}: histogram bucket without le label")
            else:
                bound = float("inf") if le == "+Inf" else float(le)
                run_key = (
                    base,
                    tuple(sorted((k, v) for k, v in labels if k != "le")),
                )
                bucket_runs.setdefault(run_key, []).append((bound, value))
    for (base, labels), run in sorted(bucket_runs.items()):
        ordered = sorted(run)
        counts = [count for _, count in ordered]
        if counts != sorted(counts):
            problems.append(f"{base}{dict(labels)}: bucket counts not cumulative")
    return problems
