"""Process-local metrics: counters, gauges, histograms, Prometheus text.

Design constraints (see ARCHITECTURE.md "Telemetry"):

* **Off by default, cheap when off.**  Every probe helper starts with
  ``if not _ENABLED: return`` and hot call sites additionally guard on the
  module flag, so a disabled build pays one attribute load + branch per
  *window* (never per interaction).
* **Never touches engine RNG.**  Probes only read already-computed values
  (window sizes, counts, wall-clock); enabling telemetry cannot perturb a
  simulation stream, which the bit-identity test matrix enforces.
* **Process-local, mergeable.**  ``--jobs N`` forks workers whose registry
  updates stay in the child; :meth:`MetricsRegistry.snapshot` /
  :meth:`MetricsRegistry.merge` exist so callers who want cross-process
  totals can ship snapshots over any transport and add them up.  Counter
  and histogram samples add; gauges overwrite (last writer wins).
* **Prometheus text.**  :meth:`MetricsRegistry.render_prometheus` emits
  the ``text/plain; version=0.0.4`` exposition format (``# HELP`` /
  ``# TYPE``, cumulative ``_bucket{le=...}`` histograms) scraped from
  ``GET /metrics`` on a live repro serve instance.
"""

from __future__ import annotations

import math
import re
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Module switches -- flipped by :func:`enable` / :func:`set_profiling` and
#: read directly (``metrics._ENABLED``) on hot paths to keep the off cost
#: at one attribute load + branch per window.
_ENABLED = False
_PROFILING = False

#: Window sizes span 1 (loop engine pairs) to 1e6+ (counts tau-leaps).
WINDOW_BUCKETS = (1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576)

#: Latency-style buckets for checkpoint capture and stage timings.
TIME_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0)

_NAME_PATTERN = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_PATTERN = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def enabled() -> bool:
    return _ENABLED


def enable() -> None:
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    global _ENABLED
    _ENABLED = False


def profiling() -> bool:
    return _PROFILING


def set_profiling(flag: bool) -> None:
    """Toggle per-stage timing (``--profile``); implies probes are worth it."""
    global _PROFILING
    _PROFILING = bool(flag)


@contextmanager
def telemetry_session(*, enable_metrics: bool = True, profile: bool = False) -> Iterator["MetricsRegistry"]:
    """Enable telemetry for a scope, restoring both flags on exit.

    Used by ``repro run --trace/--profile`` and the serve front end so
    tests and library callers never leak global state.
    """
    global _ENABLED, _PROFILING
    saved = (_ENABLED, _PROFILING)
    _ENABLED = bool(enable_metrics) or bool(profile)
    _PROFILING = bool(profile)
    try:
        yield _REGISTRY
    finally:
        _ENABLED, _PROFILING = saved


class Counter:
    """Monotonically increasing float (resets only with the registry)."""

    __slots__ = ("value", "_lock")

    def __init__(self):
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (queue depth, heartbeat timestamps)."""

    __slots__ = ("value", "_lock")

    def __init__(self):
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Histogram:
    """Fixed-bucket histogram (per-bucket counts, not cumulative in memory)."""

    __slots__ = ("bounds", "counts", "sum", "count", "_lock")

    def __init__(self, bounds: Sequence[float]):
        self.bounds = tuple(float(bound) for bound in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError(f"histogram buckets must be sorted and unique: {bounds}")
        self.counts = [0] * (len(self.bounds) + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = len(self.bounds)
        for position, bound in enumerate(self.bounds):
            if value <= bound:
                index = position
                break
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1


class MetricsRegistry:
    """Name+labels keyed metric store with snapshot/merge and rendering.

    A metric *family* is one name with a fixed type, help string, and (for
    histograms) bucket layout; registering the same name with a different
    type or buckets raises ``ValueError`` (same contract as Prometheus
    client libraries).  Lookups are cached by ``(name, labels)`` so hot
    probes resolve with one dict get.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: Dict[str, Dict] = {}
        self._metrics: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], object] = {}

    # -- registration ------------------------------------------------------------------

    def _get(self, kind: str, name: str, help_text: str, labels: Dict[str, str],
             buckets: Optional[Sequence[float]] = None):
        key = (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))
        metric = self._metrics.get(key)
        if metric is not None and self._consistent(metric, kind, buckets):
            return metric
        with self._lock:
            metric = self._metrics.get(key)
            if metric is not None:
                if not self._consistent(metric, kind, buckets):
                    family = self._families[name]
                    if family["type"] != kind:
                        raise ValueError(
                            f"metric {name!r} already registered as "
                            f"{family['type']}, not {kind}"
                        )
                    raise ValueError(
                        f"metric {name!r} already registered with different buckets"
                    )
                return metric
            if not _NAME_PATTERN.match(name):
                raise ValueError(f"invalid metric name {name!r}")
            for label in labels:
                if not _LABEL_PATTERN.match(str(label)):
                    raise ValueError(f"invalid label name {label!r} on metric {name!r}")
            family = self._families.get(name)
            if family is None:
                family = {"type": kind, "help": help_text}
                if kind == "histogram":
                    family["buckets"] = tuple(buckets if buckets is not None else TIME_BUCKETS)
                self._families[name] = family
            elif family["type"] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family['type']}, not {kind}"
                )
            elif kind == "histogram" and buckets is not None and tuple(buckets) != family["buckets"]:
                raise ValueError(f"metric {name!r} already registered with different buckets")
            if kind == "counter":
                metric = Counter()
            elif kind == "gauge":
                metric = Gauge()
            else:
                metric = Histogram(family["buckets"])
            self._metrics[key] = metric
            return metric

    @staticmethod
    def _consistent(metric, kind: str, buckets: Optional[Sequence[float]]) -> bool:
        """Does a cached metric match the requested kind (and bucket layout)?"""
        expected = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}[kind]
        if not isinstance(metric, expected):
            return False
        if kind == "histogram" and buckets is not None:
            return tuple(float(bound) for bound in buckets) == metric.bounds
        return True

    def counter(self, name: str, help_text: str = "", **labels: str) -> Counter:
        return self._get("counter", name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", **labels: str) -> Gauge:
        return self._get("gauge", name, help_text, labels)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Optional[Sequence[float]] = None, **labels: str) -> Histogram:
        return self._get("histogram", name, help_text, labels, buckets=buckets)

    # -- snapshot / merge --------------------------------------------------------------

    def snapshot(self) -> Dict:
        """JSON-able copy of every family and sample (stable ordering)."""
        with self._lock:
            families = {
                name: {**family, **({"buckets": list(family["buckets"])} if "buckets" in family else {})}
                for name, family in sorted(self._families.items())
            }
            samples: List[Dict] = []
            for (name, label_items) in sorted(self._metrics):
                metric = self._metrics[(name, label_items)]
                sample: Dict = {"name": name, "labels": dict(label_items)}
                if isinstance(metric, Histogram):
                    sample.update(
                        buckets=list(metric.counts), sum=metric.sum, count=metric.count
                    )
                else:
                    sample["value"] = metric.value
                samples.append(sample)
        return {"families": families, "samples": samples}

    def merge(self, snapshot: Dict) -> None:
        """Fold another registry's snapshot in (counters/histograms add,
        gauges overwrite)."""
        families = snapshot.get("families", {})
        for sample in snapshot.get("samples", []):
            name = sample["name"]
            family = families.get(name)
            if family is None:
                raise ValueError(f"snapshot sample {name!r} has no family entry")
            kind = family["type"]
            labels = sample.get("labels", {})
            if kind == "counter":
                self.counter(name, family.get("help", ""), **labels).inc(sample["value"])
            elif kind == "gauge":
                self.gauge(name, family.get("help", ""), **labels).set(sample["value"])
            else:
                histogram = self.histogram(
                    name, family.get("help", ""), buckets=family.get("buckets"), **labels
                )
                counts = sample.get("buckets", [])
                if len(counts) != len(histogram.counts):
                    raise ValueError(
                        f"snapshot histogram {name!r} has {len(counts)} buckets, "
                        f"registry has {len(histogram.counts)}"
                    )
                with histogram._lock:
                    for index, count in enumerate(counts):
                        histogram.counts[index] += count
                    histogram.sum += sample.get("sum", 0.0)
                    histogram.count += sample.get("count", 0)

    # -- rendering ---------------------------------------------------------------------

    def render_prometheus(self) -> str:
        """The ``text/plain; version=0.0.4`` exposition of every sample."""
        snapshot = self.snapshot()
        lines: List[str] = []
        by_family: Dict[str, List[Dict]] = {}
        for sample in snapshot["samples"]:
            by_family.setdefault(sample["name"], []).append(sample)
        for name, family in snapshot["families"].items():
            help_text = family.get("help") or name
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {family['type']}")
            for sample in by_family.get(name, []):
                labels = sample["labels"]
                if family["type"] == "histogram":
                    bounds = list(family["buckets"]) + [math.inf]
                    cumulative = 0
                    for bound, count in zip(bounds, sample["buckets"]):
                        cumulative += count
                        le = {"le": _format_value(bound)}
                        lines.append(
                            f"{name}_bucket{_format_labels({**labels, **le})} {cumulative}"
                        )
                    lines.append(f"{name}_sum{_format_labels(labels)} {_format_value(sample['sum'])}")
                    lines.append(f"{name}_count{_format_labels(labels)} {sample['count']}")
                else:
                    lines.append(f"{name}{_format_labels(labels)} {_format_value(sample['value'])}")
        return "\n".join(lines) + "\n" if lines else ""

    def reset(self) -> None:
        with self._lock:
            self._families.clear()
            self._metrics.clear()


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    number = float(value)
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


#: The process-wide registry every probe helper writes into.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _REGISTRY


def reset_registry() -> None:
    _REGISTRY.reset()


# -- probe helpers ---------------------------------------------------------------------
#
# One tiny function per instrumented event.  Each guards on _ENABLED so call
# sites stay one-liners; window-cadence call sites in the engines *also*
# guard (``if _metrics._ENABLED:``) to skip even the function call when off.


def record_window(engine: str, applied: int) -> None:
    """One scheduler window consumed by an engine (size = interactions applied)."""
    if not _ENABLED:
        return
    _REGISTRY.counter(
        "repro_windows_total", "Scheduler windows consumed, by engine.", engine=engine
    ).inc()
    _REGISTRY.histogram(
        "repro_window_size",
        "Distribution of applied window sizes (interactions per window).",
        buckets=WINDOW_BUCKETS,
        engine=engine,
    ).observe(applied)
    _REGISTRY.counter(
        "repro_interactions_total", "Interactions applied, by engine.", engine=engine
    ).inc(applied)


def record_stop_check(engine: str) -> None:
    if not _ENABLED:
        return
    _REGISTRY.counter(
        "repro_stop_checks_total",
        "Stop-predicate evaluations at check_interval boundaries.",
        engine=engine,
    ).inc()


def record_halving(count: int = 1) -> None:
    if not _ENABLED:
        return
    _REGISTRY.counter(
        "repro_feasibility_halvings_total",
        "Counts-engine window halvings after an infeasible tau-leap draw.",
    ).inc(count)


def record_drift_cap(count: int = 1) -> None:
    if not _ENABLED:
        return
    _REGISTRY.counter(
        "repro_drift_cap_events_total",
        "Counts-engine windows clamped by the drift cap.",
    ).inc(count)


def record_scheduler_refill(count: int = 1) -> None:
    if not _ENABLED:
        return
    _REGISTRY.counter(
        "repro_scheduler_refills_total",
        "Scheduler pair-buffer refills (loop engine and trial-batch cursors).",
    ).inc(count)


def record_fault_injection(kind: str, victims: int) -> None:
    if not _ENABLED:
        return
    _REGISTRY.counter(
        "repro_fault_injections_total",
        "Adversary fault events applied, by event kind.",
        kind=kind,
    ).inc()
    _REGISTRY.counter(
        "repro_fault_victims_total",
        "Agents overwritten by adversary fault events, by event kind.",
        kind=kind,
    ).inc(victims)


def record_byzantine_install(agents: int) -> None:
    if not _ENABLED:
        return
    _REGISTRY.counter(
        "repro_byzantine_installs_total",
        "Byzantine overlay markings drawn (once per trial with a spec).",
    ).inc()
    _REGISTRY.counter(
        "repro_byzantine_agents_total",
        "Agents marked Byzantine across all overlay installs.",
    ).inc(agents)


def record_checkpoint_seconds(seconds: float) -> None:
    if not _ENABLED:
        return
    _REGISTRY.histogram(
        "repro_checkpoint_capture_seconds",
        "Wall time to capture and persist one engine checkpoint.",
        buckets=TIME_BUCKETS,
    ).observe(seconds)


def record_trial(engine: str, interactions: int) -> None:
    if not _ENABLED:
        return
    _REGISTRY.counter(
        "repro_trials_total", "Finished trials observed by the harness.", engine=engine
    ).inc()
    _REGISTRY.counter(
        "repro_trial_interactions_total",
        "Interactions summed over finished trials, by engine.",
        engine=engine,
    ).inc(interactions)


def record_compile(outcome: str) -> None:
    """One compile request: ``built``, ``memo_hit`` or ``unkeyed`` (never memoized)."""
    if not _ENABLED:
        return
    _REGISTRY.counter(
        "repro_compiles_total",
        "Protocol compiles, by outcome: built, memo_hit, or unkeyed "
        "(the protocol did not pickle, so it is compiled every time).",
        outcome=outcome,
    ).inc()


def record_stage_seconds(engine: str, stage: str, seconds: float) -> None:
    """Per-stage wall time (``--profile`` only; callers guard on _PROFILING)."""
    _REGISTRY.counter(
        "repro_stage_seconds_total",
        "Wall seconds per engine stage (compile, scheduler draw, table apply, "
        "stop check).",
        engine=engine,
        stage=stage,
    ).inc(seconds)


def stage_breakdown(snapshot: Dict) -> List[Dict]:
    """``--profile`` rows: ``{engine, stage, seconds}`` sorted by time desc."""
    rows = [
        {
            "engine": sample["labels"].get("engine", "?"),
            "stage": sample["labels"].get("stage", "?"),
            "seconds": round(float(sample["value"]), 6),
        }
        for sample in snapshot.get("samples", [])
        if sample["name"] == "repro_stage_seconds_total"
    ]
    return sorted(rows, key=lambda row: -row["seconds"])


# -- serve-side probes -----------------------------------------------------------------


def record_cache_hit() -> None:
    if not _ENABLED:
        return
    _REGISTRY.counter(
        "repro_cache_hits_total", "Jobs satisfied from the artifact cache."
    ).inc()


def record_job_done(outcome: str) -> None:
    if not _ENABLED:
        return
    _REGISTRY.counter(
        "repro_jobs_total", "Jobs processed by workers, by outcome.", outcome=outcome
    ).inc()


def set_queue_depth(state: str, depth: int) -> None:
    if not _ENABLED:
        return
    _REGISTRY.gauge(
        "repro_queue_depth", "Jobs currently in each queue state.", state=state
    ).set(depth)


def heartbeat(worker: str) -> None:
    if not _ENABLED:
        return
    _REGISTRY.gauge(
        "repro_worker_heartbeat_seconds",
        "Unix timestamp of each worker's last poll.",
        worker=worker,
    ).set(time.time())


def record_http_request(endpoint: str) -> None:
    if not _ENABLED:
        return
    _REGISTRY.counter(
        "repro_http_requests_total", "HTTP requests served, by endpoint.",
        endpoint=endpoint,
    ).inc()


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TIME_BUCKETS",
    "WINDOW_BUCKETS",
    "disable",
    "enable",
    "enabled",
    "heartbeat",
    "profiling",
    "record_byzantine_install",
    "record_cache_hit",
    "record_checkpoint_seconds",
    "record_compile",
    "record_drift_cap",
    "record_fault_injection",
    "record_halving",
    "record_http_request",
    "record_job_done",
    "record_scheduler_refill",
    "record_stage_seconds",
    "record_stop_check",
    "record_trial",
    "record_window",
    "registry",
    "reset_registry",
    "set_profiling",
    "set_queue_depth",
    "stage_breakdown",
    "telemetry_session",
]
