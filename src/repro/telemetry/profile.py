"""The end-of-run profile: where the wall time and the traffic went.

The paper's host computer ended every run with a readout — counters off
the CB board, reconciled against the simulator's own totals.  This
module is that readout for the software platform: :func:`build_profile`
folds the span tracker and the metric registry into one report dict
(per-phase wall time, accesses per second, trace-cache hit rate,
supervisor retry/timeout counts), and :func:`render_profile` prints it
for a terminal.

Worker processes do not share the parent's registry, so result-level
aggregates are published **parent-side** from the returned
:class:`~repro.core.cosim.CoSimResult` objects via
:func:`publish_results` — fan-out width never changes what a metric
means.  The profile then *reconciles*: the registry's published totals
must equal the sums over the results exactly, and the depth-1 phase
spans must cover at least 95% of the root span's wall time.  The CI
smoke job greps for the reconciliation verdict.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Sequence

from repro.faults.report import DegradationRecord, merge_records
from repro.telemetry.registry import MetricRegistry
from repro.telemetry.spans import SpanTracker

#: Depth-1 spans must cover at least this share of the root span for
#: the profile to call itself reconciled (acceptance: within 5%).
PHASE_COVERAGE_FLOOR = 0.95

#: Registry names for the parent-published result aggregates.
RUNS_TOTAL = "repro_runs_total"
INSTRUCTIONS_TOTAL = "repro_run_instructions_total"
ACCESSES_TOTAL = "repro_run_accesses_total"
MISSES_TOTAL = "repro_run_misses_total"
WINDOWS_TOTAL = "repro_run_windows_total"
FILTERED_TOTAL = "repro_run_filtered_total"
FAULT_EVENTS_TOTAL = "repro_fault_events_total"


def publish_results(registry: MetricRegistry, results: Iterable) -> None:
    """Fold a result list's aggregates into the registry, parent-side.

    Also publishes every result's degradation records as
    ``repro_fault_events_total{kind,source,detail}`` counters, which the
    profile's ``degradation_events`` total reads back.
    """
    for result in results:
        registry.counter(RUNS_TOTAL).inc()
        registry.counter(INSTRUCTIONS_TOTAL).inc(result.instructions)
        registry.counter(ACCESSES_TOTAL).inc(result.accesses)
        registry.counter(MISSES_TOTAL).inc(result.llc_stats.misses)
        registry.counter(WINDOWS_TOTAL).inc(len(result.samples))
        registry.counter(FILTERED_TOTAL).inc(result.filtered)
        for record in result.degradation:
            registry.counter(
                FAULT_EVENTS_TOTAL,
                kind=record.kind,
                source=record.source,
                detail=record.detail,
            ).inc(record.count)


def registry_degradation_records(
    registry: MetricRegistry,
) -> tuple[DegradationRecord, ...]:
    """Degradation records, re-read from the registry's counters.

    The inverse of what :func:`publish_results` wrote: one record per
    ``repro_fault_events_total`` label set, in the (kind, source,
    detail) order ``merge_records`` gives the results' own records.
    """
    records = []
    for labels, value in registry.values_by_label(FAULT_EVENTS_TOTAL).items():
        fields = dict(labels)
        records.append(
            DegradationRecord(
                kind=fields.get("kind", ""),
                source=fields.get("source", ""),
                count=int(value),
                detail=fields.get("detail", ""),
            )
        )
    return merge_records(records)


def _counter_value(registry: MetricRegistry, name: str) -> float:
    total = 0.0
    for value in registry.values_by_label(name).values():
        total += value
    return total


def _label_table(registry: MetricRegistry, name: str, key: str) -> dict[str, int]:
    """Flatten one labelled counter family into ``{label_value: count}``."""
    out: dict[str, int] = {}
    for labels, value in registry.values_by_label(name).items():
        fields = dict(labels)
        out[fields.get(key, "")] = out.get(fields.get(key, ""), 0) + int(value)
    return out


def build_profile(
    results: Sequence,
    tracker: SpanTracker,
    registry: MetricRegistry,
) -> dict:
    """Assemble the end-of-run profile report.

    Call after :func:`publish_results` and after the root span has
    closed; the reconciliation checks compare the registry's published
    totals against fresh sums over ``results`` and the phase spans
    against the root span.
    """
    total_seconds = tracker.total_seconds()
    phases = {
        name: {
            "seconds": seconds,
            "calls": calls,
            "share": (seconds / total_seconds) if total_seconds > 0 else 0.0,
        }
        for name, (seconds, calls) in sorted(tracker.phase_seconds(1).items())
    }
    phase_sum = sum(p["seconds"] for p in phases.values())
    coverage = (phase_sum / total_seconds) if total_seconds > 0 else 1.0

    instructions = sum(r.instructions for r in results)
    accesses = sum(r.accesses for r in results)
    misses = sum(r.llc_stats.misses for r in results)
    windows = sum(len(r.samples) for r in results)

    replay_seconds = phases.get("replay", {}).get("seconds", 0.0)
    rate_base = replay_seconds if replay_seconds > 0 else total_seconds
    accesses_per_second = accesses / rate_base if rate_base > 0 else 0.0

    cache_events = _label_table(registry, "repro_trace_cache_events_total", "event")
    cache_lookups = cache_events.get("hits", 0) + cache_events.get("misses", 0)
    hit_rate = cache_events.get("hits", 0) / cache_lookups if cache_lookups else 0.0

    reconciled = (
        coverage >= PHASE_COVERAGE_FLOOR
        and int(_counter_value(registry, RUNS_TOTAL)) == len(results)
        and int(_counter_value(registry, INSTRUCTIONS_TOTAL)) == instructions
        and int(_counter_value(registry, ACCESSES_TOTAL)) == accesses
        and int(_counter_value(registry, MISSES_TOTAL)) == misses
        and int(_counter_value(registry, WINDOWS_TOTAL)) == windows
    )
    return {
        "total_seconds": total_seconds,
        "phases": phases,
        "phase_coverage": coverage,
        "runs": len(results),
        "instructions": instructions,
        "accesses": accesses,
        "misses": misses,
        "windows": windows,
        "accesses_per_second": accesses_per_second,
        "trace_cache": {
            "events": cache_events,
            "hit_rate": hit_rate,
        },
        "supervisor": _label_table(
            registry, "repro_supervisor_events_total", "event"
        ),
        "degradation_events": int(
            sum(r.count for r in registry_degradation_records(registry))
        ),
        "reconciled": reconciled,
    }


def render_profile(profile: Mapping) -> str:
    """The profile as an aligned text block for the terminal."""
    lines = ["Run profile:"]
    lines.append(f"  total wall time      : {profile['total_seconds']:.3f}s")
    for name, phase in profile["phases"].items():
        lines.append(
            f"    phase {name:<12}: {phase['seconds']:.3f}s "
            f"({100.0 * phase['share']:.1f}%, {phase['calls']} span(s))"
        )
    lines.append(
        f"  phase coverage       : {100.0 * profile['phase_coverage']:.1f}%"
    )
    lines.append(f"  runs                 : {profile['runs']}")
    lines.append(f"  accesses/sec         : {profile['accesses_per_second']:,.0f}")
    lines.append(f"  sampled windows      : {profile['windows']}")
    cache = profile["trace_cache"]
    if cache["events"]:
        events = " ".join(f"{k}={v}" for k, v in sorted(cache["events"].items()))
        lines.append(
            f"  trace cache          : {events} "
            f"(hit rate {100.0 * cache['hit_rate']:.0f}%)"
        )
    if profile["supervisor"]:
        events = " ".join(
            f"{k}={v}" for k, v in sorted(profile["supervisor"].items())
        )
        lines.append(f"  supervisor events    : {events}")
    if profile["degradation_events"]:
        lines.append(
            f"  degradation events   : {profile['degradation_events']}"
        )
    lines.append(
        "  reconciliation       : "
        + ("OK" if profile["reconciled"] else "MISMATCH")
    )
    return "\n".join(lines)


def write_profile(profile: Mapping, path: str) -> None:
    """Write the profile as JSON (for CI artifacts and tooling)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dict(profile), handle, indent=2, sort_keys=True)
        handle.write("\n")
