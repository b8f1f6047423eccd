"""The invariant catalogue: what a consistent run must satisfy.

Each check mirrors a defense the physical platform had (see the
catalogue table in ``docs/architecture.md`` for the full mapping):
conservation and re-aggregation are the CB board's periodic counter
collection, the instruction/cycle sync checks are the FSB
retired/cycle message reconciliation between SoftSDV's and Dragonhead's
time domains, window integration is the host's 500 µs poll series
summing to the final counters, occupancy is a directory walk of the CC
bank SRAMs, and the LRU oracle is a second, independent implementation
of the replacement logic shadow-checking the first.
"""

from __future__ import annotations

import math

import numpy as np

from repro.audit.report import AuditCheck, AuditReport, make_check
from repro.cache.stats import CacheStats
from repro.telemetry import runtime as telemetry

#: Fields compared by the CB re-aggregation check.
_STAT_FIELDS = (
    "accesses",
    "hits",
    "misses",
    "reads",
    "writes",
    "read_misses",
    "write_misses",
    "evictions",
    "prefetches",
    "prefetch_hits",
    "per_core_accesses",
    "per_core_misses",
)


def _diff_stats(reported: CacheStats, recomputed: CacheStats) -> list[str]:
    """Field-by-field difference between two counter blocks."""
    problems = []
    for name in _STAT_FIELDS:
        a, b = getattr(reported, name), getattr(recomputed, name)
        if a != b:
            problems.append(f"{name}: reported {a} != recomputed {b}")
    return problems


def _check_conservation(emulator, performance) -> list[AuditCheck]:
    problems: list[str] = []
    for index, bank in enumerate(emulator.banks):
        problems.extend(bank.stats.conservation_violations(label=f"CC{index}"))
    checks = [make_check("bank-conservation", problems)]
    checks.append(
        make_check(
            "aggregate-conservation",
            performance.stats.conservation_violations("aggregate"),
        )
    )
    return checks


def _check_reaggregation(emulator, performance) -> AuditCheck:
    """Re-collect the bank counters and compare with what was reported.

    Catches a reported :class:`CacheStats` that drifted from the live
    bank counters — a stale snapshot, an aliasing bug, or deliberate
    perturbation between collection and reporting.
    """
    return make_check(
        "cb-reaggregation", _diff_stats(performance.stats, emulator.stats)
    )


def _check_time_domains(
    performance, expected_instructions, expected_cycles
) -> list[AuditCheck]:
    """Scheduler-side raw counts versus the AF's message-decoded ones."""
    checks = []
    problems = []
    if expected_instructions is not None:
        if performance.instructions_retired != expected_instructions:
            problems.append(
                f"AF decoded {performance.instructions_retired} retired "
                f"instructions, scheduler issued {expected_instructions}"
            )
    if expected_cycles is not None:
        if performance.cycles_completed != expected_cycles:
            problems.append(
                f"AF decoded {performance.cycles_completed} cycles, "
                f"scheduler issued {expected_cycles}"
            )
    checks.append(make_check("instruction-sync", problems))
    if expected_instructions:
        recomputed = 1000.0 * performance.stats.misses / expected_instructions
        problems = []
        if not math.isclose(performance.mpki, recomputed, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(
                f"reported MPKI {performance.mpki!r} != {recomputed!r} "
                f"recomputed from raw retired-instruction counts"
            )
        checks.append(make_check("mpki-recompute", problems))
    return checks


def _check_window_integration(performance) -> AuditCheck:
    """The 500 µs window series must integrate to the final counters.

    Exact equality, not tolerance: the sampler's interpolation splits
    are integer divisions whose remainders are assigned to the earliest
    windows, so even repaired series preserve totals exactly.
    """
    problems = []
    instructions = sum(sample.instructions for sample in performance.samples)
    accesses = sum(sample.accesses for sample in performance.samples)
    misses = sum(sample.misses for sample in performance.samples)
    if instructions != performance.instructions_retired:
        problems.append(
            f"window instructions sum {instructions} != final "
            f"{performance.instructions_retired}"
        )
    if accesses != performance.stats.accesses:
        problems.append(
            f"window access sum {accesses} != final {performance.stats.accesses}"
        )
    if misses != performance.stats.misses:
        problems.append(
            f"window miss sum {misses} != final {performance.stats.misses}"
        )
    return make_check("window-integration", problems)


def _check_occupancy(emulator) -> AuditCheck:
    """Directory walk: residency must reconcile with the miss counters.

    The emulator banks serve demand traffic only (no prefetch installs,
    no invalidations), so every resident line entered on a miss and
    left on an eviction: ``resident == misses - evictions``, bounded by
    capacity, with every set within associativity and every tag mapping
    back to the set that holds it.
    """
    problems = []
    for index, bank in enumerate(emulator.banks):
        stats = bank.stats
        resident = bank.resident_count()
        expected = stats.misses - stats.evictions
        if resident != expected:
            problems.append(
                f"CC{index}: {resident} resident lines != misses-evictions "
                f"= {expected}"
            )
        if resident > bank.config.num_lines:
            problems.append(
                f"CC{index}: {resident} resident lines exceed capacity "
                f"{bank.config.num_lines}"
            )
        directory = bank.state_dict()["policy"]
        lengths = np.asarray(directory["lengths"])  # type: ignore[index]
        tags = np.asarray(directory["tags"])  # type: ignore[index]
        counts = np.clip(lengths, 0, None)
        over = np.nonzero(lengths > bank.config.associativity)[0]
        if over.size:
            problems.append(
                f"CC{index}: {over.size} sets exceed associativity "
                f"{bank.config.associativity} (first: set {int(over[0])} "
                f"holds {int(lengths[over[0]])})"
            )
        set_of_tag = np.repeat(
            np.arange(lengths.size, dtype=np.uint64), counts
        )
        mismatched = np.nonzero(
            (tags & np.uint64(bank.config.num_sets - 1)) != set_of_tag
        )[0]
        if mismatched.size:
            problems.append(
                f"CC{index}: {mismatched.size} resident tags map outside "
                f"their set (first: tag {int(tags[mismatched[0]])} in set "
                f"{int(set_of_tag[mismatched[0]])})"
            )
    return make_check("occupancy", problems)


def _check_oracle(emulator, performance) -> AuditCheck | None:
    tap = emulator.oracle
    if tap is None:
        return None
    problems = tap.verify(emulator.banks)
    if tap.every == 1 and tap.observed != performance.stats.accesses:
        problems.append(
            f"full-coverage oracle observed {tap.observed} accesses, banks "
            f"counted {performance.stats.accesses} — the tap was bypassed"
        )
    return make_check("lru-oracle", problems)


def run_audit(
    emulator,
    performance,
    *,
    mode: str,
    expected_instructions: int | None = None,
    expected_cycles: int | None = None,
) -> AuditReport:
    """Audit one completed run; returns the full report.

    Args:
        emulator: the :class:`~repro.cache.emulator.DragonheadEmulator`
            in its end-of-run state (after ``read_performance_data``).
        performance: the :class:`~repro.cache.emulator.PerformanceData`
            that was reported for the run.
        mode: ``"sample"`` or ``"full"`` (recorded in the report; the
            oracle's coverage was fixed when its tap was attached).
        expected_instructions: the scheduler's raw total of retired
            instructions (the simulation-domain side of the FSB sync).
        expected_cycles: the scheduler's raw cycle total.
    """
    with telemetry.span("audit"):
        checks: list[AuditCheck] = []
        checks.extend(_check_conservation(emulator, performance))
        checks.append(_check_reaggregation(emulator, performance))
        checks.extend(
            _check_time_domains(performance, expected_instructions, expected_cycles)
        )
        checks.append(_check_window_integration(performance))
        checks.append(_check_occupancy(emulator))
        oracle_check = _check_oracle(emulator, performance)
        if oracle_check is not None:
            checks.append(oracle_check)
        report = AuditReport(mode=mode, checks=tuple(checks))
        telemetry.counter("repro_audit_passes_total").inc()
        telemetry.counter("repro_audit_checks_total").inc(len(report.checks))
        telemetry.counter("repro_audit_violations_total").inc(
            len(report.violations)
        )
        return report
