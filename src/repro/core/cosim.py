"""Hardware-software co-simulation: SoftSDV driving Dragonhead.

Section 3.3: "We use a new co-simulation methodology to run SoftSDV in
DEX mode while enabling it to drive a performance model through
integrated Dragonhead emulation."  The wiring is the front-side bus:
SoftSDV issues guest transactions and protocol messages on the FSB; the
Dragonhead emulator snoops them.

:class:`CoSimPlatform` assembles the three pieces and exposes one call,
:meth:`run`, which executes a workload to completion on a chosen core
count and returns the emulator's performance data, instruction-
synchronized the way the real platform computes MPKI.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.audit import AUDIT_FULL, AUDIT_OFF, OracleTap, resolve_audit_mode, run_audit
from repro.audit.oracle import SAMPLE_EVERY
from repro.audit.report import AuditReport
from repro.cache.emulator import (
    BANK_SHIFT,
    NUM_BANKS,
    DragonheadConfig,
    DragonheadEmulator,
    PerformanceData,
)
from repro.cache.stats import CacheStats
from repro.core.fsb import FrontSideBus
from repro.cache.sampling import WindowSample
from repro.core.softsdv import GuestWorkload, SoftSDV
from repro.errors import AuditError
from repro.faults.report import DegradationRecord, collect_run_degradation, merge_records
from repro.faults.spec import FaultSpec
from repro.telemetry import runtime as telemetry


@dataclass(frozen=True)
class CoSimResult:
    """Outcome of one co-simulated run."""

    workload: str
    cores: int
    performance: PerformanceData
    instructions: int
    accesses: int
    filtered: int
    #: Injected faults plus recovered anomalies for this run; empty on
    #: a strict, fault-free run (the common case).
    degradation: tuple[DegradationRecord, ...] = ()
    #: End-of-run invariant audit; None when auditing was off.
    audit: AuditReport | None = None

    @property
    def llc_stats(self) -> CacheStats:
        return self.performance.stats

    @property
    def mpki(self) -> float:
        """Shared-LLC misses per 1000 instructions (the figures' metric)."""
        return self.performance.mpki

    @property
    def samples(self) -> list[WindowSample]:
        """Per-500 µs window statistics, as the host reads from CB."""
        return self.performance.samples

    @property
    def degraded(self) -> bool:
        """Whether anything was injected into or recovered during the run."""
        return bool(self.degradation)


def attach_audit_oracle(emulator: DragonheadEmulator, mode: str) -> None:
    """Hook the differential LRU oracle for the chosen audit mode."""
    if mode == AUDIT_OFF:
        return
    bank_config = emulator.config.bank_config(0)
    emulator.attach_oracle(
        OracleTap(
            num_sets=bank_config.num_sets,
            associativity=bank_config.associativity,
            num_banks=NUM_BANKS,
            bank_shift=BANK_SHIFT,
            every=1 if mode == AUDIT_FULL else SAMPLE_EVERY,
        )
    )


def finish_run(
    emulator: DragonheadEmulator,
    injector,
    *,
    workload: str,
    cores: int,
    instructions: int,
    cycles: int,
    audit_mode: str,
) -> CoSimResult:
    """Close a run, however the emulator was driven: the host readout.

    Flushes the fault injector (a delayed message still arrives, merely
    late), reads the CB's performance data, collects degradation and
    runs the end-of-run audit against the simulator-side counters.
    Violations raise :class:`AuditError` from a strict emulator and
    become ``audit``-source degradation records from a lenient one.
    """
    if injector is not None:
        injector.flush()
    performance = emulator.read_performance_data()
    degradation = collect_run_degradation(injector, performance)
    audit_report: AuditReport | None = None
    if audit_mode != AUDIT_OFF:
        audit_report = run_audit(
            emulator,
            performance,
            mode=audit_mode,
            expected_instructions=instructions,
            expected_cycles=cycles,
        )
        if not audit_report.ok:
            if emulator.strict:
                raise AuditError(audit_report)
            degradation = merge_records(
                degradation, audit_report.degradation_records()
            )
    return CoSimResult(
        workload=workload,
        cores=cores,
        performance=performance,
        instructions=instructions,
        accesses=performance.stats.accesses,
        filtered=performance.filtered_transactions,
        degradation=degradation,
        audit=audit_report,
    )


class CoSimPlatform:
    """A complete co-simulation platform instance.

    Create one per (cache configuration, run): like the hardware, the
    emulator's cache state and counters belong to a single experiment.

    ``strict=False`` puts the emulator in lenient resync mode, and
    ``fault_spec`` interposes a :class:`~repro.faults.injector.FaultInjector`
    between the bus and the emulator's snoop port — together they model
    the paper's real operating point: a lossy channel in front of a
    filter built to survive it.
    """

    def __init__(
        self,
        dragonhead: DragonheadConfig,
        quantum: int = 4096,
        boot_noise_accesses: int = 8192,
        strict: bool = True,
        fault_spec: FaultSpec | None = None,
    ) -> None:
        self.strict = strict
        self.quantum = quantum
        self.bus = FrontSideBus()
        self.emulator = DragonheadEmulator(dragonhead, strict=strict)
        self.injector = None
        if fault_spec is not None and fault_spec.touches_bus:
            from repro.faults.injector import FaultInjector

            self.injector = FaultInjector(
                self.emulator,
                fault_spec,
                point=(dragonhead.cache_size, dragonhead.line_size),
            )
        self.bus.attach(self.injector if self.injector is not None else self.emulator)
        self.softsdv = SoftSDV(
            self.bus, quantum=quantum, boot_noise_accesses=boot_noise_accesses
        )

    def run(
        self, workload: GuestWorkload, cores: int, *, audit: str | None = None
    ) -> CoSimResult:
        """Run ``workload`` to completion on ``cores`` virtual cores.

        Args:
            audit: ``"off"``/``"sample"``/``"full"`` end-of-run
                invariant audit; None reads ``$REPRO_AUDIT``.
                Violations raise :class:`AuditError` in strict mode and
                become ``audit``-source degradation records in lenient
                mode.
        """
        audit_mode = resolve_audit_mode(audit)
        attach_audit_oracle(self.emulator, audit_mode)
        with telemetry.span("cosim"):
            scheduler = self.softsdv.run_workload(workload, cores)
        return finish_run(
            self.emulator,
            self.injector,
            workload=workload.name,
            cores=cores,
            instructions=scheduler.instructions_retired,
            cycles=scheduler.cycles_completed,
            audit_mode=audit_mode,
        )
