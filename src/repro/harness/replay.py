"""Single-pass multi-config replay engine for the co-simulation path.

``CoSimPlatform.run`` executes the whole SoftSDV→DEX→FSB→Dragonhead
pipeline for one cache configuration.  A design-space sweep (Figures
4-6: 4 MB-256 MB) therefore re-runs trace generation, DEX scheduling,
and protocol encoding once *per configuration* — faithful to the
hardware, where reprogramming the FPGAs forces a fresh run, but pure
waste in software: everything above the bus is independent of the
emulated cache geometry.

This engine splits the pipeline at the architectural boundary the AF
FPGA defines.  :func:`capture_replay_log` runs the simulator side
*once* per (workload, cores, quantum, seed) with a recording snooper on
the bus, capturing exactly what survives the address filter: the
decoded, window-gated, core-tagged transaction stream, as compact
columnar numpy arrays plus an event table (per-slice core tags and the
instruction/cycle progress counters that drive window sampling).
:func:`replay` then drives a fresh :class:`DragonheadEmulator` with the
log — one batched ``emulate_stream`` pass, or the per-event snoop loop
when a fault injector or a lenient AF must see every message — so
per-config statistics are *identical* to a fresh ``CoSimPlatform.run``,
per-core splits and 500 µs window samples included
(``tests/test_harness_replay.py`` proves field-for-field equality).

:func:`replay_sweep` is the user-facing entry: capture (or load from
the content-addressed :class:`~repro.trace.cache.TraceCache`) once,
then fan the log out to N configurations through
:func:`~repro.harness.parallel.parallel_map`.  Points in this process
replay the log it holds; pool workers memory-map an on-disk entry of
it instead of receiving a pickled copy per task.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.audit import resolve_audit_mode
from repro.cache.emulator import AddressFilter, DragonheadConfig, DragonheadEmulator
from repro.core.cosim import CoSimResult, attach_audit_oracle, finish_run
from repro.core.fsb import FrontSideBus, FSBTransaction
from repro.core.softsdv import GuestWorkload, SoftSDV
from repro.errors import TraceError
from repro.faults.spec import FaultSpec
from repro.telemetry import runtime as telemetry
from repro.protocol import Message, MessageCodec, MessageKind
from repro.trace.cache import TraceCache, cache_key, load_validated_entry
from repro.trace.record import AccessKind, TraceChunk
from repro.harness.parallel import parallel_map, resolve_jobs

#: Event-table opcodes (first column of :attr:`ReplayLog.events`).
EVENT_DATA = 0  #: (EVENT_DATA, end_offset, core): data up to end_offset
EVENT_PROGRESS = 1  #: (EVENT_PROGRESS, instructions, cycles): counters

#: Array names used when a log is stored in a :class:`TraceCache`.
_ARRAY_NAMES = ("addresses", "kinds", "pcs", "events")


@dataclass(frozen=True)
class ReplayLog:
    """One captured pass of the simulator side of the platform.

    The columnar arrays hold every data transaction that survived the
    address filter, in bus order; ``events`` interleaves data segments
    (constant core id, no progress message inside) with the progress
    counters exactly as they appeared on the bus, which is all the
    emulator's sampler needs to reproduce its window series.
    """

    workload: str
    cores: int
    quantum: int
    boot_noise_accesses: int
    addresses: np.ndarray  # uint64 [N] byte addresses
    kinds: np.ndarray  # uint8  [N] AccessKind values
    pcs: np.ndarray  # uint64 [N] program counters
    events: np.ndarray  # uint64 [E, 3] (opcode, a, b) rows
    filtered: int  # transactions outside the emulation window
    instructions: int  # final retired-instruction counter

    @property
    def accesses(self) -> int:
        """In-window data transactions captured."""
        return len(self.addresses)

    def core_tags(self) -> np.ndarray:
        """Expand the segment table into a per-access core-id array."""
        cores = np.zeros(self.accesses, dtype=np.uint16)
        if len(self.events):
            data = self.events[self.events[:, 0] == EVENT_DATA]
            if len(data):
                ends = data[:, 1].astype(np.int64)
                lengths = np.diff(ends, prepend=0)
                cores[: int(ends[-1])] = np.repeat(
                    data[:, 2].astype(np.uint16), lengths
                )
        return cores

    def progress_table(self) -> np.ndarray:
        """Progress reports as ``(offset, instructions, cycles)`` rows.

        The batched replay path's input: for each PROGRESS event, the
        number of data accesses that preceded it (a running maximum of
        the DATA segment end offsets) plus its cumulative counters.
        """
        events = self.events
        if not len(events):
            return np.empty((0, 3), dtype=np.int64)
        opcodes = events[:, 0]
        progress_mask = opcodes == EVENT_PROGRESS
        ends = np.where(progress_mask, 0, events[:, 1]).astype(np.int64)
        offsets = np.maximum.accumulate(ends)
        table = np.empty((int(np.count_nonzero(progress_mask)), 3), dtype=np.int64)
        table[:, 0] = offsets[progress_mask]
        table[:, 1] = events[progress_mask, 1].astype(np.int64)
        table[:, 2] = events[progress_mask, 2].astype(np.int64)
        return table

    def to_chunk(self) -> TraceChunk:
        """The whole captured stream as one core-tagged trace chunk.

        For consumers outside the emulator — prefetch studies, reuse
        analysis — that want the AF-filtered traffic without replaying
        the protocol.
        """
        return TraceChunk(
            np.asarray(self.addresses),
            np.asarray(self.kinds),
            self.core_tags(),
            np.asarray(self.pcs),
        )

    @functools.cached_property
    def session(self) -> tuple[TraceChunk, np.ndarray]:
        """``(to_chunk(), progress_table())``, built once per log.

        The batched replay's inputs: every point that replays this log
        object in one process shares them.
        """
        return self.to_chunk(), self.progress_table()

    def content_digest(self) -> str:
        """SHA-256 over every field: the log's content address."""
        meta, arrays = self.to_payload()
        digest = hashlib.sha256(repr(sorted(meta.items())).encode("utf-8"))
        for name in _ARRAY_NAMES:
            array = np.ascontiguousarray(arrays[name])
            digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode("utf-8"))
            digest.update(array.data)
        return digest.hexdigest()

    # -- trace-cache serialization ------------------------------------

    def to_payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Split into the (meta, arrays) form a TraceCache stores."""
        meta = {
            "workload": self.workload,
            "cores": self.cores,
            "quantum": self.quantum,
            "boot_noise_accesses": self.boot_noise_accesses,
            "filtered": self.filtered,
            "instructions": self.instructions,
        }
        arrays = {
            "addresses": self.addresses,
            "kinds": self.kinds,
            "pcs": self.pcs,
            "events": self.events,
        }
        return meta, arrays

    @classmethod
    def from_payload(
        cls, meta: Mapping[str, object], arrays: Mapping[str, np.ndarray]
    ) -> "ReplayLog":
        missing = [name for name in _ARRAY_NAMES if name not in arrays]
        if missing:
            raise TraceError(f"replay-log payload missing arrays: {missing}")
        return cls(
            workload=str(meta["workload"]),
            cores=int(meta["cores"]),
            quantum=int(meta["quantum"]),
            boot_noise_accesses=int(meta["boot_noise_accesses"]),
            addresses=arrays["addresses"],
            kinds=arrays["kinds"],
            pcs=arrays["pcs"],
            events=arrays["events"],
            filtered=int(meta["filtered"]),
            instructions=int(meta["instructions"]),
        )


class ReplayLogRecorder:
    """A passive bus snooper that captures the AF-filtered stream.

    Mirrors the AF FPGA's front half — message decode, window gating,
    core tagging — but instead of driving cache banks it appends the
    surviving transactions to columnar buffers.  Attach to a
    :class:`~repro.core.fsb.FrontSideBus` alongside (or instead of) an
    emulator.
    """

    def __init__(self) -> None:
        self._af = AddressFilter()
        self._addresses: list[np.ndarray] = []
        self._kinds: list[np.ndarray] = []
        self._pcs: list[np.ndarray] = []
        self._events: list[tuple[int, int, int]] = []
        self._count = 0

    # -- BusSnooper interface -----------------------------------------

    def snoop(self, transaction: FSBTransaction) -> None:
        address = transaction.address
        if MessageCodec.is_message(address):
            message = self._af.handle_message(address)
            if message is not None and message.kind is MessageKind.CYCLES_COMPLETED:
                self._events.append(
                    (
                        EVENT_PROGRESS,
                        self._af.instructions_retired,
                        self._af.cycles_completed,
                    )
                )
            return
        if not self._af.emulating:
            self._af.filtered_transactions += 1
            return
        self._append(
            np.array([address], dtype=np.uint64),
            np.array([int(transaction.kind)], dtype=np.uint8),
            np.array([transaction.pc], dtype=np.uint64),
        )

    def snoop_chunk(self, chunk: TraceChunk) -> None:
        if not self._af.emulating:
            self._af.filtered_transactions += len(chunk)
            return
        if len(chunk):
            self._append(chunk.addresses, chunk.kinds, chunk.pcs)

    def _append(
        self, addresses: np.ndarray, kinds: np.ndarray, pcs: np.ndarray
    ) -> None:
        core = self._af.current_core
        self._addresses.append(addresses)
        self._kinds.append(kinds)
        self._pcs.append(pcs)
        self._count += len(addresses)
        # Extend the open data segment when nothing (core switch or
        # progress message) separates it from this batch.
        if self._events and self._events[-1][0] == EVENT_DATA and self._events[-1][2] == core:
            self._events[-1] = (EVENT_DATA, self._count, core)
        else:
            self._events.append((EVENT_DATA, self._count, core))

    # -- extraction ---------------------------------------------------

    def finish(
        self, workload: str, cores: int, quantum: int, boot_noise_accesses: int
    ) -> ReplayLog:
        """Freeze the captured buffers into an immutable log."""

        def concat(parts: list[np.ndarray], dtype) -> np.ndarray:
            if not parts:
                return np.empty(0, dtype=dtype)
            return np.concatenate(parts).astype(dtype, copy=False)

        events = (
            np.array(self._events, dtype=np.uint64)
            if self._events
            else np.empty((0, 3), dtype=np.uint64)
        )
        return ReplayLog(
            workload=workload,
            cores=cores,
            quantum=quantum,
            boot_noise_accesses=boot_noise_accesses,
            addresses=concat(self._addresses, np.uint64),
            kinds=concat(self._kinds, np.uint8),
            pcs=concat(self._pcs, np.uint64),
            events=events,
            filtered=self._af.filtered_transactions,
            instructions=self._af.instructions_retired,
        )


def capture_replay_log(
    workload: GuestWorkload,
    cores: int,
    quantum: int = 4096,
    boot_noise_accesses: int = 8192,
) -> ReplayLog:
    """Run the simulator side once and capture the replayable stream.

    This is the single generation pass a whole sweep shares: workload
    trace production, DEX scheduling, and protocol encoding all happen
    here, exactly as ``CoSimPlatform`` would drive them — just with a
    recorder on the bus instead of an emulator.
    """
    bus = FrontSideBus()
    recorder = ReplayLogRecorder()
    bus.attach(recorder)
    softsdv = SoftSDV(bus, quantum=quantum, boot_noise_accesses=boot_noise_accesses)
    softsdv.run_workload(workload, cores)
    return recorder.finish(
        workload=workload.name,
        cores=cores,
        quantum=quantum,
        boot_noise_accesses=boot_noise_accesses,
    )


# -- replaying one configuration --------------------------------------


def _issue_message(port, message: Message) -> None:
    """Re-encode a protocol message onto a snoop port."""
    for address in MessageCodec.encode(message):
        port.snoop(FSBTransaction(address=address, kind=AccessKind.WRITE))


def replay_into(log: ReplayLog, port) -> None:
    """Drive a snoop port with a captured log, through its public face.

    ``port`` is anything with the BusSnooper interface — usually a
    :class:`DragonheadEmulator`, optionally behind a
    :class:`~repro.faults.injector.FaultInjector`.  The protocol
    messages are re-encoded and re-decoded, so the AF's session checks,
    counter monotonicity guards, and window sampling behave exactly as
    on a live bus.

    A bare strict :class:`DragonheadEmulator` takes the batched fast
    path: the whole session runs as one
    :meth:`~DragonheadEmulator.emulate_stream` call (vectorized bank
    routing, one batch probe per bank, window aggregation by
    ``searchsorted``), which is bit-identical to the per-event loop —
    the differential suite in ``tests/test_harness_replay.py`` holds
    the two paths equal field for field.  Wrapped ports (fault
    injectors, pass-through snoopers) and lenient emulators keep the
    per-event loop: their semantics depend on seeing each message.
    """
    if isinstance(port, DragonheadEmulator) and port.strict:
        port.emulate_stream(*log.session, filtered=log.filtered)
        return
    addresses = log.addresses
    kinds = log.kinds
    pcs = log.pcs
    # Out-of-window traffic never reaches the banks; only its count is
    # architecturally visible, so restore the counter instead of
    # replaying thousands of discarded noise transactions.  The counter
    # lives on the emulator's AF, behind whatever wraps it.
    emulator = port
    while not isinstance(emulator, DragonheadEmulator):
        emulator = emulator.downstream
    emulator.af.filtered_transactions += log.filtered
    _issue_message(port, Message(MessageKind.START_EMULATION))
    start = 0
    current_core: int | None = None
    for opcode, a, b in log.events:
        if int(opcode) == EVENT_DATA:
            end, core = int(a), int(b)
            if core != current_core:
                _issue_message(port, Message(MessageKind.CORE_ID, core))
                current_core = core
            port.snoop_chunk(
                TraceChunk(addresses[start:end], kinds[start:end], core, pcs[start:end])
            )
            start = end
        else:
            _issue_message(port, Message(MessageKind.INSTRUCTIONS_RETIRED, int(a)))
            _issue_message(port, Message(MessageKind.CYCLES_COMPLETED, int(b)))
    _issue_message(port, Message(MessageKind.STOP_EMULATION))


def _scheduler_cycles(log: ReplayLog) -> int:
    """The simulation-domain cycle total: the last progress event's."""
    progress = log.events[log.events[:, 0] == EVENT_PROGRESS]
    return int(progress[-1, 2]) if len(progress) else 0


def replay(
    log: ReplayLog,
    config: DragonheadConfig,
    spec: FaultSpec | None = None,
    lenient: bool = False,
    audit: str | None = None,
) -> CoSimResult:
    """One configuration's worth of a sweep: fresh emulator, one pass.

    ``lenient`` puts the emulator in resync mode; ``spec`` interposes a
    :class:`~repro.faults.injector.FaultInjector` between the replayed
    stream and the emulator's snoop port, keyed to the grid point so
    every (workload, cores, config) gets its own deterministic fault
    stream regardless of worker count or replay order.  ``audit``
    mirrors :meth:`~repro.core.cosim.CoSimPlatform.run`: the audit
    report equals the fresh run's.
    """
    audit_mode = resolve_audit_mode(audit)
    emulator = DragonheadEmulator(config, strict=not lenient)
    attach_audit_oracle(emulator, audit_mode)
    port = emulator
    injector = None
    if spec is not None and spec.touches_bus:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(
            emulator,
            spec,
            point=(log.workload, log.cores, config.cache_size, config.line_size),
        )
        port = injector
    with telemetry.span("replay.point"):
        telemetry.counter("repro_replay_points_total").inc()
        replay_into(log, port)
    return finish_run(
        emulator,
        injector,
        workload=log.workload,
        cores=log.cores,
        instructions=log.instructions,
        cycles=_scheduler_cycles(log),
        audit_mode=audit_mode,
    )


# -- trace-cache integration ------------------------------------------


def log_cache_key(
    workload: str,
    cores: int,
    quantum: int,
    boot_noise_accesses: int,
    extra: Mapping[str, object] | None = None,
) -> str:
    """Content address of a captured log's full identity.

    ``extra`` carries whatever parameterizes trace generation beyond
    the platform knobs — source kind, per-thread access count, footprint
    scale, seed — so two guests that would generate different traffic
    never share an entry.
    """
    fields: dict[str, object] = {
        "kind": "replay-log",
        "workload": workload,
        "cores": cores,
        "quantum": quantum,
        "boot_noise_accesses": boot_noise_accesses,
    }
    for name, value in (extra or {}).items():
        fields[f"x:{name}"] = value
    return cache_key(fields)


def load_or_capture(
    workload: GuestWorkload,
    cores: int,
    quantum: int = 4096,
    boot_noise_accesses: int = 8192,
    trace_cache: TraceCache | None = None,
    key_extra: Mapping[str, object] | None = None,
) -> tuple[ReplayLog, str | None]:
    """Fetch a captured log from the cache, generating only on miss.

    Returns ``(log, entry_dir)``; ``entry_dir`` is the on-disk home of
    the log when a cache is in use (for zero-copy process fan-out), or
    None when uncached.  On a hit, ``workload.thread_streams`` is never
    called — generation is skipped entirely, observable through the
    cache's ``stats.hits`` counter.
    """
    with telemetry.span("capture"):
        if trace_cache is None:
            return (
                capture_replay_log(workload, cores, quantum, boot_noise_accesses),
                None,
            )
        key = log_cache_key(
            workload.name, cores, quantum, boot_noise_accesses, key_extra
        )
        payload = trace_cache.load(key)
        if payload is not None:
            return ReplayLog.from_payload(*payload), str(trace_cache.entry_dir(key))
        log = capture_replay_log(workload, cores, quantum, boot_noise_accesses)
        entry = trace_cache.store(key, *log.to_payload())
        # store() returns None when the cache has latched off (the
        # governor's final ENOSPC fallback): the run continues with the
        # freshly captured in-memory log, just without a disk home.
        return log, None if entry is None else str(entry)


# -- multi-config fan-out ---------------------------------------------


@dataclass(frozen=True)
class _LogHandle:
    """Picklable reference to a log: the log itself or an on-disk entry.

    ``key`` is the log's content address.  A point key sees only that
    (:meth:`content_identity`), never the transport: a spill directory
    is random per run and a trace-cache path names its root, so keying
    by either would make ``--resume`` re-run every point.  The log stays
    out of the repr, which a failed point's error message quotes.
    """

    key: str
    log: ReplayLog | None = field(default=None, repr=False)
    entry_dir: str | None = None

    def content_identity(self) -> "_LogHandle":
        return _LogHandle(key=self.key)

    def resolve(self) -> ReplayLog:
        if self.log is not None:
            return self.log
        # Full validation before memory-mapping — manifest self-CRC,
        # then per-array checksums — so a worker that loses a race with
        # a concurrent quarantine fails loudly instead of replaying a
        # damaged log.
        meta, arrays = load_validated_entry(self.entry_dir)
        return ReplayLog.from_payload(meta, arrays)


def _replay_task(
    task: tuple[_LogHandle, DragonheadConfig, FaultSpec | None, bool, str | None],
) -> CoSimResult:
    """One (log, config) replay — module-level so it crosses processes."""
    handle, config, spec, lenient, audit = task
    return replay(handle.resolve(), config, spec=spec, lenient=lenient, audit=audit)


def replay_map(
    log: ReplayLog,
    configs: Sequence[DragonheadConfig],
    jobs: int | None = None,
    entry_dir: str | None = None,
    spec: FaultSpec | None = None,
    lenient: bool = False,
    audit: str | None = None,
    log_key: str | None = None,
) -> list[CoSimResult]:
    """Fan one captured log out to every configuration.

    Every call is one :func:`~repro.harness.parallel.parallel_map`, so
    a point runs the same supervised code serially or pooled, and each
    point is one :func:`replay`.  The log's transport follows the
    process boundary.  Points that run in this process (``jobs`` ≤ 1
    or fewer than two configurations) replay the log it holds.  Pool
    workers memory-map an on-disk entry instead: the trace-cache entry
    (``entry_dir``), or a temporary content-addressed entry an uncached
    log is spilled into first — so the log exists once however wide the
    fan-out, never as a pickled copy per task.  ``spec`` and
    ``lenient`` ride along to every point (the injector re-seeds itself
    per grid point, so fan-out width never changes the fault stream);
    ``audit`` audits every point's result.

    ``log_key`` is the log's content address, which journal and ledger
    keys are built from; without one the arrays are hashed.
    """
    configs = list(configs)
    audit_mode = resolve_audit_mode(audit)
    in_process = resolve_jobs(jobs) <= 1 or len(configs) < 2
    with telemetry.span("replay"):
        log_key = log_key or log.content_digest()
        spill_dir: str | None = None
        try:
            if not in_process and entry_dir is None:
                import tempfile

                spill_dir = tempfile.mkdtemp(prefix="repro-log-spill-")
                meta, arrays = log.to_payload()
                entry = TraceCache(spill_dir).store(log_key, meta, arrays)
                if entry is not None:
                    entry_dir = str(entry)
                    telemetry.counter("repro_replay_log_spills_total").inc()
            # A refused spill (disk full even for the temp cache) sends
            # the in-process handle to the pool, pickling the log per
            # task: slower, correct, and already recorded as a
            # degradation by the cache's ENOSPC handling.
            handle = (
                _LogHandle(key=log_key, log=log)
                if in_process or entry_dir is None
                else _LogHandle(key=log_key, entry_dir=entry_dir)
            )
            return parallel_map(
                _replay_task,
                [(handle, config, spec, lenient, audit_mode) for config in configs],
                jobs=jobs,
            )
        finally:
            if spill_dir is not None:
                import shutil

                shutil.rmtree(spill_dir, ignore_errors=True)


def replay_sweep(
    workload: GuestWorkload,
    cores: int,
    configs: Sequence[DragonheadConfig],
    quantum: int = 4096,
    boot_noise_accesses: int = 8192,
    jobs: int | None = None,
    trace_cache: TraceCache | None = None,
    key_extra: Mapping[str, object] | None = None,
    spec: FaultSpec | None = None,
    lenient: bool = False,
    audit: str | None = None,
) -> list[CoSimResult]:
    """The engine's front door: one generation pass, N configurations.

    Results are index-aligned with ``configs`` and field-for-field
    identical to ``CoSimPlatform(config, quantum, boot_noise).run(...)``
    per configuration.
    """
    log, entry_dir = load_or_capture(
        workload,
        cores,
        quantum=quantum,
        boot_noise_accesses=boot_noise_accesses,
        trace_cache=trace_cache,
        key_extra=key_extra,
    )
    # The capture key names the log only when ``key_extra`` carries the
    # generation parameters; without it two guests of one workload
    # would share a key, so replay_map hashes the arrays instead.
    log_key = (
        log_cache_key(workload.name, cores, quantum, boot_noise_accesses, key_extra)
        if key_extra is not None
        else None
    )
    return replay_map(
        log,
        configs,
        jobs=jobs,
        entry_dir=entry_dir,
        spec=spec,
        lenient=lenient,
        audit=audit,
        log_key=log_key,
    )


def size_sweep_configs(
    cache_sizes: Sequence[int],
    line_size: int = 64,
    associativity: int = 16,
) -> list[DragonheadConfig]:
    """Dragonhead configurations for a cache-size sweep."""
    return [
        DragonheadConfig(
            cache_size=size, line_size=line_size, associativity=associativity
        )
        for size in cache_sizes
    ]
