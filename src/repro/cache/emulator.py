"""Software model of the Dragonhead FPGA cache emulator.

Figure 1 of the paper: Dragonhead has six FPGAs — **AF** receives FSB
transactions from the logic analyzer interface and regulates them,
**CC0–CC3** are four cache controllers that process requests and
generate performance data, and **CB** configures the others and collects
statistics, which a host computer reads every 500 µs.

The model preserves that architecture:

* :class:`AddressFilter` decodes protocol messages, maintains the
  emulation window (start/stop), the current core id, and the retired-
  instruction / cycle counters, and drops traffic outside the window
  (the paper: "the SoftSDV code and the host OS will also execute
  during the simulation, and by restricting the emulation to the window
  between start and stop, these accesses are excluded").
* The four CC FPGAs are four :class:`~repro.cache.cache.SetAssociativeCache`
  banks of one geometry in :attr:`DragonheadEmulator.banks`.  Line
  ``l`` goes to bank ``l & 3`` as bank-local line ``l >> 2``, so the
  controllers share the load the way address-interleaved hardware
  banks do, and together they are one array of ``4 * S`` sets (``S``
  sets per bank) indexed by ``l & (4 * S - 1)``.  A batch probes all
  four through :func:`~repro.cache.fastlru.probe_lines`, the one probe
  every LRU cache shares, and counts them with one
  :func:`~repro.cache.stats.note_lines` (:meth:`DragonheadEmulator._probe`).
* The CB is :class:`DragonheadEmulator`'s readout side: its
  :class:`~repro.cache.sampling.WindowSampler` closes the 500 µs
  windows from two cumulative counters, the four banks' accesses and
  misses, and :meth:`~DragonheadEmulator.read_performance_data` merges
  the bank counters the host polls.

Configuration limits mirror the hardware: cache sizes 1 MB–256 MB, line
sizes 64 B–4096 B, and LRU replacement only (Section 3.1):
:class:`DragonheadConfig` refuses any other policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cache.cache import CacheConfig, SetAssociativeCache
from repro.cache.fastlru import probe_lines
from repro.cache.stats import CacheStats, note_lines
from repro.faults.report import RECOVERED, DegradationRecord, records_from_counts
from repro.protocol import Message, MessageCodec, MessageKind
from repro.cache.sampling import WindowSample, WindowSampler
from repro.errors import ConfigurationError, ProtocolError, RecoverableProtocolError
from repro.telemetry import runtime as telemetry
from repro.trace.record import AccessKind, TraceChunk
from repro.units import (
    DRAGONHEAD_MAX_CACHE,
    DRAGONHEAD_MAX_LINE,
    DRAGONHEAD_MIN_CACHE,
    DRAGONHEAD_MIN_LINE,
    format_size,
    is_power_of_two,
)

#: Dragonhead has four cache-controller FPGAs (CC0..CC3).
NUM_BANKS = 4


def derive_bank_shift(num_banks: int) -> int:
    """Line-number shift that folds the bank-selection bits away.

    Bank selection keeps the low ``log2(num_banks)`` line bits
    (``line % num_banks``) and the bank-local line number discards them
    (``line >> shift``).  That pair of operations only inverts cleanly
    when the bank count is a power of two; for any other count
    ``bit_length() - 1`` under-shifts and distinct lines silently
    collide inside a bank, so refuse the configuration outright.
    """
    if num_banks <= 0 or not is_power_of_two(num_banks):
        raise ConfigurationError(
            f"bank count must be a positive power of two, got {num_banks}: "
            "address-interleaved bank selection cannot fold away a "
            "non-power-of-two modulus"
        )
    return num_banks.bit_length() - 1


BANK_SHIFT = derive_bank_shift(NUM_BANKS)


@dataclass(frozen=True, slots=True)
class DragonheadConfig:
    """Emulated shared-LLC configuration, within the hardware envelope."""

    cache_size: int
    line_size: int = 64
    associativity: int = 16
    policy: str = "lru"
    frequency_hz: float = 100e6  # "Dragonhead emulates a shared LLC at ... 100MHz"
    host_read_interval_us: float = 500.0

    def __post_init__(self) -> None:
        if not DRAGONHEAD_MIN_CACHE <= self.cache_size <= DRAGONHEAD_MAX_CACHE:
            raise ConfigurationError(
                f"Dragonhead supports cache sizes {format_size(DRAGONHEAD_MIN_CACHE)}"
                f"-{format_size(DRAGONHEAD_MAX_CACHE)}, got {format_size(self.cache_size)}"
            )
        if not DRAGONHEAD_MIN_LINE <= self.line_size <= DRAGONHEAD_MAX_LINE:
            raise ConfigurationError(
                f"Dragonhead supports line sizes {DRAGONHEAD_MIN_LINE}B-"
                f"{DRAGONHEAD_MAX_LINE}B, got {self.line_size}B"
            )
        if not is_power_of_two(self.line_size) or not is_power_of_two(self.cache_size):
            raise ConfigurationError("cache and line sizes must be powers of two")
        if self.cache_size % NUM_BANKS:
            raise ConfigurationError("cache size must divide across the four CC banks")
        if self.policy != "lru":
            # The field stays (it is pickled into every result), but the
            # CC FPGAs emulate LRU only.  Policy studies run on
            # SetAssociativeCache (repro-ablations).
            raise ConfigurationError(
                f"Dragonhead emulates LRU replacement only, got {self.policy!r}"
            )

    def bank_config(self, bank: int) -> CacheConfig:
        """Geometry of one CC bank (a quarter of the LLC)."""
        bank_size = self.cache_size // NUM_BANKS
        assoc = self.associativity
        while bank_size % (self.line_size * assoc) or not is_power_of_two(
            bank_size // (self.line_size * assoc)
        ):
            assoc //= 2
            if assoc == 0:
                raise ConfigurationError(
                    f"no legal bank geometry for {format_size(self.cache_size)} / "
                    f"{self.line_size}B lines"
                )
        return CacheConfig(
            size=bank_size,
            line_size=self.line_size,
            associativity=assoc,
            policy=self.policy,
            name=f"CC{bank}",
        )


class AddressFilter:
    """The AF FPGA: message decode, window gating, core tagging.

    Two operating modes mirror the two ways to treat a lossy bus:

    * **strict** (the default, and the fault-free contract): any
      protocol anomaly raises.  De-synchronizations a lenient filter
      could survive raise :class:`RecoverableProtocolError`; outright
      malformed transactions raise plain :class:`ProtocolError`.
    * **lenient**: the filter resynchronizes instead — an unmatched
      STOP is dropped, a START while the window is already open is
      treated as the session continuing, a progress counter that moves
      backwards (a reordered message) keeps its high-water mark, and an
      undecodable message transaction is discarded.  Every recovery is
      counted in :attr:`anomalies` and surfaces in the degradation
      report.
    """

    def __init__(self, strict: bool = True) -> None:
        self.codec = MessageCodec()
        self.strict = strict
        self.emulating = False
        self.current_core = 0
        self.instructions_retired = 0
        self.cycles_completed = 0
        self.filtered_transactions = 0  # traffic dropped outside the window
        self.messages_seen = 0
        self.anomalies: dict[str, int] = {}  # recovered anomaly counts

    def _anomaly(self, kind: str, description: str) -> bool:
        """Record one anomaly; in strict mode, raise instead.

        Returns True (lenient mode) so call sites read as
        ``if self._anomaly(...): return`` where the recovery is a drop.
        """
        if self.strict:
            raise RecoverableProtocolError(description)
        self.anomalies[kind] = self.anomalies.get(kind, 0) + 1
        return True

    def handle_message(self, address: int) -> Message | None:
        """Decode and apply one protocol message address."""
        try:
            message = self.codec.decode(address)
        except ProtocolError:
            if self.strict:
                raise
            self.anomalies["decode-error"] = self.anomalies.get("decode-error", 0) + 1
            return None
        if message is None:
            return None
        self.messages_seen += 1
        kind = message.kind
        if kind is MessageKind.START_EMULATION:
            if self.emulating:
                # Lenient recovery: the matching STOP was lost; keep the
                # window open and let the session continue.
                self._anomaly(
                    "spurious-start", "START_EMULATION while already emulating"
                )
                return message
            self.emulating = True
            # A new emulation session: the progress counters are
            # session-relative (back-to-back runs restart from zero).
            self.instructions_retired = 0
            self.cycles_completed = 0
        elif kind is MessageKind.STOP_EMULATION:
            if not self.emulating:
                # Lenient recovery: drop the unmatched STOP; the window
                # reopens on the next START.
                self._anomaly("orphan-stop", "STOP_EMULATION while not emulating")
                return message
            self.emulating = False
        elif kind is MessageKind.CORE_ID:
            self.current_core = message.payload
        elif kind is MessageKind.INSTRUCTIONS_RETIRED:
            if message.payload < self.instructions_retired:
                # Lenient recovery: a reordered counter message; keep
                # the monotone high-water mark.
                self._anomaly(
                    "counter-regression",
                    "instructions-retired counter moved backwards: "
                    f"{message.payload} < {self.instructions_retired}",
                )
                return message
            self.instructions_retired = message.payload
        elif kind is MessageKind.CYCLES_COMPLETED:
            if message.payload < self.cycles_completed:
                self._anomaly(
                    "counter-regression",
                    "cycles-completed counter moved backwards: "
                    f"{message.payload} < {self.cycles_completed}",
                )
                return message
            self.cycles_completed = message.payload
        return message


@dataclass
class PerformanceData:
    """What the host reads from the CB board."""

    config: DragonheadConfig
    stats: CacheStats
    instructions_retired: int
    cycles_completed: int
    samples: list[WindowSample] = field(default_factory=list)
    filtered_transactions: int = 0
    #: Anomalies the emulator recovered from (lenient mode only; empty
    #: on a strict, fault-free run).
    degradation: tuple[DegradationRecord, ...] = ()

    @property
    def mpki(self) -> float:
        """Misses per 1000 retired instructions, the paper's metric."""
        return self.stats.mpki(self.instructions_retired)

    @property
    def miss_ratio(self) -> float:
        return self.stats.miss_ratio


class DragonheadEmulator:
    """The full emulator: AF in front of four CC banks, CB collecting.

    Attach to a :class:`~repro.core.fsb.FrontSideBus` as a snooper, or
    feed it trace chunks directly via :meth:`snoop_chunk`.

    ``strict=False`` selects the lenient channel model: the AF
    resynchronizes over protocol anomalies and the sampler interpolates
    missed stat windows, with every recovery reported through
    :attr:`degradation` instead of an exception — how the physical
    platform, which could not raise on a flaky bus, had to behave.
    """

    def __init__(self, config: DragonheadConfig, strict: bool = True) -> None:
        self.strict = strict
        self._oracle = None
        self._build(config)

    def _build(self, config: DragonheadConfig) -> None:
        """(Re)program the FPGAs: fresh AF, CC banks, and CB sampler."""
        self.config = config
        self.af = AddressFilter(strict=self.strict)
        self.banks = [
            SetAssociativeCache(config.bank_config(bank)) for bank in range(NUM_BANKS)
        ]
        self.sampler = self._new_sampler()
        self._line_shift = config.line_size.bit_length() - 1

    def _new_sampler(self) -> WindowSampler:
        """A fresh CB sampler, tapped into the live window stream.

        With telemetry off the tap is None and the sampler behaves as an
        untapped one; with it on, every closed 500 µs window publishes
        into the registry under this emulator's geometry label — the
        software analog of the host's periodic CB read.
        """
        return WindowSampler(
            frequency_hz=self.config.frequency_hz,
            interval_us=self.config.host_read_interval_us,
            interpolate=not self.strict,
            on_sample=telemetry.window_publisher(
                f"{format_size(self.config.cache_size)}/{self.config.line_size}B",
                self.config.line_size,
                self.config.frequency_hz,
            ),
        )

    # -- snooping -------------------------------------------------------

    def snoop(self, transaction) -> None:
        """Observe one bus transaction (message or data)."""
        address = transaction.address
        if MessageCodec.is_message(address):
            self._apply_message(address)
            return
        if not self.af.emulating:
            self.af.filtered_transactions += 1
            return
        if self._oracle is not None:
            self._oracle.observe(
                np.array([address >> self._line_shift], dtype=np.uint64)
            )
        self._access(address, transaction.kind, self.af.current_core)

    def snoop_chunk(self, chunk: TraceChunk) -> None:
        """Observe a chunk of data transactions.

        Chunks never span DEX slice boundaries (the scheduler emits
        CORE_ID messages between slices), so the AF's current core id
        applies to the whole chunk.
        """
        if not self.af.emulating:
            self.af.filtered_transactions += len(chunk)
            return
        if not len(chunk):
            return
        lines = chunk.lines(self.config.line_size)
        if self._oracle is not None:
            self._oracle.observe(lines)
        self._probe(lines, chunk.kinds, self.af.current_core)

    def _probe(self, lines, kinds, cores) -> np.ndarray:
        """Probe one line batch through the four CC banks and count it.

        The banks are one interleaved array of sets, probed by
        :func:`~repro.cache.fastlru.probe_lines` and counted by
        :func:`~repro.cache.stats.note_lines`.  ``cores`` may be a
        scalar (the whole batch one core) or a per-access array.
        Returns the stream positions of the misses, ascending.
        """
        miss_at, evictions = probe_lines(
            lines, [bank._policy for bank in self.banks]
        )
        blocks = [bank.stats for bank in self.banks]
        note_lines(blocks, lines, kinds, cores, miss_at)
        for stats, bank_evictions in zip(blocks, evictions):
            stats.evictions += bank_evictions
        return miss_at

    def emulate_stream(
        self, chunk: TraceChunk, progress: np.ndarray, filtered: int = 0
    ) -> None:
        """Run one whole emulation session as a single batched pass.

        Equivalent — counter for counter, window for window, LRU state
        for LRU state — to issuing START, then interleaving CORE_ID
        switches, data chunks, and INSTRUCTIONS_RETIRED /
        CYCLES_COMPLETED progress messages per ``progress``, then STOP.

        Args:
            chunk: the full core-tagged data stream of the session.
            progress: int array of shape ``(P, 3)`` — rows of
                ``(offset, instructions, cycles)`` meaning "after
                ``offset`` data accesses, a progress report carrying
                these cumulative counters arrived".  Offsets and both
                counters must be non-decreasing, as any AF-captured
                session satisfies.
            filtered: out-of-window transaction count to restore (what
                the AF dropped before/around the captured session).

        The whole stream is one :meth:`_probe` over the four CC banks.
        The 500 µs windows are aggregated by ``searchsorted`` over the
        progress series instead of a per-message clock check: the
        misses before each progress report are one ``searchsorted`` of
        its offset into the miss positions.  Only available on a strict
        emulator: the lenient channel model (anomaly
        resynchronization, window interpolation) keeps the per-message
        path.
        """
        if not self.strict:
            raise ConfigurationError(
                "emulate_stream requires a strict emulator; lenient runs "
                "keep the per-message path"
            )
        af = self.af
        if af.emulating:
            raise RecoverableProtocolError("START_EMULATION while already emulating")
        progress = np.asarray(progress, dtype=np.int64).reshape(-1, 3)
        n = len(chunk)
        offsets = progress[:, 0]
        instructions = progress[:, 1]
        cycles = progress[:, 2]
        if len(progress):
            if (
                int(offsets[0]) < 0
                or int(offsets[-1]) > n
                or np.any(np.diff(offsets) < 0)
            ):
                raise ConfigurationError(
                    "progress offsets must be non-decreasing and within the stream"
                )
            if np.any(np.diff(instructions) < 0) or int(instructions[0]) < 0:
                raise RecoverableProtocolError(
                    "instructions-retired counter moved backwards"
                )
            if np.any(np.diff(cycles) < 0) or int(cycles[0]) < 0:
                raise RecoverableProtocolError(
                    "cycles-completed counter moved backwards"
                )
        af.filtered_transactions += int(filtered)
        af.emulating = True
        af.instructions_retired = 0
        af.cycles_completed = 0
        if n:
            lines = chunk.lines(self.config.line_size)
            if self._oracle is not None:
                self._oracle.observe(lines)
            miss_at = self._probe(lines, chunk.kinds, chunk.cores)
            af.current_core = int(chunk.cores[-1])
            core_messages = 1 + int(
                np.count_nonzero(chunk.cores[1:] != chunk.cores[:-1])
            )
            telemetry.counter("repro_cosim_batched_accesses_total").inc(n)
        else:
            miss_at = np.empty(0, dtype=np.intp)
            core_messages = 0
        if len(progress):
            self.sampler.advance_series(
                cycles, instructions, offsets, np.searchsorted(miss_at, offsets)
            )
            af.instructions_retired = int(instructions[-1])
            af.cycles_completed = int(cycles[-1])
        # START + STOP + two counter messages per progress report +
        # one CORE_ID per core run (continuation words of wide payloads
        # decode to None and never count).
        af.messages_seen += 2 + 2 * len(progress) + core_messages
        af.emulating = False

    def _access(self, address: int, kind: AccessKind, core: int) -> None:
        line = address >> self._line_shift
        bank = self.banks[line % NUM_BANKS]
        bank.access_line(line >> BANK_SHIFT, kind, core)

    def _apply_message(self, address: int) -> None:
        message = self.af.handle_message(address)
        if message is None:
            return
        if message.kind is MessageKind.CYCLES_COMPLETED:
            blocks = [bank.stats for bank in self.banks]
            self.sampler.advance(
                self.af.cycles_completed,
                self.af.instructions_retired,
                sum(stats.accesses for stats in blocks),
                sum(stats.misses for stats in blocks),
            )

    # -- audit oracle -----------------------------------------------------

    def attach_oracle(self, tap) -> None:
        """Hook a differential-oracle tap into the snoop path.

        The tap sees exactly the line-number stream the CC banks see —
        after the AF's window gating, so the oracle and the banks stay
        access-for-access aligned.  Pass ``None`` to detach.
        """
        self._oracle = tap

    @property
    def oracle(self):
        """The attached differential-oracle tap, if any."""
        return self._oracle

    # -- control-board interface -----------------------------------------

    @property
    def stats(self) -> CacheStats:
        """Aggregate counters across the four CC banks (what CB collects)."""
        total = CacheStats()
        for bank in self.banks:
            total = total.merge(bank.stats)
        return total

    @property
    def degradation(self) -> tuple[DegradationRecord, ...]:
        """Recovered-anomaly records from the AF and the CB sampler."""
        counts = dict(self.af.anomalies)
        if self.sampler.interpolated_windows:
            counts["window-interpolated"] = self.sampler.interpolated_windows
        return records_from_counts(counts, RECOVERED)

    def read_performance_data(self) -> PerformanceData:
        """The host's CB read: configuration, counters, window samples."""
        stats = self.stats
        self.sampler.finalize(
            self.af.cycles_completed,
            self.af.instructions_retired,
            stats.accesses,
            stats.misses,
        )
        return PerformanceData(
            config=self.config,
            stats=stats,
            instructions_retired=self.af.instructions_retired,
            cycles_completed=self.af.cycles_completed,
            samples=list(self.sampler.samples),
            filtered_transactions=self.af.filtered_transactions,
            degradation=self.degradation,
        )

    def reset_statistics(self) -> None:
        """Clear the CB counters without flushing cache state.

        The host uses this to exclude warm-up: run a prefix of the
        workload, clear, then measure steady-state behaviour.
        """
        for bank in self.banks:
            bank.reset_stats()
        self.sampler = self._new_sampler()

    def reconfigure(self, config: DragonheadConfig) -> None:
        """Reprogram the FPGAs with a new cache configuration.

        Rebuilds the AF, the CC banks, and the CB sampler explicitly
        (rather than re-running ``__init__`` on a live object), so no
        emulation state — counters, residency, window samples, or the
        AF's session flags — can survive a reconfiguration.
        """
        self._build(config)
