"""The emulator's batched probe equals one transaction at a time.

``DragonheadEmulator.emulate_stream`` probes a whole session over the
four CC banks as one interleaved set array: sets of an empty bank that
never fill resolve by LRU's stack rule and stay in their kernel as
arrays, every other set runs its bank's loop.  The reference here is
the per-transaction ``snoop`` path, which builds every directory
eagerly through the kernel's scalar ``lookup``.  Streams cover
geometries where every set fits, where some overflow and where none
fit, and a warm second session after ``reset_statistics()``.  Every
bank's counters are compared field by field and by ``pickle_digest``,
and so are the window samples and every bank's ``dump_state()``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.emulator import DragonheadConfig, DragonheadEmulator
from repro.cache.fastlru import FastLRUKernel
from repro.cache.stats import CacheStats
from repro.core.fsb import FSBTransaction
from repro.errors import AuditError
from repro.harness.replay import capture_replay_log, replay
from repro.protocol import Message, MessageCodec, MessageKind
from repro.serve.jobspec import pickle_digest
from repro.trace.record import AccessKind, TraceChunk
from repro.units import MB
from repro.workloads.registry import get_workload

#: 4 KB lines keep the sets few: 16 sets of 4 ways, 64 sets of one way
#: and one set of 64 ways per bank.
CONFIGS = [
    DragonheadConfig(cache_size=MB, line_size=4096, associativity=4),
    DragonheadConfig(cache_size=MB, line_size=4096, associativity=1),
    DragonheadConfig(cache_size=MB, line_size=4096, associativity=64),
]

SHAPES = ("fit", "mixed", "none")


def _widths(draw, shape: str, used: int, assoc: int) -> list[int]:
    """Distinct lines per touched set, by shape."""
    fits = st.integers(min_value=1, max_value=assoc)
    overflows = st.integers(min_value=assoc + 1, max_value=2 * assoc + 1)
    if shape == "fit":
        return [draw(fits) for _ in range(used)]
    if shape == "none":
        return [draw(overflows) for _ in range(used)]
    widths = [draw(fits), draw(overflows)]
    return widths + [draw(st.one_of(fits, overflows)) for _ in range(used - 2)]


@st.composite
def sessions(draw, shape: str):
    """(config, session one, session two) over one set of lines.

    A session is ``(lines, kinds, cores, progress)``.  Each touched set
    of the interleaved array gets a drawn number of distinct lines, all
    touched in session one, so the shape decides which sets fit.
    Session two reuses those lines and adds new ones.
    """
    config = draw(st.sampled_from(CONFIGS))
    bank = config.bank_config(0)
    num_sets, assoc = 4 * bank.num_sets, bank.associativity
    used = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_sets - 1),
            min_size=2, max_size=min(num_sets, 10), unique=True,
        )
    )
    widths = _widths(draw, shape, len(used), assoc)
    base = draw(st.integers(min_value=0, max_value=1 << 20))
    cover = [
        (base + k) * num_sets + s for s, width in zip(used, widths) for k in range(width)
    ]

    def session(lines: list[int]):
        lines = draw(st.permutations(lines))
        n = len(lines)
        repeats = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        lines = [line for line, r in zip(lines, repeats) for _ in range(r + 1)]
        n = len(lines)
        kinds = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        cores = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        rows = draw(st.integers(min_value=0, max_value=6))
        offsets = sorted(draw(st.lists(st.integers(0, n), min_size=rows, max_size=rows)))
        steps = draw(
            st.lists(
                st.tuples(st.integers(0, 5_000), st.integers(0, 120_000)),
                min_size=rows, max_size=rows,
            )
        )
        progress = np.zeros((rows, 3), dtype=np.int64)
        if rows:
            progress[:, 0] = offsets
            progress[:, 1:] = np.cumsum(np.array(steps, dtype=np.int64), axis=0)
        return lines, kinds, cores, progress

    extra = draw(st.lists(st.sampled_from(cover), max_size=60))
    fresh_lines = [(base + 3 * assoc + k) * num_sets + used[0] for k in range(3)]
    return config, session(cover + extra), session(cover[::2] + fresh_lines)


def _send(emulator, kind: MessageKind, payload: int = 0) -> None:
    for address in MessageCodec.encode(Message(kind, payload)):
        emulator.snoop(FSBTransaction(address=address, kind=AccessKind.WRITE))


def snoop_session(emulator, session, line_size: int) -> None:
    """Issue a session one bus transaction at a time."""
    lines, kinds, cores, progress = session
    _send(emulator, MessageKind.START_EMULATION)
    row = 0
    current = None
    for i in range(len(lines) + 1):
        while row < len(progress) and progress[row, 0] == i:
            _send(emulator, MessageKind.INSTRUCTIONS_RETIRED, int(progress[row, 1]))
            _send(emulator, MessageKind.CYCLES_COMPLETED, int(progress[row, 2]))
            row += 1
        if i == len(lines):
            break
        if cores[i] != current:
            current = cores[i]
            _send(emulator, MessageKind.CORE_ID, current)
        emulator.snoop(
            FSBTransaction(address=lines[i] * line_size, kind=AccessKind(kinds[i]))
        )
    _send(emulator, MessageKind.STOP_EMULATION)


def stream_session(emulator, session, line_size: int) -> None:
    """Issue a session as one ``emulate_stream`` call."""
    lines, kinds, cores, progress = session
    addresses = np.asarray(lines, dtype=np.uint64) * np.uint64(line_size)
    emulator.emulate_stream(TraceChunk(addresses, kinds, cores), progress)


def assert_banks_equal(batched, reference, directories: bool) -> None:
    for index, (bank, ref) in enumerate(zip(batched.banks, reference.banks)):
        for field in dataclasses.fields(CacheStats):
            assert getattr(bank.stats, field.name) == getattr(ref.stats, field.name), (
                f"CC{index} {field.name}"
            )
        assert pickle_digest(bank.stats) == pickle_digest(ref.stats), f"CC{index}"
        if directories:
            got = bank.state_dict()["policy"]
            want = ref.state_dict()["policy"]
            assert np.array_equal(got["lengths"], want["lengths"]), f"CC{index}"
            assert np.array_equal(got["tags"], want["tags"]), f"CC{index}"


def assert_readouts_equal(batched, reference) -> None:
    got, want = batched.read_performance_data(), reference.read_performance_data()
    assert got.samples == want.samples
    assert pickle_digest(got) == pickle_digest(want)


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_emulate_stream_equals_per_transaction_snoop(shape, data):
    config, first, second = data.draw(sessions(shape))
    read_between = data.draw(st.booleans())
    batched, reference = DragonheadEmulator(config), DragonheadEmulator(config)
    for session, warm in ((first, False), (second, True)):
        stream_session(batched, session, config.line_size)
        snoop_session(reference, session, config.line_size)
        assert_banks_equal(batched, reference, directories=warm or read_between)
        assert_readouts_equal(batched, reference)
        batched.reset_statistics()
        reference.reset_statistics()


def _mixed_session(config: DragonheadConfig, seed: int = 5):
    """A session into ``config`` in which some sets fit and some overflow."""
    bank = config.bank_config(0)
    num_sets, assoc = 4 * bank.num_sets, bank.associativity
    rng = np.random.default_rng(seed)
    widths = rng.integers(1, 2 * assoc + 1, size=num_sets)
    lines = [k * num_sets + s for s in range(num_sets) for k in range(widths[s])]
    lines = rng.permutation(lines + list(rng.choice(lines, size=len(lines)))).tolist()
    n = len(lines)
    kinds = rng.integers(0, 2, size=n).tolist()
    cores = np.repeat(rng.integers(0, 4, size=n // 16 + 1), 16)[:n].tolist()
    return lines, kinds, cores, np.array([[n // 2, 10, 60_000], [n, 20, 90_000]])


class TestHeldDirectories:
    """Every way of reading a directory the kernel holds as arrays
    returns what the eager, one-access-at-a-time build holds."""

    CONFIG = CONFIGS[0]

    @pytest.fixture
    def pair(self):
        session = _mixed_session(self.CONFIG)
        batched = DragonheadEmulator(self.CONFIG)
        reference = DragonheadEmulator(self.CONFIG)
        stream_session(batched, session, self.CONFIG.line_size)
        snoop_session(reference, session, self.CONFIG.line_size)
        held = [bank._policy._resolved is not None for bank in batched.banks]
        looped = [any(bank._policy._set_list) for bank in batched.banks]
        assert all(held) and any(looped), "the session must mix resolved and looped sets"
        return batched, reference

    def test_resident_tags(self, pair):
        batched, reference = pair
        for bank, ref in zip(batched.banks, reference.banks):
            for set_index in range(bank.config.num_sets):
                assert bank.resident_tags(set_index) == ref.resident_tags(set_index)

    def test_scalar_lookup(self, pair):
        batched, reference = pair
        resolved = batched.banks[1]._policy._resolved
        set_index = int(resolved.sets[0])
        lru_tag = int(resolved.tags[0])
        for tag in (lru_tag, lru_tag + 7 * batched.banks[1].config.num_sets):
            assert batched.banks[1]._policy.lookup(set_index, tag) == (
                reference.banks[1]._policy.lookup(set_index, tag)
            )
        assert_banks_equal(batched, reference, directories=True)

    def test_following_snoop_chunk(self, pair):
        batched, reference = pair
        lines, kinds, cores, _ = _mixed_session(self.CONFIG, seed=6)
        chunk = TraceChunk(
            np.asarray(lines, dtype=np.uint64) * np.uint64(self.CONFIG.line_size), kinds
        )
        for emulator in (batched, reference):
            _send(emulator, MessageKind.START_EMULATION)
            _send(emulator, MessageKind.CORE_ID, 2)
            emulator.snoop_chunk(chunk)
        assert_banks_equal(batched, reference, directories=True)

    def test_lost_line_through_replay(self, monkeypatch):
        """The audit's lost-line corruption, driven through ``replay()``:
        the corruption reads a directory still held as arrays, and the
        audit names the same violations as when every directory was
        built during the probe."""
        log = capture_replay_log(
            get_workload("FIMI").synthetic_guest(
                accesses_per_thread=6000, scale=1 / 256
            ),
            2, quantum=512,
        )
        config = DragonheadConfig(cache_size=MB)
        held = []
        real = DragonheadEmulator.read_performance_data

        def corrupting(emulator):
            kernels = [bank._policy for bank in emulator.banks]
            held.append(any(kernel._resolved is not None for kernel in kernels))
            for bank in emulator.banks:
                for ways in bank._policy._sets:
                    if ways:
                        ways.popitem()
                        return real(emulator)
            return real(emulator)

        monkeypatch.setattr(DragonheadEmulator, "read_performance_data", corrupting)
        with pytest.raises(AuditError) as deferred:
            replay(log, config, audit="full")
        real_hold = FastLRUKernel.hold

        def eager_hold(kernel, resolved):
            real_hold(kernel, resolved)
            kernel._sets  # build the dicts now, as the probe once did

        monkeypatch.setattr(FastLRUKernel, "hold", eager_hold)
        with pytest.raises(AuditError) as eager:
            replay(log, config, audit="full")
        assert held == [True, False]
        names = {check.name for check in deferred.value.report.violations}
        assert names & {"occupancy", "lru-oracle"}
        assert deferred.value.report == eager.value.report
