"""The sweep journal: one lease-based work-stealing ledger file.

Every supervised sweep journals through :class:`FabricLedger`, on
either executor: ``--journal`` names the file and ``--resume`` skips
every point it holds a ``done`` record for, so a sweep stopped on the
pool resumes on the shard fabric and vice versa.  On the pool only the
parent appends, and only ``done`` records; on the shard fabric every
worker appends to the same file, and these records coordinate them:

====================  ==================================================
record                meaning
====================  ==================================================
``{"format": 3}``     the journal schema header (first line)
``config``            sweep policy workers obey (TTL, retries, backoff,
                      quarantine threshold, optional fault plan)
``point``             manifest: one grid point (content key + pickled
                      ``(task, item)`` payload), appended by the parent;
                      a later record for the key starts it afresh
``claimed``           a worker took the point, exclusively until
                      ``expires``; ``steal`` marks a reclaimed expired
                      lease
``heartbeat``         lease renewal while the point runs
``done``              the point's result (the pickled value, its SHA,
                      cost metadata and, on the fabric, the worker)
``verified``          a racing re-execution compared byte-identical to
                      the recorded result and was discarded
``conflict``          a re-execution *differed* — determinism is broken
                      and the sweep must fail loudly
``failed``            one attempt raised; carries the attempt count and
                      the earliest time a retry may start (backoff)
``quarantined``       the point's lease expired under ``K`` distinct
                      workers — it is poison and is never claimed again
====================  ==================================================

Concurrency and crash-safety rules:

* every append happens under an exclusive ``fcntl`` lock on a sidecar
  ``<ledger>.lock`` file, and is flushed + fsynced before the lock is
  released — a record either exists durably or not at all;
* a writer that finds the file ending mid-line (a worker was SIGKILLed
  inside ``write(2)``) first appends a bare newline, turning the torn
  fragment into its own invalid line that every parser skips — two
  records can never fuse;
* readers only consume up to the last complete line, so a torn tail is
  invisible until its terminating newline lands;
* decisions that depend on ledger state (claiming, recording a result)
  re-scan *inside* the lock, so two workers can never hold the same
  valid lease and a result key is recorded at most once.

Idempotency argument, in one paragraph: points are identified by
content key, results are recorded by content key, and tasks are pure
functions of their items.  A worker that dies mid-point leaves only an
expired lease; the re-execution computes the same bytes, and whichever
finishes first wins the single ``done`` record — a later finisher
verifies byte-identity against it instead of appending.  Any mismatch
is recorded as ``conflict`` and fails the sweep, because it means a
task was not the pure function the contract requires.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.errors import ConfigurationError, FabricError
from repro.serve.jobspec import raw_digest

try:  # POSIX only; the fabric backends refuse to start without it.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

#: Journal schema version, on the header line and on every record that
#: names a point.  v2 stamped every record with ``schema`` so a line
#: pasted out of context still identifies its format; v3 added the
#: ``wall_time_s`` and ``attempts`` cost fields.  Resuming any other
#: version is a hard error, never a silent reinterpretation of old bytes.
LEDGER_FORMAT = 3

#: Pickle protocol for payloads and results; pinned so byte-identity
#: comparisons never trip over a protocol default changing under us.
PICKLE_PROTOCOL = 4


def _encode(value: Any) -> tuple[str, str]:
    """Pickle ``value``; return (base85 text, SHA-256 of the bytes).

    The digest comes from the shared job-spec content-key helpers, so
    ledger byte-identity verification, journal point keys, and served
    job-result digests all live in one key space and cannot drift.
    """
    raw = pickle.dumps(value, protocol=PICKLE_PROTOCOL)
    return base64.b85encode(raw).decode("ascii"), raw_digest(raw)


def _decode(text: str) -> Any:
    return pickle.loads(base64.b85decode(text))


@dataclass
class PointState:
    """Everything the ledger knows about one grid point."""

    key: str
    payload: str | None = None
    done: dict | None = None
    failed: list[dict] = field(default_factory=list)
    quarantined: dict | None = None
    conflict: dict | None = None
    verified: int = 0
    #: Current lease, if any.
    lease_worker: str | None = None
    lease_expires: float = 0.0
    #: Distinct workers whose lease on this key expired without that
    #: worker recording an outcome — the body count quarantine reads.
    expired_holders: set[str] = field(default_factory=set)

    def attempts(self) -> int:
        return len(self.failed)

    def retry_after(self) -> float:
        return self.failed[-1].get("retry_after", 0.0) if self.failed else 0.0

    def terminal(self, retries: int) -> bool:
        """No further execution will change this point's fate."""
        return (
            self.done is not None
            or self.quarantined is not None
            or self.conflict is not None
            or self.attempts() > retries
        )

    def untouched(self) -> bool:
        """Never claimed, failed or quarantined since its manifest."""
        return (
            not self.failed
            and self.quarantined is None
            and self.lease_worker is None
            and not self.expired_holders
        )

    def lease_expired(self, now: float) -> bool:
        return self.lease_worker is not None and now >= self.lease_expires

    def claimable(self, now: float, retries: int) -> bool:
        if self.terminal(retries):
            return False
        if self.lease_worker is not None and now < self.lease_expires:
            return False  # someone holds a valid lease
        return now >= self.retry_after()

    def dead_holders(self, now: float) -> set[str]:
        """Workers presumed killed while holding this point."""
        dead = set(self.expired_holders)
        if self.lease_expired(now):
            dead.add(self.lease_worker)
        return dead

    def result(self) -> Any:
        return _decode(self.done["result"])


@dataclass
class LedgerState:
    """The ledger's records folded into per-point + per-worker state."""

    config: dict = field(default_factory=dict)
    #: Manifest order is claim-scan order, so dict insertion order matters.
    points: dict[str, PointState] = field(default_factory=dict)
    #: worker id → wall-clock time of its last claim/heartbeat.
    last_seen: dict[str, float] = field(default_factory=dict)
    skipped_lines: int = 0

    def point(self, key: str) -> PointState:
        if key not in self.points:
            self.points[key] = PointState(key=key)
        return self.points[key]

    def all_terminal(self, retries: int) -> bool:
        return all(ps.terminal(retries) for ps in self.points.values())

    def _apply(self, row: dict) -> None:
        kind = row.get("type")
        if kind == "config":
            self.config = row
            return
        key = row.get("key")
        if key is None:
            return
        ps = self.point(key)
        if kind == "point":
            # Every manifest starts the point afresh, as a resumed
            # journal re-runs every point it holds no result for: the
            # latest payload wins (a resumed sweep may read its log from
            # a new place) and attempts, leases and quarantine restart.
            ps.payload = row.get("payload")
            ps.failed = []
            ps.quarantined = None
            ps.lease_worker = None
            ps.lease_expires = 0.0
            ps.expired_holders = set()
        elif kind == "claimed":
            if row.get("steal") and ps.lease_worker is not None:
                ps.expired_holders.add(ps.lease_worker)
            ps.lease_worker = row["worker"]
            ps.lease_expires = float(row["expires"])
            self.last_seen[row["worker"]] = float(row.get("time", 0.0))
        elif kind == "heartbeat":
            if ps.lease_worker == row["worker"]:
                ps.lease_expires = float(row["expires"])
            self.last_seen[row["worker"]] = float(row.get("time", 0.0))
        elif kind == "failed":
            ps.failed.append(row)
            if ps.lease_worker == row.get("worker"):
                ps.lease_worker = None
        elif kind == "verified":
            ps.verified += 1
        elif kind == "conflict":
            ps.conflict = row
        elif kind == "quarantined":
            if ps.quarantined is None:
                ps.quarantined = row
            ps.lease_worker = None
        elif kind == "done" or ("result" in row and kind is None):
            # ``kind is None`` accepts untyped results, the form older
            # pool journals hold.
            if ps.done is None:
                ps.done = row
            if ps.lease_worker == row.get("worker"):
                ps.lease_worker = None


@dataclass
class Claim:
    """A successful ``try_claim``: run this point now."""

    key: str
    payload: str
    attempt: int  # 1-based attempt number this execution is
    steal: bool
    expires: float

    def load(self) -> tuple[Any, Any]:
        """The manifested ``(task, item)`` pair."""
        return _decode(self.payload)


class FabricLedger:
    """One process's handle on the journal file.

    The supervisor's journal, the fabric driver and every shard worker
    hold their own instance; nothing is shared in memory.  Reads are
    incremental (the instance remembers its file offset); every write
    happens under the sidecar lock.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        resume: bool = False,
        create: bool = True,
    ) -> None:
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            raise ConfigurationError(
                "the sweep journal needs fcntl file locking, which this "
                "platform does not provide; run without --journal"
            )
        self.path = Path(path)
        self._offset = 0
        self.state = LedgerState()
        if create:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self._locked():
                if resume and self.path.exists() and self.path.stat().st_size:
                    self._check_header()
                else:
                    self.path.write_text(
                        json.dumps({"format": LEDGER_FORMAT}) + "\n",
                        encoding="utf-8",
                    )
        elif not self.path.exists():
            raise ConfigurationError(f"journal {self.path} does not exist")
        else:
            self._check_header()

    # -- locking and raw IO -------------------------------------------

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Exclusive advisory lock on the sidecar ``<ledger>.lock``."""
        lock_path = str(self.path) + ".lock"
        fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing drops the flock

    def _check_header(self) -> None:
        with open(self.path, "r", encoding="utf-8") as handle:
            first = handle.readline().strip()
        try:
            header = json.loads(first) if first else None
            version = header.get("format") if isinstance(header, dict) else None
        except ValueError:
            version = None
        if version != LEDGER_FORMAT:
            raise ConfigurationError(
                f"journal {self.path} carries schema {version!r}; this build "
                f"reads {LEDGER_FORMAT} — delete it or rerun without --resume"
            )

    def _append_locked(self, rows: list[dict]) -> None:
        """Append rows durably; caller must hold the lock."""
        data = b"".join(
            (json.dumps(row, sort_keys=True) + "\n").encode("utf-8")
            for row in rows
        )
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            size = os.lseek(fd, 0, os.SEEK_END)
            if size > 0 and os.pread(fd, 1, size - 1) != b"\n":
                # A writer was killed mid-write: terminate the torn
                # fragment so it parses as one invalid line, not as a
                # prefix fused onto this record.
                os.write(fd, b"\n")
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)

    def append(self, *rows: dict) -> None:
        """Append rows under the lock, riding out transient I/O errors.

        The retry wraps the whole lock-write-fsync transaction: a retry
        after a mid-write EIO can at worst leave a torn fragment, which
        the next writer's newline repair and every parser's torn-line
        tolerance already absorb.
        """
        from repro.governor.fsshim import fault_point
        from repro.governor.retry import retry_io

        def _write() -> None:
            fault_point("ledger.append")
            with self._locked():
                self._append_locked(list(rows))

        retry_io("ledger.append", _write)

    # -- reading -------------------------------------------------------

    def scan(self) -> list[dict]:
        """Fold new complete lines into ``state``; return them."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                data = handle.read()
        except FileNotFoundError:
            return []
        if not data:
            return []
        cut = data.rfind(b"\n")
        if cut < 0:
            return []  # only a torn tail so far
        chunk, self._offset = data[: cut + 1], self._offset + cut + 1
        rows: list[dict] = []
        for line in chunk.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError:
                self.state.skipped_lines += 1
                continue
            if not isinstance(row, dict) or row.get("format") is not None:
                continue  # the header (or junk)
            if "key" in row and row.get("schema") != LEDGER_FORMAT:
                raise ConfigurationError(
                    f"journal {self.path} entry carries schema "
                    f"{row.get('schema')!r}; this build reads {LEDGER_FORMAT}"
                    " — delete it or rerun without --resume"
                )
            self.state._apply(row)
            rows.append(row)
        return rows

    def completed(self) -> dict[str, PointState]:
        """Every point with a ``done`` record, after reading new lines."""
        self.scan()
        return {key: ps for key, ps in self.state.points.items() if ps.done}

    # -- parent-side operations ---------------------------------------

    def record(
        self,
        key: str,
        value: Any,
        wall_time_s: float | None = None,
        attempts: int = 1,
    ) -> None:
        """Journal one finished point, unless it already has a result.

        On the shard fabric the worker that ran the point recorded it,
        so the supervisor's call for the same key writes nothing.  The
        check runs inside the lock, and the whole transaction rides out
        transient I/O errors like :meth:`append`.
        """
        from repro.governor.fsshim import fault_point
        from repro.governor.retry import retry_io

        encoded, sha = _encode(value)
        row = {
            "schema": LEDGER_FORMAT,
            "type": "done",
            "key": key,
            "result": encoded,
            "sha": sha,
            "wall_time_s": wall_time_s,
            "attempts": attempts,
        }

        def _write() -> None:
            fault_point("ledger.append")
            with self._locked():
                self.scan()
                ps = self.state.points.get(key)
                if ps is None or ps.done is None:
                    self._append_locked([row])

        retry_io("ledger.append", _write)

    def write_config(self, config: dict) -> None:
        """Record sweep policy for the workers (last config wins)."""
        row = dict(config)
        row.update({"schema": LEDGER_FORMAT, "type": "config"})
        self.append(row)

    def manifest(self, points: list[tuple[str, Any]]) -> int:
        """Append ``point`` records for keys that still need to run.

        ``points`` is ``(key, (task, item))``; returns how many records
        were appended.  A key with a ``done`` record is skipped, and so
        is one whose latest record already carries this payload and
        that nothing has touched since, so re-manifesting an unchanged
        sweep appends nothing.  Any other key gets a fresh record,
        which a resumed sweep needs: a spilled log lives in a new
        temporary directory on every run, and a point that was claimed,
        failed or quarantined before the interruption must start over.
        """
        with self._locked():
            self.scan()
            rows = []
            for key, payload in points:
                ps = self.state.points.get(key)
                if ps is not None and ps.done is not None:
                    continue
                encoded, _ = _encode(payload)
                if ps is not None and ps.untouched() and ps.payload == encoded:
                    continue
                rows.append(
                    {
                        "schema": LEDGER_FORMAT,
                        "type": "point",
                        "key": key,
                        "payload": encoded,
                    }
                )
            if rows:
                self._append_locked(rows)
        return len(rows)

    # -- worker-side operations ---------------------------------------

    def try_claim(
        self,
        worker: str,
        lease_ttl: float,
        retries: int,
        quarantine_after: int,
        now: float | None = None,
    ) -> Claim | None:
        """Atomically claim the first available point, if any.

        Quarantine happens here, at the moment a worker would otherwise
        steal a poison point: if the point's lease has already expired
        under ``quarantine_after`` distinct workers, the worker records
        ``quarantined`` instead of claiming and moves on.
        """
        now = time.time() if now is None else now
        with self._locked():
            self.scan()
            rows: list[dict] = []
            claim: Claim | None = None
            for ps in self.state.points.values():
                if ps.payload is None or not ps.claimable(now, retries):
                    continue
                dead = ps.dead_holders(now)
                if len(dead) >= quarantine_after:
                    rows.append(
                        {
                            "schema": LEDGER_FORMAT,
                            "type": "quarantined",
                            "key": ps.key,
                            "worker": worker,
                            "dead_workers": sorted(dead),
                            "time": now,
                        }
                    )
                    continue
                steal = ps.lease_worker is not None
                expires = now + lease_ttl
                rows.append(
                    {
                        "schema": LEDGER_FORMAT,
                        "type": "claimed",
                        "key": ps.key,
                        "worker": worker,
                        "expires": expires,
                        "steal": steal,
                        "time": now,
                    }
                )
                claim = Claim(
                    key=ps.key,
                    payload=ps.payload,
                    attempt=ps.attempts() + 1,
                    steal=steal,
                    expires=expires,
                )
                break
            if rows:
                self._append_locked(rows)
        if rows:
            self.scan()  # fold our own records in
        return claim

    def heartbeat(self, key: str, worker: str, lease_ttl: float) -> None:
        now = time.time()
        self.append(
            {
                "schema": LEDGER_FORMAT,
                "type": "heartbeat",
                "key": key,
                "worker": worker,
                "expires": now + lease_ttl,
                "time": now,
            }
        )

    def record_done(
        self,
        key: str,
        worker: str,
        value: Any,
        wall_time_s: float,
        attempts: int,
    ) -> str:
        """Record a result exactly once; returns what happened.

        ``"done"``: this execution's result is now the point's record.
        ``"verified"``: another worker got there first and the bytes
        match — the duplicate is discarded, idempotency held.
        ``"conflict"``: the bytes differ; the sweep must fail.
        """
        encoded, sha = _encode(value)
        with self._locked():
            self.scan()
            ps = self.state.points.get(key)
            existing = ps.done if ps is not None else None
            if existing is not None:
                theirs = existing.get("sha")
                if theirs is None:
                    theirs = raw_digest(base64.b85decode(existing["result"]))
                outcome = "verified" if theirs == sha else "conflict"
                self._append_locked(
                    [
                        {
                            "schema": LEDGER_FORMAT,
                            "type": outcome,
                            "key": key,
                            "worker": worker,
                            "sha": sha,
                            "expected": theirs,
                        }
                    ]
                )
            else:
                outcome = "done"
                self._append_locked(
                    [
                        {
                            "schema": LEDGER_FORMAT,
                            "type": "done",
                            "key": key,
                            "result": encoded,
                            "sha": sha,
                            "worker": worker,
                            "wall_time_s": wall_time_s,
                            "attempts": attempts,
                        }
                    ]
                )
        self.scan()
        return outcome

    def record_failed(
        self,
        key: str,
        worker: str,
        attempts: int,
        error: BaseException,
        retry_after: float,
    ) -> None:
        self.append(
            {
                "schema": LEDGER_FORMAT,
                "type": "failed",
                "key": key,
                "worker": worker,
                "attempts": attempts,
                "error": f"{type(error).__name__}: {error}",
                "retry_after": retry_after,
                "time": time.time(),
            }
        )
        self.scan()


def ensure_no_conflicts(state: LedgerState) -> None:
    """Raise if any point's re-execution diverged from its first result."""
    for ps in state.points.values():
        if ps.conflict is not None:
            raise FabricError(
                f"point {ps.key[:12]}… was re-executed with a different "
                f"result (sha {ps.conflict.get('sha', '?')[:12]}… vs "
                f"{ps.conflict.get('expected', '?')[:12]}…) — the task is "
                "not a pure function of its item, which breaks the "
                "fabric's idempotent-retry contract"
            )
