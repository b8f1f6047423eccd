"""The sweep journal: one append-only JSONL file of finished points.

Every supervised sweep journals through :class:`FabricLedger`:
``--journal`` names the file and ``--resume`` skips every point it
holds a ``done`` record for.  Only the supervisor's parent process
appends, and only ``done`` records:

====================  ==================================================
record                meaning
====================  ==================================================
``{"format": 3}``     the journal schema header (first line)
``done``              one finished point: its content key, the pickled
                      result and that pickle's SHA-256, and cost
                      metadata (``wall_time_s``, ``attempts``)
====================  ==================================================

Records of any other type, which journals written by earlier builds
hold, are read past and never acted on, so such a journal still
resumes on exactly its ``done`` keys.

Crash-safety rules:

* every append happens under an exclusive ``fcntl`` lock on a sidecar
  ``<journal>.lock`` file, and is flushed + fsynced before the lock is
  released — a record either exists durably or not at all;
* a writer that finds the file ending mid-line (a process was
  SIGKILLed inside ``write(2)``) first appends a bare newline, turning
  the torn fragment into its own invalid line that the reader skips —
  two records can never fuse;
* the reader only consumes up to the last complete line, so a torn
  tail is invisible until its terminating newline lands;
* :meth:`FabricLedger.record` re-reads the file *inside* the lock, so
  a key is recorded at most once.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.errors import ConfigurationError
from repro.serve.jobspec import raw_digest

try:  # POSIX only; opening a journal refuses to start without it.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

#: Journal schema version, on the header line and on every record that
#: names a point.  v2 stamped every record with ``schema`` so a line
#: pasted out of context still identifies its format; v3 added the
#: ``wall_time_s`` and ``attempts`` cost fields.  Resuming any other
#: version is a hard error, never a silent reinterpretation of old bytes.
LEDGER_FORMAT = 3

#: Pickle protocol for results; pinned so a result's ``sha`` never
#: trips over a protocol default changing under us.
PICKLE_PROTOCOL = 4


def decode_result(record: dict) -> Any:
    """The value a ``done`` record holds."""
    return pickle.loads(base64.b85decode(record["result"]))


class FabricLedger:
    """One process's handle on the journal file.

    Reads are incremental (the instance remembers its file offset);
    every write happens under the sidecar lock.
    """

    def __init__(self, path: str | os.PathLike, resume: bool = False) -> None:
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            raise ConfigurationError(
                "the sweep journal needs fcntl file locking, which this "
                "platform does not provide; run without --journal"
            )
        self.path = Path(path)
        self._offset = 0
        #: Content key → the first ``done`` record read for it.
        self._done: dict[str, dict] = {}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._locked():
            if resume and self.path.exists() and self.path.stat().st_size:
                self._check_header()
            else:
                self.path.write_text(
                    json.dumps({"format": LEDGER_FORMAT}) + "\n",
                    encoding="utf-8",
                )

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Exclusive advisory lock on the sidecar ``<journal>.lock``."""
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

    def _append_locked(self, row: dict) -> None:
        """Append one row durably; caller must hold the lock."""
        data = (json.dumps(row, sort_keys=True) + "\n").encode("utf-8")
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

    def _scan(self) -> None:
        """Fold the ``done`` records of new complete lines in."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                data = handle.read()
        except FileNotFoundError:
            return
        cut = data.rfind(b"\n")
        if cut < 0:
            return  # nothing new, or only a torn tail so far
        self._offset += cut + 1
        for line in data[: cut + 1].splitlines():
            try:
                row = json.loads(line)
            except ValueError:
                continue  # a blank line or a torn fragment
            if not isinstance(row, dict) or "key" not in row:
                continue  # the header, or a record naming no point
            if row.get("schema") != LEDGER_FORMAT:
                raise ConfigurationError(
                    f"journal {self.path} entry carries schema "
                    f"{row.get('schema')!r}; this build reads {LEDGER_FORMAT}"
                    " — delete it or rerun without --resume"
                )
            kind = row.get("type")
            # ``kind is None`` accepts untyped results, the form older
            # journals hold.
            if kind == "done" or (kind is None and "result" in row):
                self._done.setdefault(row["key"], row)

    def completed(self) -> dict[str, dict]:
        """The ``done`` record of every finished point, by content key."""
        self._scan()
        return dict(self._done)

    def record(
        self,
        key: str,
        value: Any,
        wall_time_s: float | None = None,
        attempts: int = 1,
    ) -> None:
        """Journal one finished point, unless it already has a result.

        The check runs inside the lock, and the whole lock-write-fsync
        transaction rides out transient I/O errors: a retry after a
        mid-write EIO can at worst leave a torn fragment, which the
        next writer's newline repair and the reader's torn-line
        tolerance already absorb.
        """
        from repro.governor.fsshim import fault_point
        from repro.governor.retry import retry_io

        raw = pickle.dumps(value, protocol=PICKLE_PROTOCOL)
        row = {
            "schema": LEDGER_FORMAT,
            "type": "done",
            "key": key,
            "result": base64.b85encode(raw).decode("ascii"),
            "sha": raw_digest(raw),
            "wall_time_s": wall_time_s,
            "attempts": attempts,
        }

        def _write() -> None:
            fault_point("ledger.append")
            with self._locked():
                self._scan()
                if key not in self._done:
                    self._append_locked(row)

        retry_io("ledger.append", _write)
