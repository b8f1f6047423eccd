"""Co-simulation as a service: the ``repro-serve`` job server.

The package turns the one-shot harness CLIs into a long-running
serving layer:

* :mod:`repro.serve.jobspec` — the canonical job-spec/job-result model
  every front door shares (``repro-cosim`` and the server), plus the
  content-key helpers that keep server dedup, sweep journals, and
  trace-cache addressing derived from one place;
* :mod:`repro.serve.queue` — admission queue, priority scheduler, and
  the batch planner that coalesces jobs sharing a captured trace into
  single-pass multi-config replays;
* :mod:`repro.serve.server` — the daemon: JSON over local HTTP,
  streaming results and telemetry windows back to clients;
* :mod:`repro.serve.client` — a zero-dependency client used by the
  traffic-replay harness, the tests, and CI;
* :mod:`repro.serve.daemon` — the ``repro-serve`` command line.
"""

from repro.serve.jobspec import (
    JOBSPEC_VERSION,
    JobSpec,
    canonicalize,
    content_key,
    pickle_digest,
    point_content_key,
    raw_digest,
    result_digest,
)

__all__ = [
    "JOBSPEC_VERSION",
    "JobSpec",
    "canonicalize",
    "content_key",
    "pickle_digest",
    "point_content_key",
    "raw_digest",
    "result_digest",
]
