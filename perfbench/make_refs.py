"""Regenerate ``perfbench/refs.json``: the outputs every run is checked against.

Run from the repository root::

    python3 perfbench/make_refs.py                      # every workload
    python3 perfbench/make_refs.py --workload serve_mixed

Stored per workload, alongside the parameters they were made with:

* ``kernel_fanout`` — the pickle digest of every (workload, cores,
  size) point a seed can draw;
* ``serve_mixed`` — for every spec a schedule can draw, the result
  digest of that spec run alone through ``JobSpec.run()``, and for each
  sampled spec the exact-path MPKI its error bar must bracket.

Regenerate only when a change is meant to alter results; a change that
claims to keep them must pass against the stored references.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.serve.jobspec import JobSpec, pickle_digest, result_digest  # noqa: E402

from perfbench.workloads import REFS_PATH, WORKLOADS  # noqa: E402


def kernel_fanout_refs(workload) -> dict:
    refs = {}
    for name in workload.params()["workloads"]:
        for cores in workload.CORE_COUNTS:
            spec = JobSpec(workload=name, cores=cores, cache=workload.SIZE_MENU)
            for size, result in zip(spec.cache, spec.run(jobs=workload.JOBS)):
                refs[workload.point_key(name, cores, size)] = pickle_digest(result)
    return refs


def serve_mixed_refs(workload) -> dict:
    digests, exact_mpki = {}, {}
    for payload in workload.universe():
        spec = JobSpec.from_json(payload)
        results = spec.run()
        digests[spec.content_key()] = result_digest(results)
        if spec.sample is not None:
            exact = JobSpec.from_json({**payload, "sample": None}).run()[0].mpki
            exact_mpki[spec.content_key()] = exact
            if not results[0].mpki.brackets(exact):
                print(f"warning: {payload} misses exact MPKI {exact}", file=sys.stderr)
    return {"digests": digests, "exact_mpki": exact_mpki}


BUILDERS = {
    "kernel_fanout": kernel_fanout_refs,
    "serve_mixed": serve_mixed_refs,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BUILDERS), action="append")
    args = parser.parse_args(argv)
    stored = json.loads(REFS_PATH.read_text()) if REFS_PATH.exists() else {}
    for name in args.workload or list(BUILDERS):
        start = time.perf_counter()
        workload = WORKLOADS[name]
        stored[name] = {"params": workload.params(), "refs": BUILDERS[name](workload)}
        print(f"{name}: {time.perf_counter() - start:.1f}s", file=sys.stderr)
        REFS_PATH.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
